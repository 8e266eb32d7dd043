"""Tests for the ksf command-line interface."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

import kspecfun
from kspecfun import studies
from kspecfun.cli import _atomic_write, run_cli
from kspecfun.registry import IdentityReport, _json_chunks, reports_to_json, run_all


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- eval
def test_eval_beta_k(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "beta_k", "--k", "1", "--x", "1")
    assert code == 0
    assert out.strip() == "0.6931471806"


def test_eval_other_functions(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "gamma_k", "--k", "2", "--x", "1")
    assert code == 0
    assert out.strip() == "1.253314137"
    code, out, _ = run(capsys, "eval", "--fn", "psi_k", "--k", "1", "--x", "1")
    assert out.strip() == "-0.5772156649"
    code, out, _ = run(capsys, "eval", "--fn", "psi_k_m", "--k", "1", "--m", "1", "--x", "1")
    assert out.strip() == "1.644934067"
    code, out, _ = run(capsys, "eval", "--fn", "hadamard_k", "--k", "1", "--x", "0.5")
    assert out.strip() == "0.8862269255"
    code, out, _ = run(capsys, "eval", "--fn", "zeta", "--m", "3")
    assert out.strip() == "1.202056903"
    code, out, _ = run(capsys, "eval", "--fn", "2f1", "--a", "1", "--b", "1",
                       "--c", "2", "--z", "-1")
    assert out.strip() == "0.6931471806"


def test_eval_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--fn", "nope", "--k", "1", "--x", "1")
    assert code == 2 and "unknown function" in err
    code, _, err = run(capsys, "eval", "--fn", "beta_k", "--k", "1")
    assert code == 2
    code, _, err = run(capsys, "eval", "--fn", "gamma_k", "--k", "-1", "--x", "1")
    assert code == 2
    code, _, err = run(capsys, "eval", "--fn", "2f1", "--a", "1", "--b", "1")
    assert code == 2 and "missing" in err


@pytest.mark.parametrize("argv,message", [
    (("alpha0", "--k", "1e100"), "H_k(1e+101) overflows binary64 (k=1e+100)"),
    (("eval", "--fn", "gamma_k", "--k", "1", "--x", "1000"),
     "Gamma_k(1000.0) overflows binary64 (k=1.0)"),
])
def test_overflow_is_a_failed_computation(capsys, argv, message):
    # a value beyond binary64 is no usage error: exit 1, as for no convergence
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"ksf: computation failed: {message}\n"


def test_unknown_flag_is_an_error(capsys):
    code = run_cli(["eval", "--fn", "beta_k", "--k", "1", "--x", "1", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()
    for sub in ("eval", "verify", "furdui", "alpha0", "scan"):
        assert run_cli([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out


# ---------------------------------------------------------------- verify
def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--id", "EQ5.11")
    assert code == 0
    assert "OVERALL: ok" in out
    assert "PASS" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "NOPE")
    assert code == 2 and "unknown identity id" in err


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--id", "ALL", "--list")
    assert code == 0
    assert "EQ5.11" in out.split()


def test_verify_grid_overrides(capsys):
    code, out, _ = run(capsys, "verify", "--id", "EQ1.1",
                       "--k-list", "1.5", "--x-list", "0.4,0.9")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_lem26_skips_with_a_documented_note_at_tiny_k(capsys):
    # at k = 1e-100 beta_k'(x)^2 is beyond binary64; squared with float ** it
    # raised a bare "(34, 'Numerical result out of range')" at all 7 points
    code, out, _ = run(capsys, "verify", "--id", "LEM2.6", "--k-list", "1e-100",
                       "--format", "json")
    reports = json.loads(out)
    assert code == 0 and len(reports) == 7
    assert {(r["verdict"], r["note"]) for r in reports} == {("SKIP", "non-finite rhs")}


@pytest.mark.parametrize("flags,message", [
    (("--k-list", "1,two"), "could not parse k list '1,two'"),
    (("--x-list", " , "), "empty x list"),
])
def test_verify_rejects_grid_lists_it_cannot_read(capsys, flags, message):
    code, out, err = run(capsys, "verify", "--id", "EQ1.1", *flags)
    assert code == 2 and out == ""
    assert err == f"ksf: error: {message}\n"


@pytest.mark.parametrize("flags", [("--k-list", "nan"), ("--x-list", "inf"),
                                   ("--x-list", "inf", "--format", "json")])
def test_verify_rejects_non_finite_grid_values(capsys, flags):
    code, out, err = run(capsys, "verify", "--id", "EQ1.1", *flags)
    assert code == 2 and out == ""
    assert "grid k and x values must be finite" in err


def test_verify_all_json_deterministic(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    code1, _, _ = run(capsys, "verify", "--id", "ALL", "--format", "json", "--out", str(p1))
    code2, _, _ = run(capsys, "verify", "--id", "ALL", "--format", "json", "--out", str(p2))
    assert code1 == 0 and code2 == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert isinstance(payload, list) and len(payload) > 500


def test_verify_csv_output(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "--id", "EQ5.11", "--format", "csv", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("id,")
    assert all(line.split(",")[0] == "EQ5.11" for line in lines[1:])


def test_verify_format_without_out_goes_to_stdout(capsys):
    code, out, _ = run(capsys, "verify", "--id", "ALL", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 1324
    code, out, _ = run(capsys, "verify", "--id", "EQ5.11", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("id,")


def test_verify_no_file_written_on_usage_error(tmp_path, capsys):
    path = tmp_path / "never.json"
    code, _, _ = run(capsys, "verify", "--id", "NOPE", "--format", "json", "--out", str(path))
    assert code == 2
    assert not path.exists()
    assert not any(name.startswith(".ksf-") for name in os.listdir(tmp_path))


def test_verify_out_streams_the_text_of_reports_to_json(tmp_path, capsys):
    path = tmp_path / "all.json"
    code, _, _ = run(capsys, "verify", "--id", "ALL", "--format", "json", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == reports_to_json(run_all().reports).encode("ascii")


def test_a_stream_that_fails_partway_leaves_the_target_untouched(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    good = IdentityReport("X", {"k": 1.0}, 1.0, 1.0, 0.0, 0.0, "PASS", "")
    chunks = _json_chunks([good, good._replace(lhs=math.nan), good])
    with pytest.raises(ValueError, match="not JSON compliant"):
        _atomic_write(str(target), chunks)
    assert target.read_text() == "earlier report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_verify_reports_where_the_point_generator_fails(tmp_path, capsys):
    # THM4.3's points sit above alpha0(k), which overflows at k = 1e100;
    # that k is a SKIP, not a usage error without a report
    path = tmp_path / "thm43.json"
    code, _, err = run(capsys, "verify", "--id", "THM4.3-above", "--k-list", "1e100",
                       "--format", "json", "--out", str(path))
    assert code in (0, 1) and err == ""
    assert json.loads(path.read_text()) == [{
        "identity_id": "THM4.3-above", "params": {"k": 1e100}, "lhs": None, "rhs": None,
        "abs_diff": None, "rel_diff": None, "verdict": "SKIP",
        "note": "OverflowError: H_k(1e+101) overflows binary64 (k=1e+100)"}]


@pytest.mark.parametrize("k", ["5e-324", "1e-300", "1e-100", "1e300", "1.7e308"])
def test_verify_all_writes_a_report_at_extreme_k(tmp_path, k):
    # each of these k once ended in a traceback: a ZeroDivisionError, or at
    # 1.7e308 a ValueError for a point at x = inf; the run goes in a child
    # process with a 1 GB address-space cap and a timeout
    path = tmp_path / "report.json"
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from kspecfun.cli import main\n"
             "main()\n")
    src = os.path.dirname(os.path.dirname(kspecfun.__file__))
    done = subprocess.run(
        [sys.executable, "-c", child, "verify", "--id", "ALL", "--k-list", k,
         "--format", "json", "--out", str(path)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode in (0, 1), done.stderr
    assert done.stderr == ""
    reports = json.loads(path.read_text())
    assert {r["identity_id"] for r in reports} == set(kspecfun.registry_ids())
    assert {r["params"]["k"] for r in reports if "k" in r["params"]} == {float(k)}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_skips_reports_with_non_finite_sides(capsys, fmt):
    # at k = 1e-320 each Gamma_k factor is about 1e288, so both sides are inf
    code, out, err = run(capsys, "verify", "--id", "EQ2.2-corrected",
                         "--k-list", "1e-320", "--format", fmt)
    assert code == 0 and err == ""
    assert re.search("inf|nan", out, re.IGNORECASE) is None
    assert out.count("SKIP") == 3
    if fmt == "json":
        notes = {r["note"] for r in json.loads(out)}
        assert notes == {"non-finite lhs and rhs"}


def test_python_m_entry_point():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(kspecfun.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def ksf(*argv):
        return subprocess.run([sys.executable, "-m", "kspecfun.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    ok = ksf("verify", "--id", "EQ1.1")
    assert ok.returncode == 0
    assert "OVERALL: ok" in ok.stdout
    assert ksf("verify", "--id", "NOPE").returncode == 2


# ---------------------------------------------------------------- furdui
def test_furdui_table(capsys):
    code, out, _ = run(capsys, "furdui", "--k", "1", "--m", "2",
                       "--methods", "oracle,thm31,thm34")
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith("method")]
    assert len(lines) == 3
    values = [float(line.split()[1]) for line in lines]
    expected = 2.0 * math.log(1.2824271291006226) - 0.5 * math.log(2.0 * math.pi)
    for v in values:
        assert v == pytest.approx(expected, abs=1e-7)


def test_furdui_unknown_method(capsys):
    code, _, err = run(capsys, "furdui", "--k", "1", "--m", "1", "--methods", "oracle,bogus")
    assert code == 2
    assert err == ("ksf: error: unknown method(s) bogus; choose from oracle, thm31, "
                   "thm32_printed, thm32_variant, thm33_printed, thm33_variant, thm34\n")
    code, _, err = run(capsys, "furdui", "--k", "1", "--m", "2", "--methods", "eq310")
    assert code == 2 and "eq310" in err
    code, out, err = run(capsys, "furdui", "--k", "1", "--m", "2", "--methods", ",")
    assert (code, out, err) == (2, "", "ksf: error: empty --methods list\n")


def test_furdui_prints_nothing_when_the_reference_fails(capsys):
    # the oracle raises at k = 5e-324, so no table header may precede the error
    code, out, err = run(capsys, "furdui", "--k", "5e-324", "--m", "1", "--methods", "thm31")
    assert code == 2 and out == ""
    assert err == ("ksf: error: furdui_oracle requires k/2 > 0 for its quadrature on [0, k], "
                   "got k=5e-324\n")


# ---------------------------------------------------------------- alpha0 / scan
def test_alpha0_command(capsys):
    code, out, _ = run(capsys, "alpha0", "--k", "1")
    assert code == 0
    root = float(out.splitlines()[0].split()[1])
    assert 1.5 < root < 3.0


def test_alpha0_command_output_pinned(capsys):
    code, out, _ = run(capsys, "alpha0", "--k", "1")
    assert code == 0
    assert out == (
        "root         1.503176092\n"
        "residual     0.000e+00\n"
        "bracket      [1.5, 5]\n"
        "iterations   54\n"
        "sign_changes 1\n"
    )


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--k", "1", "--n", "1",
                       "--x-lo", "0.5", "--x-hi", "5", "--points", "8")
    assert code == 0
    assert "n=0" in out and "n=1" in out and "verdict" in out


def test_scan_without_a_range_samples_the_default_units(capsys):
    code, out, _ = run(capsys, "scan", "--k", "2", "--n", "0")
    assert code == 0
    xs = [float(x) for x in re.findall(r"^  x=\s*(\S+)", out, re.MULTILINE)]
    assert xs == [2.0 * u for u in studies.DEFAULT_UNITS]


@pytest.mark.parametrize("flags,message", [
    (("--x-lo", "1"), "provide both --x-lo < --x-hi"),
    (("--x-hi", "2"), "provide both --x-lo < --x-hi"),
    (("--x-lo", "2", "--x-hi", "1"), "provide both --x-lo < --x-hi"),
    (("--x-lo", "1", "--x-hi", "2", "--points", "1"), "--points must be >= 2"),
])
def test_scan_usage_errors(capsys, flags, message):
    code, out, err = run(capsys, "scan", "--k", "1", "--n", "1", *flags)
    assert (code, out, err) == (2, "", f"ksf: error: {message}\n")


def _rise_then_fall(k, n, x):
    # f = 1 and f'' = 1, so g_0 = f'; f' rises up to x = 1 and falls after it
    return [1.0, x if x <= 1.0 else 1.0 / x] + [1.0] * (n - 1)


def test_scan_names_the_first_violation_of_neither(monkeypatch, capsys):
    # no grid of the real f reaches this verdict, so f is faked
    monkeypatch.setattr(studies, "_x_beta_k_derivs", _rise_then_fall)
    (table,) = studies.openproblem_scan(1.0, 0)
    assert table.verdict == "neither"
    assert table.first_violation == (1.0, 1.5, 1.0, 1.0 / 1.5)
    code, out, _ = run(capsys, "scan", "--k", "1", "--n", "0")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "  verdict: neither",
        "  first violation between x=1 (g=1) and x=1.5 (g=0.6666666667)",
    ]


def test_scan_caps_n(capsys):
    code, _, err = run(capsys, "scan", "--k", "1", "--n", "5")
    assert code == 2


def test_scan_rejects_k_zero(capsys):
    code, out, err = run(capsys, "scan", "--k", "0", "--n", "1", "--x-lo", "1", "--x-hi", "2")
    assert code == 2 and out == ""
    assert "k must be finite and > 0" in err

