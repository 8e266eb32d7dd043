"""Tests for the ksf command-line interface."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

import kspecfun
from kspecfun.cli import run_cli


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


def test_verify_tol_override(capsys):
    # an absurdly tight override turns comparison noise into failures
    code, out, _ = run(capsys, "verify", "--id", "EQ1.1", "--tol", "1e-18")
    assert code == 1
    assert "UNEXPECTED" in out
    code, _, err = run(capsys, "verify", "--id", "ALL", "--tol", "1e-9")
    assert code == 2 and "single identity" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_tol_override_must_be_finite_and_non_negative(capsys, tol):
    code, out, err = run(capsys, "verify", "--id", "EQ1.1", f"--tol={tol}")
    assert code == 2 and out == ""
    assert "tol override must be finite and >= 0" in err


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
        "residual     -5.049e-13\n"
        "bracket      [1.5, 5]\n"
        "iterations   23\n"
        "sign_changes 1\n"
    )


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--k", "1", "--n", "1",
                       "--x-lo", "0.5", "--x-hi", "5", "--points", "8")
    assert code == 0
    assert "n=0" in out and "n=1" in out and "verdict" in out


def test_scan_caps_n(capsys):
    code, _, err = run(capsys, "scan", "--k", "1", "--n", "5")
    assert code == 2


def test_scan_rejects_k_zero(capsys):
    code, out, err = run(capsys, "scan", "--k", "0", "--n", "1", "--x-lo", "1", "--x-hi", "2")
    assert code == 2 and out == ""
    assert "k must be finite and > 0" in err


def test_alpha0_rejects_nan_tol(capsys):
    code, out, err = run(capsys, "alpha0", "--k", "1", "--tol", "nan")
    assert code == 2 and out == ""
    assert "tol must be positive" in err
