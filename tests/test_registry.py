"""Tests for the identity registry, runner and scanner."""

import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import kspecfun
from kspecfun import (
    DomainError,
    beta,
    hadamard,
    GridSpec,
    default_grid,
    furdui,
    kcore,
    registry,
    routes,
    scalar,
    studies,
    get_entry,
    openproblem_scan,
    registry_ids,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_identity,
)
from kspecfun.beta import beta_k, beta_k_deriv
from kspecfun.registry import IdentityReport, _param_key

AUDIT_IDS = (
    "EQ2.2", "EQ5.5", "THM3.2", "THM3.3", "THM4.4", "THM5.1", "EQ4.8",
)


@pytest.fixture(scope="module")
def summary():
    return run_all(default_grid())


def test_registry_ids_unique_and_complete():
    ids = registry_ids()
    assert len(ids) == len(set(ids))
    for stem in AUDIT_IDS:
        assert f"{stem}-printed" in ids
        assert f"{stem}-corrected" in ids
    for required in ("EQ1.1", "LEM2.4", "EQ5.11", "THM3.1", "THM4.1", "THM5.2"):
        assert required in ids


def _entries():
    return [get_entry(identity_id) for identity_id in registry_ids()]


def _routes():
    return [route for entry in _entries() for route in (entry.lhs, entry.rhs)]


def test_every_entry_has_an_rhs_route():
    for entry in _entries():
        assert callable(entry.rhs), entry.id


def test_every_side_is_a_named_route():
    for route in _routes():
        assert route.__name__ != "<lambda>", route


def test_distinct_routes_have_distinct_names():
    names = [route.__name__ for route in {id(route): route for route in _routes()}.values()]
    assert len(names) == len(set(names))


def test_no_entry_uses_one_route_for_both_sides():
    for entry in _entries():
        assert entry.lhs is not entry.rhs, entry.id


def test_only_thm32_series_takes_a_variant():
    # printed forms are registry routes; thm32_series keeps both prefixes
    # because the CLI method table needs them
    takers = []
    for name in ("kcore", "beta", "hadamard", "furdui", "studies"):
        module = importlib.import_module(f"kspecfun.{name}")
        for public in module.__all__:
            fn = getattr(module, public)
            if inspect.isfunction(fn) and "variant" in inspect.signature(fn).parameters:
                takers.append(f"{name}.{public}")
    assert takers == ["furdui.thm32_series"]


def test_thm41_lhs_never_takes_the_recurrence_step(monkeypatch):
    # the lhs may evaluate H_k at x + k only, never at x, and never walks
    # the recurrence of recursion_47
    real = hadamard.hadamard_k
    seen = []

    def spy(k, x):
        seen.append(x)
        return real(k, x)

    entry = get_entry("THM4.1")  # built first: EQ4.7 binds recursion_47
    monkeypatch.setattr(hadamard, "hadamard_k", spy)
    monkeypatch.delattr(routes, "recursion_47")
    for params in entry.points(default_grid()):
        seen.clear()
        entry.lhs(**params)
        assert seen in ([], [params["x"] + params["k"]]), params


def test_beta_k_and_hadamard_k_share_no_kernel_with_the_cross_check_routes(monkeypatch):
    # beta_k_series and lerch_alt (THM5.2, EQ5.11, THM4.4) sum the alternating
    # series with _alt_recip_sum; beta_k and hadamard_k reach neither it nor
    # the digamma loop nor psi_k, so those entries play two disjoint kernels
    def refuse(*args):
        raise AssertionError("a cross-check kernel was reached")

    for module in (scalar, kcore, beta, hadamard, routes):
        for name in ("_alt_recip_sum", "_alt_recip_asymptotic", "digamma", "_digamma", "psi_k"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    grid = default_grid()
    for k in grid.k_values:
        for u in grid.x_values:
            assert beta_k(k, u * k) > 0.0
            assert math.isfinite(hadamard.hadamard_k(k, u * k))
            assert math.isfinite(hadamard.hadamard_k(k, -u * k))


def test_psi_k_m_shares_no_kernel_with_the_series_route(monkeypatch):
    # psi_k_m_series (EQ1.3's rhs) and zeta_tail (THM3.4's lhs) close their
    # sums with _em_power_tail; the polygamma kernel, psi_k_m itself, never
    # reaches it, so every k-polygamma value that EQ1.3 and THM3.4 read on
    # the default grid comes out the same with that tail refused.  The
    # registry holds psi_k_m by reference, so its returns are read off a
    # profiler rather than a patched name.
    calls = {}
    kernel = kcore.psi_k_m.__code__

    def record(frame, event, arg):
        if event == "return" and frame.f_code is kernel and arg is not None:
            args = frame.f_locals
            calls[identity_id].append((args["m"], args["k"], args["x"], arg))

    furdui._thm34_sum.cache_clear()  # so that THM3.4 reaches polygamma
    for identity_id in ("EQ1.3", "THM3.4-corrected"):
        calls[identity_id] = []
        sys.setprofile(record)
        try:
            run_identity(identity_id)
        finally:
            sys.setprofile(None)
    assert all(calls.values())

    def refuse(*args):
        raise AssertionError("the series route's Euler-Maclaurin tail was reached")

    monkeypatch.setattr(routes, "_em_power_tail", refuse)
    for m, k, x, value in (call for seen in calls.values() for call in seen):
        assert kspecfun.psi_k_m(k, m, x) == value


def _math_without(name):
    """The math module's names with ``name`` refused, for one module's ``math`` global."""
    def refuse(*args):
        raise AssertionError(f"math.{name} was reached")

    names = {attr: getattr(math, attr) for attr in dir(math) if not attr.startswith("_")}
    names[name] = refuse
    return types.SimpleNamespace(**names)


def test_eq21_sides_share_no_gamma_kernel(monkeypatch):
    # EQ2.1's lhs, gamma_k, takes the product k^(x/k - 1) Gamma(x/k) from
    # math.gamma on the default grid; its rhs takes the log form from
    # math.lgamma.  Each side gives the same values with the other's refused.
    entry = get_entry("EQ2.1")
    points = list(entry.points(default_grid()))
    lhs = [entry.lhs(**params) for params in points]
    rhs = [entry.rhs(**params) for params in points]
    with monkeypatch.context() as patch:
        patch.setattr(kcore, "math", _math_without("lgamma"))
        assert [entry.lhs(**params) for params in points] == lhs
    monkeypatch.setattr(registry, "math", _math_without("gamma"))
    assert [entry.rhs(**params) for params in points] == rhs


def test_thm41_lhs_reaches_no_beta_kernel_of_the_rhs(monkeypatch):
    # THM4.1's rhs, x H_k(x) + 1/Gamma_k(k - x), takes beta(u) from
    # beta._beta_unit through hadamard_k.  Its lhs continues beta_k below 0
    # through routes.lerch_alt, so at every x > 0 it gives the same values with
    # that kernel refused; at x <= 0 it is hadamard_k at x + k.
    entry = get_entry("THM4.1")
    points = [params for params in entry.points(default_grid()) if params["x"] > 0.0]
    assert len(points) == 120
    lhs = [entry.lhs(**params) for params in points]

    def refuse(*args):
        raise AssertionError("beta._beta_unit was reached")

    monkeypatch.setattr(beta, "_beta_unit", refuse)
    monkeypatch.setattr(hadamard, "_beta_unit", refuse)
    assert [entry.lhs(**params) for params in points] == lhs
    with pytest.raises(AssertionError, match="_beta_unit was reached"):
        entry.rhs(**points[0])


def test_comparisons_and_expectations_are_known():
    for entry in _entries():
        assert entry.comparison in ("abs", "rel", "le", "lt"), entry.id
        assert entry.expectation in ("PASS", "FAIL"), entry.id


def test_unknown_identity_rejected():
    with pytest.raises(DomainError):
        run_identity("EQ0.0")


def test_unhashable_identity_rejected():
    with pytest.raises(DomainError, match="^unknown identity id"):
        get_entry(["EQ1.1"])


def test_duplicate_identity_ids_are_refused(monkeypatch):
    entry = get_entry("EQ1.1")
    monkeypatch.setattr(kspecfun.registry, "_build_entries", lambda: [entry, entry])
    with pytest.raises(RuntimeError, match="duplicate identity id 'EQ1.1'"):
        kspecfun.registry._entries.__wrapped__()


def test_estimate_sides_are_compared_on_their_value():
    # THM5.2's rhs is the library route beta_k_series itself
    entry = get_entry("THM5.2")
    assert entry.rhs is routes.beta_k_series
    (report,) = run_identity("THM5.2", GridSpec(k_values=(2.0,), x_values=(0.7,)))
    assert report.rhs == routes.beta_k_series(2.0, 1.4).value


def test_run_identity_deterministic():
    first = run_identity("EQ5.11")
    second = run_identity("EQ5.11")
    assert first == second
    assert all(r.verdict == "PASS" for r in first)


def test_run_identity_ordering():
    reports = run_identity("EQ1.1")
    keys = [(r.identity_id, tuple(sorted(r.params.items()))) for r in reports]
    assert keys == sorted(keys)


def test_skip_on_pole_exclusion():
    # the printed Lerch identity meets the pole of Phi(-1, 1, a) at x = 0
    reports = run_identity("THM4.4-printed")
    skips = [r for r in reports if r.verdict == "SKIP"]
    assert len(skips) == 1
    assert skips[0].params == {"x": 0.0}
    assert skips[0].lhs is None and skips[0].abs_diff is None
    assert skips[0].note == ("PoleError: Phi(-1, 1, a) has poles at nonpositive integers, "
                             "got a=0.0")


def test_skip_on_convergence_error():
    # x = 1 is near the zero of psi_k at k = 1e-3, where the parts of the psi_k
    # series of EQ1.2, each of order 1e4, cancel below its relative target
    reports = run_identity("EQ1.2", GridSpec(k_values=(1e-3,), x_values=(1e3,)))
    assert len(reports) == 1 and reports[0].verdict == "SKIP"
    assert reports[0].lhs is None and reports[0].abs_diff is None
    assert reports[0].note.startswith(
        "ConvergenceError: psi_k_series error 2.750e-11 exceeds 1e-12 max(1, |value|)")


@pytest.mark.parametrize("identity_id,k,note", [
    ("EQ1.2", 1e-300, "DomainError: psi_k_series requires (nk)(nk + x) within the normal range"),
    ("SCALING-BETA", 1e-300,
     "DomainError: psi_k_series requires (nk)(nk + x) within the normal range"),
    ("REMARK5-refined", 1e-300,
     "DomainError: beta_k_refined_upper_bound requires k^2 >= 2^-1022, got k=1e-300"),
])
def test_routes_that_would_divide_by_zero_skip(identity_id, k, note):
    # each of these points once raised ZeroDivisionError out of run_identity
    reports = run_identity(identity_id, GridSpec(k_values=(k,)))
    assert reports
    assert all(r.verdict == "SKIP" and r.note.startswith(note) for r in reports)


def test_lem27_skips_where_beta_squared_leaves_the_normal_range():
    # at u = x/k near 1e200, beta(u)^2 and beta'(u) both underflow to 0.0,
    # and 0.0/0.0 once raised ZeroDivisionError out of run_identity
    reports = run_identity("LEM2.7", GridSpec(k_values=(1.0,), x_values=(1e200, 2e200)))
    assert [r.verdict for r in reports] == ["SKIP"]
    assert reports[0].note.startswith("DomainError: lambda_ratio requires beta(x/k)^2 >= 2^-1022")


@pytest.mark.parametrize("k", [1e-320, 1e-300, 1e200, 1e300])
def test_lem27_holds_where_beta_k_squared_leaves_the_normal_range(k):
    # lambda_ratio takes beta and beta' at k = 1 and u = x/k and scales once
    # by k, so it forms no beta_k^2; at 1e300 it once gave six SKIPs
    reports = run_identity("LEM2.7", GridSpec(k_values=(k,)))
    assert [r.verdict for r in reports] == ["PASS"] * 6


@pytest.mark.parametrize("identity_id,k", [
    ("THM3.2-printed", 1e-100), ("THM3.3-printed", 1e-300), ("EQ4.8-printed", 1e300),
])
def test_a_fit_that_does_not_exist_on_the_grid_is_left_out(identity_id, k):
    # the Furdui fits divide by k^m, which underflows for some m; the ratio fit
    # of EQ4.8 meets an rhs of 0.0.  Each once ended run_all in an exception
    reports = run_identity(identity_id, GridSpec(k_values=(k,)))
    assert any(r.verdict != "SKIP" for r in reports)
    assert kspecfun.registry.fits_for(get_entry(identity_id), reports) == ()


def test_a_ratio_group_of_mixed_sign_still_raises():
    # unlike a side at 0.0, a ratio that changes sign within a group is
    # misprint evidence, and fits_for does not drop it
    reports = run_identity("EQ4.8-printed", GridSpec(k_values=(1.0,)))
    assert kspecfun.registry.fits_for(get_entry("EQ4.8-printed"), reports)
    first = next(i for i, r in enumerate(reports) if r.verdict != "SKIP")
    reports[first] = reports[first]._replace(lhs=-reports[first].lhs)
    with pytest.raises(DomainError, match="consistent sign"):
        kspecfun.registry.fits_for(get_entry("EQ4.8-printed"), reports)


def test_series_entries_report_at_every_k_of_the_sweep():
    # the Furdui series and the beta_k expansions scale once from their k = 1
    # forms, so every k of the contract sweep gives a report per point, and
    # the expansions, whose values are of order 1/k, pass at large k
    ids = [i for i in registry_ids() if i.startswith(("THM3.", "FURDUI-ANCHOR"))]
    ids += ["THM5.4", "THM5.5"]
    for k in (5e-324, 1e-300, 1e-10, 1e-3, 1.0, 5.0, 30.0, 1e3, 1e100, 1e300, 1.7e308):
        grid = GridSpec(k_values=(k,))
        for identity_id in ids:
            reports = run_identity(identity_id, grid)
            assert reports, (identity_id, k)
            if identity_id.startswith("THM5") and k in (5.0, 30.0, 1e3):
                assert {r.verdict for r in reports} == {"PASS"}, (identity_id, k)


def test_threshold_entries_report_at_large_k():
    # alpha0_solve converges at large k, so the THM4.3 grids and
    # ALPHA0-SCALING report there; k = 1e10 was a false FAIL under an
    # absolute 1e-8, and the relative 1e-15 passes it
    for k in (1e4, 1e10):
        grid = GridSpec(k_values=(k,))
        assert {r.verdict for r in run_identity("THM4.3-above", grid)} == {"PASS"}
        assert {r.verdict for r in run_identity("THM4.3-below", grid)} == {"FAIL"}
        (scaling,) = run_identity("ALPHA0-SCALING", grid)
        assert scaling.verdict == "PASS"


def test_points_outside_binary64_skip_their_k():
    # at k = 1.7e308 the unit 5 scales x to inf, which once reached the JSON
    # writer; at k = 5e-324 the unit 0.1 scales x to 0.0, where the lower
    # bound 1/x once raised ZeroDivisionError
    reports = run_identity("EQ1.1", GridSpec(k_values=(1.0, 1.7e308)))
    assert [(r.params, r.verdict, r.note) for r in reports if r.params["k"] != 1.0] == [
        ({"k": 1.7e308}, "SKIP", "DomainError: point parameter x = inf is not finite")]
    assert reports[:-1] == run_identity("EQ1.1", GridSpec(k_values=(1.0,)))
    assert [(r.params, r.verdict, r.note)
            for r in run_identity("REMARK5-lower", GridSpec(k_values=(5e-324,)))] == [
        ({"k": 5e-324}, "SKIP", "DomainError: x = 0.1 k underflows to 0.0 at k=5e-324")]


def test_lem22_passes_at_small_k():
    # the integral of psi_k against the ln Gamma_k increment has no step to
    # scale; the central difference it replaced failed at all 7 points at 1e-10
    reports = run_identity("LEM2.2", GridSpec(k_values=(1e-3, 1e-10)))
    assert len(reports) == 14 and {r.verdict for r in reports} == {"PASS"}
    assert max(r.abs_diff for r in reports) < 1e-12


def test_lem25_takes_the_derivatives_once_per_unit(monkeypatch):
    # f_k^(n)(x) has the sign of f_1^(n)(x/k), and x/k is the same unit at
    # every k of the default grid, so the 4 k values share 7 evaluations
    real = studies._x_beta_k_derivs
    units = []

    def spy(k, n, u):
        units.append(u)
        return real(k, n, u)

    monkeypatch.setattr(studies, "_x_beta_k_derivs", spy)
    kspecfun.registry._completely_monotone_at.cache_clear()
    (report,) = [r for r in run_identity("LEM2.5") if r.params == {"k": 1.0}]
    assert report.verdict == "PASS"
    assert sorted(units) == sorted(default_grid().x_values)


def test_lem25_skips_where_the_probe_range_is_not_finite():
    # the signs are read at x = u k for the grid's units; above k = 3.6e307
    # the unit 5 scales x to inf, and the k is a SKIP.  The check runs in a
    # child process with a memory cap and a timeout, as extreme-k runs do
    child = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from kspecfun import GridSpec, run_identity
        for k in (3e307, 4e307, 1.7e308):
            (report,) = run_identity("LEM2.5", GridSpec(k_values=(k,)))
            print(report.verdict, report.note)
    """)
    src = str(Path(kspecfun.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("PASS ")
    assert lines[1:] == ["SKIP DomainError: x must be finite, got inf"] * 2


def test_h_seam_passes_at_large_k():
    # the geometric mean cancels the factors k^(+-1e-5); the arithmetic mean
    # was cosh(1e-5 ln k), 2.4e-9 away from 1 at k = 1e3
    (report,) = run_identity("H-SEAM", GridSpec(k_values=(1e3,)))
    assert report.verdict == "PASS" and report.abs_diff < 1e-9


def test_a_failing_point_generator_skips_only_its_k():
    # the THM4.3 generators solve for alpha0(k), which overflows at 1e100
    reports = run_identity("THM4.3-below", GridSpec(k_values=(1.0, 1e100, 2.0)))
    skipped = [r for r in reports if r.verdict == "SKIP"]
    assert [(r.params, r.note) for r in skipped] == [
        ({"k": 1e100}, "OverflowError: H_k(1e+101) overflows binary64 (k=1e+100)")]
    assert [r for r in reports if r not in skipped] \
        == run_identity("THM4.3-below", GridSpec(k_values=(1.0, 2.0)))


def test_empty_grid_gives_empty_reports():
    grid = GridSpec(k_values=(), x_values=())
    assert run_identity("EQ1.1", grid) == []
    summary = run_all(grid)
    assert summary.overall_ok


def test_run_all_green(summary):
    assert summary.overall_ok
    for entry in summary.entries:
        if entry.expectation == "PASS":
            assert entry.n_fail == 0, entry.identity_id
            assert entry.n_pass > 0, entry.identity_id


def test_run_all_orders_reports_by_param_key_and_entries_by_registration(summary):
    # the reports are each id's run_identity lists, joined in id order
    assert list(summary.reports) == sorted(summary.reports, key=_param_key)
    assert [entry.identity_id for entry in summary.entries] == registry_ids()
    assert [entry.identity_id for entry in summary.entries] != sorted(registry_ids())


def test_expected_failures_are_documented(summary):
    by_id = {entry.identity_id: entry for entry in summary.entries}
    for stem in AUDIT_IDS:
        printed = by_id[f"{stem}-printed"]
        corrected = by_id[f"{stem}-corrected"]
        assert printed.n_fail >= 1, printed.identity_id
        assert corrected.n_fail == 0, corrected.identity_id


def test_discrepancy_fits_clean_and_match_documented_constants(summary):
    by_id = {entry.identity_id: entry for entry in summary.entries}
    with_fits = ("EQ2.2-printed", "EQ5.5-printed", "EQ4.8-printed",
                 "THM3.2-printed", "THM3.3-printed", "FURDUI-ANCHOR-printed")
    for identity_id in with_fits:
        entry = by_id[identity_id]
        assert entry.fits, identity_id
        for rec in entry.fits:
            assert rec.fit.residual_rms < 1e-8, rec.label
            assert rec.fit.n_points >= 3
            assert rec.expected is not None
            assert rec.fit.constant == pytest.approx(rec.expected, rel=1e-9)


def test_serialisation_deterministic(summary):
    js1 = reports_to_json(summary.reports)
    js2 = reports_to_json(run_all(default_grid()).reports)
    assert js1 == js2
    csv1 = reports_to_csv(summary.reports)
    assert csv1.splitlines()[0].startswith("id,")
    assert len(csv1.splitlines()) == len(summary.reports) + 1


def _json_dumps_reports(reports):
    # reference: the json module's encoder on the list of report dicts
    payload = [{"identity_id": r.identity_id, "params": r.params, "lhs": r.lhs,
                "rhs": r.rhs, "abs_diff": r.abs_diff, "rel_diff": r.rel_diff,
                "verdict": r.verdict, "note": r.note} for r in reports]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def test_json_bytes_match_json_dumps(summary):
    skip = IdentityReport("EQ2.2-corrected", {"k": 1.0, "x": 0.1}, None, None, None, None,
                          "SKIP", "pole exclusion")
    mixed = IdentityReport("FURDUI-ANCHOR-printed", {"method": "thm34", "m": 2, "n": 3},
                           -0.25, 1e-300, 5e-324, 0.0, "FAIL", 'k\u2212gamma "printed"')
    no_params = IdentityReport("X", {}, -0.0, 1.7976931348623157e308, 1e16, 0.1, "PASS", "")
    cases = (list(summary.reports), [], [skip], [mixed], [no_params], [skip, mixed, no_params])
    for reports in cases:
        assert reports_to_json(reports) == _json_dumps_reports(reports)
    bad = IdentityReport("X", {"k": 1.0}, math.nan, 1.0, 0.0, 0.0, "PASS", "")
    with pytest.raises(ValueError):
        reports_to_json([bad])
    with pytest.raises(ValueError):
        reports_to_json([IdentityReport("X", {"k": math.inf}, 1.0, 1.0, 0.0, 0.0, "PASS", "")])


def test_verdicts_match_benchmark_table(summary):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected_verdicts.json"
    table = json.loads(path.read_text())["verdicts"]
    got = {}
    for r in summary.reports:
        got[r.identity_id] = got.get(r.identity_id, "") + r.verdict[0]
    assert list(table) == registry_ids()
    assert got == table


def test_json_fields(summary):
    payload = json.loads(reports_to_json(summary.reports))
    assert isinstance(payload, list) and payload
    record = payload[0]
    assert set(record) == {"identity_id", "params", "lhs", "rhs",
                           "abs_diff", "rel_diff", "verdict", "note"}


# ---------------------------------------------------------------- scanner
def test_scan_component_derivative():
    # f(x) = x beta_k(x): f'(1) at k = 1 is beta(1) + beta'(1)
    mpmath = pytest.importorskip("mpmath")
    expected = beta_k(1.0, 1.0) + beta_k_deriv(1.0, 1, 1.0)
    assert expected == pytest.approx(math.log(2.0) - math.pi**2 / 12.0, abs=1e-12)
    with mpmath.workdps(30):
        beta_1 = lambda x: (mpmath.digamma((x + 1) / 2) - mpmath.digamma(x / 2)) / 2
        ref = float(mpmath.diff(lambda x: x * beta_1(x), 1))
    assert ref == pytest.approx(expected, abs=1e-15)


def test_scan_tables():
    tables = openproblem_scan(1.0, 2)
    assert [t.n for t in tables] == [0, 1, 2]
    for table in tables:
        assert len(table.rows) == len(default_grid().x_values)
        assert table.verdict in ("strictly increasing", "strictly decreasing",
                                 "neither", "insufficient data")
    # observed behaviour on the default grid (evidence, not a theorem)
    assert tables[0].verdict == "strictly decreasing"
    assert tables[1].verdict == "strictly increasing"


def test_scan_scaling_consistency():
    t1 = openproblem_scan(1.0, 0)[0]
    t2 = openproblem_scan(2.0, 0)[0]
    # g_0 scales like k * g_0(x/k) under x -> kx
    for (x1, g1), (x2, g2) in zip(t1.rows, t2.rows):
        assert x2 == pytest.approx(2.0 * x1)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-9)


def test_scan_takes_each_beta_derivative_once_per_x(monkeypatch):
    # the scanner calls beta_k_deriv through the name its module imports
    real = studies.beta_k_deriv
    calls = []

    def spy(k, order, x):
        calls.append((order, x))
        return real(k, order, x)

    monkeypatch.setattr(studies, "beta_k_deriv", spy)
    units = (0.2, 0.9, 3.0)
    for n_max in (0, 2, 4):
        calls.clear()
        openproblem_scan(1.5, n_max, units)
        assert len(calls) == (n_max + 3) * len(units)
        # f(x) = 1 - x beta_k(x + k): the derivatives are taken at x + k
        assert sorted(calls) == sorted((j, u * 1.5 + 1.5) for u in units
                                       for j in range(n_max + 3))


def test_scan_validation():
    with pytest.raises(DomainError):
        openproblem_scan(1.0, 5)
    with pytest.raises(DomainError):
        openproblem_scan(1.0, -1)
    with pytest.raises(DomainError):
        openproblem_scan(-1.0, 2)
    for units in ((), (0.0, 1.0), (0.5, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="^scan x values must be finite and positive$"):
            openproblem_scan(1.0, 2, units)
