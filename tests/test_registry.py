"""Tests for the identity registry, runner and scanner."""

import importlib
import inspect
import json
import math
from pathlib import Path

import pytest

from kspecfun import (
    DomainError,
    hadamard,
    GridSpec,
    default_grid,
    get_entry,
    openproblem_scan,
    registry_ids,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_identity,
)
from kspecfun.beta import beta_k, beta_k_deriv
from kspecfun.oracles import finite_diff
from kspecfun.registry import IdentityReport

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
    for name in ("kcore", "beta", "hadamard", "furdui"):
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

    monkeypatch.setattr(hadamard, "hadamard_k", spy)
    monkeypatch.delattr(hadamard, "recursion_47")
    entry = get_entry("THM4.1")
    for params in entry.points(default_grid()):
        seen.clear()
        entry.lhs(**params)
        assert seen in ([], [params["x"] + params["k"]]), params


def test_comparisons_and_expectations_are_known():
    for entry in _entries():
        assert entry.comparison in ("abs", "rel", "le", "lt"), entry.id
        assert entry.expectation in ("PASS", "FAIL"), entry.id


def test_unknown_identity_rejected():
    with pytest.raises(DomainError):
        run_identity("EQ0.0")


def test_run_identity_deterministic():
    first = run_identity("EQ5.11")
    second = run_identity("EQ5.11")
    assert first == second
    assert all(r.verdict == "PASS" for r in first)


def test_run_identity_ordering():
    reports = run_identity("EQ1.1")
    keys = [(r.identity_id, tuple(sorted(r.params.items()))) for r in reports]
    assert keys == sorted(keys)


def test_recurrence_identities_pass_at_tight_tolerance():
    for identity_id in ("EQ1.1", "LEM2.4", "EQ5.11"):
        reports = run_identity(identity_id, tol_override=1e-11)
        assert reports, identity_id
        assert all(r.verdict == "PASS" for r in reports), identity_id


def test_relative_verdicts_monotone_in_tolerance():
    tight = run_identity("EQ2.1", tol_override=1e-12)
    loose = run_identity("EQ2.1", tol_override=1e-6)
    tight_pass = {tuple(sorted(r.params.items())) for r in tight if r.verdict == "PASS"}
    loose_pass = {tuple(sorted(r.params.items())) for r in loose if r.verdict == "PASS"}
    assert tight_pass <= loose_pass


def test_skip_on_pole_exclusion():
    # the printed Lerch identity skips its x = 0 singular point by default
    reports = run_identity("THM4.4-printed")
    skips = [r for r in reports if r.verdict == "SKIP"]
    assert len(skips) == 1
    assert skips[0].lhs is None and skips[0].abs_diff is None
    assert skips[0].note == "printed form singular at x = 0"


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
    expected = beta_k(1.0, 1.0) + beta_k_deriv(1.0, 1, 1.0)
    assert expected == pytest.approx(math.log(2.0) - math.pi**2 / 12.0, abs=1e-12)
    fd = finite_diff(lambda x: x * beta_k(1.0, x), 1.0, 1)
    assert fd == pytest.approx(expected, abs=1e-6)


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


def test_scan_validation():
    with pytest.raises(DomainError):
        openproblem_scan(1.0, 5)
    with pytest.raises(DomainError):
        openproblem_scan(1.0, -1)
    with pytest.raises(DomainError):
        openproblem_scan(-1.0, 2)
