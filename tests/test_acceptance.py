"""Acceptance suite: one check per exit criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines even for passing checks.

Criterion 1 asserts the three moment-integral methods against the
closed-form Glaisher anchor I(1, 2) = ln(A^2/sqrt(2 pi)).  Integration by
parts gives I(1, 2) = -2 int_0^1 x ln Gamma(x) dx, and the classical
int_0^1 x ln Gamma(x) dx = ln(2 pi)/4 - ln A makes that ln(A^2/sqrt(2 pi));
test_reference_values checks it against mpmath.  The paper prints
ln(A/sqrt(2 pi)) instead; the criterion also asserts that the printed
anchor misses each method by exactly ln A, and the FURDUI-ANCHOR registry
entries carry the same diagnosis.
"""

import math

import pytest

from kspecfun import (
    alpha0_solve,
    beta_k,
    beta_k_cosh_form,
    beta_k_integral,
    beta_k_series,
    beta_taylor_54,
    beta_expansion_55,
    default_grid,
    furdui_oracle,
    get_entry,
    hadamard_k,
    run_all,
    run_identity,
    thm31_series,
    thm34_recursion,
)
from kspecfun.cli import run_cli
from kspecfun.registry import SUPERADD_SLACK
from kspecfun.scalar import CONSTANTS

LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _criterion(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def summary():
    return run_all(default_grid())


def test_criterion_01_furdui_anchor_value():
    ln_a = math.log(CONSTANTS.glaisher_A)
    anchor = 2.0 * ln_a - LN_SQRT_2PI
    printed = ln_a - LN_SQRT_2PI
    values = {
        "oracle": furdui_oracle(1.0, 2, 1e-10).value,
        "thm31": thm31_series(1.0, 2, 1e-10).value,
        "thm34": thm34_recursion(1.0, 2, 1, 1e-8).value,
    }
    deviations = {name: abs(v - anchor) for name, v in values.items()}
    offset_misses = {name: abs((v - printed) - ln_a) for name, v in values.items()}
    ok = all(d <= 1e-7 for d in deviations.values()) and all(
        d <= 1e-7 for d in offset_misses.values()
    )
    spread = max(values.values()) - min(values.values())
    detail = (
        f"methods vs anchor ln(A^2/sqrt(2pi))={anchor:.10f}: "
        + ", ".join(f"{n}={v:.10f}" for n, v in values.items())
        + f"; mutual spread {spread:.2e}"
        + f"; worst deviation {max(deviations.values()):.2e}"
        + f"; printed anchor ln(A/sqrt(2pi))={printed:.10f} misses each by"
        f" ln A={ln_a:.10f} to within {max(offset_misses.values()):.2e}"
        " (see FURDUI-ANCHOR-printed/-corrected in the registry)"
    )
    _criterion(1, ok, detail)


def test_criterion_02_thm31_grid():
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 3.0):
        for m in range(1, 7):
            diff = abs(thm31_series(k, m, 1e-11).value - furdui_oracle(k, m, 1e-11).value)
            worst = max(worst, diff)
    _criterion(2, worst < 1e-8, f"24-case series-vs-oracle grid, worst diff {worst:.2e}")


def test_criterion_03_thm34_grid():
    worst = 0.0
    for k in (1.0, 2.0):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                diff = abs(
                    thm34_recursion(k, m, n, 1e-9).value - furdui_oracle(k, m, 1e-11).value
                )
                worst = max(worst, diff)
    _criterion(3, worst < 1e-6, f"18-case recursion-vs-oracle grid, worst diff {worst:.2e}")


def test_criterion_04_recurrences():
    failures = []
    for identity_id in ("EQ1.1", "LEM2.4", "EQ5.11"):
        reports = run_identity(identity_id, tol_override=1e-11)
        bad = [r for r in reports if r.verdict == "FAIL"]
        if bad or not reports:
            failures.append(identity_id)
    _criterion(4, not failures,
               f"EQ1.1, LEM2.4, EQ5.11 at 1e-11: {'FAILED ' + str(failures) if failures else 'all points pass'}")


def test_criterion_05_beta_triple_route():
    grid = default_grid()
    worst = 0.0
    for k in grid.k_values:
        for u in grid.x_values:
            x = u * k
            routes = (
                beta_k(k, x),
                beta_k_series(k, x, 1e-13).value,
                beta_k_integral(k, x, 1e-9).value,
            )
            worst = max(worst, max(routes) - min(routes))
    cosh_worst = 0.0
    shifted = [(0.5, -0.2), (0.5, 0.4), (1.0, -0.5), (1.0, 0.0), (1.0, 1.3),
               (2.0, -1.0), (2.0, 0.6), (2.0, 3.0), (math.pi, 0.5), (math.pi, 2.0)]
    for k, x in shifted:
        diff = abs(beta_k_cosh_form(k, x, 1e-9).value - beta_k(k, 0.5 * (x + k)))
        cosh_worst = max(cosh_worst, diff)
    ok = worst < 1e-8 and cosh_worst < 1e-8
    _criterion(5, ok, f"triple-route worst spread {worst:.2e}; "
                      f"cosh form at 10 shifted points, worst {cosh_worst:.2e}")


def test_criterion_06_expansions():
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        for u in (0.1, 0.5, 0.9):
            x = u * k
            taylor = beta_taylor_54(k, x, 240).value
            worst = max(worst, abs(taylor - beta_k(k, x + k)))
            expansion = beta_expansion_55(k, x, 560, 1e-9).value
            worst = max(worst, abs(expansion - beta_k(k, x)))
    _criterion(6, worst < 1e-8, f"center-k and center-0 expansions, worst diff {worst:.2e}")


def test_criterion_07_inequality_suite(summary):
    by_id = {entry.identity_id: entry for entry in summary.entries}
    suite = ("REMARK5-lower", "REMARK5-upper", "REMARK5-refined",
             "LEM2.5", "LEM2.6", "LEM2.7")
    violations = {i: by_id[i].n_fail for i in suite}
    ok = all(v == 0 for v in violations.values())
    _criterion(7, ok, f"inequality suite violations: {violations}")


def test_criterion_08_harmonic_mean_bound():
    grid = default_grid()
    ok = True
    worst_eq = 0.0
    for k in grid.k_values:
        bound = math.log(2.0) / k
        for u in grid.x_values:
            x = u * k
            b1, b2 = beta_k(k, x), beta_k(k, k * k / x)
            if 2.0 * b1 * b2 / (b1 + b2) > bound + 1e-12:
                ok = False
        worst_eq = max(worst_eq, abs(beta_k(k, k) - bound))
    ok = ok and worst_eq < 1e-12
    _criterion(8, ok, f"harmonic mean <= ln2/k on grid; equality residual {worst_eq:.2e}")


def test_criterion_09_hadamard_suite():
    grid = default_grid()
    worst_unit = max(abs(hadamard_k(k, k) - 1.0) for k in grid.k_values)
    worst_feq = 0.0
    thm41 = get_entry("THM4.1")
    for k in grid.k_values:
        for j in range(50):
            x = (-1.975 + 0.1 * j) * k
            worst_feq = max(worst_feq, abs(thm41.lhs(k=k, x=x) - thm41.rhs(k=k, x=x)))
    worst_scale = 0.0
    for k in (0.5, 2.0, 3.0):
        for u in (-1.8, -0.4, 0.3, 1.2, 2.7, 4.4):
            x = u * k
            ref = k ** (x / k - 1.0) * hadamard_k(1.0, x / k)
            worst_scale = max(worst_scale, abs(hadamard_k(k, x) - ref))
    worst_fact = max(
        abs(hadamard_k(1.0, float(n)) - math.factorial(n - 1)) for n in range(1, 6)
    )
    ok = worst_unit < 1e-12 and worst_feq < 1e-10 and worst_scale < 1e-10 and worst_fact < 1e-10
    _criterion(9, ok, f"H_k(k)-1 {worst_unit:.2e}; functional eq {worst_feq:.2e}; "
                      f"scaling {worst_scale:.2e}; factorials {worst_fact:.2e}")


def test_criterion_10_alpha0_and_superadditivity():
    res1 = alpha0_solve(1.0, 1e-10)
    ok = 1.5 < res1.root < 3.0 and abs(res1.residual) < 1e-10
    base = res1.root + 0.01
    thm43 = get_entry("THM4.3-above")

    def verdict(x, y):
        lhs, rhs = thm43.lhs(k=1.0, x=x, y=y), thm43.rhs(k=1.0, x=x, y=y)
        return "PASS" if lhs <= rhs + SUPERADD_SLACK else "FAIL"

    n_pass = 0
    for i in range(5):
        for j in range(4):
            n_pass += verdict(base + 0.35 * i, base + 0.45 * j) == "PASS"
    below = [verdict(t, t) for t in (1.01, 1.2, 1.35, res1.root - 0.02)]
    res2 = alpha0_solve(2.0, 1e-10)
    scaling = abs(res2.root - 2.0 * res1.root)
    ok = ok and n_pass == 20 and "FAIL" in below and scaling < 1e-8
    _criterion(10, ok, f"root {res1.root:.8f} (residual {res1.residual:.1e}); "
                       f"{n_pass}/20 pairs pass above; below-root verdicts {below}; "
                       f"|alpha0(2) - 2 alpha0(1)| = {scaling:.2e}")


def test_criterion_11_typo_audit_ledger(summary):
    by_id = {entry.identity_id: entry for entry in summary.entries}
    stems = ("EQ2.2", "EQ5.5", "THM3.2", "THM3.3", "THM4.4", "THM5.1", "EQ4.8")
    problems = []
    for stem in stems:
        printed = by_id[f"{stem}-printed"]
        corrected = by_id[f"{stem}-corrected"]
        if printed.n_fail < 1:
            problems.append(f"{stem}-printed did not fail")
        if corrected.n_fail > 0:
            problems.append(f"{stem}-corrected failed")
        for rec in printed.fits:
            if rec.fit.residual_rms >= 1e-8:
                problems.append(f"{rec.label} residual {rec.fit.residual_rms:.1e}")
    fit_count = sum(len(by_id[f"{s}-printed"].fits) for s in stems)
    _criterion(11, not problems,
               f"7 printed audits fail as documented, {fit_count} clean fits, "
               f"corrected counterparts pass" + (f"; problems: {problems}" if problems else ""))


def test_criterion_12_determinism(tmp_path, capsys):
    out1 = tmp_path / "all1.json"
    out2 = tmp_path / "all2.json"
    code1 = run_cli(["verify", "--id", "ALL", "--format", "json", "--out", str(out1)])
    code2 = run_cli(["verify", "--id", "ALL", "--format", "json", "--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    _criterion(12, ok, f"exit codes ({code1}, {code2}); byte-identical={identical}")
