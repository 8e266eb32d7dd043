"""Tests for the Hadamard k-gamma function and related checks."""

import math

import pytest

from kspecfun import (
    DomainError,
    PoleError,
    alpha0_solve,
    gamma_k,
    get_entry,
    hadamard_k,
    recursion_47,
    rgamma_k,
)
from kspecfun.hadamard import (
    _count_sign_changes,
    recursion_47_closed_form,
    representation_48_corrected_rhs,
)
from kspecfun.registry import SUPERADD_SLACK

LN2 = math.log(2.0)
PI = math.pi

K_GRID = (0.5, 1.0, 2.0)


def sides(identity_id, **params):
    # the lhs and rhs routes of a registry entry at one point
    entry = get_entry(identity_id)
    return entry.lhs(**params), entry.rhs(**params)


# ---------------------------------------------------------------- values
@pytest.mark.parametrize("k", K_GRID)
def test_h_at_k_is_one(k):
    assert hadamard_k(k, k) == pytest.approx(1.0, abs=1e-12)


def test_h_half():
    # at k = 1: numerator psi(3/4) - psi(1/4) = pi
    assert hadamard_k(1.0, 0.5) == pytest.approx(math.sqrt(PI) / 2.0, abs=1e-13)


def test_h2_at_4():
    assert hadamard_k(2.0, 4.0) == pytest.approx(2.0, abs=1e-12)
    assert hadamard_k(2.0, 4.0) == pytest.approx(gamma_k(2.0, 4.0), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_h_interpolates_factorial(n):
    assert hadamard_k(1.0, float(n)) == pytest.approx(math.factorial(n - 1), abs=1e-10)


@pytest.mark.parametrize("k", (0.5, 2.0, 3.0))
@pytest.mark.parametrize("u", (-1.8, -0.4, 0.3, 1.2, 2.7, 4.4))
def test_h_scaling(k, u):
    x = u * k
    assert hadamard_k(k, x) == pytest.approx(
        k ** (x / k - 1.0) * hadamard_k(1.0, x / k), abs=1e-10, rel=1e-12
    )


@pytest.mark.parametrize("k", K_GRID)
def test_h_seam_continuity(k):
    delta = 1e-5 * k
    avg = 0.5 * (hadamard_k(k, k + delta) + hadamard_k(k, k - delta))
    assert avg == pytest.approx(hadamard_k(k, k), abs=1e-9)


# ---------------------------------------------------------------- range and overflow
def test_h_underflows_to_zero():
    # the true value is about 1e-432, below the binary64 range
    assert hadamard_k(1e-3, 1.0) == 0.0


@pytest.mark.parametrize("k,x", [(1e-3, 5.0), (1.0, 200.0), (1.0, 1e6), (1.0, 1e300)])
def test_h_overflow_raises(k, x):
    with pytest.raises(OverflowError, match="overflows binary64"):
        hadamard_k(k, x)


def test_h_finite_near_top_of_range():
    # H(171.3) is about 3.4e307: past Gamma's u < 171 product route, still finite
    value = hadamard_k(1.0, 171.3)
    assert math.isfinite(value)
    assert value == pytest.approx(2.0**170.3 * hadamard_k(0.5, 85.65), rel=1e-12)


_EXTREME = (0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, math.e, 10.0, 40.5, 171.3, 300.0,
            1e6, 1e15, 1e16, 1e100, 1e300, 1.7976931348623157e308)


@pytest.mark.parametrize("k", (1e-3, 0.01, 0.5, 1.0, 3.0, 10.0, 1e3))
def test_h_never_nan_or_inf(k):
    xs = [s * m for m in _EXTREME for s in (1.0, -1.0)]
    xs += [u * k for u in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.5, -3.5, 170.5, 171.5, 2.0**53, -2.0**53)]
    for x in xs:
        try:
            value = hadamard_k(k, x)
        except OverflowError as exc:
            assert "overflows binary64" in str(exc), f"k={k}, x={x}: {exc}"
            continue
        assert math.isfinite(value), f"k={k}, x={x}: {value}"


# ---------------------------------------------------------------- functional equation
def test_functional_eq_values():
    lhs, rhs = sides("THM4.1", k=1.0, x=0.5)
    expected = 0.5 * hadamard_k(1.0, 0.5) + 1.0 / math.gamma(0.5)
    assert lhs == pytest.approx(expected, abs=1e-12)
    assert rhs == pytest.approx(expected, abs=1e-12)

    lhs, rhs = sides("THM4.1", k=2.0, x=0.0)
    assert lhs == pytest.approx(1.0, abs=1e-13)
    assert rhs == pytest.approx(1.0, abs=1e-13)

    lhs, rhs = sides("THM4.1", k=1.0, x=-0.5)
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("k", K_GRID)
def test_functional_eq_two_routes_on_grid(k):
    for j in range(50):
        x = (-1.975 + 0.1 * j) * k
        lhs, rhs = sides("THM4.1", k=k, x=x)
        assert abs(lhs - rhs) < 1e-10, f"x={x}"


# ---------------------------------------------------------------- recursion
def test_recursion_47_matches_stepwise():
    # two applications from x = 0.5 must equal the direct evaluation
    value = recursion_47(1.0, 0.5, 2)
    step1 = 0.5 * hadamard_k(1.0, 0.5) + rgamma_k(1.0, 0.5)
    step2 = 1.5 * step1 + rgamma_k(1.0, -0.5)
    assert value == pytest.approx(step2, abs=1e-13)
    assert value == pytest.approx(hadamard_k(1.0, 2.5), abs=1e-12)


def test_recursion_47_pole_points():
    assert recursion_47(2.0, 0.0, 3) == pytest.approx(8.0, abs=1e-12)
    assert recursion_47(2.0, 0.0, 3) == pytest.approx(gamma_k(2.0, 6.0), abs=1e-12)


def test_recursion_47_n1_equals_functional_eq():
    for k, x in ((1.0, 0.3), (2.0, 1.7), (0.5, -0.2)):
        lhs, rhs = sides("THM4.1", k=k, x=x)
        assert recursion_47(k, x, 1) == pytest.approx(rhs, abs=1e-12)


def test_recursion_47_validation():
    with pytest.raises(DomainError):
        recursion_47(1.0, 0.5, 0)
    with pytest.raises(DomainError):
        recursion_47(1.0, 0.5, 51)


def test_closed_form_corrected_matches_recursion():
    for k, x, n in ((1.0, 0.6, 3), (2.0, 1.1, 2), (0.5, 0.2, 3)):
        assert recursion_47_closed_form(k, x, n) == pytest.approx(
            recursion_47(k, x, n), rel=1e-12
        )


def test_closed_form_printed_only_matches_at_k1():
    printed_route = get_entry("EQ4.7-printed").lhs
    assert printed_route(k=1.0, x=0.6, n=3) == pytest.approx(
        recursion_47(1.0, 0.6, 3), rel=1e-12
    )
    printed = printed_route(k=2.0, x=0.6, n=3)
    assert abs(printed - recursion_47(2.0, 0.6, 3)) > 0.01


# ---------------------------------------------------------------- representation
def test_representation_48_exact_at_k1():
    lhs, rhs = sides("EQ4.8-printed", k=1.0, x=0.5)
    assert lhs == pytest.approx(math.sqrt(PI) / 2.0, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    lhs, rhs = sides("EQ4.8-printed", k=1.0, x=3.0)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)


def test_representation_48_ratio_is_constant_for_k2():
    ratios = []
    for x in (0.5, 1.0, 1.5, 3.0):
        lhs, rhs = sides("EQ4.8-printed", k=2.0, x=x)
        ratios.append(lhs / rhs)
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-11)


def test_representation_48_corrected_rhs():
    for k, x in ((2.0, 0.5), (0.5, 0.3), (2.0, 1.7)):
        assert hadamard_k(k, x) == pytest.approx(
            representation_48_corrected_rhs(k, x), rel=1e-11
        )


# ---------------------------------------------------------------- threshold
def test_alpha0_solve_k1():
    res = alpha0_solve(1.0, 1e-10)
    assert 1.5 < res.root < 3.0
    assert abs(res.residual) < 1e-10
    assert res.bracket_lo < res.root < res.bracket_hi
    assert res.sign_changes == 1
    g = hadamard_k(1.0, 2.0 * res.root) - 2.0 * hadamard_k(1.0, res.root)
    assert abs(g) < 1e-10


def test_alpha0_scaling():
    r1 = alpha0_solve(1.0, 1e-10).root
    r2 = alpha0_solve(2.0, 1e-10).root
    assert r2 == pytest.approx(2.0 * r1, abs=1e-8)


def _lattice_sign_changes(g, lo, hi, step):
    # reference: g at every node of the 0.01k lattice
    changes = 0
    t = lo
    prev = g(lo)
    while t < hi:
        t = min(t + step, hi)
        cur = g(t)
        if prev == 0.0 or prev * cur < 0.0:
            changes += 1
        prev = cur
    return changes


@pytest.mark.parametrize("k", (0.5, 2.0, PI) + tuple(10.0 ** (e / 4) for e in range(-8, 9)))
def test_alpha0_sign_changes_match_full_lattice(k):
    def g(t):
        return hadamard_k(k, 2.0 * t) - 2.0 * k ** (t / k) * hadamard_k(k, t)

    res = alpha0_solve(k, 1e-10)
    lo, hi = res.bracket_lo, res.bracket_hi
    ref = _lattice_sign_changes(g, lo, hi, 0.01 * k)
    assert _count_sign_changes(g, lo, hi, 0.01 * k, g(lo), g(hi)) == ref
    assert res.sign_changes == max(ref, 1)


def test_sign_changes_refine_a_cell_with_same_sign_ends():
    # two roots 0.03 apart inside the coarse cell [2.0, 2.1], g > 0 at both ends
    def g(t):
        return (t - 2.025) * (t - 2.055)

    lo, hi = 1.5, 5.0
    assert g(2.0) > 0.0 and g(2.1) > 0.0
    assert _count_sign_changes(g, lo, hi, 0.01, g(lo), g(hi)) == 2
    assert _lattice_sign_changes(g, lo, hi, 0.01) == 2


def test_sign_changes_count_zeros_and_skip_flat_cells():
    calls = []

    def g(t):
        calls.append(t)
        return 1.0 - 0.5 * (t - 1.5) / 3.5  # linear, positive on [1.5, 5]

    assert _count_sign_changes(g, 1.5, 5.0, 0.01, g(1.5), g(5.0)) == 0
    # the two ends, then every tenth of the 351 accumulated lattice steps
    assert len(calls) == 2 + 35
    # a zero at a lattice node counts once, as in the full lattice walk
    assert _count_sign_changes(lambda t: t - 2.0, 1.5, 5.0, 0.5, -0.5, 3.0) == 1


def test_superadditivity_reports():
    lhs, rhs = sides("THM4.3-above", k=1.0, x=2.0, y=2.0)
    assert lhs <= rhs + SUPERADD_SLACK
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(6.0, abs=1e-12)

    root = alpha0_solve(1.0, 1e-10).root
    lhs, rhs = sides("THM4.3-above", k=1.0, x=root + 0.01, y=root + 0.01)
    assert lhs <= rhs + SUPERADD_SLACK
    lhs, rhs = sides("THM4.3-above", k=1.0, x=1.01, y=1.01)
    assert not lhs <= rhs + SUPERADD_SLACK


# ---------------------------------------------------------------- Lerch identity
def test_lerch_identity_printed_counterexample():
    lhs, rhs = sides("THM4.4-printed", x=-0.5)
    assert lhs == pytest.approx(-PI / 2.0, abs=1e-11)
    assert rhs == pytest.approx(-(4.0 - PI), abs=1e-11)
    assert abs(lhs - rhs) > 0.7


def test_lerch_identity_corrected():
    lhs, rhs = sides("THM4.4-corrected", x=-0.5)
    assert lhs == pytest.approx(4.0 - PI, abs=1e-11)
    assert abs(lhs - rhs) < 1e-11
    lhs, rhs = sides("THM4.4-corrected", x=0.0)
    assert lhs == pytest.approx(2.0 * LN2, abs=1e-12)
    assert rhs == pytest.approx(2.0 * LN2, abs=1e-12)


@pytest.mark.parametrize("x", (-0.75, -0.3, 0.25, 0.6, 0.9))
def test_lerch_identity_corrected_grid(x):
    lhs, rhs = sides("THM4.4-corrected", x=x)
    assert abs(lhs - rhs) < 1e-11


def test_lerch_identity_domain():
    with pytest.raises(PoleError):
        sides("THM4.4-printed", x=0.0)
    with pytest.raises(DomainError):
        sides("THM4.4-corrected", x=1.0)
