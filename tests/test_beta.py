"""Tests for the Nielsen k-beta function and its representations."""

import math
from fractions import Fraction

import pytest

from kspecfun import (
    ConvergenceError,
    DomainError,
    beta_expansion_55,
    beta_k,
    beta_k_cosh_form,
    beta_k_deriv,
    beta_k_integral,
    beta_k_series,
    beta_taylor_54,
    get_entry,
    psi_k_m,
)
from kspecfun.beta import _BETA_FAR
from kspecfun.routes import _taylor_coeffs
from kspecfun.scalar import _DIGAMMA_TAIL

LN2 = math.log(2.0)
PI = math.pi
ZETA3 = 1.2020569031595943

K_GRID = (0.5, 1.0, 2.0)
X_UNITS = (0.1, 0.5, 1.0, 2.0, 5.0)


def sides(identity_id, **params):
    # the lhs and rhs routes of a registry entry at one point
    entry = get_entry(identity_id)
    return entry.lhs(**params), entry.rhs(**params)


# ---------------------------------------------------------------- values
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
def test_beta_k_at_k(k):
    assert beta_k(k, k) == pytest.approx(LN2 / k, abs=1e-13)


def test_beta_k_values():
    # beta(1/2) = 2 (1 - 1/3 + 1/5 - ...) = pi/2
    assert beta_k(1.0, 0.5) == pytest.approx(PI / 2.0, abs=1e-12)
    assert beta_k(1.0, 2.0) == pytest.approx(1.0 - LN2, abs=1e-13)
    with pytest.raises(DomainError):
        beta_k(1.0, 0.0)


def test_beta_k_series_values():
    assert beta_k_series(1.0, 1.0).value == pytest.approx(LN2, abs=1e-12)
    assert beta_k_series(2.0, 2.0).value == pytest.approx(LN2 / 2.0, abs=1e-12)
    assert beta_k_series(1.0, 3.0).value == pytest.approx(LN2 - 0.5, abs=1e-12)


@pytest.mark.parametrize("k,x", [(1e300, 1e-30), (1e10, 1e-300)])
def test_beta_k_series_refuses_x_over_k_below_the_normal_range(k, x):
    # beta_k is about 1/x there, but the first pair 1/(u(u + 1)) overflowed, and
    # at x/k = 0.0 it raised ZeroDivisionError
    with pytest.raises(DomainError, match=r"^beta_k_series requires x/k >= 2\^-1022"):
        beta_k_series(k, x)


def test_beta_k_integral_values():
    assert beta_k_integral(1.0, 1.0).value == pytest.approx(LN2, abs=1e-9)
    assert beta_k_integral(2.0, 1.0).value == pytest.approx(PI / 4.0, abs=1e-9)
    assert beta_k_integral(1.0, 0.5).value == pytest.approx(PI / 2.0, abs=1e-9)


def test_beta_k_cosh_form_values():
    assert beta_k_cosh_form(1.0, 1.0).value == pytest.approx(LN2, abs=1e-8)
    assert beta_k_cosh_form(1.0, 0.0).value == pytest.approx(PI / 2.0, abs=1e-8)
    assert beta_k_cosh_form(2.0, 2.0).value == pytest.approx(LN2 / 2.0, abs=1e-8)
    with pytest.raises(DomainError):
        beta_k_cosh_form(1.0, -1.0)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("u", X_UNITS)
def test_triple_route_agreement(k, u):
    x = u * k
    primary = beta_k(k, x)
    series = beta_k_series(k, x).value
    integral = beta_k_integral(k, x).value
    assert abs(primary - series) < 1e-10
    assert abs(primary - integral) < 1e-8
    assert abs(series - integral) < 1e-8


# ---------------------------------------------------------------- derivatives
def test_beta_k_deriv_values():
    # beta'(1) = -sum (-1)^n/(n+1)^2 = -eta(2) = -pi^2/12
    assert beta_k_deriv(1.0, 1, 1.0) == pytest.approx(-PI**2 / 12.0, rel=1e-12)
    # beta''(1) = 2 sum (-1)^n/(n+1)^3 = 2 eta(3) = 3 zeta(3)/2
    assert beta_k_deriv(1.0, 2, 1.0) == pytest.approx(3.0 * ZETA3 / 2.0, rel=1e-12)
    # scaling: beta_k'(x) = beta'(x/k)/k^2
    assert beta_k_deriv(2.0, 1, 2.0) == pytest.approx(-PI**2 / 48.0, rel=1e-12)
    # any order >= 0: the third derivative at 1 is -6 eta(4) = -7 pi^4/120,
    # and order 0 is beta_k itself
    assert beta_k_deriv(1.0, 3, 1.0) == pytest.approx(-7.0 * PI**4 / 120.0, rel=1e-12)
    assert beta_k_deriv(2.0, 0, 1.5) == beta_k(2.0, 1.5)
    with pytest.raises(DomainError):
        beta_k_deriv(1.0, -1, 1.0)
    with pytest.raises(DomainError, match="^polygamma orders above 150 are not supported, got 151$"):
        beta_k_deriv(1.0, 151, 1.0)


def test_beta_unit_far_field_is_derived():
    # U_beta is the least integer u where the first difference that _beta_unit's
    # five-term psi tails drop, |B_12/12| (b^-12 - a^-12)/2 with b = u/2 and
    # a = b + 1/2, is below 2^-58/(2u), itself below 2^-58 beta(u) since
    # beta(u) > 1/(2u); decided here in exact arithmetic
    t6 = Fraction(-691, 32760)  # B_12/12
    assert float(t6) == _DIGAMMA_TAIL[5]

    def dropped_is_below(u):
        b = Fraction(u, 2)
        a = b + Fraction(1, 2)
        return abs(t6) * (b**-12 - a**-12) / 2 < Fraction(1, 2**59 * u)

    assert _BETA_FAR == 51.0
    assert dropped_is_below(51) and not dropped_is_below(50)
    # beta(u) > 1/(2u), so the bound is below 2^-58 of the value
    assert all(beta_k(1.0, u) > 0.5 / u for u in (20.0, 50.5, 51.0, 1e4))


@pytest.mark.parametrize("k", (1e-3, 0.5, 1.0, 3.0, 1e3))
@pytest.mark.parametrize("j", (1, 2, 3, 5, 12))
def test_beta_k_deriv_agrees_with_the_polygamma_difference(k, j):
    # beta_k^(j)(x) = 2^-(j+1) [psi_k^(j)((x+k)/2) - psi_k^(j)(x/2)], from the
    # polygamma kernel, which beta_k_deriv does not reach; for u <= 10 the
    # difference cancels at most one digit, and each psi_k^(j) value is within
    # 6e-16 (under 3 * 2^-52) relative
    for u in (1e-3, 0.1, 0.35, 0.7, 1.0, 2.5, 5.0, 7.3, 10.0):
        x = u * k
        high, low = psi_k_m(k, j, 0.5 * x + 0.5 * k), psi_k_m(k, j, 0.5 * x)
        bound = 4.0 * 2.0**-52 * 0.5 ** (j + 1) * (abs(high) + abs(low))
        assert abs(beta_k_deriv(k, j, x) - 0.5 ** (j + 1) * (high - low)) <= bound, (k, j, u)


def test_beta_k_deriv_where_x_plus_k_overflows():
    # beta_k'(x) = beta'(1)/k^2 is about -8e-617 here: it underflows
    assert beta_k_deriv(1e308, 1, 1e308) == 0.0
    assert beta_k_deriv(1e308, 2, 1.5e308) == 0.0


def test_beta_k_deriv_at_the_least_subnormal_x():
    # 0.5 x rounds to 0.0 there; beta_k^(j)(x) is of order j!/x^(j+1)
    for order in (1, 2):
        with pytest.raises(OverflowError, match=rf"^beta_k\^\({order}\)\(5e-324\) overflows binary64"):
            beta_k_deriv(5e-324, order, 5e-324)


# ---------------------------------------------------------------- expansions
def test_taylor_terms_alternate_and_decrease():
    coeffs = _taylor_coeffs(40)  # the k-free coefficients, those of beta_1(x + 1)
    assert len(coeffs) == 41 and coeffs[0] == pytest.approx(LN2, abs=1e-15)
    for m in range(1, 39):
        assert coeffs[m] * coeffs[m + 1] < 0.0
    x = 0.8  # inside the radius: term magnitudes must decrease
    mags = [abs(c * x**m) for m, c in enumerate(coeffs)][1:]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_beta_taylor_54_values():
    assert beta_taylor_54(1.0, 0.0).value == pytest.approx(LN2, abs=1e-15)
    assert beta_taylor_54(1.0, 0.5).value == pytest.approx(2.0 - PI / 2.0, abs=1e-10)
    assert beta_taylor_54(2.0, -1.0).value == pytest.approx(PI / 4.0, abs=1e-9)
    with pytest.raises(DomainError):
        beta_taylor_54(1.0, 1.0)


def test_beta_expansion_55_values():
    assert beta_expansion_55(1.0, 0.5).value == pytest.approx(PI / 2.0, abs=1e-9)
    assert beta_expansion_55(2.0, 1.0).value == pytest.approx(PI / 4.0, abs=1e-9)
    assert beta_expansion_55(1.0, 0.9).value == pytest.approx(beta_k(1.0, 0.9), abs=1e-8)


def test_beta_expansion_55_domain_and_convergence():
    with pytest.raises(DomainError):
        beta_expansion_55(1.0, 1.5)
    with pytest.raises(DomainError):
        beta_expansion_55(1.0, -0.2)
    with pytest.raises(ConvergenceError):
        beta_expansion_55(1.0, 0.95)  # ratio 0.975: 560 terms leave a tail bound of 2.7e-5


# ---------------------------------------------------------------- recurrence and bounds
@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("x", (0.1, 0.5, 1.0, 2.0, 5.0))
def test_beta_recurrence_eq511(k, x):
    assert beta_k(k, x + k) + beta_k(k, x) == pytest.approx(1.0 / x, abs=1e-11, rel=1e-11)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("u", (0.1, 0.35, 0.7, 0.9))
def test_remark_bounds_strict(k, u):
    x = u * k
    b = beta_k(k, x)
    assert 1.0 / x - LN2 / k < b < 1.0 / x
    assert b < 1.0 / x - LN2 / k + PI**2 * x / (12.0 * k * k)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("u", X_UNITS)
def test_lemma_26_positivity(k, u):
    x = u * k
    value = 2.0 * beta_k_deriv(k, 1, x) ** 2 - beta_k_deriv(k, 2, x) * beta_k(k, x)
    assert value > 0.0


@pytest.mark.parametrize("k", K_GRID)
def test_lemma_27_lambda_decreasing(k):
    xs = [u * k for u in (0.2, 0.6, 1.1, 2.0, 3.5, 6.0, 9.5)]
    lam = [x * beta_k_deriv(k, 1, x) / beta_k(k, x) ** 2 for x in xs]
    assert all(a > b for a, b in zip(lam, lam[1:]))


@pytest.mark.parametrize("k", K_GRID)
def test_thm56_harmonic_mean_bound(k):
    for u in X_UNITS:
        x = u * k
        b1 = beta_k(k, x)
        b2 = beta_k(k, k * k / x)
        harm = 2.0 * b1 * b2 / (b1 + b2)
        assert harm <= LN2 / k + 1e-12
    equality = 2.0 * beta_k(k, k) / 2.0
    assert equality == pytest.approx(LN2 / k, abs=1e-12)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("u", X_UNITS)
def test_beta_scaling(k, u):
    x = u * k
    assert beta_k(k, x) == pytest.approx(beta_k(1.0, x / k) / k, rel=1e-11)


# ---------------------------------------------------------------- telescoping
def test_telescope_51_k1_variants_coincide():
    lhs_p, rhs_p = sides("THM5.1-printed", k=1.0, x=1.0, n=1)
    lhs_c, rhs_c = sides("THM5.1-corrected", k=1.0, x=1.0, n=1)
    assert lhs_p == pytest.approx(1.0 - LN2, abs=1e-12)
    assert abs(lhs_p - rhs_p) < 1e-12
    assert lhs_c == lhs_p and rhs_c == rhs_p


def test_telescope_51_corrected_holds_off_k1():
    lhs, rhs = sides("THM5.1-corrected", k=2.0, x=0.3, n=2)
    assert abs(lhs - rhs) < 1e-10


def test_telescope_51_printed_fails_off_k1():
    lhs, rhs = sides("THM5.1-printed", k=2.0, x=0.3, n=2)
    assert abs(lhs - rhs) > 0.01


def test_telescope_51_validation():
    with pytest.raises(DomainError):
        sides("THM5.1-corrected", k=1.0, x=-1.0, n=2)


@pytest.mark.parametrize("k", (0.5, 1.0, math.pi))
@pytest.mark.parametrize("u", (0.1, 1.0, 5.0))
def test_x_beta_k_derivatives_vs_mpmath(k, u):
    # f = 1 - x beta_k(x + k) has no 1/x pole to cancel; the Leibniz form
    # x beta_k^(n)(x) + n beta_k^(n-1)(x) was 5.7e-4 off at n <= 12
    mpmath = pytest.importorskip("mpmath")
    from kspecfun.studies import _x_beta_k_derivs

    x = u * k
    with mpmath.workdps(40):
        kk = mpmath.mpf(k)
        f = lambda t: t * (mpmath.digamma((t / kk + 1) / 2) - mpmath.digamma(t / kk / 2)) / (2 * kk)
        refs = [float(d) for d in mpmath.diffs(f, x, 12)]
    derivs = _x_beta_k_derivs(k, 12, x)
    assert len(derivs) == 13
    for n, (value, ref) in enumerate(zip(derivs, refs)):
        assert value == pytest.approx(ref, rel=1e-14), n
