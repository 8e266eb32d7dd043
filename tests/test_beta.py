"""Tests for the Nielsen k-beta function and its representations."""

import math

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
)
from kspecfun.beta import beta_taylor_terms

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
    assert beta_k_series(1.0, 1.0, 1e-12).value == pytest.approx(LN2, abs=1e-12)
    assert beta_k_series(2.0, 2.0, 1e-12).value == pytest.approx(LN2 / 2.0, abs=1e-12)
    assert beta_k_series(1.0, 3.0, 1e-12).value == pytest.approx(LN2 - 0.5, abs=1e-12)


def test_beta_k_integral_values():
    assert beta_k_integral(1.0, 1.0, 1e-10).value == pytest.approx(LN2, abs=1e-9)
    assert beta_k_integral(2.0, 1.0, 1e-10).value == pytest.approx(PI / 4.0, abs=1e-9)
    assert beta_k_integral(1.0, 0.5, 1e-10).value == pytest.approx(PI / 2.0, abs=1e-9)


def test_beta_k_cosh_form_values():
    assert beta_k_cosh_form(1.0, 1.0, 1e-9).value == pytest.approx(LN2, abs=1e-8)
    assert beta_k_cosh_form(1.0, 0.0, 1e-9).value == pytest.approx(PI / 2.0, abs=1e-8)
    assert beta_k_cosh_form(2.0, 2.0, 1e-9).value == pytest.approx(LN2 / 2.0, abs=1e-8)
    with pytest.raises(DomainError):
        beta_k_cosh_form(1.0, -1.0, 1e-9)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("u", X_UNITS)
def test_triple_route_agreement(k, u):
    x = u * k
    primary = beta_k(k, x)
    series = beta_k_series(k, x, 1e-13).value
    integral = beta_k_integral(k, x, 1e-10).value
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


def test_beta_k_deriv_where_x_plus_k_overflows():
    # beta_k'(x) = beta'(1)/k^2 is about -8e-617 here: it underflows
    assert beta_k_deriv(1e308, 1, 1e308) == 0.0
    assert beta_k_deriv(1e308, 2, 1.5e308) == 0.0


# ---------------------------------------------------------------- expansions
def test_taylor_terms_alternate_and_decrease():
    coeffs = beta_taylor_terms(1.0, 40)
    assert len(coeffs) == 41 and coeffs[0] == pytest.approx(LN2, abs=1e-15)
    for m in range(1, 39):
        assert coeffs[m] * coeffs[m + 1] < 0.0
    x = 0.8  # inside the radius: term magnitudes must decrease
    mags = [abs(c * x**m) for m, c in enumerate(coeffs)][1:]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_beta_taylor_54_values():
    assert beta_taylor_54(1.0, 0.0, 5).value == pytest.approx(LN2, abs=1e-15)
    assert beta_taylor_54(1.0, 0.5, 60).value == pytest.approx(2.0 - PI / 2.0, abs=1e-10)
    assert beta_taylor_54(2.0, -1.0, 240).value == pytest.approx(PI / 4.0, abs=1e-9)
    with pytest.raises(DomainError):
        beta_taylor_54(1.0, 1.0, 10)


def test_beta_expansion_55_values():
    assert beta_expansion_55(1.0, 0.5, 80).value == pytest.approx(PI / 2.0, abs=1e-9)
    assert beta_expansion_55(2.0, 1.0, 80).value == pytest.approx(PI / 4.0, abs=1e-9)
    assert beta_expansion_55(1.0, 0.9, 560).value == pytest.approx(beta_k(1.0, 0.9), abs=1e-8)


def test_beta_expansion_55_domain_and_convergence():
    with pytest.raises(DomainError):
        beta_expansion_55(1.0, 1.5, 80)
    with pytest.raises(DomainError):
        beta_expansion_55(1.0, -0.2, 80)
    with pytest.raises(ConvergenceError):
        beta_expansion_55(1.0, 0.9, 20, tol=1e-9)  # ratio 0.95 needs far more terms


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
