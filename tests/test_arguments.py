"""Each argument rule is declared once; every evaluator applies it the same way."""

import math

import pytest

import kspecfun
from kspecfun import DomainError

# name -> the function as a callable of x alone
POSITIVE_X = {
    "ln_gamma": kspecfun.ln_gamma,
    "digamma": kspecfun.digamma,
    "polygamma": lambda x: kspecfun.polygamma(1, x),
    "ln_gamma_k": lambda x: kspecfun.ln_gamma_k(1.0, x),
    "psi_k": lambda x: kspecfun.psi_k(1.0, x),
    "psi_k_series": lambda x: kspecfun.psi_k_series(1.0, x),
    "psi_k_m": lambda x: kspecfun.psi_k_m(1.0, 1, x),
    "psi_k_m_series": lambda x: kspecfun.psi_k_m_series(1.0, 1, x),
    "psi_k_duplication_rhs": lambda x: kspecfun.psi_k_duplication_rhs(1.0, x),
    "beta_k": lambda x: kspecfun.beta_k(1.0, x),
    "beta_k_series": lambda x: kspecfun.beta_k_series(1.0, x),
    "beta_k_integral": lambda x: kspecfun.beta_k_integral(1.0, x),
    "beta_k_deriv": lambda x: kspecfun.beta_k_deriv(1.0, 1, x),
    "representation_48_corrected_rhs": lambda x: kspecfun.representation_48_corrected_rhs(1.0, x),
}

# name -> the route as a callable of tol alone
CHECKED_TOL = {
    "adaptive_quad": lambda tol: kspecfun.adaptive_quad(math.sin, 0.0, 1.0, tol),
    "gauss_2f1": lambda tol: kspecfun.gauss_2f1(1.0, 1.0, 2.0, -0.5, tol),
    "lerch_alt": lambda tol: kspecfun.lerch_alt(0.5, tol),
    "psi_k_series": lambda tol: kspecfun.psi_k_series(1.0, 1.0, tol),
    "psi_k_m_series": lambda tol: kspecfun.psi_k_m_series(1.0, 1, 1.0, tol),
    "beta_k_series": lambda tol: kspecfun.beta_k_series(1.0, 1.0, tol),
    "beta_k_cosh_form": lambda tol: kspecfun.beta_k_cosh_form(1.0, 1.0, tol),
    "beta_taylor_54": lambda tol: kspecfun.beta_taylor_54(1.0, 0.5, 10, tol),
    "beta_expansion_55": lambda tol: kspecfun.beta_expansion_55(1.0, 0.5, 560, tol),
    "alpha0_solve": lambda tol: kspecfun.alpha0_solve(1.0, tol),
    "furdui_oracle": lambda tol: kspecfun.furdui_oracle(1.0, 1, tol),
    "thm31_series": lambda tol: kspecfun.thm31_series(1.0, 1, tol),
    "thm32_series": lambda tol: kspecfun.thm32_series(1.0, 1, tol),
    "thm33_series": lambda tol: kspecfun.thm33_series(1.0, 2, tol),
    "ln_gamma_k_moment": lambda tol: kspecfun.ln_gamma_k_moment(1.0, 1, tol),
    "logsin_moment": lambda tol: kspecfun.logsin_moment(1, tol),
    "thm34_recursion": lambda tol: kspecfun.thm34_recursion(1.0, 1, 1, tol),
}


@pytest.mark.parametrize("name", sorted(POSITIVE_X))
@pytest.mark.parametrize("x", [0.0, -1.0])
def test_nonpositive_x_names_the_function(name, x):
    with pytest.raises(DomainError) as info:
        POSITIVE_X[name](x)
    assert str(info.value) == f"{name} requires x > 0, got {x}"


@pytest.mark.parametrize("name", sorted(POSITIVE_X))
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_x_is_rejected(name, x):
    with pytest.raises(DomainError) as info:
        POSITIVE_X[name](x)
    assert str(info.value) == f"x must be finite, got {x!r}"


@pytest.mark.parametrize("name", sorted(CHECKED_TOL))
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_nonpositive_tol_is_rejected(name, tol):
    with pytest.raises(DomainError, match="^tol must be positive$"):
        CHECKED_TOL[name](tol)
