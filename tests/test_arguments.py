"""Each argument rule is declared once; every evaluator applies it the same way."""

import math

import pytest

import kspecfun
from kspecfun import DomainError
from kspecfun.scalar import zeta_minus_1

# name -> the function as a callable of x alone
POSITIVE_X = {
    "digamma": kspecfun.digamma,
    "polygamma": lambda x: kspecfun.polygamma(1, x),
    "ln_gamma_k": lambda x: kspecfun.ln_gamma_k(1.0, x),
    "psi_k": lambda x: kspecfun.psi_k(1.0, x),
    "psi_k_series": lambda x: kspecfun.psi_k_series(1.0, x),
    "psi_k_m": lambda x: kspecfun.psi_k_m(1.0, 1, x),
    "psi_k_m_series": lambda x: kspecfun.psi_k_m_series(1.0, 1, x),
    "beta_k": lambda x: kspecfun.beta_k(1.0, x),
    "beta_k_series": lambda x: kspecfun.beta_k_series(1.0, x),
    "beta_k_integral": lambda x: kspecfun.beta_k_integral(1.0, x),
    "beta_k_deriv": lambda x: kspecfun.beta_k_deriv(1.0, 1, x),
}

# name -> the route as a callable of tol alone
CHECKED_TOL = {
    "adaptive_quad": lambda tol: kspecfun.adaptive_quad(math.sin, 0.0, 1.0, tol),
    "gauss_2f1": lambda tol: kspecfun.gauss_2f1(1.0, 1.0, 2.0, -0.5, tol),
    "alpha0_solve": lambda tol: kspecfun.alpha0_solve(1.0, tol),
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


# (name, the function as a callable of one integer argument, that argument's rule,
# out-of-range values); a bool is never an integer argument
INTEGER_ARGS = [
    ("polygamma", lambda m: kspecfun.polygamma(m, 1.0), "m >= 1", (0, 1.0)),
    ("zeta_int", kspecfun.zeta_int, "s >= 2", (1, 2.0)),
    ("zeta_minus_1", zeta_minus_1, "s >= 2", (1, 2.0)),
    ("psi_k_m", lambda m: kspecfun.psi_k_m(1.0, m, 1.0), "m >= 1", (0, 1.0)),
    ("psi_k_m_series", lambda m: kspecfun.psi_k_m_series(1.0, m, 1.0), "m >= 1", (0, 1.0)),
    ("beta_k_deriv", lambda n: kspecfun.beta_k_deriv(1.0, n, 1.0), "order >= 0", (-1, 0.0)),
    ("recursion_47", lambda n: kspecfun.recursion_47(1.0, 0.5, n), "1 <= n <= 50",
     (0, 51, 1.0)),
    ("furdui_oracle", lambda m: kspecfun.furdui_oracle(1.0, m), "m >= 1", (0, 1.0)),
    ("thm31_series", lambda m: kspecfun.thm31_series(1.0, m), "m >= 1", (0, 1.0)),
    ("thm32_series", lambda m: kspecfun.thm32_series(1.0, m), "m >= 1", (0, 1.0)),
    ("thm33_series", lambda m: kspecfun.thm33_series(1.0, m), "m >= 1", (0, 2.0)),
    ("ln_gamma_k_moment", lambda m: kspecfun.ln_gamma_k_moment(1.0, m), "m >= 1", (0, 1.0)),
    ("logsin_moment", kspecfun.logsin_moment, "m >= 1", (0, 1.0)),
    ("thm34_recursion", lambda m: kspecfun.thm34_recursion(1.0, m, 1), "m >= 1", (0, 1.0)),
    ("thm34_recursion", lambda n: kspecfun.thm34_recursion(1.0, 1, n), "1 <= n <= 8",
     (0, 9, 1.0)),
    ("openproblem_scan", lambda n: kspecfun.openproblem_scan(1.0, n), "0 <= n_max <= 4",
     (-1, 5, 0.0)),
]


@pytest.mark.parametrize("name,call,rule,bad", INTEGER_ARGS,
                         ids=[f"{row[0]}-{row[2]}" for row in INTEGER_ARGS])
def test_integer_arguments_reject_bools_floats_and_out_of_range_values(name, call, rule, bad):
    for value in (True, False) + bad:
        with pytest.raises(DomainError) as info:
            call(value)
        assert str(info.value) == f"{name} requires an integer {rule}, got {value!r}"
