"""Each argument rule is declared once; every evaluator applies it the same way."""

import inspect
import math

import pytest

import kspecfun
from kspecfun import DomainError
from kspecfun.routes import zeta_minus_1

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


# name -> the function as a callable of k alone, at valid other arguments
K_CALLS = {
    "alpha0_solve": kspecfun.alpha0_solve,
    "beta_expansion_55": lambda k: kspecfun.beta_expansion_55(k, 0.5),
    "beta_k": lambda k: kspecfun.beta_k(k, 1.5),
    "beta_k_cosh_form": lambda k: kspecfun.beta_k_cosh_form(k, 1.5),
    "beta_k_deriv": lambda k: kspecfun.beta_k_deriv(k, 1, 1.5),
    "beta_k_integral": lambda k: kspecfun.beta_k_integral(k, 1.5),
    "beta_k_series": lambda k: kspecfun.beta_k_series(k, 1.5),
    "beta_taylor_54": lambda k: kspecfun.beta_taylor_54(k, 0.5),
    "furdui_method": lambda k: kspecfun.furdui_method("thm31", k, 1),
    "furdui_oracle": lambda k: kspecfun.furdui_oracle(k, 1),
    "gamma_k": lambda k: kspecfun.gamma_k(k, -1.5),
    "hadamard_k": lambda k: kspecfun.hadamard_k(k, 1.5),
    "ln_gamma_k": lambda k: kspecfun.ln_gamma_k(k, 1.5),
    "ln_gamma_k_moment": lambda k: kspecfun.ln_gamma_k_moment(k, 1),
    "openproblem_scan": lambda k: kspecfun.openproblem_scan(k, 1),
    "psi_k": lambda k: kspecfun.psi_k(k, 1.5),
    "psi_k_m": lambda k: kspecfun.psi_k_m(k, 2, 1.5),
    "psi_k_m_series": lambda k: kspecfun.psi_k_m_series(k, 2, 1.5),
    "psi_k_series": lambda k: kspecfun.psi_k_series(k, 1.5),
    "recursion_47": lambda k: kspecfun.recursion_47(k, 0.5, 3),
    "rgamma_k": lambda k: kspecfun.rgamma_k(k, -1.5),
    "thm31_series": lambda k: kspecfun.thm31_series(k, 1),
    "thm32_series": lambda k: kspecfun.thm32_series(k, 1),
    "thm33_series": lambda k: kspecfun.thm33_series(k, 1),
    "thm34_recursion": lambda k: kspecfun.thm34_recursion(k, 1, 1),
}


def test_every_public_function_of_k_is_listed():
    # dir() lists every exported name, loaded on first use or not
    taking_k = {name for name in dir(kspecfun)
                if inspect.isfunction(value := getattr(kspecfun, name))
                and "k" in inspect.signature(value).parameters}
    assert set(K_CALLS) == taking_k


@pytest.mark.parametrize("name", sorted(K_CALLS))
@pytest.mark.parametrize("k", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_k_must_be_finite_and_positive(name, k):
    with pytest.raises(DomainError) as info:
        K_CALLS[name](k)
    assert str(info.value) == f"k must be finite and > 0, got {k!r}"


@pytest.mark.parametrize("name", sorted(K_CALLS))
def test_an_int_k_gives_the_bits_of_the_float_k(name):
    assert repr(K_CALLS[name](2)) == repr(K_CALLS[name](2.0))


# (call, exception type, message): where several arguments are bad, the
# first rule in the order k, then m, then x decides the error
ERROR_ORDER = [
    (lambda: kspecfun.psi_k_m(0.0, 0, -1.0), DomainError, "k must be finite and > 0, got 0.0"),
    (lambda: kspecfun.psi_k_m(math.nan, True, "x"), DomainError,
     "k must be finite and > 0, got nan"),
    (lambda: kspecfun.psi_k_m(1.0, 0, -1.0), DomainError,
     "psi_k_m requires an integer m >= 1, got 0"),
    (lambda: kspecfun.psi_k_m(1.0, 1.0, "x"), DomainError,
     "psi_k_m requires an integer m >= 1, got 1.0"),
    (lambda: kspecfun.psi_k_m(1.0, 151, -1.0), DomainError, "psi_k_m requires x > 0, got -1.0"),
    (lambda: kspecfun.psi_k_m(1.0, 151, 1.0), DomainError,
     "polygamma orders above 150 are not supported, got 151"),
    (lambda: kspecfun.psi_k_m(1.0, 1, "x"), ValueError, "could not convert string to float: 'x'"),
    (lambda: kspecfun.psi_k_m("k", 0, 1.0), ValueError, "could not convert string to float: 'k'"),
    (lambda: kspecfun.psi_k(-1.0, math.inf), DomainError, "k must be finite and > 0, got -1.0"),
    (lambda: kspecfun.psi_k(1, -math.inf), DomainError, "x must be finite, got -inf"),
    (lambda: kspecfun.ln_gamma_k(math.inf, 0.0), DomainError,
     "k must be finite and > 0, got inf"),
    (lambda: kspecfun.beta_k(0, None), DomainError, "k must be finite and > 0, got 0.0"),
    (lambda: kspecfun.beta_k(1.0, None), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
    (lambda: kspecfun.gamma_k(-math.inf, math.nan), DomainError,
     "k must be finite and > 0, got -inf"),
    (lambda: kspecfun.gamma_k(1.0, math.nan), DomainError, "x must be finite, got nan"),
    (lambda: kspecfun.gamma_k(1.0, -2.0), kspecfun.PoleError,
     "Gamma_k pole at x = -2.0 (k=1.0, x=-2.0)"),
    (lambda: kspecfun.rgamma_k(0.0, "x"), DomainError, "k must be finite and > 0, got 0.0"),
    (lambda: kspecfun.rgamma_k(2.0, math.inf), DomainError, "x must be finite, got inf"),
    (lambda: kspecfun.hadamard_k(math.nan, math.inf), DomainError,
     "k must be finite and > 0, got nan"),
    (lambda: kspecfun.hadamard_k(1e-300, -math.inf), DomainError, "x must be finite, got -inf"),
]


@pytest.mark.parametrize("call,error,message", ERROR_ORDER)
def test_the_first_bad_argument_decides_the_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
