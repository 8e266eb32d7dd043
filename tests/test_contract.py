"""The evaluator contract, swept over one (k, x) lattice and one k sweep.

Every call of a Gamma_k-family evaluator, of the classical ``rgamma``,
``digamma`` and ``polygamma``, or of the Lerch sums ``lerch_alt`` and
``lerch_one_diff``, returns a finite float (an Estimate with a finite
value and error estimate, for ``lerch_alt``), raises
DomainError (PoleError included), or raises the OverflowError whose
message says the value overflows binary64.  A raw ValueError, a bare
OverflowError from ``**`` or libm, nan and inf all break it.  Calls that
break it today are listed in KNOWN_VIOLATIONS, which the sweep asserts
exactly, so the list can only shrink.  The series routes of the Furdui
moments and of the beta_k expansions keep the same contract, with a
finite value and error estimate in their Estimate, over a sweep of k,
and so do the cross-check routes, for which the documented
ConvergenceError is inside the contract too.
"""

import math

import kspecfun
from kspecfun import ConvergenceError, DomainError, Estimate

# k from the bottom to the top of binary64; x as +-u k, with u at the
# poles, tiny, half-integer, at the seam and far, plus the extremes of
# binary64 and a point just past the first negative pole
K_VALUES = (1e-300, 1e-3, 1.0, 1e3, 1e300)
U_VALUES = (0.0, 1e-300, 1e-8, 0.5, 1.0, 2.5, 200.5, 1e10)

EVALUATORS = {
    "gamma_k": kspecfun.gamma_k,
    "rgamma_k": kspecfun.rgamma_k,
    "ln_gamma_k": kspecfun.ln_gamma_k,
    "psi_k": kspecfun.psi_k,
    # the lowest order, a middle one and the order limit, whose values leave
    # binary64 on both sides over much of the lattice
    "psi_k_m-1": lambda k, x: kspecfun.psi_k_m(k, 1, x),
    "psi_k_m-3": lambda k, x: kspecfun.psi_k_m(k, 3, x),
    "psi_k_m-150": lambda k, x: kspecfun.psi_k_m(k, 150, x),
    "beta_k": kspecfun.beta_k,
    "beta_k_deriv-1": lambda k, x: kspecfun.beta_k_deriv(k, 1, x),
    "beta_k_deriv-12": lambda k, x: kspecfun.beta_k_deriv(k, 12, x),
    "hadamard_k": kspecfun.hadamard_k,
    # the k = 1 functions at the same x; at x = 5e-324 psi(x) is beyond binary64
    "rgamma": lambda k, x: kspecfun.rgamma(x),
    "digamma": lambda k, x: kspecfun.digamma(x),
    "polygamma": lambda k, x: kspecfun.polygamma(3, x),
}

KNOWN_VIOLATIONS = set()


def _lattice():
    for k in K_VALUES:
        xs = {s * u * k for u in U_VALUES for s in (1.0, -1.0)}
        xs |= {5e-324, -5e-324, 1.7e308, -1.7e308, -0.501 * k}
        for x in sorted(x for x in xs if math.isfinite(x)):
            yield k, x


def _breaks_contract(name, k, x):
    return _breaks(lambda: EVALUATORS[name](k, x))


def _breaks(call, documented=DomainError):
    try:
        value = call()
    except documented:
        return False
    except OverflowError as exc:
        return "overflows binary64" not in str(exc)
    except Exception:  # any other error is outside the contract
        return True
    values = (value.value, value.error_estimate) if isinstance(value, Estimate) else (value,)
    return not all(type(v) is float and math.isfinite(v) for v in values)


def test_every_evaluator_keeps_the_contract_on_the_lattice():
    calls = [(name, k, x) for name in EVALUATORS for k, x in _lattice()]
    assert len(calls) == 1344
    broken = {call for call in calls + sorted(KNOWN_VIOLATIONS) if _breaks_contract(*call)}
    assert broken == KNOWN_VIOLATIONS


# the Lerch sums of THM4.4's two sides, at each x value of the lattice and at
# each ordered pair of them
LERCH_KNOWN_VIOLATIONS = set()


def test_the_lerch_sums_keep_the_contract_on_the_lattice_values():
    xs = sorted({x for _, x in _lattice()})
    calls = [("lerch_alt", (a,)) for a in xs]
    calls += [("lerch_one_diff", (a, b)) for a in xs for b in xs]
    assert len(calls) == 72 + 5184
    broken = {(name, args) for name, args in calls
              if _breaks(lambda: getattr(kspecfun, name)(*args))}
    assert broken == LERCH_KNOWN_VIOLATIONS


# k from the smallest subnormal to the largest finite float
SERIES_K = (5e-324, 1e-300, 1e-10, 1e-3, 1.0, 5.0, 30.0, 1e3, 1e100, 1e300, 1.7e308)
M_VALUES = (1, 2, 3, 4, 5, 6)

# route -> (the route as a callable of k and one parameter, that parameter's values);
# the beta_k expansions take x = u k for the registry's units u
SERIES_ROUTES = {
    "thm31_series": (kspecfun.thm31_series, M_VALUES),
    "thm32_series-as_printed":
        (lambda k, m: kspecfun.thm32_series(k, m, variant="as_printed"), M_VALUES),
    "thm32_series-sign_variant":
        (lambda k, m: kspecfun.thm32_series(k, m, variant="sign_variant"), M_VALUES),
    "thm33_series": (kspecfun.thm33_series, M_VALUES),
    "thm34_recursion": (lambda k, mn: kspecfun.thm34_recursion(k, *mn),
                        [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]),
    "beta_taylor_54": (lambda k, u: kspecfun.beta_taylor_54(k, u * k), (-0.5, 0.1, 0.5, 0.9)),
    "beta_expansion_55": (lambda k, u: kspecfun.beta_expansion_55(k, u * k), (0.1, 0.5, 0.9)),
}

SERIES_KNOWN_VIOLATIONS = set()


def test_every_series_route_keeps_the_contract_over_the_k_sweep():
    calls = [(name, k, p) for name, (_, params) in SERIES_ROUTES.items()
             for k in SERIES_K for p in params]
    assert len(calls) == 440
    broken = {(name, k, p) for name, k, p in calls
              if _breaks(lambda: SERIES_ROUTES[name][0](k, p))}
    assert broken == SERIES_KNOWN_VIOLATIONS


UNITS = (0.1, 0.35, 0.7, 1.0, 2.5, 5.0)

# cross-check route -> (the route as a callable of k and x = u k or of k and m,
# the values of u or m)
CROSS_CHECK_ROUTES = {
    "psi_k_series": (lambda k, u: kspecfun.psi_k_series(k, u * k), UNITS),
    "psi_k_m_series": (lambda k, u: kspecfun.psi_k_m_series(k, 3, u * k), UNITS),
    "beta_k_series": (lambda k, u: kspecfun.beta_k_series(k, u * k), UNITS),
    "beta_k_integral": (lambda k, u: kspecfun.beta_k_integral(k, u * k), UNITS),
    "beta_k_cosh_form": (lambda k, u: kspecfun.beta_k_cosh_form(k, u * k), UNITS),
    "furdui_oracle": (kspecfun.furdui_oracle, M_VALUES),
    "ln_gamma_k_moment": (kspecfun.ln_gamma_k_moment, M_VALUES),
}

# (route, k) -> the u or m at which the call breaks the contract today
CROSS_CHECK_KNOWN_VIOLATIONS = {}


def test_every_cross_check_route_keeps_the_contract_over_the_k_sweep():
    calls = [(name, k, p) for name, (_, params) in CROSS_CHECK_ROUTES.items()
             for k in SERIES_K for p in params]
    assert len(calls) == 462
    broken = {}
    for name, k, p in calls:
        if _breaks(lambda: CROSS_CHECK_ROUTES[name][0](k, p), (DomainError, ConvergenceError)):
            broken.setdefault((name, k), []).append(p)
    assert broken == {key: list(params) for key, params in CROSS_CHECK_KNOWN_VIOLATIONS.items()}
