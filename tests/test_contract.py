"""The evaluator contract, swept over one (k, x) lattice and one k sweep.

Every call of a Gamma_k-family evaluator returns a finite float, raises
DomainError (PoleError included), or raises the OverflowError whose
message says the value overflows binary64.  A raw ValueError, a bare
OverflowError from ``**`` or libm, nan and inf all break it.  Calls that
break it today are listed in KNOWN_VIOLATIONS, which the sweep asserts
exactly, so the list can only shrink.  The series routes of the Furdui
moments and of the beta_k expansions keep the same contract, with a
finite value and error estimate in their Estimate, over a sweep of k.
"""

import math

import kspecfun
from kspecfun import DomainError, Estimate

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
    "psi_k_m": lambda k, x: kspecfun.psi_k_m(k, 3, x),
    "beta_k": kspecfun.beta_k,
    "hadamard_k": kspecfun.hadamard_k,
}

# hadamard_k's base form takes ln of beta_k(k - x), which underflows to
# 0.0 here, so math.log raises a raw ValueError
KNOWN_VIOLATIONS = {("hadamard_k", 1e-30, -1e-15)}


def _lattice():
    for k in K_VALUES:
        xs = {s * u * k for u in U_VALUES for s in (1.0, -1.0)}
        xs |= {5e-324, -5e-324, 1.7e308, -1.7e308, -0.501 * k}
        for x in sorted(x for x in xs if math.isfinite(x)):
            yield k, x


def _breaks_contract(name, k, x):
    return _breaks(lambda: EVALUATORS[name](k, x))


def _breaks(call):
    try:
        value = call()
    except DomainError:
        return False
    except OverflowError as exc:
        return "overflows binary64" not in str(exc)
    except Exception:  # any other error is outside the contract
        return True
    values = (value.value, value.error_estimate) if isinstance(value, Estimate) else (value,)
    return not all(type(v) is float and math.isfinite(v) for v in values)


def test_every_evaluator_keeps_the_contract_on_the_lattice():
    calls = [(name, k, x) for name in EVALUATORS for k, x in _lattice()]
    assert len(calls) == 672
    broken = {call for call in calls + sorted(KNOWN_VIOLATIONS) if _breaks_contract(*call)}
    assert broken == KNOWN_VIOLATIONS


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
    "beta_taylor_54": (lambda k, u: kspecfun.beta_taylor_54(k, u * k, 240), (-0.5, 0.1, 0.5, 0.9)),
    "beta_expansion_55": (lambda k, u: kspecfun.beta_expansion_55(k, u * k, 560), (0.1, 0.5, 0.9)),
}

SERIES_KNOWN_VIOLATIONS = set()


def test_every_series_route_keeps_the_contract_over_the_k_sweep():
    calls = [(name, k, p) for name, (_, params) in SERIES_ROUTES.items()
             for k in SERIES_K for p in params]
    assert len(calls) == 440
    broken = {(name, k, p) for name, k, p in calls
              if _breaks(lambda: SERIES_ROUTES[name][0](k, p))}
    assert broken == SERIES_KNOWN_VIOLATIONS
