"""The evaluator contract, swept over one (k, x) lattice.

Every call of a Gamma_k-family evaluator returns a finite float, raises
DomainError (PoleError included), or raises the OverflowError whose
message says the value overflows binary64.  A raw ValueError, a bare
OverflowError from ``**`` or libm, nan and inf all break it.  Calls that
break it today are listed in KNOWN_VIOLATIONS, which the sweep asserts
exactly, so the list can only shrink.
"""

import math

import kspecfun
from kspecfun import DomainError

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
    try:
        value = EVALUATORS[name](k, x)
    except DomainError:
        return False
    except OverflowError as exc:
        return "overflows binary64" not in str(exc)
    except Exception:  # any other error is outside the contract
        return True
    return not (type(value) is float and math.isfinite(value))


def test_every_evaluator_keeps_the_contract_on_the_lattice():
    calls = [(name, k, x) for name in EVALUATORS for k, x in _lattice()]
    assert len(calls) == 672
    broken = {call for call in calls + sorted(KNOWN_VIOLATIONS) if _breaks_contract(*call)}
    assert broken == KNOWN_VIOLATIONS
