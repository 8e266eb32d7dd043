"""Constants, argument rules and kernels under the k-deformed family.

Everything here is scalar binary64 arithmetic on top of ``math``, and no
function here is public.  Gamma, psi and their derivatives are evaluated in
:mod:`kspecfun.kcore`, whose ``rgamma``, ``digamma`` and ``polygamma`` are
its Gamma_k, psi_k and psi_k^(m) at k = 1.  This module keeps what the
layers above share: the argument checks, the one message for a value
beyond binary64, the constants of the psi tail (written out as straight-line
Horner forms over ``_T1`` .. ``_T7`` wherever it is taken: seven terms in
``kcore.psi_k``, and in ``beta._beta_unit`` seven below U_beta = 51 and five
from there), the Bernoulli numbers B_2 .. B_20
that the polygamma tails and the series routes share, the polygamma order
limit, and :func:`_times_powers`, which rounds a
product of powers into binary64 once.  The zeta family, the Gauss hypergeometric series
and the alternating Lerch sum serve only the cross-check routes and live
with them in :mod:`kspecfun.routes`; the ``Estimate`` record that those
routes return lives with the quadrature in :mod:`kspecfun.oracles`.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError

__all__ = [
    "CONSTANTS",
    "Constants",
]

_EPS = 2.220446049250313e-16
_MIN_NORMAL = sys.float_info.min
_MAX_NORMAL = sys.float_info.max
_LN_MAX = math.log(_MAX_NORMAL)


class Constants(
    namedtuple(
        "Constants",
        "euler_gamma ln2 pi glaisher_A",
        defaults=(0.5772156649015329, 0.6931471805599453, 3.141592653589793, 1.2824271291006226),
    )
):
    """Mathematical constants used throughout the package.

    ``glaisher_A`` (the Glaisher-Kinkelin constant) is reserved for
    acceptance-style checks; no evaluator depends on it.
    """

    __slots__ = ()
    euler_gamma: float
    ln2: float
    pi: float
    glaisher_A: float


CONSTANTS = Constants()


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _positive(name: str, x: float) -> float:
    """x as a float, checked finite and > 0; a nonpositive x names ``name`` in the error."""
    x = float(x)
    if 0.0 < x < math.inf:
        return x
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    raise DomainError(f"{name} requires x > 0, got {x}")


def _check_int(name: str, param: str, value, lo: int, hi: int | None = None) -> None:
    """Raise DomainError naming ``name`` unless ``value`` is an int in [lo, hi].

    A bool, or any other subclass of int, is not an integer argument.  The
    test is one type check and two comparisons because ``polygamma`` makes
    it on every call.
    """
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bounds = f"{param} >= {lo}" if hi is None else f"{lo} <= {param} <= {hi}"
        raise DomainError(f"{name} requires an integer {bounds}, got {value!r}")


def _check_tol(tol: float) -> None:
    if not tol > 0:  # also rejects nan
        raise DomainError("tol must be positive")


def _overflow_error(what: str, x: float, k: float | None = None) -> OverflowError:
    # the one message for a value beyond binary64; the Gamma_k family adds its k
    at = "" if k is None else f" (k={k})"
    return OverflowError(f"{what}({x}) overflows binary64{at}")


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact zeros at integer x."""
    if x < 0.0:
        return -_sinpi(-x)
    r = math.fmod(x, 2.0)
    if r >= 1.0:
        sign = -1.0
        r -= 1.0
    else:
        sign = 1.0
    if r > 0.5:
        r = 1.0 - r
    return sign * math.sin(math.pi * r)


# B_{2n}/(2n) for n = 1..7 (asymptotic tail of psi)
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)
_T1, _T2, _T3, _T4, _T5, _T6, _T7 = _DIGAMMA_TAIL  # for the straight-line Horner forms

# Bernoulli numbers B_2 .. B_20
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)


# Above order 150 the last coefficient of psi_k_m's sixteen-term tail,
# c_16 = B_32 (m+31)!/32!, overflows (2.1e306 at m = 150, beyond binary64
# at 151), so its plans never number more than 150.
_POLYGAMMA_MAX_ORDER = 150


def _check_polygamma_order(m: int) -> None:
    if m > _POLYGAMMA_MAX_ORDER:
        raise DomainError(f"polygamma orders above {_POLYGAMMA_MAX_ORDER} "
                          f"are not supported, got {m}")


def _times_powers(c: float, *factors: tuple[float, int]) -> float:
    """c * prod(y**p) over the (y, p) factors, y > 0, rounded into binary64 once.

    Each factor is split into mantissa and exponent first, so no partial
    product overflows or underflows; the result underflows to 0.0 and is
    inf beyond binary64.
    """
    f, e = math.frexp(c)
    for y, p in factors:
        ym, ye = math.frexp(y)
        f *= ym**p
        e += ye * p
    try:
        return math.ldexp(f, e)
    except OverflowError:
        return math.copysign(math.inf, f)
