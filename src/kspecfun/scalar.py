"""Constants, argument rules and kernels under the k-deformed family.

Everything here is scalar binary64 arithmetic on top of ``math``, and no
function here is public.  Gamma, psi and their derivatives are evaluated in
:mod:`kspecfun.kcore`, whose ``rgamma``, ``digamma`` and ``polygamma`` are
its Gamma_k, psi_k and psi_k^(m) at k = 1.  This module keeps what the
layers above share: the argument checks, the one message for a value
beyond binary64, the constants of the seven-term psi tail (written out as one
straight-line Horner form over ``_T1`` .. ``_T7`` wherever it is taken, in
``kcore.psi_k`` and ``beta._beta_unit``), and the one polygamma kernel that
``kcore.psi_k_m`` calls.  The zeta family, the Gauss hypergeometric series
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


# Above order 150 the last Bernoulli coefficient overflows, so the plans
# below never number more than 150.
_POLYGAMMA_MAX_ORDER = 150
# the tail stops where its next term is below 2^-60 of its leading one
_POLYGAMMA_TAIL_CUT = 2.0**-60
# one entry per binade of v = k/y down to the smallest subnormal, and v = 0.0
_POLYGAMMA_BINADES = 1075
# order m -> the plan of _polygamma_plan(m), filled on first use of m
_POLYGAMMA_PLANS: dict[int, tuple] = {}
_frexp = math.frexp  # bound once: the polygamma kernel reads a binade on every call


def _check_polygamma_order(m: int) -> None:
    if m > _POLYGAMMA_MAX_ORDER:
        raise DomainError(f"polygamma orders above {_POLYGAMMA_MAX_ORDER} "
                          f"are not supported, got {m}")


def _polygamma_plan(m: int) -> tuple:
    """Constants of the order-m polygamma kernel, built on first use of m.

    (sign, threshold, m!, (m-1)!, m!/2, m, -(m+1), tails), with sign
    (-1)^(m+1), threshold 10 + m and the two powers as floats.
    ``tails[i]`` is the reversed tuple of the Bernoulli coefficients
    c_j = B_2j (2j+m-1)!/(2j)! that the tail
    P(v) = (m-1)! + m! v/2 + sum c_j v^(2j) needs where v < 2^-i (the binade
    read off ``math.frexp(v)``; ``tails[0]`` serves v = 0.0): the first n,
    n <= 10, such that c_(n+1) v^(2n+2) is below 2^-60 (m-1)! for every such
    v up to 1/threshold.  The plan is kept in ``_POLYGAMMA_PLANS``, which
    :func:`_polygamma_k` reads first, so a warm order costs no call.
    """
    plan = _POLYGAMMA_PLANS.get(m)
    if plan is not None:
        return plan
    _check_polygamma_order(m)
    threshold = 10.0 + m
    mf = float(math.factorial(m))
    fm1 = float(math.factorial(m - 1))
    coeffs = tuple(
        b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
        for j, b2j in enumerate(_BERNOULLI, start=1)
    )
    cut = _POLYGAMMA_TAIL_CUT * fm1
    tails = [()]  # v = 0.0
    n = len(coeffs)
    while n:
        v2 = min(2.0 ** -len(tails), 1.0 / threshold) ** 2
        while n and abs(coeffs[n - 1]) * v2**n < cut:
            n -= 1
        tails.append(tuple(reversed(coeffs[:n])))
    tails += [()] * (_POLYGAMMA_BINADES - len(tails))
    sign = 1.0 if m % 2 == 1 else -1.0
    plan = sign, threshold, mf, fm1, 0.5 * mf, float(m), -1.0 - m, tuple(tails)
    _POLYGAMMA_PLANS[m] = plan
    return plan


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


def _polygamma_edge(m: int, k: float, x: float) -> float:
    """:func:`_polygamma_k` where its sums leave the normal range, rerun at (k', x') = (k, x) 2^-e.

    psi_{ck}^(m)(cx) = c^-(m+1) psi_k^(m)(x) is exact for c = 2^-e while ck
    and cx stay normal.  In the far field e = floor((e_k + m e_x)/(m+1))
    puts k' x'^m near 1; below it e centres log2 of m! n x'^-(m+1) (above
    m! times every partial sum) and of y'^-(m+1) (below the smallest term)
    in the exponent range, so the rerun takes no edge.  Two cases fit no
    scale and are truncated: x/k >= 2^70 (inf included) gives
    (m-1)!/(k x^m), and a second shift term below 2^-64 of the first gives
    m! x^-(m+1).  Returns +-inf where the value is beyond binary64.
    """
    sign, threshold, mf, fm1 = _polygamma_plan(m)[:4]
    u = x / k
    if u >= 2.0**70:
        return sign * _times_powers(fm1, (k, -1), (x, -m))
    if u >= threshold:
        e = (_frexp(k)[1] + m * _frexp(x)[1]) // (m + 1)
    elif (u / (u + 1.0)) ** (m + 1) < 2.0**-64:
        return sign * _times_powers(mf, (x, -(m + 1)))
    else:
        n = math.ceil(threshold - u)
        log_y = math.log2(k) + math.log2(u + n)
        e = round((math.log2(x) + log_y - math.log2(mf * n) / (m + 1)) / 2.0)
    value = _polygamma_k(m, math.ldexp(k, -e), math.ldexp(x, -e))
    try:
        return math.ldexp(value, -e * (m + 1))
    except OverflowError:
        return math.copysign(math.inf, value)


def _polygamma_k(m: int, k: float, x: float) -> float:
    """psi^(m)(x/k) / k^(m+1) for an integer 1 <= m <= 150 and checked k, x > 0.

    The one polygamma kernel, taken in x and k without forming
    psi^(m)(x/k) or k^(m+1): (-1)^(m+1) [m! sum (x + ik)^-(m+1) + P(k/y) / (k y^m)].
    The far field x/k >= 10 + m is tested first and takes no shift (y = x);
    below it the shift runs over i = 0 .. n-1, n = ceil(10 + m - x/k), and
    y = x + nk (DLMF 5.15.8 scaled by k).  Each x + ik is formed directly
    and the shift is summed from its smallest term; P(v) = (m-1)! + m! v/2
    + sum c_j v^(2j) is taken in Horner form in v^2 with as many terms as
    the plan gives the binade of v = k/y, and m! is applied once.  Where
    x/k overflows, or a shift term or k y^m leaves the normal range,
    :func:`_polygamma_edge` reruns it at a power-of-two rescaled (k, x).
    Returns +-inf where the value is beyond binary64; callers raise.
    """
    plan = _POLYGAMMA_PLANS.get(m) or _polygamma_plan(m)
    sign, threshold, mf, fm1, half_mf, order, power, tails = plan
    u = x / k
    s = 0.0
    y = x
    try:
        if not threshold <= u <= _MAX_NORMAL:  # the far field, tested first, takes no shift
            n = math.ceil(threshold - u)  # n >= 1 shift terms; raises where x/k overflows
            # x + ik for each i, not y += k, whose roundings would add up; and
            # the smallest term first, so no rounding is taken at the largest
            i = n - 1.0
            s = (x + i * k) ** power
            if s < _MIN_NORMAL:  # the smallest shift term
                return _polygamma_edge(m, k, x)
            while i > 0.0:
                i -= 1.0
                s += (x + i * k) ** power
            y = x + n * k
        d = k * y**order
        if _MIN_NORMAL <= d <= _MAX_NORMAL:
            v = k / y
            v2 = v * v
            q = 0.0
            for c in tails[-_frexp(v)[1]]:
                q = (q + c) * v2
            return sign * (mf * s + (fm1 + (half_mf * v + q)) / d)
    except OverflowError:
        pass
    return _polygamma_edge(m, k, x)
