"""The k-deformed gamma family: Gamma_k, psi_k and its derivatives.

Evaluation reduces everything to the classical functions through
Gamma_k(x) = k^(x/k - 1) Gamma(x/k) and psi_k(x) = (ln k + psi(x/k))/k.
The direct series routes that cross-check psi_k and psi_k^(m) live in
:mod:`kspecfun.routes`.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError
from .scalar import (
    _MAX_NORMAL,
    _MIN_NORMAL,
    CONSTANTS,
    _check_int,
    _T1, _T2, _T3, _T4, _T5, _T6, _T7,
    _digamma,
    _overflow_error,
    _polygamma_k,
    _positive,
    _require_finite,
    _rgamma,
    _sinpi,
)

__all__ = [
    "gamma_k",
    "ln_gamma_k",
    "rgamma_k",
    "psi_k",
    "psi_k_m",
]

POLE_GUARD = 1e-8  # relative (in units of k) pole exclusion radius
_TINY_U = 2.0**-26
_STIRLING_U = 2.0**53
_LN_MAX = math.log(_MAX_NORMAL)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_PI2_12 = math.pi**2 / 12.0  # zeta(2)/2


def k_value(k) -> float:
    """Return k as a float after checking that it is finite and > 0.

    The one place the k rule's message is written.  The hot evaluators test
    0 < k < inf inline and call this only where that test fails, to raise.
    """
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise DomainError(f"k must be finite and > 0, got {k!r}")
    return k


def _is_pole(u: float) -> bool:
    # u = x/k on a pole of Gamma_k; every u below -2^52, -inf included, is one
    return u <= 0.0 and math.modf(u)[0] == 0.0


def _check_pole(k: float, x: float):
    # for x <= POLE_GUARD k; callers take x > POLE_GUARD k, never a pole, themselves
    u = x / k
    if not _is_pole(u):
        u = round(u)
        if u > 0 or abs(x - u * k) > POLE_GUARD * k:
            return
    raise PoleError(f"Gamma_k pole at x = {u * k} (k={k}, x={x})")


def _exp_k(log_value: float, what: str, k: float, x: float) -> float:
    """exp(log_value): beyond binary64 raises OverflowError, below it underflows to 0.0."""
    if not log_value <= _LN_MAX:
        raise _overflow_error(what, x, k)
    return math.exp(log_value)


def _ln_gamma_k(k: float, x: float) -> float:
    """ln |Gamma_k(x)| off the poles; +-inf beyond binary64.

    |x/k| < 2^-26: -ln|x| + (x/k)(ln k - gamma + (pi^2/12) x/k), whose
    O((x/k)^3) remainder is below rounding even where ln|x| vanishes.
    x/k >= 2^53: Stirling, (x/k - 1/2) ln x - x/k - (ln k)/2 + ln(2 pi)/2,
    with x (ln x - 1)/k in place of x/k where that overflows.
    """
    u = x / k
    if -_TINY_U < u < _TINY_U:
        return -math.log(abs(x)) + u * (math.log(k) - CONSTANTS.euler_gamma + _PI2_12 * u)
    if x < _STIRLING_U * k:
        return (u - 1.0) * math.log(k) + math.lgamma(u)
    ln_x = math.log(x)
    lead = u * (ln_x - 1.0) if u < math.inf else x * (ln_x - 1.0) / k
    return lead - 0.5 * (ln_x + math.log(k)) + _HALF_LN_2PI


def ln_gamma_k(k, x: float) -> float:
    """ln Gamma_k(x) for x > 0; a value beyond binary64 raises OverflowError.

    A series where x/k < 2^-26, and Stirling's form where x/k >= 2^53.
    """
    if not (0.0 < (k := float(k)) < math.inf and 0.0 < (x := float(x)) < math.inf):
        k_value(k)
        _positive("ln_gamma_k", x)
    value = _ln_gamma_k(k, x)
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error("ln Gamma_k", x, k)
    return value


def gamma_k(k, x: float) -> float:
    """Gamma_k(x) = k^(x/k - 1) Gamma(x/k) away from the poles 0, -k, -2k, ...

    x < 0 uses k^(x/k - 1) / rgamma(x/k) where that is a normal number,
    otherwise the log form.  A value beyond binary64 raises OverflowError;
    one below it underflows to 0.0.
    """
    if not (0.0 < (k := float(k)) < math.inf and -math.inf < (x := float(x)) < math.inf):
        k_value(k)
        _require_finite("x", x)
    if x > POLE_GUARD * k:
        return _exp_k(_ln_gamma_k(k, x), "Gamma_k", k, x)
    _check_pole(k, x)  # raises for every x in (0, POLE_GUARD k] too
    u = x / k  # finite: _check_pole raised where x/k overflows to -inf
    try:
        value = k ** (u - 1.0) / _rgamma(u)
    except OverflowError:
        value = 0.0
    if _MIN_NORMAL <= abs(value) < math.inf:
        return value
    # Gamma(u) has the sign of sin(pi u) for u < 0
    return math.copysign(_exp_k(_ln_gamma_k(k, x), "Gamma_k", k, x), _sinpi(u))


def rgamma_k(k, x: float) -> float:
    """1/Gamma_k(x) as a total function: exactly 0.0 at the poles.

    k^(1 - x/k) rgamma(x/k) where that is a normal number, otherwise the
    log form; beyond and below binary64 as :func:`gamma_k`.
    """
    if not (0.0 < (k := float(k)) < math.inf and -math.inf < (x := float(x)) < math.inf):
        k_value(k)
        _require_finite("x", x)
    u = x / k
    if _is_pole(u):  # u = -inf included
        return 0.0
    try:
        value = k ** (1.0 - u) * _rgamma(u) if u < math.inf else 0.0
    except OverflowError:
        value = 0.0
    if _MIN_NORMAL <= abs(value) < math.inf:
        return value
    sign = 1.0 if u > 0.0 else _sinpi(u)
    return math.copysign(_exp_k(-_ln_gamma_k(k, x), "1/Gamma_k", k, x), sign)


def psi_k(k, x: float) -> float:
    """k-digamma psi_k(x) = (ln k + psi(x/k)) / k for x > 0.

    Where u = x/k >= 10 it is (ln x + (psi(u) - ln u)) / k, with
    psi(u) - ln u = -1/(2u) - sum B_2n/(2n u^2n) taken straight from the
    asymptotic series (the Horner form of :func:`scalar._digamma`), so ln k
    and psi(u) never cancel (psi_k(1e-300, 1) is -0.5), and where x/k
    overflows the value is ln x / k.  A value beyond binary64 raises
    OverflowError.
    """
    if not (0.0 < (k := float(k)) < math.inf and 0.0 < (x := float(x)) < math.inf):
        k_value(k)
        _positive("psi_k", x)
    u = x / k
    if u >= 10.0:  # u = +inf included
        v = 1.0 / (u * u)
        p = ((((((_T7 * v + _T6) * v + _T5) * v + _T4) * v + _T3) * v + _T2) * v + _T1) * v
        value = (math.log(x) + (-0.5 / u - p)) / k
    elif u >= _MIN_NORMAL:
        value = (math.log(k) + _digamma(u)) / k
    else:
        # digamma(u) would form -1/u beyond binary64; psi(u) = psi(u + 1) - 1/u
        value = (math.log(k) + _digamma(u + 1.0)) / k - 1.0 / x
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error("psi_k", x, k)
    return value


def psi_k_m(k, m: int, x: float) -> float:
    """k-polygamma psi_k^(m)(x) = psi^(m)(x/k) / k^(m+1), 1 <= m <= 150, x > 0.

    One kernel, :func:`scalar._polygamma_k`, works in x and k: it tests the
    far field x >= (10 + m) k first, which needs no shift, sums
    (x + ik)^-(m+1) below (10 + m) k, smallest term first, and closes with
    the Bernoulli tail P(k/y) / (k y^m), whose number of terms a per-order
    plan gives for each binade of y/k, so neither x/k nor k^(m+1) is
    rounded into the result.  At k = 1 it is :func:`scalar.polygamma` bit
    for bit.  Where a partial result leaves the normal range the same
    kernel runs at (k, x) 2^-e and the value is scaled back by
    2^-e(m+1) (:func:`scalar._polygamma_edge`).  For m <= 12 and x/k in
    [1e-8, 1e15] the error is at most 6e-16 relative against mpmath at
    every k where the value is normal: the sums at (k, x) 2^-e are those
    at (k, x) scaled exactly, so k in [0.01, 10] covers every binade.
    Values below binary64 underflow to 0.0; values beyond it raise
    OverflowError.
    """
    if not (0.0 < (k := float(k)) < math.inf and type(m) is int and m >= 1
            and 0.0 < (x := float(x)) < math.inf):
        k_value(k)
        _check_int("psi_k_m", "m", m, 1)
        _positive("psi_k_m", x)
    value = _polygamma_k(m, k, x)
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error(f"psi_k^({m})", x, k)
    return value


