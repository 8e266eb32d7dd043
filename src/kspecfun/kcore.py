"""The k-deformed gamma family: Gamma_k, psi_k and its derivatives.

Evaluation reduces everything to the classical functions through
Gamma_k(x) = k^(x/k - 1) Gamma(x/k) and psi_k(x) = (ln k + psi(x/k))/k,
with direct series routes kept alongside as cross-check oracles.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, PoleError
from .scalar import (
    _EPS,
    _MAX_NORMAL,
    _MIN_NORMAL,
    CONSTANTS,
    SeriesValue,
    _check_tol,
    _em_power_tail,
    _polygamma_scaled,
    _positive,
    _require_finite,
    digamma,
    ln_gamma,
    polygamma,
    rgamma,
)

__all__ = [
    "gamma_k",
    "ln_gamma_k",
    "rgamma_k",
    "psi_k",
    "psi_k_series",
    "psi_k_m",
    "psi_k_m_series",
    "psi_k_duplication_rhs",
]

POLE_GUARD = 1e-8  # relative (in units of k) pole exclusion radius
_STIRLING_U = 2.0**53
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def k_value(k) -> float:
    """Return k as a float after checking that it is finite and > 0."""
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise DomainError(f"k must be finite and > 0, got {k!r}")
    return k


def _check_pole(k: float, x: float):
    if x > POLE_GUARD * k:
        return
    nearest = round(x / k)
    if nearest <= 0 and abs(x - nearest * k) <= POLE_GUARD * k:
        raise PoleError(f"Gamma_k pole at x = {nearest * k} (k={k}, x={x})")


def _ln_gamma_k_stirling(k: float, x: float) -> float:
    # ln Gamma_k(x) for x/k >= 2^53, where the O(k/x) Stirling terms are
    # below rounding: (x/k - 1/2) ln x - x/k - (ln k)/2 + ln(2 pi)/2, with
    # x (ln x - 1)/k in place of x/k where that overflows; +-inf beyond
    # binary64
    ln_x = math.log(x)
    u = x / k
    lead = u * (ln_x - 1.0) if u < math.inf else x * (ln_x - 1.0) / k
    return lead - 0.5 * (ln_x + math.log(k)) + _HALF_LN_2PI


def ln_gamma_k(k, x: float) -> float:
    """ln Gamma_k(x) for x > 0.

    For x/k >= 2^53 the Stirling form is used, without forming x/k where
    that overflows; where x/k is below the normal range,
    -ln x + (x/k)(ln k - gamma) is exact to rounding.  A value beyond
    binary64 raises OverflowError.
    """
    k = k_value(k)
    x = _positive("ln_gamma_k", x)
    u = x / k
    if u < _MIN_NORMAL:
        # ln Gamma(u) = -ln u - gamma u + O(u^2): the ln k terms cancel
        return -math.log(x) + x * ((math.log(k) - CONSTANTS.euler_gamma) / k)
    if x < _STIRLING_U * k:
        return (u - 1.0) * math.log(k) + ln_gamma(u)
    value = _ln_gamma_k_stirling(k, x)
    if abs(value) > _MAX_NORMAL:
        raise OverflowError(f"ln Gamma_k({x}) overflows binary64 (k={k})")
    return value


def gamma_k(k, x: float) -> float:
    """Gamma_k(x) = k^(x/k - 1) Gamma(x/k) away from the poles 0, -k, -2k, ...

    Positive arguments go through the log form; nonpositive non-pole
    arguments use the reciprocal-gamma reflection.  Overflow is reported
    as OverflowError.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    _check_pole(k, x)
    if x > 0.0:
        try:
            return math.exp(ln_gamma_k(k, x))
        except OverflowError:
            if x < _STIRLING_U * k or _ln_gamma_k_stirling(k, x) > 0.0:
                raise OverflowError(f"Gamma_k({x}) overflows binary64 (k={k})") from None
            return 0.0  # ln Gamma_k(x) is below -_MAX_NORMAL
    rg = rgamma(x / k)
    if rg == 0.0:
        raise PoleError(f"Gamma_k pole at x = {x} (k={k})")
    value = k ** (x / k - 1.0) / rg
    if not math.isfinite(value):
        raise OverflowError(f"Gamma_k({x}) overflows binary64 (k={k})")
    return value


def rgamma_k(k, x: float) -> float:
    """1/Gamma_k(x) as a total function: exactly 0.0 at the poles."""
    k = k_value(k)
    x = _require_finite("x", x)
    return k ** (1.0 - x / k) * rgamma(x / k)


def psi_k(k, x: float) -> float:
    """k-digamma psi_k(x) = (ln k + psi(x/k)) / k for x > 0.

    A value beyond binary64 raises OverflowError.
    """
    k = k_value(k)
    x = _positive("psi_k", x)
    u = x / k
    if u < _MIN_NORMAL:
        # digamma(u) would form -1/u beyond binary64; psi(u) = psi(u + 1) - 1/u
        value = (math.log(k) + digamma(u + 1.0)) / k - 1.0 / x
    else:
        value = (math.log(k) + digamma(u)) / k
    if abs(value) > _MAX_NORMAL:
        raise OverflowError(f"psi_k({x}) overflows binary64 (k={k})")
    return value


def psi_k_series(k, x: float, tol: float = 1e-12) -> SeriesValue:
    """Direct series route for psi_k, independent of :func:`psi_k`.

    Sums (ln k - gamma)/k - 1/x + sum_{n>=1} x/(nk(nk+x)) with an
    Euler-Maclaurin closed-form tail, so the route never touches the
    digamma implementation.  Exists as a cross-check oracle.
    """
    k = k_value(k)
    x = _positive("psi_k_series", x)
    _check_tol(tol)
    n_direct = 128
    while True:
        s = 0.0
        for n in range(n_direct - 1, 0, -1):
            nk = n * k
            s += x / (nk * (nk + x))
        u = n_direct * k
        # tail of sum [1/(nk) - 1/(nk+x)] from n = n_direct
        integral = math.log1p(x / u) / k
        g0 = 1.0 / u - 1.0 / (u + x)
        g1 = -k * (1.0 / u**2 - 1.0 / (u + x) ** 2)
        g3 = -6.0 * k**3 * (1.0 / u**4 - 1.0 / (u + x) ** 4)
        g5 = -120.0 * k**5 * (1.0 / u**6 - 1.0 / (u + x) ** 6)
        tail = integral + 0.5 * g0 - g1 / 12.0 + g3 / 720.0 - g5 / 30240.0
        err = abs(g5) / 30240.0 + 8.0 * _EPS * (abs(s) + abs(tail) + 1.0 / x)
        if err <= tol or n_direct >= 1 << 16:
            value = (math.log(k) - CONSTANTS.euler_gamma) / k - 1.0 / x + s + tail
            if err > tol:
                raise ConvergenceError(
                    f"psi_k_series stalled at error {err:.3e} for tol {tol:.3e}",
                    value=value,
                    error_estimate=err,
                    terms_used=n_direct,
                )
            return SeriesValue(value, err, n_direct, True)
        n_direct *= 2


def psi_k_m(k, m: int, x: float) -> float:
    """k-polygamma psi_k^(m)(x) = psi^(m)(x/k) / k^(m+1), 1 <= m <= 150, x > 0.

    When x/k, psi^(m)(x/k) or k^(m+1) leaves the normal binary64 range,
    every power is split into mantissa and exponent instead
    (:func:`scalar._polygamma_scaled`).  Values below binary64 underflow
    to 0.0; values beyond it raise OverflowError.
    """
    k = k_value(k)
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"psi_k_m requires integer m >= 1, got {m!r}")
    x = _positive("psi_k_m", x)
    u = x / k
    if _MIN_NORMAL <= u <= _MAX_NORMAL:
        try:
            p = polygamma(m, u)
            kp = k ** (m + 1)
        except OverflowError:
            pass
        else:
            if abs(p) >= _MIN_NORMAL and kp >= _MIN_NORMAL:
                value = p / kp
                if abs(value) <= _MAX_NORMAL:
                    return value
    value = _polygamma_scaled(m, k, x, u)
    if abs(value) > _MAX_NORMAL:
        raise OverflowError(f"psi_k^({m})({x}) overflows binary64 (k={k})")
    return value


def psi_k_m_series(k, m: int, x: float, tol: float = 1e-11) -> SeriesValue:
    """Direct series route for psi_k^(m) (cross-check oracle).

    Evaluates (-1)^(m+1) m! sum_{n>=0} (nk + x)^-(m+1) with an
    Euler-Maclaurin tail; independent of the polygamma implementation.
    """
    k = k_value(k)
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"psi_k_m_series requires integer m >= 1, got {m!r}")
    x = _positive("psi_k_m_series", x)
    _check_tol(tol)
    mf = float(math.factorial(m))
    sign = 1.0 if m % 2 == 1 else -1.0
    # with the tail starting at x + 64k the Euler-Maclaurin bound stays
    # below the rounding term for every m whose m! is finite
    n_direct = 64
    s = 0.0
    for n in range(n_direct - 1, -1, -1):
        s += (n * k + x) ** (-(m + 1))
    tail, tail_err = _em_power_tail(x, k, m + 1.0, n_direct)
    value = sign * mf * (s + tail)
    err = mf * tail_err + 8.0 * _EPS * abs(value)
    # tolerance is absolute for O(1) values and relative for the huge
    # magnitudes reached near x = 0 at high m
    if err > tol * max(1.0, abs(value)):
        raise ConvergenceError(
            f"psi_k_m_series error {err:.3e} exceeds tol {tol:.3e}",
            value=value,
            error_estimate=err,
            terms_used=n_direct,
        )
    return SeriesValue(value, err, n_direct, True)


def psi_k_duplication_rhs(k, x: float) -> float:
    """Right side of the k-duplication formula: 2 psi_k(2kx) - psi_k(kx) - 2 ln2 / k.

    The registry pairs it against psi_k(kx + k/2).
    """
    k = k_value(k)
    x = _positive("psi_k_duplication_rhs", x)
    return 2.0 * psi_k(k, 2.0 * k * x) - psi_k(k, k * x) - 2.0 * CONSTANTS.ln2 / k
