"""The k-deformed gamma family: Gamma_k, psi_k and its derivatives.

Evaluation reduces everything to the classical functions through
Gamma_k(x) = k^(x/k - 1) Gamma(x/k) and psi_k(x) = (ln k + psi(x/k))/k.
:func:`_gamma_k_pow` forms c Gamma_k(x)^(+-1) for the Gamma_k family and H_k.
The classical functions are the k-functions at k = 1: 1/Gamma,
:func:`rgamma`, is :func:`rgamma_k`; psi, :func:`digamma`, is :func:`psi_k`,
which holds the one psi shift and tail; psi^(m), :func:`polygamma`, is
:func:`psi_k_m`.  :func:`lerch_one_diff`, the digamma difference of THM4.4,
is two calls of :func:`psi_k` at k = 1.  The direct series routes that
cross-check psi_k and psi_k^(m) live in :mod:`kspecfun.routes`.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError
from .scalar import (
    _LN_MAX,
    _MAX_NORMAL,
    _MIN_NORMAL,
    CONSTANTS,
    _check_int,
    _T1, _T2, _T3, _T4, _T5, _T6, _T7,
    _overflow_error,
    _polygamma_k,
    _positive,
    _require_finite,
    _sinpi,
)

__all__ = [
    "gamma_k",
    "ln_gamma_k",
    "rgamma_k",
    "rgamma",
    "psi_k",
    "digamma",
    "lerch_one_diff",
    "psi_k_m",
    "polygamma",
]

POLE_GUARD = 1e-8  # relative (in units of k) pole exclusion radius
_TINY_U = 2.0**-26
_STIRLING_U = 2.0**53
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


def _gamma_k_pow(k: float, x: float, p: int, c: float, what: str, at: float) -> float:
    """c Gamma_k(x)^p for p = 1 or -1, x off the poles and a finite nonzero c.

    The product c k^(u-1) Gamma(u), or c over k^(u-1) Gamma(u), with u = x/k,
    wherever |u| < 171 and each factor, their product and the result are
    normal numbers.  For u in (-171.6, -170), where libm's Gamma(u) can be
    subnormal, the same with 1/Gamma_k(x) = (sin(pi u)/pi) (Gamma(-u)/k^(u-1)) (-u)
    by reflection, Gamma(-u) divided by k^(u-1) before the product.
    Elsewhere exp(p ln|Gamma_k(x)| + ln|c|) with the sign of c Gamma(u).  A
    value beyond binary64 raises OverflowError for what(at); one below it
    underflows to 0.0.
    """
    u = x / k
    if -171.0 < u < 171.0:
        try:
            scale = k ** (u - 1.0)
            g = math.gamma(u)  # raises where u is below about 5.6e-309
        except OverflowError:
            scale = g = 0.0
        prod = scale * g
        if _MIN_NORMAL <= scale and _MIN_NORMAL <= abs(g) and _MIN_NORMAL <= abs(prod):
            value = prod * c if p > 0 else c / prod
            if _MIN_NORMAL <= abs(value) < math.inf:
                return value
    if -171.6 < u < -170.0:
        try:
            scale = k ** (u - 1.0)
        except OverflowError:
            scale = 0.0
        if _MIN_NORMAL <= scale:
            # Gamma(-u) < 1.6e308 over k^(u-1) first: 1/Gamma(u) may be beyond binary64
            r = _sinpi(u) / math.pi * (math.gamma(-u) / scale) * -u
            if _MIN_NORMAL <= abs(r) < math.inf:
                value = c * r if p < 0 else c / r
                if _MIN_NORMAL <= abs(value) < math.inf:
                    return value
    log_value = p * _ln_gamma_k(k, x) + math.log(abs(c))
    if not log_value <= _LN_MAX:
        raise _overflow_error(what, at, k)
    # Gamma(u) has the sign of sin(pi u) for u < 0
    value = math.copysign(math.exp(log_value), c)
    return -value if u < 0.0 and _sinpi(u) < 0.0 else value


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

    That product where it and both factors are normal numbers, otherwise
    exp(ln|Gamma_k(x)|) with the sign of Gamma(x/k): against mpmath at the
    binary64 x/k, a median error of about 1 ulp for k in [1e-3, 1e3] and x/k
    in (-169, 170), and up to about |ln Gamma_k(x)| ulp on the log form.
    A value beyond binary64 raises OverflowError; one below it underflows to 0.0.
    """
    if not (0.0 < (k := float(k)) < math.inf and -math.inf < (x := float(x)) < math.inf):
        k_value(k)
        _require_finite("x", x)
    if x <= POLE_GUARD * k:
        _check_pole(k, x)  # raises for every x in (0, POLE_GUARD k] too
    return _gamma_k_pow(k, x, 1, 1.0, "Gamma_k", x)


def rgamma_k(k, x: float) -> float:
    """1/Gamma_k(x) as a total function: exactly 0.0 at the poles.

    1/(k^(x/k - 1) Gamma(x/k)) where that and both factors are normal
    numbers, otherwise exp(-ln|Gamma_k(x)|) with the sign of Gamma(x/k);
    accuracy, and values beyond and below binary64, as :func:`gamma_k`.
    Where x > 0 and x/k underflows to 0.0 the value is x to rounding.
    """
    if not (0.0 < (k := float(k)) < math.inf and -math.inf < (x := float(x)) < math.inf):
        k_value(k)
        _require_finite("x", x)
    if _is_pole(x / k):  # x/k = -inf included; 0.0 is a pole only for x <= 0
        return x if x > 0.0 else 0.0
    return _gamma_k_pow(k, x, -1, 1.0, "1/Gamma_k", x)


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x) for every finite real x: :func:`rgamma_k` at k = 1.

    Exactly 0.0 at the poles x = 0, -1, -2, ...; 1/Gamma(x) from libm's
    Gamma(x) where it and the result are normal numbers, otherwise
    exp(-ln|Gamma(x)|) with the sign of Gamma(x).  A value below binary64
    (x above about 171.6) underflows to 0.0; one beyond it (x below
    about -171) raises OverflowError.
    """
    return rgamma_k(1.0, x)


def psi_k(k, x: float) -> float:
    """k-digamma psi_k(x) = (ln k + psi(x/k)) / k for x > 0.

    Where u = x/k >= 10 it is (ln x + (psi(u) - ln u)) / k, with
    psi(u) - ln u = -1/(2u) - sum B_2n/(2n u^2n) taken straight from the
    asymptotic series, so ln k and psi(u) never cancel (psi_k(1e-300, 1) is
    -0.5), and where x/k overflows the value is ln x / k.  Below 10, psi(u)
    is the same series at w = u + n >= 10 less the n reciprocals of the
    upward shift psi(w) = psi(w + 1) - 1/w; where u is below the normal
    range, -1/u would be beyond binary64, so the shift starts from u + 1
    and -1/x is added last.  A value beyond binary64 raises OverflowError.
    """
    if not (0.0 < (k := float(k)) < math.inf and 0.0 < (x := float(x)) < math.inf):
        k_value(k)
        _positive("psi_k", x)
    u = x / k
    if u >= 10.0:  # u = +inf included
        v = 1.0 / (u * u)
        p = ((((((_T7 * v + _T6) * v + _T5) * v + _T4) * v + _T3) * v + _T2) * v + _T1) * v
        value = (math.log(x) + (-0.5 / u - p)) / k
    else:
        w = u if u >= _MIN_NORMAL else u + 1.0
        acc = 0.0
        while w < 10.0:
            acc -= 1.0 / w
            w += 1.0
        v = 1.0 / (w * w)
        p = ((((((_T7 * v + _T6) * v + _T5) * v + _T4) * v + _T3) * v + _T2) * v + _T1) * v
        value = (math.log(k) + (acc + math.log(w) - 0.5 / w - p)) / k
        if u < _MIN_NORMAL:
            value -= 1.0 / x
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error("psi_k", x, k)
    return value


def digamma(x: float) -> float:
    """psi(x) for x > 0: :func:`psi_k` at k = 1.

    For 1e-8 <= x <= 1e30 the error is at most 2e-15 * max(1, |psi(x)|)
    against mpmath (the worst measured is 1.62e-15, near x = 0.8, where
    the shift sums cancel).  Below about 5.6e-309, where -1/x is beyond
    binary64, it raises OverflowError.
    """
    return psi_k(1.0, _positive("digamma", x))


def lerch_one_diff(a: float, b: float) -> float:
    """sum_{n>=0} [1/(n+a) - 1/(n+b)] = psi(b) - psi(a), for a, b > 0, by :func:`psi_k` at k = 1.

    Exactly 0.0 where a == b.  Where psi(a) or psi(b) is beyond binary64
    (a or b below about 5.6e-309) the n = 0 term is taken apart,
    psi(b + 1) - psi(a + 1) + (b - a)/(a b), and a value beyond binary64
    raises OverflowError.
    """
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"lerch_one_diff requires a, b > 0, got a={a}, b={b}")
    try:
        return psi_k(1.0, b) - psi_k(1.0, a)
    except OverflowError:
        pass
    value = psi_k(1.0, b + 1.0) - psi_k(1.0, a + 1.0) + (b - a) / a / b
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error(f"psi({b}) - psi", a)
    return value


def psi_k_m(k, m: int, x: float) -> float:
    """k-polygamma psi_k^(m)(x) = psi^(m)(x/k) / k^(m+1), 1 <= m <= 150, x > 0.

    One kernel, :func:`scalar._polygamma_k`, works in x and k: it tests the
    far field x >= (10 + m) k first, which needs no shift, sums
    (x + ik)^-(m+1) below (10 + m) k, smallest term first, and closes with
    the Bernoulli tail P(k/y) / (k y^m), with as many terms (at most ten,
    down to 2^-60 of the leading one) as a per-order plan gives the binade
    of y/k, so neither x/k nor k^(m+1) is rounded into the result;
    :func:`polygamma` is this function at k = 1.  Where a partial result
    leaves the normal range the same kernel runs at (k, x) 2^-e and the
    value is scaled back by 2^-e(m+1) (:func:`scalar._polygamma_edge`), so
    a large x gives a small or underflowing value, not an overflow.
    For m <= 12 and x/k in [1e-8, 1e15] the error is at most 1e-15
    relative against mpmath at every k where the value is normal (the
    worst measured is 8.3e-16, in the shift region, over 90,000 seeded
    points with k in [e^-5, e^5]): the sums at (k, x) 2^-e are those at
    (k, x) scaled exactly, so a range of k one binade wide covers every k.
    At k = 1 it is at most 1e-15 * max(|psi^(m)(x)|, 2.2e-308) for x in
    [1e-8, 1e300].  For 13 <= m <= 150 each rounded x + ik is raised to
    the power m + 1, and the error is at most (m + 1)/2 + 4 ulp for k in
    [e^-5, e^5] and x/k in [0.5, 10 + m] (the worst measured is 44 ulp,
    at m = 139 and x just below 1024).  Values below binary64 underflow to
    0.0; values beyond it raise OverflowError.
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


def polygamma(m: int, x: float) -> float:
    """psi^{(m)}(x) for integer 1 <= m <= 150 and x > 0: :func:`psi_k_m` at k = 1.

    Accuracy, and values beyond and below binary64, as :func:`psi_k_m`.
    """
    _check_int("polygamma", "m", m, 1)
    return psi_k_m(1.0, m, _positive("polygamma", x))
