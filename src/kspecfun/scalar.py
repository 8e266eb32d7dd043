"""Classical (k = 1) special functions that the k-deformed family reduces to.

Everything here is scalar binary64 arithmetic on top of ``math``.  The
log-gamma comes from libm; digamma and polygamma use the textbook
recurrence-shift plus Bernoulli asymptotic expansions; the zeta family
sums its head directly and closes it with one Euler-Maclaurin tail; the
Gauss hypergeometric series is summed directly, with the Pfaff
transformation restoring geometric convergence near z = -1.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "CONSTANTS",
    "Constants",
    "SeriesValue",
    "ln_gamma",
    "rgamma",
    "digamma",
    "polygamma",
    "zeta_int",
    "gauss_2f1",
    "lerch_alt",
    "lerch_one_diff",
]

_EPS = 2.220446049250313e-16
_MIN_NORMAL = sys.float_info.min
_MAX_NORMAL = sys.float_info.max


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


class SeriesValue(namedtuple("SeriesValue", "value error_estimate terms_used converged")):
    """Numeric result of an infinite-sum evaluation.

    ``converged`` is only set when ``error_estimate`` met the tolerance
    the caller asked for; the estimate itself is always a rigorous (if
    conservative) truncation bound plus a rounding allowance.
    """

    __slots__ = ()
    value: float
    error_estimate: float
    terms_used: int
    converged: bool

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if self.terms_used < 0:
            raise ValueError("terms_used must be >= 0")
        return self


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


def _check_tol(tol: float) -> None:
    if not tol > 0:  # also rejects nan
        raise DomainError("tol must be positive")


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (libm lgamma)."""
    return math.lgamma(_positive("ln_gamma", x))


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


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x), defined for every finite real x.

    Returns exactly 0.0 at the poles x = 0, -1, -2, ...; for x <= 1/2
    the reflection sin(pi*x) * Gamma(1-x) / pi is used.
    """
    x = _require_finite("x", x)
    if x > 0.5:
        lg = math.lgamma(x)
        if lg > 709.0:
            return 0.0
        return math.exp(-lg)
    if x == math.floor(x):
        return 0.0
    s = _sinpi(x)
    lg = math.lgamma(1.0 - x)
    if lg < 700.0:
        return s * math.exp(lg) / math.pi
    t = lg + math.log(abs(s) / math.pi)
    if t > 709.0:
        return math.copysign(math.inf, s)
    return math.copysign(math.exp(t), s)


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

# Bernoulli numbers B_2 .. B_20, and B_2j/(2j)! for Euler-Maclaurin
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
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, start=1))


def digamma(x: float) -> float:
    """psi(x) for x > 0.

    Upward recurrence to x >= 10, then the Bernoulli asymptotic series
    ln x - 1/(2x) - sum B_{2n}/(2n x^{2n}).  For 1e-8 <= x <= 1e30 the
    error is at most 1e-15 * max(1, |psi(x)|) against mpmath.
    """
    x = _positive("digamma", x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    p = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        p = (p + c) * u
    return acc + math.log(x) - 0.5 / x - p


# Above order 150 the last Bernoulli coefficient overflows, so the cache
# below never holds more than 150 entries.
_POLYGAMMA_MAX_ORDER = 150


@lru_cache(maxsize=None)
def _polygamma_coeffs(m: int) -> tuple[float, float, tuple[float, ...]]:
    """(m!, (m-1)!, (B_2j (2j+m-1)!/(2j)! for j = 1..10)) for polygamma of order m."""
    if m > _POLYGAMMA_MAX_ORDER:
        raise DomainError(
            f"polygamma orders above {_POLYGAMMA_MAX_ORDER} are not supported, got {m}"
        )
    coeffs = tuple(
        b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
        for j, b2j in enumerate(_BERNOULLI, start=1)
    )
    return float(math.factorial(m)), float(math.factorial(m - 1)), coeffs


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


def _polygamma_asymptotic(m: int, v: float) -> float:
    """|psi^(m)(x)| x^m = (m-1)! + m! v/2 + sum_j c_j v^(2j) at v = 1/x <= 1/(10 + m)."""
    mf, fm1, coeffs = _polygamma_coeffs(m)
    s = fm1 + 0.5 * mf * v
    v2 = v * v
    w = v2
    for coeff in coeffs:
        s += coeff * w
        w *= v2
    return s


def _polygamma_scaled(m: int, k: float, x: float, u: float) -> float:
    """psi^(m)(u) / k^(m+1) for u = x/k, with every power split into mantissa and exponent.

    The shift and expansion of :func:`polygamma`, with the shifted
    arguments written k (u + i) and the unshifted ones as x, so neither u
    nor k^(m+1) need be a normal binary64 number (u may be 0.0 or inf).
    """
    mf = _polygamma_coeffs(m)[0]
    sign = 1.0 if m % 2 == 1 else -1.0
    threshold = 10.0 + m
    if u >= threshold:
        return sign * _times_powers(_polygamma_asymptotic(m, k / x), (k, -1), (x, -m))
    total = _times_powers(mf, (x, -(m + 1)))
    w = u + 1.0
    while w < threshold:
        total += _times_powers(mf, (k, -(m + 1)), (w, -(m + 1)))
        w += 1.0
    far = _times_powers(_polygamma_asymptotic(m, 1.0 / w), (k, -(m + 1)), (w, -m))
    return sign * (total + far)


def polygamma(m: int, x: float) -> float:
    """psi^{(m)}(x) for integer 1 <= m <= 150 and x > 0.

    Same strategy as :func:`digamma`: shift the argument upward, then
    apply the Bernoulli asymptotic expansion of the m-th derivative.
    Where a power of x would leave binary64 the same sums are taken with
    every power split into mantissa and exponent, so a large x gives a
    small or underflowing value, not an overflow.  For m <= 12 and
    1e-8 <= x <= 1e300 the error is at most
    1e-15 * max(|psi^(m)(x)|, 2.2e-308) against mpmath: values below the
    normal range underflow towards 0.0.  Raises OverflowError where
    |psi^(m)(x)| exceeds binary64.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"polygamma requires integer m >= 1, got {m!r}")
    x = _positive("polygamma", x)
    mf, fm1, coeffs = _polygamma_coeffs(m)
    sign = 1.0 if m % 2 == 1 else -1.0
    try:
        y = x
        shift = 0.0
        threshold = 10.0 + m
        while y < threshold:
            shift += mf / y ** (m + 1)
            y += 1.0
        core = fm1 / y**m + mf / (2.0 * y ** (m + 1))
        yp = y ** (m + 2)  # y^(2j + m) for j = 1, updated in the loop
        y2 = y * y
        for coeff in coeffs:
            core += coeff / yp
            yp *= y2
        value = sign * (core + shift)
    except (OverflowError, ZeroDivisionError):
        value = _polygamma_scaled(m, 1.0, x, x)
    if abs(value) > _MAX_NORMAL:
        raise OverflowError(f"psi^({m})({x}) overflows binary64")
    return value


def _em_power_tail(a: float, k: float, p: float, n0: int) -> tuple[float, float]:
    """sum_{n >= n0} (a + n k)^(-p) for p > 1, by Euler-Maclaurin (DLMF 2.10.1).

    Bernoulli terms are added while they decrease; the returned bound is
    the magnitude of the last term added.
    """
    u = a + n0 * k
    upow = u ** (-p)
    bound = 0.5 * upow
    value = u * upow / (k * (p - 1.0)) + bound
    coef = p * k * upow / u  # (p)_(2j-1) k^(2j-1) u^(1-p-2j) at j = 1
    w = (k / u) ** 2
    for j, c in enumerate(_EM_COEFFS, start=1):
        term = c * coef
        if abs(term) >= bound:
            break
        value += term
        bound = abs(term)
        coef *= (p + 2 * j - 1) * (p + 2 * j) * w
    return value, bound


def _check_zeta_order(name: str, s) -> None:
    if isinstance(s, bool) or not isinstance(s, int) or s < 2:
        raise DomainError(f"{name} requires an integer s >= 2, got {s!r}")


# Holds every order the registry reaches (up to s = 561) with room to spare.
@lru_cache(maxsize=1024)
def _zeta_minus_1(s: int) -> float:
    total = 0.0
    for n in range(2, 20):
        t = float(n) ** (-s)
        total += t
        if t <= 1e-17 * total:
            return total
    return total + _em_power_tail(0.0, 1.0, s, 20)[0]


def zeta_int(s: int) -> float:
    """Riemann zeta at integer s >= 2: 1 + :func:`zeta_minus_1`.

    Relative error <= 1e-14 against mpmath for 2 <= s <= 300.
    """
    _check_zeta_order("zeta_int", s)
    return 1.0 + _zeta_minus_1(s)


def zeta_minus_1(s: int) -> float:
    """zeta(s) - 1 for integer s >= 2, without forming zeta(s).

    Sums n^(-s) from n = 2 until a term drops below 1e-17 of the total, or
    else closes the sum at n = 20 with the Euler-Maclaurin tail.  Relative
    error <= 1e-14 against mpmath for 2 <= s <= 300.
    """
    _check_zeta_order("zeta_minus_1", s)
    return _zeta_minus_1(s)


def zeta_tail(s: float, a: int) -> float:
    """Hurwitz tail sum_{i >= a} i^(-s) for real s > 1 and integer a >= 10.

    Relative error <= 1e-14 against mpmath for 2 <= s <= a/2 (checked at
    a = 10, 25, 50, 100).
    """
    if a < 10:
        raise DomainError("zeta_tail requires a >= 10")
    return _em_power_tail(0.0, 1.0, s, a)[0]


_2F1_MAX_TERMS = 10_000


def _2f1_series(a, b, c, z, tol):
    term = 1.0
    total = 1.0
    n = 0
    while n < _2F1_MAX_TERMS:
        ratio = (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        term *= ratio
        total += term
        n += 1
        if term == 0.0:
            return total, 0.0, n
        nxt = abs((a + n) * (b + n) / ((c + n) * (1.0 + n)) * z)
        if nxt < 0.95 and abs(term) <= 0.25 * tol * max(1.0, abs(total)):
            r = max(nxt, abs(z))
            err = abs(term) * r / (1.0 - r)
            return total, err, n
    raise ConvergenceError(
        f"2F1 series did not converge within {_2F1_MAX_TERMS} terms",
        value=total,
        terms_used=n,
    )


def gauss_2f1(a, b, c, z, tol=1e-13) -> SeriesValue:
    """Gauss hypergeometric 2F1(a, b; c; z) for z in [-1, 0].

    For z >= -0.5 the defining series is summed directly.  For z < -0.5
    the Pfaff transformation F(a,b;c;z) = (1-z)^(-b) F(c-a, b; c; z/(z-1))
    maps z into (1/3, 1/2], where the series converges geometrically; this
    is mandatory at z = -1, where the direct series may diverge termwise.
    """
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    c = _require_finite("c", c)
    z = _require_finite("z", z)
    _check_tol(tol)
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"2F1 parameter c must not be a nonpositive integer, got {c}")
    if not -1.0 <= z <= 0.0:
        raise DomainError(f"2F1 argument z must lie in [-1, 0], got {z}")
    if z == 0.0:
        return SeriesValue(1.0, 0.0, 0, True)
    if z >= -0.5:
        value, err, n = _2f1_series(a, b, c, z, tol)
    else:
        w = z / (z - 1.0)
        pref = (1.0 - z) ** (-b)
        value, err, n = _2f1_series(c - a, b, c, w, tol / max(pref, 1.0))
        value *= pref
        err *= pref
    err += 4.0 * _EPS * abs(value)
    return SeriesValue(value, err, n, err <= tol)


# Watson-lemma expansion of sum_{j>=0} (-1)^j/(y+j), from the Laplace
# representation int_0^inf e^(-yt)/(1+e^(-t)) dt.
def _alt_recip_asymptotic(y: float) -> tuple[float, float]:
    v = 1.0 / y
    v2 = v * v
    val = v * (0.5 + v * (0.25 + v2 * (-0.125 + v2 * (0.25 + v2 * (-1.0625 + v2 * 7.75)))))
    err = 86.375 * v**12
    return val, err


def _alt_recip_sum(b: float) -> tuple[float, float, int]:
    """sum_{j>=0} (-1)^j/(b+j) for b > 0: paired head + asymptotic tail."""
    n_head = 8 if b >= 42.0 else int(math.ceil(42.0 - b))
    if n_head % 2:
        n_head += 1
    head = 0.0
    for j in range(n_head - 2, -1, -2):
        head += 1.0 / ((b + j) * (b + j + 1.0))
    tail, tail_err = _alt_recip_asymptotic(b + n_head)
    value = head + tail
    err = tail_err + 8.0 * _EPS * abs(value)
    return value, err, n_head


def lerch_alt(a: float, tol: float = 1e-13) -> SeriesValue:
    """Lerch sum Phi(-1, 1, a) = sum_{n>=0} (-1)^n / (n + a).

    For a > 0 consecutive terms are summed in pairs and the smooth tail
    is taken from the Laplace-representation expansion; for negative
    non-integer a the finitely many negative-denominator terms are added
    explicitly first.
    """
    a = _require_finite("a", a)
    _check_tol(tol)
    if a <= 0.0 and a == math.floor(a):
        raise PoleError(f"Phi(-1, 1, a) has poles at nonpositive integers, got a={a}")
    head = 0.0
    n0 = 0
    if a <= 0.0:
        n0 = int(math.ceil(-a))
        if float(n0) + a <= 0.0:  # guard against ceil landing on the pole side
            n0 += 1
        for n in range(n0):
            head += (-1.0) ** n / (n + a)
    tail, err, used = _alt_recip_sum(a + n0)
    value = head + (tail if n0 % 2 == 0 else -tail)
    err += 4.0 * _EPS * (abs(head) + abs(value))
    return SeriesValue(value, err, n0 + used, err <= tol)


def lerch_one_diff(a: float, b: float) -> float:
    """sum_{n>=0} [1/(n+a) - 1/(n+b)] = psi(b) - psi(a), for a, b > 0."""
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"lerch_one_diff requires a, b > 0, got a={a}, b={b}")
    return digamma(b) - digamma(a)
