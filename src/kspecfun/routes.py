"""The cross-check routes: independent series, recursions and quadratures.

Every route here computes a value that an evaluator of ``scalar``,
``kcore``, ``beta`` or ``hadamard`` computes too, by a kernel of its own,
so the identity registry can play the two against each other.  The
module also holds the kernels that only these routes use: the zeta
family (a direct head closed by one Euler-Maclaurin tail), the Gauss
hypergeometric series with its Pfaff transformation, and the paired
alternating reciprocal sum.  No evaluator imports this module, and it
imports none of the evaluator kernels; ``recursion_47`` walks the
functional equation from ``hadamard_k`` and ``rgamma_k`` by design.
``import kspecfun`` does not load it; the package loads it on the first
access to one of its names.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConvergenceError, DomainError, PoleError
from .hadamard import hadamard_k
from .kcore import k_value, rgamma_k
from .oracles import Estimate, adaptive_quad
from .scalar import (_BERNOULLI, _EPS, _MAX_NORMAL, _MIN_NORMAL, CONSTANTS, _check_int, _check_tol,
                     _overflow_error, _positive, _require_finite)

__all__ = [
    "zeta_int",
    "gauss_2f1",
    "lerch_alt",
    "psi_k_series",
    "psi_k_m_series",
    "beta_k_series",
    "beta_k_integral",
    "beta_k_cosh_form",
    "beta_taylor_54",
    "beta_expansion_55",
    "recursion_47",
]

# B_2j/(2j)! for the Euler-Maclaurin tail
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, start=1))


def _em_power_tail(a: float, k: float, p: float, n0: int) -> tuple[float, float]:
    """sum_{n >= n0} (a + n k)^(-p) for p > 1, by Euler-Maclaurin (DLMF 2.10.1).

    Bernoulli terms are added while they decrease; the returned bound is
    the magnitude of the last term added.  Where a + n0 k overflows the
    tail is below binary64 and (0.0, 0.0) is returned.
    """
    u = a + n0 * k
    if u == math.inf:
        return 0.0, 0.0
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
    _check_int("zeta_int", "s", s, 2)
    return 1.0 + _zeta_minus_1(s)


def zeta_minus_1(s: int) -> float:
    """zeta(s) - 1 for integer s >= 2, without forming zeta(s).

    Sums n^(-s) from n = 2 until a term drops below 1e-17 of the total, or
    else closes the sum at n = 20 with the Euler-Maclaurin tail.  Relative
    error <= 1e-14 against mpmath for 2 <= s <= 300.
    """
    _check_int("zeta_minus_1", "s", s, 2)
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
    # term n + 1 is term n times (a + n)(b + n) z / ((c + n)(1 + n)); each
    # ratio is formed once, tested after term n and multiplied into term n + 1
    ratio = a * b / c * z
    while n < _2F1_MAX_TERMS:
        term *= ratio
        total += term
        n += 1
        if term == 0.0:
            return total, 0.0, n
        ratio = (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        nxt = abs(ratio)
        if nxt < 0.95 and abs(term) <= 0.25 * tol * max(1.0, abs(total)):
            r = max(nxt, abs(z))
            err = abs(term) * r / (1.0 - r)
            return total, err, n
    raise ConvergenceError(
        f"2F1 series did not converge within {_2F1_MAX_TERMS} terms",
        value=total,
        terms_used=n,
    )


def gauss_2f1(a, b, c, z, tol=1e-13) -> Estimate:
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
        return Estimate(1.0, 0.0, 0)
    if z >= -0.5:
        value, err, n = _2f1_series(a, b, c, z, tol)
    else:
        w = z / (z - 1.0)
        pref = (1.0 - z) ** (-b)
        value, err, n = _2f1_series(c - a, b, c, w, tol / max(pref, 1.0))
        value *= pref
        err *= pref
    err += 4.0 * _EPS * abs(value)
    return Estimate(value, err, n)


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


def lerch_alt(a: float) -> Estimate:
    """Lerch sum Phi(-1, 1, a) = sum_{n>=0} (-1)^n / (n + a).

    For a > 0 consecutive terms are summed in pairs and the smooth tail
    is taken from the Laplace-representation expansion; for negative
    non-integer a the finitely many negative-denominator terms are added
    explicitly first.  Where the value is beyond binary64 (a within about
    5.6e-309 of 0) it raises OverflowError.
    """
    a = _require_finite("a", a)
    if a <= 0.0 and a == math.floor(a):
        raise PoleError(f"Phi(-1, 1, a) has poles at nonpositive integers, got a={a}")
    head = 0.0
    n0 = 0
    if a <= 0.0:
        n0 = int(math.ceil(-a))  # n0 + a is exact or at least 1/2, never <= 0
        for n in range(n0):
            head += (-1.0) ** n / (n + a)
    tail, err, used = _alt_recip_sum(a + n0)
    value = head + (tail if n0 % 2 == 0 else -tail)
    if abs(value) > _MAX_NORMAL:  # 1/a is beyond binary64
        raise _overflow_error("lerch_alt", a)
    # each part scaled first: |head| + |value| can be beyond binary64 where value is not
    err += 4.0 * _EPS * abs(head) + 4.0 * _EPS * abs(value)
    return Estimate(value, err, n0 + used)


def psi_k_series(k, x: float) -> Estimate:
    """Direct series route for psi_k, independent of :func:`psi_k`.

    Sums (ln k - gamma)/k - 1/x + sum_{n>=1} x/(nk(nk+x)) in one pass, the
    terms n < 128 directly and the rest by an Euler-Maclaurin closed-form
    tail, so the route never touches the digamma implementation.  Its error
    estimate is the last tail term plus 8 eps times the magnitude of every
    part; above 1e-12 max(1, |value|) (near a zero of psi_k at small k, where
    the parts cancel) it raises ConvergenceError.  Where (nk)(nk + x) leaves
    the normal range for some n <= 128 it raises DomainError.
    """
    k = k_value(k)
    x = _positive("psi_k_series", x)
    n_direct = 128
    u = n_direct * k
    if not (_MIN_NORMAL <= k * (k + x) and u * (u + x) <= _MAX_NORMAL):
        raise DomainError(f"psi_k_series requires (nk)(nk + x) within the normal range for "
                          f"1 <= n <= {n_direct}, got k={k}, x={x}")
    s = 0.0
    for n in range(n_direct - 1, 0, -1):
        nk = n * k
        s += x / (nk * (nk + x))
    # tail of sum [1/(nk) - 1/(nk+x)] from n = n_direct; the derivative
    # terms in n_direct and n_direct + x/k, so that no power of k is formed
    integral = math.log1p(x / u) / k
    g0 = 1.0 / u - 1.0 / (u + x)
    nv = n_direct + x / k
    g1 = -(n_direct**-2 - nv**-2) / k
    g3 = -6.0 * (n_direct**-4 - nv**-4) / k
    g5 = -120.0 * (n_direct**-6 - nv**-6) / k
    tail = integral + 0.5 * g0 - g1 / 12.0 + g3 / 720.0 - g5 / 30240.0
    lead = (math.log(k) - CONSTANTS.euler_gamma) / k
    value = lead - 1.0 / x + s + tail
    err = abs(g5) / 30240.0 + 8.0 * _EPS * (abs(lead) + 1.0 / x + abs(s) + abs(tail))
    # an inf part makes the target inf, which no estimate may meet
    if not err <= 1e-12 * max(1.0, abs(value)) < math.inf:
        raise ConvergenceError(f"psi_k_series error {err:.3e} exceeds 1e-12 max(1, |value|)",
                               value=value, error_estimate=err, terms_used=n_direct)
    return Estimate(value, err, n_direct)


def psi_k_m_series(k, m: int, x: float) -> Estimate:
    """Direct series route for psi_k^(m) (cross-check oracle).

    Evaluates (-1)^(m+1) m! sum_{n>=0} (nk + x)^-(m+1) with an
    Euler-Maclaurin tail; independent of the polygamma kernel.  Raises
    ConvergenceError where the error estimate exceeds
    1e-11 max(1, |value|), and OverflowError where the value is beyond
    binary64.
    """
    k = k_value(k)
    _check_int("psi_k_m_series", "m", m, 1)
    x = _positive("psi_k_m_series", x)
    mf = float(math.factorial(m))
    sign = 1.0 if m % 2 == 1 else -1.0
    # with the tail starting at x + 64k the Euler-Maclaurin bound stays
    # below the rounding term for every m whose m! is finite
    n_direct = 64
    s = 0.0
    try:
        for n in range(n_direct - 1, -1, -1):
            s += (n * k + x) ** (-(m + 1))
        tail, tail_err = _em_power_tail(x, k, m + 1.0, n_direct)
    except OverflowError:  # one term alone is beyond binary64
        raise _overflow_error(f"psi_k^({m})", x, k) from None
    value = sign * mf * (s + tail)
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error(f"psi_k^({m})", x, k)
    err = mf * tail_err + 8.0 * _EPS * abs(value)
    # the target is absolute for O(1) values and relative for the huge
    # magnitudes reached near x = 0 at high m
    if err > 1e-11 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"psi_k_m_series error {err:.3e} exceeds 1e-11",
            value=value,
            error_estimate=err,
            terms_used=n_direct,
        )
    return Estimate(value, err, n_direct)


def beta_k_series(k, x: float) -> Estimate:
    """Alternating-series route sum_{n>=0} (-1)^n / (x + nk).

    Paired-term summation with the Laplace-representation tail; never
    touches the digamma reduction, so it serves as an independent
    cross-check for :func:`beta_k`.  An x/k below the normal range raises
    DomainError, and a value beyond binary64 OverflowError.
    """
    k = k_value(k)
    x = _positive("beta_k_series", x)
    u = x / k
    if u < _MIN_NORMAL:
        raise DomainError(f"beta_k_series requires x/k >= 2^-1022, got x={x}, k={k}")
    raw, raw_err, used = _alt_recip_sum(u)
    value = raw / k
    if value == math.inf:
        raise _overflow_error("beta_k_series", x, k)
    err = raw_err / k + 4.0 * _EPS * abs(value)
    return Estimate(value, err, used)


def beta_k_integral(k, x: float) -> Estimate:
    """Integral route int_0^1 t^(x-1) / (1 + t^k) dt, by quadrature to 1e-9.

    For x < 1 the endpoint singularity is removed exactly by the
    substitution t = s^(1/x), which turns the integrand into
    (1/x) / (1 + s^(k/x)).  Where 1/x is beyond binary64 it raises
    OverflowError: beta_k(x) > 1/(2x) is then at least 9e307.
    """
    k = k_value(k)
    x = _positive("beta_k_integral", x)
    if x < 1.0:
        p = k / x
        inv = 1.0 / x
        if inv == math.inf:
            raise _overflow_error("beta_k_integral", x, k)
        return adaptive_quad(lambda s: inv / (1.0 + s**p), 0.0, 1.0, 1e-9)
    return adaptive_quad(lambda t: t ** (x - 1.0) / (1.0 + t**k), 0.0, 1.0, 1e-9)


def beta_k_cosh_form(k, x: float) -> Estimate:
    """Laplace route int_0^inf e^(-xt) / cosh(kt) dt = beta_k((x + k)/2).

    Valid for x > -k; the integral is truncated at T with
    e^(-(x+k)T) < 1e-10, integrated to 1e-9, and the (bounded) remainder
    is folded into the error estimate.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if x <= -k:
        raise DomainError(f"beta_k_cosh_form requires x > -k, got x={x}, k={k}")
    rate = x + k
    T = math.log(1e10) / rate

    def integrand(t):
        # e^(-xt)/cosh(kt) = 2 e^(-(x+k)t) / (1 + e^(-2kt)), overflow-safe
        return 2.0 * math.exp(-rate * t) / (1.0 + math.exp(-2.0 * k * t))

    q = adaptive_quad(integrand, 0.0, T, 1e-9)
    # analytic tail with 1/cosh ~ 2 e^(-kt); the neglected part decays
    # faster by e^(-2kT)
    tail = 2.0 * math.exp(-rate * T) / rate
    tail_err = 2.0 * math.exp(-(rate + 2.0 * k) * T) / (rate + 2.0 * k)
    return Estimate(q.value + tail, q.error_estimate + tail_err, q.terms_used)


@lru_cache(maxsize=8)
def _taylor_coeffs(order: int) -> tuple[float, ...]:
    # beta(1 + u) = sum_m a_m u^m for |u| < 1: a_0 = ln 2, a_m = (-1)^m (1 - 2^-m) zeta(m + 1)
    return (CONSTANTS.ln2,
            *((-1.0) ** m * (1.0 - 0.5**m) * zeta_int(m + 1) for m in range(1, order + 1)))


@lru_cache(maxsize=None)
def _expansion_coeffs() -> tuple[float, ...]:
    # the k- and x-free weights (-1)^(n+1) zeta(n + 1)/2 of beta_expansion_55, n = 1..560
    return tuple((0.5 if n % 2 else -0.5) * zeta_int(n + 1) for n in range(1, 561))


def beta_taylor_54(k, x: float) -> Estimate:
    """Expansion of beta_k(x + k) around the center k, for |x| < k.

    Sums beta(1 + u), u = x/k, to order 240 and divides by k once.  For
    0 < x < k the terms alternate with decreasing magnitude, so the first
    omitted term bounds the truncation error; for negative x the series
    is positive-term and the geometric bound |t| r/(1-r) applies.  The
    reported estimate covers both.  A value beyond binary64 raises
    OverflowError.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if abs(x) >= k:
        raise DomainError(f"beta_taylor_54 requires |x| < k, got x={x}, k={k}")
    u = x / k
    total = 0.0
    up = 1.0
    for c in _taylor_coeffs(240):
        total += c * up
        up *= u
    # first omitted term |u|^241, inflated by the geometric factor; its
    # coefficient (1 - 2^-241) zeta(242) rounds to 1
    err = abs(u) ** 241 / (1.0 - abs(u)) + 8.0 * _EPS * abs(total)
    value = total / k
    if math.isinf(value):
        raise _overflow_error("beta_taylor_54", x, k)
    return Estimate(value, err / k, 241)


def beta_expansion_55(k, x: float) -> Estimate:
    """Expansion of beta_k around 0: 1/x - 1/(x+k) + zeta-weighted double sum.

    Sums beta(u), u = x/k, to n = 560 with the inner binomial sum taken
    exactly as the power difference ((u+1)/2)^n - (u/2)^n, and divides by
    k once.  Where the tail bound of that k-free sum exceeds 1e-9 it raises
    ConvergenceError.  The observed convergence region is 0 < x < k (outer
    ratio (u+1)/2), with x/k normal so that 1/u is finite.  A value beyond
    binary64 raises OverflowError.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    u = x / k
    if not (0.0 < x < k and u >= _MIN_NORMAL):
        raise DomainError(
            f"beta_expansion_55 requires 0 < x < k and x/k >= 2^-1022, got x={x}, k={k}")
    total = 1.0 / u - 1.0 / (u + 1.0)
    a = 0.5 * (u + 1.0)  # in (1/2, 1): geometric decay of the outer terms
    b = 0.5 * u
    ap = bp = 1.0
    for c in _expansion_coeffs():
        ap *= a
        bp *= b
        term = c * (ap - bp)
        total += term
    err = 2.0 * abs(term) * a / (1.0 - a) + 8.0 * _EPS * abs(total)
    value = total / k
    if not err <= 1e-9:
        raise ConvergenceError(
            f"beta_expansion_55 tail bound {err:.3e} exceeds 1e-09 after 560 terms",
            value=value, error_estimate=err / k, terms_used=560)
    if math.isinf(value):
        raise _overflow_error("beta_expansion_55", x, k)
    return Estimate(value, err / k, 560)


def recursion_47(k, x: float, n: int) -> float:
    """H_k(x + nk) by n explicit applications of the functional equation.

    This walk is the cross-check route for the O(1) far field of
    :func:`hadamard_k`.  Started from a base point x < k, it shares no
    far-field code with it.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    _check_int("recursion_47", "n", n, 1, 50)
    h = hadamard_k(k, x)
    y = x
    for _ in range(n):
        h = y * h + rgamma_k(k, k - y)
        y += k
        if not math.isfinite(h):
            raise OverflowError(f"recursion_47 overflow at argument {y}")
    return h
