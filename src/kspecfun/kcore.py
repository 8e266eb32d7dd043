"""The k-deformed gamma family: Gamma_k, psi_k and its derivatives.

Evaluation reduces everything to the classical functions through
Gamma_k(x) = k^(x/k - 1) Gamma(x/k) and psi_k(x) = (ln k + psi(x/k))/k.
:func:`_gamma_k_pow` forms c Gamma_k(x)^(+-1) for the Gamma_k family and H_k.
The classical functions are the k-functions at k = 1: 1/Gamma,
:func:`rgamma`, is :func:`rgamma_k`; psi, :func:`digamma`, is :func:`psi_k`,
which holds the one psi shift and tail; psi^(m), :func:`polygamma`, is
:func:`psi_k_m`, which holds the one polygamma shift and its Bernoulli
tails, six terms in the far field and sixteen below it.
:func:`lerch_one_diff`, the digamma difference of THM4.4, is two calls of
:func:`psi_k` at k = 1.  The direct series routes that cross-check psi_k
and psi_k^(m) live in :mod:`kspecfun.routes`.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError
from .scalar import (
    _BERNOULLI,
    _LN_MAX,
    _MAX_NORMAL,
    _MIN_NORMAL,
    CONSTANTS,
    _check_int,
    _check_polygamma_order,
    _T1, _T2, _T3, _T4, _T5, _T6, _T7,
    _overflow_error,
    _positive,
    _require_finite,
    _sinpi,
    _times_powers,
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
# order m -> the plan of _polygamma_plan(m), filled on first use of m
_POLYGAMMA_PLANS: dict[int, tuple] = {}
# order m -> (T_m, cut, c_7, ..., c_16), read only below the far field
_POLYGAMMA_SHIFTS: dict[int, tuple] = {}
# B_22 .. B_34 as (numerator, denominator): B_22 .. B_32 give the coefficients
# c_11 .. c_16 of the tail below the far field, and B_34 the first term it drops
_BERNOULLI_22_34 = ((854513, 138), (-236364091, 2730), (8553103, 6), (-23749461029, 870),
                    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6))


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


def _least_root(num: int, den: int, p: int) -> int:
    """The least integer y with num < den y^p, for positive integers num and den.

    A float p-th root seeds y within one of the answer; the exact integer
    tests at y and at y - 1 then decide it.
    """
    y = math.ceil((num / den) ** (1.0 / p))
    while num >= den * y**p:
        y += 1
    while num < den * (y - 1) ** p:
        y -= 1
    return y


def _polygamma_plan(m: int) -> tuple:
    """Constants of the order-m polygamma kernel, built on first use of m.

    (sign, F_m, m!, (m-1)!, m!/2, m, -(m+1), c_1, ..., c_6), with sign
    (-1)^(m+1), the powers as floats and c_j = B_2j (2j+m-1)!/(2j)! the
    coefficients of the Bernoulli tail.  F_m, where the far field starts,
    is the least integer y with |c_7| y^-14 < 2^-58 (m-1)!: from there the
    first term that the six-term tail drops is below 2^-58 of its first
    (18, 22, 26, 29, 32, 35 at m = 1 .. 6, 54 at m = 12, 463 at m = 150).
    The plan is kept in ``_POLYGAMMA_PLANS``, which :func:`psi_k_m` reads
    first, so a warm order costs no call.  Below the far field the kernel
    also reads ``_POLYGAMMA_SHIFTS[m]`` = (T_m, cut, c_7, ..., c_16): T_m is
    the least integer y with |c_17| y^-34 < 2^-58 (m-1)!, so the first term
    that the sixteen-term tail drops is below 2^-58 of its first; below
    cut = 1/(2^(64/(m+1)) - 1) the second shift term is below 2^-64 of the
    first.  F_m and T_m are decided in exact integers by
    :func:`_least_root`.  c_11 .. c_16 are correctly rounded from the exact
    B_22 .. B_32.
    """
    _check_polygamma_order(m)
    mf = float(math.factorial(m))
    fm1 = math.factorial(m - 1)
    coeffs = tuple(b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
                   for j, b2j in enumerate(_BERNOULLI, start=1))
    # |c_7| y^-14 < 2^-58 (m-1)! as 7 (13+m)! 2^58 < 6 14! (m-1)! y^14, with B_14 = 7/6
    far = _least_root(7 * math.factorial(13 + m) << 58, 6 * math.factorial(14) * fm1, 14)
    plan = (1.0 if m % 2 == 1 else -1.0, float(far), mf, float(fm1), 0.5 * mf,
            float(m), -1.0 - m, *coeffs[:6])
    *near, (p34, q34) = _BERNOULLI_22_34
    # |c_17| y^-34 < 2^-58 (m-1)! as |p_34| (33+m)! 2^58 < q_34 34! (m-1)! y^34
    t = _least_root(abs(p34) * math.factorial(33 + m) << 58, q34 * math.factorial(34) * fm1, 34)
    _POLYGAMMA_SHIFTS[m] = (float(t), 1.0 / (2.0 ** (64 / (m + 1)) - 1.0), *coeffs[6:],
                            *(p * math.factorial(2 * j + m - 1) / (q * math.factorial(2 * j))
                              for j, (p, q) in enumerate(near, start=11)))
    _POLYGAMMA_PLANS[m] = plan
    return plan


def _polygamma_edge(m: int, k: float, x: float) -> float:
    """:func:`psi_k_m` where its sums leave the normal range, rerun at (k', x') = (k, x) 2^-e.

    psi_{ck}^(m)(cx) = c^-(m+1) psi_k^(m)(x) is exact for c = 2^-e while ck
    and cx stay normal.  From x/k >= T_m up, where the kernel takes no
    shift, e = floor((e_k + m e_x)/(m+1)) puts k' x'^m near 1; below it e
    centres log2 of m! n x'^-(m+1) (above m! times every partial sum) and of
    y'^-(m+1) (below the smallest term) in the exponent range, so the rerun
    returns a normal value and takes no edge.  Two cases fit no scale and
    are truncated: x/k >= 2^70 (inf included) gives (m-1)!/(k x^m), and
    x/k below the order's cut, where the second shift term is below 2^-64
    of the first and :func:`psi_k_m` comes here by the same test, gives
    m! x^-(m+1).  Returns +-inf where the value is beyond binary64.
    """
    sign, _, mf, fm1 = _POLYGAMMA_PLANS[m][:4]
    t, cut = _POLYGAMMA_SHIFTS[m][:2]
    u = x / k
    if u >= 2.0**70:
        return sign * _times_powers(fm1, (k, -1), (x, -m))
    if u >= t:
        e = (math.frexp(k)[1] + m * math.frexp(x)[1]) // (m + 1)
    elif u < cut:
        return sign * _times_powers(mf, (x, -(m + 1)))
    else:
        n = math.ceil(t - u)
        log_y = math.log2(k) + math.log2(u + n)
        e = round((math.log2(x) + log_y - math.log2(mf * n) / (m + 1)) / 2.0)
    value = psi_k_m(math.ldexp(k, -e), m, math.ldexp(x, -e))
    try:
        return math.ldexp(value, -e * (m + 1))
    except OverflowError:
        return math.copysign(math.inf, value)


def psi_k_m(k, m: int, x: float) -> float:
    """k-polygamma psi_k^(m)(x) = psi^(m)(x/k) / k^(m+1), 1 <= m <= 150, x > 0.

    Taken in x and k without forming psi^(m)(x/k) or k^(m+1), as
    (-1)^(m+1) [m! sum (x + ik)^-(m+1) + P(k/y) / (k y^m)] (DLMF 5.15.8
    scaled by k); :func:`polygamma` is this function at k = 1.  The far
    field x >= F_m k is tested first and takes no shift (y = x), with the
    six-term tail P(v) = (m-1)! + m! v/2 + sum_{j<=6} c_j v^(2j), one
    straight-line Horner form in v^2 over the c_j of the order's plan; F_m
    (18 at m = 1, 35 at m = 6, 54 at m = 12, 463 at m = 150) is the least
    integer from which the first term it drops is below 2^-58 of (m-1)!.
    Below it the shift runs only up to the order's T_m (8 at m = 1, 15 at
    m = 12, 89 at m = 150; never above 10 + m): over i = 0 .. n-1,
    n = ceil(T_m - x/k), with y = x + nk, and not at all from x/k >= T_m
    up to F_m.  Each x + ik is formed directly and the shift is summed from
    its smallest term.  There the tail has sixteen terms: c_7 .. c_16 are
    folded into c_6 by a ten-step Horner head ahead of the same six-step
    form, and the first term dropped is below 2^-58 of (m-1)!.  m! is
    applied once.  Where x/k overflows, or a shift term or k y^m leaves the
    normal range, :func:`_polygamma_edge` runs the same function at
    (k, x) 2^-e and scales the value back by 2^-e(m+1), so a large x gives
    a small or underflowing value, not an overflow; where x/k is below
    the order's cut, so that the second shift term is below 2^-64 of the
    first, the edge returns m! x^-(m+1).
    For m <= 12 and x/k in [1e-8, 1e15] the error is at most 1e-15
    relative against mpmath at every k where the value is normal (the
    worst measured is 6.5e-16, in the shift region, over 150,000 seeded
    points with k in [e^-5, e^5]): the sums at (k, x) 2^-e are those at
    (k, x) scaled exactly, so a range of k one binade wide covers every k.
    At k = 1 it is at most 1e-15 * max(|psi^(m)(x)|, 2.2e-308) for x in
    [1e-8, 1e300].  For 13 <= m <= 150 each rounded x + ik is raised to
    the power m + 1, and the error is at most (m + 1)/2 + 4 ulp for k in
    [e^-5, e^5] and x/k in [0.5, 4 F_m], which holds the shift region,
    the band from 10 + m to F_m and the far field above it (the worst
    measured is 21 ulp, at m = 148 and x just below 2048).  Values below
    binary64 underflow to 0.0; values beyond it raise OverflowError.
    """
    if not (0.0 < (k := float(k)) < math.inf and type(m) is int and m >= 1
            and 0.0 < (x := float(x)) < math.inf):
        k_value(k)
        _check_int("psi_k_m", "m", m, 1)
        _positive("psi_k_m", x)
    sign, threshold, mf, fm1, half_mf, order, power, c1, c2, c3, c4, c5, c6 = \
        _POLYGAMMA_PLANS.get(m) or _polygamma_plan(m)
    u = x / k
    s = 0.0
    y = x
    d = 0.0  # k y^m; left at 0.0, which takes the edge, where a sum leaves the normal range
    try:
        if threshold <= u <= _MAX_NORMAL:  # the far field, tested first, takes no shift
            d = k * x**order
            v = k / x
            v2 = v * v
        elif u < threshold:  # below the far field; u = inf, where x/k overflows, takes the edge
            t, cut, c7, c8, c9, c10, c11, c12, c13, c14, c15, c16 = _POLYGAMMA_SHIFTS[m]
            if cut <= u:  # below cut the edge truncates after the first shift term
                if u < t:  # n >= 1 shift terms up to y = x + nk >= T_m k
                    n = math.ceil(t - u)
                    # x + ik for each i, not y += k, whose roundings would add up; and
                    # the smallest term first, so no rounding is taken at the largest
                    i = n - 1.0
                    s = (x + i * k) ** power
                    if s >= _MIN_NORMAL:  # the smallest shift term
                        while i > 0.0:
                            i -= 1.0
                            s += (x + i * k) ** power
                        y = x + n * k
                        d = k * y**order
                else:
                    d = k * x**order
                v = k / y
                v2 = v * v
                # c_7 .. c_16 folded into c_6 ahead of the six-term form
                c6 += (((((((((c16 * v2 + c15) * v2 + c14) * v2 + c13) * v2 + c12) * v2 + c11)
                          * v2 + c10) * v2 + c9) * v2 + c8) * v2 + c7) * v2
    except OverflowError:
        pass
    if _MIN_NORMAL <= d <= _MAX_NORMAL:
        q = (((((c6 * v2 + c5) * v2 + c4) * v2 + c3) * v2 + c2) * v2 + c1) * v2
        value = sign * (mf * s + (fm1 + (half_mf * v + q)) / d)
    else:
        value = _polygamma_edge(m, k, x)
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error(f"psi_k^({m})", x, k)
    return value


def polygamma(m: int, x: float) -> float:
    """psi^{(m)}(x) for integer 1 <= m <= 150 and x > 0: :func:`psi_k_m` at k = 1.

    Accuracy, and values beyond and below binary64, as :func:`psi_k_m`.
    """
    _check_int("polygamma", "m", m, 1)
    return psi_k_m(1.0, m, _positive("polygamma", x))
