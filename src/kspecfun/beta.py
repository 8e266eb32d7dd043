"""Nielsen k-beta function beta_k and its derivatives, both taken in u = x/k.

beta_k(x) = beta(u)/k (Diaz and Pariguan, Divulgaciones Mat. 15 (2007) 179),
with beta(u) = (psi((u+1)/2) - psi(u/2))/2 taken in one pass by
:func:`_beta_unit`, within 6e-16 relative for u in [1e-8, 1e15]: no ln k, no
psi_k and no digamma difference.  It is defined for x > 0 only: H_k takes
beta_k(k - x) at k - x > 0, and the continuation below 0, beta(u) =
Phi(-1, 1, u) at u < 0, is the alternating Lerch sum of the cross-check
route :func:`kspecfun.routes.lerch_alt`.  :func:`beta_k_deriv` sums the
alternating series of beta^(j)(u) with a tail of its own and applies
x^-(j+1) once.  The
cross-check routes (the alternating series, the Mellin-type and Laplace
integrals, the expansions around x = k and x = 0) share no kernel with either
and live in :mod:`kspecfun.routes`; the scanner for the paper's open problem
on f(x) = x beta_k(x) lives in :mod:`kspecfun.studies`.
"""

from __future__ import annotations

import math

from .kcore import _STIRLING_U, k_value
from .scalar import (_BERNOULLI, _MAX_NORMAL, _MIN_NORMAL, _T1, _T2, _T3, _T4, _T5, _T6, _T7,
                     _check_int, _check_polygamma_order, _overflow_error, _positive,
                     _times_powers)

__all__ = [
    "beta_k",
    "beta_k_deriv",
]

def beta_k(k, x: float) -> float:
    """beta_k(x) = beta(x/k)/k for x > 0, with beta(u) = (psi((u+1)/2) - psi(u/2))/2.

    beta(u) comes from one pass of :func:`_beta_unit`; neither ln k nor
    psi_k is formed, so nothing cancels in the far field.  Against mpmath
    beta(u) is within 6e-16 relative for u in [1e-8, 1e15], and beta_k
    adds one rounding for the division by k.  Where x/k is below the
    normal range beta_k(x) = 1/x - beta_k(x + k); where x/k >= 2^53 it is
    1/(2x) to rounding.  A value beyond binary64 raises OverflowError;
    one below it underflows towards 0.0.
    """
    if not (0.0 < (k := float(k)) < math.inf and 0.0 < (x := float(x)) < math.inf):
        k_value(k)
        _positive("beta_k", x)
    # _beta's normal-range branch without its frame; _beta takes the edges and raises
    if _MIN_NORMAL <= (u := x / k) < _STIRLING_U and (value := _beta_unit(u) / k) <= _MAX_NORMAL:
        return value
    return _beta(k, x)


def _beta(k: float, x: float) -> float:
    """:func:`beta_k` for a k and an x already checked finite and > 0."""
    u = x / k
    if u >= _STIRLING_U:
        # beta(u) = 1/(2u) (1 + 1/(2u) + ...), and 1/(2u) is below rounding
        return 0.5 / x
    if u < _MIN_NORMAL:
        # 1/u is beyond binary64 or inexact; beta(u) = 1/u - beta(1 + u)
        value = 1.0 / x - _beta_unit(1.0 + u) / k
    else:
        value = _beta_unit(u) / k
    if value == math.inf:
        raise _overflow_error("beta_k", x, k)
    return value


def _beta_unit(u: float) -> float:
    """beta(u) = (psi((u+1)/2) - psi(u/2))/2 for a normal binary64 u > 0, in one pass.

    With b = u/2 and a = b + 1/2, psi(a) - psi(b) gains 1/(2 b a) = 2/(u (u+1))
    per joint unit step of a and b, that is, beta gains 1/(u (u+1)) per step
    u -> u + 2, taken until u >= 20 (at most 10 steps).  There the
    asymptotic series of psi gives
    psi(a) - psi(b) = ln(1 + 1/u) + 1/u - 1/(u+1) - (P(a) - P(b)), with
    P(z) = sum B_2n/(2n z^2n) in straight-line Horner form over ``scalar._T1`` .. ``_T7``.
    """
    acc = 0.0
    while u < 20.0:
        acc += 1.0 / (u * (u + 1.0))
        u += 2.0
    b = 0.5 * u
    a = b + 0.5
    va = 1.0 / (a * a)
    vb = 1.0 / (b * b)
    pa = ((((((_T7 * va + _T6) * va + _T5) * va + _T4) * va + _T3) * va + _T2) * va + _T1) * va
    pb = ((((((_T7 * vb + _T6) * vb + _T5) * vb + _T4) * vb + _T3) * vb + _T2) * vb + _T1) * vb
    return acc + 0.5 * (math.log1p(1.0 / u) + 1.0 / (u * (u + 1.0)) - (pa - pb))


_DERIV_TAILS: dict[int, tuple] = {}  # order j -> beta_k_deriv's tail c_10 .. c_1, on first use


def beta_k_deriv(k, order: int, x: float) -> float:
    """order-th derivative of beta_k, order >= 0, from one alternating sum in u = x/k.

    For j = order >= 1, beta_k^(j)(x) = (-1)^j j! R(u) x^-(j+1), R(u) = sum (-1)^n
    (u/(u+n))^(j+1) in [1/2, 1] (Nielsen, 1906).  Its terms, exp(-(j+1) log1p(n k/x)),
    run to the least even n with w = u + n >= 20 + 2j; Boole's summation closes the
    tail as (u/w)^(j+1) [1/2 + sum_i c_i w^(1-2i)], c_i = (4^i - 1) B_2i (2i+j-1)!/((2i)! j!)
    (Borwein, Calkin and Manna, Amer. Math. Monthly 116 (2009) 387).  x^-(j+1) is
    applied once, split into mantissa and exponent, so u = 0.0 (R = 1) and u = inf
    (R = 1/2) take the same code.  For 1 <= j <= 12 the error is at most 6 ulp against
    mpmath over k in [1e-6, 1e6] and u in [1e-8, 1e15] (4 ulp over 52,000 seeded
    points, 5 ulp at two points found apart from them); j runs to 150.  A value
    beyond binary64 raises OverflowError; one below it underflows towards 0.0.
    """
    k = k_value(k)
    _check_int("beta_k_deriv", "order", order, 0)
    x = _positive("beta_k_deriv", x)
    if order == 0:
        return _beta(k, x)
    if (tail := _DERIV_TAILS.get(order)) is None:
        _check_polygamma_order(order)
        tail = _DERIV_TAILS[order] = tuple(  # (2i+j-1)!/((2i)! j!) = C(2i+j-1, j)/(2i)
            b * ((4**i - 1) * math.comb(2 * i + order - 1, order) / (2 * i))
            for i, b in reversed(tuple(enumerate(_BERNOULLI, start=1))))
    p = -1 - order
    u = x / k
    n = 2 * math.ceil(max(0.0, 10.0 + order - 0.5 * u))  # max() keeps -inf out of ceil
    v = 1.0 / (u + n)
    q = 0.0
    for b in tail:
        q = q * v * v + b
    # the terms as i k/x, not i/u, so that i = 0 gives 1.0 where u is 0.0; where
    # i k overflows, the terms it drops matter only where x^-(j+1) underflows
    r = (0.5 + q * v) * math.exp(p * math.log1p(n * k / x))
    for i in range(n - 1, 0, -2):  # the pairs (i - 1, i), i odd
        r += math.exp(p * math.log1p((i - 1) * k / x)) - math.exp(p * math.log1p(i * k / x))
    value = _times_powers((-1.0) ** order * math.factorial(order) * r, (x, p))
    if abs(value) > _MAX_NORMAL:
        raise _overflow_error(f"beta_k^({order})", x, k)
    return value
