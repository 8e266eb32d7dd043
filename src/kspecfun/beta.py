"""Nielsen k-beta function beta_k and its derivatives.

The primary route is the scaling law beta_k(x) = beta(x/k)/k (Diaz and
Pariguan, Divulgaciones Mat. 15 (2007) 179), with
beta(u) = (psi((u+1)/2) - psi(u/2))/2 taken in one pass by
:func:`_beta_unit`: no ln k, no psi_k and no difference of two digamma
calls.  Against mpmath beta(u) is within 6e-16 relative for u in
[1e-8, 1e15].  The step beta_k(x) = 1/x - beta_k(x + k) continues
beta_k to x <= 0.  The alternating series, the Mellin-type integral on
[0, 1], the Laplace (cosh) integral and the expansions around x = k and
x = 0 are the routes that the verification harness plays against it;
they share no kernel with it and live in :mod:`kspecfun.routes`.  The
scanner for the paper's open problem on f(x) = x beta_k(x), which samples
the derivatives of f and checks no identity, lives in
:mod:`kspecfun.studies`.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .kcore import _STIRLING_U, _check_pole, k_value
from .scalar import (_DIGAMMA_TAIL, _MAX_NORMAL, _MIN_NORMAL, _check_int, _overflow_error,
                     _polygamma_k, _polygamma_plan, _positive, _times_powers)

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
    P(z) = sum B_2n/(2n z^2n) from ``scalar._DIGAMMA_TAIL``.
    """
    acc = 0.0
    while u < 20.0:
        acc += 1.0 / (u * (u + 1.0))
        u += 2.0
    b = 0.5 * u
    a = b + 0.5
    va = 1.0 / (a * a)
    vb = 1.0 / (b * b)
    pa = pb = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        pa = (pa + c) * va
        pb = (pb + c) * vb
    return acc + 0.5 * (math.log1p(1.0 / u) + 1.0 / (u * (u + 1.0)) - (pa - pb))


def _beta_step(k: float, z: float, depth: int = 0) -> float:
    """beta_k(z) = 1/z - beta_k(z + k) for z < k, z off the poles of Gamma_k.

    For z <= 0 the step repeats (at most 64 times) until z + k > 0, which
    continues beta_k analytically.
    """
    if depth >= 64:
        raise DomainError("beta_k continuation recursed too deeply")
    if z <= 0.0:
        _check_pole(k, z)
    inv = 1.0 / z
    if math.isinf(inv):
        raise _overflow_error("beta_k", z, k)
    y = z + k
    return inv - (_beta(k, y) if y > 0.0 else _beta_step(k, y, depth + 1))


def beta_k_deriv(k, order: int, x: float) -> float:
    """order-th derivative of beta_k, order >= 0 (exact k-polygamma differences).

    beta_k^(j)(x) = 2^-(j+1) [psi_k^(j)((x + k)/2) - psi_k^(j)(x/2)], both
    values from the polygamma kernel, so 1 <= j <= 150.  Where x/k >= 2^53
    the two arguments round together, and the value is
    (-1)^j j! / (2 x^(j+1)) (1 + (j + 1) k / (2x)) instead, with the power
    split into mantissa and exponent.  Where psi_k^(j)(x/2) alone is beyond
    binary64 and 2k is not, the difference is psi_2k^(j)(x + k) - psi_2k^(j)(x),
    which carries the factor 2^-(j+1).  A value beyond binary64 raises
    OverflowError.
    """
    k = k_value(k)
    _check_int("beta_k_deriv", "order", order, 0)
    x = _positive("beta_k_deriv", x)
    if order == 0:
        return _beta(k, x)
    if x / k >= _STIRLING_U:
        # beta^(j)(u) = (-1)^j (j!/(2u^(j+1)) + (j+1)!/(4u^(j+2)) + O(u^-(j+4)))
        plan = _polygamma_plan(order)  # plan[0] = (-1)^(j+1), plan[4] = j!/2
        value = -plan[0] * _times_powers(plan[4] * (1.0 + 0.5 * (order + 1) * k / x),
                                         (x, -(order + 1)))
        if abs(value) > _MAX_NORMAL:
            raise _overflow_error(f"beta_k^({order})", x, k)
        return value
    if 0.5 * x == 0.0:
        # x is the least subnormal, and beta_k^(j)(x) is of order j!/x^(j+1)
        raise _overflow_error(f"beta_k^({order})", x, k)
    # halve before adding, so that x + k cannot overflow; halving is exact
    low = _polygamma_k(order, k, 0.5 * x)
    if abs(low) <= _MAX_NORMAL:
        return 0.5 ** (order + 1) * (_polygamma_k(order, k, 0.5 * x + 0.5 * k) - low)
    if k + k > _MAX_NORMAL:
        raise _overflow_error(f"psi_k^({order})", 0.5 * x, k)
    # 2^-(j+1) psi_k^(j)(y/2) = psi_2k^(j)(y): the same difference, with no term 2^(j+1) larger
    value = _polygamma_k(order, k + k, x + k) - _polygamma_k(order, k + k, x)
    if not abs(value) <= _MAX_NORMAL:  # nan where both terms are beyond binary64
        raise _overflow_error(f"beta_k^({order})", x, k)
    return value
