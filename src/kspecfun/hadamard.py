"""Hadamard k-gamma function H_k: a pole-free interpolation of Gamma_k.

Below the seam x = k the beta_k-difference form applies directly (all
psi_k arguments stay positive).  Above it H_k comes in O(1) from the
corrected representation (4.8), H_k(x) = Gamma_k(x) (1 - (k/pi)
sin(pi x/k) beta_k(x)); there |k beta_k(x)| <= ln 2, so the bracket lies
in [1 - ln2/pi, 1 + ln2/pi] and never cancels.  Against mpmath the far
field stays within 1e-12 relative for k in [0.01, 10] and x/k in
[1, 150].  A value beyond binary64 raises OverflowError; one below it
underflows to 0.0; nan and inf are never returned.  The functional
equation H_k(x + k) = x H_k(x) + 1/Gamma_k(k - x) is kept only as the
independent cross-check route (:func:`recursion_47`).  The module also
houses the superadditivity threshold solver.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .beta import beta_k
from .errors import BracketError, DomainError
from .kcore import _STIRLING_U, _ln_gamma_k_stirling, gamma_k, k_value, ln_gamma_k, rgamma_k
from .scalar import _MAX_NORMAL, _MIN_NORMAL, _check_tol, _positive, _require_finite, _sinpi

__all__ = [
    "RootResult",
    "hadamard_k",
    "recursion_47",
    "recursion_47_closed_form",
    "representation_48_corrected_rhs",
    "alpha0_solve",
]

_LN_MAX = math.log(_MAX_NORMAL)


class RootResult(
    namedtuple(
        "RootResult",
        "root residual bracket_lo bracket_hi iterations sign_changes",
        defaults=(1,),
    )
):
    """Root of a scalar equation with its bracket and solver diagnostics."""

    __slots__ = ()
    root: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    sign_changes: int


def _exp_or_raise(log_value: float, k: float, x: float) -> float:
    # H_k beyond the binary64 range raises; below it underflows to 0.0
    if not log_value <= _LN_MAX:
        raise OverflowError(f"H_k({x}) overflows binary64 (k={k})")
    return math.exp(log_value)


def _h_base(k: float, x: float) -> float:
    # valid for x < k: H_k(x) = beta_k(k - x) / Gamma_k(k - x), beta_k > 0 there
    z = k - x
    if z >= _STIRLING_U * k:
        # beta_k(z) = 1/(2z) to rounding
        return _exp_or_raise(-math.log(2.0) - math.log(z) - _ln_gamma_k_stirling(k, z), k, x)
    b = beta_k(k, z)
    lg = ln_gamma_k(k, z)
    if lg > -_LN_MAX:
        h = b * math.exp(-lg)
        if h < math.inf:
            return h
    return _exp_or_raise(math.log(b) - lg, k, x)


def _h_far(k: float, x: float) -> float:
    # valid for x >= k: Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x))
    if x >= _STIRLING_U * k:
        # k beta_k(x) ~ k/(2x) is below rounding here, so H_k = Gamma_k
        return _exp_or_raise(_ln_gamma_k_stirling(k, x), k, x)
    u = x / k
    bracket = 1.0 - k * _sinpi(u) * beta_k(k, x) / math.pi
    if u < 171.0:
        # the product form is more accurate than exp(lgamma) while both
        # factors stay normal binary64 numbers
        try:
            scale = k ** (u - 1.0)
        except OverflowError:
            scale = math.inf
        h = scale * math.gamma(u) * bracket
        if _MIN_NORMAL <= scale and _MIN_NORMAL <= h < math.inf:
            return h
    return _exp_or_raise((u - 1.0) * math.log(k) + math.lgamma(u) + math.log(bracket), k, x)


def hadamard_k(k, x: float) -> float:
    """H_k(x) for any finite real x (total function, no poles).

    x < k uses the beta_k-difference form beta_k(k - x) / Gamma_k(k - x).
    x >= k uses the corrected representation (4.8) in O(1):
    Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x)), with Gamma_k(x) as
    k^(x/k - 1) Gamma(x/k) while both factors are normal numbers and in
    log space otherwise.  Against mpmath the relative error stays below
    1e-12 for k in [0.01, 10] and x/k in [1, 150] (the accuracy map in
    the tests; worst seen 5.2e-14).  A value beyond the binary64 range
    raises OverflowError (never inf or nan); one below it underflows to
    0.0.  The cost is O(1) on both sides of the seam.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if x < k:
        return _h_base(k, x)
    return _h_far(k, x)


def recursion_47(k, x: float, n: int) -> float:
    """H_k(x + nk) by n explicit applications of the functional equation.

    This walk is the cross-check route for the O(1) far field of
    :func:`hadamard_k`.  Started from a base point x < k, it shares no
    far-field code with it.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if not isinstance(n, int) or not 1 <= n <= 50:
        raise DomainError(f"recursion_47 requires integer 1 <= n <= 50, got {n!r}")
    h = hadamard_k(k, x)
    y = x
    for _ in range(n):
        h = y * h + rgamma_k(k, k - y)
        y += k
        if not math.isfinite(h):
            raise OverflowError(f"recursion_47 overflow at argument {y}")
    return h


def recursion_47_closed_form(k, x: float, n: int) -> float:
    """Closed n-step expansion of H_k(x + nk) audited against recursion_47.

    The leading product is x (x + k) (x + 2k) ... (x + (n-1)k), and the
    r-th 1/Gamma_k term carries the product of the factors after the r-th.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if not isinstance(n, int) or not 1 <= n <= 50:
        raise DomainError(f"closed form requires integer 1 <= n <= 50, got {n!r}")
    factors = [x + j * k for j in range(n)]
    total = hadamard_k(k, x)
    for factor in factors:
        total *= factor
    for r in range(n):
        total += math.prod(factors[r + 1:]) * rgamma_k(k, (1 - r) * k - x)
    return total


def representation_48_corrected_rhs(k, x: float) -> float:
    """Scaling-consistent variant: Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x))."""
    k = k_value(k)
    x = _positive("representation_48_corrected_rhs", x)
    g = gamma_k(k, x)
    return g * (1.0 - k * _sinpi(x / k) * beta_k(k, x) / math.pi)


def _count_sign_changes(g, lo: float, hi: float, step: float, g_lo: float, g_hi: float) -> int:
    # Sign changes of g between consecutive nodes of the lattice lo,
    # lo + step, ... (accumulated, the last node clamped to hi); a zero at
    # the left node of a pair counts as a change.  g is evaluated on every
    # tenth node, and a coarse cell [a, b] is walked node by node only
    # when g may cross inside it: min(|g(a)|, |g(b)|) <= |g(b) - g(a)|,
    # which also holds whenever the ends differ in sign or one is zero.
    ts = [lo]
    while ts[-1] < hi:
        ts.append(min(ts[-1] + step, hi))
    last = len(ts) - 1
    changes = 0
    a, ga = 0, g_lo
    while a < last:
        b = min(a + 10, last)
        gb = g_hi if b == last else g(ts[b])
        if min(abs(ga), abs(gb)) <= abs(gb - ga):
            prev = ga
            for j in range(a + 1, b + 1):
                cur = gb if j == b else g(ts[j])
                if prev == 0.0 or prev * cur < 0.0:
                    changes += 1
                prev = cur
        a, ga = b, gb
    return changes


def alpha0_solve(k, tol: float = 1e-10) -> RootResult:
    """Solve H_k(2t) = 2 k^(t/k) H_k(t) on [1.5k, inf).

    Bisection down to a 1e-6*k bracket followed by secant polish; the
    initial bracket [1.5k, 5k] grows by doubling until a sign change
    appears.  ``sign_changes`` is the number of sign changes of the
    threshold function g between consecutive nodes of the 0.01k lattice
    on the bracket (at least 1), so a non-unique crossing shows as a
    value above 1.  The count evaluates g on every tenth node (a 0.1k
    coarse pass) and walks a coarse cell [a, b] on the 0.01k lattice
    only when g may cross inside it, that is when min(|g(a)|, |g(b)|)
    <= |g(b) - g(a)| (in particular when the ends differ in sign).
    """
    k = k_value(k)
    _check_tol(tol)

    def g(t: float) -> float:
        return hadamard_k(k, 2.0 * t) - 2.0 * k ** (t / k) * hadamard_k(k, t)

    lo = 1.5 * k
    hi = 5.0 * k
    glo = g(lo)
    ghi = g(hi)
    while glo * ghi > 0.0:
        hi *= 2.0
        if hi > 100.0 * k:
            raise BracketError(f"no sign change of the threshold equation below {hi}")
        ghi = g(hi)
    bracket_lo, bracket_hi = lo, hi
    changes = max(_count_sign_changes(g, lo, hi, 0.01 * k, glo, ghi), 1)

    iterations = 0
    a, b, ga, gb = lo, hi, glo, ghi
    while b - a > 1e-6 * k:
        mid = 0.5 * (a + b)
        gm = g(mid)
        iterations += 1
        if ga * gm <= 0.0:
            b, gb = mid, gm
        else:
            a, ga = mid, gm
    x0, x1 = a, b
    f0, f1 = ga, gb
    root, fr = x1, f1
    for _ in range(60):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not a <= x2 <= b:
            x2 = 0.5 * (a + b)
        f2 = g(x2)
        iterations += 1
        x0, f0, x1, f1 = x1, f1, x2, f2
        root, fr = x2, f2
        if abs(fr) < tol:
            break
    if abs(fr) >= tol:
        raise BracketError(f"threshold solver stalled at residual {fr:.3e}")
    return RootResult(root, fr, bracket_lo, bracket_hi, iterations, changes)
