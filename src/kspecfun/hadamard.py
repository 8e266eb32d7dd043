"""Hadamard k-gamma function H_k: a pole-free interpolation of Gamma_k.

Below the seam x = k the beta_k form H_k(x) = beta_k(k - x) / Gamma_k(k - x)
applies directly.  Above it H_k comes in O(1) from the
corrected representation (4.8), H_k(x) = Gamma_k(x) (1 - (k/pi)
sin(pi x/k) beta_k(x)); there |k beta_k(x)| <= ln 2, so the bracket lies
in [1 - ln2/pi, 1 + ln2/pi] and never cancels.  Against mpmath the far
field stays within 1e-12 relative for k in [0.01, 10] and x/k in
[1, 150].  Both forms take k beta_k(x) = beta(x/k) from the one-pass
kernel of :mod:`kspecfun.beta`.  A value beyond binary64 raises
OverflowError; one below it underflows to 0.0; nan and inf are never
returned.  The functional
equation H_k(x + k) = x H_k(x) + 1/Gamma_k(k - x) is kept only as the
independent cross-check route (:func:`kspecfun.routes.recursion_47`).
The module also houses the superadditivity threshold solver.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .beta import _beta_unit
from .errors import BracketError, DomainError
from .kcore import _LN_MAX, _STIRLING_U, _exp_k, _ln_gamma_k, k_value
from .scalar import _MAX_NORMAL, _MIN_NORMAL, _overflow_error, _require_finite, _sinpi

__all__ = [
    "RootResult",
    "hadamard_k",
    "alpha0_solve",
]

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


def _h_base(k: float, x: float) -> float:
    # valid for x < k: H_k(x) = beta_k(z) / Gamma_k(z) with z = k - x and
    # beta_k(z) = beta(z/k)/k > 0; z/k >= 2^-53 is a normal number
    z = k - x
    if z >= _STIRLING_U * k:
        # beta_k(z) = 1/(2z) to rounding
        return _exp_k(-math.log(2.0) - math.log(z) - _ln_gamma_k(k, z), "H_k", k, x)
    b = _beta_unit(z / k)
    lg = _ln_gamma_k(k, z)
    if lg > -_LN_MAX:
        h = b / k * math.exp(-lg)
        if h < math.inf:
            return h
    # beta_k(z) itself may be beyond binary64 where H_k is not
    return _exp_k(math.log(b) - math.log(k) - lg, "H_k", k, x)


def _h_far(k: float, x: float) -> float:
    # valid for x >= k: Gamma_k(x) (1 - (1/pi) sin(pi u) beta(u)), u = x/k,
    # since k beta_k(x) = beta(u)
    if x >= _STIRLING_U * k:
        # beta(u) ~ 1/(2u) is below rounding here, so H_k = Gamma_k
        return _exp_k(_ln_gamma_k(k, x), "H_k", k, x)
    u = x / k
    bracket = 1.0 - _sinpi(u) * _beta_unit(u) / math.pi
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
    return _exp_k(_ln_gamma_k(k, x) + math.log(bracket), "H_k", k, x)


def hadamard_k(k, x: float) -> float:
    """H_k(x) for any finite real x (total function, no poles).

    x < k uses the beta_k form beta_k(k - x) / Gamma_k(k - x), in log space
    where beta_k(k - x) or 1/Gamma_k(k - x) is beyond binary64.
    x >= k uses the corrected representation (4.8) in O(1):
    Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x)), with Gamma_k(x) as
    k^(x/k - 1) Gamma(x/k) while both factors are normal numbers and in
    log space otherwise.  Against mpmath the relative error stays below
    1e-12 for k in [0.01, 10] and x/k in [1, 150] (the accuracy map in
    the tests; worst seen 5.2e-14).  A value beyond the binary64 range
    raises OverflowError (never inf or nan); one below it underflows to
    0.0.  The cost is O(1) on both sides of the seam.
    """
    if not (0.0 < (k := float(k)) < math.inf and -math.inf < (x := float(x)) < math.inf):
        k_value(k)
        _require_finite("x", x)
    if x < k:
        return _h_base(k, x)
    return _h_far(k, x)


def _sign(v: float) -> int:
    # -1, 0 or 1; signs are compared through these, since the product of
    # two values of g underflows to 0.0 at small k
    return (v > 0.0) - (v < 0.0)


def _count_sign_changes(g, lo: float, hi: float, step: float, g_lo: float, g_hi: float) -> int:
    # Sign flips of g along the lattice lo, lo + step, ... (accumulated,
    # the last node clamped to hi): a node counts where its sign is opposite
    # to the last nonzero sign before it, so zeros, and the run of 0.0
    # where g underflows at small k, count nothing.  g is evaluated on every
    # tenth node, and a coarse cell [a, b] is walked node by node only
    # when g may cross inside it: min(|g(a)|, |g(b)|) <= |g(b) - g(a)|,
    # which also holds whenever the ends differ in sign or one is zero.
    if lo + step == lo:
        # the lattice would never advance (step rounds to nothing at lo)
        raise DomainError(f"sign-change lattice step {step} vanishes at {lo}")
    ts = [lo]
    while ts[-1] < hi:
        ts.append(min(ts[-1] + step, hi))
    last = len(ts) - 1
    changes = 0
    a, ga = 0, g_lo
    seen = _sign(g_lo)  # the last nonzero sign so far, 0 before the first
    while a < last:
        b = min(a + 10, last)
        gb = g_hi if b == last else g(ts[b])
        # a skipped cell has nonzero ends of the sign seen at a
        if min(abs(ga), abs(gb)) <= abs(gb - ga):
            for j in range(a + 1, b + 1):
                cur = _sign(gb if j == b else g(ts[j]))
                if cur:
                    if seen * cur < 0:
                        changes += 1
                    seen = cur
        a, ga = b, gb
    return changes


def alpha0_solve(k) -> RootResult:
    """Solve H_k(2t) = 2 k^(t/k) H_k(t) on [1.5k, inf).

    Bisection on the sign of the threshold function g over [1.5k, 5k]
    until the bracket is two adjacent floats; the end with the smaller
    |g| is returned.  H_k(kt) = k^(t-1) H_1(t) gives g_k(kt) =
    k^(2t-1) g_1(t), so the bracket ends carry the signs of
    g_1(1.5) < 0 and g_1(5) > 0 for every k; ends of one sign raise
    BracketError.  A sign test does not depend on the scale of g, so
    root/k is the same constant to rounding at every k.  Signs are
    compared without multiplying two values of g, since at small k such
    products underflow to 0.0.  Where H_k(2x) at the root is below the
    normal range (k below about 3.2e-154) g cannot resolve the root, and
    DomainError is raised.
    ``sign_changes`` is the number of sign flips of the threshold
    function g along the 0.01k lattice on the bracket (at least 1), so a
    non-unique crossing shows as a value above 1; a node where g is 0.0
    (at small k, g underflows to 0.0 on the upper part of the bracket)
    flips nothing.  The count evaluates g on every tenth node (a 0.1k
    coarse pass) and walks a coarse cell [a, b] on the 0.01k lattice
    only when g may cross inside it, that is when min(|g(a)|, |g(b)|)
    <= |g(b) - g(a)| (in particular when the ends differ in sign).
    Where 0.01k rounds away at 1.5k (k below about 2.5e-322) the
    lattice cannot advance, and DomainError is raised.  From k = 1e34 up
    H_k(2t) on the bracket is beyond binary64, and OverflowError is
    raised.
    """
    k = k_value(k)

    def g(t: float) -> float:
        return hadamard_k(k, 2.0 * t) - 2.0 * k ** (t / k) * hadamard_k(k, t)

    lo = 1.5 * k
    hi = 5.0 * k
    if 2.0 * hi > _MAX_NORMAL:
        # g takes H_k(2t), and H_k(3k) = k^2 H_1(3) is beyond binary64 from k = 1e34 up
        raise _overflow_error("H_k", "3k", k)
    glo = g(lo)
    ghi = g(hi)
    if _sign(glo) * _sign(ghi) > 0:
        raise BracketError(f"no sign change of the threshold equation on [{lo}, {hi}]")
    changes = max(_count_sign_changes(g, lo, hi, 0.01 * k, glo, ghi), 1)

    iterations = 0
    a, b, ga, gb = lo, hi, glo, ghi
    while a < (mid := 0.5 * (a + b)) < b:
        gm = g(mid)
        iterations += 1
        if _sign(ga) * _sign(gm) <= 0:
            b, gb = mid, gm
        else:
            a, ga = mid, gm
    root, residual = (a, ga) if abs(ga) < abs(gb) else (b, gb)
    if hadamard_k(k, 2.0 * root) < _MIN_NORMAL:
        # both terms of g are below the normal range at the root, so g
        # cannot tell the root from its neighbours
        raise DomainError(f"the threshold function underflows binary64 at its root (k={k})")
    return RootResult(root, residual, lo, hi, iterations, changes)
