"""The paper's two numerical studies on H_k and beta_k; neither checks an identity.

:func:`alpha0_solve` finds the superadditivity threshold alpha_0 of
Theorem 4.3, the root of H_k(2t) = 2 k^(t/k) H_k(t), and
:func:`openproblem_scan` samples the derivatives of f(x) = x beta_k(x)
for the paper's closing open problem.  Both are built on the evaluators
and are not evaluators themselves: ``import kspecfun`` does not load
this module, and the package loads it on the first access to one of its
names.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .beta import beta_k_deriv
from .errors import BracketError, DomainError
from .hadamard import hadamard_k
from .kcore import k_value
from .scalar import _MAX_NORMAL, _MIN_NORMAL, _check_int, _overflow_error

__all__ = [
    "RootResult",
    "alpha0_solve",
    "ScanTable",
    "openproblem_scan",
]

# the unit x values (x = u k) of the scan and of the registry's default grid
DEFAULT_UNITS = (0.1, 0.35, 0.7, 1.0, 1.5, 2.5, 5.0)


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


def _x_beta_k_derivs(k: float, n: int, x: float) -> list[float]:
    """f(x), f'(x), ..., f^(n)(x) for f(x) = x beta_k(x), x > 0.

    f is taken as 1 - x beta_k(x + k), so that
    f^(j)(x) = -(x beta_k^(j)(x + k) + j beta_k^(j-1)(x + k)) has no 1/x
    pole to cancel, as the Leibniz form x beta_k^(j)(x) + j beta_k^(j-1)(x)
    has.
    """
    b = [beta_k_deriv(k, j, x + k) for j in range(n + 1)]
    return [1.0 - x * b[0]] + [-(x * b[j] + j * b[j - 1]) for j in range(1, n + 1)]


class ScanTable(namedtuple("ScanTable", "n rows verdict first_violation")):
    __slots__ = ()
    n: int
    rows: tuple  # ((x, value_or_None), ...)
    verdict: str  # 'strictly increasing' | 'strictly decreasing' | 'neither' | 'insufficient data'
    first_violation: tuple | None  # (x_prev, x, g_prev, g)


def openproblem_scan(k, n_max: int, units=DEFAULT_UNITS) -> list[ScanTable]:
    """Sample g_n(x) = f^(n+1) / (f^(n) f^(n+2)) with f(x) = x beta_k(x).

    The sample points are x = u k for the unit values ``units`` (by
    default :data:`DEFAULT_UNITS`, the registry's default grid).  Emits a
    value table and a monotonicity verdict per n in 0..n_max.  This is
    evidence-gathering for an open monotonicity question, not a proof of
    anything; near-zero denominators are skipped.
    """
    k = k_value(k)
    _check_int("openproblem_scan", "n_max", n_max, 0, 4)
    xs = sorted(u * k for u in units)
    if not xs or not all(0.0 < x < math.inf for x in xs):
        raise DomainError("scan x values must be finite and positive")
    derivs = [_x_beta_k_derivs(k, n_max + 2, x) for x in xs]
    tables = []
    for n in range(n_max + 1):
        rows = []
        for x, f in zip(xs, derivs):
            num = f[n + 1]
            den = f[n] * f[n + 2]
            if abs(den) < 1e-12 * max(1.0, abs(num)):
                rows.append((x, None))
            else:
                rows.append((x, num / den))
        vals = [(x, g) for x, g in rows if g is not None]
        verdict = "insufficient data"
        violation = None
        if len(vals) >= 2:
            increasing = all(b > a for (_, a), (_, b) in zip(vals, vals[1:]))
            decreasing = all(b < a for (_, a), (_, b) in zip(vals, vals[1:]))
            if increasing:
                verdict = "strictly increasing"
            elif decreasing:
                verdict = "strictly decreasing"
            else:
                verdict = "neither"
                up_first = vals[1][1] > vals[0][1]
                for (x1, g1), (x2, g2) in zip(vals, vals[1:]):
                    ok = (g2 > g1) if up_first else (g2 < g1)
                    if not ok:
                        violation = (x1, x2, g1, g2)
                        break
        tables.append(ScanTable(n, tuple(rows), verdict, violation))
    return tables
