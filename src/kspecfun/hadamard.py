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
houses the superadditivity threshold solver and the Lerch-sum identity
audit.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .beta import beta_k
from .errors import BracketError, DomainError, PoleError
from .kcore import gamma_k, k_value, ln_gamma_k, rgamma_k
from .reports import IdentityReport
from .scalar import _MAX_NORMAL, _MIN_NORMAL, _require_finite, _sinpi, lerch_alt, lerch_one_diff

__all__ = [
    "RootResult",
    "hadamard_k",
    "functional_eq_41",
    "recursion_47",
    "recursion_47_closed_form",
    "representation_48",
    "representation_48_corrected_rhs",
    "alpha0_solve",
    "superadditivity_check_43",
    "lerch_identity_410",
]

SUPERADD_SLACK = 1e-12
_LN_MAX = math.log(_MAX_NORMAL)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_U = 2.0**53


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


def _ln_gamma_k_stirling(k: float, x: float) -> float:
    # ln Gamma_k(x) for x/k >= 2^53, where the O(k/x) Stirling terms are
    # below rounding: (x/k - 1/2) ln x - x/k - (ln k)/2 + ln(2 pi)/2,
    # arranged so that x/k may overflow
    ln_x = math.log(x)
    return (x / k) * (ln_x - 1.0) - 0.5 * (ln_x + math.log(k)) + _HALF_LN_2PI


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


def _beta_continued(k: float, z: float, depth: int = 0) -> float:
    # analytic continuation of beta_k through beta_k(z) = 1/z - beta_k(z + k)
    if depth > 64:
        raise DomainError("beta_k continuation recursed too deeply")
    if z > 0.0:
        return beta_k(k, z)
    if abs(z - round(z / k) * k) <= 1e-8 * k:
        raise PoleError(f"beta_k continuation hits a pole at z = {z}")
    return 1.0 / z - _beta_continued(k, z + k, depth + 1)


def _h_continued(k: float, y: float) -> float:
    # H_k via the continued beta form; independent of the recurrence walk
    z = k - y
    return _beta_continued(k, z) * rgamma_k(k, z)


def functional_eq_41(k, x: float) -> tuple[float, float]:
    """Both sides of H_k(x + k) = x H_k(x) + 1/Gamma_k(k - x).

    The left side is evaluated by an independent route (the continued
    beta_k form for x > 0, the direct sub-seam form for x <= 0), never
    by applying the recurrence step at x itself.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    rhs = x * hadamard_k(k, x) + rgamma_k(k, k - x)
    if x <= 0.0:
        lhs = hadamard_k(k, x + k)
    else:
        try:
            lhs = _h_continued(k, x + k)
        except PoleError:
            lhs = hadamard_k(k, x + k)
    return lhs, rhs


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


def recursion_47_closed_form(k, x: float, n: int, variant: str = "corrected") -> float:
    """Closed n-step expansion of H_k(x + nk) audited against recursion_47.

    The leading product is x (x + k) (x + 2k) ... (x + (n-1)k); the
    ``as_printed`` variant replaces the (x + k) factor by (x + 1), which
    only coincides with the recurrence pattern at k = 1.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if not isinstance(n, int) or not 1 <= n <= 50:
        raise DomainError(f"closed form requires integer 1 <= n <= 50, got {n!r}")
    if variant not in ("as_printed", "corrected"):
        raise DomainError(f"unknown variant {variant!r}")

    def factor(j: int) -> float:
        if j == 1 and variant == "as_printed":
            return x + 1.0
        return x + j * k

    total = hadamard_k(k, x)
    for j in range(n):
        total *= factor(j)
    for r in range(n):
        coeff = 1.0
        for j in range(r + 1, n):
            coeff *= factor(j)
        total += coeff * rgamma_k(k, (1 - r) * k - x)
    return total


def representation_48(k, x: float) -> tuple[float, float]:
    """(H_k(x), printed Gamma_k/beta_k expression) for the ratio audit.

    The printed right side is Gamma_k(x)/k - Gamma_k(x) sin(pi x/k)
    beta_k(x) / pi; at k = 1 it reduces to the classical identity and the
    two entries must agree, while for k != 1 the harness fits the ratio.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if x <= 0.0:
        raise DomainError(f"representation_48 requires x > 0, got {x}")
    g = gamma_k(k, x)
    rhs = g / k - g * _sinpi(x / k) * beta_k(k, x) / math.pi
    return hadamard_k(k, x), rhs


def representation_48_corrected_rhs(k, x: float) -> float:
    """Scaling-consistent variant: Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x))."""
    k = k_value(k)
    x = _require_finite("x", x)
    if x <= 0.0:
        raise DomainError(f"representation requires x > 0, got {x}")
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
    if tol <= 0:
        raise DomainError("tol must be positive")

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


def superadditivity_check_43(k, x: float, y: float) -> IdentityReport:
    """Check k^(y/k) H_k(x) + k^(x/k) H_k(y) <= H_k(x + y) at one point."""
    k = k_value(k)
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"superadditivity check requires x, y > 0, got {x}, {y}")
    lhs = k ** (y / k) * hadamard_k(k, x) + k ** (x / k) * hadamard_k(k, y)
    rhs = hadamard_k(k, x + y)
    diff = lhs - rhs
    denom = max(abs(lhs), abs(rhs))
    verdict = "PASS" if lhs <= rhs + SUPERADD_SLACK else "FAIL"
    return IdentityReport(
        identity_id="THM4.3",
        params={"k": k, "x": x, "y": y},
        lhs=lhs,
        rhs=rhs,
        abs_diff=abs(diff),
        rel_diff=abs(diff) / denom if denom else 0.0,
        verdict=verdict,
        note="superadditivity of H_k (scaled)",
    )


def lerch_identity_410(x: float, variant: str = "corrected") -> tuple[float, float]:
    """Both sides of the Lerch-sum identity audit, |x| < 1.

    ``as_printed``: 2x Phi(-1,1,-x) against Phi(1,1,1-x/2) - Phi(1,1,1/2-x/2)
    (the divergent Phi(1,1,.) pieces only occur as a difference).
    ``corrected``: 2 Phi(-1,1,1-x) against Phi(1,1,1/2-x/2) - Phi(1,1,1-x/2),
    the digamma-difference identity the numbers actually support.
    """
    x = _require_finite("x", x)
    if not abs(x) < 1.0:
        raise DomainError(f"lerch_identity_410 requires |x| < 1, got {x}")
    if variant == "as_printed":
        if x == 0.0:
            raise PoleError("printed variant is singular at x = 0")
        lhs = 2.0 * x * lerch_alt(-x).value
        rhs = lerch_one_diff(1.0 - 0.5 * x, 0.5 - 0.5 * x)
        return lhs, rhs
    if variant == "corrected":
        lhs = 2.0 * lerch_alt(1.0 - x).value
        rhs = lerch_one_diff(0.5 - 0.5 * x, 1.0 - 0.5 * x)
        return lhs, rhs
    raise DomainError(f"unknown variant {variant!r}")
