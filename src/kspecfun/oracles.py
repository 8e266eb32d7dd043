"""Independent numerical machinery used to cross-check the evaluators.

Nothing in here knows anything about gamma-family functions: the
quadrature, series summation, differencing and fitting routines take
plain callables and numbers, so they stay usable as second opinions
against every analytic route in the package.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .errors import ConvergenceError, DomainError, QuadratureError
from .scalar import _EPS, SeriesValue

__all__ = [
    "QuadratureResult",
    "DiscrepancyFit",
    "CmProbeResult",
    "adaptive_quad",
    "alt_series_sum",
    "finite_diff",
    "cm_probe",
    "fit_discrepancy",
]

# 15-point Kronrod nodes (positive half) and weights, with the embedded
# 7-point Gauss weights, as tabulated in QUADPACK's dqk15.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


class QuadratureResult(namedtuple("QuadratureResult", "value error_estimate subdivisions")):
    """Value, conservative error estimate and panel count of an integral."""

    __slots__ = ()
    value: float
    error_estimate: float
    subdivisions: int

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        return self


class DiscrepancyFit(namedtuple("DiscrepancyFit", "mode constant residual_rms n_points")):
    """Constant fitted to lhs = c * rhs (ratio) or lhs = rhs + c (offset)."""

    __slots__ = ()
    mode: str
    constant: float
    residual_rms: float
    n_points: int


class CmProbeResult(
    namedtuple("CmProbeResult", "passed max_order h points_checked first_violation")
):
    """Outcome of a finite-difference complete-monotonicity probe."""

    __slots__ = ()
    passed: bool
    max_order: int
    h: float
    points_checked: int
    first_violation: tuple[int, float, float] | None  # (order, x, value)


def _gk15(f, a, b):
    """One Gauss-Kronrod 15-point panel on [a, b], QUADPACK style."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = fc * _WG[3]
    resk = fc * _WGK[7]
    resabs = abs(resk)
    fv = [0.0] * 15
    fv[7] = fc
    for j in range(7):
        dx = hlgth * _XGK[j]
        f1 = f(centr - dx)
        f2 = f(centr + dx)
        fv[j] = f1
        fv[14 - j] = f2
        fsum = f1 + f2
        if j % 2 == 1:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j] - reskh) + abs(fv[14 - j] - reskh))
    value = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-290:
        err = max(err, 50.0 * _EPS * resabs)
    return value, err, resabs


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptive Gauss-Kronrod 15 bisection of int_a^b f(x) dx.

    Endpoints are never evaluated, so integrable endpoint singularities
    (x^(p-1) with p > 0, log factors) are handled by plain bisection
    toward the singular end.  Recursion depth is capped at 50; hitting
    the cap raises :class:`QuadratureError` with the best estimate
    attached.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise DomainError(f"adaptive_quad requires finite a < b, got [{a}, {b}]")
    if tol <= 0:
        raise DomainError("tol must be positive")
    value, err, resabs = _gk15(f, a, b)
    # heap of (-err, seq, a, b, value, err, resabs, depth)
    heap = [(-err, 0, a, b, value, err, resabs, 0)]
    seq = 1
    panels = 1
    total = value
    total_err = err
    total_resabs = resabs
    # requests below the rounding floor of sum |f| are treated as met
    while total_err > max(tol, 100.0 * _EPS * total_resabs):
        neg_err, _, lo, hi, val, er, rab, depth = heapq.heappop(heap)
        if depth >= 50:
            heapq.heappush(heap, (neg_err, seq, lo, hi, val, er, rab, depth))
            raise QuadratureError(
                f"depth cap reached; error estimate {total_err:.3e} > tol {tol:.3e}",
                value=total,
                error_estimate=total_err,
                subdivisions=panels,
            )
        mid = 0.5 * (lo + hi)
        v1, e1, r1 = _gk15(f, lo, mid)
        v2, e2, r2 = _gk15(f, mid, hi)
        panels += 2
        total += v1 + v2 - val
        total_err += e1 + e2 - er
        total_resabs += r1 + r2 - rab
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1, r1, depth + 1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2, r2, depth + 1))
        seq += 2
    return QuadratureResult(total, total_err, panels)


def alt_series_sum(term, tol: float, cap: int = 10**6) -> SeriesValue:
    """Sum an alternating series by pairing consecutive terms.

    ``term(n)`` must eventually decrease monotonically to 0 in magnitude
    with alternating signs.  Pair sums make the partial sums monotone;
    the truncation bound is the magnitude of the first omitted term.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    total = 0.0
    n = 0
    while n + 1 < cap:
        total += term(n) + term(n + 1)
        n += 2
        bound = abs(term(n))
        if bound <= tol:
            return SeriesValue(total, bound, n, True)
    raise ConvergenceError(
        f"alternating series needed more than {cap} terms for tol {tol:.3e}",
        value=total,
        error_estimate=abs(term(n)),
        terms_used=n,
    )


def finite_diff(f, x: float, order: int = 1) -> float:
    """Central finite-difference derivative of order 1 or 2 at x."""
    if order not in (1, 2):
        raise DomainError(f"finite_diff supports order 1 or 2, got {order}")
    scale = max(1.0, abs(x))
    if order == 1:
        h = _EPS ** (1.0 / 3.0) * scale
        h = (x + h) - x
        return (f(x + h) - f(x - h)) / (2.0 * h)
    h = _EPS**0.25 * scale
    h = (x + h) - x
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def _forward_diffs(values, j):
    # j-th forward difference at each admissible start index
    out = list(values)
    for _ in range(j):
        out = [out[i + 1] - out[i] for i in range(len(out) - 1)]
    return out


def cm_probe(f, x_lo: float, x_hi: float, h: float, max_order: int) -> CmProbeResult:
    """Check the sign pattern (-1)^j Delta_h^j f(x) >= 0 for j <= max_order.

    A completely monotone function satisfies it at every order; the
    probe samples x on a step-h grid over [x_lo, x_hi] and tolerates
    rounding at the relative level 1e-9 * |f(x)|.
    """
    if h <= 0 or max_order < 0:
        raise DomainError("cm_probe requires h > 0 and max_order >= 0")
    if x_lo + max_order * h > x_hi:
        raise DomainError("x_lo + max_order*h must not exceed x_hi")
    xs = []
    x = x_lo
    while x <= x_hi + 1e-12 * h:
        xs.append(x)
        x += h
    fs = [f(xi) for xi in xs]
    checked = 0
    for j in range(max_order + 1):
        diffs = _forward_diffs(fs, j)
        sign = 1.0 if j % 2 == 0 else -1.0
        for i, d in enumerate(diffs):
            checked += 1
            if sign * d < -1e-9 * abs(fs[i]):
                return CmProbeResult(False, max_order, h, checked, (j, xs[i], sign * d))
    return CmProbeResult(True, max_order, h, checked, None)


def fit_discrepancy(pairs, mode: str) -> DiscrepancyFit:
    """Fit the constant in lhs = c * rhs ('ratio') or lhs = rhs + c ('offset').

    Ratio mode uses the geometric mean of lhs/rhs and reports the rms of
    the log-residuals, so a clean constant-factor discrepancy shows up
    as a tiny residual no matter the magnitude of c.
    """
    pairs = [(float(l), float(r)) for l, r in pairs]
    if len(pairs) < 3:
        raise DomainError(f"fit_discrepancy needs at least 3 pairs, got {len(pairs)}")
    if mode == "offset":
        diffs = [l - r for l, r in pairs]
        c = sum(diffs) / len(diffs)
        rms = math.sqrt(sum((d - c) ** 2 for d in diffs) / len(diffs))
        return DiscrepancyFit("offset", c, rms, len(pairs))
    if mode != "ratio":
        raise DomainError(f"unknown fit mode {mode!r}")
    logs = []
    signs = set()
    for l, r in pairs:
        if r == 0.0:
            raise DomainError("ratio mode requires rhs != 0 at every pair")
        ratio = l / r
        if ratio == 0.0:
            raise DomainError("ratio mode requires lhs != 0 at every pair")
        signs.add(ratio > 0)
        logs.append(math.log(abs(ratio)))
    if len(signs) > 1:
        raise DomainError("ratio mode requires lhs/rhs with a consistent sign")
    mean_log = sum(logs) / len(logs)
    rms = math.sqrt(sum((g - mean_log) ** 2 for g in logs) / len(logs))
    c = math.exp(mean_log)
    if not signs.pop():
        c = -c
    return DiscrepancyFit("ratio", c, rms, len(pairs))
