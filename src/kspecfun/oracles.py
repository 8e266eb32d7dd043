"""Independent numerical machinery used to cross-check the evaluators.

Nothing in here knows anything about gamma-family functions: the
quadrature and fitting routines take plain callables and numbers, so
they stay usable as second opinions against every analytic route in the
package.  :class:`Estimate`, the value-with-error record that the
quadrature and every series or recursion route return, is defined here.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .errors import DomainError, QuadratureError
from .scalar import _EPS, _check_tol

__all__ = [
    "Estimate",
    "DiscrepancyFit",
    "adaptive_quad",
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


class Estimate(namedtuple("Estimate", "value error_estimate terms_used")):
    """Value of a series, recursion or quadrature, with its error estimate and count.

    ``error_estimate`` is a conservative bound on what the route reached;
    ``tol`` only steers where a route stops, so a caller that needs a
    bound compares ``error_estimate`` with its own tolerance.
    ``terms_used`` counts series terms or quadrature panels.
    """

    __slots__ = ()
    value: float
    error_estimate: float
    terms_used: int

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if self.terms_used < 0:
            raise ValueError("terms_used must be >= 0")
        return self

    @property
    def subdivisions(self) -> int:
        # the only alias: perfbench/tracer.py counts panels by reading
        # .subdivisions off adaptive_quad results, and the benchmark's files
        # do not change between the commits it compares
        return self.terms_used


class DiscrepancyFit(namedtuple("DiscrepancyFit", "mode constant residual_rms n_points")):
    """Constant fitted to lhs = c * rhs (ratio) or lhs = rhs + c (offset)."""

    __slots__ = ()
    mode: str
    constant: float
    residual_rms: float
    n_points: int


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


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> Estimate:
    """Adaptive Gauss-Kronrod 15 bisection of int_a^b f(x) dx.

    Endpoints are never evaluated, so integrable endpoint singularities
    (x^(p-1) with p > 0, log factors) are handled by plain bisection
    toward the singular end.  Recursion depth is capped at 50; hitting
    the cap raises :class:`QuadratureError` with the best estimate
    attached.  The half-length (b - a)/2 must be positive and finite in
    binary64; otherwise (b <= a, a non-finite end, or an interval too
    short or too long for binary64) it raises :class:`DomainError`.
    """
    a = float(a)
    b = float(b)
    if not 0.0 < 0.5 * (b - a) < math.inf:  # also rejects a non-finite a or b
        raise DomainError(
            f"adaptive_quad requires a < b with (b - a)/2 positive and finite, got [{a}, {b}]")
    _check_tol(tol)
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
                terms_used=panels,
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
    return Estimate(total, total_err, panels)


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
