"""Identity catalogue and grid runner.

Every identity the library cares about is a registered entry with an
id, a parameter grid, two independently evaluated sides and an expected
verdict class.  Identities suspected of carrying a misprint are declared
once as an audit pair and registered twice: an ``-printed`` entry that is
allowed (expected) to fail, and a ``-corrected`` entry that must pass.
Only this module turns an (lhs, rhs) pair into a verdict.  Where the
discrepancy has constant-factor or constant-offset structure, a fit
hypothesis is attached so the run diagnoses the misprint instead of
merely flagging it.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import beta as _beta
from . import furdui as _furdui
from . import hadamard as _hadamard
from . import kcore as _kcore
from . import scalar as _scalar
from .errors import DomainError, PoleError
from .oracles import DiscrepancyFit, adaptive_quad, cm_probe, finite_diff, fit_discrepancy

__all__ = [
    "GridSpec",
    "IdentityReport",
    "IdentityEntry",
    "FitPlan",
    "FitRecord",
    "EntrySummary",
    "RunSummary",
    "ScanTable",
    "default_grid",
    "registry_ids",
    "get_entry",
    "run_identity",
    "run_all",
    "openproblem_scan",
    "reports_to_json",
    "reports_to_csv",
]


class GridSpec(
    namedtuple(
        "GridSpec",
        "k_values x_values",
        defaults=((0.5, 1.0, 2.0, math.pi), (0.1, 0.35, 0.7, 1.0, 1.5, 2.5, 5.0)),
    )
):
    """Evaluation grid: k values and unit x values (scaled by k where the
    identity's natural variable is x/k); m and n always run over
    ``_M_VALUES`` and ``_N_VALUES``."""

    __slots__ = ()
    k_values: tuple
    x_values: tuple

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(k <= 0 for k in self.k_values):
            raise DomainError("all grid k values must be > 0")
        if not all(math.isfinite(v) for v in (*self.k_values, *self.x_values)):
            raise DomainError("all grid k and x values must be finite")
        return self


class IdentityReport(
    namedtuple(
        "IdentityReport",
        "identity_id params lhs rhs abs_diff rel_diff verdict note",
        defaults=("",),
    )
):
    """Verdict for one identity at one grid point.

    ``lhs``/``rhs`` and the diffs are None for SKIP verdicts (pole or
    domain exclusions, non-finite sides).  Instances are not hashable
    (params is a dict).
    """

    __slots__ = ()
    identity_id: str
    params: dict
    lhs: float | None
    rhs: float | None
    abs_diff: float | None
    rel_diff: float | None
    verdict: str  # PASS | FAIL | SKIP
    note: str

    __hash__ = None


_M_VALUES = (1, 2, 3, 4, 5, 6)
_N_VALUES = (1, 2, 3)


def default_grid() -> GridSpec:
    return GridSpec()


class FitPlan(namedtuple("FitPlan", "mode group_by transform expected")):
    """How to fit a discrepancy constant from an entry's reports."""

    __slots__ = ()
    mode: str  # 'ratio' | 'offset'
    group_by: str | None  # param name to group on, or None for one global fit
    transform: Callable  # IdentityReport -> (lhs, rhs) pair for the fit
    expected: Callable | None  # group value -> documented constant


class FitRecord(namedtuple("FitRecord", "label fit expected")):
    __slots__ = ()
    label: str
    fit: DiscrepancyFit
    expected: float | None


class IdentityEntry(
    namedtuple(
        "IdentityEntry",
        "id anchor comparison tol expectation points lhs rhs skip fit",
        defaults=(None, None),
    )
):
    """One registered identity.  ``lhs`` and ``rhs`` are two named routes,
    one per side, that run_identity calls as ``route(**params)`` at every
    grid point; no route computes both sides."""

    __slots__ = ()
    id: str
    anchor: str
    comparison: str  # 'abs' | 'rel' | 'le' | 'lt'
    tol: float
    expectation: str  # 'PASS' | 'FAIL'
    points: Callable[[GridSpec], Iterable[dict]]
    lhs: Callable[..., float]
    rhs: Callable[..., float]
    skip: Callable | None  # params -> reason for a SKIP report, or None
    fit: FitPlan | None


class EntrySummary(
    namedtuple(
        "EntrySummary",
        "identity_id expectation n_pass n_fail n_skip worst_abs_diff worst_rel_diff fits satisfied",
    )
):
    __slots__ = ()
    identity_id: str
    expectation: str
    n_pass: int
    n_fail: int
    n_skip: int
    worst_abs_diff: float
    worst_rel_diff: float
    fits: tuple
    satisfied: bool


class RunSummary(namedtuple("RunSummary", "entries reports overall_ok")):
    __slots__ = ()
    entries: tuple
    reports: tuple
    overall_ok: bool


class ScanTable(namedtuple("ScanTable", "n rows verdict first_violation")):
    __slots__ = ()
    n: int
    rows: tuple  # ((x, value_or_None), ...)
    verdict: str  # 'strictly increasing' | 'strictly decreasing' | 'neither' | 'insufficient data'
    first_violation: tuple | None  # (x_prev, x, g_prev, g)


LN_PI = math.log(math.pi)
LN2 = _scalar.CONSTANTS.ln2
TWO_GAMMA = 2.0 * _scalar.CONSTANTS.euler_gamma
SUPERADD_SLACK = 1e-12


@lru_cache(maxsize=32)
def _alpha0_root(k: float) -> float:
    return _hadamard.alpha0_solve(k, 1e-10).root


def _k_x_points(grid: GridSpec, units=None, scaled=True):
    units = grid.x_values if units is None else units
    for k in grid.k_values:
        for u in units:
            yield {"k": k, "x": (u * k) if scaled else u}


def _k_points(grid: GridSpec):
    for k in grid.k_values:
        yield {"k": k}


def _k_m_points(grid: GridSpec):
    for k in grid.k_values:
        for m in _M_VALUES:
            yield {"k": k, "m": m}


def _build_entries() -> list[IdentityEntry]:
    # each side is a named route (see IdentityEntry); a route takes the
    # params it uses by name and the rest as **_
    e: list[IdentityEntry] = []

    def add(id, anchor, comparison, tol, points, lhs, rhs, expectation="PASS", **more):
        e.append(IdentityEntry(id, anchor, comparison, tol, expectation, points, lhs, rhs,
                               **more))

    def add_audit(stem, printed, corrected, **shared):
        # a misprinted formula: its printed form is expected to FAIL and its
        # corrected form must PASS; each field is given once, either shared
        # or per variant
        add(f"{stem}-printed", expectation="FAIL", **shared, **printed)
        add(f"{stem}-corrected", **shared, **corrected)

    def sides(rep):
        return rep.lhs, rep.rhs

    def one(**_):
        return 1.0

    def zero(**_):
        return 0.0

    def recip_x(x, **_):
        return 1.0 / x

    # ---- section 1: recurrences and series routes -----------------------
    def gamma_k_shifted(k, x, **_):
        return _kcore.gamma_k(k, x + k)

    def x_gamma_k(k, x, **_):
        return x * _kcore.gamma_k(k, x)

    def psi_k_by_series(k, x, **_):
        return _kcore.psi_k_series(k, x, 1e-12).value

    def psi_k_m_by_series(k, m, x, **_):
        return _kcore.psi_k_m_series(k, m, x, 1e-11).value

    add("EQ1.1", "Gamma_k(x + k) = x Gamma_k(x)", "rel", 1e-11,
        points=_k_x_points, lhs=gamma_k_shifted, rhs=x_gamma_k)
    add("EQ1.2", "psi_k reduction route vs direct series route", "abs", 1e-10,
        points=_k_x_points, lhs=_kcore.psi_k, rhs=psi_k_by_series)
    add("EQ1.3", "psi_k^(m) scaling route vs direct series route", "rel", 1e-10,
        points=lambda g: ({"k": k, "m": m, "x": u * k}
                          for k in g.k_values for m in _M_VALUES for u in (0.1, 0.7, 2.5)),
        lhs=_kcore.psi_k_m, rhs=psi_k_m_by_series)

    # ---- section 2: reductions, reflection, the 2F1 integral -------------
    def gamma_k_by_reduction(k, x, **_):
        return k ** (x / k - 1.0) * math.gamma(x / k)

    def gamma_k_reflection_product(k, x, **_):
        return _kcore.gamma_k(k, x) * _kcore.gamma_k(k, k - x)

    def pi_over_sin(k, x, **_):
        return math.pi / _scalar._sinpi(x / k)

    def pi_over_k_sin(k, x, **_):
        return math.pi / (k * _scalar._sinpi(x / k))

    def ln_gamma_k_derivative(k, x, **_):
        return finite_diff(lambda t: _kcore.ln_gamma_k(k, t), x, 1)

    add("EQ2.1", "Gamma_k(x) = k^(x/k-1) Gamma(x/k)", "rel", 1e-12,
        points=_k_x_points, lhs=_kcore.gamma_k, rhs=gamma_k_by_reduction)
    add_audit(
        "EQ2.2",
        dict(anchor="Gamma_k(x) Gamma_k(k-x) = pi / sin(pi x/k) (as printed)",
             rhs=pi_over_sin,
             # lhs/rhs constant per k; 1/k confirms the reduction-route constant pi/k
             fit=FitPlan("ratio", "k", sides, lambda k: 1.0 / k)),
        dict(anchor="Gamma_k(x) Gamma_k(k-x) = (pi/k) / sin(pi x/k)",
             rhs=pi_over_k_sin),
        comparison="rel",
        tol=1e-10,
        points=lambda g: _k_x_points(g, units=(0.1, 0.35, 0.7)),
        lhs=gamma_k_reflection_product,
    )
    add("LEM2.2", "psi_k is the log-derivative of Gamma_k", "abs", 1e-6,
        points=_k_x_points, lhs=_kcore.psi_k, rhs=ln_gamma_k_derivative)

    def _lem23_points(grid):
        for (a, b, v) in ((1.5, 0.5, 1.0), (3.0, 1.0, 2.0), (2.0, 1.0, 2.5), (3.0, 0.5, 2.0)):
            yield {"a": a, "b": b, "v": v, "u": 1.0}

    def lem23_by_2f1(a, b, v, u, **_):
        return u**a / a * _scalar.gauss_2f1(v, a, 1.0 + a, -b * u, tol=1e-13).value

    def lem23_by_quadrature(a, b, v, u, **_):
        return adaptive_quad(lambda x: x ** (a - 1.0) / (1.0 + b * x) ** v, 0.0, u, 1e-11).value

    def psi_k_step(k, x, **_):
        return _kcore.psi_k(k, x + k) - _kcore.psi_k(k, x)

    def x_beta_k_cm_probe(k, **_):
        probe = cm_probe(lambda x: x * _beta.beta_k(k, x), 0.2 * k, 5.0 * k, 0.1 * k, 6)
        return 1.0 if probe.passed else 0.0

    def beta_k_log_convexity(k, x, **_):
        return (2.0 * _beta.beta_k_deriv(k, 1, x) ** 2
                - _beta.beta_k_deriv(k, 2, x) * _beta.beta_k(k, x))

    add("LEM2.3", "int_0^u x^(a-1)/(1+bx)^v dx = (u^a/a) 2F1(v,a;1+a;-bu)", "rel", 1e-7,
        points=_lem23_points, lhs=lem23_by_2f1, rhs=lem23_by_quadrature)
    add("LEM2.4", "psi_k(x + k) = psi_k(x) + 1/x", "abs", 1e-11,
        points=_k_x_points, lhs=psi_k_step, rhs=recip_x)
    add("LEM2.5", "x beta_k(x) is completely monotone (finite-difference probe, order <= 6)",
        "le", 0.0, points=_k_points, lhs=one, rhs=x_beta_k_cm_probe)
    add("LEM2.6", "2 beta_k'(x)^2 - beta_k''(x) beta_k(x) > 0", "lt", 0.0,
        points=_k_x_points, lhs=zero, rhs=beta_k_log_convexity)

    def _lem27_points(grid):
        for k in grid.k_values:
            xs = sorted(u * k for u in grid.x_values)
            for x1, x2 in zip(xs, xs[1:]):
                yield {"k": k, "x": x1, "x_next": x2}

    def lambda_ratio(k, x, **_):
        b = _beta.beta_k(k, x)
        return x * _beta.beta_k_deriv(k, 1, x) / (b * b)

    def lambda_ratio_next(k, x_next, **_):
        return lambda_ratio(k, x_next)

    add("LEM2.7", "x beta_k'(x)/beta_k(x)^2 is strictly decreasing", "lt", 0.0,
        points=_lem27_points, lhs=lambda_ratio_next, rhs=lambda_ratio)

    # ---- section 3: moment integrals -------------------------------------
    def furdui_by_oracle(k, m, **_):
        return _furdui.furdui_oracle(k, m, 1e-11).value

    def furdui_by_thm31(k, m, **_):
        return _furdui.thm31_series(k, m, 1e-11).value

    def furdui_by_thm32_printed(k, m, **_):
        return _furdui.thm32_series(k, m, 1e-11, "as_printed").value

    def furdui_by_thm32_variant(k, m, **_):
        return _furdui.thm32_series(k, m, 1e-11, "sign_variant").value

    def furdui_by_thm33_printed(k, m, **_):
        return _furdui.thm33_series(k, m, 1e-10).value

    def furdui_by_ln_gamma_k_moment(k, m, **_):
        return _furdui.ln_gamma_k_moment(k, m, 1e-9).value

    def furdui_by_thm34(k, m, n, **_):
        return _furdui.thm34_recursion(k, m, n, 1e-9).value

    def furdui_by_thm34_printed(k, m, n, **_):
        # printed middle term (+(-1)^(n+1) k^m n!/m) in place of -n! k^m/(m (m+1)...(m+n))
        return (furdui_by_thm34(k, m, n)
                + math.factorial(n) * k**m / (m * _furdui._rising(m + 1.0, n))
                + (-1.0) ** (n + 1) * k**m * math.factorial(n) / m)

    add("THM3.1", "I(k,m) zeta-series route vs quadrature oracle", "abs", 1e-8,
        points=_k_m_points, lhs=furdui_by_thm31, rhs=furdui_by_oracle)
    add_audit(
        "THM3.2",
        dict(anchor="I(k,m) with the (ln k - m gamma) prefix (as printed)",
             tol=1e-8,
             lhs=furdui_by_thm32_printed,
             # (lhs-rhs)(m+1)/(m k^m) constant -2*gamma diagnoses the prefix sign
             fit=FitPlan("offset", None,
                         lambda rep: ((rep.lhs - rep.rhs) * (rep.params["m"] + 1)
                                      / (rep.params["m"] * rep.params["k"] ** rep.params["m"]), 0.0),
                         lambda _g: -TWO_GAMMA)),
        dict(anchor="I(k,m) with the (ln k + m gamma) prefix",
             tol=1e-7,
             lhs=furdui_by_thm32_variant),
        comparison="abs",
        points=_k_m_points,
        rhs=furdui_by_oracle,
    )
    add_audit(
        "THM3.3",
        dict(anchor="I(k,m) Kummer-expansion route, printed coefficients",
             lhs=furdui_by_thm33_printed,
             # (lhs-rhs)/k^m + 1/m constant ln(pi) diagnoses the 3/2 ln x and
             # sign-of-ln(pi/k) coefficients
             fit=FitPlan("offset", None,
                         lambda rep: ((rep.lhs - rep.rhs) / rep.params["k"] ** rep.params["m"]
                                      + 1.0 / rep.params["m"], 0.0),
                         lambda _g: LN_PI)),
        dict(anchor="I(k,m) = -m int x^(m-1) ln Gamma_k(x) dx (expansion bypassed)",
             lhs=furdui_by_ln_gamma_k_moment),
        comparison="abs",
        tol=1e-7,
        points=_k_m_points,
        rhs=furdui_by_oracle,
    )

    def _thm34_points(grid):
        for k in grid.k_values:
            for m in (1, 2, 3):
                for n in _N_VALUES:
                    yield {"k": k, "m": m, "n": n}

    add("THM3.4-corrected", "I(k,m) hypergeometric recursion vs oracle", "abs", 1e-6,
        points=_thm34_points, lhs=furdui_by_thm34, rhs=furdui_by_oracle)
    add("THM3.4-printed", "I(k,m) recursion with the printed middle term (-1)^(n+1) k^m n!/m",
        "abs", 1e-6, points=_thm34_points, lhs=furdui_by_thm34_printed, rhs=furdui_by_oracle,
        expectation="FAIL")

    def _anchor_points(_grid):
        for method in ("oracle", "thm31", "thm34"):
            yield {"method": method}

    anchor_routes = {"oracle": furdui_by_oracle, "thm31": furdui_by_thm31,
                     "thm34": furdui_by_thm34}
    ln_a = math.log(_scalar.CONSTANTS.glaisher_A)

    def furdui_1_2_by_method(method, **_):
        return anchor_routes[method](k=1.0, m=2, n=1)

    def ln_a_over_sqrt_2pi(**_):
        return ln_a - 0.5 * math.log(2.0 * math.pi)

    def ln_a2_over_sqrt_2pi(**_):
        return 2.0 * ln_a - 0.5 * math.log(2.0 * math.pi)

    add_audit(
        "FURDUI-ANCHOR",
        dict(anchor="I(1,2) = ln(A/sqrt(2 pi)) (as printed; A Glaisher-Kinkelin)",
             rhs=ln_a_over_sqrt_2pi,
             # offset ln(A) diagnoses a missing square: I(1,2) = ln(A^2/sqrt(2 pi))
             fit=FitPlan("offset", None, sides, lambda _g: ln_a)),
        dict(anchor="I(1,2) = ln(A^2/sqrt(2 pi))",
             rhs=ln_a2_over_sqrt_2pi),
        comparison="abs",
        tol=1e-7,
        points=_anchor_points,
        lhs=furdui_1_2_by_method,
    )

    # ---- section 4: Hadamard k-gamma --------------------------------------
    def _thm41_points(grid):
        for k in grid.k_values:
            for j in range(50):
                yield {"k": k, "x": (-1.975 + 0.1 * j) * k}

    def h_shifted_by_continued_beta(k, x, **_):
        # H_k(x + k) = beta_k(-x)/Gamma_k(-x), with beta_k continued to -x < 0
        # through beta_k(z) = 1/z - beta_k(z + k); hadamard_k(k, x + k) where
        # x <= 0 or -x is a pole.  Never the recurrence step at x.
        y = x + k
        if x > 0.0:
            z = k - y
            try:
                return _beta._beta_continued(k, z) * _kcore.rgamma_k(k, z)
            except PoleError:
                pass
        return _hadamard.hadamard_k(k, y)

    def h_recurrence_step(k, x, **_):
        return x * _hadamard.hadamard_k(k, x) + _kcore.rgamma_k(k, k - x)

    add("THM4.1", "H_k(x + k) = x H_k(x) + 1/Gamma_k(k - x), two-route", "abs", 1e-10,
        points=_thm41_points, lhs=h_shifted_by_continued_beta, rhs=h_recurrence_step)

    def _eq47_points(variants_ns):
        def gen(grid):
            for k in grid.k_values:
                for u in (0.3, 0.7, 1.6):
                    for n in variants_ns:
                        yield {"k": k, "x": u * k, "n": n}
        return gen

    def h_closed_form_as_printed(k, x, n, **_):
        # recursion_47_closed_form with the printed (x + 1) in place of (x + k)
        factors = [x + 1.0 if j == 1 else x + j * k for j in range(n)]
        total = _hadamard.hadamard_k(k, x)
        for factor in factors:
            total *= factor
        for r in range(n):
            total += math.prod(factors[r + 1:]) * _kcore.rgamma_k(k, (1 - r) * k - x)
        return total

    add_audit(
        "EQ4.7",
        dict(anchor="n-step closed form with the printed (x+1) factor",
             points=_eq47_points((2, 3)),
             lhs=h_closed_form_as_printed),
        dict(anchor="n-step closed form with the (x+k) factor",
             points=_eq47_points((1, 2, 3)),
             lhs=_hadamard.recursion_47_closed_form),
        comparison="rel",
        tol=1e-9,
        rhs=_hadamard.recursion_47,
    )

    def h_walk(k, x, **_):
        # H_k by the functional-equation walk from a base point in [0, k),
        # so the lhs does not share the far-field route of the rhs
        if x < k:
            return _hadamard.hadamard_k(k, x)
        n = int(math.floor((x - k) / k)) + 1
        return _hadamard.recursion_47(k, max(x - n * k, 0.0), n)

    def h_representation_as_printed(k, x, **_):
        g = _kcore.gamma_k(k, x)
        return g / k - g * _scalar._sinpi(x / k) * _beta.beta_k(k, x) / math.pi

    add_audit(
        "EQ4.8",
        dict(anchor="H_k(x) = Gamma_k(x)/k - Gamma_k(x) sin(pi x/k) beta_k(x)/pi (as printed)",
             lhs=_hadamard.hadamard_k,
             rhs=h_representation_as_printed,
             # lhs/rhs constant per k; the value k restores the k-scaling
             fit=FitPlan("ratio", "k", sides, lambda k: k)),
        dict(anchor="H_k(x) = Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x))",
             lhs=h_walk,
             rhs=_hadamard.representation_48_corrected_rhs),
        comparison="rel",
        tol=1e-10,
        points=lambda g: _k_x_points(g, units=(0.1, 0.35, 0.7, 1.5, 2.5)),
    )

    def _thm43_above_points(grid):
        for k in grid.k_values:
            a0 = _alpha0_root(k)
            base = a0 + 0.01 * k
            for i in range(5):
                for j in range(4):
                    yield {"k": k, "x": base + 0.35 * k * i, "y": base + 0.45 * k * j}

    def _thm43_below_points(grid):
        for k in grid.k_values:
            a0 = _alpha0_root(k)
            for t in (1.01 * k, 1.2 * k, 1.35 * k, 1.45 * k, a0 - 0.02 * k):
                yield {"k": k, "x": t, "y": t}

    def h_weighted_sum(k, x, y, **_):
        return (k ** (y / k) * _hadamard.hadamard_k(k, x)
                + k ** (x / k) * _hadamard.hadamard_k(k, y))

    def h_of_sum(k, x, y, **_):
        return _hadamard.hadamard_k(k, x + y)

    add("THM4.3-above",
        "k^(y/k) H_k(x) + k^(x/k) H_k(y) <= H_k(x+y) for x,y above the threshold",
        "le", SUPERADD_SLACK, points=_thm43_above_points, lhs=h_weighted_sum, rhs=h_of_sum)
    add("THM4.3-below",
        "sharpness witness: the inequality fails for x = y below the threshold",
        "le", SUPERADD_SLACK, points=_thm43_below_points, lhs=h_weighted_sum, rhs=h_of_sum,
        expectation="FAIL")

    def _thm44_points(_grid):
        for j in range(13):
            yield {"x": round(-0.9 + 0.15 * j, 10)}

    # the divergent Phi(1,1,.) pieces only occur as a difference of digammas
    def lerch_alt_410_as_printed(x, **_):
        return 2.0 * x * _scalar.lerch_alt(-x).value

    def lerch_one_diff_410_as_printed(x, **_):
        return _scalar.lerch_one_diff(1.0 - 0.5 * x, 0.5 - 0.5 * x)

    def lerch_alt_410(x, **_):
        return 2.0 * _scalar.lerch_alt(1.0 - x).value

    def lerch_one_diff_410(x, **_):
        return _scalar.lerch_one_diff(0.5 - 0.5 * x, 1.0 - 0.5 * x)

    add_audit(
        "THM4.4",
        dict(anchor="2x Phi(-1,1,-x) = Phi(1,1,1-x/2) - Phi(1,1,1/2-x/2) (as printed)",
             skip=lambda p: "printed form singular at x = 0" if p["x"] == 0.0 else None,
             lhs=lerch_alt_410_as_printed,
             rhs=lerch_one_diff_410_as_printed),
        dict(anchor="2 Phi(-1,1,1-x) = Phi(1,1,1/2-x/2) - Phi(1,1,1-x/2)",
             lhs=lerch_alt_410,
             rhs=lerch_one_diff_410),
        comparison="abs",
        tol=1e-10,
        points=_thm44_points,
    )

    # ---- section 5: Nielsen k-beta ----------------------------------------
    def _thm51_points(grid):
        for k in grid.k_values:
            for u in (0.3, 0.7, 1.3):
                for n in _N_VALUES:
                    yield {"k": k, "x": u, "n": n}

    # sum_{m=1}^n beta_k(a_m) against psi_k(top) - psi_k(kx) - n ln2/k; the
    # printed form has a_m = (2k)^m x and top = 2^n k^n x, and the corrected
    # form, which telescopes for every k, a_m = 2^m k x and top = 2^n k x
    def beta_k_telescope_sum_as_printed(k, x, n, **_):
        return sum(_beta.beta_k(k, (2.0 * k) ** m * x) for m in range(1, n + 1))

    def psi_k_telescoped_as_printed(k, x, n, **_):
        return _kcore.psi_k(k, 2.0**n * k**n * x) - _kcore.psi_k(k, k * x) - n * LN2 / k

    def beta_k_telescope_sum(k, x, n, **_):
        return sum(_beta.beta_k(k, 2.0**m * k * x) for m in range(1, n + 1))

    def psi_k_telescoped(k, x, n, **_):
        return _kcore.psi_k(k, 2.0**n * k * x) - _kcore.psi_k(k, k * x) - n * LN2 / k

    add_audit(
        "THM5.1",
        dict(anchor="telescoping beta_k sum with (2k)^m x arguments (as printed)",
             lhs=beta_k_telescope_sum_as_printed,
             rhs=psi_k_telescoped_as_printed),
        dict(anchor="telescoping beta_k sum with 2^m k x arguments",
             lhs=beta_k_telescope_sum,
             rhs=psi_k_telescoped),
        comparison="abs",
        tol=1e-10,
        points=_thm51_points,
    )

    def beta_k_by_series(k, x, **_):
        return _beta.beta_k_series(k, x, 1e-13).value

    def beta_k_by_integral(k, x, **_):
        return _beta.beta_k_integral(k, x, 1e-9).value

    def beta_k_by_cosh_form(k, x, **_):
        return _beta.beta_k_cosh_form(k, x, 1e-9).value

    def beta_k_at_half_shift(k, x, **_):
        return _beta.beta_k(k, 0.5 * (x + k))

    def beta_k_by_taylor_54(k, x, **_):
        return _beta.beta_taylor_54(k, x, 240).value

    def beta_k_shifted(k, x, **_):
        return _beta.beta_k(k, x + k)

    def beta_k_by_expansion_55(k, x, **_):
        return _beta.beta_expansion_55(k, x, 560, 1e-9).value

    def psi_k_duplicated(k, x, **_):
        return _kcore.psi_k(k, k * x + 0.5 * k)

    add("THM5.2", "beta_k psi-difference route vs alternating series route", "abs", 1e-10,
        points=_k_x_points, lhs=_beta.beta_k, rhs=beta_k_by_series)
    add("EQ5.2-integral", "beta_k vs int_0^1 t^(x-1)/(1+t^k) dt", "abs", 1e-7,
        points=_k_x_points, lhs=_beta.beta_k, rhs=beta_k_by_integral)
    add("THM5.3", "Laplace route int_0^inf e^(-xt)/cosh(kt) dt = beta_k((x+k)/2)", "abs", 1e-7,
        points=lambda g: _k_x_points(g, units=(-0.5, 0.0, 0.35, 1.0, 2.1)),
        lhs=beta_k_by_cosh_form, rhs=beta_k_at_half_shift)
    add("THM5.4", "expansion of beta_k(x + k) around k", "abs", 1e-8,
        points=lambda g: _k_x_points(g, units=(-0.5, 0.1, 0.5, 0.9)),
        lhs=beta_k_by_taylor_54, rhs=beta_k_shifted)
    add("THM5.5", "expansion of beta_k around 0 (power-difference inner sum)", "abs", 1e-8,
        points=lambda g: _k_x_points(g, units=(0.1, 0.5, 0.9)),
        lhs=beta_k_by_expansion_55, rhs=_beta.beta_k)
    add("EQ5.55", "k-duplication, differentiated form", "abs", 1e-11,
        points=lambda g: _k_x_points(g, scaled=False),
        lhs=psi_k_duplicated, rhs=_kcore.psi_k_duplication_rhs)

    def gamma_k_doubled(k, x, **_):
        return _kcore.gamma_k(k, 2.0 * k * x)

    def duplication_product(c, k, x):
        return (2.0 ** (2.0 * x - 1.0) * c * _kcore.gamma_k(k, k * x)
                * _kcore.gamma_k(k, k * x + 0.5 * k))

    def gamma_k_duplication_as_printed(k, x, **_):
        return duplication_product(1.0 / math.sqrt(k * math.pi), k, x)

    def gamma_k_duplication(k, x, **_):
        return duplication_product(math.sqrt(k / math.pi), k, x)

    add_audit(
        "EQ5.5",
        dict(anchor="k-duplication with constant 2^(2x-1)/sqrt(k pi) (as printed)",
             rhs=gamma_k_duplication_as_printed,
             # lhs/rhs constant per k; k corrects 1/sqrt(k pi) to sqrt(k/pi)
             fit=FitPlan("ratio", "k", sides, lambda k: k)),
        dict(anchor="k-duplication with constant 2^(2x-1) sqrt(k/pi)",
             rhs=gamma_k_duplication),
        comparison="rel",
        tol=1e-10,
        points=lambda g: _k_x_points(g, units=(0.3, 0.8, 1.4), scaled=False),
        lhs=gamma_k_doubled,
    )

    def beta_k_step_sum(k, x, **_):
        # beta_k(x + k) by the psi route, beta_k(x) by the series route
        return beta_k_shifted(k, x) + beta_k_by_series(k, x)

    def beta_k_harmonic_mean(k, x, **_):
        b1 = _beta.beta_k(k, x)
        b2 = _beta.beta_k(k, k * k / x)
        return 2.0 * b1 * b2 / (b1 + b2)

    def ln2_over_k(k, **_):
        # beta_k(k) in closed form
        return LN2 / k

    add("EQ5.11", "beta_k(x + k) + beta_k(x) = 1/x (two independent beta routes)", "abs", 1e-11,
        points=_k_x_points, lhs=beta_k_step_sum, rhs=recip_x)
    add("THM5.6", "harmonic mean of beta_k(x), beta_k(k^2/x) <= beta_k(k)", "le", 1e-12,
        points=_k_x_points, lhs=beta_k_harmonic_mean, rhs=ln2_over_k)
    add("THM5.6-equality", "equality case x = k of the harmonic-mean bound", "abs", 1e-12,
        points=lambda g: _k_x_points(g, units=(1.0,)), lhs=beta_k_harmonic_mean, rhs=ln2_over_k)

    def _remark5_points(grid):
        return _k_x_points(grid, units=(0.1, 0.35, 0.7, 0.9))

    def beta_k_lower_bound(k, x, **_):
        return 1.0 / x - LN2 / k

    def beta_k_refined_upper_bound(k, x, **_):
        return beta_k_lower_bound(k, x) + math.pi**2 * x / (12.0 * k ** 2)

    add("REMARK5-lower", "1/x - ln2/k < beta_k(x) on (0, k)", "lt", 0.0,
        points=_remark5_points, lhs=beta_k_lower_bound, rhs=_beta.beta_k)
    add("REMARK5-upper", "beta_k(x) < 1/x on (0, k)", "lt", 0.0,
        points=_remark5_points, lhs=_beta.beta_k, rhs=recip_x)
    add("REMARK5-refined", "beta_k(x) < 1/x - ln2/k + pi^2 x/(12 k^2) on (0, k)", "lt", 0.0,
        points=_remark5_points, lhs=_beta.beta_k, rhs=beta_k_refined_upper_bound)

    # ---- structural invariants --------------------------------------------
    def beta_k_by_scaling(k, x, **_):
        return _beta.beta_k(1.0, x / k) / k

    def hadamard_k_by_scaling(k, x, **_):
        return k ** (x / k - 1.0) * _hadamard.hadamard_k(1.0, x / k)

    def hadamard_k_at_k(k, **_):
        return _hadamard.hadamard_k(k, k)

    def hadamard_1_at_n(n, **_):
        return _hadamard.hadamard_k(1.0, float(n))

    def factorial_n_minus_1(n, **_):
        return float(math.factorial(n - 1))

    def hadamard_k_seam_mean(k, **_):
        return 0.5 * (_hadamard.hadamard_k(k, k * (1.0 + 1e-5))
                      + _hadamard.hadamard_k(k, k * (1.0 - 1e-5)))

    def alpha0(k, **_):
        # a positional call shares the lru_cache key of the THM4.3 grids
        return _alpha0_root(k)

    def alpha0_by_scaling(k, **_):
        return k * _alpha0_root(1.0)

    add("SCALING-BETA", "beta_k(x) = beta_1(x/k)/k", "rel", 1e-11,
        points=_k_x_points, lhs=_beta.beta_k, rhs=beta_k_by_scaling)
    add("SCALING-H", "H_k(x) = k^(x/k - 1) H(x/k)", "abs", 1e-10,
        points=lambda g: _k_x_points(g, units=(-1.7, -0.6, 0.3, 1.4, 2.6, 4.3)),
        lhs=_hadamard.hadamard_k, rhs=hadamard_k_by_scaling)
    add("H-AT-K", "H_k(k) = 1", "abs", 1e-12,
        points=_k_points, lhs=hadamard_k_at_k, rhs=one)
    add("H-FACTORIAL", "H(n) = (n-1)! at k = 1", "abs", 1e-10,
        points=lambda g: ({"n": n} for n in (1, 2, 3, 4, 5)),
        lhs=hadamard_1_at_n, rhs=factorial_n_minus_1)
    add("H-SEAM", "continuity of H_k across the evaluation seam at x = k", "abs", 1e-9,
        points=_k_points, lhs=hadamard_k_seam_mean, rhs=hadamard_k_at_k)
    add("ALPHA0-SCALING", "alpha0(k) = k alpha0(1)", "abs", 1e-8,
        points=lambda g: ({"k": k} for k in g.k_values if k != 1.0),
        lhs=alpha0, rhs=alpha0_by_scaling)
    return e


_ENTRIES: list[IdentityEntry] | None = None


def _entries() -> list[IdentityEntry]:
    global _ENTRIES
    if _ENTRIES is None:
        built = _build_entries()
        ids = [entry.id for entry in built]
        if len(ids) != len(set(ids)):
            raise RuntimeError("duplicate identity ids in registry")
        _ENTRIES = built
    return _ENTRIES


def registry_ids() -> list[str]:
    return [entry.id for entry in _entries()]


def get_entry(identity_id: str) -> IdentityEntry:
    for entry in _entries():
        if entry.id == identity_id:
            return entry
    raise DomainError(f"unknown identity id {identity_id!r}")


def _verdict(entry: IdentityEntry, lhs: float, rhs: float, tol: float):
    abs_diff = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs))
    rel_diff = abs_diff / denom if denom > 0.0 else 0.0
    if entry.comparison == "abs":
        ok = abs_diff <= tol
    elif entry.comparison == "rel":
        ok = rel_diff <= tol
    elif entry.comparison == "le":
        ok = lhs <= rhs + tol
    elif entry.comparison == "lt":
        ok = lhs < rhs
    else:  # pragma: no cover - registry construction guards this
        raise DomainError(f"unknown comparison {entry.comparison!r}")
    return abs_diff, rel_diff, "PASS" if ok else "FAIL"


def _param_key(report: IdentityReport):
    return report.identity_id, tuple(sorted(report.params.items()))


def run_identity(identity_id: str, grid: GridSpec | None = None,
                 tol_override: float | None = None) -> list[IdentityReport]:
    """Evaluate one registered identity over the grid.

    Pole-excluded or out-of-domain points, and points where a side is
    not finite, yield SKIP reports; output is deterministic, ordered by
    (id, parameter tuple).
    """
    grid = grid or default_grid()
    entry = get_entry(identity_id)
    if tol_override is None:
        tol = entry.tol
    else:
        tol = float(tol_override)
        if not 0.0 <= tol < math.inf:
            raise DomainError(f"tol override must be finite and >= 0, got {tol_override!r}")
    reports = []
    for params in entry.points(grid):
        if entry.skip is not None:
            reason = entry.skip(params)
            if reason:
                reports.append(IdentityReport(entry.id, dict(params), None, None,
                                              None, None, "SKIP", reason))
                continue
        try:
            lhs, rhs = entry.lhs(**params), entry.rhs(**params)
        except (DomainError, PoleError, OverflowError) as exc:
            reports.append(IdentityReport(entry.id, dict(params), None, None,
                                          None, None, "SKIP", f"{type(exc).__name__}: {exc}"))
            continue
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            # no verdict rule holds for inf or nan, and JSON cannot carry them
            sides = " and ".join(side for side, value in (("lhs", lhs), ("rhs", rhs))
                                 if not math.isfinite(value))
            reports.append(IdentityReport(entry.id, dict(params), None, None,
                                          None, None, "SKIP", f"non-finite {sides}"))
            continue
        abs_diff, rel_diff, verdict = _verdict(entry, lhs, rhs, tol)
        reports.append(IdentityReport(entry.id, dict(params), lhs, rhs,
                                      abs_diff, rel_diff, verdict, entry.anchor))
    reports.sort(key=_param_key)
    return reports


def fits_for(entry: IdentityEntry, reports: list[IdentityReport]) -> tuple[FitRecord, ...]:
    if entry.fit is None:
        return ()
    plan = entry.fit
    usable = [r for r in reports if r.verdict != "SKIP"]
    groups: dict = {}
    for rep in usable:
        key = rep.params[plan.group_by] if plan.group_by else None
        groups.setdefault(key, []).append(rep)
    records = []
    for key in sorted(groups, key=lambda v: (str(type(v)), v)):
        pairs = [plan.transform(rep) for rep in groups[key]]
        if len(pairs) < 3:
            continue
        fit = fit_discrepancy(pairs, plan.mode)
        expected = plan.expected(key) if plan.expected is not None else None
        label = entry.id if key is None else f"{entry.id}[{plan.group_by}={key!r}]"
        records.append(FitRecord(label, fit, expected))
    return tuple(records)


def run_all(grid: GridSpec | None = None) -> RunSummary:
    """Run every registered identity; summarise per-id counts and fits.

    ``overall_ok`` is true when every expectation-PASS entry produced
    zero FAIL verdicts; expected-to-fail audit entries never make a run
    red (their FAILs are the documented misprint evidence).
    """
    grid = grid or default_grid()
    all_reports: list[IdentityReport] = []
    summaries = []
    for entry in _entries():
        reports = run_identity(entry.id, grid)
        all_reports.extend(reports)
        n_pass = sum(r.verdict == "PASS" for r in reports)
        n_fail = sum(r.verdict == "FAIL" for r in reports)
        n_skip = sum(r.verdict == "SKIP" for r in reports)
        worst_abs = max((r.abs_diff for r in reports if r.abs_diff is not None), default=0.0)
        worst_rel = max((r.rel_diff for r in reports if r.rel_diff is not None), default=0.0)
        fits = fits_for(entry, reports)
        if entry.expectation == "PASS":
            satisfied = n_fail == 0
        else:
            satisfied = n_fail >= 1
        summaries.append(EntrySummary(entry.id, entry.expectation, n_pass, n_fail,
                                      n_skip, worst_abs, worst_rel, fits, satisfied))
    all_reports.sort(key=_param_key)
    overall = all(s.satisfied for s in summaries if s.expectation == "PASS")
    return RunSummary(tuple(summaries), tuple(all_reports), overall)


def _json_scalar(value) -> str:
    # the text json.dumps(..., allow_nan=False) gives a scalar value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                "Out of range float values are not JSON compliant: " + repr(value))
        return float.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_params(params: dict) -> str:
    if not params:
        return "{}"
    items = ",\n".join(f"      {encode_basestring_ascii(name)}: {_json_scalar(value)}"
                       for name, value in params.items())
    return "{\n" + items + "\n    }"


_JSON_REPORT = (
    '  {{\n'
    '    "identity_id": {},\n'
    '    "params": {},\n'
    '    "lhs": {},\n'
    '    "rhs": {},\n'
    '    "abs_diff": {},\n'
    '    "rel_diff": {},\n'
    '    "verdict": {},\n'
    '    "note": {}\n'
    '  }}'
)


def reports_to_json(reports) -> str:
    """The reports as a JSON array, byte for byte what
    ``json.dumps(payload, indent=2, allow_nan=False) + "\\n"`` gives for
    the list of report dicts (field order as in IdentityReport), without
    the pure-Python encoder that ``indent`` forces.  A non-finite float
    raises ValueError."""
    items = [
        _JSON_REPORT.format(
            encode_basestring_ascii(r.identity_id),
            _json_params(r.params),
            _json_scalar(r.lhs),
            _json_scalar(r.rhs),
            _json_scalar(r.abs_diff),
            _json_scalar(r.rel_diff),
            encode_basestring_ascii(r.verdict),
            encode_basestring_ascii(r.note),
        )
        for r in reports
    ]
    if not items:
        return "[]\n"
    return "[\n" + ",\n".join(items) + "\n]\n"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reports_to_csv(reports) -> str:
    names = sorted({name for r in reports for name in r.params})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *names, "lhs", "rhs", "abs_diff", "rel_diff", "verdict"])
    for r in reports:
        row = [r.identity_id]
        row.extend(_csv_cell(r.params.get(name)) for name in names)
        row.extend(_csv_cell(v) for v in (r.lhs, r.rhs, r.abs_diff, r.rel_diff))
        row.append(r.verdict)
        writer.writerow(row)
    return buf.getvalue()


def _scan_derivative(k: float, j: int, x: float) -> float:
    # f(x) = x beta_k(x):  f^(j) = x beta_k^(j) + j beta_k^(j-1)
    if j == 0:
        return x * _beta.beta_k(k, x)
    return x * _beta.beta_k_deriv(k, j, x) + j * _beta.beta_k_deriv(k, j - 1, x)


def openproblem_scan(k, n_max: int, grid: GridSpec | None = None) -> list[ScanTable]:
    """Sample g_n(x) = f^(n+1) / (f^(n) f^(n+2)) with f(x) = x beta_k(x).

    Emits a value table and a monotonicity verdict per n in 0..n_max.
    This is evidence-gathering for an open monotonicity question, not a
    proof of anything; near-zero denominators are skipped.
    """
    k = _kcore.k_value(k)
    if not isinstance(n_max, int) or not 0 <= n_max <= 4:
        raise DomainError(f"openproblem_scan requires integer 0 <= n_max <= 4, got {n_max!r}")
    grid = grid or default_grid()
    xs = sorted(u * k for u in grid.x_values)
    if not xs or xs[0] <= 0.0:
        raise DomainError("scan grid x values must be positive")
    tables = []
    for n in range(n_max + 1):
        rows = []
        for x in xs:
            num = _scan_derivative(k, n + 1, x)
            den = _scan_derivative(k, n, x) * _scan_derivative(k, n + 2, x)
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
