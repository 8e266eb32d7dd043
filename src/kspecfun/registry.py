"""Identity catalogue and grid runner.

Every identity the library cares about is a registered entry with an
id, a parameter grid, two independently evaluated sides and an expected
verdict class.  Identities suspected of carrying a misprint are
registered twice: an ``-printed`` entry that is allowed (expected) to
fail, and a ``-corrected`` entry that must pass.  Where the discrepancy
has constant-factor or constant-offset structure, a fit hypothesis is
attached so the run diagnoses the misprint instead of merely flagging
it.
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
from .reports import IdentityReport

__all__ = [
    "GridSpec",
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
        "k_values x_values exclusion_radius",
        defaults=((0.5, 1.0, 2.0, math.pi), (0.1, 0.35, 0.7, 1.0, 1.5, 2.5, 5.0), 1e-3),
    )
):
    """Evaluation grid: k values, unit x values (scaled by k where the
    identity's natural variable is x/k) and the pole exclusion radius; m
    and n always run over ``_M_VALUES`` and ``_N_VALUES``."""

    __slots__ = ()
    k_values: tuple
    x_values: tuple
    exclusion_radius: float

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(k <= 0 for k in self.k_values):
            raise DomainError("all grid k values must be > 0")
        if self.exclusion_radius < 0:
            raise DomainError("exclusion_radius must be >= 0")
        return self


_M_VALUES = (1, 2, 3, 4, 5, 6)
_N_VALUES = (1, 2, 3)


def default_grid() -> GridSpec:
    return GridSpec()


class FitPlan(namedtuple("FitPlan", "mode group_by transform expected description")):
    """How to fit a discrepancy constant from an entry's reports."""

    __slots__ = ()
    mode: str  # 'ratio' | 'offset'
    group_by: str | None  # param name to group on, or None for one global fit
    transform: Callable  # IdentityReport -> (lhs, rhs) pair for the fit
    expected: Callable | None  # group value -> documented constant
    description: str


class FitRecord(namedtuple("FitRecord", "label fit expected")):
    __slots__ = ()
    label: str
    fit: DiscrepancyFit
    expected: float | None


class IdentityEntry(
    namedtuple(
        "IdentityEntry",
        "id anchor comparison tol expectation points evaluate skip fit",
        defaults=(None, None),
    )
):
    __slots__ = ()
    id: str
    anchor: str
    comparison: str  # 'abs' | 'rel' | 'le' | 'lt' | 'ge'
    tol: float
    expectation: str  # 'PASS' | 'FAIL'
    points: Callable[[GridSpec], Iterable[dict]]
    evaluate: Callable[[dict], tuple]
    skip: Callable | None
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
TWO_GAMMA = 2.0 * _scalar.CONSTANTS.euler_gamma


@lru_cache(maxsize=32)
def _alpha0_root(k: float) -> float:
    return _hadamard.alpha0_solve(k, 1e-10).root


def _lambda_ratio(k: float, x: float) -> float:
    b = _beta.beta_k(k, x)
    return x * _beta.beta_k_deriv(k, 1, x) / (b * b)


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
    e: list[IdentityEntry] = []
    add = e.append

    # ---- section 1: recurrences and series routes -----------------------
    add(IdentityEntry(
        id="EQ1.1",
        anchor="Gamma_k(x + k) = x Gamma_k(x)",
        comparison="rel",
        tol=1e-11,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_kcore.gamma_k(p["k"], p["x"] + p["k"]),
                            p["x"] * _kcore.gamma_k(p["k"], p["x"])),
    ))
    add(IdentityEntry(
        id="EQ1.2",
        anchor="psi_k reduction route vs direct series route",
        comparison="abs",
        tol=1e-10,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_kcore.psi_k(p["k"], p["x"]),
                            _kcore.psi_k_series(p["k"], p["x"], 1e-12).value),
    ))
    add(IdentityEntry(
        id="EQ1.3",
        anchor="psi_k^(m) scaling route vs direct series route",
        comparison="rel",
        tol=1e-10,
        expectation="PASS",
        points=lambda g: ({"k": k, "m": m, "x": u * k}
                          for k in g.k_values for m in _M_VALUES for u in (0.1, 0.7, 2.5)),
        evaluate=lambda p: (_kcore.psi_k_m(p["k"], p["m"], p["x"]),
                            _kcore.psi_k_m_series(p["k"], p["m"], p["x"], 1e-11).value),
    ))

    # ---- section 2: reductions, reflection, the 2F1 integral -------------
    add(IdentityEntry(
        id="EQ2.1",
        anchor="Gamma_k(x) = k^(x/k-1) Gamma(x/k)",
        comparison="rel",
        tol=1e-12,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_kcore.gamma_k(p["k"], p["x"]),
                            p["k"] ** (p["x"] / p["k"] - 1.0) * math.gamma(p["x"] / p["k"])),
    ))

    def _eq22_points(grid):
        return _k_x_points(grid, units=(0.1, 0.35, 0.7), scaled=True)

    def _eq22_skip(p, grid):
        k, x = p["k"], p["x"]
        r = grid.exclusion_radius * k
        if min(x, k - x) <= r:
            return "pole exclusion: x too close to a Gamma_k pole"
        return None

    add(IdentityEntry(
        id="EQ2.2-printed",
        anchor="Gamma_k(x) Gamma_k(k-x) = pi / sin(pi x/k) (as printed)",
        comparison="rel",
        tol=1e-10,
        expectation="FAIL",
        points=_eq22_points,
        skip=_eq22_skip,
        evaluate=lambda p: (_kcore.gamma_k(p["k"], p["x"]) * _kcore.gamma_k(p["k"], p["k"] - p["x"]),
                            math.pi / _scalar._sinpi(p["x"] / p["k"])),
        fit=FitPlan("ratio", "k", lambda rep: (rep.lhs, rep.rhs),
                    lambda k: 1.0 / k,
                    "lhs/rhs constant per k; 1/k confirms the reduction-route constant pi/k"),
    ))
    add(IdentityEntry(
        id="EQ2.2-corrected",
        anchor="Gamma_k(x) Gamma_k(k-x) = (pi/k) / sin(pi x/k)",
        comparison="rel",
        tol=1e-10,
        expectation="PASS",
        points=_eq22_points,
        skip=_eq22_skip,
        evaluate=lambda p: (_kcore.gamma_k(p["k"], p["x"]) * _kcore.gamma_k(p["k"], p["k"] - p["x"]),
                            math.pi / (p["k"] * _scalar._sinpi(p["x"] / p["k"]))),
    ))
    add(IdentityEntry(
        id="LEM2.2",
        anchor="psi_k is the log-derivative of Gamma_k",
        comparison="abs",
        tol=1e-6,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_kcore.psi_k(p["k"], p["x"]),
                            finite_diff(lambda t: _kcore.ln_gamma_k(p["k"], t), p["x"], 1)),
    ))

    def _lem23_points(grid):
        for (a, b, v) in ((1.5, 0.5, 1.0), (3.0, 1.0, 2.0), (2.0, 1.0, 2.5), (3.0, 0.5, 2.0)):
            yield {"a": a, "b": b, "v": v, "u": 1.0}

    def _lem23_eval(p):
        a, b, v, u = p["a"], p["b"], p["v"], p["u"]
        lhs = u**a / a * _scalar.gauss_2f1(v, a, 1.0 + a, -b * u, tol=1e-13).value
        rhs = adaptive_quad(lambda x: x ** (a - 1.0) / (1.0 + b * x) ** v, 0.0, u, 1e-11).value
        return lhs, rhs

    add(IdentityEntry(
        id="LEM2.3",
        anchor="int_0^u x^(a-1)/(1+bx)^v dx = (u^a/a) 2F1(v,a;1+a;-bu)",
        comparison="rel",
        tol=1e-7,
        expectation="PASS",
        points=_lem23_points,
        evaluate=_lem23_eval,
    ))
    add(IdentityEntry(
        id="LEM2.4",
        anchor="psi_k(x + k) = psi_k(x) + 1/x",
        comparison="abs",
        tol=1e-11,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_kcore.psi_k(p["k"], p["x"] + p["k"]) - _kcore.psi_k(p["k"], p["x"]),
                            1.0 / p["x"]),
    ))

    def _lem25_eval(p):
        k = p["k"]
        probe = cm_probe(lambda x: x * _beta.beta_k(k, x), 0.2 * k, 5.0 * k, 0.1 * k, 6)
        return (1.0 if probe.passed else 0.0), 1.0

    add(IdentityEntry(
        id="LEM2.5",
        anchor="x beta_k(x) is completely monotone (finite-difference probe, order <= 6)",
        comparison="ge",
        tol=0.0,
        expectation="PASS",
        points=_k_points,
        evaluate=_lem25_eval,
    ))
    add(IdentityEntry(
        id="LEM2.6",
        anchor="2 beta_k'(x)^2 - beta_k''(x) beta_k(x) > 0",
        comparison="lt",
        tol=0.0,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (0.0,
                            2.0 * _beta.beta_k_deriv(p["k"], 1, p["x"]) ** 2
                            - _beta.beta_k_deriv(p["k"], 2, p["x"]) * _beta.beta_k(p["k"], p["x"])),
    ))

    def _lem27_points(grid):
        for k in grid.k_values:
            xs = sorted(u * k for u in grid.x_values)
            for x1, x2 in zip(xs, xs[1:]):
                yield {"k": k, "x": x1, "x_next": x2}

    add(IdentityEntry(
        id="LEM2.7",
        anchor="x beta_k'(x)/beta_k(x)^2 is strictly decreasing",
        comparison="lt",
        tol=0.0,
        expectation="PASS",
        points=_lem27_points,
        evaluate=lambda p: (_lambda_ratio(p["k"], p["x_next"]), _lambda_ratio(p["k"], p["x"])),
    ))

    # ---- section 3: moment integrals -------------------------------------
    add(IdentityEntry(
        id="THM3.1",
        anchor="I(k,m) zeta-series route vs quadrature oracle",
        comparison="abs",
        tol=1e-8,
        expectation="PASS",
        points=_k_m_points,
        evaluate=lambda p: (_furdui.thm31_series(p["k"], p["m"], 1e-11).value,
                            _furdui.furdui_oracle(p["k"], p["m"], 1e-11).value),
    ))
    add(IdentityEntry(
        id="THM3.2-printed",
        anchor="I(k,m) with the (ln k - m gamma) prefix (as printed)",
        comparison="abs",
        tol=1e-8,
        expectation="FAIL",
        points=_k_m_points,
        evaluate=lambda p: (_furdui.thm32_series(p["k"], p["m"], 1e-11, "as_printed").value,
                            _furdui.furdui_oracle(p["k"], p["m"], 1e-11).value),
        fit=FitPlan("offset", None,
                    lambda rep: ((rep.lhs - rep.rhs) * (rep.params["m"] + 1)
                                 / (rep.params["m"] * rep.params["k"] ** rep.params["m"]), 0.0),
                    lambda _g: -TWO_GAMMA,
                    "(lhs-rhs)(m+1)/(m k^m) constant -2*gamma diagnoses the prefix sign"),
    ))
    add(IdentityEntry(
        id="THM3.2-corrected",
        anchor="I(k,m) with the (ln k + m gamma) prefix",
        comparison="abs",
        tol=1e-7,
        expectation="PASS",
        points=_k_m_points,
        evaluate=lambda p: (_furdui.thm32_series(p["k"], p["m"], 1e-11, "sign_variant").value,
                            _furdui.furdui_oracle(p["k"], p["m"], 1e-11).value),
    ))
    add(IdentityEntry(
        id="THM3.3-printed",
        anchor="I(k,m) Kummer-expansion route, printed coefficients",
        comparison="abs",
        tol=1e-7,
        expectation="FAIL",
        points=_k_m_points,
        evaluate=lambda p: (_furdui.thm33_series(p["k"], p["m"], 1e-10, "as_printed").value,
                            _furdui.furdui_oracle(p["k"], p["m"], 1e-11).value),
        fit=FitPlan("offset", None,
                    lambda rep: ((rep.lhs - rep.rhs) / rep.params["k"] ** rep.params["m"]
                                 + 1.0 / rep.params["m"], 0.0),
                    lambda _g: LN_PI,
                    "(lhs-rhs)/k^m + 1/m constant ln(pi) diagnoses the 3/2 ln x"
                    " and sign-of-ln(pi/k) coefficients"),
    ))
    add(IdentityEntry(
        id="THM3.3-corrected",
        anchor="I(k,m) = -m int x^(m-1) ln Gamma_k(x) dx (expansion bypassed)",
        comparison="abs",
        tol=1e-7,
        expectation="PASS",
        points=_k_m_points,
        evaluate=lambda p: (_furdui.thm33_series(p["k"], p["m"], 1e-9, "lnGamma_audit").value,
                            _furdui.furdui_oracle(p["k"], p["m"], 1e-11).value),
    ))

    def _thm34_points(grid):
        for k in grid.k_values:
            for m in (1, 2, 3):
                for n in _N_VALUES:
                    yield {"k": k, "m": m, "n": n}

    add(IdentityEntry(
        id="THM3.4-corrected",
        anchor="I(k,m) hypergeometric recursion vs oracle",
        comparison="abs",
        tol=1e-6,
        expectation="PASS",
        points=_thm34_points,
        evaluate=lambda p: (_furdui.thm34_recursion(p["k"], p["m"], p["n"], 1e-9).value,
                            _furdui.furdui_oracle(p["k"], p["m"], 1e-11).value),
    ))

    def _thm34_printed_eval(p):
        k, m, n = p["k"], p["m"], p["n"]
        corrected = _furdui.thm34_recursion(k, m, n, 1e-9).value
        rising = 1.0
        for i in range(n):
            rising *= m + 1.0 + i
        # printed middle term (+(-1)^(n+1) k^m n!/m) in place of -n! k^m/(m (m+1)...(m+n))
        printed = corrected + math.factorial(n) * k**m / (m * rising) \
            + (-1.0) ** (n + 1) * k**m * math.factorial(n) / m
        return printed, _furdui.furdui_oracle(k, m, 1e-11).value

    add(IdentityEntry(
        id="THM3.4-printed",
        anchor="I(k,m) recursion with the printed middle term (-1)^(n+1) k^m n!/m",
        comparison="abs",
        tol=1e-6,
        expectation="FAIL",
        points=_thm34_points,
        evaluate=_thm34_printed_eval,
    ))

    def _anchor_points(_grid):
        for method in ("oracle", "thm31", "thm34"):
            yield {"method": method}

    def _anchor_value(method):
        if method == "oracle":
            return _furdui.furdui_oracle(1.0, 2, 1e-11).value
        if method == "thm31":
            return _furdui.thm31_series(1.0, 2, 1e-11).value
        return _furdui.thm34_recursion(1.0, 2, 1, 1e-9).value

    _A = _scalar.CONSTANTS.glaisher_A
    _anchor_printed = math.log(_A) - 0.5 * math.log(2.0 * math.pi)
    _anchor_true = 2.0 * math.log(_A) - 0.5 * math.log(2.0 * math.pi)

    add(IdentityEntry(
        id="FURDUI-ANCHOR-printed",
        anchor="I(1,2) = ln(A/sqrt(2 pi)) (as printed; A Glaisher-Kinkelin)",
        comparison="abs",
        tol=1e-7,
        expectation="FAIL",
        points=_anchor_points,
        evaluate=lambda p: (_anchor_value(p["method"]), _anchor_printed),
        fit=FitPlan("offset", None, lambda rep: (rep.lhs, rep.rhs),
                    lambda _g: math.log(_A),
                    "offset ln(A) diagnoses a missing square: I(1,2) = ln(A^2/sqrt(2 pi))"),
    ))
    add(IdentityEntry(
        id="FURDUI-ANCHOR-corrected",
        anchor="I(1,2) = ln(A^2/sqrt(2 pi))",
        comparison="abs",
        tol=1e-7,
        expectation="PASS",
        points=_anchor_points,
        evaluate=lambda p: (_anchor_value(p["method"]), _anchor_true),
    ))

    # ---- section 4: Hadamard k-gamma --------------------------------------
    def _thm41_points(grid):
        for k in grid.k_values:
            for j in range(50):
                yield {"k": k, "x": (-1.975 + 0.1 * j) * k}

    add(IdentityEntry(
        id="THM4.1",
        anchor="H_k(x + k) = x H_k(x) + 1/Gamma_k(k - x), two-route",
        comparison="abs",
        tol=1e-10,
        expectation="PASS",
        points=_thm41_points,
        evaluate=lambda p: _hadamard.functional_eq_41(p["k"], p["x"]),
    ))

    def _eq47_points(variants_ns):
        def gen(grid):
            for k in grid.k_values:
                for u in (0.3, 0.7, 1.6):
                    for n in variants_ns:
                        yield {"k": k, "x": u * k, "n": n}
        return gen

    add(IdentityEntry(
        id="EQ4.7-printed",
        anchor="n-step closed form with the printed (x+1) factor",
        comparison="rel",
        tol=1e-9,
        expectation="FAIL",
        points=_eq47_points((2, 3)),
        evaluate=lambda p: (_hadamard.recursion_47_closed_form(p["k"], p["x"], p["n"], "as_printed"),
                            _hadamard.recursion_47(p["k"], p["x"], p["n"])),
    ))
    add(IdentityEntry(
        id="EQ4.7-corrected",
        anchor="n-step closed form with the (x+k) factor",
        comparison="rel",
        tol=1e-9,
        expectation="PASS",
        points=_eq47_points((1, 2, 3)),
        evaluate=lambda p: (_hadamard.recursion_47_closed_form(p["k"], p["x"], p["n"], "corrected"),
                            _hadamard.recursion_47(p["k"], p["x"], p["n"])),
    ))

    def _h_walk(k, x):
        # H_k by the functional-equation walk from a base point in [0, k),
        # so the lhs does not share the far-field route of the rhs
        if x < k:
            return _hadamard.hadamard_k(k, x)
        n = int(math.floor((x - k) / k)) + 1
        return _hadamard.recursion_47(k, max(x - n * k, 0.0), n)

    def _eq48_points(grid):
        return _k_x_points(grid, units=(0.1, 0.35, 0.7, 1.5, 2.5), scaled=True)

    def _eq48_skip(p, grid):
        k, x = p["k"], p["x"]
        if abs(x / k - round(x / k)) < grid.exclusion_radius:
            return "sin(pi x/k) cancellation exclusion near multiples of k"
        return None

    add(IdentityEntry(
        id="EQ4.8-printed",
        anchor="H_k(x) = Gamma_k(x)/k - Gamma_k(x) sin(pi x/k) beta_k(x)/pi (as printed)",
        comparison="rel",
        tol=1e-10,
        expectation="FAIL",
        points=_eq48_points,
        skip=_eq48_skip,
        evaluate=lambda p: _hadamard.representation_48(p["k"], p["x"]),
        fit=FitPlan("ratio", "k", lambda rep: (rep.lhs, rep.rhs),
                    lambda k: k,
                    "lhs/rhs constant per k; the value k restores the k-scaling"),
    ))
    add(IdentityEntry(
        id="EQ4.8-corrected",
        anchor="H_k(x) = Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x))",
        comparison="rel",
        tol=1e-10,
        expectation="PASS",
        points=_eq48_points,
        skip=_eq48_skip,
        evaluate=lambda p: (_h_walk(p["k"], p["x"]),
                            _hadamard.representation_48_corrected_rhs(p["k"], p["x"])),
    ))

    def _thm43_above_points(grid):
        for k in grid.k_values:
            a0 = _alpha0_root(k)
            base = a0 + 0.01 * k
            for i in range(5):
                for j in range(4):
                    yield {"k": k, "x": base + 0.35 * k * i, "y": base + 0.45 * k * j}

    def _thm43_eval(p):
        rep = _hadamard.superadditivity_check_43(p["k"], p["x"], p["y"])
        return rep.lhs, rep.rhs

    add(IdentityEntry(
        id="THM4.3-above",
        anchor="k^(y/k) H_k(x) + k^(x/k) H_k(y) <= H_k(x+y) for x,y above the threshold",
        comparison="le",
        tol=_hadamard.SUPERADD_SLACK,
        expectation="PASS",
        points=_thm43_above_points,
        evaluate=_thm43_eval,
    ))

    def _thm43_below_points(grid):
        for k in grid.k_values:
            a0 = _alpha0_root(k)
            for t in (1.01 * k, 1.2 * k, 1.35 * k, 1.45 * k, a0 - 0.02 * k):
                yield {"k": k, "x": t, "y": t}

    add(IdentityEntry(
        id="THM4.3-below",
        anchor="sharpness witness: the inequality fails for x = y below the threshold",
        comparison="le",
        tol=_hadamard.SUPERADD_SLACK,
        expectation="FAIL",
        points=_thm43_below_points,
        evaluate=_thm43_eval,
    ))

    def _thm44_points(_grid):
        for j in range(13):
            yield {"x": round(-0.9 + 0.15 * j, 10)}

    add(IdentityEntry(
        id="THM4.4-printed",
        anchor="2x Phi(-1,1,-x) = Phi(1,1,1-x/2) - Phi(1,1,1/2-x/2) (as printed)",
        comparison="abs",
        tol=1e-10,
        expectation="FAIL",
        points=_thm44_points,
        skip=lambda p, g: "printed form singular at x = 0" if p["x"] == 0.0 else None,
        evaluate=lambda p: _hadamard.lerch_identity_410(p["x"], "as_printed"),
    ))
    add(IdentityEntry(
        id="THM4.4-corrected",
        anchor="2 Phi(-1,1,1-x) = Phi(1,1,1/2-x/2) - Phi(1,1,1-x/2)",
        comparison="abs",
        tol=1e-10,
        expectation="PASS",
        points=_thm44_points,
        evaluate=lambda p: _hadamard.lerch_identity_410(p["x"], "corrected"),
    ))

    # ---- section 5: Nielsen k-beta ----------------------------------------
    def _thm51_points(grid):
        for k in grid.k_values:
            for u in (0.3, 0.7, 1.3):
                for n in _N_VALUES:
                    yield {"k": k, "x": u, "n": n}

    add(IdentityEntry(
        id="THM5.1-printed",
        anchor="telescoping beta_k sum with (2k)^m x arguments (as printed)",
        comparison="abs",
        tol=1e-10,
        expectation="FAIL",
        points=_thm51_points,
        evaluate=lambda p: _beta.telescope_51(p["k"], p["x"], p["n"], "as_printed"),
    ))
    add(IdentityEntry(
        id="THM5.1-corrected",
        anchor="telescoping beta_k sum with 2^m k x arguments",
        comparison="abs",
        tol=1e-10,
        expectation="PASS",
        points=_thm51_points,
        evaluate=lambda p: _beta.telescope_51(p["k"], p["x"], p["n"], "corrected"),
    ))
    add(IdentityEntry(
        id="THM5.2",
        anchor="beta_k psi-difference route vs alternating series route",
        comparison="abs",
        tol=1e-10,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_beta.beta_k(p["k"], p["x"]),
                            _beta.beta_k_series(p["k"], p["x"], 1e-13).value),
    ))
    add(IdentityEntry(
        id="EQ5.2-integral",
        anchor="beta_k vs int_0^1 t^(x-1)/(1+t^k) dt",
        comparison="abs",
        tol=1e-7,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_beta.beta_k(p["k"], p["x"]),
                            _beta.beta_k_integral(p["k"], p["x"], 1e-9).value),
    ))
    add(IdentityEntry(
        id="THM5.3",
        anchor="Laplace route int_0^inf e^(-xt)/cosh(kt) dt = beta_k((x+k)/2)",
        comparison="abs",
        tol=1e-7,
        expectation="PASS",
        points=lambda g: ({"k": k, "x": u * k} for k in g.k_values
                          for u in (-0.5, 0.0, 0.35, 1.0, 2.1)),
        evaluate=lambda p: (_beta.beta_k_cosh_form(p["k"], p["x"], 1e-9).value,
                            _beta.beta_k(p["k"], 0.5 * (p["x"] + p["k"]))),
    ))
    add(IdentityEntry(
        id="THM5.4",
        anchor="expansion of beta_k(x + k) around k",
        comparison="abs",
        tol=1e-8,
        expectation="PASS",
        points=lambda g: ({"k": k, "x": u * k} for k in g.k_values
                          for u in (-0.5, 0.1, 0.5, 0.9)),
        evaluate=lambda p: (_beta.beta_taylor_54(p["k"], p["x"], 240).value,
                            _beta.beta_k(p["k"], p["x"] + p["k"])),
    ))
    add(IdentityEntry(
        id="THM5.5",
        anchor="expansion of beta_k around 0 (power-difference inner sum)",
        comparison="abs",
        tol=1e-8,
        expectation="PASS",
        points=lambda g: ({"k": k, "x": u * k} for k in g.k_values for u in (0.1, 0.5, 0.9)),
        evaluate=lambda p: (_beta.beta_expansion_55(p["k"], p["x"], 560, 1e-9).value,
                            _beta.beta_k(p["k"], p["x"])),
    ))
    add(IdentityEntry(
        id="EQ5.55",
        anchor="k-duplication, differentiated form",
        comparison="abs",
        tol=1e-11,
        expectation="PASS",
        points=lambda g: ({"k": k, "x": u} for k in g.k_values for u in g.x_values),
        evaluate=lambda p: (_kcore.psi_k(p["k"], p["k"] * p["x"] + 0.5 * p["k"]),
                            _kcore.psi_k_duplication_rhs(p["k"], p["x"])),
    ))

    def _eq55_eval(p, corrected):
        k, x = p["k"], p["x"]
        lhs = _kcore.gamma_k(k, 2.0 * k * x)
        c = math.sqrt(k / math.pi) if corrected else 1.0 / math.sqrt(k * math.pi)
        rhs = 2.0 ** (2.0 * x - 1.0) * c * _kcore.gamma_k(k, k * x) * _kcore.gamma_k(k, k * x + 0.5 * k)
        return lhs, rhs

    add(IdentityEntry(
        id="EQ5.5-printed",
        anchor="k-duplication with constant 2^(2x-1)/sqrt(k pi) (as printed)",
        comparison="rel",
        tol=1e-10,
        expectation="FAIL",
        points=lambda g: ({"k": k, "x": u} for k in g.k_values for u in (0.3, 0.8, 1.4)),
        evaluate=lambda p: _eq55_eval(p, corrected=False),
        fit=FitPlan("ratio", "k", lambda rep: (rep.lhs, rep.rhs),
                    lambda k: k,
                    "lhs/rhs constant per k; k corrects 1/sqrt(k pi) to sqrt(k/pi)"),
    ))
    add(IdentityEntry(
        id="EQ5.5-corrected",
        anchor="k-duplication with constant 2^(2x-1) sqrt(k/pi)",
        comparison="rel",
        tol=1e-10,
        expectation="PASS",
        points=lambda g: ({"k": k, "x": u} for k in g.k_values for u in (0.3, 0.8, 1.4)),
        evaluate=lambda p: _eq55_eval(p, corrected=True),
    ))
    add(IdentityEntry(
        id="EQ5.11",
        anchor="beta_k(x + k) + beta_k(x) = 1/x (two independent beta routes)",
        comparison="abs",
        tol=1e-11,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_beta.beta_k(p["k"], p["x"] + p["k"])
                            + _beta.beta_k_series(p["k"], p["x"], 1e-13).value,
                            1.0 / p["x"]),
    ))

    def _thm56_eval(p):
        k, x = p["k"], p["x"]
        b1 = _beta.beta_k(k, x)
        b2 = _beta.beta_k(k, k * k / x)
        return 2.0 * b1 * b2 / (b1 + b2), _scalar.CONSTANTS.ln2 / k

    add(IdentityEntry(
        id="THM5.6",
        anchor="harmonic mean of beta_k(x), beta_k(k^2/x) <= beta_k(k)",
        comparison="le",
        tol=1e-12,
        expectation="PASS",
        points=_k_x_points,
        evaluate=_thm56_eval,
    ))
    add(IdentityEntry(
        id="THM5.6-equality",
        anchor="equality case x = k of the harmonic-mean bound",
        comparison="abs",
        tol=1e-12,
        expectation="PASS",
        points=lambda g: ({"k": k, "x": k} for k in g.k_values),
        evaluate=_thm56_eval,
    ))

    _rem_units = (0.1, 0.35, 0.7, 0.9)
    add(IdentityEntry(
        id="REMARK5-lower",
        anchor="1/x - ln2/k < beta_k(x) on (0, k)",
        comparison="lt",
        tol=0.0,
        expectation="PASS",
        points=lambda g: _k_x_points(g, units=_rem_units),
        evaluate=lambda p: (1.0 / p["x"] - _scalar.CONSTANTS.ln2 / p["k"],
                            _beta.beta_k(p["k"], p["x"])),
    ))
    add(IdentityEntry(
        id="REMARK5-upper",
        anchor="beta_k(x) < 1/x on (0, k)",
        comparison="lt",
        tol=0.0,
        expectation="PASS",
        points=lambda g: _k_x_points(g, units=_rem_units),
        evaluate=lambda p: (_beta.beta_k(p["k"], p["x"]), 1.0 / p["x"]),
    ))
    add(IdentityEntry(
        id="REMARK5-refined",
        anchor="beta_k(x) < 1/x - ln2/k + pi^2 x/(12 k^2) on (0, k)",
        comparison="lt",
        tol=0.0,
        expectation="PASS",
        points=lambda g: _k_x_points(g, units=_rem_units),
        evaluate=lambda p: (_beta.beta_k(p["k"], p["x"]),
                            1.0 / p["x"] - _scalar.CONSTANTS.ln2 / p["k"]
                            + math.pi**2 * p["x"] / (12.0 * p["k"] ** 2)),
    ))

    # ---- structural invariants --------------------------------------------
    add(IdentityEntry(
        id="SCALING-BETA",
        anchor="beta_k(x) = beta_1(x/k)/k",
        comparison="rel",
        tol=1e-11,
        expectation="PASS",
        points=_k_x_points,
        evaluate=lambda p: (_beta.beta_k(p["k"], p["x"]),
                            _beta.beta_k(1.0, p["x"] / p["k"]) / p["k"]),
    ))
    add(IdentityEntry(
        id="SCALING-H",
        anchor="H_k(x) = k^(x/k - 1) H(x/k)",
        comparison="abs",
        tol=1e-10,
        expectation="PASS",
        points=lambda g: ({"k": k, "x": u * k} for k in g.k_values
                          for u in (-1.7, -0.6, 0.3, 1.4, 2.6, 4.3)),
        evaluate=lambda p: (_hadamard.hadamard_k(p["k"], p["x"]),
                            p["k"] ** (p["x"] / p["k"] - 1.0)
                            * _hadamard.hadamard_k(1.0, p["x"] / p["k"])),
    ))
    add(IdentityEntry(
        id="H-AT-K",
        anchor="H_k(k) = 1",
        comparison="abs",
        tol=1e-12,
        expectation="PASS",
        points=_k_points,
        evaluate=lambda p: (_hadamard.hadamard_k(p["k"], p["k"]), 1.0),
    ))
    add(IdentityEntry(
        id="H-FACTORIAL",
        anchor="H(n) = (n-1)! at k = 1",
        comparison="abs",
        tol=1e-10,
        expectation="PASS",
        points=lambda g: ({"n": n} for n in (1, 2, 3, 4, 5)),
        evaluate=lambda p: (_hadamard.hadamard_k(1.0, float(p["n"])),
                            float(math.factorial(p["n"] - 1))),
    ))
    add(IdentityEntry(
        id="H-SEAM",
        anchor="continuity of H_k across the evaluation seam at x = k",
        comparison="abs",
        tol=1e-9,
        expectation="PASS",
        points=_k_points,
        evaluate=lambda p: (0.5 * (_hadamard.hadamard_k(p["k"], p["k"] * (1.0 + 1e-5))
                                   + _hadamard.hadamard_k(p["k"], p["k"] * (1.0 - 1e-5))),
                            _hadamard.hadamard_k(p["k"], p["k"])),
    ))
    add(IdentityEntry(
        id="ALPHA0-SCALING",
        anchor="alpha0(k) = k alpha0(1)",
        comparison="abs",
        tol=1e-8,
        expectation="PASS",
        points=lambda g: ({"k": k} for k in g.k_values if k != 1.0),
        evaluate=lambda p: (_alpha0_root(p["k"]), p["k"] * _alpha0_root(1.0)),
    ))
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
    elif entry.comparison == "ge":
        ok = lhs >= rhs - tol
    else:  # pragma: no cover - registry construction guards this
        raise DomainError(f"unknown comparison {entry.comparison!r}")
    return abs_diff, rel_diff, "PASS" if ok else "FAIL"


def _param_key(report: IdentityReport):
    return report.identity_id, tuple(sorted(report.params.items()))


def run_identity(identity_id: str, grid: GridSpec | None = None,
                 tol_override: float | None = None) -> list[IdentityReport]:
    """Evaluate one registered identity over the grid.

    Pole-excluded or out-of-domain points yield SKIP reports; output is
    deterministic, ordered by (id, parameter tuple).
    """
    grid = grid or default_grid()
    entry = get_entry(identity_id)
    tol = entry.tol if tol_override is None else float(tol_override)
    reports = []
    for params in entry.points(grid):
        if entry.skip is not None:
            reason = entry.skip(params, grid)
            if reason:
                reports.append(IdentityReport(entry.id, dict(params), None, None,
                                              None, None, "SKIP", reason))
                continue
        try:
            lhs, rhs = entry.evaluate(params)
        except (DomainError, PoleError, OverflowError) as exc:
            reports.append(IdentityReport(entry.id, dict(params), None, None,
                                          None, None, "SKIP", f"{type(exc).__name__}: {exc}"))
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
