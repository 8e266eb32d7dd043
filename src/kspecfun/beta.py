"""Nielsen k-beta function beta_k in its independent representations.

The primary route is the psi_k difference; the alternating series, the
Mellin-type integral on [0, 1] and the Laplace (cosh) integral provide
three more routes that the verification harness plays against each
other.  Expansions around x = k and x = 0 complete the set, and the
step beta_k(x) = 1/x - beta_k(x + k) continues beta_k to x <= 0.  The
scanner for the paper's open problem on f(x) = x beta_k(x) lives here
too: it samples the derivatives of f and checks no identity.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConvergenceError, DomainError
from .kcore import _check_pole, k_value, psi_k, psi_k_m
from .oracles import adaptive_quad
from .scalar import (_EPS, CONSTANTS, Estimate, _alt_recip_sum, _check_int, _check_tol,
                     _overflow_error, _positive, _require_finite, zeta_int)

__all__ = [
    "beta_k",
    "beta_k_series",
    "beta_k_integral",
    "beta_k_cosh_form",
    "beta_k_deriv",
    "beta_taylor_54",
    "beta_taylor_terms",
    "beta_expansion_55",
    "ScanTable",
    "openproblem_scan",
]

def beta_k(k, x: float) -> float:
    """beta_k(x) = (psi_k((x+k)/2) - psi_k(x/2)) / 2 for x > 0.

    Where psi_k(x/2) is beyond binary64 and x < k, one step of
    beta_k(x) = 1/x - beta_k(x + k) (:func:`_beta_step`) is taken
    instead.  A value beyond binary64 raises OverflowError.
    """
    k = k_value(k)
    x = _positive("beta_k", x)
    try:
        # halve before adding, so that x + k cannot overflow; halving is exact
        return 0.5 * (psi_k(k, 0.5 * x + 0.5 * k) - psi_k(k, 0.5 * x))
    except OverflowError:
        if x >= k:
            raise
    except DomainError:
        # 0.5 * x rounds to 0.0 only at x = 5e-324, where beta_k(x) >= 1/(2x)
        raise _overflow_error("beta_k", x, k) from None
    return _beta_step(k, x)


def _beta_step(k: float, z: float, depth: int = 0) -> float:
    """beta_k(z) = 1/z - beta_k(z + k) for z < k, z off the poles of Gamma_k.

    beta_k takes one step where its psi_k difference overflows; for
    z <= 0 the step repeats (at most 64 times) until z + k > 0, which
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
    return inv - (beta_k(k, y) if y > 0.0 else _beta_step(k, y, depth + 1))


def beta_k_series(k, x: float) -> Estimate:
    """Alternating-series route sum_{n>=0} (-1)^n / (x + nk).

    Paired-term summation with the Laplace-representation tail; never
    touches the digamma reduction, so it serves as an independent
    cross-check for :func:`beta_k`.
    """
    k = k_value(k)
    x = _positive("beta_k_series", x)
    raw, raw_err, used = _alt_recip_sum(x / k)
    value = raw / k
    err = raw_err / k + 4.0 * _EPS * abs(value)
    return Estimate(value, err, used)


def beta_k_integral(k, x: float, tol: float = 1e-10) -> Estimate:
    """Integral route int_0^1 t^(x-1) / (1 + t^k) dt.

    For x < 1 the endpoint singularity is removed exactly by the
    substitution t = s^(1/x), which turns the integrand into
    (1/x) / (1 + s^(k/x)).
    """
    k = k_value(k)
    x = _positive("beta_k_integral", x)
    if x < 1.0:
        p = k / x
        inv = 1.0 / x
        return adaptive_quad(lambda s: inv / (1.0 + s**p), 0.0, 1.0, tol)
    return adaptive_quad(lambda t: t ** (x - 1.0) / (1.0 + t**k), 0.0, 1.0, tol)


def beta_k_cosh_form(k, x: float, tol: float = 1e-9) -> Estimate:
    """Laplace route int_0^inf e^(-xt) / cosh(kt) dt = beta_k((x + k)/2).

    Valid for x > -k; the integral is truncated at T with
    e^(-(x+k)T) < tol/10 and the (bounded) remainder is folded into the
    error estimate.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if x <= -k:
        raise DomainError(f"beta_k_cosh_form requires x > -k, got x={x}, k={k}")
    _check_tol(tol)
    rate = x + k
    T = math.log(10.0 / tol) / rate

    def integrand(t):
        # e^(-xt)/cosh(kt) = 2 e^(-(x+k)t) / (1 + e^(-2kt)), overflow-safe
        return 2.0 * math.exp(-rate * t) / (1.0 + math.exp(-2.0 * k * t))

    q = adaptive_quad(integrand, 0.0, T, tol)
    # analytic tail with 1/cosh ~ 2 e^(-kt); the neglected part decays
    # faster by e^(-2kT)
    tail = 2.0 * math.exp(-rate * T) / rate
    tail_err = 2.0 * math.exp(-(rate + 2.0 * k) * T) / (rate + 2.0 * k)
    return Estimate(q.value + tail, q.error_estimate + tail_err, q.terms_used)


def beta_k_deriv(k, order: int, x: float) -> float:
    """order-th derivative of beta_k, order >= 0 (exact k-polygamma differences)."""
    k = k_value(k)
    _check_int("beta_k_deriv", "order", order, 0)
    x = _positive("beta_k_deriv", x)
    if order == 0:
        return beta_k(k, x)
    scale = 0.5 ** (order + 1)
    # halve before adding, as beta_k does
    return scale * (psi_k_m(k, order, 0.5 * x + 0.5 * k) - psi_k_m(k, order, 0.5 * x))


def beta_taylor_terms(k, order: int) -> tuple[float, ...]:
    """Coefficients (c_0, ..., c_order) of beta_k(x + k) = sum_m c_m x^m, |x| < k."""
    k = k_value(k)
    _check_int("beta_taylor_terms", "order", order, 0)
    coeffs = [CONSTANTS.ln2 / k]
    sign = -1.0
    kp = k * k
    for m in range(1, order + 1):
        coeffs.append(sign * (1.0 - 0.5**m) * zeta_int(m + 1) / kp)
        sign = -sign
        kp *= k
    return tuple(coeffs)


def beta_taylor_54(k, x: float, order: int) -> Estimate:
    """Expansion of beta_k(x + k) around the center k, for |x| < k.

    For 0 < x < k the terms alternate with decreasing magnitude, so the
    first omitted term bounds the truncation error; for negative x the
    series is positive-term and the geometric bound |t| r/(1-r) applies.
    The reported estimate covers both.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if abs(x) >= k:
        raise DomainError(f"beta_taylor_54 requires |x| < k, got x={x}, k={k}")
    total = 0.0
    xp = 1.0
    for c in beta_taylor_terms(k, order):
        total += c * xp
        xp *= x
    # first omitted term (order + 1), inflated by the geometric factor
    bound = (1.0 - 0.5 ** (order + 1)) * zeta_int(order + 2) / k ** (order + 2)
    bound *= abs(x) ** (order + 1)
    ratio = abs(x) / k
    err = bound / (1.0 - ratio) + 8.0 * _EPS * abs(total)
    return Estimate(total, err, order + 1)


def beta_expansion_55(k, x: float, n_max: int, tol: float = 1e-9) -> Estimate:
    """Expansion of beta_k around 0: 1/x - 1/(x+k) + zeta-weighted double sum.

    The inner binomial sum is evaluated exactly as the power difference
    ((x+k)/2)^n - (x/2)^n, avoiding cancellation and overflow.  The
    observed convergence region is 0 < x < k (outer ratio (x+k)/(2k)),
    and the domain is restricted accordingly.
    """
    k = k_value(k)
    x = _require_finite("x", x)
    if not 0.0 < x < k:
        raise DomainError(f"beta_expansion_55 requires 0 < x < k, got x={x}, k={k}")
    _check_int("beta_expansion_55", "n_max", n_max, 1)
    _check_tol(tol)
    total = 1.0 / x - 1.0 / (x + k)
    a = 0.5 * (x + k)
    b = 0.5 * x
    ap = 1.0
    bp = 1.0
    kp = k
    sign = 1.0
    ratio = a / k  # in (1/2, 1): geometric decay of the outer terms
    last = math.inf
    for n in range(1, n_max + 1):
        ap *= a
        bp *= b
        kp *= k
        term = sign * zeta_int(n + 1) * (ap - bp) / (2.0 * kp)
        total += term
        sign = -sign
        last = abs(term)
    bound = 2.0 * last * ratio / (1.0 - ratio)
    err = bound + 8.0 * _EPS * abs(total)
    if err > tol:
        raise ConvergenceError(
            f"beta_expansion_55 tail bound {err:.3e} exceeds tol {tol:.3e} at n_max={n_max}",
            value=total,
            error_estimate=err,
            terms_used=n_max,
        )
    return Estimate(total, err, n_max)


class ScanTable(namedtuple("ScanTable", "n rows verdict first_violation")):
    __slots__ = ()
    n: int
    rows: tuple  # ((x, value_or_None), ...)
    verdict: str  # 'strictly increasing' | 'strictly decreasing' | 'neither' | 'insufficient data'
    first_violation: tuple | None  # (x_prev, x, g_prev, g)


def openproblem_scan(k, n_max: int, units=(0.1, 0.35, 0.7, 1.0, 1.5, 2.5, 5.0)) -> list[ScanTable]:
    """Sample g_n(x) = f^(n+1) / (f^(n) f^(n+2)) with f(x) = x beta_k(x).

    The sample points are x = u k for the unit values ``units`` (by
    default the registry's default grid).  Emits a value table and a
    monotonicity verdict per n in 0..n_max.  This is evidence-gathering
    for an open monotonicity question, not a proof of anything;
    near-zero denominators are skipped.
    """
    k = k_value(k)
    _check_int("openproblem_scan", "n_max", n_max, 0, 4)
    xs = sorted(u * k for u in units)
    if not xs or not all(0.0 < x < math.inf for x in xs):
        raise DomainError("scan x values must be finite and positive")
    # f^(j)(x) = x beta_k^(j)(x) + j beta_k^(j-1)(x) for j = 0..n_max + 2, once per x
    derivs = []
    for x in xs:
        b = [beta_k_deriv(k, j, x) for j in range(n_max + 3)]
        derivs.append([x * b[0]] + [x * b[j] + j * b[j - 1] for j in range(1, n_max + 3)])
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
