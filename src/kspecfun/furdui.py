"""Moment integrals I(k, m) = int_0^k x^m psi_k(x) dx.

One quadrature oracle plus four series/recursion evaluators that are
played against it.  The conditionally convergent zeta sums are split as
zeta(s) = 1 + (zeta(s) - 1): the "1" part has a digamma closed form and
the remainder converges geometrically.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .kcore import k_value, ln_gamma_k, psi_k, psi_k_m
from .oracles import QuadratureResult, adaptive_quad
from .scalar import (
    _EPS,
    CONSTANTS,
    SeriesValue,
    _check_tol,
    digamma,
    gauss_2f1,
    zeta_minus_1,
    zeta_tail,
)

__all__ = [
    "FURDUI_METHODS",
    "furdui_oracle",
    "furdui_method",
    "thm31_series",
    "thm32_series",
    "thm33_series",
    "ln_gamma_k_moment",
    "logsin_moment",
    "thm34_recursion",
]


def _check_m(m: int):
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"moment order m must be an integer >= 1, got {m!r}")


@lru_cache(maxsize=512)
def _oracle_cached(k: float, m: int, tol: float) -> QuadratureResult:
    lnk = math.log(k)
    # x^m (psi_k(x) + 1/x) = x^m (ln k + psi(x/k + 1)) / k, smooth through 0
    f = lambda x: x**m * (lnk + digamma(x / k + 1.0)) / k
    q = adaptive_quad(f, 0.0, k, tol)
    return QuadratureResult(q.value - k**m / m, q.error_estimate, q.subdivisions)


def furdui_oracle(k, m: int, tol: float = 1e-10) -> QuadratureResult:
    """Quadrature oracle for I(k, m).

    The integrand is regularised as x^m (psi_k(x) + 1/x) - x^(m-1); the
    bracketed part extends continuously to 0 (psi(z) + 1/z = psi(z+1)),
    so the quadrature sees a smooth function and the singular moment is
    integrated exactly.
    """
    k = k_value(k)
    _check_m(m)
    _check_tol(tol)
    return _oracle_cached(k, m, tol)


def _beta_digamma(z: float) -> float:
    # classical Nielsen beta via the digamma difference
    return 0.5 * (digamma(0.5 * (z + 1.0)) - digamma(0.5 * z))


def _zeta_remainder(sign: float, denom, limit: float, name: str):
    # sum_{s>=2} sign (-1)^s (zeta(s) - 1)/denom(s), stopped once the bound
    # 2^(1-s)/denom(s) on the next term drops below limit; (sum, bound, s)
    rem = 0.0
    s = 2
    while True:
        rem += sign * zeta_minus_1(s) / denom(s)
        sign = -sign
        s += 1
        bound = 2.0 * 2.0 ** (-s) / denom(s)
        if bound < limit:
            return rem, bound, s
        if s > 400:
            raise ConvergenceError(f"{name} zeta tail stalled", value=rem)


def thm31_series(k, m: int, tol: float = 1e-10) -> SeriesValue:
    """Series route k^m (ln k - g)/(m+1) - k^m/m + k^m sum (-1)^s zeta(s)/(m+s)."""
    k = k_value(k)
    _check_m(m)
    _check_tol(tol)
    km = k**m
    prefix = km * (math.log(k) - CONSTANTS.euler_gamma) / (m + 1) - km / m
    closed = _beta_digamma(float(m + 2))  # sum_{s>=2} (-1)^s /(m+s)
    rem, bound, s = _zeta_remainder(1.0, lambda s: m + s, 0.05 * tol / km, "thm31_series")
    err = km * bound * 2.0 + 16.0 * _EPS * (abs(prefix) + km)
    value = prefix + km * (closed + rem)
    return SeriesValue(value, err, s, err <= tol)


def thm32_series(k, m: int, tol: float = 1e-10, variant: str = "sign_variant") -> SeriesValue:
    """Log-gamma-expansion route with the (ln k -+ m*gamma) prefix under audit.

    ``as_printed`` uses (ln k - m*gamma); ``sign_variant`` uses
    (ln k + m*gamma), the candidate correction the harness confirms
    against the oracle.  The zeta sum is the same in both.
    """
    k = k_value(k)
    _check_m(m)
    _check_tol(tol)
    if variant not in ("as_printed", "sign_variant"):
        raise DomainError(f"unknown variant {variant!r}")
    km = k**m
    mg = m * CONSTANTS.euler_gamma
    lnk = math.log(k)
    prefix = km * ((lnk - mg) if variant == "as_printed" else (lnk + mg)) / (m + 1) - km / m
    # sum_{s>=2} (-1)^{s+1} zeta(s)/(s(m+s)), zeta = 1 + (zeta - 1)
    closed = (CONSTANTS.ln2 - 1.0 + _beta_digamma(float(m + 2))) / m
    rem, bound, s = _zeta_remainder(
        -1.0, lambda s: s * (m + s), 0.05 * tol / (m * km), "thm32_series"
    )
    value = prefix + m * km * (closed + rem)
    err = m * km * bound * 2.0 + 16.0 * _EPS * (abs(prefix) + m * km)
    return SeriesValue(value, err, s, err <= tol)


@lru_cache(maxsize=64)
def _logsin_cached(m: int, tol: float) -> QuadratureResult:
    half = math.pi / 2.0
    q1 = adaptive_quad(lambda x: x ** (m - 1) * math.log(math.sin(x)), 0.0, half, 0.5 * tol)
    q2 = adaptive_quad(
        lambda u: (math.pi - u) ** (m - 1) * math.log(math.sin(u)), 0.0, half, 0.5 * tol
    )
    return QuadratureResult(
        q1.value + q2.value, q1.error_estimate + q2.error_estimate, q1.subdivisions + q2.subdivisions
    )


def logsin_moment(m: int, tol: float = 1e-10) -> QuadratureResult:
    """int_0^pi x^(m-1) ln sin x dx, split at pi/2 with the x -> pi - x fold."""
    _check_m(m)
    _check_tol(tol)
    return _logsin_cached(m, tol)


def thm33_series(k, m: int, tol: float = 1e-9) -> SeriesValue:
    """Kummer-expansion route for I(k, m), printed coefficients under audit.

    Evaluates the published expansion verbatim, including the 3m/2
    coefficient and the +ln(pi/k)/2 term; :func:`ln_gamma_k_moment` is
    the reference it is audited against.
    """
    k = k_value(k)
    _check_m(m)
    _check_tol(tol)
    km = k**m
    lnk = math.log(k)
    value = -m * km * (lnk - CONSTANTS.euler_gamma) / (m + 1)
    value += 1.5 * m * (km * lnk / m - km / m**2)
    value += km * math.log(math.pi / k) / 2.0
    ls_tol = max(0.05 * tol / max(1.0, m * km / math.pi**m), 1e-10)
    ls = logsin_moment(m, ls_tol)
    value += m * km / (2.0 * math.pi**m) * ls.value
    # sum_{n>=1} zeta(2n+1)/((2n+1)(2n+m+1)); "1" part has a digamma closed form
    closed = (digamma(0.5 * (m + 3)) - digamma(1.5)) / (2.0 * m)
    rem = 0.0
    n = 1
    while True:
        rem += zeta_minus_1(2 * n + 1) / ((2 * n + 1) * (2 * n + m + 1))
        n += 1
        bound = 2.0 * 4.0 ** (-n) / ((2 * n + 1) * (2 * n + m + 1))
        if bound < 0.05 * tol / (m * km):
            break
    value += m * km * (closed + rem)
    err = m * km * bound * 2.0 + m * km / (2.0 * math.pi**m) * ls.error_estimate
    err += 16.0 * _EPS * (abs(value) + km)
    return SeriesValue(value, err, 2 * n + ls.subdivisions, err <= tol)


def ln_gamma_k_moment(k, m: int, tol: float = 1e-9) -> SeriesValue:
    """I(k, m) = -m int_0^k x^(m-1) ln Gamma_k(x) dx by quadrature.

    Integration by parts of the psi_k moment; it bypasses every series
    expansion.  The panel count is reported as ``terms_used``.
    """
    k = k_value(k)
    _check_m(m)
    _check_tol(tol)
    q = adaptive_quad(lambda x: x ** (m - 1) * ln_gamma_k(k, x), 0.0, k, 0.1 * tol)
    return SeriesValue(-m * q.value, m * q.error_estimate, q.subdivisions, True)


def _rising(a: float, j: int) -> float:
    p = 1.0
    for i in range(j):
        p *= a + i
    return p


_THM34_DIRECT = 24


@lru_cache(maxsize=64)
def _thm34_direct_sum(m: int, n: int) -> tuple[float, float, int]:
    # sum_{i <= 24} F(n+1, m+n+1; m+n+2; -1/i)/i^(n+1) does not depend on k;
    # (sum, summed 2F1 error estimates, summed 2F1 terms)
    isum = 0.0
    f_err = 0.0
    terms = 0
    for i in range(1, _THM34_DIRECT + 1):
        sv = gauss_2f1(n + 1.0, m + n + 1.0, m + n + 2.0, -1.0 / i, tol=1e-14)
        isum += sv.value / float(i) ** (n + 1)
        f_err += sv.error_estimate / float(i) ** (n + 1)
        terms += sv.terms_used
    return isum, f_err, terms


def thm34_recursion(k, m: int, n: int, tol: float = 1e-8) -> SeriesValue:
    """Integration-by-parts recursion with the hypergeometric remainder sum.

    The psi_k-derivative prefix uses the exact values at x = k; the sum
    over i of F(n+1, m+n+1; m+n+2; -1/i)/i^(n+1) is taken directly (via
    the Pfaff route) up to i = 24 and closed with the hypergeometric
    tail interchange, whose zeta-tail terms decay geometrically.  The
    direct part does not depend on k, so it is computed once per (m, n)
    and cached for the life of the process; the prefix and the tail,
    whose stopping rule depends on k^m, are evaluated on every call.
    """
    k = k_value(k)
    _check_m(m)
    if not isinstance(n, int) or not 1 <= n <= 8:
        raise DomainError(f"thm34_recursion requires integer 1 <= n <= 8, got {n!r}")
    _check_tol(tol)
    km = k**m
    total = k ** (m + 1) * psi_k(k, k) / (m + 1)
    for j in range(2, n + 1):
        total += (-1.0) ** (j - 1) * k ** (m + j) * psi_k_m(k, j - 1, k) / _rising(m + 1.0, j)
    total -= math.factorial(n) * km / (m * _rising(m + 1.0, n))

    isum, f_err, terms = _thm34_direct_sum(m, n)
    # tail: F expands in powers of -1/i; sum_{i>I} i^-(n+1+j) is a zeta tail
    a = m + n + 1.0
    j = 0
    tail = 0.0
    bound = zeta_tail(n + 1.0, _THM34_DIRECT + 1)  # c_j times its zeta tail, c_0 = 1
    while True:
        tail += (-1.0) ** j * bound
        j += 1
        # c_j = (n+1)_j / j! * a/(a+j) from the hypergeometric coefficients
        cj = _rising(n + 1.0, j) / math.factorial(j) * a / (a + j)
        bound = cj * zeta_tail(n + 1.0 + j, _THM34_DIRECT + 1)
        if bound < 0.02 * tol * _rising(m + 1.0, n + 1) / (math.factorial(n) * km):
            break
        if j > 200:
            raise ConvergenceError("thm34 hypergeometric tail stalled", value=tail)
    isum += tail
    scale = math.factorial(n) * km / _rising(m + 1.0, n + 1)
    total -= scale * isum
    err = scale * (f_err + 2.0 * bound) + 32.0 * _EPS * (abs(total) + km)
    return SeriesValue(total, err, terms + j, err <= tol)


def _oracle_series(k, m: int, tol: float) -> SeriesValue:
    # the oracle's panel count is reported as terms_used
    q = furdui_oracle(k, m, min(tol, 1e-10))
    return SeriesValue(q.value, q.error_estimate, q.subdivisions, True)


# method id -> route (k, m, n, tol) -> SeriesValue, in CLI table order; each
# route looks its function up at call time, so a wrapper installed on the
# module (perfbench/tracer.py) sees the call
FURDUI_METHODS = {
    "oracle": lambda k, m, n, tol: _oracle_series(k, m, tol),
    "thm31": lambda k, m, n, tol: thm31_series(k, m, tol),
    "thm32_printed": lambda k, m, n, tol: thm32_series(k, m, tol, "as_printed"),
    "thm32_variant": lambda k, m, n, tol: thm32_series(k, m, tol, "sign_variant"),
    "thm33_printed": lambda k, m, n, tol: thm33_series(k, m, tol),
    "thm33_variant": lambda k, m, n, tol: ln_gamma_k_moment(k, m, tol),
    "thm34": lambda k, m, n, tol: thm34_recursion(k, m, n, tol),
}


def furdui_method(method_id: str, k, m: int, n: int = 1, tol: float = 1e-9) -> SeriesValue:
    """Evaluate I(k, m) by one method of :data:`FURDUI_METHODS` (CLI comparison tables)."""
    try:
        route = FURDUI_METHODS[method_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise DomainError(f"unknown furdui method {method_id!r}") from None
    return route(k, m, n, tol)
