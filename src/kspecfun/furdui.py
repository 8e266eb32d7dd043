"""Moment integrals I(k, m) = int_0^k x^m psi_k(x) dx.

One quadrature oracle plus four series/recursion evaluators that are
played against it.  x = k u gives I(k, m) = k^m (ln k/(m+1) + A_m) with
A_m = I(1, m), so each evaluator sums its A_m to rounding once per m
(cached) and scales it.  The conditionally convergent zeta sums are split
as zeta(s) = 1 + (zeta(s) - 1): the "1" part has a closed form and the
remainder converges geometrically.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError
from .kcore import digamma, k_value, ln_gamma_k, polygamma
from .oracles import Estimate, adaptive_quad
from .routes import _alt_recip_sum, gauss_2f1, zeta_minus_1, zeta_tail
from .scalar import (
    _EPS,
    _MAX_NORMAL,
    CONSTANTS,
    _check_int,
    _overflow_error,
    _times_powers,
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


def _check_quadrature_k(name: str, k: float) -> None:
    # the quadrature routes integrate over [0, k], and adaptive_quad needs a
    # half-length k/2 > 0, which k = 5e-324 has not
    if not 0.5 * k > 0.0:
        raise DomainError(f"{name} requires k/2 > 0 for its quadrature on [0, k], got k={k}")


@lru_cache(maxsize=512)
def _oracle_cached(k: float, m: int) -> Estimate:
    lnk = math.log(k)
    # x^m (psi_k(x) + 1/x) = x^m (ln k + psi(x/k + 1)) / k, smooth through 0
    f = lambda x: x**m * (lnk + digamma(x / k + 1.0)) / k
    try:
        q = adaptive_quad(f, 0.0, k, 1e-11)
        value = q.value - k**m / m
    except OverflowError:  # x^m, and so I(k, m), beyond binary64
        raise _overflow_error("I", f"{k}, {m}") from None
    if not (math.isfinite(value) and math.isfinite(q.error_estimate)):
        raise _overflow_error("I", f"{k}, {m}")
    return Estimate(value, q.error_estimate, q.terms_used)


def furdui_oracle(k, m: int) -> Estimate:
    """Quadrature oracle for I(k, m), integrated to 1e-11.

    The integrand is regularised as x^m (psi_k(x) + 1/x) - x^(m-1); the
    bracketed part extends continuously to 0 (psi(z) + 1/z = psi(z+1)),
    so the quadrature sees a smooth function and the singular moment is
    integrated exactly.  Where k/2 rounds to 0.0 it raises DomainError,
    and where k^m or I(k, m) is beyond binary64, OverflowError.
    """
    k = k_value(k)
    _check_int("furdui_oracle", "m", m, 1)
    _check_quadrature_k("furdui_oracle", k)
    return _oracle_cached(k, m)


def _scaled(k: float, m: int, a: Estimate) -> Estimate:
    """I(k, m) = k^m (ln k/(m+1) + A_m), the one place where k enters a series route.

    A value below binary64 underflows to 0.0, and one beyond it raises
    OverflowError.
    """
    lnk = math.log(k) / (m + 1)
    try:
        power = k**m
    except OverflowError:
        power = math.inf
    value = power * (lnk + a.value)
    if not math.isfinite(value):
        raise _overflow_error("I", f"{k}, {m}")
    err = power * (a.error_estimate + 4.0 * _EPS * (abs(lnk) + abs(a.value)))
    return Estimate(value, err, a.terms_used)


def _zeta_terms(sign: float, denom):
    # sign (-1)^s (zeta(s) - 1)/denom(s) for s >= 2, until the bound 2^(1-s)/denom(s)
    # on the next term is below the rounding of the first, which dominates; (terms, bound)
    terms = []
    s = 2
    while True:
        terms.append(sign * zeta_minus_1(s) / denom(s))
        sign = -sign
        s += 1
        bound = 2.0 * 2.0 ** (-s) / denom(s)
        if bound < 0.5 * _EPS * abs(terms[0]):
            return terms, bound


@lru_cache(maxsize=64)
def _thm31_sum(m: int) -> Estimate:
    # A_m = -g/(m+1) - 1/m + sum_{s>=2} (-1)^s zeta(s)/(m+s), zeta = 1 + (zeta - 1);
    # the "1" part sum_{s>=2} (-1)^s/(m+s) is the alternating reciprocal sum at m + 2
    rem, bound = _zeta_terms(1.0, lambda s: m + s)
    parts = [-CONSTANTS.euler_gamma / (m + 1), -1.0 / m, _alt_recip_sum(m + 2.0)[0], *rem]
    err = 2.0 * bound + 16.0 * _EPS * max(map(abs, parts))
    return Estimate(math.fsum(parts), err, len(rem) + 2)


def thm31_series(k, m: int) -> Estimate:
    """Series route k^m (ln k - g)/(m+1) - k^m/m + k^m sum (-1)^s zeta(s)/(m+s)."""
    k = k_value(k)
    _check_int("thm31_series", "m", m, 1)
    return _scaled(k, m, _thm31_sum(m))


@lru_cache(maxsize=128)
def _thm32_sum(m: int, variant: str) -> Estimate:
    # A_m = (-+ m g)/(m+1) - 1/m + m sum_{s>=2} (-1)^{s+1} zeta(s)/(s(m+s)), where the
    # "1" part of zeta = 1 + (zeta - 1) sums to ln 2 - 1 + sum_{s>=2} (-1)^s/(m+s)
    mg = m * CONSTANTS.euler_gamma / (m + 1)
    rem, bound = _zeta_terms(-float(m), lambda s: s * (m + s))
    parts = [-mg if variant == "as_printed" else mg, -1.0 / m, CONSTANTS.ln2, -1.0,
             _alt_recip_sum(m + 2.0)[0], *rem]
    err = m * bound * 2.0 + 16.0 * _EPS * max(map(abs, parts))
    return Estimate(math.fsum(parts), err, len(rem) + 2)


def thm32_series(k, m: int, variant: str = "sign_variant") -> Estimate:
    """Log-gamma-expansion route with the (ln k -+ m*gamma) prefix under audit.

    ``as_printed`` uses (ln k - m*gamma); ``sign_variant`` uses
    (ln k + m*gamma), the candidate correction the harness confirms
    against the oracle.  The zeta sum is the same in both.
    """
    k = k_value(k)
    _check_int("thm32_series", "m", m, 1)
    if variant not in ("as_printed", "sign_variant"):
        raise DomainError(f"unknown variant {variant!r}")
    return _scaled(k, m, _thm32_sum(m, variant))


def logsin_moment(m: int) -> Estimate:
    """int_0^pi x^(m-1) ln sin x dx: the ln x singularity in closed form, the rest by quadrature.

    The x -> pi - x fold gives int_0^(pi/2) [x^(m-1) + (pi - x)^(m-1)] ln sin x dx,
    and ln sin x = ln(sin x / x) + ln x.  With a = pi/2, the ln x part is
    a^m (ln a/m - 1/m^2) + (pi^m/m) [(1 - 2^-m) ln a - sum_{i=1..m} (1 - 2^-i)/i]
    (a positive-term sum); one quadrature to 1e-10 of the smooth
    ln(sin x / x) part remains.
    """
    _check_int("logsin_moment", "m", m, 1)
    half = math.pi / 2.0
    q = adaptive_quad(
        lambda x: (x ** (m - 1) + (math.pi - x) ** (m - 1)) * math.log(math.sin(x) / x),
        0.0, half, 1e-10,
    )
    ln_half = math.log(half)
    positive_sum = math.fsum((1.0 - 0.5**i) / i for i in range(1, m + 1))
    parts = [q.value, half**m * (ln_half / m - 1.0 / (m * m)),
             math.pi**m / m * ((1.0 - 0.5**m) * ln_half - positive_sum)]
    err = q.error_estimate + 8.0 * _EPS * max(map(abs, parts))
    return Estimate(math.fsum(parts), err, q.terms_used)


@lru_cache(maxsize=64)
def _thm33_sum(m: int) -> Estimate:
    # A_m = m g/(m+1) - 3/(2m) + ln(pi)/2 + m/(2 pi^m) int_0^pi x^(m-1) ln sin x dx
    #       + m sum_{n>=1} zeta(2n+1)/((2n+1)(2n+m+1)), with the printed coefficients;
    # the "1" part of zeta(2n+1) = 1 + (zeta(2n+1) - 1) has a digamma closed form
    ls = logsin_moment(m)
    ls_weight = m / (2.0 * math.pi**m)
    rem = []
    n = 1
    while True:
        rem.append(m * zeta_minus_1(2 * n + 1) / ((2 * n + 1) * (2 * n + m + 1)))
        n += 1
        bound = 2.0 * m * 4.0 ** (-n) / ((2 * n + 1) * (2 * n + m + 1))
        if bound < 0.5 * _EPS * rem[0]:
            break
    parts = [m * CONSTANTS.euler_gamma / (m + 1), -1.5 / m, 0.5 * math.log(math.pi),
             ls_weight * ls.value, 0.5 * (digamma(0.5 * (m + 3)) - digamma(1.5)), *rem]
    err = bound * 2.0 + ls_weight * ls.error_estimate + 16.0 * _EPS * max(map(abs, parts))
    return Estimate(math.fsum(parts), err, 2 * n + ls.terms_used)


def thm33_series(k, m: int) -> Estimate:
    """Kummer-expansion route for I(k, m), printed coefficients under audit.

    Evaluates the published expansion verbatim, including the 3m/2
    coefficient and the +ln(pi/k)/2 term; :func:`ln_gamma_k_moment` is
    the reference it is audited against.
    """
    k = k_value(k)
    _check_int("thm33_series", "m", m, 1)
    return _scaled(k, m, _thm33_sum(m))


def ln_gamma_k_moment(k, m: int) -> Estimate:
    """I(k, m) = -m int_0^k x^(m-1) ln Gamma_k(x) dx, the ln x singularity in closed form.

    Integration by parts of the psi_k moment; it bypasses every series
    expansion.  ln Gamma_k(x) = ln Gamma_k(x + k) - ln x, and
    int_0^k x^(m-1) ln x dx = k^m (ln k/m - 1/m^2), so
    I(k, m) = -m int_0^k x^(m-1) ln Gamma_k(x + k) dx + k^m (ln k - 1/m):
    one quadrature to 1e-10 of a smooth integrand remains, whose panel
    count is reported as ``terms_used``.  A value beyond binary64 raises
    OverflowError; where k/2 rounds to 0.0 it raises DomainError.
    """
    k = k_value(k)
    _check_int("ln_gamma_k_moment", "m", m, 1)
    _check_quadrature_k("ln_gamma_k_moment", k)
    if k + k > _MAX_NORMAL:  # x + k leaves binary64; I(k, m) > k (ln k/2 - 1) is far beyond it
        raise _overflow_error("I", f"{k}, {m}")
    try:
        q = adaptive_quad(lambda x: x ** (m - 1) * ln_gamma_k(k, x + k), 0.0, k, 1e-10)
    except OverflowError:  # x^(m-1) ln Gamma_k(x + k), and so I(k, m), beyond binary64
        raise _overflow_error("I", f"{k}, {m}") from None
    # k^m (ln k - 1/m - m q/k^m), scaled once so that no partial term overflows
    closed = math.log(k) - 1.0 / m
    scaled_q = m * _times_powers(q.value, (k, -m))
    value = _times_powers(closed - scaled_q, (k, m))
    err = m * q.error_estimate + _times_powers(4.0 * _EPS * (abs(closed) + abs(scaled_q)), (k, m))
    if not (math.isfinite(value) and math.isfinite(err)):
        raise _overflow_error("I", f"{k}, {m}")
    return Estimate(value, err, q.terms_used)


def _rising(a: float, j: int) -> float:
    p = 1.0
    for i in range(j):
        p *= a + i
    return p


_THM34_DIRECT = 24


@lru_cache(maxsize=64)
def _thm34_sum(m: int, n: int) -> Estimate:
    # A_{m,n}: the recursion at k = 1, where k^(m+j) psi_k^(j-1)(k) is k^m psi^(j-1)(1)
    total = -CONSTANTS.euler_gamma / (m + 1)
    for j in range(2, n + 1):
        total += (-1.0) ** (j - 1) * polygamma(j - 1, 1.0) / _rising(m + 1.0, j)
    total -= math.factorial(n) / (m * _rising(m + 1.0, n))
    # sum_i F(n+1, m+n+1; m+n+2; -1/i)/i^(n+1): directly (Pfaff route) up to i = 24
    isum = f_err = 0.0
    terms = 0
    for i in range(1, _THM34_DIRECT + 1):
        sv = gauss_2f1(n + 1.0, m + n + 1.0, m + n + 2.0, -1.0 / i, tol=1e-14)
        isum += sv.value / float(i) ** (n + 1)
        f_err += sv.error_estimate / float(i) ** (n + 1)
        terms += sv.terms_used
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
        if bound < _EPS * isum:
            break
    isum += tail
    scale = math.factorial(n) / _rising(m + 1.0, n + 1)
    total -= scale * isum
    err = scale * (f_err + 2.0 * bound) + 32.0 * _EPS * (abs(total) + 1.0)
    return Estimate(total, err, terms + j)


def thm34_recursion(k, m: int, n: int) -> Estimate:
    """Integration-by-parts recursion with the hypergeometric remainder sum.

    The psi_k-derivative prefix takes its exact values at x = k; the sum
    over i of F(n+1, m+n+1; m+n+2; -1/i)/i^(n+1) is taken directly (via
    the Pfaff route) up to i = 24 and closed with the hypergeometric
    tail interchange, whose zeta-tail terms decay geometrically.  The
    k = 1 recursion is summed once per (m, n) and cached.
    """
    k = k_value(k)
    _check_int("thm34_recursion", "m", m, 1)
    _check_int("thm34_recursion", "n", n, 1, 8)
    return _scaled(k, m, _thm34_sum(m, n))


# method id -> route (k, m, n) -> Estimate, in CLI table order; each
# route looks its function up at call time, so a wrapper installed on the
# module (perfbench/tracer.py) sees the call
FURDUI_METHODS = {
    "oracle": lambda k, m, n: furdui_oracle(k, m),
    "thm31": lambda k, m, n: thm31_series(k, m),
    "thm32_printed": lambda k, m, n: thm32_series(k, m, "as_printed"),
    "thm32_variant": lambda k, m, n: thm32_series(k, m, "sign_variant"),
    "thm33_printed": lambda k, m, n: thm33_series(k, m),
    "thm33_variant": lambda k, m, n: ln_gamma_k_moment(k, m),
    "thm34": lambda k, m, n: thm34_recursion(k, m, n),
}


def furdui_method(method_id: str, k, m: int, n: int = 1) -> Estimate:
    """Evaluate I(k, m) by one method of :data:`FURDUI_METHODS` (CLI comparison tables)."""
    try:
        route = FURDUI_METHODS[method_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise DomainError(f"unknown furdui method {method_id!r}") from None
    return route(k, m, n)
