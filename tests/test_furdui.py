"""Tests for the moment-integral oracle and its series evaluators."""

import math

import pytest

from kspecfun import (
    DomainError,
    default_grid,
    furdui_method,
    furdui_oracle,
    ln_gamma_k_moment,
    logsin_moment,
    thm31_series,
    thm32_series,
    thm33_series,
    thm34_recursion,
)
from kspecfun import furdui, run_identity
from kspecfun.kcore import polygamma, psi_k
from kspecfun.oracles import adaptive_quad
from kspecfun.routes import gauss_2f1, zeta_tail
from kspecfun.scalar import _EPS, CONSTANTS

GAMMA = CONSTANTS.euler_gamma
LN2 = math.log(2.0)
LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
LOG_A = math.log(CONSTANTS.glaisher_A)


# ---------------------------------------------------------------- oracle
def test_oracle_m1_is_raabe_value():
    # integration by parts gives -int_0^1 ln Gamma = -ln sqrt(2 pi)
    q = furdui_oracle(1.0, 1)
    assert q.value == pytest.approx(-LN_SQRT_2PI, abs=1e-10)
    assert abs(q.value + LN_SQRT_2PI) <= q.error_estimate + 1e-12


def test_oracle_m2_value():
    # the closed form carries A^2, not A (diagnosed by the registry audit)
    q = furdui_oracle(1.0, 2)
    assert q.value == pytest.approx(2.0 * LOG_A - LN_SQRT_2PI, abs=1e-9)
    assert abs(q.value - (LOG_A - LN_SQRT_2PI)) == pytest.approx(LOG_A, abs=1e-8)


def test_oracle_k2_scaling_example():
    q = furdui_oracle(2.0, 1)
    assert q.value == pytest.approx(LN2 + 2.0 * -LN_SQRT_2PI, abs=1e-9)


def test_oracle_against_raw_quadrature():
    # unregularised integrand, test-only cross-check
    for k, m in ((1.0, 1), (2.0, 2), (0.5, 3)):
        raw = adaptive_quad(lambda x: x**m * psi_k(k, x), 1e-12, k, 1e-9)
        smooth = furdui_oracle(k, m)
        assert abs(raw.value - smooth.value) < 1e-8


@pytest.mark.parametrize("k", (0.5, 1.0, 2.0, 3.0))
@pytest.mark.parametrize("m", (1, 2, 4, 6))
def test_oracle_scaling_law(k, m):
    lhs = furdui_oracle(k, m).value
    rhs = k**m * (math.log(k) / (m + 1) + furdui_oracle(1.0, m).value)
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("k,m", [(1e100, 4), (1e300, 2), (1.7e308, 1)])
def test_oracle_raises_where_k_to_the_m_leaves_binary64(k, m):
    # once a bare errno-34 OverflowError from x**m, or inf with a nan estimate
    with pytest.raises(OverflowError) as raised:
        furdui_oracle(k, m)
    assert str(raised.value) == f"I({k}, {m}) overflows binary64"


def test_oracle_domain():
    with pytest.raises(DomainError):
        furdui_oracle(1.0, 0)


@pytest.mark.parametrize("route", [furdui_oracle, ln_gamma_k_moment])
def test_quadrature_routes_raise_where_k_leaves_no_panel(route):
    # [0, 5e-324] has no binary64 half-length; a value with error 0.0 came back
    # once, and then the quadrature's own message, which named neither route nor k
    message = f"{route.__name__} requires k/2 > 0 for its quadrature on [0, k], got k=5e-324"
    with pytest.raises(DomainError) as raised:
        route(5e-324, 1)
    assert str(raised.value) == message
    assert math.isfinite(route(1e-323, 1).value)  # k/2 = 5e-324 is a half-length


# ---------------------------------------------------------------- thm 3.1
@pytest.mark.parametrize("k", (0.5, 1.0, 2.0, 3.0))
@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6))
def test_thm31_agrees_with_oracle(k, m):
    s = thm31_series(k, m)
    o = furdui_oracle(k, m)
    assert abs(s.value - o.value) < 1e-8


def test_thm31_values():
    assert thm31_series(1.0, 1).value == pytest.approx(-LN_SQRT_2PI, abs=1e-10)
    assert thm31_series(1.0, 2).value == pytest.approx(2.0 * LOG_A - LN_SQRT_2PI, abs=1e-10)


# ---------------------------------------------------------------- thm 3.2
def test_thm32_variants_differ_by_documented_constant():
    for k, m in ((1.0, 1), (2.0, 3), (0.5, 2)):
        printed = thm32_series(k, m, "as_printed").value
        variant = thm32_series(k, m, "sign_variant").value
        assert printed - variant == pytest.approx(
            -2.0 * m * GAMMA * k**m / (m + 1), abs=1e-12
        )


def test_thm32_sign_variant_matches_oracle():
    for k, m in ((1.0, 1), (2.0, 2), (0.5, 4)):
        s = thm32_series(k, m, "sign_variant")
        o = furdui_oracle(k, m)
        assert abs(s.value - o.value) < 1e-8


def test_thm32_rejects_an_unknown_variant():
    with pytest.raises(DomainError, match="^unknown variant 'corrected'$"):
        thm32_series(1.0, 1, "corrected")


def test_thm32_printed_fails_against_oracle():
    s = thm32_series(1.0, 1, "as_printed")
    o = furdui_oracle(1.0, 1)
    assert abs(s.value - o.value) == pytest.approx(GAMMA, abs=1e-8)


# ---------------------------------------------------------------- thm 3.3
def test_thm33_audit_route_matches_oracle():
    for k, m in ((1.0, 1), (2.0, 2), (0.5, 3)):
        s = ln_gamma_k_moment(k, m)
        o = furdui_oracle(k, m)
        assert abs(s.value - o.value) < 1e-8


def test_ln_gamma_k_moment_is_relative_at_small_k():
    # I(k, 1) = k (ln k/2 - ln sqrt(2 pi)); an absolute tolerance once left 6.8e-5 here
    k = 1e-10
    ref = k * (math.log(k) / 2.0 - LN_SQRT_2PI)
    assert ln_gamma_k_moment(k, 1).value == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_singular_end_moments_need_few_panels():
    # only a smooth integrand is left to the quadrature once the ln x part is exact
    for k in default_grid().k_values:
        for m in range(1, 7):
            assert ln_gamma_k_moment(k, m).terms_used <= 7, (k, m)
    for m in range(1, 13):
        assert logsin_moment(m).terms_used <= 3, m


def test_thm33_printed_offset_structure():
    # printed coefficients miss by exactly k^m (ln pi - 1/m)
    for k, m in ((1.0, 1), (2.0, 1), (1.0, 2), (2.0, 3)):
        printed = thm33_series(k, m).value
        oracle = furdui_oracle(k, m).value
        assert printed - oracle == pytest.approx(
            k**m * (math.log(math.pi) - 1.0 / m), abs=1e-8
        )


# ---------------------------------------------------------------- logsin
def test_logsin_values():
    assert logsin_moment(1).value == pytest.approx(-math.pi * LN2, abs=1e-9)
    assert logsin_moment(2).value == pytest.approx(-math.pi**2 * LN2 / 2.0, abs=1e-9)
    assert logsin_moment(3).value == pytest.approx(-9.052157654952006, abs=1e-9)


# ---------------------------------------------------------------- thm 3.4
@pytest.mark.parametrize("k", (1.0, 2.0))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_thm34_agrees_with_oracle(k, m, n):
    s = thm34_recursion(k, m, n)
    o = furdui_oracle(k, m)
    assert abs(s.value - o.value) < 1e-6


def test_thm34_values():
    assert thm34_recursion(1.0, 1, 1).value == pytest.approx(-LN_SQRT_2PI, abs=1e-7)
    assert thm34_recursion(1.0, 2, 1).value == pytest.approx(
        2.0 * LOG_A - LN_SQRT_2PI, abs=1e-7
    )


def _thm34_uncached(k, m, n):
    # the recursion written out at k = 1, with the direct 2F1 sum inside the
    # call, then scaled once by I(k, m) = k^m (ln k/(m+1) + A)
    def rising(a, j):
        p = 1.0
        for i in range(j):
            p *= a + i
        return p

    total = -GAMMA / (m + 1)
    for j in range(2, n + 1):
        total += (-1.0) ** (j - 1) * polygamma(j - 1, 1.0) / rising(m + 1.0, j)
    total -= math.factorial(n) / (m * rising(m + 1.0, n))
    isum = f_err = 0.0
    terms = 0
    for i in range(1, 25):
        sv = gauss_2f1(n + 1.0, m + n + 1.0, m + n + 2.0, -1.0 / i, tol=1e-14)
        isum += sv.value / float(i) ** (n + 1)
        f_err += sv.error_estimate / float(i) ** (n + 1)
        terms += sv.terms_used
    a = m + n + 1.0
    j = 0
    tail = 0.0
    bound = zeta_tail(n + 1.0, 25)
    while True:
        tail += (-1.0) ** j * bound
        j += 1
        cj = rising(n + 1.0, j) / math.factorial(j) * a / (a + j)
        bound = cj * zeta_tail(n + 1.0 + j, 25)
        if bound < _EPS * isum:
            break
    isum += tail
    scale = math.factorial(n) / rising(m + 1.0, n + 1)
    total -= scale * isum
    err = scale * (f_err + 2.0 * bound) + 32.0 * _EPS * (abs(total) + 1.0)
    lnk = math.log(k) / (m + 1)
    value = k**m * (lnk + total)
    err = k**m * (err + 4.0 * _EPS * (abs(lnk) + abs(total)))
    return value, err, terms + j


@pytest.mark.parametrize("k", (0.5, math.pi))
@pytest.mark.parametrize("m", (1, 3))
@pytest.mark.parametrize("n", (1, 3))
def test_thm34_cached_direct_sum_is_bit_identical(k, m, n):
    for _ in range(2):  # the first call fills the cache, the second reads it
        s = thm34_recursion(k, m, n)
        assert (s.value, s.error_estimate, s.terms_used) == _thm34_uncached(k, m, n)


def test_thm34_entries_sum_each_m_n_once(monkeypatch):
    calls = []

    def counting_2f1(*args, **kwargs):
        calls.append(args)
        return gauss_2f1(*args, **kwargs)

    furdui._thm34_sum.cache_clear()
    monkeypatch.setattr(furdui, "gauss_2f1", counting_2f1)
    for identity_id in ("THM3.4-corrected", "THM3.4-printed"):
        assert run_identity(identity_id)
    assert len(calls) == 9 * 24  # m in {1, 2, 3}, n in {1, 2, 3}, i <= 24


def test_thm34_validation():
    with pytest.raises(DomainError):
        thm34_recursion(1.0, 1, 9)
    with pytest.raises(DomainError):
        thm34_recursion(1.0, 1, 0)


# ---------------------------------------------------------------- method table
def test_furdui_method_dispatch():
    o = furdui_method("oracle", 1.0, 2)
    t34 = furdui_method("thm34", 1.0, 2, n=1)
    q = furdui_oracle(1.0, 2)
    assert o == q
    assert t34 == thm34_recursion(1.0, 2, 1)
    assert abs(o.value - t34.value) < 1e-7
    for gone in ("nope", "eq310"):
        with pytest.raises(DomainError):
            furdui_method(gone, 1.0, 2)
