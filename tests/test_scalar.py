"""Tests for the classical scalar functions."""

import math
import random
from fractions import Fraction

import pytest

from kspecfun import (
    DomainError,
    PoleError,
    digamma,
    gauss_2f1,
    lerch_alt,
    lerch_one_diff,
    ln_gamma_k,
    polygamma,
    psi_k_m,
    rgamma,
    rgamma_k,
    zeta_int,
)
from kspecfun.oracles import adaptive_quad
from kspecfun import kcore, routes
from kspecfun.scalar import CONSTANTS, _times_powers

GAMMA = CONSTANTS.euler_gamma
LN2 = math.log(2.0)


# ---------------------------------------------------------------- ln Gamma = ln_gamma_k at k = 1
def test_ln_gamma_known_values():
    assert abs(ln_gamma_k(1.0, 1.0)) < 1e-14
    assert ln_gamma_k(1.0, 0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert ln_gamma_k(1.0, 5.0) == pytest.approx(math.log(24.0), rel=1e-14)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 3.7, 10.0])
def test_gamma_recurrence(x):
    lhs = math.exp(ln_gamma_k(1.0, x + 1.0))
    rhs = x * math.exp(ln_gamma_k(1.0, x))
    assert abs(lhs - rhs) / lhs < 1e-12


@pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
def test_ln_gamma_domain(x):
    with pytest.raises(DomainError):
        ln_gamma_k(1.0, x)


# ---------------------------------------------------------------- rgamma
def test_rgamma_values():
    assert rgamma(1.0) == pytest.approx(1.0, abs=1e-15)
    assert rgamma(0.0) == 0.0
    assert rgamma(-1.0) == 0.0
    assert rgamma(-7.0) == 0.0
    # reflection: 1/Gamma(-1/2) = -1/(2 sqrt(pi))
    assert rgamma(-0.5) == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)


@pytest.mark.parametrize("x", [0.3, 0.5, 2.0, 4.5, -0.5, -2.3, -6.7])
def test_rgamma_vs_libm(x):
    assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-12)


def test_rgamma_underflows_to_zero_for_large_x():
    assert rgamma(400.0) == 0.0


def _rgamma_outcome(fn, x):
    try:
        return fn(x)
    except (OverflowError, DomainError) as exc:
        return type(exc), str(exc)


def test_rgamma_is_rgamma_k_at_k_one():
    # one 1/Gamma: the poles, subnormal x, |x| above 171 and a seeded sample,
    # with the same value or the same error bit for bit
    rng = random.Random(32)
    table = [0.0, -0.0, -1.0, -2.0, -170.0, -2.0**52, -1e300, 5e-324, -5e-324, 1e-310,
             -1e-310, 171.5, 171.7, 180.0, 1e300, 1.7e308, -171.2, -171.5, -200.5, -1e10 + 0.5,
             math.inf, math.nan]
    table += [rng.uniform(-175.0, 175.0) for _ in range(2000)]
    table += [math.ldexp(rng.random(), rng.randint(-1074, 1023)) * rng.choice((1, -1))
              for _ in range(500)]
    for x in table:
        assert repr(_rgamma_outcome(rgamma, x)) \
            == repr(_rgamma_outcome(lambda x: rgamma_k(1.0, x), x)), x
    with pytest.raises(OverflowError, match="overflows binary64"):
        rgamma(-200.5)


# ---------------------------------------------------------------- digamma
def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-GAMMA, abs=1e-13)
    assert digamma(2.0) == pytest.approx(1.0 - GAMMA, abs=1e-13)
    assert digamma(0.5) == pytest.approx(-GAMMA - 2.0 * LN2, abs=1e-13)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_digamma_matches_ln_gamma_derivative(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.diff(mpmath.loggamma, x))
    assert digamma(x) == pytest.approx(ref, abs=1e-14, rel=1e-14)


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-3.2)


# ---------------------------------------------------------------- polygamma
def brute_force_trigamma_at_one(n_terms=200_000):
    # sum 1/(n+1)^2 + integral tail bound correction
    total = sum(1.0 / (n + 1.0) ** 2 for n in range(n_terms))
    return total + 1.0 / (n_terms + 1.0)  # tail approx int_N 1/t^2 dt


def brute_force_psi2_at_one(n_terms=200_000):
    # psi''(1) = -2 sum 1/(n+1)^3, tail via integral comparison
    total = sum(1.0 / (n + 1.0) ** 3 for n in range(n_terms))
    tail = 0.5 / (n_terms + 0.5) ** 2
    return -2.0 * (total + tail)


def test_polygamma_known_values():
    assert polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert polygamma(1, 0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-13)
    assert polygamma(2, 1.0) == pytest.approx(brute_force_psi2_at_one(), rel=1e-9)
    assert polygamma(1, 1.0) == pytest.approx(brute_force_trigamma_at_one(), rel=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("x", [0.7, 1.5, 4.0])
def test_polygamma_matches_lower_order_derivative(m, x):
    # d/dx psi^(m-1)(x) by mpmath's differentiation of its own lower-order polygamma
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.diff(lambda t: mpmath.polygamma(m - 1, t), x))
    assert polygamma(m, x) == pytest.approx(ref, abs=1e-14, rel=1e-14)


def test_polygamma_high_order():
    # psi^(12)(x) ~ -11!/x^12 for large x
    x = 40.0
    lead = -math.factorial(11) / x**12
    assert polygamma(12, x) == pytest.approx(lead, rel=2e-1)
    with pytest.raises(DomainError):
        polygamma(0, 1.0)
    with pytest.raises(DomainError):
        polygamma(1, -1.0)


_B2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798,
        -174611 / 330)  # Bernoulli numbers B_2 .. B_20


def _polygamma_per_call_loop(m, x):
    # the evaluation before the one k-polygamma kernel: every constant
    # recomputed on each call, the shift summed from the largest term, a
    # division per Bernoulli term, the same operations in the same order
    mf = float(math.factorial(m))
    sign = 1.0 if m % 2 == 1 else -1.0
    shift = 0.0
    threshold = 10.0 + m
    while x < threshold:
        shift += mf / x ** (m + 1)
        x += 1.0
    fm1 = float(math.factorial(m - 1))
    core = fm1 / x**m + mf / (2.0 * x ** (m + 1))
    xp = x ** (m + 2)
    x2 = x * x
    for j, b2j in enumerate(_B2J, start=1):
        coeff = b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
        core += coeff / xp
        xp *= x2
    return sign * (core + shift)


_TABLE_XS = tuple(10 ** (-8 + 28 * i / 599) for i in range(600))  # [1e-8, 1e20]


def bernoulli_numbers(n):
    """B_0 .. B_n exactly, by the Akiyama-Tanigawa recurrence (B_1 = +1/2)."""
    a = [Fraction(0)] * (n + 1)
    numbers = []
    for i in range(n + 1):
        a[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        numbers.append(a[0])
    return numbers


_B22_TO_B34 = tuple(bernoulli_numbers(34)[22::2])  # B_22 .. B_34, exact


def shift_end(m):
    """T_m, the least integer y with |c_17| y^-34 < 2^-58 (m-1)!, in exact arithmetic."""
    c17 = abs(_B22_TO_B34[-1]) * math.factorial(33 + m) / math.factorial(34)
    t = 1
    while c17 / t**34 >= Fraction(math.factorial(m - 1), 2**58):
        t += 1
    return t


def far_end(m):
    """F_m, the least integer y with |c_7| y^-14 < 2^-58 (m-1)!, in exact arithmetic."""
    c7 = Fraction(7, 6) * math.factorial(13 + m) / math.factorial(14)  # B_14 = 7/6
    bound = Fraction(math.factorial(m - 1), 2**58)
    y = math.ceil((c7 / bound) ** (1.0 / 14.0))  # a float seed, decided exactly below
    while c7 / y**14 >= bound:
        y += 1
    while c7 / (y - 1) ** 14 < bound:
        y -= 1
    return y


def truncation_cut(m):
    # below it the second shift term, (u/(u+1))^(m+1), is below 2^-64 of the first
    return 1.0 / (2.0 ** (64 / (m + 1)) - 1.0)


def _polygamma_kernel_per_call(m, x, k=1.0):
    # the kernel's evaluation without the per-order plan: every coefficient
    # recomputed on each call, the six-term tail from u = x/k = F_m up,
    # below it the shift to T_m (none from T_m up) and the Bernoulli tail
    # as a loop over all sixteen terms, and below the truncation cut
    # m! x^-(m+1); the same operations in the same order
    mf = float(math.factorial(m))
    fm1 = float(math.factorial(m - 1))
    sign = 1.0 if m % 2 == 1 else -1.0
    power = -1.0 - m
    coeffs = [
        b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
        for j, b2j in enumerate(_B2J, start=1)
    ]
    u = x / k
    s = 0.0
    y = x
    if u >= far_end(m):
        coeffs = coeffs[:6]
    else:
        if u < truncation_cut(m):
            return sign * _times_powers(mf, (x, -(m + 1)))
        coeffs += [float(b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j))
                   for j, b2j in enumerate(_B22_TO_B34[:-1], start=11)]
        t = shift_end(m)
        if u < t:
            n = math.ceil(t - u)
            i = n - 1.0
            s = (x + i * k) ** power
            while i > 0.0:
                i -= 1.0
                s += (x + i * k) ** power
            y = x + n * k
    d = k * y ** float(m)
    v = k / y
    v2 = v * v
    q = 0.0
    for c in reversed(coeffs):
        q = (q + c) * v2
    return sign * (mf * s + (fm1 + (0.5 * mf * v + q)) / d)


@pytest.mark.parametrize("m", range(1, 13))
def test_polygamma_table_is_bit_identical_to_per_call_loop(m):
    for x in _TABLE_XS:
        assert polygamma(m, x) == _polygamma_kernel_per_call(m, x), x
    # away from k = 1 too, where the far field x >= F_m k is tested first
    for k in (0.01, 0.37, 10.0):
        for x in _TABLE_XS:
            assert psi_k_m(k, m, x) == _polygamma_kernel_per_call(m, x, k), (k, x)


def test_polygamma_on_the_table_points_vs_mpmath():
    # against the per-call loop on the same 12 x 600 points: no worse at
    # the worst point (3.1e-16 against 5.6e-16), and closer to mpmath more
    # often than not (1,539 values closer, 1,127 farther)
    mpmath = pytest.importorskip("mpmath")
    worst = worst_loop = 0.0
    closer = farther = 0
    with mpmath.workdps(30):
        for m in range(1, 13):
            for x in _TABLE_XS:
                ref = mpmath.polygamma(m, x)
                err = float(abs((polygamma(m, x) - ref) / ref))
                err_loop = float(abs((_polygamma_per_call_loop(m, x) - ref) / ref))
                worst = max(worst, err)
                worst_loop = max(worst_loop, err_loop)
                closer += err < err_loop
                farther += err > err_loop
    assert worst <= worst_loop
    assert closer > farther


def test_polygamma_table_needs_no_factorials_once_warm(monkeypatch):
    orders = range(1, 13)
    for m in orders:
        polygamma(m, 1.5)
    calls = []
    real = math.factorial

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(math, "factorial", counting)
    for i in range(1000):
        polygamma(orders[i % len(orders)], 0.37 + i)
    assert calls == []


def test_polygamma_table_is_keyed_on_order_only(monkeypatch):
    plans = {}
    monkeypatch.setattr(kcore, "_POLYGAMMA_PLANS", plans)
    orders = (1, 2, 6)
    for m in orders:
        for x in _TABLE_XS[::20]:
            polygamma(m, x)
    assert sorted(plans) == list(orders)


@pytest.mark.parametrize("m,x", [(1, 1e-160), (1, 1e-200), (3, 1e-100), (12, 1e-30)])
def test_polygamma_beyond_binary64_raises(m, x):
    with pytest.raises(OverflowError, match="overflows binary64"):
        polygamma(m, x)


def test_polygamma_order_limit():
    assert math.isfinite(polygamma(150, 1.0))
    for x in (1.0, 1e300):
        with pytest.raises(DomainError, match="above 150"):
            polygamma(151, x)


# ---------------------------------------------------------------- zeta
def direct_zeta3(n_terms=1_000_000):
    total = math.fsum(float(n) ** -3.0 for n in range(1, n_terms + 1))
    # integral tail with midpoint correction
    return total + 0.5 / (n_terms + 0.5) ** 2


def test_zeta_known_values():
    assert zeta_int(2) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert zeta_int(4) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
    assert zeta_int(3) == pytest.approx(direct_zeta3(), rel=1e-12)


def test_zeta_decreasing_to_one():
    values = [zeta_int(s) for s in range(2, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0
    assert zeta_int(300) == pytest.approx(1.0 + 2.0**-300 + 3.0**-300, rel=1e-15)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta_int(1)
    with pytest.raises(DomainError):
        zeta_int(2.0)


# ---------------------------------------------------------------- 2F1
def test_2f1_at_zero_is_one():
    for a, b, c in [(1.0, 2.0, 3.0), (0.3, -1.2, 0.7)]:
        sv = gauss_2f1(a, b, c, 0.0)
        assert sv.value == 1.0
        assert sv.error_estimate <= 1e-13


def test_2f1_log_case():
    # F(1,1;2;z) = -ln(1-z)/z
    sv = gauss_2f1(1.0, 1.0, 2.0, -1.0)
    assert sv.value == pytest.approx(LN2, abs=5e-13)


def test_2f1_against_quadrature_oracle():
    # int_0^1 x^2/(1+x/2)^2 dx = (1/3) F(2,3;4;-1/2)
    oracle = adaptive_quad(lambda x: x**2 / (1.0 + 0.5 * x) ** 2, 0.0, 1.0, 1e-12)
    sv = gauss_2f1(2.0, 3.0, 4.0, -0.5)
    assert sv.value == pytest.approx(3.0 * oracle.value, abs=1e-11)


def _2f1_series_forming_each_ratio_twice(a, b, c, z, tol):
    # the series loop as it was, kept as the reference: the ratio that step n
    # tests (nxt) is formed again as the ratio that step n + 1 multiplies in
    term = 1.0
    total = 1.0
    n = 0
    while n < routes._2F1_MAX_TERMS:
        ratio = (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        term *= ratio
        total += term
        n += 1
        if term == 0.0:
            return total, 0.0, n
        nxt = abs((a + n) * (b + n) / ((c + n) * (1.0 + n)) * z)
        if nxt < 0.95 and abs(term) <= 0.25 * tol * max(1.0, abs(total)):
            r = max(nxt, abs(z))
            err = abs(term) * r / (1.0 - r)
            return total, err, n
    raise AssertionError("the reference series did not converge")


def test_2f1_series_forms_each_ratio_once_to_the_same_estimate(monkeypatch):
    # both branches (direct for z >= -0.5, Pfaff below) over seeded points
    rng = random.Random(2)
    points = [(rng.uniform(-4.0, 8.0), rng.uniform(-4.0, 8.0), rng.uniform(-2.5, 10.0),
               -rng.random()) for _ in range(2000)]
    points += [(1.0, 1.0, 2.0, -1.0), (-2.0, 3.0, 1.5, -0.25), (0.0, 1.0, 2.0, -0.75)]
    carried = [gauss_2f1(*p) for p in points]
    monkeypatch.setattr(routes, "_2f1_series", _2f1_series_forming_each_ratio_twice)
    assert [gauss_2f1(*p) for p in points] == carried


@pytest.mark.parametrize("z", [-1.0, -0.9, -0.6, -0.45, -0.3, -0.12, -0.04])
def test_2f1_route_equivalence(z):
    # z >= -0.5 sums the series directly, z < -0.5 goes through Pfaff
    mpmath = pytest.importorskip("mpmath")
    for a, b, c in [(1.5, 2.5, 3.2), (0.7, 1.1, 2.9), (4.0, 2.0, 5.5)]:
        value = gauss_2f1(a, b, c, z).value
        ref = float(mpmath.hyp2f1(a, b, c, z))
        assert abs(value - ref) <= 1e-13 * abs(ref)


def test_2f1_parameter_errors():
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 0.0, -0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, -3.0, -0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 2.0, -1.5)


# ---------------------------------------------------------------- lerch
def test_lerch_alt_known_values():
    assert lerch_alt(1.0).value == pytest.approx(LN2, abs=1e-13)
    # Phi(-1, 1, 1/2) is twice the Leibniz sum, 2 (pi/4)
    assert lerch_alt(0.5).value == pytest.approx(math.pi / 2.0, abs=1e-13)
    # digamma-difference oracle for a = 1.5
    oracle = 0.5 * (digamma(1.25) - digamma(0.75))
    assert lerch_alt(1.5).value == pytest.approx(oracle, abs=1e-12)
    assert lerch_alt(1.5).value == pytest.approx(2.0 - math.pi / 2.0, abs=1e-13)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
def test_lerch_alt_telescoping(a):
    assert lerch_alt(a).value + lerch_alt(a + 1.0).value == pytest.approx(1.0 / a, abs=1e-12)


def test_lerch_alt_negative_argument():
    # Phi(-1,1,a) = 1/a - Phi(-1,1,a+1)
    assert lerch_alt(-0.5).value == pytest.approx(-2.0 - math.pi / 2.0, abs=1e-12)
    assert lerch_alt(-1.7).value == pytest.approx(
        1.0 / -1.7 - 1.0 / -0.7 + lerch_alt(0.3).value, abs=1e-12
    )


def test_lerch_alt_poles():
    for a in (0.0, -1.0, -4.0):
        with pytest.raises(PoleError):
            lerch_alt(a)


def test_lerch_one_diff():
    assert lerch_one_diff(0.8, 0.8) == 0.0
    assert lerch_one_diff(1.0, 0.5) == pytest.approx(-2.0 * LN2, abs=1e-13)
    # direct paired summation oracle
    a, b = 0.75, 1.25
    n_terms = 200_000
    partial = sum(1.0 / (n + a) - 1.0 / (n + b) for n in range(n_terms))
    tail = (b - a) / (n_terms + 0.5 * (a + b))  # integral comparison
    assert lerch_one_diff(a, b) == pytest.approx(partial + tail, abs=1e-9)
    assert lerch_one_diff(a, b) == pytest.approx(4.0 - math.pi, abs=1e-13)
    with pytest.raises(DomainError):
        lerch_one_diff(-1.0, 1.0)


def test_series_value_contract():
    sv = lerch_alt(1.0)
    assert sv.error_estimate <= 1e-10
    assert sv.terms_used >= 1
