"""Tests for the k-deformed gamma/digamma family."""

import math
import random
from fractions import Fraction

import pytest

from kspecfun import (
    DomainError,
    PoleError,
    beta_k,
    digamma,
    gamma_k,
    get_entry,
    ln_gamma_k,
    polygamma,
    psi_k,
    psi_k_m,
    psi_k_m_series,
    psi_k_series,
    kcore,
    rgamma_k,
    routes,
    scalar,
)
from kspecfun.scalar import CONSTANTS
from test_scalar import bernoulli_numbers

GAMMA = CONSTANTS.euler_gamma
LN2 = math.log(2.0)

K_GRID = (0.5, 1.0, 2.0, math.pi)
X_UNITS = (0.1, 0.7, 1.0, 2.5, 8.0)


def test_k_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma_k(bad, 1.0)
    assert gamma_k(2, 1.0) == gamma_k(2.0, 1.0)


# ---------------------------------------------------------------- gamma_k
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
def test_gamma_k_normalisation(k):
    assert gamma_k(k, k) == pytest.approx(1.0, abs=1e-14)


def test_gamma_k_values():
    assert gamma_k(1.0, 5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_k(2.0, 1.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-13)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("u", X_UNITS)
def test_gamma_k_recurrence(k, u):
    x = u * k
    lhs = gamma_k(k, x + k)
    rhs = x * gamma_k(k, x)
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_gamma_k_negative_argument_reflection():
    assert gamma_k(1.0, -0.5) == pytest.approx(math.gamma(-0.5), rel=1e-12)
    assert gamma_k(2.0, -1.0) == pytest.approx(2.0 ** (-1.5) * math.gamma(-0.5), rel=1e-12)


def test_gamma_k_overflow_only_beyond_binary64():
    # ln Gamma(171.5) = 709.16 > 709, yet Gamma(171.5) = 9.5e307 is finite
    assert math.isfinite(gamma_k(1.0, 171.5))
    with pytest.raises(OverflowError, match="overflows binary64"):
        gamma_k(1.0, 172.0)


def test_gamma_k_pole_guard():
    for x in (0.0, -1.0, -2.0):
        with pytest.raises(PoleError):
            gamma_k(1.0, x)
    with pytest.raises(PoleError):
        gamma_k(1.0, -1.0 + 1e-10)
    # just outside the guard is allowed
    assert math.isfinite(gamma_k(1.0, -1.0 + 1e-6))


@pytest.mark.parametrize("k,x", [
    (49.0, -2.0**60),  # x/k rounds to an integer, yet x - (x/k) k = 128
    (49 / 1024, -2.0**50),  # the same, and k^(x/k - 1) overflows
    (1e-3, -1.7e308),  # x/k overflows to -inf
])
def test_gamma_k_pole_wherever_x_over_k_is_a_nonpositive_integer(k, x):
    # in binary64 x/k is the argument, so an integral x/k <= 0 is a pole
    # even where it lies outside the guard of x itself
    with pytest.raises(PoleError):
        gamma_k(k, x)
    assert rgamma_k(k, x) == 0.0


def test_gamma_k_overflow_reported_as_range_error():
    with pytest.raises(OverflowError):
        gamma_k(1.0, 200.0)


def test_ln_gamma_k_companion():
    assert ln_gamma_k(1.0, 200.0) == pytest.approx(math.lgamma(200.0), rel=1e-14)
    assert math.exp(ln_gamma_k(2.0, 1.0)) == pytest.approx(gamma_k(2.0, 1.0), rel=1e-14)


def test_rgamma_k_total():
    assert rgamma_k(2.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert rgamma_k(2.0, 0.0) == 0.0
    assert rgamma_k(2.0, -4.0) == 0.0
    assert rgamma_k(0.5, -0.75) != 0.0


# ---------------------------------------------------------------- psi_k
def test_psi_k_values():
    assert psi_k(1.0, 1.0) == pytest.approx(-GAMMA, abs=1e-13)
    assert psi_k(2.0, 2.0) == pytest.approx((LN2 - GAMMA) / 2.0, abs=1e-13)
    assert psi_k(2.0, 4.0) == pytest.approx((LN2 - GAMMA) / 2.0 + 0.5, abs=1e-13)
    assert psi_k(1.0, 3.5) == pytest.approx(digamma(3.5), abs=1e-15)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (OverflowError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


_rng = random.Random(33)
# subnormal, tiny and huge x, the shift seams, and a log-uniform sweep of binary64
_K_ONE_XS = (5e-324, 1e-320, 1e-310, 5.5e-309, 5.6e-309, 2.2250738585072014e-308, 1e-300,
             1e-8, 9.999999999999998, 10.0, 10.000000000000002, 1e300, 1.7976931348623157e308,
             *(10.0 ** _rng.uniform(-323.0, 308.0) for _ in range(400)),
             *(_rng.uniform(0.0, 200.0) for _ in range(400)))


def test_digamma_and_polygamma_are_psi_k_and_psi_k_m_at_k_one():
    # one psi body: the classical functions are the k-functions at k = 1, bit
    # for bit, and raise the same errors beyond binary64
    for x in _K_ONE_XS:
        assert _outcome(digamma, x) == _outcome(psi_k, 1.0, x), x
    raised = 0
    for m in range(1, 151):
        for x in _K_ONE_XS[:13] + _K_ONE_XS[13 + m::7]:
            outcome = _outcome(polygamma, m, x)
            assert outcome == _outcome(psi_k_m, 1.0, m, x), (m, x)
            raised += outcome.startswith("OverflowError")
    assert _outcome(digamma, 5e-324).startswith("OverflowError") and raised > 1000


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("u", X_UNITS)
def test_psi_k_recurrence(k, u):
    x = u * k
    assert psi_k(k, x + k) - psi_k(k, x) == pytest.approx(1.0 / x, abs=1e-11, rel=1e-11)


@pytest.mark.parametrize(
    "k,x",
    [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (math.pi, 0.4), (2.0, 9.0)],
)
def test_psi_k_series_route_equivalence(k, x):
    sv = psi_k_series(k, x)
    assert sv.error_estimate <= 1e-10
    assert sv.value == pytest.approx(psi_k(k, x), abs=1e-10 + sv.error_estimate)


@pytest.mark.parametrize("f,k,x", [
    (psi_k, 1.0, 1e-310),  # about -1e310
    (psi_k, 1.0, 5e-324),  # about -2e323
    (psi_k, 0.1, 2.3e-309),  # x/k is normal, but psi(x/k)/k is about -4.3e308
    (beta_k, 1.0, 1e-309),  # about 1e309
    (beta_k, 1.0, 5.5e-309),  # 1/x is about 1.8e308
])
def test_psi_k_beta_k_beyond_binary64_raise(f, k, x):
    with pytest.raises(OverflowError, match="overflows binary64"):
        f(k, x)


@pytest.mark.parametrize("k", [1.0, 5e-324, 1e300])
def test_beta_k_at_the_smallest_subnormal_overflows(k):
    # 0.5 * 5e-324 rounds to 0.0; the true value is at least 1/(2x), about 1e323
    with pytest.raises(OverflowError, match=r"^beta_k\(5e-324\) overflows binary64"):
        beta_k(k, 5e-324)


@pytest.mark.parametrize("k", (2.0**-512, 1e-300, 5e-324))
def test_psi_k_series_refuses_k_where_its_tail_underflows(k):
    # k(k + x) = 2k^2 is below 2^-1022, so the first direct term's denominator leaves
    # the normal range; the route once ended there in a ZeroDivisionError
    # from x/(nk (nk + x)) or (nk)^-6
    with pytest.raises(DomainError, match=r"^psi_k_series requires \(nk\)\(nk \+ x\) within "
                                          r"the normal range for 1 <= n <= 128, got k="):
        psi_k_series(k, k)


@pytest.mark.parametrize("u", (0.1, 1.0, 5.0))
def test_psi_k_series_forms_no_power_of_k(u):
    # the tail once took k**3 and k**5, which overflowed from k = 1e100 up
    assert psi_k_series(1e100, u * 1e100).value == pytest.approx(psi_k(1e100, u * 1e100),
                                                                 rel=1e-15)
    # where the direct terms' denominators leave binary64 they would read 0.0
    with pytest.raises(DomainError, match=r"^psi_k_series requires \(nk\)\(nk \+ x\) within"):
        psi_k_series(1e300, u * 1e300)


def test_psi_k_series_values():
    assert psi_k_series(1.0, 1.0).value == pytest.approx(-GAMMA, abs=1e-10)
    assert psi_k_series(2.0, 2.0).value == pytest.approx(0.0579657578292062, abs=1e-10)


# ---------------------------------------------------------------- psi_k_m
def test_psi_k_m_values():
    assert psi_k_m(1.0, 1, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert psi_k_m(2.0, 1, 2.0) == pytest.approx(math.pi**2 / 24.0, rel=1e-12)
    zeta3 = 1.2020569031595943
    assert psi_k_m(2.0, 2, 2.0) == pytest.approx(-zeta3 / 4.0, rel=1e-12)


@pytest.mark.parametrize("k", [0.5, 2.0])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("x", [0.3, 1.0, 3.7])
def test_psi_k_m_series_route_equivalence(k, m, x):
    sv = psi_k_m_series(k, m, k * x)
    ref = psi_k_m(k, m, k * x)
    assert sv.value == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("k,m,x", [(1.0, 3, 1e-100), (1e-100, 3, 1e-98), (5e-324, 1, 1.0)])
def test_psi_k_m_beyond_binary64_raises(k, m, x):
    with pytest.raises(OverflowError, match="overflows binary64"):
        psi_k_m(k, m, x)


def test_psi_k_m_returns_a_value_or_the_documented_overflow():
    # no raw pow error, ZeroDivisionError or DomainError, no inf or nan
    grid = [10.0 ** (e / 2) for e in range(-646, 617, 15)] + [5e-324, 1.7976931348623157e308]
    for m in (1, 2, 3, 6, 12):
        for k in grid:
            for x in grid:
                try:
                    value = psi_k_m(k, m, x)
                except OverflowError as exc:
                    assert "overflows binary64" in str(exc), (k, m, x)
                else:
                    assert math.isfinite(value), (k, m, x)


def test_the_polygamma_edge_never_nests(monkeypatch):
    # over the extreme grid above, each rescaled rerun of the kernel stays
    # on the normal range, so no edge call is made from inside another
    depth, deepest, calls = 0, 0, 0
    edge = kcore._polygamma_edge

    def spy(m, k, x):
        nonlocal depth, deepest, calls
        depth, calls = depth + 1, calls + 1
        deepest = max(deepest, depth)
        try:
            return edge(m, k, x)
        finally:
            depth -= 1

    monkeypatch.setattr(kcore, "_polygamma_edge", spy)
    test_psi_k_m_returns_a_value_or_the_documented_overflow()
    assert (calls, deepest) == (33652, 1)


def test_polygamma_shift_plan_is_derived():
    # the far field starts at F_m and closes with c_1 .. c_6; below it psi_k_m
    # shifts to T_m and closes with c_1 .. c_16.  F_m, T_m, c_7 .. c_16 and the
    # truncation cut are rebuilt here, F_m from B_14 and T_m and c_11 .. c_16 from
    # B_22 .. B_34 recomputed exactly, at every order up to the limit
    b = bernoulli_numbers(34)
    assert [Fraction(p, q) for p, q in kcore._BERNOULLI_22_34] == b[22::2]
    assert Fraction(scalar._BERNOULLI[6]).limit_denominator(10) == b[14]
    fars, ends = {}, {}
    for m in range(1, 151):
        plan = kcore._POLYGAMMA_PLANS.get(m) or kcore._polygamma_plan(m)
        f, coeffs = plan[1], plan[7:]
        t, cut, *near = kcore._POLYGAMMA_SHIFTS[m]
        # c_1 .. c_10 as the parent formed them, from the binary64 B_2 .. B_20
        mid = [b2j * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
               for j, b2j in enumerate(scalar._BERNOULLI, start=1)]
        c = [b[2 * j] * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
             for j in range(7, 18)]
        assert list(coeffs) == mid[:6] and near[:4] == mid[6:], m
        assert near[4:] == [float(cj) for cj in c[4:10]], m
        assert all(math.isfinite(cj) for cj in coeffs + tuple(near)), m
        bound = Fraction(math.factorial(m - 1), 2**58)
        # F_m is the least integer y where the first term that the far field's
        # six-term tail drops, |c_7| y^-14, is below 2^-58 of the first, (m-1)!
        assert f == int(f) and abs(c[0]) / Fraction(int(f)) ** 14 < bound, m
        assert abs(c[0]) / Fraction(int(f) - 1) ** 14 >= bound, m
        # T_m is the least integer y where the sixteen-term tail's first dropped
        # term, |c_17| y^-34, is below 2^-58 of the first
        assert t == int(t) and abs(c[10]) / Fraction(int(t)) ** 34 < bound, m
        assert abs(c[10]) / Fraction(int(t) - 1) ** 34 >= bound, m
        assert t <= 10 + m < f
        # below cut the second shift term, (u/(u+1))^(m+1), is below 2^-64 of the first
        assert cut < t and (cut / (cut + 1.0)) ** (m + 1) == pytest.approx(2.0**-64, rel=1e-12)
        fars[m], ends[m] = int(f), int(t)
    assert [fars[m] for m in range(1, 7)] == [18, 22, 26, 29, 32, 35]
    assert (fars[12], fars[150]) == (54, 463)
    assert [ends[m] for m in range(1, 7)] == [8, 8, 9, 10, 10, 11]
    assert (ends[12], ends[150]) == (15, 89)
    # c_11 .. c_16 stay out of the shared ten-term tuple that the series route enumerates
    assert len(scalar._BERNOULLI) == 10 and len(routes._EM_COEFFS) == 10


def test_least_root_decides_at_the_float_seed():
    # the seed is the float root rounded up, and the exact tests at y and y - 1
    # decide it, also where the float root lands next to an integer
    for num, den, p in ((1, 1, 14), (2**14, 1, 14), (2**14 + 1, 1, 14), (2**14 - 1, 1, 14),
                        (3**34, 1, 34), (3**34 - 1, 1, 34), (7, 6, 14), (10**60, 3, 34)):
        y = kcore._least_root(num, den, p)
        assert num < den * y**p and (y == 1 or num >= den * (y - 1) ** p), (num, den, p)


def test_psi_k_m_domain():
    with pytest.raises(DomainError):
        psi_k_m(1.0, 0, 1.0)
    for k, x in ((1.0, 1.0), (1e-300, 1e10)):  # the order is checked before any route
        with pytest.raises(DomainError, match="above 150"):
            psi_k_m(k, 151, x)
    with pytest.raises(DomainError):
        psi_k_m(1.0, 1, -1.0)
    with pytest.raises(DomainError):
        psi_k(1.0, 0.0)


# ---------------------------------------------------------------- duplication
def test_duplication_rhs_values():
    # the EQ5.55 rhs route, 2 psi_k(2kx) - psi_k(kx) - 2 ln2 / k
    rhs = get_entry("EQ5.55").rhs
    # k = 1, x = 1: psi(3/2) = 2 - gamma - 2 ln 2
    assert rhs(k=1.0, x=1.0) == pytest.approx(2.0 - GAMMA - 2.0 * LN2, abs=1e-12)
    # pairs with psi_k(kx + k/2)
    assert rhs(k=2.0, x=2.0) == pytest.approx(psi_k(2.0, 5.0), abs=1e-12)
    assert rhs(k=2.0, x=1.0) == pytest.approx(psi_k(2.0, 3.0), abs=1e-12)
    assert rhs(k=0.5, x=2.0) == pytest.approx(psi_k(0.5, 1.25), abs=1e-12)


@pytest.mark.parametrize("k", K_GRID)
def test_duplication_ratio_is_constant_in_x(k):
    ratios = []
    for x in (0.3, 0.8, 1.4):
        num = gamma_k(k, 2.0 * k * x)
        den = 2.0 ** (2.0 * x - 1.0) * gamma_k(k, k * x) * gamma_k(k, k * x + 0.5 * k)
        ratios.append(num / den)
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-12)
