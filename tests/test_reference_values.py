"""Cross-checks against mpmath, a fully independent implementation."""

import functools
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

import kspecfun
from kspecfun import (
    PoleError,
    beta,
    beta_k,
    beta_k_deriv,
    default_grid,
    digamma,
    furdui_oracle,
    gamma_k,
    gauss_2f1,
    hadamard,
    hadamard_k,
    kcore,
    lerch_alt,
    lerch_one_diff,
    ln_gamma_k,
    polygamma,
    psi_k,
    psi_k_m,
    recursion_47,
    registry,
    rgamma,
    rgamma_k,
    run_all,
    studies,
    zeta_int,
)
from kspecfun.routes import zeta_minus_1, zeta_tail
from kspecfun.scalar import _T1, _T2, _T3, _T4, _T5, _T6, _T7, CONSTANTS

mp.dps = 30


@pytest.mark.parametrize("x", [1e-4, 0.23, 1.0, 4.56, 123.0, 2.5e4])
def test_ln_gamma_vs_mpmath(x):
    ref = float(mpmath.loggamma(x))
    assert ln_gamma_k(1.0, x) == pytest.approx(ref, rel=1e-13, abs=1e-13)


# name -> the function of x; ln Gamma is ln_gamma_k at k = 1
EDGE_FUNCTIONS = {"ln_gamma": lambda x: ln_gamma_k(1.0, x), "rgamma": kspecfun.rgamma}


@pytest.mark.parametrize("name,x", [
    ("ln_gamma", 2.5e305),  # 1.76e308
    ("ln_gamma", 2.6e305),  # 1.83e308, where libm lgamma overflows
    ("rgamma", 2.6e305),  # lgamma overflows; 1/Gamma underflows to 0.0
    ("rgamma", 1.7e308),
    ("rgamma", -170.5),  # -3.0e307
    ("rgamma", -171.5),  # 5.2e309
    ("rgamma", -200.5),  # -3.6e375
])
def test_ln_gamma_and_rgamma_at_the_binary64_edge_vs_mpmath(name, x):
    with mpmath.workdps(50):
        ref = mpmath.loggamma(x) if name == "ln_gamma" else mpmath.rgamma(x)
    got = EDGE_FUNCTIONS[name]
    if abs(ref) > sys.float_info.max:
        with pytest.raises(OverflowError, match=r"\) overflows binary64( \(k=1\.0\))?$"):
            got(x)
    elif abs(ref) < sys.float_info.min:
        assert got(x) == 0.0
    else:
        assert got(x) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x", [0.01, 0.4, 1.0, 2.7, 11.0, 400.0])
def test_digamma_vs_mpmath(x):
    assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-13, rel=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 9, 12])
@pytest.mark.parametrize("x", [0.3, 1.0, 7.7])
def test_polygamma_vs_mpmath(m, x):
    ref = float(mpmath.polygamma(m, x))
    assert polygamma(m, x) == pytest.approx(ref, rel=1e-11)


def test_digamma_accuracy_map():
    # the bound stated in digamma's docstring
    with mpmath.workdps(40):
        for e in range(-64, 241):  # x in [1e-8, 1e30]
            x = 10 ** (e / 8)
            ref = mpmath.digamma(x)
            err = float(abs(digamma(x) - ref) / max(1, abs(ref)))
            assert err <= 1e-15, (x, err)


def test_digamma_stated_bound_on_a_seeded_map():
    # 2e-15 max(1, |psi|), the bound in digamma's docstring, on x uniform in
    # (0.01, 10], where the shift sums cancel; 0.857357179453047 is 1.28e-15 off
    rng = random.Random(12)
    xs = [rng.uniform(0.01, 10.0) for _ in range(6000)] + [0.857357179453047]
    with mpmath.workdps(40):
        errs = [float(abs(digamma(x) - ref) / max(1, abs(ref)))
                for x in xs for ref in [mpmath.digamma(x)]]
    assert max(errs) <= 2e-15
    assert errs[-1] > 1e-15


def _psi_tail_form(x):
    # digamma's own form for x >= 10 before it was psi_k at k = 1: ln x - 1/(2x)
    # less the tail, where psi_k takes ln x + (-1/(2x) - tail)
    v = 1.0 / (x * x)
    p = ((((((_T7 * v + _T6) * v + _T5) * v + _T4) * v + _T3) * v + _T2) * v + _T1) * v
    return 0.0 + math.log(x) - 0.5 / x - p


def test_digamma_above_ten_moves_toward_mpmath():
    # 20,000 x log-uniform in [10, 1e8]: where psi_k's far-field form and the
    # earlier one differ, psi_k's is closer to mpmath more often than farther,
    # and its worst error over the map is no larger
    rng = random.Random(33)
    closer = farther = 0
    worst = worst_before = 0.0
    with mpmath.workdps(40):
        for x in (10.0 ** rng.uniform(1.0, 8.0) for _ in range(20000)):
            ref = mpmath.digamma(x)
            value, before = digamma(x), _psi_tail_form(x)
            err, err_before = (float(abs((v - ref) / ref)) for v in (value, before))
            closer += err < err_before
            farther += err > err_before
            worst, worst_before = max(worst, err), max(worst_before, err_before)
    assert closer > farther > 1000
    assert worst <= worst_before


@pytest.mark.parametrize("x", [5e-324, 1e-310, 5.5e-309])
def test_digamma_beyond_binary64_raises(x):
    # psi(x) = -1/x - gamma + O(x) is beyond binary64
    with mpmath.workdps(40):
        assert abs(mpmath.digamma(x)) > sys.float_info.max
    with pytest.raises(OverflowError) as info:
        digamma(x)
    assert str(info.value) == f"psi_k({x}) overflows binary64 (k=1.0)"


@pytest.mark.parametrize("a,b", [
    (5e-324, 5e-324),  # 0.0, while both psi are beyond binary64
    (5.5e-309, 5.6e-309),  # psi(a) is beyond binary64, the difference is 3.2e306
    (1e-310, 2e-310),  # 5e309, beyond binary64
    (5e-324, 1.0),
    (1.0, 5e-324),
    (1e-310, 1e300),
    (2.5e-309, 0.75),
])
def test_lerch_one_diff_where_a_psi_is_beyond_binary64_vs_mpmath(a, b):
    with mpmath.workdps(40):
        ref = mpmath.digamma(b) - mpmath.digamma(a)
    if abs(ref) > sys.float_info.max:
        with pytest.raises(OverflowError, match=r"\) overflows binary64$"):
            lerch_one_diff(a, b)
    elif ref == 0:
        assert lerch_one_diff(a, b) == 0.0
    else:
        assert lerch_one_diff(a, b) == pytest.approx(float(ref), rel=4e-16, abs=0.0)


def test_lerch_one_diff_is_the_digamma_difference_where_both_are_finite():
    rng = random.Random(4)
    for _ in range(2000):
        a, b = (10.0 ** rng.uniform(-308, 300) for _ in range(2))
        assert lerch_one_diff(a, b) == digamma(b) - digamma(a), (a, b)


_POLYGAMMA_MAP_X = tuple(10 ** (e / 8) for e in range(-64, 241)) + tuple(
    10.0**e for e in range(31, 301))  # [1e-8, 1e300]


@pytest.mark.parametrize("m", range(1, 13))
def test_polygamma_accuracy_map(m):
    # the bound stated in polygamma's docstring; past x ~ 1e22 (m = 12) to
    # 1e102 (m = 1) the powers of x leave binary64 and the kernel reruns at x 2^-e
    tiny = mpmath.mpf(sys.float_info.min)
    with mpmath.workdps(30):
        for x in _POLYGAMMA_MAP_X:
            ref = mpmath.polygamma(m, x)
            err = float(abs(polygamma(m, x) - ref) / max(abs(ref), tiny))
            assert err <= 1e-15, (x, err)


# x^(m+2) overflows at each point, the value does not or underflows; at
# (39, 3.4e7) the Bernoulli terms still add 1.2e-13
@pytest.mark.parametrize("m,x", [(1, 1e160), (6, 1e40), (12, 1e30), (3, 1.7e308), (39, 3.4e7)])
def test_polygamma_large_x_vs_mpmath(m, x):
    ref = mpmath.polygamma(m, x)
    assert abs(polygamma(m, x) - ref) <= 1e-15 * max(abs(ref), sys.float_info.min)


@pytest.mark.parametrize("m", range(1, 13))
def test_psi_k_m_at_k_one_is_polygamma(m):
    # one kernel: psi_k_m at k = 1 is polygamma bit for bit
    for x in _POLYGAMMA_MAP_X:
        assert psi_k_m(1.0, m, x) == polygamma(m, x), x


_PSI_K_M_MAP_K = (0.01, 0.37, 1.0, math.pi, 10.0)
_PSI_K_M_MAP_U = tuple(10 ** (e / 4) for e in range(-32, 61))  # [1e-8, 1e15]


@pytest.mark.parametrize("m", range(1, 13))
def test_psi_k_m_accuracy_map(m):
    # the bound stated in psi_k_m's docstring; the worst point of the map
    # is 4.4e-16 (m = 8, k = pi, u = 17.8), where the per-call form that
    # divided psi^(m)(x/k) by k^(m+1) reached 1.3e-15 (m = 12, k = 10)
    with mpmath.workdps(40):
        for k in _PSI_K_M_MAP_K:
            for u in _PSI_K_M_MAP_U:
                x = u * k
                ref = _psi_k_m_ref(k, m, x)
                err = float(abs((psi_k_m(k, m, x) - ref) / ref))
                assert err <= 6e-16, (k, u, err)


# two points beyond the 6e-16 that psi_k_m's docstring stated before it stated 1e-15
_PSI_K_M_NEEDLES = [(11.64197775860474, 12, 243.54708562485632),  # 6.21e-16
                    (0.008906440872318955, 11, 0.11658063344095028)]  # 7.21e-16


def test_psi_k_m_stated_bound_on_a_seeded_map():
    # 1e-15 relative for m <= 12 and x/k in [1e-8, 1e15] at every k: k
    # log-uniform in [e^-5, e^5], two thirds of u uniform in the shift region
    # [1e-3, m + 12], where the error is largest, and a third log-uniform over
    # the whole range, wherever the value is normal
    rng = random.Random(11)
    points = []
    for i in range(6000):
        m = rng.randint(1, 12)
        k = math.exp(rng.uniform(-5.0, 5.0))
        u = rng.uniform(1e-3, m + 12.0) if i % 3 else 10.0 ** rng.uniform(-8.0, 15.0)
        points.append((k, m, u * k))
    errs = []
    with mpmath.workdps(40):
        for k, m, x in points + _PSI_K_M_NEEDLES:
            ref = _psi_k_m_ref(k, m, x)
            if sys.float_info.min <= abs(ref) <= sys.float_info.max:
                errs.append(float(abs((psi_k_m(k, m, x) - ref) / ref)))
    assert len(errs) > 5900
    assert max(errs) <= 1e-15
    assert min(errs[-2:]) > 6e-16


def _high_order_bound(m):
    # the bound in the docstrings of polygamma and psi_k_m for 13 <= m <= 150:
    # the rounding of each x + ik, raised to the power m + 1, and 4 ulp more
    return (m + 1) / 2 + 4.0


# adversarial points for the bound, x just below a power of two, where every
# x + ik rounds in the binade above x: 44.3 ulp for psi_k_m and 36.1 for
# polygamma, and 11.0 ulp at order 24
_HIGH_ORDER_NEEDLES = [(7.057285037608823, 139, 1021.9024945147584),
                       (7.600728209681166, 141, 1023.9267185361215),
                       (0.5396612191082113, 26, 15.737654144270325),
                       (1.0, 118, 127.1235855769756), (1.0, 24, 31.967025275825453)]


def test_psi_k_m_and_polygamma_of_orders_13_to_150_on_a_seeded_sample():
    # k log-uniform in [e^-5, e^5], u uniform in [0.5, 9 + m], against mpmath at
    # 60 digits wherever the value is normal; polygamma is the same draw at k = 1.
    # The worst sample point is psi_k_m(0.11995694993619879, 127, 15.991903857290302),
    # 29.5 ulp
    rng = random.Random(7)
    points = _HIGH_ORDER_NEEDLES[:]
    for _ in range(300):
        m = rng.randint(13, 150)
        k = math.exp(rng.uniform(-5.0, 5.0))
        u = rng.uniform(0.5, 9.0 + m)
        points += [(k, m, u * k), (1.0, m, u)]
    worst = 0.0
    with mpmath.workdps(60):
        for k, m, x in points:
            ref = _psi_k_m_ref(k, m, x)
            if not sys.float_info.min <= abs(ref) <= sys.float_info.max:
                continue
            got = polygamma(m, x) if k == 1.0 else psi_k_m(k, m, x)
            err = float(abs(got - ref)) / math.ulp(float(ref))
            assert err <= _high_order_bound(m), (k, m, x, err)
            worst = max(worst, err)
    assert worst > 29.0


def _psi_k_m_ref(k, m, x):
    k = mpmath.mpf(k)
    return mpmath.polygamma(m, mpmath.mpf(x) / k) / k ** (m + 1)


@pytest.mark.parametrize("k,m,x", [
    (1e-200, 3, 1.0),  # x/k = 1e200, k^4 underflows
    (1e-300, 1, 1e10),  # x/k overflows
    (1e300, 1, 1e-10),  # x/k underflows to 0.0
    (1e100, 1, 1e-60),  # psi'(x/k) overflows, k^2 does not
    (1e-80, 3, 1e-70),  # k^4 is subnormal
    (1e-154, 1, 1.05e-153),  # u = 10.5 < 10 + m, k^2 is subnormal
    (1e200, 2, 5e199),  # u = 1/2, k^3 overflows
    (1e-3, 12, 1e-3),
])
def test_psi_k_m_scaled_vs_mpmath(k, m, x):
    with mpmath.workdps(50):
        ref = _psi_k_m_ref(k, m, x)
    assert psi_k_m(k, m, x) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


def test_psi_k_m_underflow_vs_mpmath():
    with mpmath.workdps(50):
        ref = _psi_k_m_ref(1e100, 6, 1e100)
    assert mpmath.mpf("-1e-697") < ref < 0  # -7.26e-698, far below binary64
    value = psi_k_m(1e100, 6, 1e100)  # k^7 overflows
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


@pytest.fixture
def edge_routes(monkeypatch):
    """One entry per call of the polygamma edge: "truncated", or "rescaled" for a rerun kernel."""
    routes = []
    edge, times_powers = kcore._polygamma_edge, kcore._times_powers

    def spy_edge(m, k, x):
        routes.append("rescaled")
        return edge(m, k, x)

    def spy_times_powers(*args):
        routes[-1] = "truncated"  # in kcore only the edge's two truncations split powers
        return times_powers(*args)

    monkeypatch.setattr(kcore, "_polygamma_edge", spy_edge)
    monkeypatch.setattr(kcore, "_times_powers", spy_times_powers)
    return routes


def _ulps(value, ref):
    # relative error in units of 2^-52, the spacing of binary64 in [1, 2)
    return float(abs((value - ref) / ref)) / 2.0**-52


def _edge_points(edge_routes, seed, orders, count):
    """(k, m, x, psi_k_m(k, m, x)) at seeded points that take the edge and give a normal value."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        m = rng.choice(orders)
        k = 2.0 ** rng.uniform(-1070, 1020)
        x = k * 2.0 ** rng.uniform(-40, 80)
        if not sys.float_info.min <= x < math.inf:
            continue
        edge_routes.clear()
        try:
            value = psi_k_m(k, m, x)
        except OverflowError:
            continue
        if edge_routes and abs(value) >= sys.float_info.min:
            points.append((k, m, x, value))
    return points


@pytest.mark.parametrize("orders,bound", [
    # psi_k_m's stated bound: the worst of 3,000 points over 15 seeds was 1.2 ulp
    (range(1, 13), 6e-16 / 2.0**-52),
    # measured: the worst of 3,000 points over 15 seeds was 8.8 ulp (m = 128,
    # u = 81.6), as large as the kernel's own error on the normal range
    (range(13, 151), 10.0),
])
def test_psi_k_m_edge_accuracy_map(edge_routes, orders, bound):
    points = _edge_points(edge_routes, 0, orders, 200)
    with mpmath.workdps(40):
        for k, m, x, value in points:
            assert _ulps(value, _psi_k_m_ref(k, m, x)) <= bound, (k, m, x)


def _cut_window(u):
    """u and its four binary64 neighbours on each side."""
    below, above = [u], [u]
    for _ in range(4):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


@pytest.mark.parametrize("k,m,cut", [
    # a second shift term 2^-64 of the first, (u/(u+1))^(m+1) = 2^-64; the
    # smallest shift term is subnormal at these k
    (2.0**532, 1, 1.0 / (2.0**32 - 1.0)),
    (2.0**75, 12, 1.0 / (2.0 ** (64 / 13) - 1.0)),
    (1.0, 150, 1.0 / (2.0 ** (64 / 151) - 1.0)),
    # u = 2^70; k y^m leaves the normal range and (m-1)! brings the value back
    (2.0**15, 12, 2.0**70),
    (2.0**-60, 150, 2.0**70),
])
def test_psi_k_m_is_continuous_across_the_edge_truncations(edge_routes, k, m, cut):
    routes = set()
    with mpmath.workdps(40):
        for u in _cut_window(cut):
            x = u * k  # exact: k is a power of two
            edge_routes.clear()
            value = psi_k_m(k, m, x)
            assert _ulps(value, _psi_k_m_ref(k, m, x)) <= (2.0 if m <= 12 else 10.0), u
            routes.update(edge_routes)
    assert routes == {"truncated", "rescaled"}


@pytest.mark.parametrize("k,m,x", [
    (1e300, 1, 1e-30),  # x/k underflows to 0.0: m! x^-(m+1)
    (1e300, 3, 1e-20),
    (5e-324, 1, 1e300),  # x/k overflows to inf: (m-1)!/(k x^m)
    (5e-324, 2, 1e300),
])
def test_psi_k_m_at_u_zero_and_u_inf_vs_mpmath(edge_routes, k, m, x):
    value = psi_k_m(k, m, x)
    assert edge_routes == ["truncated"]
    with mpmath.workdps(40):
        assert _ulps(value, _psi_k_m_ref(k, m, x)) <= 1.0


def test_polygamma_of_order_150_at_one_takes_the_edge(edge_routes):
    # psi^(150)(1) = 150! zeta(151); the smallest shift term is subnormal at k = 1
    value = polygamma(150, 1.0)
    assert edge_routes == ["truncated"]
    with mpmath.workdps(40):
        assert _ulps(value, mpmath.polygamma(150, 1)) <= 1.0


@pytest.mark.parametrize("s", [2, 3, 7, 19, 50, 255, 300])
def test_zeta_vs_mpmath(s):
    assert zeta_int(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-14)


def test_zeta_minus_1_vs_mpmath():
    # zeta(300) - 1 is about 5e-91, so the reference needs far more than 91 digits
    with mp.workdps(120):
        refs = {s: mpmath.zeta(s) - 1 for s in range(2, 301)}
    errors = {s: float(abs((zeta_minus_1(s) - ref) / ref)) for s, ref in refs.items()}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 1e-14, (worst, errors[worst])


@pytest.mark.parametrize("a", [10, 25, 50, 100])
def test_zeta_tail_vs_mpmath(a):
    # at 50 digits mpmath's Hurwitz zeta(30, 100) is already wrong in the 12th digit
    with mp.workdps(80):
        refs = {s: mpmath.zeta(s, a) for s in range(2, a // 2 + 1)}
    errors = {s: float(abs((zeta_tail(float(s), a) - ref) / ref)) for s, ref in refs.items()}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 1e-14, (worst, errors[worst])


@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (1.0, 1.0, 2.0, -1.0),
        (2.0, 3.0, 4.0, -0.5),
        (0.5, 1.7, 2.3, -0.25),
        (2.0, 4.0, 5.0, -1.0),
        (3.0, 2.0, 6.5, -0.8),
    ],
)
def test_gauss_2f1_vs_mpmath(a, b, c, z):
    ref = float(mpmath.hyp2f1(a, b, c, z))
    assert gauss_2f1(a, b, c, z).value == pytest.approx(ref, rel=1e-11, abs=1e-12)


# the last five just past a pole, the first of them by 1e-300 and the others
# by an ulp: ceil(-a) + a is exact or at least 1/2, so the tail starts at a
# positive argument
@pytest.mark.parametrize("a", [0.25, 1.0, 2.5, 17.0, -0.4, -2.3, -1e-300, -(1.0 - 2.0**-53),
                               -(1.0 + 2.0**-52), -(3.0 - 2.0**-51), -(40.0 + 2.0**-47)])
def test_lerch_alt_vs_mpmath(a):
    ref = float(mpmath.lerchphi(-1, 1, a))
    assert lerch_alt(a).value == pytest.approx(ref, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, math.pi])
@pytest.mark.parametrize("x", [0.3, 1.0, 3.7])
def test_gamma_psi_beta_vs_mpmath(k, x):
    z = x / k
    gamma_ref = float(k ** (z - 1.0) * mpmath.gamma(z))
    psi_ref = float((mpmath.log(k) + mpmath.digamma(z)) / k)
    beta_ref = float(
        (mpmath.digamma((z + 1.0) / 2.0) - mpmath.digamma(z / 2.0)) / (2.0 * k)
    )
    assert gamma_k(k, x) == pytest.approx(gamma_ref, rel=1e-12)
    assert psi_k(k, x) == pytest.approx(psi_ref, abs=1e-13, rel=1e-13)
    assert beta_k(k, x) == pytest.approx(beta_ref, rel=1e-11)


@pytest.mark.parametrize("x", [0.5, 1.5, 2.25, 3.8])
def test_hadamard_vs_mpmath(x):
    # H(x) = beta(1-x)/Gamma(1-x) continued through the functional equation
    def h_ref(t):
        t = mpmath.mpf(t)
        if t < 1:
            b = (mpmath.digamma((2 - t) / 2) - mpmath.digamma((1 - t) / 2)) / 2
            return b / mpmath.gamma(1 - t)
        return (t - 1) * h_ref(t - 1) + mpmath.rgamma(2 - t)

    assert hadamard_k(1.0, x) == pytest.approx(float(h_ref(x)), rel=1e-11)


def _h_ref(k, x):
    # H_k(x) = k^(u-1) rgamma(1-u) (psi(1-u/2) - psi((1-u)/2)) / 2, u = x/k
    k = mpmath.mpf(k)
    u = mpmath.mpf(x) / k
    return k ** (u - 1) * mpmath.rgamma(1 - u) * (
        mpmath.digamma(1 - u / 2) - mpmath.digamma((1 - u) / 2)) / 2


_H_MAP_K = (0.01, 0.5, 1.0, 2.0, math.pi, 10.0)
_H_MAP_U = tuple(1.013 + 0.5 * i for i in range(298))  # 1.013 .. 149.513, off the integers


@pytest.mark.parametrize("k", _H_MAP_K)
def test_hadamard_far_field_accuracy_map(k):
    worst = 0.0
    with mpmath.workdps(40):
        for u in _H_MAP_U:
            ref = _h_ref(k, u * k)
            if abs(ref) > sys.float_info.max:
                with pytest.raises(OverflowError):
                    hadamard_k(k, u * k)
                continue
            worst = max(worst, float(abs(hadamard_k(k, u * k) - ref) / abs(ref)))
    assert worst <= 1e-12


@pytest.mark.parametrize("k", _H_MAP_K)
def test_hadamard_far_field_matches_walk(k):
    # the O(1) far field against the functional-equation walk from [0, k)
    for u in _H_MAP_U[:99]:  # u in [1, 50]
        x = u * k
        n = math.floor(u - 1.0) + 1
        walk = recursion_47(k, x - n * k, n)
        assert hadamard_k(k, x) == pytest.approx(walk, rel=1e-12), f"u={u}"


def test_beta_k_and_hadamard_at_huge_k_vs_mpmath():
    # x + k overflows; beta_k works in u = x/k
    def beta_ref(k, x):
        k, x = mpmath.mpf(k), mpmath.mpf(x)
        return (mpmath.digamma((x + k) / (2 * k)) - mpmath.digamma(x / (2 * k))) / (2 * k)

    with mpmath.workdps(40):
        b_ref = beta_ref(1e308, 5e307)
        # H_k(x) = beta_k(k - x) / Gamma_k(k - x) below the seam
        k, z = mpmath.mpf(1.7e308), mpmath.mpf(1.7e308) - 1
        h_ref = beta_ref(k, z) / (k ** (z / k - 1) * mpmath.gamma(z / k))
    assert beta_k(1e308, 5e307) == pytest.approx(float(b_ref), rel=1e-13, abs=0.0)
    assert hadamard_k(1.7e308, 1.0) == pytest.approx(float(h_ref), rel=1e-12, abs=0.0)
    assert float(h_ref) == pytest.approx(4.07733635623e-309, rel=1e-11)


def _psi_k_ref(k, x):
    k, x = mpmath.mpf(k), mpmath.mpf(x)
    return (mpmath.log(k) + mpmath.digamma(x / k)) / k


@pytest.mark.parametrize("k", [1e-3, 1e-10, 1e-60, 1e-100, 2.0**-511])
def test_psi_k_series_at_small_k_vs_mpmath(k):
    # one pass with a relative stop: at these k the route once stalled against an
    # absolute 1e-12 (1e-3, 1e-10) or refused k below 2^-177; at 2^-511,
    # k(k + x) is just inside the normal range
    for u in studies.DEFAULT_UNITS:
        x = u * k
        est = kspecfun.psi_k_series(k, x)
        with mpmath.workdps(40):
            ref = float(_psi_k_ref(k, x))
        assert est.terms_used == 128
        assert abs(est.value - ref) <= 1e-15 * abs(ref), u
        assert est.error_estimate <= 1e-12 * abs(ref), u


@pytest.mark.parametrize("k,x", [
    (1e-300, 1e300), (1e-300, 1e20), (1e-250, 1e100), (1e-200, 1e200), (1e-100, 1.7e308),
])
def test_psi_k_series_where_x_over_128k_overflows_vs_mpmath(k, x):
    # ln(1 + x/u) with u = 128k is taken without forming x/u, which once
    # made the tail inf and the route raise ConvergenceError
    assert x / (128.0 * k) == math.inf
    est = kspecfun.psi_k_series(k, x)
    with mpmath.workdps(40):
        ref = float(_psi_k_ref(k, x))
    assert abs(est.value - ref) <= est.error_estimate <= 1e-12 * abs(ref)


@pytest.mark.parametrize("k,x", [(1.0, 5.5e-309), (1.0, 5e-324), (3.0, 1e-309), (1e-150, 1e-309)])
def test_psi_k_series_beyond_binary64_raises(k, x):
    # -1/x is beyond binary64, and psi_k with it
    with mpmath.workdps(40):
        assert abs(_psi_k_ref(k, x)) > sys.float_info.max
    with pytest.raises(OverflowError, match=r"^psi_k_series\(.*\) overflows binary64"):
        kspecfun.psi_k_series(k, x)
    with pytest.raises(OverflowError, match="overflows binary64"):
        psi_k(k, x)


@pytest.mark.parametrize("name,k,x", [
    ("psi_k", 1.7e308, 0.5),
    ("psi_k", 1e300, 1e-10),
    ("psi_k", 1e200, 1e-110),
    ("beta_k", 1.7e308, 1.0),
    ("beta_k", 1e300, 1e-9),
])
def test_psi_beta_subnormal_x_over_k_vs_mpmath(name, k, x):
    # x/k below the normal range: digamma(x/k) alone would form -1/(x/k) = -inf
    with mpmath.workdps(50):
        if name == "psi_k":
            ref = _psi_k_ref(k, x)
        else:
            ref = (_psi_k_ref(k, (mpmath.mpf(x) + k) / 2) - _psi_k_ref(k, mpmath.mpf(x) / 2)) / 2
    assert getattr(kspecfun, name)(k, x) == pytest.approx(float(ref), rel=1e-15)


@pytest.mark.parametrize("k,x", [(1e-300, 1e10), (1e-300, 1.7e308)])
def test_psi_k_where_x_over_k_overflows_vs_mpmath(k, x):
    # x/k is inf in binary64; ln k + psi(x/k) = ln x to rounding
    with mpmath.workdps(40):
        ref = _psi_k_ref(k, x)
    assert psi_k(k, x) == pytest.approx(float(ref), rel=4e-16, abs=0.0)


@pytest.mark.parametrize("k,x", [(1e-6, 1.0), (1e-300, 1.0), (1e-3, 1e5), (0.5, 7.0)])
def test_psi_k_where_ln_k_and_psi_cancel_vs_mpmath(k, x):
    # ln k + psi(x/k) = ln x - k/(2x) - ...: at x = 1 all but the -k/(2x) cancels
    with mpmath.workdps(40 + int(math.log10(x / k))):
        ref = float(_psi_k_ref(k, x))
    assert abs(psi_k(k, x) - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize("k,x", [(1.0, 1e-308), (1.0, 5.6e-309), (2.0, 1.1e-308), (1e-300, 1e-308)])
def test_beta_k_where_psi_k_of_half_x_overflows_vs_mpmath(k, x):
    # psi_k(x/2) is beyond binary64 although beta_k(x) is not
    with mpmath.workdps(40):
        ref = (_psi_k_ref(k, (mpmath.mpf(x) + k) / 2) - _psi_k_ref(k, mpmath.mpf(x) / 2)) / 2
        assert abs(_psi_k_ref(k, mpmath.mpf(x) / 2)) > sys.float_info.max
    assert beta_k(k, x) == pytest.approx(float(ref), rel=4e-16)


def _beta_k_ref(k, x):
    # beta(u)/k, u = x/k: psi((u+1)/2) - psi(u/2) ~ 1/u cancels about log10(u) digits
    k, x = mpmath.mpf(k), mpmath.mpf(x)
    u = x / k
    with mpmath.workdps(40 + max(0, int(mpmath.log10(u)))):
        return (mpmath.digamma((u + 1) / 2) - mpmath.digamma(u / 2)) / (2 * k)


@pytest.mark.parametrize("k,x", [
    # the far field, where psi_k((x+k)/2) - psi_k(x/2) cancels 8, 15 and all digits
    (1.0, 1e8),
    (1.0, 1e15),
    (1.0, 1e300),
    (1e-310, 1e-300),  # subnormal k: psi_k(x/2) alone is beyond binary64
])
def test_beta_k_by_scaling_vs_mpmath(k, x):
    assert beta_k(k, x) == pytest.approx(float(_beta_k_ref(k, x)), rel=4e-16, abs=0.0)


def _beta_k_deriv_ref(k, j, x):
    # the psi^(j) difference cancels about log10(u) digits, u = x/k
    k, x = mpmath.mpf(k), mpmath.mpf(x)
    with mpmath.workdps(40 + max(0, int(mpmath.log10(x / k)))):
        u = x / k
        return (mpmath.polygamma(j, (u + 1) / 2) - mpmath.polygamma(j, u / 2)) / (2 * k) ** (j + 1)


@pytest.mark.parametrize("k,j,x", [
    # x/k >= 2^53, where (x + k)/2 and x/2 are one binary64 number
    (1.0, 1, 1e17), (1e-300, 1, 3.16e-3), (1.0, 2, 1e20), (2.0, 5, 1e18),
    # psi_k^(j)(x/2) is beyond binary64 although beta_k^(j)(x), 2^(j+1) times smaller, is not
    (1.0, 1, 1.2e-154), (1e-3, 1, 1.2e-154), (1.0, 2, 2.5e-103),
    # the far field, where the psi_k^(j) difference cancels 9, 12 and 6 digits
    (1.0, 1, 1e9), (1.0, 3, 1e12), (1.0, 1, 1e6),
    # both psi_2k^(1) terms, or 2k itself, are beyond binary64, although beta_k' is not
    (2.0**-525, 1, 1e4 * 2.0**-525), (2.0**-512, 1, 2.0**-512), (1.7e308, 1, 1e-154),
])
def test_beta_k_deriv_vs_mpmath(k, j, x):
    ref = float(_beta_k_deriv_ref(k, j, x))
    assert beta_k_deriv(k, j, x) == pytest.approx(ref, rel=4e-16, abs=0.0)


def test_beta_k_deriv_on_a_seeded_map_vs_mpmath():
    # the bound of beta_k_deriv's docstring: 4 ulp for j <= 12, k in [1e-6, 1e6]
    # and u in [1e-8, 1e15], wherever the value is normal
    rng = random.Random(20090501)
    checked = 0
    for _ in range(400):
        j = rng.randint(1, 12)
        k = 10.0 ** rng.uniform(-6.0, 6.0)
        x = 10.0 ** rng.uniform(-8.0, 15.0) * k
        ref = float(_beta_k_deriv_ref(k, j, x))
        if sys.float_info.min <= abs(ref) <= sys.float_info.max:
            checked += 1
            assert abs(beta_k_deriv(k, j, x) - ref) <= 4 * math.ulp(ref), (k, j, x)
    assert checked > 300


def test_beta_k_deriv_stated_bound_on_a_seeded_map():
    # 6 ulp for j <= 12, k in [1e-6, 1e6] and u in [1e-8, 1e15], wherever the value
    # is normal, by the measure of the 400-point map above; the two needles were
    # 5 ulp off where the docstring stated 4
    rng = random.Random(2009)
    points = [(10.0 ** rng.uniform(-6.0, 6.0), rng.randint(1, 12), 10.0 ** rng.uniform(-8.0, 15.0))
              for _ in range(6000)]
    points = [(k, j, u * k) for k, j, u in points]
    points += [(0.832074025142674, 3, 11.183090398295281),
               (2.6114560474452886, 11, 98.74110500888469)]
    errs = []
    for k, j, x in points:
        ref = float(_beta_k_deriv_ref(k, j, x))
        if sys.float_info.min <= abs(ref) <= sys.float_info.max:
            errs.append(abs(beta_k_deriv(k, j, x) - ref) / math.ulp(ref))
    assert len(errs) > 5900
    assert max(errs) <= 6.0
    assert errs[-2:] == [5.0, 5.0]


@pytest.mark.parametrize("k,j,x", [(1.0, 1, 1e-155), (1.0, 2, 2e-103), (1e-300, 1, 1e-310)])
def test_beta_k_deriv_beyond_binary64_raises(k, j, x):
    with mpmath.workdps(40):
        assert abs(_beta_k_deriv_ref(k, j, x)) > sys.float_info.max
    with pytest.raises(OverflowError, match="overflows binary64"):
        beta_k_deriv(k, j, x)


def test_hadamard_k_where_beta_k_is_beyond_binary64_vs_mpmath():
    # beta_k(k - x) = 1.6e310 although H_k is not beyond binary64: the base
    # form takes ln beta(u) - ln k - ln Gamma_k; its log-space error grows
    # with |ln H_k| = 356
    with mpmath.workdps(40):
        ref = _h_ref(1e-310, 5e-311)
        assert abs(_beta_k_ref(1e-310, 5e-311)) > sys.float_info.max
        # at x/k = -1e15 beta_k(k - x) = 5e14 is far-field, and H_k itself
        # is beyond binary64
        assert abs(_h_ref(1e-30, -1e-15)) > sys.float_info.max
    assert hadamard_k(1e-310, 5e-311) == pytest.approx(float(ref), rel=1e-12, abs=0.0)
    assert float(ref) == pytest.approx(8.862269254e154, rel=1e-10)
    with pytest.raises(OverflowError, match=r"\) overflows binary64 \(k=1e-30\)$"):
        hadamard_k(1e-30, -1e-15)


def _h_grid_ref(k, x):
    u = mpmath.mpf(x) / k
    if u >= 1 and u == mpmath.floor(u):
        return mpmath.mpf(k) ** (u - 1) * mpmath.gamma(u)  # sin(pi u) = 0 in (4.8)
    return _h_ref(k, x)


def test_beta_k_and_hadamard_k_on_the_default_grid_vs_mpmath(monkeypatch):
    # every (k, x) at which the default-grid verify run evaluates beta_k or
    # H_k, recorded at the kernels that take the checked arguments
    seen = {"beta_k": set(), "hadamard_k": set()}

    def spy(name, real):
        def call(k, x):
            seen[name].add((k, x))
            return real(k, x)
        return call

    # beta_k takes its normal range itself and the rest through _beta, which
    # beta_k_deriv calls too; the registry binds beta_k
    # when it is built, so it is built again around the spies
    monkeypatch.setattr(beta, "beta_k", spy("beta_k", beta.beta_k))
    monkeypatch.setattr(beta, "_beta", spy("beta_k", beta._beta))
    monkeypatch.setattr(hadamard, "_h_base", spy("hadamard_k", hadamard._h_base))
    monkeypatch.setattr(hadamard, "_h_far", spy("hadamard_k", hadamard._h_far))
    registry._alpha0_root.cache_clear()  # its H_k calls count too
    registry._entries.cache_clear()
    try:
        run_all(default_grid())
    finally:
        monkeypatch.undo()
        registry._entries.cache_clear()
    assert {name: len(points) for name, points in seen.items()} \
        == {"beta_k": 145, "hadamard_k": 1319}
    worst = {}
    with mpmath.workdps(40):
        for name, ref in (("beta_k", _beta_k_ref), ("hadamard_k", _h_grid_ref)):
            fn = getattr(kspecfun, name)
            worst[name] = max(float(abs((fn(k, x) - r) / r))
                              for k, x in seen[name] for r in [ref(k, x)])
    # the H_k error is mostly the rounding of u = x/k in Gamma_k(x)
    assert worst["beta_k"] <= 1e-15
    assert worst["hadamard_k"] <= 4e-15


def test_gamma_k_near_overflow_vs_mpmath():
    with mpmath.workdps(40):
        ref = mpmath.gamma(mpmath.mpf(171.5))
    assert gamma_k(1.0, 171.5) == pytest.approx(float(ref), rel=1e-13)


@pytest.mark.parametrize("k,m", [(1.0, 1), (1.0, 2), (2.0, 1), (0.5, 3)])
def test_furdui_oracle_vs_mpmath(k, m):
    ref = float(
        mpmath.quad(
            lambda x: x**m * (mpmath.log(k) + mpmath.digamma(x / k)) / k, [0, k]
        )
    )
    assert furdui_oracle(k, m).value == pytest.approx(ref, abs=1e-9)


def test_glaisher_anchor_vs_mpmath():
    # I(1, 2) = int_0^1 x^2 psi(x) dx = -2 int_0^1 x ln Gamma(x) dx
    # = ln(A^2/sqrt(2 pi)), computed here without kspecfun
    assert abs(mpmath.mpf(CONSTANTS.glaisher_A) - mpmath.glaisher) <= 1e-16
    with mp.workdps(30):
        integral = mpmath.quad(lambda x: x**2 * mpmath.digamma(x), [0, 0.5, 1])
    anchor = 2.0 * math.log(CONSTANTS.glaisher_A) - 0.5 * math.log(2.0 * math.pi)
    assert abs(float(integral) - anchor) <= 1e-14


def _ln_gamma_k_ref(k, x):
    u = mpmath.mpf(x) / k
    return (u - 1) * mpmath.log(k) + mpmath.loggamma(u)


@pytest.mark.parametrize("k,x", [
    (1e-308, 3.0),  # x/k overflows binary64; the value is 2.958368660043291e307
    (1e-300, 1.0),
    (1.0, 2.0**53),
    (0.5, 1.5 * 2.0**53),
])
def test_ln_gamma_k_large_x_over_k_vs_mpmath(k, x):
    with mpmath.workdps(40):
        ref = _ln_gamma_k_ref(k, x)
    assert ln_gamma_k(k, x) == pytest.approx(float(ref), rel=2e-15)


@pytest.mark.parametrize("k,x,dps", [
    (1e300, 1e-300, 40),  # x/k underflows to 0.0; the value is 690.7755278982137
    (1e10, 1e-300, 40),  # x/k is subnormal
    (1.0, 5e-324, 40),
    (1e308, 1.0, 700),  # -ln x vanishes: (ln k - gamma)/k is left, after ln k cancels
    (1e308, 3.0, 700),  # x/k is normal, but ln k and ln Gamma(x/k) would cancel at +-709
    (1e10, 1.0, 60),  # -ln x vanishes, and the (pi^2/12)(x/k)^2 term is 4e-12 of the rest
])
def test_ln_gamma_k_where_x_over_k_underflows_vs_mpmath(k, x, dps):
    with mpmath.workdps(dps):
        ref = _ln_gamma_k_ref(k, x)
    assert ln_gamma_k(k, x) == pytest.approx(float(ref), rel=4e-16, abs=0.0)


@pytest.mark.parametrize("k,x", [(1e-10, 1e300), (1e-300, 1e8), (1e-320, 1e-10)])
def test_ln_gamma_k_beyond_binary64_raises(k, x):
    with mpmath.workdps(40):
        assert abs(_ln_gamma_k_ref(k, x)) > sys.float_info.max
    with pytest.raises(OverflowError, match="overflows binary64"):
        ln_gamma_k(k, x)


def test_gamma_k_where_x_over_k_overflows():
    # ln Gamma_k is 2.96e307 at (k, x) = (1e-308, 3) and -6.1e308 at (1e-309, 2)
    with pytest.raises(OverflowError, match="overflows binary64"):
        gamma_k(1e-308, 3.0)
    with mpmath.workdps(40):
        assert _ln_gamma_k_ref(1e-309, 2.0) < -sys.float_info.max
    assert gamma_k(1e-309, 2.0) == 0.0


def _gamma_k_ref(k, x):
    # Gamma_k(x) at 50 digits, None at a pole
    k, x = mpmath.mpf(k), mpmath.mpf(x)
    u = x / k
    if u <= 0 and u == mpmath.floor(u):
        return None
    return k ** (u - 1) * mpmath.gamma(u)


@pytest.mark.parametrize("name,k,x", [
    ("rgamma_k", 0.01, -5.005),  # k^(1 - x/k) underflows while rgamma(x/k) overflows
    ("gamma_k", 0.01, -5.005),
    ("rgamma_k", 1e-3, -0.9995),  # 1.3e-436 underflows to 0.0
    ("gamma_k", 1e-3, -0.9995),  # 7.8e435
    ("rgamma_k", 1e-3, 0.9),  # 1.3e430
    ("rgamma_k", 1e300, -1.25e299),  # k^(1 - x/k) is 1e300^1.125
    ("rgamma_k", 1.0, -200.5),  # rgamma(-200.5) overflows binary64
    ("rgamma_k", 1e300, -1e300),  # a pole where k^(1 - x/k) overflows
    ("rgamma_k", 1.0, 1.7e308),  # lgamma(x/k) overflows
    ("gamma_k", 1e-3, -1.7e308),  # x/k overflows to -inf
])
def test_gamma_k_and_rgamma_k_beyond_the_product_form_vs_mpmath(name, k, x):
    # k^(x/k - 1) and Gamma(x/k) leave binary64 although the value need not
    with mpmath.workdps(50):
        ref = _gamma_k_ref(k, x)
        if ref is None:  # a pole
            if name == "gamma_k":
                with pytest.raises(PoleError):
                    gamma_k(k, x)
            else:
                assert rgamma_k(k, x) == 0.0
            return
        if name == "rgamma_k":
            ref = 1 / ref
        got = getattr(kspecfun, name)
        if abs(ref) > sys.float_info.max:
            with pytest.raises(OverflowError, match="overflows binary64"):
                got(k, x)
        elif abs(ref) < sys.float_info.min:
            assert got(k, x) == 0.0
        else:
            assert got(k, x) == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_rgamma_k_where_k_to_the_1_minus_x_over_k_is_subnormal_vs_mpmath():
    # k^(1 - x/k) = 5e-324 while 1/Gamma_k(x) is normal: the product form,
    # checked on its result alone, returned -1.239957557342096e-83
    assert rgamma_k(0.005126169343719818, -0.7182289130599071) == pytest.approx(
        -1.6901009751843136e-83, rel=1e-14, abs=0.0)


# 99th percentiles of the earlier Gamma_k family on the sample below, in ulp:
# gamma_k as exp(ln Gamma_k) for x > 0, rgamma_k as k^(1 - x/k) rgamma(x/k)
_GAMMA_K_MAP_P99 = {"gamma_k": 925.0, "rgamma_k": 943.1}


def test_gamma_k_and_rgamma_k_accuracy_map():
    # k log-uniform in [1e-3, 1e3] and x/k uniform in (-169, 170), against
    # mpmath at the binary64 u = x/k, wherever the value is normal: a few
    # ulp on the product form, |ln Gamma_k| ulp where the log form is taken
    rng = random.Random(31)
    errors = {"gamma_k": [], "rgamma_k": []}
    with mpmath.workdps(30):
        for _ in range(6000):
            k = 10.0 ** rng.uniform(-3.0, 3.0)
            x = rng.uniform(-169.0, 170.0) * k
            u = mpmath.mpf(x / k)
            ref = mpmath.mpf(k) ** (u - 1) * mpmath.gamma(u)
            for name, fn, value in (("gamma_k", gamma_k, ref), ("rgamma_k", rgamma_k, 1 / ref)):
                if sys.float_info.min <= abs(value) <= sys.float_info.max:
                    errors[name].append(float(abs(fn(k, x) - value)) / math.ulp(float(value)))
    for name, errs in errors.items():
        errs.sort()
        assert len(errs) > 4000, name
        assert errs[len(errs) // 2] <= 2.0, name
        assert errs[99 * len(errs) // 100] <= _GAMMA_K_MAP_P99[name], name


def test_rgamma_accuracy_map():
    # x uniform in (-170, 170), where libm's Gamma(x) is a normal number, against
    # mpmath: the product form of the Gamma_k kernel, within 8 ulp
    rng = random.Random("rgamma")
    with mpmath.workdps(40):
        errs = sorted(float(abs(rgamma(x) - ref)) / math.ulp(float(ref))
                      for x in (rng.uniform(-170.0, 170.0) for _ in range(4000))
                      for ref in [mpmath.rgamma(x)])
    assert errs[len(errs) // 2] <= 1.0
    assert errs[-1] <= 8.0


def test_rgamma_where_libm_gamma_is_subnormal_vs_mpmath():
    # x uniform in (-171.8, -170) where libm's Gamma(x) is subnormal and 1/Gamma(x)
    # is a normal number: the reflection form of the Gamma_k kernel, within 8 ulp.
    # The log form took these x before, at up to 1,541 ulp (916 at the needle)
    rng = random.Random("rgamma-subnormal")
    xs = [x for x in (rng.uniform(-171.8, -170.0) for _ in range(3400))
          if abs(math.gamma(x)) < sys.float_info.min]
    errs = []
    with mpmath.workdps(40):
        for x in xs + [-170.8924195333828]:
            ref = mpmath.rgamma(x)
            if abs(ref) <= sys.float_info.max:
                errs.append(float(abs(rgamma(x) - ref)) / math.ulp(float(ref)))
    assert len(errs) > 700
    assert max(errs) <= 8.0


@pytest.mark.parametrize("k", [0.125, 0.5])
def test_gamma_k_and_rgamma_k_in_the_reflection_band_vs_mpmath(k):
    # u = x/k in (-171.6, -170), where Gamma_k(x) = k^(u-1) Gamma(u) is normal but
    # 1/Gamma(u) can be beyond binary64: Gamma(-u) is divided by k^(u-1) before the
    # reflection's product.  The log form took the points where 1/Gamma(u)
    # overflowed, at up to 1,692 ulp on this map
    rng = random.Random(f"reflection-band-{k}")
    errs = []
    with mpmath.workdps(40):
        for _ in range(600):
            x = rng.uniform(-171.6, -170.0) * k
            u = mpmath.mpf(x) / k
            ref = mpmath.mpf(k) ** (u - 1) * mpmath.gamma(u)
            for fn, value in ((gamma_k, ref), (rgamma_k, 1 / ref)):
                if sys.float_info.min <= abs(value) <= sys.float_info.max:
                    errs.append(float(abs(fn(k, x) - value)) / math.ulp(float(value)))
    assert len(errs) > 1000
    assert max(errs) <= 8.0


@pytest.mark.parametrize("k,x", [(1e300, 1e-30), (1e200, 1e-130), (1.0, 5e-324), (1e10, 5e-324),
                                 (1.7e308, 1e-10)])
def test_rgamma_k_where_x_over_k_underflows_vs_mpmath(k, x):
    # x/k rounds to 0.0 (or is subnormal) for an x > 0, which is no pole:
    # 1/Gamma_k(x) is x to rounding
    with mpmath.workdps(60):
        ref = 1 / (mpmath.mpf(k) ** (mpmath.mpf(x) / k - 1) * mpmath.gamma(mpmath.mpf(x) / k))
    assert rgamma_k(k, x) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


def _perfbench_inputs():
    # the benchmark's own generator, loaded read-only from its file
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["eval-near", "eval-far"])
def test_eval_workload_calls_match_mpmath(workload):
    # the benchmark's correctness check (relative 1e-11 with its floor), so a
    # kernel change that would fail the benchmark fails here first
    inputs = _perfbench_inputs()
    calls = inputs.generate(workload, 101)
    assert calls
    for name, args, ref, floor in calls:
        try:
            got = getattr(kspecfun, name)(*args)
        except Exception as exc:  # a raised error is a result the check rejects
            got = exc
        assert not inputs.mismatch(got, ref, floor), (name, args, got, ref)


@functools.lru_cache(maxsize=None)
def _furdui_a_ref(m):
    # A_m = I(1, m) = int_0^1 u^m psi(u) du, smoothed by psi(u) = psi(u + 1) - 1/u
    with mp.workdps(40):
        return mpmath.quad(lambda u: u**m * mpmath.digamma(u + 1), [0, 1]) - mpmath.mpf(1) / m


# route -> (I(k, m) by the route, the printed form's offset from I in units of k^m,
# relative bound, (m, n) pairs); thm33 carries the logsin quadrature's error
FURDUI_SERIES = {
    "thm31": (lambda k, m, n: kspecfun.thm31_series(k, m), lambda m: 0, 1e-13,
              [(m, 1) for m in range(1, 7)]),
    "thm32_printed": (lambda k, m, n: kspecfun.thm32_series(k, m, variant="as_printed"),
                      lambda m: -2 * m * mpmath.euler / (m + 1), 1e-13,
                      [(m, 1) for m in range(1, 7)]),
    "thm32_variant": (lambda k, m, n: kspecfun.thm32_series(k, m, variant="sign_variant"),
                      lambda m: 0, 1e-13, [(m, 1) for m in range(1, 7)]),
    "thm33_printed": (lambda k, m, n: kspecfun.thm33_series(k, m),
                      lambda m: mpmath.log(mpmath.pi) - mpmath.mpf(1) / m, 1e-12,
                      [(m, 1) for m in range(1, 7)]),
    "thm34": (kspecfun.thm34_recursion, lambda m: 0, 1e-13,
              [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]),
}


@pytest.mark.parametrize("k", (0.5, 1.0, 2.0, math.pi, 1e-10, 1e3))
@pytest.mark.parametrize("route", sorted(FURDUI_SERIES))
def test_furdui_series_accuracy_map(route, k):
    # I(k, m) = k^m (ln k/(m+1) + A_m), at 40 digits and without kspecfun
    evaluate, offset, rel, pairs = FURDUI_SERIES[route]
    for m, n in pairs:
        with mp.workdps(40):
            km = mpmath.mpf(k) ** m
            ref = float(km * (mpmath.log(k) / (m + 1) + _furdui_a_ref(m) + offset(m)))
        assert evaluate(k, m, n).value == pytest.approx(ref, rel=rel, abs=0.0), (m, n)


@pytest.mark.parametrize("k", (0.5, 1.0, 2.0, math.pi, 1e-10, 1e3))
def test_ln_gamma_k_moment_accuracy_map(k):
    # the ln x singularity in closed form leaves one smooth quadrature; relative, at every k
    for m in range(1, 7):
        with mp.workdps(40):
            ref = float(mpmath.mpf(k) ** m * (mpmath.log(k) / (m + 1) + _furdui_a_ref(m)))
        assert kspecfun.ln_gamma_k_moment(k, m).value == pytest.approx(ref, rel=5e-14, abs=0.0), m


@pytest.mark.parametrize("m", range(1, 13))
def test_logsin_moment_vs_mpmath(m):
    with mp.workdps(40):
        ref = float(mpmath.quad(lambda x: x ** (m - 1) * mpmath.log(mpmath.sin(x)),
                                [0, mpmath.pi / 2, mpmath.pi]))
    assert kspecfun.logsin_moment(m).value == pytest.approx(ref, rel=1e-15, abs=0.0)
