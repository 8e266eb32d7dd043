"""Cross-checks against mpmath, a fully independent implementation."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

import kspecfun
from kspecfun import (
    beta_k,
    digamma,
    furdui_oracle,
    gamma_k,
    gauss_2f1,
    hadamard_k,
    lerch_alt,
    ln_gamma,
    polygamma,
    psi_k,
    psi_k_m,
    recursion_47,
    zeta_int,
)
from kspecfun.scalar import CONSTANTS, zeta_minus_1, zeta_tail

mp.dps = 30


@pytest.mark.parametrize("x", [1e-4, 0.23, 1.0, 4.56, 123.0, 2.5e4])
def test_ln_gamma_vs_mpmath(x):
    ref = float(mpmath.loggamma(x))
    assert ln_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)


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


_POLYGAMMA_MAP_X = tuple(10 ** (e / 8) for e in range(-64, 241)) + tuple(
    10.0**e for e in range(31, 301))  # [1e-8, 1e300]


@pytest.mark.parametrize("m", range(1, 13))
def test_polygamma_accuracy_map(m):
    # the bound stated in polygamma's docstring; past x ~ 1e22 (m = 12) to
    # 1e102 (m = 1) the powers of x leave binary64 and the scaled sums run
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
    assert psi_k_m(k, m, x) == pytest.approx(float(ref), rel=1e-15)


def test_psi_k_m_underflow_vs_mpmath():
    with mpmath.workdps(50):
        ref = _psi_k_m_ref(1e100, 6, 1e100)
    assert mpmath.mpf("-1e-697") < ref < 0  # -7.26e-698, far below binary64
    value = psi_k_m(1e100, 6, 1e100)  # k^7 overflows
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


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


@pytest.mark.parametrize("a", [0.25, 1.0, 2.5, 17.0, -0.4, -2.3])
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
    # beta_k halves x and k before adding them, so x + k cannot overflow
    def beta_ref(k, x):
        k, x = mpmath.mpf(k), mpmath.mpf(x)
        return (mpmath.digamma((x + k) / (2 * k)) - mpmath.digamma(x / (2 * k))) / (2 * k)

    with mpmath.workdps(40):
        b_ref = beta_ref(1e308, 5e307)
        # H_k(x) = beta_k(k - x) / Gamma_k(k - x) below the seam
        k, z = mpmath.mpf(1.7e308), mpmath.mpf(1.7e308) - 1
        h_ref = beta_ref(k, z) / (k ** (z / k - 1) * mpmath.gamma(z / k))
    assert beta_k(1e308, 5e307) == pytest.approx(float(b_ref), rel=1e-13)
    assert hadamard_k(1.7e308, 1.0) == pytest.approx(float(h_ref), rel=1e-12)
    assert float(h_ref) == pytest.approx(4.07733635623e-309, rel=1e-11)


def _psi_k_ref(k, x):
    k, x = mpmath.mpf(k), mpmath.mpf(x)
    return (mpmath.log(k) + mpmath.digamma(x / k)) / k


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
    assert furdui_oracle(k, m, 1e-11).value == pytest.approx(ref, abs=1e-9)


def test_glaisher_anchor_vs_mpmath():
    # I(1, 2) = int_0^1 x^2 psi(x) dx = -2 int_0^1 x ln Gamma(x) dx
    # = ln(A^2/sqrt(2 pi)), computed here without kspecfun
    assert abs(mpmath.mpf(CONSTANTS.glaisher_A) - mpmath.glaisher) <= 1e-16
    with mp.workdps(30):
        integral = mpmath.quad(lambda x: x**2 * mpmath.digamma(x), [0, 0.5, 1])
    anchor = 2.0 * math.log(CONSTANTS.glaisher_A) - 0.5 * math.log(2.0 * math.pi)
    assert abs(float(integral) - anchor) <= 1e-14


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
