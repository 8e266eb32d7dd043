"""The evaluators' hot paths against the loop and helper forms they inline, bit for bit.

The seven-term psi tail is written out as straight-line Horner forms, psi_k
holds the psi shift that a helper of its own took before, and beta_k takes
its valid input past one helper frame.  Each reference below keeps the
earlier form (the tail as a loop over ``scalar._DIGAMMA_TAIL``, the helper
called), with the same operations in the same order, so every
value must agree exactly: on a seeded table and at the floats next to each
seam the evaluators branch on.  gamma_k, rgamma_k and hadamard_k are their
argument checks and one call of the Gamma_k kernel, and are checked the
same way.
"""

import math
import random
import sys

import pytest

from kspecfun import PoleError, beta_k, digamma, gamma_k, hadamard_k, psi_k, rgamma_k
from kspecfun.beta import _beta, _beta_unit
from kspecfun.kcore import POLE_GUARD, _check_pole, _gamma_k_pow, _is_pole
from kspecfun.scalar import _DIGAMMA_TAIL, _sinpi

_MIN_NORMAL = sys.float_info.min
# u = 10 and 20 end the digamma and beta shifts, 10 + m the polygamma shift;
# 2^53 and the least normal number bound beta_k's one-pass range
_SEAMS = (10.0, 20.0, 2.0**53, _MIN_NORMAL) + tuple(10.0 + m for m in range(1, 13))
_rng = random.Random(29)
# a tail's last bits reach a result only in part, so the table is dense where
# they reach it most: u in [1, 40], on both sides of the seams 10 and 20
_UNITS = tuple(sorted(
    [v for s in _SEAMS for v in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf))]
    + [math.exp(_rng.uniform(-25.0, 40.0)) for _ in range(1000)]
    + [_rng.uniform(1.0, 40.0) for _ in range(3000)]))
_KS = (1e-300, 1e-30, 0.01, 0.37, 1.0, 10.0, 1e30, 1e300)
_TABLE = tuple((k, x) for k in _KS for u in _UNITS if 0.0 < (x := u * k) < math.inf)
# digamma near its zero 1.4616..., and psi_k near its zero x = e^(1/(2u)) for
# u in [10, 20]: the sums cancel there, so more of the tail's bits reach the result
_DIGAMMA_ZERO = tuple(1.4616321449683623 + _rng.uniform(-1e-3, 1e-3) for _ in range(1000))
_PSI_K_ZERO = tuple((x / u, x) for u in (_rng.uniform(10.0, 20.0) for _ in range(3000))
                    for x in [math.exp(0.5 / u)])


def _tail_loop(v):
    p = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        p = (p + c) * v
    return p


def _digamma_loop(x):
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    return acc + math.log(x) - 0.5 / x - _tail_loop(1.0 / (x * x))


def _psi_k_loop(k, x):
    # psi_k with the tail as the loop: the far field from u = 10 up; below it the
    # shift, from u + 1 where -1/u would be beyond binary64
    u = x / k
    if u >= 10.0:
        return (math.log(x) + (-0.5 / u - _tail_loop(1.0 / (u * u)))) / k
    if u < _MIN_NORMAL:
        return (math.log(k) + _digamma_loop(u + 1.0)) / k - 1.0 / x
    return (math.log(k) + _digamma_loop(u)) / k


def _beta_unit_loop(u):
    acc = 0.0
    while u < 20.0:
        acc += 1.0 / (u * (u + 1.0))
        u += 2.0
    b = 0.5 * u
    a = b + 0.5
    pa, pb = _tail_loop(1.0 / (a * a)), _tail_loop(1.0 / (b * b))
    return acc + 0.5 * (math.log1p(1.0 / u) + 1.0 / (u * (u + 1.0)) - (pa - pb))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (OverflowError, PoleError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _gamma_k_by_kernel(k, x):
    if x <= POLE_GUARD * k:
        _check_pole(k, x)
    return _gamma_k_pow(k, x, 1, 1.0, "Gamma_k", x)


def _rgamma_k_by_kernel(k, x):
    return 0.0 if _is_pole(x / k) else _gamma_k_pow(k, x, -1, 1.0, "1/Gamma_k", x)


def _hadamard_k_by_kernel(k, x):
    # the bracket of (4.8) times Gamma_k(x) above the seam, beta_k(z) / Gamma_k(z)
    # with z = k - x below it
    if x >= k:
        u = x / k
        bracket = 1.0 - _sinpi(u) * _beta_unit(u) / math.pi if u < 2.0**53 else 1.0
        return _gamma_k_pow(k, x, 1, bracket, "H_k", x)
    z = k - x
    try:
        c = beta_k(k, z)
    except OverflowError:  # beta_k(z) is beyond binary64: w beta(w) / Gamma_k(z + k)
        w = z / k
        return _gamma_k_pow(k, z + k, -1, w * _beta_unit(w), "H_k", x)
    return _gamma_k_pow(k, z, -1, c, "H_k", x)


def test_digamma_tail_is_bit_identical_to_the_loop():
    # digamma is psi_k at k = 1: the far-field form from 10 up, the shift below it
    for u in _UNITS + _DIGAMMA_ZERO:
        assert repr(digamma(u)) == repr(_psi_k_loop(1.0, u)), u


def test_psi_k_shift_is_bit_identical_to_the_loop():
    checked = 0
    for k, x in _TABLE:
        if x / k < 10.0:
            checked += 1
            ref = _psi_k_loop(k, x)
            if math.isinf(ref):
                with pytest.raises(OverflowError, match="overflows binary64"):
                    psi_k(k, x)
            else:
                assert repr(psi_k(k, x)) == repr(ref), (k, x)
    assert checked > 9000


def test_psi_k_far_field_tail_is_bit_identical_to_the_loop():
    checked = 0
    for k, x in _TABLE + _PSI_K_ZERO:
        u = x / k
        if u >= 10.0:
            checked += 1
            ref = (math.log(x) + (-0.5 / u - _tail_loop(1.0 / (u * u)))) / k
            assert repr(psi_k(k, x)) == repr(ref), (k, x)
    assert checked > 5000


def test_beta_at_unit_k_is_bit_identical_to_the_loop():
    for u in _UNITS:
        if u >= 2.0**53:
            ref = 0.5 / u
        elif u < _MIN_NORMAL:
            ref = 1.0 / u - _beta_unit_loop(1.0 + u)
        else:
            ref = _beta_unit_loop(u)
        if ref == math.inf:
            with pytest.raises(OverflowError, match="overflows binary64"):
                beta_k(1.0, u)
        else:
            assert repr(beta_k(1.0, u)) == repr(ref), u


def test_the_gamma_k_family_is_its_kernel():
    # one kernel forms c Gamma_k(x)^(+-1) for gamma_k, rgamma_k and both
    # sides of hadamard_k, on both sides of x = 0
    forms = ((gamma_k, _gamma_k_by_kernel), (rgamma_k, _rgamma_k_by_kernel),
             (hadamard_k, _hadamard_k_by_kernel))
    for k, x in _TABLE:
        for y in (x, -x):
            for fn, by_kernel in forms:
                assert _outcome(fn, k, y) == _outcome(by_kernel, k, y), (fn.__name__, k, y)


def test_beta_k_is_its_kernel():
    # beta_k takes _beta's normal-range branch inline; the edges and the
    # overflow raise stay in _beta
    for k, x in _TABLE:
        assert _outcome(beta_k, k, x) == _outcome(_beta, k, x), (k, x)
