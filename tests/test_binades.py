"""Scaling laws of the family, checked exactly at k = 2^e for every binade of binary64.

For k = 2^e and x = u 2^e the quotient x/k = u is exact, so
beta_k^(j)(x) = 2^(-e(j+1)) beta^(j)(u) and
psi_k^(m)(x) = 2^(-e(m+1)) psi^(m)(u) must hold bit for bit wherever
both values are normal, and a value beyond binary64 must raise the
documented OverflowError.  Both sides rest on the scaling law, so this
checks exactness of the code, not the law, and stays out of the registry.
"""

import math
import sys

import pytest

from kspecfun import beta_k_deriv, psi_k_m

UNITS = (0.1, 0.7, 2.5, 30.0, 1e5)
MIN_NORMAL = sys.float_info.min


def _check_every_binade(f, orders):
    """Points checked of f(2^e, n, u 2^e) == ldexp(f(1, n, u), -e(n+1)) over every e.

    An (n, u) whose k = 1 value is not a normal number gives no exact
    reference and is left out.
    """
    checked = 0
    for n in orders:
        for u in UNITS:
            try:
                at_one = f(1.0, n, u)
            except OverflowError:
                continue
            if abs(at_one) < MIN_NORMAL:
                continue
            exponent = math.frexp(at_one)[1]
            for e in range(-1074, 1024):
                x = u * 2.0**e
                scaled = exponent - e * (n + 1)  # the value is mantissa * 2^scaled
                if x == 0.0 or x == math.inf or scaled < -1021:
                    continue  # x leaves binary64, or the value is below the normal range
                checked += 1
                if scaled > 1024:
                    with pytest.raises(OverflowError, match="overflows binary64"):
                        f(2.0**e, n, x)
                else:
                    assert f(2.0**e, n, x) == math.ldexp(at_one, -e * (n + 1)), (n, u, e)
    return checked


def test_beta_k_deriv_scales_exactly_over_every_binade():
    assert _check_every_binade(beta_k_deriv, (1, 2, 3)) == 21590


def test_psi_k_m_scales_exactly_over_every_binade():
    # psi^(150) overflows at u = 0.1 and underflows at u = 1e5; every point
    # where a partial sum leaves the normal range runs the same sums at a
    # power-of-two rescaled (k, x), so those points follow the law too
    assert _check_every_binade(psi_k_m, (1, 2, 3, 4, 12, 150)) == 37009
