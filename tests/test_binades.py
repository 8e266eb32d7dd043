"""The scaling law of beta_k^(j), checked exactly at k = 2^e for every binade of binary64.

For k = 2^e and x = u 2^e the quotient x/k = u is exact, so
beta_k^(j)(x) = 2^(-e(j+1)) beta^(j)(u) must hold bit for bit wherever
the value is normal, and a value beyond binary64 must raise the
documented OverflowError.  Both sides rest on the scaling law, so this
checks exactness of the code, not the law, and stays out of the registry.
"""

import math

import pytest

from kspecfun import beta_k_deriv

UNITS = (0.1, 0.7, 2.5, 30.0, 1e5)
ORDERS = (1, 2, 3)


def test_beta_k_deriv_scales_exactly_over_every_binade():
    checked = 0
    for j in ORDERS:
        for u in UNITS:
            at_one = beta_k_deriv(1.0, j, u)
            mantissa, exponent = math.frexp(at_one)
            for e in range(-1074, 1024):
                x = u * 2.0**e
                scaled = exponent - e * (j + 1)  # the value is mantissa * 2^scaled
                if x == 0.0 or x == math.inf or scaled < -1021:
                    continue  # x leaves binary64, or the value is below the normal range
                checked += 1
                if scaled > 1024:
                    with pytest.raises(OverflowError, match="overflows binary64"):
                        beta_k_deriv(2.0**e, j, x)
                else:
                    assert beta_k_deriv(2.0**e, j, x) == math.ldexp(at_one, -e * (j + 1)), \
                        (j, u, e)
    assert checked == 21590
