"""Hadamard k-gamma function H_k: a pole-free interpolation of Gamma_k.

Below the seam x = k the beta_k form H_k(x) = beta_k(k - x) / Gamma_k(k - x)
applies directly.  Above it H_k comes in O(1) from the
corrected representation (4.8), H_k(x) = Gamma_k(x) (1 - (k/pi)
sin(pi x/k) beta_k(x)); there |k beta_k(x)| <= ln 2, so the bracket lies
in [1 - ln2/pi, 1 + ln2/pi] and never cancels.  Against mpmath the far
field stays within 1e-12 relative for k in [0.01, 10] and x/k in
[1, 150].  Both forms take k beta_k(x) = beta(x/k) from the one-pass
kernel of :mod:`kspecfun.beta`.  A value beyond binary64 raises
OverflowError; one below it underflows to 0.0; nan and inf are never
returned.  The functional
equation H_k(x + k) = x H_k(x) + 1/Gamma_k(k - x) is kept only as the
independent cross-check route (:func:`kspecfun.routes.recursion_47`).
The superadditivity threshold solver built on H_k lives in
:mod:`kspecfun.studies`.
"""

from __future__ import annotations

import math

from .beta import _beta_unit
from .kcore import _LN_MAX, _STIRLING_U, _exp_k, _ln_gamma_k, k_value
from .scalar import _MIN_NORMAL, _require_finite, _sinpi

__all__ = [
    "hadamard_k",
]


def _h_base(k: float, x: float) -> float:
    # valid for x < k: H_k(x) = beta_k(z) / Gamma_k(z) with z = k - x and
    # beta_k(z) = beta(z/k)/k > 0; z/k >= 2^-53 is a normal number
    z = k - x
    if z >= _STIRLING_U * k:
        # beta_k(z) = 1/(2z) to rounding
        return _exp_k(-math.log(2.0) - math.log(z) - _ln_gamma_k(k, z), "H_k", k, x)
    b = _beta_unit(z / k)
    lg = _ln_gamma_k(k, z)
    if lg > -_LN_MAX:
        h = b / k * math.exp(-lg)
        if h < math.inf:
            return h
    # beta_k(z) itself may be beyond binary64 where H_k is not
    return _exp_k(math.log(b) - math.log(k) - lg, "H_k", k, x)


def _h_far(k: float, x: float) -> float:
    # valid for x >= k: Gamma_k(x) (1 - (1/pi) sin(pi u) beta(u)), u = x/k,
    # since k beta_k(x) = beta(u)
    if x >= _STIRLING_U * k:
        # beta(u) ~ 1/(2u) is below rounding here, so H_k = Gamma_k
        return _exp_k(_ln_gamma_k(k, x), "H_k", k, x)
    u = x / k
    bracket = 1.0 - _sinpi(u) * _beta_unit(u) / math.pi
    if u < 171.0:
        # the product form is more accurate than exp(lgamma) while both
        # factors stay normal binary64 numbers
        try:
            scale = k ** (u - 1.0)
        except OverflowError:
            scale = math.inf
        h = scale * math.gamma(u) * bracket
        if _MIN_NORMAL <= scale and _MIN_NORMAL <= h < math.inf:
            return h
    return _exp_k(_ln_gamma_k(k, x) + math.log(bracket), "H_k", k, x)


def hadamard_k(k, x: float) -> float:
    """H_k(x) for any finite real x (total function, no poles).

    x < k uses the beta_k form beta_k(k - x) / Gamma_k(k - x), in log space
    where beta_k(k - x) or 1/Gamma_k(k - x) is beyond binary64.
    x >= k uses the corrected representation (4.8) in O(1):
    Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x)), with Gamma_k(x) as
    k^(x/k - 1) Gamma(x/k) while both factors are normal numbers and in
    log space otherwise.  Against mpmath the relative error stays below
    1e-12 for k in [0.01, 10] and x/k in [1, 150] (the accuracy map in
    the tests; worst seen 5.2e-14).  A value beyond the binary64 range
    raises OverflowError (never inf or nan); one below it underflows to
    0.0.  The cost is O(1) on both sides of the seam.
    """
    if not (0.0 < (k := float(k)) < math.inf and -math.inf < (x := float(x)) < math.inf):
        k_value(k)
        _require_finite("x", x)
    if x < k:
        return _h_base(k, x)
    return _h_far(k, x)
