"""Hadamard k-gamma function H_k: a pole-free interpolation of Gamma_k.

Below the seam x = k the beta_k form H_k(x) = beta_k(k - x) / Gamma_k(k - x)
applies directly.  Above it H_k comes in O(1) from the
corrected representation (4.8), H_k(x) = Gamma_k(x) (1 - (k/pi)
sin(pi x/k) beta_k(x)); there |k beta_k(x)| <= ln 2, so the bracket lies
in [1 - ln2/pi, 1 + ln2/pi] and never cancels.  Against mpmath the far
field stays within 1e-12 relative for k in [0.01, 10] and x/k in
[1, 150].  Both forms take k beta_k(x) = beta(x/k) from the one-pass
kernel of :mod:`kspecfun.beta`, and Gamma_k^(+-1) times that factor from
the one Gamma_k kernel of :mod:`kspecfun.kcore`.  A value beyond binary64 raises
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
from .kcore import _STIRLING_U, _gamma_k_pow, k_value
from .scalar import _require_finite, _sinpi

__all__ = [
    "hadamard_k",
]


def _h_base(k: float, x: float) -> float:
    # valid for x < k: H_k(x) = beta_k(z) / Gamma_k(z) with z = k - x and
    # beta_k(z) = beta(w)/k > 0, w = z/k >= 2^-53 a normal number
    z = k - x
    w = z / k
    # beta_k(z) = 1/(2z) to rounding from w = 2^53 on
    c = _beta_unit(w) / k if w < _STIRLING_U else 0.5 / z
    if c < math.inf:
        return _gamma_k_pow(k, z, -1, c, "H_k", x)
    # beta_k(z) is beyond binary64 (k below about 5e-293) where H_k need not be:
    # beta_k(z) / Gamma_k(z) = w beta(w) / Gamma_k(z + k), z + k exact for subnormal k
    return _gamma_k_pow(k, z + k, -1, w * _beta_unit(w), "H_k", x)


def _h_far(k: float, x: float) -> float:
    # valid for x >= k: Gamma_k(x) (1 - (1/pi) sin(pi u) beta(u)), u = x/k,
    # since k beta_k(x) = beta(u); from u = 2^53 on beta(u) ~ 1/(2u) is
    # below rounding and sin(pi u) = 0, so H_k = Gamma_k
    u = x / k
    bracket = 1.0 - _sinpi(u) * _beta_unit(u) / math.pi if u < _STIRLING_U else 1.0
    return _gamma_k_pow(k, x, 1, bracket, "H_k", x)


def hadamard_k(k, x: float) -> float:
    """H_k(x) for any finite real x (total function, no poles).

    x < k uses the beta_k form beta_k(k - x) / Gamma_k(k - x), and x >= k
    the corrected representation (4.8) in O(1):
    Gamma_k(x) (1 - (k/pi) sin(pi x/k) beta_k(x)).  Each is one call of the
    Gamma_k kernel: the product with k^(x/k - 1) Gamma(x/k) where every
    factor and the result are normal numbers, the log form otherwise.
    Against mpmath the relative error stays below
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
