"""Tests for the independent cross-check machinery."""

import math

import pytest

from kspecfun import ConvergenceError, DomainError, QuadratureError
from kspecfun.oracles import adaptive_quad, fit_discrepancy


# ------------------------------------------------------------- quadrature
TRIVIAL_INTEGRALS = [
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: math.log(1.0 / x), 0.0, 1.0, 1.0),
    (lambda x: math.log(math.sin(x)), 0.0, math.pi, -math.pi * math.log(2.0)),
    (lambda x: 1.0, 0.0, 1e-323, 1e-323),  # the shortest interval with a half-length
]


@pytest.mark.parametrize("f,a,b,truth", TRIVIAL_INTEGRALS)
def test_adaptive_quad_values_and_conservative_errors(f, a, b, truth):
    q = adaptive_quad(f, a, b, 1e-10)
    assert q.value == pytest.approx(truth, abs=1e-10)
    assert abs(q.value - truth) <= q.error_estimate
    assert q.subdivisions >= 1


def test_adaptive_quad_is_exact_on_degree_22():
    # validates the hardcoded Gauss-Kronrod nodes/weights
    q = adaptive_quad(lambda x: x**22, 0.0, 1.0, 1e-13)
    assert q.value == pytest.approx(1.0 / 23.0, rel=1e-14)


def test_adaptive_quad_bad_interval():
    with pytest.raises(DomainError):
        adaptive_quad(lambda x: x, 1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        adaptive_quad(lambda x: x, 0.0, math.inf, 1e-8)


@pytest.mark.parametrize("a,b", [(0.0, 5e-324), (-1.7e308, 1.7e308)])
def test_adaptive_quad_needs_a_binary64_half_length(a, b):
    # (b - a)/2 underflows to 0.0, or b - a overflows to inf: no panel exists
    with pytest.raises(DomainError, match=r"\(b - a\)/2 positive and finite"):
        adaptive_quad(lambda x: 1.0, a, b)


def test_adaptive_quad_depth_cap_carries_best_estimate():
    # x^(-0.99) concentrates most of its mass below any dyadic scale the
    # 50-level bisection can reach, so the cap must trip
    with pytest.raises(QuadratureError) as info:
        adaptive_quad(lambda x: x**-0.99, 0.0, 1.0, 1e-6)
    err = info.value
    assert isinstance(err, ConvergenceError)  # one payload: value, error_estimate, terms_used
    assert err.value is not None and 0.0 < err.value < 100.0
    assert err.error_estimate > 1e-6
    assert err.terms_used >= 50


# ------------------------------------------------------------- fitting
def test_fit_discrepancy_ratio():
    pairs = [(2.0 * r, r) for r in (0.3, 1.7, 9.1, 44.0)]
    fit = fit_discrepancy(pairs, "ratio")
    assert fit.constant == pytest.approx(2.0, rel=1e-14)
    assert fit.residual_rms < 1e-14
    assert fit.n_points == 4


def test_fit_discrepancy_ratio_negative_constant():
    pairs = [(-0.5 * r, r) for r in (1.0, 2.0, 3.0)]
    fit = fit_discrepancy(pairs, "ratio")
    assert fit.constant == pytest.approx(-0.5, rel=1e-14)


def test_fit_discrepancy_offset():
    pairs = [(r + 0.25, r) for r in (0.0, -3.0, 7.5)]
    fit = fit_discrepancy(pairs, "offset")
    assert fit.constant == pytest.approx(0.25, abs=1e-15)
    assert fit.residual_rms < 1e-15


def test_fit_discrepancy_identity_pairs():
    pairs = [(r, r) for r in (1.0, 2.0, 3.0)]
    assert fit_discrepancy(pairs, "ratio").constant == pytest.approx(1.0, rel=1e-15)
    assert fit_discrepancy(pairs, "offset").constant == pytest.approx(0.0, abs=1e-15)


def test_fit_discrepancy_degenerate_inputs():
    with pytest.raises(DomainError):
        fit_discrepancy([(1.0, 1.0), (2.0, 2.0)], "ratio")
    with pytest.raises(DomainError):
        fit_discrepancy([(1.0, 0.0), (2.0, 2.0), (3.0, 3.0)], "ratio")
    with pytest.raises(DomainError):
        fit_discrepancy([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], "median")
    with pytest.raises(DomainError, match="^ratio mode requires lhs != 0 at every pair$"):
        fit_discrepancy([(1.0, 1.0), (0.0, 2.0), (3.0, 3.0)], "ratio")
