import math

import numpy as np
import pytest

from varmatern.quadrature import gauss_legendre_01, quadrature_order


def test_midpoint_rule():
    rule = gauss_legendre_01(1)
    assert np.array_equal(rule.nodes, [0.5])
    assert np.array_equal(rule.weights, [1.0])


def test_two_point_closed_form():
    rule = gauss_legendre_01(2)
    off = 1.0 / (2.0 * math.sqrt(3.0))
    assert rule.nodes == pytest.approx([0.5 - off, 0.5 + off], abs=1e-15)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_degree_seven_exact():
    rule = gauss_legendre_01(8)
    assert rule.integrate(lambda x: x**7) == pytest.approx(0.125, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32, 64])
def test_polynomial_exactness(n):
    rule = gauss_legendre_01(n)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
    for deg in range(0, 2 * n, max(1, (2 * n) // 6)):
        got = rule.integrate(lambda x: x**deg)
        assert got == pytest.approx(1.0 / (deg + 1), abs=1e-13), deg


@pytest.mark.parametrize("n", [2, 7, 16, 33, 64])
def test_node_symmetry_weights_palindromic(n):
    rule = gauss_legendre_01(n)
    assert np.allclose(rule.nodes + rule.nodes[::-1], 1.0, atol=1e-15)
    assert np.allclose(rule.weights, rule.weights[::-1], atol=1e-15)


def test_order_bounds():
    with pytest.raises(ValueError):
        gauss_legendre_01(0)
    with pytest.raises(ValueError):
        gauss_legendre_01(65)


def test_quadrature_order_paper_scale():
    # h = 2^-8, s_upper = 0.85, target rate 0.5, c = 1
    assert quadrature_order(2.0**-8, 0.85, c=1.0, target_rate=0.5) == 13


def test_quadrature_order_clamps():
    assert quadrature_order(0.999, 0.85, c=1.0, target_rate=0.5) == 4
    assert quadrature_order(1e-30, 0.85, c=1.0, target_rate=2.0) == 64


def test_quadrature_order_level_zero_mesh():
    # h = 1 makes log(1/h) = 0, so the order is n_min
    assert quadrature_order(1.0, 0.85, c=1.0, target_rate=0.5) == 4
    assert quadrature_order(1.0, 0.85, 0.35, n_min=7) == 7
    for h in (0.0, 1.0 + 1e-12):
        with pytest.raises(ValueError, match="mesh size"):
            quadrature_order(h, 0.85, target_rate=0.5)


def test_quadrature_order_increment_per_level():
    inc_ref = math.log(2.0) * (0.5 + 2 * 0.85)
    prev = quadrature_order(2.0**-6, 0.85, c=1.0, target_rate=0.5, n_min=1)
    for level in range(7, 14):
        cur = quadrature_order(2.0**-level, 0.85, c=1.0, target_rate=0.5, n_min=1)
        assert abs((cur - prev) - inc_ref) <= 1.0
        prev = cur


def test_quadrature_order_default_rate_uses_s_lower():
    got = quadrature_order(2.0**-8, 0.85, 0.65, c=1.0)
    assert got == quadrature_order(2.0**-8, 0.85, c=1.0, target_rate=0.8)
    with pytest.raises(ValueError):
        quadrature_order(2.0**-8, 0.85)
    with pytest.raises(ValueError):
        quadrature_order(1.5, 0.85, target_rate=0.5)


def test_rules_cached_and_immutable():
    rule = gauss_legendre_01(12)
    assert rule is gauss_legendre_01(12)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
