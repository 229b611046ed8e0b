import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcoselect.quadrature import (
    IntegrationGrid,
    composite_grid,
    composite_rule,
    gauss_legendre_panel,
    legendre_rule,
    tensor_grid,
    trapezoid_grid,
    trapezoid_rule,
)


def test_panel_exact_on_polynomials():
    # 64-node Gauss-Legendre integrates polynomials up to degree 127 exactly
    x, w = gauss_legendre_panel(-1.0, 2.0, 64)
    for deg in (0, 3, 10, 64, 127):
        got = np.sum(w * x**deg)
        want = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_legendre_rule_is_computed_once_and_read_only(monkeypatch):
    calls = []
    real = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or real(n))
    legendre_rule.cache_clear()
    try:
        x, w = legendre_rule(7)
        for lo, hi in [(0.0, 1.0), (-2.0, 0.5), (3.0, 3.25)]:
            px, pw = gauss_legendre_panel(lo, hi, 7)
            assert np.array_equal(px, 0.5 * (hi + lo) + 0.5 * (hi - lo) * real(7)[0])
            assert np.array_equal(pw, 0.5 * (hi - lo) * real(7)[1])
        composite_rule(0.0, 4.0, [1.5], nodes_per_unit=7)
        assert calls == [7]
        assert legendre_rule(7)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
    finally:
        legendre_rule.cache_clear()


def test_panel_rejects_empty_interval():
    with pytest.raises(ValueError):
        gauss_legendre_panel(1.0, 1.0)


def test_composite_rule_splits_at_breakpoints():
    # integrand with a kink at 0.3: |x - 0.3| on [0, 1]
    nodes, weights = composite_rule(0.0, 1.0, [0.3])
    got = np.sum(weights * np.abs(nodes - 0.3))
    want = 0.5 * 0.3**2 + 0.5 * 0.7**2
    assert_allclose(got, want, rtol=1e-14)
    # breakpoints outside the interval are ignored
    n2, w2 = composite_rule(0.0, 1.0, [-5.0, 0.3, 7.0])
    assert_allclose(np.sort(n2), np.sort(nodes))


def test_composite_rule_subdivides_long_panels():
    nodes, _ = composite_rule(0.0, 3.5, [])
    # 4 sub-panels of <= 1 unit, 64 nodes each
    assert nodes.size == 4 * 64
    nodes, _ = composite_rule(0.0, 1.0, [])
    assert nodes.size == 64


def test_integration_grid_validates_shapes():
    with pytest.raises(ValueError):
        IntegrationGrid(np.zeros((3, 1)), np.zeros(4))


def test_tensor_grid_product_integral():
    ax = composite_rule(0.0, 1.0, [])
    grid = tensor_grid([ax, ax])
    assert grid.d == 2
    # integral of x*y over the unit square
    got = grid.integrate(grid.points[:, 0] * grid.points[:, 1])
    assert_allclose(got, 0.25, rtol=1e-14)


def test_composite_grid_matches_1d_rule():
    grid = composite_grid([0.0], [1.0], [[0.5]])
    nodes, weights = composite_rule(0.0, 1.0, [0.5])
    assert_allclose(np.sort(grid.points[:, 0]), np.sort(nodes))
    assert_allclose(grid.integrate(np.exp(grid.points[:, 0])), np.e - 1.0, rtol=1e-13)


def test_trapezoid_rule_converges():
    x, w = trapezoid_rule(0.0, np.pi, 20_001)
    assert_allclose(np.sum(w * np.sin(x)), 2.0, atol=1e-8)


def test_trapezoid_grid_2d():
    grid = trapezoid_grid([0.0, 0.0], [1.0, 2.0], [101, 201])
    assert grid.points.shape == (101 * 201, 2)
    assert_allclose(grid.integrate(np.ones(grid.points.shape[0])), 2.0, rtol=1e-12)


@pytest.mark.parametrize("lo,hi,num", [(0.0, 1.0, 2048), (5.0, 6.0, 777), (-1.0, 1.0, 2)])
def test_trapezoid_grid_records_its_uniform_axis(lo, hi, num):
    grid = trapezoid_grid(lo, hi, num)
    start, step, count = grid.axis
    assert (start, count) == (lo, num)
    assert np.array_equal(grid.points[:-1, 0], start + np.arange(count - 1) * step)
    assert grid.points[-1, 0] == hi
    assert np.array_equal(np.asarray(grid), grid.points)


def test_other_grids_record_no_axis():
    assert trapezoid_grid([0.0, 0.0], [1.0, 1.0], 5).axis is None
    assert composite_grid([0.0], [1.0]).axis is None
    x, w = trapezoid_rule(0.0, 1.0, 5)
    assert IntegrationGrid(x, w).axis is None


def test_grids_compare_and_hash_by_identity():
    # numpy array fields made == raise on truth value and hash raise TypeError
    a, b = trapezoid_grid(0, 1, 5), trapezoid_grid(0, 1, 5)
    assert a == a and not a == b and a != b
    cache = {a: "a", b: "b"}
    assert cache[a] == "a" and cache[b] == "b" and len(cache) == 2
