import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcoselect import (
    BasisFamily,
    BasisKind,
    Density,
    DensityKind,
    basis_matrix,
    breakpoints,
    cross_gram,
    eval_basis,
    normalized_legendre,
    sine_tail_max_violation,
)
from pcoselect.bases import histogram_cells
from pcoselect.kernels import ProjectionSpec, diag_sup, section_sq_norm_points
from pcoselect.quadrature import composite_rule

TRIG = BasisFamily(BasisKind.TRIGONOMETRIC)
HIST = BasisFamily(BasisKind.REGULAR_HISTOGRAM)
LEG = BasisFamily(BasisKind.LEGENDRE)


# ---------------------------------------------------------------------------
# member evaluation
# ---------------------------------------------------------------------------


def test_trig_first_member_is_indicator():
    x = np.array([0.0, 0.25, 0.73, 1.0])
    assert_allclose(eval_basis(TRIG, 5, 1, x), np.ones(4))
    assert eval_basis(TRIG, 5, 1, 1.2) == 0.0


def test_trig_even_odd_members():
    x = np.linspace(0.0, 1.0, 9)
    assert_allclose(eval_basis(TRIG, 6, 2, x), np.sqrt(2) * np.cos(2 * np.pi * x), atol=1e-15)
    assert_allclose(eval_basis(TRIG, 6, 3, x), np.sqrt(2) * np.sin(2 * np.pi * x), atol=1e-15)
    assert_allclose(eval_basis(TRIG, 6, 4, x), np.sqrt(2) * np.cos(4 * np.pi * x), atol=1e-15)


def test_histogram_member_value():
    assert eval_basis(HIST, 4, 2, 0.3) == 2.0
    assert eval_basis(HIST, 4, 2, 0.25) == 2.0  # cells close on the left
    assert eval_basis(HIST, 4, 2, 0.5) == 0.0
    assert eval_basis(HIST, 4, 4, 1.0) == 0.0  # right edge excluded


def test_legendre_first_member_value():
    got = eval_basis(LEG, 3, 1, 0.5)
    assert_allclose(got, np.sqrt(1.5) * 0.5, rtol=1e-14)
    assert_allclose(got, 0.6123724356957945, rtol=1e-12)


def test_legendre_vanishes_outside_support():
    assert eval_basis(LEG, 3, 2, -1.5) == 0.0
    assert eval_basis(LEG, 3, 2, 1.0 + 1e-12) == 0.0


def test_normalized_legendre_normalization():
    # each member integrates to one in square norm over [-1, 1]
    nodes, weights = composite_rule(-1.0, 1.0)
    for degree in range(0, 8):
        vals = normalized_legendre(degree, nodes)
        assert_allclose(np.sum(weights * vals * vals), 1.0, rtol=1e-12)


def test_eval_basis_index_validation():
    with pytest.raises(ValueError):
        eval_basis(TRIG, 4, 0, 0.5)
    with pytest.raises(ValueError):
        eval_basis(TRIG, 4, 5, 0.5)
    with pytest.raises(ValueError):
        eval_basis(TRIG, TRIG.m_cap + 1, 1, 0.5)


@pytest.mark.parametrize("family", [TRIG, HIST, LEG])
def test_basis_matrix_agrees_with_eval(family):
    m = 7
    lo, hi = family.support
    x = np.linspace(lo, hi - 1e-9, 23)
    mat = basis_matrix(family, m, x)
    assert mat.shape == (23, m)
    for j in range(1, m + 1):
        assert_allclose(mat[:, j - 1], eval_basis(family, m, j, x), atol=1e-13)


@pytest.mark.parametrize("n,m", [(2000, 20), (2000, 21), (2000, 500), (1000, 64), (7, 3), (1, 1), (5, 2)])
def test_trig_basis_matrix_is_bit_identical_to_eval(n, m):
    # every column filled at once holds the bits of its member alone, inside
    # the support, at its ends and outside it
    x = np.concatenate([[0.5, 0.0, 1.0], np.random.default_rng(n + m).uniform(-0.25, 1.25, n)])[:n]
    trig = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=max(m, 64))
    mat = basis_matrix(trig, m, x)
    assert mat.shape == (n, m)
    for j in range(1, m + 1):
        assert [v.hex() for v in mat[:, j - 1]] == [v.hex() for v in eval_basis(trig, m, j, x)]


@pytest.mark.parametrize("family", [TRIG, HIST, LEG])
def test_members_vanish_at_far_points(family):
    # a cosine argument or a Legendre polynomial at such points overflows to
    # inf, and inf * 0 was nan; every in-support value keeps its bits
    lo, hi = family.support
    far = np.array([2.1e61, -3e200, 1e308, -1.7e308])
    inside = np.linspace(lo, hi, 9)
    with np.errstate(all="ignore"):
        mat = basis_matrix(family, 12, np.concatenate([far, inside]))
        assert np.array_equal(mat[: far.size], np.zeros((far.size, 12)))
        assert mat[far.size :].tobytes() == basis_matrix(family, 12, inside).tobytes()
        for j in (1, 2, 12):
            assert np.array_equal(eval_basis(family, 12, j, far), np.zeros(far.size))
    assert np.array_equal(normalized_legendre(9, far), np.zeros(far.size))


# ---------------------------------------------------------------------------
# orthonormality and cross-Grams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,m", [(TRIG, 32), (HIST, 32), (LEG, 32)])
def test_orthonormality(family, m):
    lo, hi = family.support
    # panels sized so the highest-frequency products are fully resolved
    cuts = sorted(set(breakpoints(family, m)) | set(np.linspace(lo, hi, 9)[1:-1]))
    nodes, weights = composite_rule(lo, hi, cuts)
    mat = basis_matrix(family, m, nodes)
    gram = (mat * weights[:, None]).T @ mat
    assert_allclose(gram, np.eye(m), atol=1e-8)


def test_cross_gram_nested_truncated_identity():
    for family in (TRIG, LEG):
        got = cross_gram(family, 5, 9)
        want = np.zeros((5, 9))
        want[:5, :5] = np.eye(5)
        assert_allclose(got, want, atol=1e-14)


def test_cross_gram_histogram_overlaps():
    got = cross_gram(HIST, 2, 3)
    s = np.sqrt(6.0)
    want = np.array([[s / 3, s / 6, 0.0], [0.0, s / 6, s / 3]])
    assert_allclose(got, want, rtol=1e-14)


def test_cross_gram_histogram_matches_quadrature():
    m, mp = 3, 5
    nodes, weights = composite_rule(0.0, 1.0, sorted(set(breakpoints(HIST, m)) | set(breakpoints(HIST, mp))))
    a = basis_matrix(HIST, m, nodes)
    b = basis_matrix(HIST, mp, nodes)
    want = (a * weights[:, None]).T @ b
    assert_allclose(cross_gram(HIST, m, mp), want, atol=1e-12)


# ---------------------------------------------------------------------------
# squared sums and their suprema: the diagonal of the order-m kernel
# ---------------------------------------------------------------------------


def squared_sum(family, m, x):
    """sum_{j<=m} phi_j(x)^2 at each x, as the section norm of the order-m kernel."""
    return section_sq_norm_points(ProjectionSpec(family, (m,)), np.asarray(x, dtype=np.float64)[:, None])


def sup_squared_sum(family, m):
    """sup_x sum_{j<=m} phi_j(x)^2, as the diagonal supremum of the order-m kernel."""
    return diag_sup(ProjectionSpec(family, (m,)))


def test_squared_sum_pointwise():
    x = np.array([0.1, 0.6])
    got = squared_sum(HIST, 4, x)
    assert_allclose(got, [4.0, 4.0])
    got = squared_sum(TRIG, 3, x)
    assert_allclose(got, [3.0, 3.0], rtol=1e-14)  # odd order: constant sum


def test_sup_squared_sum_histogram():
    for m in (1, 4, 17):
        assert sup_squared_sum(HIST, m) == pytest.approx(m)


def test_sup_squared_sum_trig():
    assert sup_squared_sum(TRIG, 7) == pytest.approx(7.0, rel=1e-12)
    assert sup_squared_sum(TRIG, 2) == pytest.approx(3.0, rel=1e-9)
    assert sup_squared_sum(TRIG, 8) == pytest.approx(9.0, rel=1e-9)


def test_sup_squared_sum_legendre_closed_form():
    # the squared sum peaks at the interval ends with value m(m+2)/2
    for m in (1, 2, 5, 12):
        want = m * (m + 2) / 2.0
        assert sup_squared_sum(LEG, m) == pytest.approx(want, rel=1e-9)
        ends = squared_sum(LEG, m, np.array([-1.0, 1.0]))
        assert_allclose(ends, [want, want], rtol=1e-12)


@pytest.mark.parametrize("family", [TRIG, HIST, LEG])
def test_uniform_bound_sweep(family):
    # sum of squares <= m_B * m over a dense grid, all orders up to 32
    lo, hi = family.support
    x = np.linspace(lo, hi, 2001)
    for m in range(1, 33):
        bound = family.sup_bound_const * m
        assert np.max(squared_sum(family, m, x)) <= bound + 1e-9


def test_nesting_flags():
    assert TRIG.nested and LEG.nested and not HIST.nested


def test_histogram_mean_kernel_bounded_by_density_sup():
    # |E sum_j phi_j(X) phi_j(x)| <= sup f for every order and anchor:
    # the expectation is m * P(X in cell(x)), a cell-average of f
    for kind in (DensityKind.TRIANGLE, DensityKind.TRUNCATED_GAUSSIAN):
        den = Density(kind, 0.0, 1.0)
        for m in (1, 3, 10, 32):
            edges = np.linspace(0.0, 1.0, m + 1)
            mass = den.cdf(edges[1:]) - den.cdf(edges[:-1])
            assert np.max(m * mass) <= den.sup_norm + 1e-9


def test_breakpoints_histogram():
    assert_allclose(breakpoints(HIST, 4), [0.25, 0.5, 0.75])
    assert list(breakpoints(TRIG, 4)) == []


def test_histogram_cells_of_huge_inputs_do_not_overflow():
    # x * m would overflow to inf, whose integer cast is undefined
    x = np.array([0.5, 1e308, -1e308, 1.0, 0.999999])
    with np.errstate(all="raise"):
        cells, ok = histogram_cells(20, x)
    assert cells.tolist() == [10, 19, 0, 19, 19]
    assert ok.tolist() == [True, False, False, False, True]


def test_check_order_validation():
    with pytest.raises(ValueError):
        TRIG.check_order(0)
    with pytest.raises(ValueError):
        TRIG.check_order(TRIG.m_cap + 1)


def test_sine_tail_quick_sweep():
    worst = sine_tail_max_violation(p_max=50, grid_points=2000)
    assert worst <= 0.0
