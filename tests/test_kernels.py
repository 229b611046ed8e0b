import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import quad_section_inner
from pcoselect import (
    EPANECHNIKOV,
    GAUSSIAN,
    BandwidthSpec,
    BasisFamily,
    BasisKind,
    ProjectionSpec,
    diag_sup,
    find_overfitting_k0,
    kernel_eval,
    kernel_matrix,
    make_bandwidth_family,
    make_projection_family,
    section_inner,
    section_inner_matrix,
    section_l1_norm,
    section_sq_norm,
    spec_from_config,
    spec_id,
    spec_to_config,
    stream,
)
from pcoselect.kernels import section_inner_pointwise

TRIG = BasisFamily(BasisKind.TRIGONOMETRIC)
HIST = BasisFamily(BasisKind.REGULAR_HISTOGRAM)
LEG = BasisFamily(BasisKind.LEGENDRE)

ONE_OVER_TWO_SQRT_PI = 0.28209479177387814
ONE_OVER_SQRT_TWO_PI = 0.3989422804014327


# ---------------------------------------------------------------------------
# base kernels
# ---------------------------------------------------------------------------


def test_base_kernel_constants():
    assert GAUSSIAN.l2_norm_sq == pytest.approx(ONE_OVER_TWO_SQRT_PI, rel=1e-15)
    assert GAUSSIAN.at_zero == pytest.approx(ONE_OVER_SQRT_TWO_PI, rel=1e-15)
    assert EPANECHNIKOV.l2_norm_sq == pytest.approx(0.6, rel=1e-15)
    assert EPANECHNIKOV.at_zero == pytest.approx(0.75, rel=1e-15)
    assert GAUSSIAN.l1_norm == EPANECHNIKOV.l1_norm == 1.0


@pytest.mark.parametrize("base", [GAUSSIAN, EPANECHNIKOV])
def test_base_kernel_integrates_to_one(base):
    from pcoselect.quadrature import composite_rule

    nodes, weights = composite_rule(-base.tail_halfwidth, base.tail_halfwidth, [-1.0, 1.0])
    assert_allclose(np.sum(weights * base.eval(nodes)), 1.0, atol=1e-12)
    assert_allclose(np.sum(weights * base.eval(nodes) ** 2), base.l2_norm_sq, atol=1e-12)


# ---------------------------------------------------------------------------
# spec construction and round trips
# ---------------------------------------------------------------------------


def test_bandwidth_spec_validation():
    with pytest.raises(ValueError):
        BandwidthSpec(GAUSSIAN, (0.0,))
    with pytest.raises(ValueError):
        BandwidthSpec(GAUSSIAN, (-0.1, 0.2))


def test_projection_spec_validation():
    with pytest.raises(ValueError):
        ProjectionSpec(TRIG, (0,))
    with pytest.raises(ValueError):
        ProjectionSpec(TRIG, (TRIG.m_cap + 1,))
    with pytest.raises(ValueError):
        ProjectionSpec(TRIG, (3,), w=np.array([0.5, 1.2, 0.1]))  # weight > 1


@pytest.mark.parametrize(
    "spec",
    [
        BandwidthSpec(GAUSSIAN, (0.25, 0.5)),
        BandwidthSpec(EPANECHNIKOV, (0.1,)),
        ProjectionSpec(TRIG, (5,)),
        ProjectionSpec(HIST, (4, 8)),
        ProjectionSpec(LEG, (6,), w=np.linspace(1.0, 0.25, 8)),
    ],
)
def test_spec_config_round_trip(spec):
    again = spec_from_config(spec_to_config(spec))
    assert spec_id(again) == spec_id(spec)
    x = np.full((3, spec.d), 0.3)
    y = np.full((3, spec.d), 0.4)
    assert_allclose(kernel_matrix(again, x, y), kernel_matrix(spec, x, y), rtol=1e-15)


def test_spec_ids_distinct():
    ids = {
        spec_id(BandwidthSpec(GAUSSIAN, (0.1,))),
        spec_id(BandwidthSpec(GAUSSIAN, (0.2,))),
        spec_id(BandwidthSpec(EPANECHNIKOV, (0.1,))),
        spec_id(ProjectionSpec(TRIG, (4,))),
        spec_id(ProjectionSpec(HIST, (4,))),
    }
    assert len(ids) == 5


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def test_kernel_matrix_symmetry():
    rng = stream(5)
    x = rng.random((6, 2))
    y = rng.random((4, 2))
    for spec in (BandwidthSpec(GAUSSIAN, (0.2, 0.4)), ProjectionSpec(HIST, (3, 5))):
        kxy = kernel_matrix(spec, x, y)
        kyx = kernel_matrix(spec, y, x)
        assert_allclose(kxy, kyx.T, rtol=1e-14)


def test_bandwidth_kernel_value():
    spec = BandwidthSpec(GAUSSIAN, (0.5,))
    got = kernel_eval(spec, np.array([0.3]), np.array([0.3]))
    assert_allclose(got, ONE_OVER_SQRT_TWO_PI / 0.5, rtol=1e-14)


def test_projection_kernel_value():
    # histogram kernel: m on the shared cell, 0 across cells
    spec = ProjectionSpec(HIST, (4,))
    assert kernel_eval(spec, np.array([0.26]), np.array([0.49])) == pytest.approx(4.0)
    assert kernel_eval(spec, np.array([0.26]), np.array([0.51])) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# section inner products: closed form vs quadrature oracle
# ---------------------------------------------------------------------------


def _pairs_1d(rng, specs, count=25):
    for _ in range(count):
        a = specs[rng.integers(len(specs))]
        b = specs[rng.integers(len(specs))]
        xa = rng.random(1)
        xb = rng.random(1)
        yield a, b, xa, xb


def test_gaussian_sections_match_quadrature():
    rng = stream(101)
    specs = [BandwidthSpec(GAUSSIAN, (h,)) for h in (0.05, 0.17, 0.4, 1.0)]
    for a, b, xa, xb in _pairs_1d(rng, specs):
        got = section_inner(a, xa, b, xb)
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


def test_epanechnikov_sections_match_quadrature():
    rng = stream(102)
    specs = [BandwidthSpec(EPANECHNIKOV, (h,)) for h in (0.08, 0.25, 0.6)]
    for a, b, xa, xb in _pairs_1d(rng, specs):
        got = section_inner(a, xa, b, xb)
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


def test_mixed_base_sections_match_quadrature():
    rng = stream(103)
    specs = [BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(EPANECHNIKOV, (0.3,))]
    for a, b, xa, xb in _pairs_1d(rng, specs, count=12):
        got = section_inner(a, xa, b, xb)
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("basis,orders", [(TRIG, (2, 5, 9)), (HIST, (3, 4, 7)), (LEG, (1, 4, 8))])
def test_projection_sections_match_quadrature(basis, orders):
    rng = stream(104)
    lo, hi = basis.support
    specs = [ProjectionSpec(basis, (m,)) for m in orders]
    for a, b, _, _ in _pairs_1d(rng, specs, count=15):
        xa = lo + (hi - lo) * rng.random(1)
        xb = lo + (hi - lo) * rng.random(1)
        got = section_inner(a, xa, b, xb)
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


def test_weighted_projection_sections_match_quadrature():
    rng = stream(105)
    w = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05])
    specs = [ProjectionSpec(TRIG, (m,), w=w) for m in (3, 6, 8)]
    for a, b, xa, xb in _pairs_1d(rng, specs, count=10):
        got = section_inner(a, xa, b, xb)
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


def test_sections_match_quadrature_d2():
    rng = stream(106)
    specs = [
        BandwidthSpec(GAUSSIAN, (0.15, 0.35)),
        BandwidthSpec(GAUSSIAN, (0.5, 0.1)),
    ]
    for a, b, _, _ in _pairs_1d(rng, specs, count=6):
        xa = rng.random(2)
        xb = rng.random(2)
        got = section_inner(a, xa, b, xb)
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)
    hspecs = [ProjectionSpec(HIST, (2, 5)), ProjectionSpec(HIST, (4, 3))]
    for a, b, _, _ in _pairs_1d(rng, hspecs, count=6):
        xa = rng.random(2)
        xb = rng.random(2)
        assert_allclose(
            section_inner(a, xa, b, xb), quad_section_inner(a, xa, b, xb), atol=1e-10
        )


def test_section_inner_matrix_consistency():
    rng = stream(107)
    xa = rng.random((5, 1))
    xb = rng.random((4, 1))
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = ProjectionSpec = BandwidthSpec(GAUSSIAN, (0.45,))
    mat = section_inner_matrix(a, xa, b, xb)
    assert mat.shape == (5, 4)
    for i in range(5):
        for j in range(4):
            assert_allclose(mat[i, j], section_inner(a, xa[i], b, xb[j]), rtol=1e-12)


def test_section_inner_pointwise_matches_matrix_diagonal():
    rng = stream(108)
    x = rng.random((7, 1))
    pairs = [
        (BandwidthSpec(GAUSSIAN, (0.3,)), BandwidthSpec(GAUSSIAN, (0.12,))),
        (ProjectionSpec(HIST, (4,)), ProjectionSpec(HIST, (6,))),
        (ProjectionSpec(TRIG, (3,)), ProjectionSpec(TRIG, (8,))),
    ]
    for a, b in pairs:
        diag = section_inner_pointwise(a, x, b, x)
        mat = section_inner_matrix(a, x, b, x)
        assert_allclose(diag, np.diagonal(mat), rtol=1e-12)


def test_variant_mixing_rejected():
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = ProjectionSpec(TRIG, (4,))
    with pytest.raises(ValueError):
        section_inner(a, np.array([0.3]), b, np.array([0.4]))


def test_cross_basis_projection_rejected():
    a = ProjectionSpec(TRIG, (4,))
    b = ProjectionSpec(HIST, (4,))
    with pytest.raises(ValueError):
        section_inner(a, np.array([0.3]), b, np.array([0.4]))


# ---------------------------------------------------------------------------
# norms and diagonal suprema
# ---------------------------------------------------------------------------


def test_section_sq_norm_closed_forms():
    spec = BandwidthSpec(GAUSSIAN, (0.5, 0.25))
    want = ONE_OVER_TWO_SQRT_PI / 0.5 * ONE_OVER_TWO_SQRT_PI / 0.25
    assert section_sq_norm(spec, np.array([0.3, 0.7])) == pytest.approx(want, rel=1e-14)
    # consistency with the pairwise inner product of a section with itself
    x = np.array([0.3, 0.7])
    assert_allclose(section_inner(spec, x, spec, x), want, rtol=1e-13)


def test_section_sq_norm_projection_matches_inner():
    spec = ProjectionSpec(TRIG, (6,))
    x = np.array([0.37])
    assert_allclose(section_sq_norm(spec, x), section_inner(spec, x, spec, x), rtol=1e-12)


def test_section_l1_norm_bandwidth_exact_one():
    for base in (GAUSSIAN, EPANECHNIKOV):
        spec = BandwidthSpec(base, (0.2, 0.7))
        assert section_l1_norm(spec, np.array([0.4, 0.6])) == pytest.approx(1.0, rel=1e-12)


def test_section_l1_norm_histogram_is_cell_weight():
    spec = ProjectionSpec(HIST, (4,))
    assert section_l1_norm(spec, np.array([0.3])) == pytest.approx(1.0, rel=1e-12)
    w = np.array([1.0, 0.5, 1.0, 0.25])
    spec_w = ProjectionSpec(HIST, (4,), w=w)
    assert section_l1_norm(spec_w, np.array([0.3])) == pytest.approx(0.5, rel=1e-12)


def test_section_l1_norm_trig_by_quadrature():
    # no closed form; check against a dense rectangle rule
    spec = ProjectionSpec(TRIG, (5,))
    x = np.array([0.3])
    got = section_l1_norm(spec, x)
    t = np.linspace(0.0, 1.0, 200_001)
    vals = np.abs(kernel_matrix(spec, x.reshape(1, 1), t.reshape(-1, 1))[0])
    want = np.trapezoid(vals, t)
    assert_allclose(got, want, rtol=1e-6)


def test_diag_sup_bandwidth():
    spec = BandwidthSpec(GAUSSIAN, (0.5, 0.2))
    want = (ONE_OVER_SQRT_TWO_PI / 0.5) * (ONE_OVER_SQRT_TWO_PI / 0.2)
    assert diag_sup(spec) == pytest.approx(want, rel=1e-14)


def test_diag_sup_projection():
    assert diag_sup(ProjectionSpec(HIST, (4, 3))) == pytest.approx(12.0)
    # trig diagonal is the squared sum; odd order makes it constant m
    assert diag_sup(ProjectionSpec(TRIG, (5,))) == pytest.approx(5.0, rel=1e-9)
    # legendre peaks at the endpoints
    assert diag_sup(ProjectionSpec(LEG, (4,))) == pytest.approx(12.0, rel=1e-9)


@pytest.mark.parametrize("basis,m_max,d", [(TRIG, 12, 1), (LEG, 9, 1), (TRIG, 4, 2), (LEG, 3, 2)])
def test_k0_scan_runs_once_per_family_and_matches_per_order_scan(monkeypatch, basis, m_max, d):
    import pcoselect.kernels as kernels_mod
    from pcoselect.bases import basis_matrix

    grid = np.linspace(*basis.support, kernels_mod.DIAG_SCAN_POINTS)
    w = np.linspace(1.0, 0.2, m_max)
    calls = []
    monkeypatch.setattr(kernels_mod, "basis_matrix", lambda *a: calls.append(a[1]) or basis_matrix(*a))
    fam = make_projection_family(basis, m_max, d, m_max**d, w)
    assert calls == [m_max]
    for spec in fam.specs:
        want = 1.0
        for mq in spec.m:
            mat = basis_matrix(basis, mq, grid)
            want *= float(np.max((mat * mat) @ spec.weights_for(mq)))
        assert diag_sup(spec) == want
        assert diag_sup(spec, kernels_mod.diag_scan_squares(basis, m_max)) == want


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_bandwidth_family_k0_smallest_product():
    fam = make_bandwidth_family(GAUSSIAN, 0.05, [0.05, 0.1, 0.4], 1, 100)
    assert len(fam) == 3
    assert fam.k0.h == (0.05,)
    assert fam.k0_index == 0


def test_bandwidth_family_validates_h_min():
    with pytest.raises(ValueError):
        make_bandwidth_family(GAUSSIAN, 0.001, [0.01, 0.1], 1, 100)  # h_min < 1/n
    with pytest.raises(ValueError):
        make_bandwidth_family(GAUSSIAN, 0.05, [0.01, 0.1], 1, 100)  # grid below h_min


def test_bandwidth_family_d2_products():
    fam = make_bandwidth_family(GAUSSIAN, 0.2, [0.2, 0.5], 2, 100)
    assert len(fam) == 4
    assert fam.k0.h == (0.2, 0.2)


def test_bandwidth_family_caps_size_at_n():
    grid = [0.35, 0.45, 0.55, 0.65, 0.75]
    fam = make_bandwidth_family(GAUSSIAN, 0.35, grid, 2, 10)  # 25 products > n
    assert len(fam) <= 10
    assert fam.k0.h == (0.35, 0.35)  # overfitting candidate survives the trim


def test_projection_family_k0_largest_order():
    fam = make_projection_family(TRIG, 8, 1, 100)
    assert len(fam) == 8
    assert fam.k0.m == (8,)
    assert fam.k0_index == len(fam) - 1


def test_projection_family_size_guard():
    with pytest.raises(ValueError):
        make_projection_family(TRIG, 12, 2, 100)  # 144 > n


def test_find_overfitting_k0_first_max_wins():
    specs = [ProjectionSpec(HIST, (4,)), ProjectionSpec(HIST, (4,)), ProjectionSpec(HIST, (2,))]
    assert find_overfitting_k0(specs) == 0
