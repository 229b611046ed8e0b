import math
import re
from fractions import Fraction

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
    ConfigError,
    GramTables,
    KernelFamily,
    ProjectionSpec,
    Sample,
    diag_sup,
    find_overfitting_k0,
    kernel_matrix,
    make_bandwidth_family,
    make_projection_family,
    section_inner_matrix,
    section_l1_norm,
    spec_from_config,
    spec_id,
    spec_to_config,
    stream,
)
from pcoselect.bases import basis_matrix
from pcoselect.kernels import DIAG_SCAN_POINTS, diag_sups, section_inner_pointwise, section_sq_norm_points

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
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            BandwidthSpec(GAUSSIAN, (0.2, bad))


@pytest.mark.parametrize("h", [1e-320, 1e-160, 1.4e-154, 1.4e154, 1e300])
def test_bandwidth_spec_rejects_h_whose_square_is_not_normal(h):
    with pytest.raises(ValueError, match=re.escape(f"h = {h!r}")):
        BandwidthSpec(GAUSSIAN, (0.2, h))


@pytest.mark.parametrize("h", [1.5e-154, 1e-100, 1e100, 1.3e154])
def test_bandwidth_spec_accepts_h_whose_square_is_normal(h):
    assert BandwidthSpec(EPANECHNIKOV, (h,)).h == (h,)


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
    got = kernel_matrix(spec, np.array([[0.3]]), np.array([[0.3]]))[0, 0]
    assert_allclose(got, ONE_OVER_SQRT_TWO_PI / 0.5, rtol=1e-14)


def test_projection_kernel_value():
    # histogram kernel: m on the shared cell, 0 across cells
    spec = ProjectionSpec(HIST, (4,))
    assert kernel_matrix(spec, np.array([[0.26]]), np.array([[0.49], [0.51]]))[0] == pytest.approx([4.0, 0.0])


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
        got = section_inner_matrix(a, xa[None], b, xb[None])[0, 0]
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


def test_epanechnikov_sections_match_quadrature():
    rng = stream(102)
    specs = [BandwidthSpec(EPANECHNIKOV, (h,)) for h in (0.08, 0.25, 0.6)]
    for a, b, xa, xb in _pairs_1d(rng, specs):
        got = section_inner_matrix(a, xa[None], b, xb[None])[0, 0]
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("ha,hb", [(0.3, 0.3), (0.08, 0.45), (0.002, 0.5), (0.5, 0.002)])
def test_epanechnikov_three_node_rule_matches_quadrature(ha, hb):
    # exact for the degree-4 integrand: centered, partial and near-touching
    # supports, and h_a << h_b.  Anchoring xa at 0 keeps the difference exact;
    # closer to touching, the rounding of the support ends themselves (relative
    # size eps (h_a + h_b) / overlap) dominates either computation.
    a = BandwidthSpec(EPANECHNIKOV, (ha,))
    b = BandwidthSpec(EPANECHNIKOV, (hb,))
    for frac in (0.0, 0.2, 0.5, 0.9, 0.99, 0.999):
        for sign in (1.0, -1.0):
            xb = np.array([sign * frac * (ha + hb)])
            want = quad_section_inner(a, np.zeros(1), b, xb)
            assert_allclose(section_inner_matrix(a, np.zeros((1, 1)), b, xb[None])[0, 0], want, rtol=1e-12)
    assert section_inner_matrix(a, np.zeros((1, 1)), b, np.array([[1.0001 * (ha + hb)]]))[0, 0] == 0.0


def _exact_epanechnikov(ha, hb, delta) -> float:
    """The Epanechnikov section product in exact rationals: the integral of
    (9/16) (ha^2 - u^2)(hb^2 - (u - delta)^2) / (ha hb)^3 on the overlap."""
    ha, hb, delta = Fraction(ha), Fraction(hb), Fraction(delta)
    lo, hi = max(-ha, delta - hb), min(ha, delta + hb)
    if hi <= lo:
        return 0.0
    c = (hb * hb - delta * delta, 2 * delta, -1)  # the second factor, by powers of u
    p = (ha * ha * c[0], ha * ha * c[1], ha * ha * c[2] - c[0], -c[1], -c[2])
    integral = sum(pk * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, pk in enumerate(p))
    return float(integral * Fraction(9, 16) / (ha * hb) ** 3)


@pytest.mark.parametrize("ha,hb", [(0.5, 1e-6), (1e-6, 0.5), (6.18, 1e-6), (0.2, 0.05), (0.5, 0.5)])
def test_epanechnikov_convolution_holds_to_an_exact_integral(ha, hb):
    # the narrow kernel far from 0, inside the wide one and across its support
    # end: forming delta -+ 1e-6 kept about ten digits of such entries
    deltas = np.concatenate([np.linspace(-0.6, 0.6, 121), 0.5 + np.array([-2e-6, -1e-6, -5e-7, 5e-7, 1e-6]),
                             [0.3 - 0.1, 0.7 - 0.2]])
    got = section_inner_pointwise(BandwidthSpec(EPANECHNIKOV, (ha,)), np.zeros((deltas.size, 1)),
                                  BandwidthSpec(EPANECHNIKOV, (hb,)), -deltas[:, None])
    want = np.array([_exact_epanechnikov(ha, hb, v) for v in deltas])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


@pytest.mark.parametrize("basis,orders", [(TRIG, (2, 5, 9)), (HIST, (3, 4, 7)), (LEG, (1, 4, 8))])
def test_projection_sections_match_quadrature(basis, orders):
    rng = stream(104)
    lo, hi = basis.support
    specs = [ProjectionSpec(basis, (m,)) for m in orders]
    for a, b, _, _ in _pairs_1d(rng, specs, count=15):
        xa = lo + (hi - lo) * rng.random(1)
        xb = lo + (hi - lo) * rng.random(1)
        got = section_inner_matrix(a, xa[None], b, xb[None])[0, 0]
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)


def test_weighted_projection_sections_match_quadrature():
    rng = stream(105)
    w = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05])
    specs = [ProjectionSpec(TRIG, (m,), w=w) for m in (3, 6, 8)]
    for a, b, xa, xb in _pairs_1d(rng, specs, count=10):
        got = section_inner_matrix(a, xa[None], b, xb[None])[0, 0]
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
        got = section_inner_matrix(a, xa[None], b, xb[None])[0, 0]
        want = quad_section_inner(a, xa, b, xb)
        assert_allclose(got, want, atol=1e-10)
    hspecs = [ProjectionSpec(HIST, (2, 5)), ProjectionSpec(HIST, (4, 3))]
    for a, b, _, _ in _pairs_1d(rng, hspecs, count=6):
        xa = rng.random(2)
        xb = rng.random(2)
        assert_allclose(
            section_inner_matrix(a, xa[None], b, xb[None])[0, 0], quad_section_inner(a, xa, b, xb), atol=1e-10
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
            assert_allclose(mat[i, j], section_inner_matrix(a, xa[i : i + 1], b, xb[j : j + 1])[0, 0], rtol=1e-12)


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
    # histogram pairs at d = 2 with unequal orders per axis and weights, on
    # cell edges, the support ends and outside [0, 1), at two point sets
    w = (1.0, 0.6, 0.3, 0.8, 0.1, 0.5, 0.9)
    edges = np.array([0.0, 0.5, 1 / 3, 0.25, 0.2, 2 / 3, 0.75, 1.0, -0.2, 1.3, 0.6, 1 / 7])
    xa = np.stack([edges, np.roll(edges, 5)], axis=1)
    xb = np.concatenate([xa[:6], rng.random((6, 2))])
    for a, b in [(ProjectionSpec(HIST, (3, 4), w), ProjectionSpec(HIST, (6, 2))),
                 (ProjectionSpec(HIST, (5, 7), w), ProjectionSpec(HIST, (2, 7), w))]:
        for pa, pb in ((xa, xa), (xa, xb), (xb, xa)):
            want = np.diagonal(section_inner_matrix(a, pa, b, pb))
            assert_allclose(section_inner_pointwise(a, pa, b, pb), want, rtol=1e-14, atol=0)
            assert_allclose(want, [quad_section_inner(a, u, b, v) for u, v in zip(pa, pb)], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("basis", [TRIG, LEG], ids=["trigonometric", "legendre"])
def test_nested_pointwise_product_is_identical_to_truncated_full_orders(basis, d):
    # each side's basis at its own full order, truncated to the k shared
    # columns: the same bits as the product evaluated at order k
    rng = stream(109)
    lo, hi = basis.support
    # some points off the support, where every member is 0
    xa, xb = (lo - 0.1 + (hi - lo + 0.2) * rng.random((3000, d)) for _ in range(2))
    w = tuple(rng.uniform(0.1, 1.0, 64))
    for ma, mb in [(1, 64), (2, 3), (5, 64), (7, 16), (16, 7), (64, 64)]:
        a, b = ProjectionSpec(basis, (ma, 3)[:d], w), ProjectionSpec(basis, (mb, mb)[:d])
        want = np.ones(len(xa))
        for q in range(d):
            k = min(a.m[q], b.m[q])
            va = basis_matrix(basis, a.m[q], xa[:, q])[:, :k] * a.weights_for(a.m[q])[:k]
            vb = basis_matrix(basis, b.m[q], xb[:, q])[:, :k] * b.weights_for(b.m[q])[:k]
            want *= np.sum(va * vb, axis=1)
        assert section_inner_pointwise(a, xa, b, xb).tobytes() == want.tobytes()


def test_variant_mixing_rejected():
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = ProjectionSpec(TRIG, (4,))
    with pytest.raises(ValueError):
        section_inner_matrix(a, np.array([[0.3]]), b, np.array([[0.4]]))


def test_cross_basis_projection_rejected():
    a = ProjectionSpec(TRIG, (4,))
    b = ProjectionSpec(HIST, (4,))
    with pytest.raises(ValueError):
        section_inner_matrix(a, np.array([[0.3]]), b, np.array([[0.4]]))


# pairs without a closed form: one rule, the same message at every entry point
_BAD_PAIRS = {
    "mixed": (BandwidthSpec(GAUSSIAN, (0.1,)), ProjectionSpec(TRIG, (3,)), "mixed"),
    "bandwidth-dimensions": (BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.1, 0.2)), "dimensions"),
    "projection-dimensions": (ProjectionSpec(TRIG, (3,)), ProjectionSpec(TRIG, (3, 4)), "dimensions"),
    "two-bases": (BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(EPANECHNIKOV, (0.1,)),
                  r"two bases \((gaussian x epanechnikov|epanechnikov x gaussian)\)"),
    "two-basis-kinds": (ProjectionSpec(TRIG, (3,)), ProjectionSpec(HIST, (3,)),
                        r"two bases \((trigonometric x regular_histogram|regular_histogram x trigonometric)\)"),
}


@pytest.mark.parametrize("entry", ["matrix", "pointwise", "total", "diag"])
@pytest.mark.parametrize("case", sorted(_BAD_PAIRS))
def test_pairs_without_a_closed_form_raise_at_every_entry(case, entry):
    a, b, message = _BAD_PAIRS[case]
    x = np.array([[0.3], [0.6]])
    calls = {
        "matrix": lambda: section_inner_matrix(a, x, b, x),
        "pointwise": lambda: section_inner_pointwise(a, x, b, x),
        "total": lambda: GramTables(Sample(x, np.ones(2))).weighted_total(a, b),
        "diag": lambda: GramTables(Sample(x, np.ones(2))).diag(a, b),
    }
    with pytest.raises(ValueError, match=message):
        calls[entry]()


@pytest.mark.parametrize("product", [section_inner_matrix, section_inner_pointwise])
def test_section_products_reject_points_of_another_width(product):
    x = np.array([[0.3, 0.4], [0.6, 0.1]])
    for spec in (BandwidthSpec(GAUSSIAN, (0.1,)), ProjectionSpec(TRIG, (3,))):
        with pytest.raises(ValueError, match="point dimension"):
            product(spec, x, spec, x)


# ---------------------------------------------------------------------------
# norms and diagonal suprema
# ---------------------------------------------------------------------------


def test_section_sq_norm_closed_forms():
    spec = BandwidthSpec(GAUSSIAN, (0.5, 0.25))
    want = ONE_OVER_TWO_SQRT_PI / 0.5 * ONE_OVER_TWO_SQRT_PI / 0.25
    x = np.array([[0.3, 0.7]])
    assert section_sq_norm_points(spec, x)[0] == pytest.approx(want, rel=1e-14)
    # consistency with the pairwise inner product of a section with itself
    assert_allclose(section_inner_matrix(spec, x, spec, x)[0, 0], want, rtol=1e-13)


def test_section_sq_norm_projection_matches_inner():
    spec = ProjectionSpec(TRIG, (6,))
    x = np.array([[0.37]])
    assert_allclose(section_sq_norm_points(spec, x), section_inner_matrix(spec, x, spec, x)[0], rtol=1e-12)


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

    # one table of suprema per family, at its top order: the scan grid for a
    # weighted trigonometric family, the two support endpoints for Legendre
    scan = basis is TRIG
    points = np.linspace(*basis.support, kernels_mod.DIAG_SCAN_POINTS) if scan else np.array(basis.support)
    w = np.linspace(1.0, 0.2, m_max)
    calls = []
    monkeypatch.setattr(kernels_mod, "basis_matrix", lambda *a: calls.append((a[1], len(a[2]))) or basis_matrix(*a))
    fam = make_projection_family(basis, m_max, d, m_max**d, w)
    assert calls == [(m_max, len(points))]
    # the family's members read one table at m_max
    sups = diag_sups(fam.specs)
    for spec, sup in zip(fam.specs, sups):
        want = 1.0
        for mq in spec.m:
            mat = basis_matrix(basis, mq, points)
            want *= float(np.max((mat * mat) @ spec.weights_for(mq)))
        assert diag_sup(spec) == want
        assert sup == want


def _refined_sup(spec_1d):
    """sup_t K(t, t) of a one-dimensional member: the scan's best grid
    interval refined with a 20001-point grid."""
    lo, hi = spec_1d.basis.support
    step = (hi - lo) / (DIAG_SCAN_POINTS - 1)
    w = spec_1d.weights_for(spec_1d.m[0])

    def diagonal(t):
        mat = basis_matrix(spec_1d.basis, spec_1d.m[0], t)
        return (mat * mat) @ w

    grid = np.linspace(lo, hi, DIAG_SCAN_POINTS)
    peak = grid[int(np.argmax(diagonal(grid)))]
    fine = np.linspace(max(lo, peak - step), min(hi, peak + step), 20001)
    return float(np.max(diagonal(fine)))


@pytest.mark.parametrize("m,w", [(3, (1.0, 0.0, 1.0)), (4, (0.2, 1.0, 0.1, 0.7)), (7, (1.0, 0.9, 0.6, 0.35, 0.2, 0.1, 0.05)),
                                 (12, tuple(np.linspace(1.0, 0.0, 12))), (64, tuple(np.linspace(0.0, 1.0, 64) ** 3))])
def test_diag_sup_scan_accuracy_on_weighted_trigonometric_members(m, w):
    """The stated accuracy of the diagonal scan: never above the supremum,
    and within a relative pi^2 m^2 / (2 (P - 1)^2) of it per dimension."""
    spec = ProjectionSpec(BasisFamily(BasisKind.TRIGONOMETRIC, 64), (m,), w)
    scanned, true = diag_sup(spec), _refined_sup(spec)
    bound = math.pi**2 * m * m / (2 * (DIAG_SCAN_POINTS - 1) ** 2)
    assert scanned <= true <= scanned * (1 + bound)
    # two dimensions: the product of the per-dimension scans
    assert diag_sup(ProjectionSpec(spec.basis, (m, m), w)) == scanned * scanned


def test_diag_sup_scan_reads_low_between_grid_points():
    # 1 + 2 sin^2(2 pi t) peaks at t = 1/4, which is not a grid point
    scanned = diag_sup(ProjectionSpec(TRIG, (3,), (1.0, 0.0, 1.0)))
    assert 2.9999999 < scanned < 3.0
    assert 3.0 - scanned <= 3.0 * math.pi**2 * 9 / (2 * (DIAG_SCAN_POINTS - 1) ** 2)


@pytest.mark.parametrize("spec", [ProjectionSpec(LEG, (5,), (0.3, 1.0, 0.0, 0.5, 0.9)), ProjectionSpec(LEG, (6,)),
                                  ProjectionSpec(TRIG, (4,)), ProjectionSpec(TRIG, (7,))])
def test_diag_sup_scan_is_exact_for_legendre_and_unweighted_trigonometric(spec):
    # the supremum sits at a support endpoint (an odd trigonometric order's
    # diagonal is constant), and these members read the endpoints alone
    lo, hi = spec.basis.support
    ends = basis_matrix(spec.basis, spec.m[0], np.array([lo, hi])) ** 2 @ spec.weights_for(spec.m[0])
    assert diag_sup(spec) == float(np.max(ends))
    assert _refined_sup(spec) <= diag_sup(spec) * (1 + 1e-14)


_RNG_WEIGHTS = np.random.default_rng(61).random(64)


@pytest.mark.parametrize("basis,w", [(LEG, None), (LEG, tuple(_RNG_WEIGHTS)), (LEG, tuple(np.linspace(0.0, 1.0, 64) ** 3)),
                                     (TRIG, None)], ids=["legendre", "legendre-w", "legendre-w-rising", "trigonometric"])
def test_endpoint_suprema_match_the_refined_scan(basis, w):
    # the refined scan is the oracle: the best grid interval refined by a
    # 20001-point grid, which reads the true supremum up to rounding
    for m in (1, 2, 3, 4, 5, 8, 13, 20, 21, 33, 64):
        spec = ProjectionSpec(BasisFamily(basis.kind, 64), (m,), w)
        assert diag_sup(spec) == pytest.approx(_refined_sup(spec), rel=1e-14, abs=0)


def test_unweighted_trigonometric_and_legendre_k0_is_the_top_order():
    # every family of d <= 3 up to m_max = 64, 8 and 4: the roughest member
    for basis in (BasisFamily(BasisKind.TRIGONOMETRIC, 64), BasisFamily(BasisKind.LEGENDRE, 64)):
        for d, top in ((1, 64), (2, 8), (3, 4)):
            for m_max in range(1, top + 1):
                fam = make_projection_family(basis, m_max, d, m_max**d)
                assert fam.k0.m == (m_max,) * d


def test_trigonometric_orders_2j_and_2j_plus_1_tie_and_the_rougher_wins():
    # the sine columns vanish at t = 0, where both orders peak at 2j + 1
    for j in range(1, 32):
        even, odd = ProjectionSpec(TRIG, (2 * j,)), ProjectionSpec(TRIG, (2 * j + 1,))
        assert diag_sup(even) == diag_sup(odd)
        assert find_overfitting_k0([odd, even]) == 0
        assert find_overfitting_k0([even, odd]) == 1
    # d = 2: (5, 4), (5, 5) and (4, 5) tie; the largest order product wins,
    # and among equal products the lowest index
    specs = [ProjectionSpec(TRIG, (5, 4)), ProjectionSpec(TRIG, (5, 5)), ProjectionSpec(TRIG, (4, 5))]
    assert len({diag_sup(s) for s in specs}) == 1
    assert find_overfitting_k0(specs) == 1
    assert find_overfitting_k0([specs[2], specs[0]]) == 0
    # bandwidths: equal suprema go to the smallest bandwidth product
    pair = [BandwidthSpec(GAUSSIAN, (0.1, 0.2)), BandwidthSpec(GAUSSIAN, (0.2, 0.1))]
    assert diag_sup(pair[0]) == diag_sup(pair[1])
    assert find_overfitting_k0(pair) == 0


def test_projection_families_of_the_shipped_nested_bases_never_scan(monkeypatch):
    import pcoselect.kernels as kernels_mod

    monkeypatch.setattr(kernels_mod, "diag_scan_squares", lambda *a: pytest.fail("a member was scanned"))
    for basis, w in ((TRIG, None), (LEG, None), (LEG, tuple(np.linspace(1.0, 0.1, 20)))):
        for m_max, d in ((20, 1), (19, 1), (5, 2), (3, 3)):
            fam = make_projection_family(basis, m_max, d, m_max**d, w)
            assert fam.k0.m == (m_max,) * d


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


def test_find_overfitting_k0_scans_members_at_the_basis_top_order():
    import pcoselect.kernels as kernels_mod

    # the first member's weights stop at its own order, below the basis's top order 9
    specs = [ProjectionSpec(TRIG, (3,), (1.0, 0.0, 1.0)), ProjectionSpec(TRIG, (2,), (0.5, 1.0)),
             ProjectionSpec(TRIG, (9,), tuple(np.linspace(1.0, 0.1, 9))), ProjectionSpec(LEG, (2,), (0.5, 1.0)),
             ProjectionSpec(HIST, (4,))]
    tables = {TRIG: kernels_mod.sup_squares(TRIG, 9, True), LEG: kernels_mod.sup_squares(LEG, 2)}
    want = [float(np.max(tables[s.basis][:, : s.m[0]] @ s.weights_for(s.m[0]))) if s.basis in tables else diag_sup(s)
            for s in specs]
    assert diag_sups(specs) == want
    assert find_overfitting_k0(specs) == int(np.argmax(want))


# Each member reads its own table of suprema, and equal suprema go to the
# roughest member: trigonometric orders 2j and 2j + 1 both peak at 2j + 1,
# so m_max = 19 gives k0 = (19,) and the 5 x 5 family (5, 5).
@pytest.mark.parametrize(("basis", "m_max", "d", "w", "k0"), [
    (TRIG, 5, 2, None, 24),
    (TRIG, 21, 1, None, 20),
    (TRIG, 3, 3, None, 26),
    (TRIG, 4, 2, (1.0, 0.5, 0.5, 1.0), 15),
    (LEG, 6, 2, None, 35),
    (TRIG, 19, 1, None, 18),
])
def test_overfitting_k0_is_identical_to_the_member_by_member_scan(basis, m_max, d, w, k0):
    fam = make_projection_family(basis, m_max, d, m_max**d, w)
    assert fam.k0_index == k0
    values = [diag_sup(s) for s in fam.specs]
    tied = [i for i, v in enumerate(values) if v == max(values)]
    assert max(tied, key=lambda i: (math.prod(fam.specs[i].m), -i)) == k0


def test_find_overfitting_k0_scans_each_factor_once(monkeypatch):
    import pcoselect.kernels as kernels_mod

    calls = []
    real_factor = kernels_mod._sup_factor
    monkeypatch.setattr(kernels_mod, "_sup_factor", lambda squares, mq, w: calls.append(mq) or real_factor(squares, mq, w))
    fam = make_projection_family(TRIG, 5, 2, 25)
    # one matrix-vector product per distinct (basis, order, weights), not per member and dimension
    assert sorted(calls) == [1, 2, 3, 4, 5]
    assert fam.k0_index == 24


def test_find_overfitting_k0_first_max_wins():
    specs = [ProjectionSpec(HIST, (4,)), ProjectionSpec(HIST, (4,)), ProjectionSpec(HIST, (2,))]
    assert find_overfitting_k0(specs) == 0


@pytest.mark.parametrize("specs,offender", [
    ((BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(EPANECHNIKOV, (0.3,))), 2),
    ((BandwidthSpec(EPANECHNIKOV, (0.1,)), BandwidthSpec(GAUSSIAN, (0.2,))), 1),
    ((BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.1, 0.2))), 1),
    ((BandwidthSpec(GAUSSIAN, (0.1,)), ProjectionSpec(TRIG, (3,))), 1),
    ((ProjectionSpec(TRIG, (3,)), ProjectionSpec(TRIG, (4,)), ProjectionSpec(LEG, (3,)),
      ProjectionSpec(HIST, (2,))), 2),
])
def test_kernel_family_rejects_members_of_another_kind(specs, offender):
    # the message names the first member that differs from member 0, and both kernels
    with pytest.raises(ValueError, match=rf"family member {offender} \({re.escape(spec_id(specs[offender]))}\)"
                                         rf" differs from member 0 \({re.escape(spec_id(specs[0]))}\)"):
        KernelFamily(specs, 10, 0)
    assert len(KernelFamily(specs[:offender], 10, 0)) == offender


def test_overfitting_scan_is_bounded_before_its_table(monkeypatch):
    import pcoselect.kernels as kernels_mod

    # 10^4 scan points x m_max entries, allocated twice by the scan of a
    # weighted trigonometric member
    monkeypatch.setattr(kernels_mod, "basis_matrix", lambda *a: pytest.fail("the scan table was allocated"))
    wide = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=100_000)
    with pytest.raises(ConfigError, match="overfitting scan: scan_points 10000 x m_max 1678 .* limit of 16777216"):
        find_overfitting_k0([ProjectionSpec(wide, (1678,), (1.0,) * 1678)])
    with pytest.raises(ConfigError, match="m_max 2000"):
        make_projection_family(wide, 2000, 1, 3000, (1.0,) * 2000)
    # the two support endpoints x m_max entries of any other nested member
    huge = BasisFamily(BasisKind.LEGENDRE, m_cap=2**24)
    with pytest.raises(ConfigError, match="overfitting supremum: endpoints 2 x m_max 8388609 .* limit of 16777216"):
        find_overfitting_k0([ProjectionSpec(huge, (2**23 + 1,))])
