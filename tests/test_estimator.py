import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import quad_section_inner
from pcoselect import (
    GAUSSIAN,
    BandwidthSpec,
    BasisFamily,
    BasisKind,
    DataError,
    GramTables,
    LossKind,
    ProjectionSpec,
    Sample,
    criterion_distance,
    estimate,
    estimate_on_grid,
    estimator_inner,
    kernel_matrix,
    make_projection_family,
    pco_select,
    read_sample_csv,
    sbar_empirical,
    section_inner_matrix,
    section_sq_norm,
    stream,
    u_statistic,
    v_statistic,
    w_statistic,
    write_sample_csv,
)
from pcoselect.bases import basis_matrix
from pcoselect.estimator import coefficient_tensor
from pcoselect.experiments import statistic_grid
from pcoselect.quadrature import composite_grid

TRIG = BasisFamily(BasisKind.TRIGONOMETRIC)
HIST = BasisFamily(BasisKind.REGULAR_HISTOGRAM)
LEG = BasisFamily(BasisKind.LEGENDRE)
_W = (1.0, 0.9, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02, 0.01)

# trigonometric, histogram and Legendre at d = 1 and d = 2, weighted and not
PROJECTION_PAIRS = [
    (ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (4,))),
    (ProjectionSpec(HIST, (4,), _W), ProjectionSpec(HIST, (7,))),
    (ProjectionSpec(LEG, (6,)), ProjectionSpec(LEG, (3,), _W)),
    (ProjectionSpec(TRIG, (3, 5), _W), ProjectionSpec(TRIG, (4, 2))),
    (ProjectionSpec(HIST, (2, 3)), ProjectionSpec(HIST, (3, 2), _W)),
    (ProjectionSpec(LEG, (3, 2), _W), ProjectionSpec(LEG, (2, 4), _W)),
]


def _sample_for(spec, n, seed):
    """A uniform sample with identity loss on the spec's support (the unit box for bandwidths)."""
    s = _uniform_sample(n, d=spec.d, seed=seed, loss=LossKind.IDENTITY)
    if isinstance(spec, BandwidthSpec):
        return s
    lo, hi = spec.basis.support
    return Sample(lo + (hi - lo) * s.x, s.y, LossKind.IDENTITY)


def _uniform_sample(n, d=1, seed=0, loss=LossKind.ONE):
    rng = stream(seed)
    x = rng.random((n, d))
    y = rng.standard_normal(n)
    return Sample(x, y, loss)


# ---------------------------------------------------------------------------
# Sample and loss handling
# ---------------------------------------------------------------------------


def test_loss_kinds():
    y = np.array([-2.0, 0.5, 3.0])
    assert_allclose(LossKind.ONE.apply(y), np.ones(3))
    assert_allclose(LossKind.IDENTITY.apply(y), y)
    assert_allclose(LossKind.SQUARE.apply(y), y * y)


def test_sample_validation():
    with pytest.raises(DataError):
        Sample(np.zeros((3, 1)), np.zeros(2))
    with pytest.raises(DataError):
        Sample(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DataError):
        Sample(np.array([[0.1], [np.nan]]), np.zeros(2))
    with pytest.raises(DataError):
        Sample(np.zeros((2, 1)), np.array([1.0, np.inf]))


def test_sample_accepts_single_row():
    s = Sample(np.array([[0.5]]), np.array([2.0]), LossKind.SQUARE)
    assert s.n == 1 and s.d == 1
    assert_allclose(s.loss_values, [4.0])


def test_with_loss_shares_data():
    s = _uniform_sample(5, loss=LossKind.ONE)
    t = s.with_loss(LossKind.IDENTITY)
    assert t.loss is LossKind.IDENTITY
    assert_allclose(t.x, s.x)
    assert_allclose(t.loss_values, t.y)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    s = _uniform_sample(17, d=2, seed=3)
    path = tmp_path / "data.csv"
    write_sample_csv(path, s.x, s.y)
    back = read_sample_csv(path, LossKind.IDENTITY)
    assert_allclose(back.x, s.x, rtol=0)  # repr round trip is exact
    assert_allclose(back.y, s.y, rtol=0)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.2\n")
    with pytest.raises(DataError):
        read_sample_csv(path)


def test_csv_drops_malformed_rows(tmp_path, caplog):
    path = tmp_path / "mixed.csv"
    path.write_text("x1,y\n0.1,1.0\noops,2.0\n0.3,nan\n0.4,4.0\n")
    with caplog.at_level(logging.WARNING):
        s = read_sample_csv(path)
    assert s.n == 2
    assert "2" in " ".join(r.message for r in caplog.records)  # counted rejection


def test_csv_all_rows_bad(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("x1,y\nbad,worse\n")
    with pytest.raises(DataError):
        read_sample_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        read_sample_csv(path)


def test_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_sample_csv(tmp_path / "nowhere.csv")


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------


def test_estimate_single_observation_is_kernel_section():
    spec = BandwidthSpec(GAUSSIAN, (0.3,))
    s = Sample(np.array([[0.4]]), np.array([7.0]), LossKind.ONE)
    x = np.array([0.55])
    want = kernel_matrix(spec, s.x, x.reshape(1, 1))[0, 0]
    assert estimate(spec, s, x) == pytest.approx(want, rel=1e-14)


def test_estimate_histogram_hand_count():
    # two of four points share the anchor's cell of width 1/2
    spec = ProjectionSpec(HIST, (2,))
    s = Sample(np.array([[0.1], [0.2], [0.6], [0.8]]), np.zeros(4), LossKind.ONE)
    assert estimate(spec, s, np.array([0.25])) == pytest.approx(1.0)


def test_estimate_zero_responses():
    spec = BandwidthSpec(GAUSSIAN, (0.2,))
    s = Sample(np.array([[0.2], [0.5], [0.9]]), np.zeros(3), LossKind.IDENTITY)
    grid = np.linspace(0, 1, 7).reshape(-1, 1)
    assert_allclose(estimate_on_grid(spec, s, grid), np.zeros(7))


def test_estimate_on_grid_matches_pointwise():
    spec = ProjectionSpec(TRIG, (5,))
    s = _uniform_sample(40, seed=9, loss=LossKind.IDENTITY)
    grid = np.linspace(0, 1, 31).reshape(-1, 1)
    vals = estimate_on_grid(spec, s, grid)
    for k in (0, 11, 30):
        assert_allclose(vals[k], estimate(spec, s, grid[k]), rtol=1e-12)


def test_estimate_dimension_mismatch():
    spec = BandwidthSpec(GAUSSIAN, (0.2, 0.2))
    s = _uniform_sample(5, d=1)
    with pytest.raises(ValueError):
        estimate(spec, s, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# estimator inner products
# ---------------------------------------------------------------------------


def test_estimator_inner_single_observation():
    spec = BandwidthSpec(GAUSSIAN, (0.4,))
    s = Sample(np.array([[0.6]]), np.array([1.0]), LossKind.ONE)
    want = section_sq_norm(spec, np.array([0.6]))
    assert estimator_inner(spec, spec, s) == pytest.approx(want, rel=1e-13)


def test_estimator_inner_coefficient_space_oracle():
    # nested basis: <shat_a, shat_b> is the dot product of shared empirical
    # coefficients a_j = (1/n) sum_i phi_j(X_i) ell(Y_i)
    s = _uniform_sample(60, seed=12, loss=LossKind.IDENTITY)
    a, b = ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (5,))
    got = estimator_inner(a, b, s)
    coeff = basis_matrix(TRIG, 9, s.x[:, 0]).T @ s.loss_values / s.n
    want = float(np.sum(coeff[:5] * coeff[:5]))
    assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize(
    "a,b",
    [
        (BandwidthSpec(GAUSSIAN, (0.15,)), BandwidthSpec(GAUSSIAN, (0.45,))),
        (ProjectionSpec(HIST, (4,)), ProjectionSpec(HIST, (7,))),
        (ProjectionSpec(TRIG, (5,), (1.0, 0.8, 0.8, 0.5, 0.5)), ProjectionSpec(TRIG, (8,))),
    ],
)
def test_estimator_inner_grid_oracle(a, b):
    s = _uniform_sample(50, seed=21, loss=LossKind.IDENTITY)
    got = estimator_inner(a, b, s)
    cuts = sorted({i / 4 for i in range(5)} | {i / 7 for i in range(8)})
    grid = composite_grid([-4.0], [5.0], [cuts])
    va = estimate_on_grid(a, s, grid.points)
    vb = estimate_on_grid(b, s, grid.points)
    want = grid.integrate(va * vb)
    assert_allclose(got, want, atol=1e-6)


def test_estimator_inner_cauchy_schwarz():
    s = _uniform_sample(30, seed=4, loss=LossKind.IDENTITY)
    specs = [BandwidthSpec(GAUSSIAN, (h,)) for h in (0.1, 0.3)] + [
        BandwidthSpec(GAUSSIAN, (0.8,))
    ]
    for a in specs:
        for b in specs:
            lhs = estimator_inner(a, b, s) ** 2
            rhs = estimator_inner(a, a, s) * estimator_inner(b, b, s)
            assert lhs <= rhs + 1e-12


def test_estimator_inner_scales_quadratically_in_y():
    s = _uniform_sample(25, seed=6, loss=LossKind.IDENTITY)
    scaled = Sample(s.x, 3.0 * s.y, LossKind.IDENTITY)
    a, b = BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(GAUSSIAN, (0.5,))
    assert_allclose(
        estimator_inner(a, b, scaled), 9.0 * estimator_inner(a, b, s), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# criterion distance
# ---------------------------------------------------------------------------


def test_criterion_distance_self_is_zero():
    s = _uniform_sample(20, seed=2)
    spec = BandwidthSpec(GAUSSIAN, (0.25,))
    assert criterion_distance(spec, spec, s) == 0.0


def test_criterion_distance_symmetric():
    s = _uniform_sample(35, seed=8, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.12,))
    b = BandwidthSpec(GAUSSIAN, (0.4,))
    assert_allclose(criterion_distance(a, b, s), criterion_distance(b, a, s), rtol=1e-12)


def test_criterion_distance_grid_oracle():
    s = _uniform_sample(50, seed=31, loss=LossKind.IDENTITY)
    a = ProjectionSpec(HIST, (3,))
    k0 = ProjectionSpec(HIST, (8,))
    got = criterion_distance(a, k0, s)
    cuts = sorted({i / 3 for i in range(1, 3)} | {i / 8 for i in range(1, 8)})
    grid = composite_grid([0.0], [1.0], [cuts])
    diff = estimate_on_grid(a, s, grid.points) - estimate_on_grid(k0, s, grid.points)
    assert_allclose(got, grid.integrate(diff * diff), atol=1e-6)


# ---------------------------------------------------------------------------
# sbar
# ---------------------------------------------------------------------------


def test_sbar_empirical_gaussian_identity():
    # with ell = One the value is ||k||_2^2 / h regardless of the data
    spec = BandwidthSpec(GAUSSIAN, (0.5,))
    for seed in (1, 2):
        s = _uniform_sample(30, seed=seed)
        assert sbar_empirical(spec, s) == pytest.approx(0.5641895835477563, rel=1e-12)


def test_sbar_empirical_projection_bound():
    rng = stream(77)
    for _ in range(25):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(2, 40))
        s = Sample(rng.random((n, 1)), rng.standard_normal(n), LossKind.IDENTITY)
        spec = ProjectionSpec(HIST, (m,))
        bound = 1.0 * np.mean(s.loss_values**2) * m
        assert sbar_empirical(spec, s) <= bound + 1e-10


def test_sbar_empirical_single_point():
    spec = ProjectionSpec(TRIG, (4,))
    s = Sample(np.array([[0.3]]), np.array([2.0]), LossKind.IDENTITY)
    want = section_sq_norm(spec, np.array([0.3])) * 4.0
    assert sbar_empirical(spec, s) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# centered statistics
# ---------------------------------------------------------------------------


def _brute_u(a, b, sample, s_a, s_b, grid):
    n = sample.n
    ell = sample.loss_values
    pts = grid.points
    sa = s_a(pts)
    sb = s_b(pts)
    ka = kernel_matrix(a, sample.x, pts)
    kb = kernel_matrix(b, sample.x, pts)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gi = ka[i] * ell[i] - sa
            hj = kb[j] * ell[j] - sb
            total += grid.integrate(gi * hj)
    return total


def test_u_statistic_matches_brute_force():
    s = _uniform_sample(6, seed=14, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.3,))
    b = BandwidthSpec(GAUSSIAN, (0.18,))
    grid = composite_grid([-3.0], [4.0], [[0.0, 0.5, 1.0]])

    def s_a(pts):
        return np.sin(2 * np.pi * pts[:, 0])

    def s_b(pts):
        return pts[:, 0] * np.exp(-pts[:, 0] ** 2)

    got = u_statistic(a, b, s, s_a, s_b, grid=grid)
    want = _brute_u(a, b, s, s_a, s_b, grid)
    assert_allclose(got, want, rtol=1e-8)


def test_u_statistic_uncentered_reduction():
    # with no section means supplied the statistic is the off-diagonal Gram sum
    s = _uniform_sample(5, seed=15, loss=LossKind.IDENTITY)
    a = ProjectionSpec(TRIG, (3,))
    b = ProjectionSpec(TRIG, (6,))
    got = u_statistic(a, b, s)
    from pcoselect import section_inner_matrix

    gram = section_inner_matrix(a, s.x, b, s.x)
    weighted = s.loss_values[:, None] * gram * s.loss_values[None, :]
    want = float(np.sum(weighted) - np.sum(np.diagonal(weighted)))
    assert_allclose(got, want, rtol=1e-10)


def test_u_statistic_two_points():
    # n = 2 leaves exactly the two ordered pairs
    s = Sample(np.array([[0.3], [0.7]]), np.array([1.5, -0.5]), LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.25,))
    b = BandwidthSpec(GAUSSIAN, (0.4,))
    grid = composite_grid([-3.0], [4.0], [[0.5]])

    def s_a(pts):
        return 0.2 * np.ones(pts.shape[0])

    def s_b(pts):
        return 0.1 * pts[:, 0]

    got = u_statistic(a, b, s, s_a, s_b, grid=grid)
    want = _brute_u(a, b, s, s_a, s_b, grid)
    assert_allclose(got, want, rtol=1e-10)


def test_u_statistic_needs_two_points():
    s = Sample(np.array([[0.5]]), np.array([1.0]))
    spec = BandwidthSpec(GAUSSIAN, (0.3,))
    with pytest.raises(ValueError):
        u_statistic(spec, spec, s)


def test_v_statistic_brute_force():
    s = _uniform_sample(4, seed=16, loss=LossKind.IDENTITY)
    spec = BandwidthSpec(GAUSSIAN, (0.35,))
    grid = composite_grid([-3.0], [4.0], [[0.5]])

    def s_mean(pts):
        return np.cos(np.pi * pts[:, 0])

    got = v_statistic(spec, s, s_mean, grid=grid)
    ell = s.loss_values
    k = kernel_matrix(spec, s.x, grid.points)
    sm = s_mean(grid.points)
    want = np.mean(
        [grid.integrate((k[i] * ell[i] - sm) ** 2) for i in range(s.n)]
    )
    assert_allclose(got, want, rtol=1e-8)


def test_v_statistic_zero_mean_reduces_to_sbar():
    s = _uniform_sample(10, seed=17, loss=LossKind.SQUARE)
    spec = ProjectionSpec(HIST, (5,))
    got = v_statistic(spec, s)
    assert_allclose(got, sbar_empirical(spec, s), rtol=1e-12)


def test_w_statistic_zero_when_second_factor_vanishes():
    s = _uniform_sample(8, seed=18, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.3,))
    b = BandwidthSpec(GAUSSIAN, (0.5,))
    grid = statistic_grid(a, b, _scn_for_grid(), refine=2)

    def f(pts):
        return np.sin(pts[:, 0])

    got = w_statistic(a, b, s, f, f, f, grid)
    assert got == pytest.approx(0.0, abs=1e-14)


def _scn_for_grid():
    from pcoselect import scenario_from_config

    return scenario_from_config({"d": 1, "f": "uniform", "n": 8, "seed": 0})


def test_w_statistic_single_point_reduction():
    s = Sample(np.array([[0.4]]), np.array([2.0]), LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.3,))
    b = BandwidthSpec(GAUSSIAN, (0.6,))
    grid = composite_grid([-4.0], [5.0], [[0.4]])

    def s_a(pts):
        return 0.3 * np.ones(pts.shape[0])

    def s_b(pts):
        return pts[:, 0] ** 2 * np.exp(-np.abs(pts[:, 0]))

    def s_true(pts):
        return np.sin(pts[:, 0])

    got = w_statistic(a, b, s, s_a, s_b, s_true, grid)
    sect = kernel_matrix(a, s.x, grid.points)[0] * 2.0
    want = grid.integrate((sect - s_a(grid.points)) * (s_b(grid.points) - s_true(grid.points)))
    assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# Gram tables
# ---------------------------------------------------------------------------


def test_gram_tables_transpose_view():
    s = _uniform_sample(12, seed=19)
    tables = GramTables(s)
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = BandwidthSpec(GAUSSIAN, (0.6,))
    mab = tables.matrix(a, b)
    mba = tables.matrix(b, a)
    assert_allclose(mab, mba.T, rtol=0)


@pytest.mark.parametrize(
    "a,b", [(BandwidthSpec(GAUSSIAN, (0.15,)), BandwidthSpec(GAUSSIAN, (0.3,)))] + PROJECTION_PAIRS
)
def test_gram_tables_weighted_total_matches_dense(a, b):
    # projection pairs take the coefficient form; the dense table is the reference
    s = _sample_for(a, 40, seed=20)
    ell = s.loss_values
    tables = GramTables(s)
    dense = section_inner_matrix(a, s.x, b, s.x)
    assert_allclose(tables.matrix(a, b), dense, rtol=0)
    want = float(ell @ dense @ ell)
    assert_allclose(tables.weighted_total(a, b), want, rtol=1e-12)
    assert tables.weighted_total(b, a) == tables.weighted_total(a, b)
    assert_allclose(tables.diag(a, b), np.diagonal(dense), rtol=1e-12)
    pts = _sample_for(a, 40, seed=32).x
    assert_allclose(estimate_on_grid(a, s, pts), ell @ kernel_matrix(a, s.x, pts) / s.n, rtol=1e-12)


def test_gram_tables_streaming_matches_dense():
    # force the streaming path with a tiny matrix cap
    s = _uniform_sample(64, seed=22, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = BandwidthSpec(GAUSSIAN, (0.45,))
    dense = GramTables(s)
    streaming = GramTables(s, matrix_max_n=32)
    assert_allclose(streaming.weighted_total(a, b), dense.weighted_total(a, b), rtol=1e-12)
    with pytest.raises(ValueError):
        streaming.matrix(a, b)


def test_gram_tables_diag():
    s = _uniform_sample(9, seed=23)
    tables = GramTables(s)
    a = ProjectionSpec(HIST, (4,))
    b = ProjectionSpec(HIST, (6,))
    diag = tables.diag(a, b)
    mat = tables.matrix(a, b)
    assert_allclose(diag, np.diagonal(mat), rtol=1e-12)


# ---------------------------------------------------------------------------
# projection pairs in coefficient space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b", PROJECTION_PAIRS)
def test_projection_coefficient_form_matches_quadrature(a, b):
    s = _sample_for(a, 7, seed=33)
    ell = s.loss_values
    quad = np.array([[quad_section_inner(a, xi, b, xj) for xj in s.x] for xi in s.x])
    tables = GramTables(s)
    assert_allclose(tables.weighted_total(a, b), float(ell @ quad @ ell), rtol=1e-12)
    assert_allclose(tables.diag(a, b), np.diagonal(quad), rtol=1e-12)


def test_nested_coefficients_are_slices_of_the_widest_evaluation():
    s = _sample_for(ProjectionSpec(TRIG, (1, 1)), 50, seed=34)
    tables = GramTables(s)
    tables.reserve([ProjectionSpec(TRIG, (6, 2)), ProjectionSpec(TRIG, (2, 5))])
    for m in [(1, 1), (6, 5), (3, 4), (6, 1)]:
        spec = ProjectionSpec(TRIG, m)
        direct = coefficient_tensor(spec, s.x, s.loss_values)
        assert np.array_equal(tables.coefficients(spec), direct)


def test_pco_select_on_projections_builds_no_gram_table(monkeypatch):
    import pcoselect.estimator as estimator_mod
    import pcoselect.kernels as kernels_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("projection selection must not build pairwise section tables")

    reference = {}
    cases = [(TRIG, 1, 12), (HIST, 1, 12), (LEG, 1, 12), (TRIG, 2, 4), (HIST, 2, 4)]
    for basis, d, m_max in cases:
        s = _sample_for(ProjectionSpec(basis, (1,) * d), 80, seed=35)
        fam = make_projection_family(basis, m_max, d, s.n)
        # tables passed in are not reserved, so they grow order by order
        reference[basis.kind, d] = (fam, s, pco_select(fam, s, GramTables(s)))
    for module in (estimator_mod, kernels_mod):
        monkeypatch.setattr(module, "section_inner_matrix", forbidden)
        monkeypatch.setattr(module, "section_inner_pointwise", forbidden)
    calls = []
    real_basis_matrix = estimator_mod.basis_matrix
    monkeypatch.setattr(estimator_mod, "basis_matrix", lambda *a: calls.append(a[1]) or real_basis_matrix(*a))
    for (kind, d), (fam, s, want) in reference.items():
        calls.clear()
        got = pco_select(fam, s)
        assert got.to_json() == want.to_json()
        # nested bases: one evaluation per dimension, at the family's top order
        assert calls == ([] if kind is BasisKind.REGULAR_HISTOGRAM else [fam.k0.m[0]] * d)
