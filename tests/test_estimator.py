import logging
import math
import os
import subprocess
import sys

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
    make_bandwidth_family,
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
from pcoselect import numerics
from pcoselect.bases import basis_matrix
from pcoselect.estimator import (
    _SWEEP_ROWS,
    _gaussian_scales,
    _grid_width,
    _kernel_sums,
    _sweep_tables,
    bandwidth_totals,
    coefficient_tensor,
)
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


def test_csv_drops_each_kind_of_bad_row_once(tmp_path, caplog):
    path = tmp_path / "bad_rows.csv"
    path.write_text(
        "x1,x2,y\n0.1,0.2,1.0\nnan,0.2,1.0\n0.3,inf,2.0\n0.4,0.5,-inf\n"
        "0.5,abc,3.0\n0.6,0.7\n\n0.8,0.9,4.0\n"
    )
    with caplog.at_level(logging.WARNING):
        s = read_sample_csv(path)
    assert_allclose(s.x, [[0.1, 0.2], [0.8, 0.9]], rtol=0)
    assert_allclose(s.y, [1.0, 4.0], rtol=0)
    assert [r.getMessage() for r in caplog.records] == [f"{path}: dropped 5 malformed or non-finite rows"]


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


@pytest.mark.parametrize(
    "base,d,n",
    [(GAUSSIAN, 1, 700), (GAUSSIAN, 2, 300), (EPANECHNIKOV, 1, 700), (EPANECHNIKOV, 2, 300), (GAUSSIAN, 1, 1)],
)
def test_family_grid_evaluation_matches_kernel_matrix(base, d, n):
    # a point count past two whole column blocks, so the last block is partial
    s = _uniform_sample(n, d=d, seed=40, loss=LossKind.IDENTITY)
    rng = stream(41)
    width = _grid_width(n, d)
    assert width < 1000 or n == 1
    pts = rng.uniform(-0.1, 1.1, size=(2 * width + 7 if n > 1 else 50, d))
    specs = [BandwidthSpec(base, tuple(rng.uniform(0.02, 0.4, d))) for _ in range(4)]
    rows = estimate_on_grid(specs, s, pts)
    assert rows.shape == (4, len(pts))
    for spec, row in zip(specs, rows):
        want = s.loss_values @ kernel_matrix(spec, s.x, pts) / n
        # values cross zero under the identity loss: relative to the curve's scale
        assert_allclose(row, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        assert np.array_equal(estimate_on_grid(spec, s, pts), row)


# one member per kernel kind, with the weighted side on the member's support
_KERNEL_SUM_MEMBERS = {
    "gaussian-d1": BandwidthSpec(GAUSSIAN, (0.07,)),
    # exponents down to -0.5 / 0.004^2, far below the -700 floor
    "gaussian-d1-floor": BandwidthSpec(GAUSSIAN, (0.004,)),
    "gaussian-d2": BandwidthSpec(GAUSSIAN, (0.05, 0.2)),
    "epanechnikov-d1": BandwidthSpec(EPANECHNIKOV, (0.1,)),
    "epanechnikov-d2": BandwidthSpec(EPANECHNIKOV, (0.15, 0.3)),
    "trigonometric-d2": ProjectionSpec(TRIG, (3, 6), _W),
    "histogram-d1": ProjectionSpec(HIST, (7,), _W),
    "legendre-d1": ProjectionSpec(LEG, (9,)),
}


def _weighted_points(spec, n, seed):
    """n points on the spec's support (the unit box for bandwidths) and signed weights."""
    rng = stream(seed)
    lo, hi = (0.0, 1.0) if isinstance(spec, BandwidthSpec) else spec.basis.support
    return lo + (hi - lo) * rng.random((n, spec.d)), rng.standard_normal(n)


@pytest.mark.parametrize("case", sorted(_KERNEL_SUM_MEMBERS))
def test_kernel_sums_match_the_pointwise_kernel(case):
    spec = _KERNEL_SUM_MEMBERS[case]
    x, w = _weighted_points(spec, 600, seed=60)
    points, _ = _weighted_points(spec, 450, seed=61)
    got = _kernel_sums([spec], x, w, points)[0]
    k = kernel_matrix(spec, x, points)
    if case.endswith("floor"):
        assert np.any(k == 0.0)
    # per entry, against the sum of the magnitudes: some exact values are 0
    assert np.all(np.abs(got - w @ k) <= 1e-12 * (np.abs(w) @ np.abs(k)))


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_sums_of_a_family_are_the_rows_of_its_members(d):
    specs = [s for s in _KERNEL_SUM_MEMBERS.values() if s.d == d and not isinstance(s, ProjectionSpec)]
    specs += [ProjectionSpec(TRIG, (5,) * d), ProjectionSpec(TRIG, (2,) * d, _W), ProjectionSpec(HIST, (3,) * d)]
    x, w = _weighted_points(specs[-1], 300, seed=62)
    points, _ = _weighted_points(specs[-1], 700, seed=63)
    rows = _kernel_sums(specs, x, w, points)
    for spec, row in zip(specs, rows):
        assert np.array_equal(_kernel_sums([spec], x, w, points)[0], row)


def _per_member_expansion(spec, s, points):
    """The per-member projection path: a fresh coefficient tensor and basis at the member's own order."""
    coeffs = coefficient_tensor(spec, s.x, s.loss_values)
    out = np.empty(len(points))
    for start in range(0, len(points), 1024):
        block = points[start : start + 1024]
        mats = [basis_matrix(spec.basis, mq, block[:, q]) * spec.weights_for(mq) for q, mq in enumerate(spec.m)]
        z = mats[0] @ coeffs.reshape(spec.m[0], -1)
        for q in range(1, spec.d):
            z = np.einsum("pjr,pj->pr", z.reshape(len(block), spec.m[q], -1), mats[q])
        out[start : start + 1024] = z[:, 0] / s.n
    return out


@pytest.mark.parametrize(
    "basis,d,m_max,w", [(TRIG, 1, 12, None), (LEG, 1, 9, _W), (HIST, 1, 9, None), (TRIG, 2, 4, _W), (LEG, 2, 3, None), (HIST, 2, 3, _W)]
)
def test_projection_family_grid_is_bit_identical_to_per_member_path(monkeypatch, basis, d, m_max, w):
    import pcoselect.estimator as estimator_mod

    s = _sample_for(ProjectionSpec(basis, (1,) * d), 90, seed=42)
    fam = make_projection_family(basis, m_max, d, s.n, w)
    lo, hi = basis.support
    pts = stream(43).uniform(lo - 0.05, hi + 0.05, size=(2500, d))
    tables = GramTables(s)
    pco_select(fam, s, tables)
    rows = estimate_on_grid(fam.specs, tables, pts)
    for spec, row in zip(fam.specs, rows):
        assert np.array_equal(row, _per_member_expansion(spec, s, pts))
    assert np.array_equal(estimate_on_grid(fam.specs, s, pts), rows)
    # one basis evaluation per 1024 points instead of one for all
    monkeypatch.setattr(estimator_mod, "_BASIS_VALUES", 1)
    assert np.array_equal(estimate_on_grid(fam.specs, tables, pts), rows)


def test_grid_evaluation_memory_is_bounded(monkeypatch):
    import tracemalloc

    # a kernel table per 1024 points took 40 MB at n = 5000; the scratch is fixed.
    # tracemalloc sees this process only: keep every block in it
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    s = _uniform_sample(5000, seed=44)
    specs = [BandwidthSpec(GAUSSIAN, (0.01,)), BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(EPANECHNIKOV, (0.1,))]
    pts = np.linspace(0.0, 1.0, 2048).reshape(-1, 1)
    tracemalloc.start()
    try:
        estimate_on_grid(specs, s, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


@pytest.mark.parametrize(
    "a,b",
    [
        (BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.3,))),
        (BandwidthSpec(GAUSSIAN, (0.2, 0.1)), BandwidthSpec(GAUSSIAN, (0.15, 0.3))),
        (BandwidthSpec(EPANECHNIKOV, (0.1,)), BandwidthSpec(EPANECHNIKOV, (0.25,))),
        (BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(EPANECHNIKOV, (0.3,))),
    ],
)
def test_u_statistic_bandwidth_sweep_matches_dense(a, b):
    # the sweep reduces i != j with no table; the dense table is the reference
    s = _uniform_sample(2 * _SWEEP_ROWS + 11, d=a.d, seed=45, loss=LossKind.SQUARE)
    ell = s.loss_values
    weighted = (ell[:, None] * section_inner_matrix(a, s.x, b, s.x)) * ell[None, :]
    want = float(np.sum(weighted) - np.sum(np.diagonal(weighted)))
    assert_allclose(u_statistic(a, b, s), want, rtol=1e-12)


@pytest.mark.parametrize("a,b", PROJECTION_PAIRS)
def test_u_statistic_projection_coefficient_form_matches_dense(monkeypatch, a, b):
    # the coefficient-space total less its diagonal term, with no table
    s = _sample_for(a, 150, seed=47)
    ell = s.loss_values
    weighted = (ell[:, None] * section_inner_matrix(a, s.x, b, s.x)) * ell[None, :]
    want = float(np.sum(weighted) - np.sum(np.diagonal(weighted)))

    def no_table(*args, **kwargs):
        raise AssertionError("u_statistic built an n x n table")

    monkeypatch.setattr("pcoselect.kernels.section_inner_matrix", no_table)
    monkeypatch.setattr("pcoselect.estimator.section_inner_matrix", no_table)
    assert_allclose(u_statistic(a, b, s), want, rtol=1e-12)


def test_u_statistic_memory_is_bounded():
    import tracemalloc

    # the dense table and its weighted copy took 206 MB at n = 3000
    s = _uniform_sample(3000, seed=46, loss=LossKind.IDENTITY)
    tracemalloc.start()
    try:
        u_statistic(BandwidthSpec(GAUSSIAN, (0.05,)), BandwidthSpec(GAUSSIAN, (0.2,)), s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    # the sweep streams the strict upper triangle over several row blocks
    s = _uniform_sample(3 * _SWEEP_ROWS + 5, seed=22, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = BandwidthSpec(GAUSSIAN, (0.45,))
    tables = GramTables(s)
    ell = s.loss_values
    assert_allclose(tables.weighted_total(a, b), float(ell @ tables.matrix(a, b) @ ell), rtol=1e-12)


# Gaussian at d = 1 and d = 2, Epanechnikov, and a mixed Gaussian x Epanechnikov pair
BANDWIDTH_PAIRS = [
    (BandwidthSpec(GAUSSIAN, (0.07,)), BandwidthSpec(GAUSSIAN, (0.3,))),
    (BandwidthSpec(GAUSSIAN, (0.1, 0.4)), BandwidthSpec(GAUSSIAN, (0.25, 0.05))),
    (BandwidthSpec(EPANECHNIKOV, (0.05,)), BandwidthSpec(EPANECHNIKOV, (0.2,))),
    (BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(EPANECHNIKOV, (0.15,))),
]


@pytest.mark.parametrize("n", [1, _SWEEP_ROWS + 13, 3 * _SWEEP_ROWS])
@pytest.mark.parametrize("a,b", BANDWIDTH_PAIRS)
def test_bandwidth_sweep_matches_dense(a, b, n):
    # signed weights (identity loss); one row, a partial block, whole blocks
    s = _uniform_sample(n, d=a.d, seed=36, loss=LossKind.IDENTITY)
    ell = s.loss_values
    dense = section_inner_matrix(a, s.x, b, s.x)
    totals = bandwidth_totals([(a, b), (a, a), (b, b)], s.x, ell)
    want = [float(ell @ m @ ell) for m in (dense, section_inner_matrix(a, s.x, a, s.x),
                                            section_inner_matrix(b, s.x, b, s.x))]
    assert_allclose(totals, want, rtol=1e-12)
    tables = GramTables(s)
    assert_allclose(tables.weighted_total(a, b), want[0], rtol=1e-12)
    assert tables.weighted_total(b, a) == tables.weighted_total(a, b)
    assert_allclose(tables.diag(a, b), np.diagonal(dense), rtol=1e-12)


def test_gaussian_exponent_floor_keeps_to_the_exact_references():
    # at h = 1/n most Gaussian exponents fall below the floor of -700
    n = 400
    s = _uniform_sample(n, seed=12, loss=LossKind.IDENTITY)
    ell = s.loss_values
    a, b = BandwidthSpec(GAUSSIAN, (1.0 / n,)), BandwidthSpec(GAUSSIAN, (2.5 / n,))
    want = [float(ell @ section_inner_matrix(p, s.x, q, s.x) @ ell) for p, q in ((a, b), (a, a), (b, b))]
    assert_allclose(bandwidth_totals([(a, b), (a, a), (b, b)], s.x, ell), want, rtol=1e-12)
    pts = np.linspace(-0.05, 1.05, 1001).reshape(-1, 1)
    for spec, row in zip((a, b), estimate_on_grid([a, b], s, pts)):
        ref = ell @ kernel_matrix(spec, s.x, pts) / n
        assert_allclose(row, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    # far from every observation each entry reads e^-700 where the exact kernel is 0
    ones = s.with_loss(LossKind.ONE)
    assert kernel_matrix(a, s.x, np.array([[3.0]])).max() == 0.0
    assert_allclose(estimate(a, ones, [3.0]), math.exp(-700.0) * a.base.at_zero / a.h[0], rtol=1e-12)
    # the floor is decided on the span of sample and points together
    tight = Sample(np.linspace(0.0, 0.01, 5)[:, None], np.ones(5))
    wide = BandwidthSpec(GAUSSIAN, (0.05,))
    assert_allclose(estimate(wide, tight, [3.0]), math.exp(-700.0) * wide.base.at_zero / 0.05, rtol=1e-12)


def _family_pairs(fam):
    """The (K, K) and (K, K0) pairs of a family, as a reserved sweep takes them."""
    return list(dict.fromkeys(p for spec in fam.specs for p in ((spec, spec), (spec, fam.k0))))


def _dense_totals(pairs, s):
    ell = s.loss_values
    return [float(ell @ section_inner_matrix(a, s.x, b, s.x) @ ell) for a, b in pairs]


# tensor families capped at 1000 members' worth of sample, so any sample size may use them
TENSOR_FAMILIES = [
    make_bandwidth_family(GAUSSIAN, 0.1, [0.1, 0.2, 0.4], 2, 1000),
    make_bandwidth_family(GAUSSIAN, 0.15, [0.15, 0.3, 0.6], 3, 1000),
]


@pytest.mark.parametrize("n", [1, 2, 32, 33, 65])
@pytest.mark.parametrize("fam", TENSOR_FAMILIES, ids=["d2", "d3"])
def test_sweep_shares_per_dimension_tables_and_matches_dense(fam, n):
    d = fam.k0.d
    s = _uniform_sample(n, d=d, seed=60 + n, loss=LossKind.IDENTITY)
    pairs = _family_pairs(fam)
    scales = [_gaussian_scales(a, b) for a, b in pairs]
    keys, uses, _ = _sweep_tables(scales, [False] * len(pairs), n, d)
    # every pair is factored, and the pairs share their tables
    assert all(use is not None for use in uses) and len(keys) < d * len(pairs)
    assert_allclose(bandwidth_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [33, 200])
def test_sweep_mixes_floored_factored_and_epanechnikov_pairs(n):
    # at d = 2, (a, a) can reach the exponent floor and is summed; (a, b) and (b, b) are factored
    s = _uniform_sample(n, d=2, seed=61, loss=LossKind.IDENTITY)
    a, b = BandwidthSpec(GAUSSIAN, (0.015, 0.3)), BandwidthSpec(GAUSSIAN, (0.3, 0.3))
    e = BandwidthSpec(EPANECHNIKOV, (0.2, 0.35))
    pairs = [(a, a), (a, b), (b, b), (e, e), (e, b)]
    scales = [_gaussian_scales(p, q) for p, q in pairs]
    span_sq = np.ptp(s.x, axis=0) ** 2
    floors = [sc is not None and sum(r * c for r, c in zip(span_sq, sc)) < -699.0 for sc in scales]
    assert floors == [True, False, False, False, False]
    _, uses, _ = _sweep_tables(scales, floors, n, 2)
    assert [use is not None for use in uses] == [False, True, True, False, False]
    assert_allclose(bandwidth_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)
    # at d = 1 the floored pair and the plain one share a sweep as well
    s1 = _uniform_sample(n, seed=62, loss=LossKind.IDENTITY)
    c, g = BandwidthSpec(GAUSSIAN, (1.0 / 400,)), BandwidthSpec(GAUSSIAN, (0.3,))
    pairs1 = [(c, c), (c, g), (g, g)]
    assert_allclose(bandwidth_totals(pairs1, s1.x, s1.loss_values), _dense_totals(pairs1, s1), rtol=1e-12, atol=0)


def test_tensor_family_evaluates_one_exp_per_table_and_block(monkeypatch):
    import pcoselect.estimator as estimator_mod

    n = 200
    s = _uniform_sample(n, d=2, seed=63, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, 1000))
    assert len(pairs) == 49
    want = bandwidth_totals(pairs, s.x, s.loss_values)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            exps.append(args[0].shape)
            return np.exp(*args, **kwargs)

    exps = []
    monkeypatch.setattr(estimator_mod, "np", CountingNumpy())
    got = bandwidth_totals(pairs, s.x, s.loss_values)
    monkeypatch.undo()
    assert got == want
    # 5 + 4 distinct variances per dimension: 18 tables per block, not 49 pair exponentials
    blocks = math.ceil((n - 1) / _SWEEP_ROWS)
    assert len(exps) == 18 * blocks
    assert_allclose(got, _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_pair_total_does_not_depend_on_the_rest_of_its_sweep():
    # the 18 tables of this family take several passes per block of rows
    n = 1000
    s = _uniform_sample(n, d=2, seed=64, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, n))
    scales = [_gaussian_scales(a, b) for a, b in pairs]
    assert _sweep_tables(scales, [False] * len(pairs), n, 2)[2] < _SWEEP_ROWS
    together = bandwidth_totals(pairs, s.x, s.loss_values)
    assert [bandwidth_totals([p], s.x, s.loss_values)[0] for p in pairs[::6]] == together[::6]


def _serial_and_forked(monkeypatch, compute):
    """``compute()`` on the serial path, then with every block map on a
    pool of three workers; asserts that the second run used that pool."""
    import pcoselect.estimator as estimator_mod

    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    serial = compute()
    assert numerics._pool is None
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)
    monkeypatch.setattr(estimator_mod, "_FORK_WORK", 0)
    forked = compute()
    monkeypatch.undo()
    assert len(numerics._pool.workers) == 3
    return serial, forked


def _sweep_cases():
    n = 4 * _SWEEP_ROWS + 7
    g = [BandwidthSpec(GAUSSIAN, (h,)) for h in (1.0 / n, 0.05, 0.3)]
    e = [BandwidthSpec(EPANECHNIKOV, (h,)) for h in (0.03, 0.2)]
    return {
        # (g0, g0) and (g0, g1) reach the exponent floor
        "gaussian-d1-floored": ([(a, b) for a in g for b in g], _uniform_sample(n, seed=70, loss=LossKind.IDENTITY)),
        "gaussian-d2-factored": (_family_pairs(TENSOR_FAMILIES[0]), _uniform_sample(n, d=2, seed=71, loss=LossKind.IDENTITY)),
        "gaussian-d3": (_family_pairs(TENSOR_FAMILIES[1]), _uniform_sample(n, d=3, seed=72, loss=LossKind.IDENTITY)),
        "epanechnikov-and-mixed": ([(e[0], e[0]), (e[0], e[1]), (e[1], g[1])], _uniform_sample(n, seed=73, loss=LossKind.IDENTITY)),
    }


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("case", sorted(_sweep_cases()))
def test_forked_sweep_is_bit_identical_to_serial(monkeypatch, case, diagonal):
    pairs, s = _sweep_cases()[case]
    serial, forked = _serial_and_forked(
        monkeypatch, lambda: np.array(bandwidth_totals(pairs, s.x, s.loss_values, diagonal=diagonal)))
    assert np.array_equal(serial, forked)


@pytest.mark.parametrize("d", [1, 2])
def test_forked_grid_evaluation_is_bit_identical_to_serial(monkeypatch, d):
    s = _uniform_sample(300, d=d, seed=74, loss=LossKind.IDENTITY)
    specs = [BandwidthSpec(GAUSSIAN, (1.0 / 300,) * d), BandwidthSpec(GAUSSIAN, (0.1,) * d),
             BandwidthSpec(EPANECHNIKOV, (0.2,) * d)]
    pts = np.random.default_rng(75).uniform(-0.1, 1.1, (2000, d))
    assert pts.shape[0] > 4 * _grid_width(s.n, d)
    serial, forked = _serial_and_forked(monkeypatch, lambda: estimate_on_grid(specs, s, pts))
    assert np.array_equal(serial, forked)


_BLAS_THREADS_SCRIPT = """
import hashlib
from pcoselect import EPANECHNIKOV, GAUSSIAN, LossKind, Sample, make_bandwidth_family, pco_select, stream
from pcoselect.estimator import bandwidth_totals

def sample(n, d, seed):
    rng = stream(seed)
    return Sample(rng.random((n, d)), rng.standard_normal(n), LossKind.IDENTITY)

cases = [
    # d = 1 from h = 1/n: floored pairs, and rows longer than OpenBLAS's threading threshold
    (make_bandwidth_family(GAUSSIAN, 1 / 12000, [1 / 12000, 0.02, 0.05], 1, 12000), sample(12000, 1, 1)),
    (make_bandwidth_family(GAUSSIAN, 0.05, [0.05, 0.1, 0.3], 2, 1000), sample(1000, 2, 2)),
    (make_bandwidth_family(EPANECHNIKOV, 0.02, [0.02, 0.05, 0.2], 1, 800), sample(800, 1, 3)),
]
for fam, s in cases:
    print(hashlib.sha256(pco_select(fam, s).to_json().encode()).hexdigest())
    # the criterion rounds away most of the totals' last bits, so they are compared too
    pairs = dict.fromkeys(p for spec in fam.specs for p in ((spec, spec), (spec, fam.k0)))
    print(*(t.hex() for t in bandwidth_totals(list(pairs), s.x, s.loss_values)))
"""


def test_selection_is_byte_identical_across_blas_thread_counts():
    src = os.path.dirname(os.path.dirname(estimate.__code__.co_filename))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 6
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("a,b", BANDWIDTH_PAIRS)
def test_bandwidth_sweep_matches_quadrature(a, b):
    s = _uniform_sample(7, d=a.d, seed=40, loss=LossKind.IDENTITY)
    ell = s.loss_values
    quad = np.array([[quad_section_inner(a, xi, b, xj) for xj in s.x] for xi in s.x])
    assert_allclose(GramTables(s).weighted_total(a, b), float(ell @ quad @ ell), rtol=1e-12)


def test_bandwidth_sweep_rejects_mixed_variants():
    s = _uniform_sample(5, seed=37)
    with pytest.raises(ValueError, match="mixed"):
        GramTables(s).weighted_total(BandwidthSpec(GAUSSIAN, (0.2,)), ProjectionSpec(TRIG, (3,)))
    with pytest.raises(ValueError, match="dimensions"):
        GramTables(s).weighted_total(BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(GAUSSIAN, (0.2, 0.3)))


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
        monkeypatch.setattr(module, "section_inner_pointwise", forbidden, raising=False)
    calls = []
    real_basis_matrix = estimator_mod.basis_matrix
    monkeypatch.setattr(estimator_mod, "basis_matrix", lambda *a: calls.append(a[1]) or real_basis_matrix(*a))
    for (kind, d), (fam, s, want) in reference.items():
        calls.clear()
        got = pco_select(fam, s)
        assert got.to_json() == want.to_json()
        # nested bases: one evaluation per dimension, at the family's top order
        assert calls == ([] if kind is BasisKind.REGULAR_HISTOGRAM else [fam.k0.m[0]] * d)


def test_pco_select_on_bandwidths_builds_no_gram_table(monkeypatch):
    import pcoselect.estimator as estimator_mod
    import pcoselect.kernels as kernels_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("bandwidth selection must not build pairwise section tables")

    reference = {}
    cases = [(GAUSSIAN, 1, [0.02, 0.05, 0.1, 0.3]), (GAUSSIAN, 2, [0.15, 0.25, 0.4]), (EPANECHNIKOV, 1, [0.03, 0.1, 0.3])]
    for base, d, grid in cases:
        s = _uniform_sample(2 * _SWEEP_ROWS + 9, d=d, seed=38, loss=LossKind.IDENTITY)
        fam = make_bandwidth_family(base, grid[0], grid, d, s.n)
        # tables passed in are not reserved, so every total takes its own sweep
        reference[base.kind, d] = (fam, s, pco_select(fam, s, GramTables(s)))
    monkeypatch.setattr(GramTables, "matrix", forbidden)
    for module in (estimator_mod, kernels_mod):
        monkeypatch.setattr(module, "section_inner_matrix", forbidden)
        monkeypatch.setattr(module, "section_inner_pointwise", forbidden, raising=False)
    sweeps = []
    real_totals = estimator_mod.bandwidth_totals
    monkeypatch.setattr(estimator_mod, "bandwidth_totals", lambda pairs, *a: sweeps.append(pairs) or real_totals(pairs, *a))
    for fam, s, want in reference.values():
        sweeps.clear()
        got = pco_select(fam, s)
        assert got.to_json() == want.to_json()
        # one sweep fills the 2N - 1 totals (K, K) and (K, K0)
        assert [len(pairs) for pairs in sweeps] == [2 * len(fam) - 1]


# A dense n x n table would take 200 MB at n = 5000 and 32 MB at n = 2000;
# the sweep's scratch is a few row blocks.
SELECTION_PEAK_BOUND = 16 * 2**20


def _selection_peak(monkeypatch, base, n, d, grid):
    import tracemalloc

    # tracemalloc sees this process only: keep the whole sweep in it
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    s = _uniform_sample(n, d=d, seed=39)
    fam = make_bandwidth_family(base, grid[0], grid, d, n)
    tracemalloc.start()
    try:
        pco_select(fam, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("base,n,grid", [(GAUSSIAN, 5000, [0.01, 0.1, 0.5]), (EPANECHNIKOV, 2000, [0.01, 0.05, 0.2])])
def test_pco_select_memory_is_bounded(monkeypatch, base, n, grid):
    assert _selection_peak(monkeypatch, base, n, 1, grid) < SELECTION_PEAK_BOUND


def test_pco_select_memory_is_bounded_at_d2(monkeypatch):
    # the family's 10 per-dimension tables share their budget a few rows at a time
    assert _selection_peak(monkeypatch, GAUSSIAN, 5000, 2, [0.02, 0.1, 0.4]) < SELECTION_PEAK_BOUND
