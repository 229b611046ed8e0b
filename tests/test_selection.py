import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcoselect import (
    GAUSSIAN,
    BandwidthSpec,
    BasisFamily,
    BasisKind,
    DimensionError,
    GramTables,
    KernelFamily,
    LossKind,
    ProjectionSpec,
    QuotientConfig,
    Sample,
    estimate_on_grid,
    make_bandwidth_family,
    make_projection_family,
    pco_select,
    penalty,
    quotient_on_grid,
    sbar_empirical,
    scenario_from_config,
    stream,
    u_statistic,
)

TRIG = BasisFamily(BasisKind.TRIGONOMETRIC)


def _sample(n=30, seed=0, loss=LossKind.ONE, d=1):
    rng = stream(seed)
    return Sample(rng.random((n, d)), rng.standard_normal(n), loss)


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------


def test_penalty_self_is_sbar_identity():
    s = _sample(25, seed=1)
    k0 = BandwidthSpec(GAUSSIAN, (0.1,))
    got = penalty(k0, k0, s)
    assert_allclose(got, 2.0 / s.n * sbar_empirical(k0, s), rtol=1e-12)


def test_penalty_gaussian_closed_form():
    # zero-shift convolution of two centered gaussians
    s = _sample(40, seed=2)
    h, h0 = 0.3, 0.1
    got = penalty(BandwidthSpec(GAUSSIAN, (h,)), BandwidthSpec(GAUSSIAN, (h0,)), s)
    want = 2.0 / s.n / np.sqrt(2 * np.pi * (h * h + h0 * h0))
    assert_allclose(got, want, rtol=1e-12)


def test_penalty_zero_responses():
    x = stream(3).random((10, 1))
    s = Sample(x, np.zeros(10), LossKind.IDENTITY)
    got = penalty(BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(GAUSSIAN, (0.1,)), s)
    assert got == 0.0


def test_penalty_negative_diag_guard():
    class BrokenTables:
        def family_rows(self, specs, k0):
            # a diagonal sum of the shipped kernels is nonnegative
            return [0.0] * len(specs), [0.0] * len(specs), [-1.0] * len(specs)

    s = _sample(5, seed=4)
    fam = make_bandwidth_family(GAUSSIAN, 0.3, [0.3, 0.6], 1, 5)
    with pytest.raises(RuntimeError):
        pco_select(fam, s, tables=BrokenTables())


def test_bandwidth_diagonal_checks_the_sample_dimension():
    # a bandwidth diagonal sum is c_ab sum_i ell_i^2, which reads no point, but
    # a kernel of another d than the sample's is an error, as in the sweep and
    # every projection path, and so is the n-vector diag
    s = _sample(4, seed=8, d=2)
    spec = BandwidthSpec(GAUSSIAN, (0.1,))
    with pytest.raises(ValueError, match="point dimension does not match the kernel"):
        penalty(spec, spec, s)
    with pytest.raises(ValueError, match="point dimension does not match the kernel"):
        GramTables(s).diag(spec, BandwidthSpec(GAUSSIAN, (0.2,)))
    with pytest.raises(ValueError, match="point dimension does not match the kernel"):
        GramTables(s).family_rows([spec], spec)
    with pytest.raises(ValueError, match="point dimension does not match the kernel"):
        u_statistic(spec, spec, s)


# ---------------------------------------------------------------------------
# pco_select
# ---------------------------------------------------------------------------


def test_singleton_family_total_is_penalty():
    s = _sample(20, seed=5)
    spec = BandwidthSpec(GAUSSIAN, (0.25,))
    fam = KernelFamily((spec,), sample_cap=20, k0_index=0)
    report = pco_select(fam, s)
    assert report.chosen_index == 0
    row = report.rows[0]
    assert row.distance == 0.0
    assert_allclose(row.total, penalty(spec, spec, s), rtol=1e-12)


def test_duplicate_specs_tie_goes_to_first():
    s = _sample(15, seed=6)
    spec = BandwidthSpec(GAUSSIAN, (0.3,))
    fam = KernelFamily((spec, spec), sample_cap=15, k0_index=0)
    report = pco_select(fam, s)
    assert report.chosen_index == 0


def test_dimension_mismatch_raises():
    s = _sample(10, seed=7, d=2)
    fam = make_bandwidth_family(GAUSSIAN, 0.2, [0.2, 0.5], 1, 10)
    with pytest.raises(DimensionError):
        pco_select(fam, s)


def test_family_size_mismatch_warns(caplog):
    import logging

    s = _sample(12, seed=8)
    fam = make_bandwidth_family(GAUSSIAN, 0.2, [0.2, 0.5], 1, 50)
    with caplog.at_level(logging.WARNING):
        pco_select(fam, s)
    assert any("n=50" in r.getMessage() for r in caplog.records)


def test_scaling_invariance_of_chosen_index():
    rng = stream(9)
    x = rng.random((80, 1))
    y = rng.standard_normal(80) + 1.0
    fam = make_bandwidth_family(GAUSSIAN, 0.05, [0.05, 0.1, 0.2, 0.4], 1, 80)
    base = pco_select(fam, Sample(x, y, LossKind.IDENTITY))
    scaled = pco_select(fam, Sample(x, 5.0 * y, LossKind.IDENTITY))
    assert scaled.chosen_index == base.chosen_index
    for r_base, r_scaled in zip(base.rows, scaled.rows):
        assert_allclose(r_scaled.total, 25.0 * r_base.total, rtol=1e-10)


def test_report_rows_consistent_and_deterministic():
    s = _sample(25, seed=10, loss=LossKind.IDENTITY)
    fam = make_projection_family(TRIG, 6, 1, 25)
    r1 = pco_select(fam, s)
    r2 = pco_select(fam, s)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()
    for row in r1.rows:
        assert_allclose(row.total, row.distance + row.penalty, rtol=1e-15)
    payload = json.loads(r1.to_json())
    assert payload["schema_version"] == 1
    assert len(payload["rows"]) == len(fam)
    assert sum(row["chosen"] for row in payload["rows"]) == 1


def test_selection_avoids_grid_endpoints():
    """Density estimation on uniform data: the selected bandwidth should sit
    strictly inside the grid in the vast majority of replications."""
    scn = scenario_from_config(
        {"d": 1, "f": "uniform", "n": 1000, "replications": 100, "seed": 2024}
    )
    grid = [0.02, 0.04, 0.08, 0.16, 0.32, 0.8]
    fam = make_bandwidth_family(GAUSSIAN, 0.02, grid, 1, scn.n)
    interior = 0
    for rep in range(scn.replications):
        sample = scn.generate(rep, LossKind.ONE)
        report = pco_select(fam, sample)
        h = report.chosen.h[0]
        interior += int(grid[0] < h < grid[-1])
    assert interior >= 80


# ---------------------------------------------------------------------------
# quotient estimation
# ---------------------------------------------------------------------------


def test_quotient_exact_for_constant_responses():
    # Y = c with sigma = 0: the identity-loss estimator is c times the
    # density estimator, so the ratio is exactly c wherever defined
    rng = stream(11)
    x = rng.random((50, 1))
    s = Sample(x, np.full(50, 2.0), LossKind.IDENTITY)
    k = BandwidthSpec(GAUSSIAN, (0.2,))
    cfg = QuotientConfig(beta=1e-6)
    for pt in (0.1, 0.5, 0.9):
        values, inside = quotient_on_grid(k, k, s, cfg, np.array([[pt]]))
        assert inside[0] and values[0] == pytest.approx(2.0, rel=1e-12)


def test_quotient_boundary_is_inclusive():
    s = Sample(np.array([[0.5]]), np.array([3.0]), LossKind.IDENTITY)
    k = BandwidthSpec(GAUSSIAN, (0.25,))
    pt = np.array([[0.5]])
    den = estimate_on_grid(k, s.with_loss(LossKind.ONE), pt)[0]
    values, inside = quotient_on_grid(k, k, s, QuotientConfig(beta=den), pt)
    assert inside[0] and values[0] == pytest.approx(3.0, rel=1e-12)
    values, inside = quotient_on_grid(k, k, s, QuotientConfig(beta=den * (1 + 1e-9)), pt)
    assert not inside[0] and np.isnan(values[0])


def test_quotient_outside_domain_far_from_data():
    s = Sample(np.array([[0.5]]), np.array([3.0]), LossKind.IDENTITY)
    k = BandwidthSpec(GAUSSIAN, (0.05,))
    values, inside = quotient_on_grid(k, k, s, QuotientConfig(beta=0.1), np.array([[25.0]]))
    assert not inside[0] and np.isnan(values[0])


def test_quotient_config_validation():
    with pytest.raises(ValueError):
        QuotientConfig(beta=0.0)
    with pytest.raises(ValueError):
        QuotientConfig(beta=-0.5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            QuotientConfig(beta=bad)
    assert QuotientConfig().beta_at(10_000) == pytest.approx(0.1)


_QUOTIENT_PAIRS = {
    "same-member": (BandwidthSpec(GAUSSIAN, (0.03,)), BandwidthSpec(GAUSSIAN, (0.03,))),
    "different-members": (BandwidthSpec(GAUSSIAN, (0.02,)), BandwidthSpec(GAUSSIAN, (0.05,))),
    "projection-pair": (ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (5,))),
}


@pytest.mark.parametrize("case", sorted(_QUOTIENT_PAIRS))
def test_quotient_on_grid_is_identical_to_two_estimates(case):
    k_num, k_den = _QUOTIENT_PAIRS[case]
    rng = stream(13)
    x = rng.random((401, 1))
    s = Sample(x, np.sin(6.0 * x[:, 0]) + 0.2 * rng.standard_normal(401), LossKind.IDENTITY)
    # 401 x 3001 kernel entries per member: the bandwidth pass maps its blocks on the pool
    pts = np.linspace(-0.1, 1.1, 3001).reshape(-1, 1)
    cfg = QuotientConfig(beta=0.5)
    den = estimate_on_grid(k_den, s.with_loss(LossKind.ONE), pts)
    num = estimate_on_grid(k_num, s, pts)
    inside = den >= cfg.beta_at(s.n)
    expected = np.full(len(pts), np.nan)
    expected[inside] = num[inside] / den[inside]
    values, mask = quotient_on_grid(k_num, k_den, s, cfg, pts)
    assert inside.any() and not inside.all()
    assert np.array_equal(mask, inside)
    assert np.array_equal(values, expected, equal_nan=True)


def test_quotient_on_grid_masks_low_density():
    rng = stream(12)
    x = 0.5 + 0.05 * rng.standard_normal((200, 1))
    s = Sample(x, np.full(200, 4.0), LossKind.IDENTITY)
    k = BandwidthSpec(GAUSSIAN, (0.05,))
    pts = np.linspace(-1.0, 2.0, 61).reshape(-1, 1)
    values, inside = quotient_on_grid(k, k, s, QuotientConfig(beta=0.05), pts)
    assert inside.any() and not inside.all()
    assert np.all(np.isnan(values[~inside]))
    assert_allclose(values[inside], 4.0, rtol=1e-10)
