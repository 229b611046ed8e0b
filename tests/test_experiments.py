"""Tests for the Monte Carlo experiment drivers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import forbid_everywhere
from pcoselect import (
    GAUSSIAN,
    BandwidthSpec,
    BasisFamily,
    BasisKind,
    ConfigError,
    LossKind,
    ProjectionSpec,
    concentration_experiment,
    make_bandwidth_family,
    make_projection_family,
    mc_risk,
    oracle_experiment,
    scenario_from_config,
    statistic_grid,
)


def _scn(**over):
    cfg = {
        "d": 1,
        "f": "uniform",
        "b": {"kind": "sine"},
        "sigma": {"kind": "constant", "c": 0.3},
        "noise": "gaussian",
        "n": 100,
        "replications": 10,
        "seed": 31,
    }
    cfg.update(over)
    return scenario_from_config(cfg)


# ---------------------------------------------------------------------------
# size limits
# ---------------------------------------------------------------------------


def test_replication_tables_are_bounded_before_any_replication(monkeypatch):
    import pcoselect.experiments as experiments_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("no replication may run")

    monkeypatch.setattr(experiments_mod, "pooled_map", forbidden)
    scn = _scn(replications=2**24 + 1)
    a, b = BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.2,))
    with pytest.raises(ConfigError, match="risk experiment: replications 16777217 .* limit of 16777216"):
        mc_risk(a, scn, LossKind.ONE)
    with pytest.raises(ConfigError, match="concentration experiment: replications 16777217 x statistics 3"):
        concentration_experiment(a, b, scn, LossKind.ONE)
    family = make_bandwidth_family(GAUSSIAN, 0.05, [0.05, 0.1], 1, scn.n)
    with pytest.raises(ConfigError, match="oracle experiment: replications 16777217 x members 2"):
        oracle_experiment(family, scn, LossKind.ONE)
    # at the limit itself the check passes and the replications would start
    with pytest.raises(AssertionError, match="no replication may run"):
        oracle_experiment(family, _scn(replications=2**23), LossKind.ONE)


# ---------------------------------------------------------------------------
# statistic_grid
# ---------------------------------------------------------------------------


def test_statistic_grid_pads_by_section_reach():
    scn = _scn()
    a = BandwidthSpec(GAUSSIAN, (0.1,))
    b = BandwidthSpec(GAUSSIAN, (0.05,))
    grid = statistic_grid(a, b, scn)
    # Gaussian sections reach 8 * h past the anchor, so the box must
    # extend 0.8 beyond each support edge.
    assert grid.points.min() < -0.75
    assert grid.points.max() > 1.75
    assert grid.points.min() > -0.8
    assert grid.points.max() < 1.8
    assert_allclose(grid.weights.sum(), 2.6, rtol=1e-12)


def test_statistic_grid_projection_unpadded():
    scn = _scn()
    basis = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=8)
    a = ProjectionSpec(basis, (3,))
    b = ProjectionSpec(basis, (5,))
    grid = statistic_grid(a, b, scn)
    assert grid.points.min() > 0.0
    assert grid.points.max() < 1.0
    assert_allclose(grid.weights.sum(), 1.0, rtol=1e-12)


def test_statistic_grid_extra_breakpoints_add_panels():
    scn = _scn()
    basis = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=8)
    a = ProjectionSpec(basis, (3,))
    base = statistic_grid(a, a, scn)
    cut = statistic_grid(a, a, scn, breakpoints_per_dim=[[0.33]])
    # one extra interior breakpoint splits one panel into two
    assert cut.points.size == base.points.size + 64


# ---------------------------------------------------------------------------
# mc_risk
# ---------------------------------------------------------------------------


def test_mc_risk_deterministic():
    scn = _scn(n=50, replications=6)
    spec = BandwidthSpec(GAUSSIAN, (0.2,))
    r1 = mc_risk(spec, scn, LossKind.IDENTITY)
    r2 = mc_risk(spec, scn, LossKind.IDENTITY)
    assert r1.per_replication.tobytes() == r2.per_replication.tobytes()
    assert r1.mean == r2.mean and r1.se == r2.se


def test_mc_risk_thread_count_is_invisible():
    scn = _scn(n=50, replications=6)
    spec = BandwidthSpec(GAUSSIAN, (0.2,))
    r1 = mc_risk(spec, scn, LossKind.IDENTITY, threads=1)
    r4 = mc_risk(spec, scn, LossKind.IDENTITY, threads=4)
    assert r1.per_replication.tobytes() == r4.per_replication.tobytes()
    assert r1.mean == r4.mean and r1.se == r4.se


def test_mc_risk_summary_matches_replications():
    scn = _scn(n=50, replications=8)
    spec = BandwidthSpec(GAUSSIAN, (0.2,))
    r = mc_risk(spec, scn, LossKind.IDENTITY)
    assert r.per_replication.shape == (8,)
    assert np.all(r.per_replication >= 0.0)
    assert_allclose(r.mean, r.per_replication.mean(), rtol=1e-12)
    assert_allclose(r.se, r.per_replication.std(ddof=1) / np.sqrt(8), rtol=1e-12)


# ---------------------------------------------------------------------------
# oracle_experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    scn = _scn(n=100, replications=10)
    fam = make_bandwidth_family(GAUSSIAN, 0.02, (0.02, 0.1, 0.3), d=1, n=100)
    return fam, scn, oracle_experiment(fam, scn, LossKind.IDENTITY)


def test_oracle_experiment_internal_consistency(small_report):
    fam, scn, rep = small_report
    assert rep.oracle_index == int(np.argmin(rep.risks))
    assert rep.oracle_risk == rep.risks[rep.oracle_index]
    assert_allclose(rep.ratio, rep.pco_risk / rep.oracle_risk, rtol=1e-12)
    assert rep.k0_index == fam.k0_index
    assert rep.chosen_indices.shape == (10,)
    assert np.all((rep.chosen_indices >= 0) & (rep.chosen_indices < len(fam)))
    frac = float(np.mean(rep.chosen_indices == fam.k0_index))
    assert rep.k0_selected_fraction == frac
    want_ok = rep.pco_risk <= 2.0 * rep.oracle_risk + 5.0 * rep.bound_remainder
    assert rep.bound_ok == want_ok


def test_oracle_experiment_json_round_trip(small_report):
    fam, scn, rep = small_report
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == 1
    assert doc["n"] == 100 and doc["replications"] == 10
    assert len(doc["kernels"]) == len(fam)
    counts = doc["selection_counts"]
    assert sum(counts.values()) == 10
    for i, entry in enumerate(doc["kernels"]):
        assert entry["index"] == i
        assert entry["risk"] == rep.risks[i]


def test_oracle_experiment_csv_round_trip(small_report):
    fam, scn, rep = small_report
    lines = rep.to_csv().splitlines()
    assert lines[0] == "index,id,risk,se,is_oracle,is_k0,times_selected"
    assert len(lines) == len(fam) + 1
    risks = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert risks.tobytes() == rep.risks.tobytes()  # repr round trip is exact
    oracle_col = [int(line.split(",")[4]) for line in lines[1:]]
    assert sum(oracle_col) == 1 and oracle_col[rep.oracle_index] == 1


def test_oracle_experiment_threads_byte_identical():
    scn = _scn(n=60, replications=6)
    fam = make_bandwidth_family(GAUSSIAN, 0.05, (0.05, 0.2), d=1, n=60)
    r1 = oracle_experiment(fam, scn, LossKind.IDENTITY, threads=1)
    r4 = oracle_experiment(fam, scn, LossKind.IDENTITY, threads=4)
    assert r1.to_json() == r4.to_json()
    assert r1.to_csv() == r4.to_csv()


@pytest.mark.parametrize("kind", ["gaussian", "trigonometric"])
def test_oracle_experiment_threads_byte_identical_over_many_grid_blocks(kind):
    # n = 500 splits the 2048-point risk grid into a dozen column blocks
    scn = _scn(n=500, replications=4)
    if kind == "gaussian":
        fam = make_bandwidth_family(GAUSSIAN, 0.01, (0.01, 0.03, 0.1, 0.3), d=1, n=500)
    else:
        fam = make_projection_family(BasisFamily(BasisKind.TRIGONOMETRIC), 12, 1, 500)
    r1 = oracle_experiment(fam, scn, LossKind.IDENTITY, threads=1)
    r2 = oracle_experiment(fam, scn, LossKind.IDENTITY, threads=2)
    assert r1.to_json() == r2.to_json()


def test_oracle_experiment_shares_the_grid_evaluation(monkeypatch):
    import pcoselect.estimator as estimator_mod

    scn = _scn(n=200, replications=3)
    gauss = make_bandwidth_family(GAUSSIAN, 0.02, (0.02, 0.05, 0.1, 0.3), d=1, n=200)
    trig = make_projection_family(BasisFamily(BasisKind.TRIGONOMETRIC), 10, 1, 200)
    want = {fam: oracle_experiment(fam, scn, LossKind.IDENTITY).to_json() for fam in (gauss, trig)}

    forbid_everywhere(monkeypatch, "kernel_matrix", "risk-grid evaluation must not build kernel tables")
    assert oracle_experiment(gauss, scn, LossKind.IDENTITY).to_json() == want[gauss]
    calls = []
    real_basis_matrix = estimator_mod.basis_matrix
    monkeypatch.setattr(estimator_mod, "basis_matrix", lambda *a: calls.append(len(a[2])) or real_basis_matrix(*a))
    assert oracle_experiment(trig, scn, LossKind.IDENTITY).to_json() == want[trig]
    # per replication: the sample once (selection), the risk grid once, at the top order
    assert calls == [scn.n, len(scn.risk_grid().points)] * scn.replications


def test_oracle_experiment_factors_gaussian_members_on_the_risk_axis(monkeypatch):
    import pcoselect.estimator as estimator_mod

    scn = _scn(n=200, replications=3, support=[5.0, 6.0])
    # every member has an anchor stride of 32 on the 2048-point axis
    gauss = make_bandwidth_family(GAUSSIAN, 0.02, (0.02, 0.05, 0.1, 0.3), d=1, n=200)
    spec = gauss.specs[0]
    monkeypatch.setattr(estimator_mod, "_AXIS_MIN_STRIDE", 10**9)
    blocked = oracle_experiment(gauss, scn, LossKind.IDENTITY)
    blocked_mc = mc_risk(spec, scn, LossKind.IDENTITY)
    monkeypatch.undo()
    forbid_everywhere(monkeypatch, "_grid_block_builder", "a factored member took the block path")
    report = oracle_experiment(gauss, scn, LossKind.IDENTITY)
    mc = mc_risk(spec, scn, LossKind.IDENTITY)
    assert np.array_equal(report.chosen_indices, blocked.chosen_indices)
    assert_allclose(report.risks, blocked.risks, rtol=1e-12, atol=0.0)
    assert_allclose([report.pco_risk, report.pco_se], [blocked.pco_risk, blocked.pco_se], rtol=1e-12, atol=0.0)
    assert_allclose(mc.per_replication, blocked_mc.per_replication, rtol=1e-12, atol=0.0)


_REPORT_CONFIG = {
    "scenario": {"d": 1, "f": "triangle", "b": {"kind": "sine"}, "sigma": {"kind": "constant", "c": 0.3},
                 "n": 400, "replications": 3, "seed": 5},
    "family": {"variant": "bandwidth", "base": "gaussian", "h_min": 0.0025, "grid": [0.0025, 0.01, 0.05, 0.3], "d": 1},
    "loss": "identity",
}


def test_report_is_byte_identical_across_blas_thread_counts(tmp_path):
    src = Path(oracle_experiment.__code__.co_filename).parents[1]
    config = tmp_path / "report.json"
    config.write_text(json.dumps(_REPORT_CONFIG), encoding="utf-8")
    artifacts = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run([sys.executable, "-m", "pcoselect.cli", "report", "--config", str(config),
                               "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        artifacts.append([(out / name).read_bytes() for name in ("risk.json", "risk_by_kernel.csv")])
    assert artifacts[0] == artifacts[1]


def test_oracle_experiment_member_groups_give_the_same_report(monkeypatch):
    import pcoselect.experiments as experiments_mod

    scn = _scn(n=100, replications=3)
    gauss = make_bandwidth_family(GAUSSIAN, 0.02, (0.02, 0.05, 0.1, 0.3, 0.5), d=1, n=100)
    trig = make_projection_family(BasisFamily(BasisKind.TRIGONOMETRIC), 7, 1, 100)
    want = {fam: oracle_experiment(fam, scn, LossKind.IDENTITY).to_json() for fam in (gauss, trig)}
    # two members per risk-grid call, and a last group of one
    monkeypatch.setattr(experiments_mod, "_GRID_ESTIMATES", 2 * len(scn.risk_grid().points))
    for fam, report in want.items():
        assert oracle_experiment(fam, scn, LossKind.IDENTITY).to_json() == report


# ---------------------------------------------------------------------------
# concentration_experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gaussian_pair_report():
    scn = _scn(n=20, replications=400, seed=7)
    a = BandwidthSpec(GAUSSIAN, (0.3,))
    b = BandwidthSpec(GAUSSIAN, (0.15,))
    return a, scn, concentration_experiment(a, b, scn, LossKind.IDENTITY)


def test_concentration_centered_statistics(gaussian_pair_report):
    a, scn, rep = gaussian_pair_report
    assert rep.u.target == 0.0
    assert rep.w.target == 0.0
    assert rep.u.within_3se, f"pair statistic z={rep.u.z:.2f}"
    assert rep.v.within_3se, f"variance statistic z={rep.v.z:.2f}"
    assert rep.w.within_3se, f"cross statistic z={rep.w.z:.2f}"


def test_concentration_variance_target(gaussian_pair_report):
    from pcoselect import sbar_analytic

    a, scn, rep = gaussian_pair_report
    sbar = sbar_analytic(a, scn, LossKind.IDENTITY)
    # target = sbar - ||s_a||^2, so it sits strictly below sbar
    assert rep.v.target < sbar
    assert rep.v.target > 0.0


def test_concentration_report_json(gaussian_pair_report):
    a, scn, rep = gaussian_pair_report
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == 1
    names = [s["name"] for s in doc["statistics"]]
    assert names == ["pair", "variance", "cross"]
    for s in doc["statistics"]:
        assert s["within_3se"] is True


def test_concentration_threads_byte_identical():
    scn = _scn(n=15, replications=40)
    a = BandwidthSpec(GAUSSIAN, (0.25,))
    b = BandwidthSpec(GAUSSIAN, (0.1,))
    r1 = concentration_experiment(a, b, scn, LossKind.ONE, threads=1)
    r4 = concentration_experiment(a, b, scn, LossKind.ONE, threads=4)
    assert r1.to_json() == r4.to_json()


def _concentration_dense_reference(a, b, scn, loss, grid):
    """The per-replication U, V, W of the dense n x n formulation, the norm
    of s_a, and the largest integral of |shat_a - s_a| (|s_b| + |s|)."""
    from pcoselect.estimator import sbar_empirical
    from pcoselect.kernels import kernel_matrix, section_inner_matrix
    from pcoselect.numerics import pairwise_sum

    s_grid = scn.true_s(loss, grid.points)
    gw = grid.weights
    # section averages s_K(t) = integral K(x, t) s(x) dx from the full table on the grid
    sa_grid = (gw * s_grid) @ kernel_matrix(a, grid.points, grid.points)
    sb_grid = (gw * s_grid) @ kernel_matrix(b, grid.points, grid.points)
    n = scn.n
    rows, w_scale = [], 0.0
    for rep in range(scn.replications):
        sample = scn.generate(rep, loss)
        ell = sample.loss_values
        ka_grid = kernel_matrix(a, sample.x, grid.points)
        kb_grid = kernel_matrix(b, sample.x, grid.points)
        gram = section_inner_matrix(a, sample.x, b, sample.x)
        weighted = (ell[:, None] * gram) * ell[None, :]
        off = pairwise_sum(weighted) - pairwise_sum(np.diagonal(weighted).copy())
        cross_a = ka_grid @ (gw * sb_grid)
        cross_b = kb_grid @ (gw * sa_grid)
        u_val = (
            off
            - (n - 1) * pairwise_sum(ell * cross_a)
            - (n - 1) * pairwise_sum(ell * cross_b)
            + n * (n - 1) * pairwise_sum(gw * sa_grid * sb_grid)
        )
        cross_aa = ka_grid @ (gw * sa_grid)
        v_val = sbar_empirical(a, sample) - 2.0 * pairwise_sum(ell * cross_aa) / n + pairwise_sum(gw * sa_grid * sa_grid)
        shat_a = ell @ ka_grid / n
        w_val = pairwise_sum(gw * (shat_a - sa_grid) * (sb_grid - s_grid))
        w_scale = max(w_scale, pairwise_sum(gw * np.abs(shat_a - sa_grid) * (np.abs(sb_grid) + np.abs(s_grid))))
        rows.append((u_val, v_val, w_val))
    return np.asarray(rows), pairwise_sum(gw * sa_grid * sa_grid), w_scale


_CONCENTRATION_PAIRS = {
    "gaussian": (BandwidthSpec(GAUSSIAN, (0.3,)), BandwidthSpec(GAUSSIAN, (0.15,)), LossKind.IDENTITY),
    "gaussian-one": (BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(GAUSSIAN, (0.04,)), LossKind.ONE),
    "trig": (
        ProjectionSpec(BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=9), (3,)),
        ProjectionSpec(BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=9), (7,)),
        LossKind.IDENTITY,
    ),
}


@pytest.mark.parametrize("case", sorted(_CONCENTRATION_PAIRS))
def test_concentration_matches_dense_reference(case):
    a, b, loss = _CONCENTRATION_PAIRS[case]
    scn = _scn(n=60, replications=12, seed=5)
    grid = statistic_grid(a, b, scn)
    rows, sa_norm_sq, w_scale = _concentration_dense_reference(a, b, scn, loss, grid)
    rep = concentration_experiment(a, b, scn, loss, threads=2, grid=grid)
    # W integrates (shat_a - s_a)(s_b - s), and s_b - s cancels to rounding
    # noise when s lies in the span of b (the trig case): its error scale is
    # that of the terms before the cancellation
    scales = (np.abs(rows[:, 0]).max(), np.abs(rows[:, 1]).max(), max(np.abs(rows[:, 2]).max(), w_scale))
    for summary, values, scale in zip((rep.u, rep.v, rep.w), rows.T, scales):
        assert_allclose(summary.mean, values.mean(), rtol=1e-12, atol=1e-12 * scale)
        assert_allclose(summary.se, values.std(ddof=1) / np.sqrt(len(values)), rtol=1e-12,
                        atol=1e-12 * scale if summary is rep.w else 0.0)
    from pcoselect import sbar_analytic

    sbar = sbar_analytic(a, scn, loss)
    assert_allclose(rep.v.target, sbar - sa_norm_sq, rtol=1e-12)


def test_concentration_replication_memory_is_bounded():
    import tracemalloc

    scn = _scn(n=2000, replications=1, seed=3)
    a, b = BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.02,))
    tracemalloc.start()
    try:
        concentration_experiment(a, b, scn, LossKind.IDENTITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 2.2 MB (14.5 MB with kernel tables of the statistic grid in
    # 1024-row blocks); the dense formulation held 143 MB, and one n x n
    # table alone is 32 MB
    assert peak < 4.5 * 2**20, peak / 2**20


def test_section_average_memory_is_fixed_whatever_the_grid(monkeypatch):
    import tracemalloc

    from pcoselect import numerics
    from pcoselect.simulation import make_s_mean

    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    scn = _scn(d=2, n=100)
    grid = scn.quad_grid(refine=2)
    assert len(grid.points) >= 16384
    points = np.random.default_rng(3).random((2048, 2))
    spec = BandwidthSpec(GAUSSIAN, (0.05, 0.05))
    tracemalloc.start()
    try:
        make_s_mean(spec, scn, LossKind.IDENTITY, grid)(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one grid x 1024-point kernel table alone is 128 MB
    assert peak < 4 * 2**20, peak / 2**20


def test_section_averages_statistics_and_diagnostics_build_no_kernel_table(monkeypatch):
    from pcoselect import check_kernel_moment_conditions
    from pcoselect.simulation import make_s_mean

    scn, scn2 = _scn(n=40, replications=3), _scn(d=2, n=40, replications=3)
    trig = BasisFamily(BasisKind.TRIGONOMETRIC)
    families = [
        (make_bandwidth_family(GAUSSIAN, 0.2, (0.2, 0.4), d=1, n=40), scn),
        (make_projection_family(trig, 4, 1, 40), scn),
        (make_projection_family(trig, 2, 2, 40), scn2),
    ]
    points = np.linspace(-0.1, 1.1, 50).reshape(-1, 1)

    def run():
        out = []
        for fam, s in families:
            a, b = fam.specs[0], fam.specs[-1]
            out.append(concentration_experiment(a, b, s, LossKind.IDENTITY).to_json())
            out.append(check_kernel_moment_conditions(fam, s, LossKind.IDENTITY, draws=500).to_json())
            if s.d == 1:
                out.append(make_s_mean(a, s, LossKind.IDENTITY)(points).tobytes())
        return out

    want = run()
    forbid_everywhere(monkeypatch, "kernel_matrix", "section averages and cross terms must not build kernel tables")
    assert run() == want
