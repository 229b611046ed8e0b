"""Acceptance suite: one test per shipped guarantee, run at full scale.

Each test here states a user-facing promise about the package and checks
it end to end, Monte Carlo parts included.  Seeds are fixed so the suite
is deterministic; wall-clock caps are asserted where a promise includes
one.  Expect the whole file to take on the order of ten minutes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from helpers import quad_section_inner
from pcoselect import (
    EPANECHNIKOV,
    GAUSSIAN,
    BandwidthSpec,
    BasisFamily,
    BasisKind,
    Density,
    DensityKind,
    LossKind,
    ProjectionSpec,
    Sample,
    check_kernel_moment_conditions,
    check_l1_section_bound,
    check_legendre_boundedness,
    check_sine_tail_bound,
    check_trig_spectral_boundedness,
    concentration_experiment,
    estimate_on_grid,
    make_bandwidth_family,
    make_projection_family,
    oracle_experiment,
    pco_select,
    quotient_on_grid,
    sbar_empirical,
    scenario_from_config,
    section_inner,
    statistic_grid,
    QuotientConfig,
)
from pcoselect.numerics import pooled_map
from pcoselect.quadrature import composite_grid

THREADS = 8


def _scn(**over):
    cfg = {
        "d": 1,
        "f": "uniform",
        "b": {"kind": "sine"},
        "sigma": {"kind": "constant", "c": 0.3},
        "noise": "gaussian",
        "n": 1000,
        "replications": 200,
        "seed": 1337,
    }
    cfg.update(over)
    return scenario_from_config(cfg)


# ---------------------------------------------------------------------------
# 1. closed-form section inner products agree with brute-force quadrature,
#    and the selection distance agrees with direct grid integration


def _random_pair(kind, d, rng):
    if kind in ("gaussian", "epanechnikov"):
        base = GAUSSIAN if kind == "gaussian" else EPANECHNIKOV
        a = BandwidthSpec(base, tuple(rng.uniform(0.08, 0.9, d)))
        b = BandwidthSpec(base, tuple(rng.uniform(0.08, 0.9, d)))
        xa, xb = rng.uniform(0.0, 1.0, d), rng.uniform(0.0, 1.0, d)
        return a, xa, b, xb
    if kind == "legendre":
        basis = BasisFamily(BasisKind.LEGENDRE, m_cap=6)
        hi_m = 7
        lo, span = -0.95, 1.9
    else:
        bk = BasisKind.TRIGONOMETRIC if kind == "trig" else BasisKind.REGULAR_HISTOGRAM
        basis = BasisFamily(bk, m_cap=8)
        hi_m = 9
        lo, span = 0.0, 1.0
    a = ProjectionSpec(basis, tuple(int(m) for m in rng.integers(1, hi_m, d)))
    b = ProjectionSpec(basis, tuple(int(m) for m in rng.integers(1, hi_m, d)))
    xa = lo + span * rng.uniform(0.0, 1.0, d)
    xb = lo + span * rng.uniform(0.0, 1.0, d)
    return a, xa, b, xb


def _distance_families():
    # three-member family per kind plus the breakpoints its sections need
    bw = lambda base, grid: make_bandwidth_family(base, 0.02, grid, d=1, n=50)
    trig = make_projection_family(BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=8), 8, d=1, n=50)
    hist = make_projection_family(BasisFamily(BasisKind.REGULAR_HISTOGRAM, m_cap=8), 8, d=1, n=50)
    leg = make_projection_family(BasisFamily(BasisKind.LEGENDRE, m_cap=6), 6, d=1, n=50)
    return (
        ("gaussian", bw(GAUSSIAN, (0.05, 0.12, 0.3)), None),
        ("epanechnikov", bw(EPANECHNIKOV, (0.08, 0.2, 0.45)), "kinks"),
        ("trig", trig, [i / 8 for i in range(1, 8)]),
        ("histogram", hist, [i / j for j in range(2, 9) for i in range(1, j)]),
        ("legendre", leg, None),
    )


def test_closed_form_inner_products_match_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for d in (1, 2):
        for kind in ("gaussian", "epanechnikov", "trig", "histogram", "legendre"):
            for _ in range(50):
                a, xa, b, xb = _random_pair(kind, d, rng)
                ref = quad_section_inner(a, xa, b, xb)
                worst = max(worst, abs(section_inner(a, xa, b, xb) - ref))
    assert worst <= 1e-8

    # selection distances against direct integration of the squared gap
    scn = _scn(n=50, replications=2, seed=21)
    leg_rng = np.random.default_rng(22)
    for kind, fam, cuts in _distance_families():
        if kind == "legendre":
            # basis support is (-1, 1); integrate there, off any scenario
            sample = Sample(
                leg_rng.uniform(-0.9, 0.9, (50, 1)), leg_rng.normal(0.0, 1.0, 50),
                LossKind.IDENTITY,
            )
        else:
            sample = scn.generate(0, LossKind.IDENTITY)
        sel = pco_select(fam, sample)
        k0 = fam.specs[sel.k0_index]
        for row, spec in zip(sel.to_json_dict()["rows"], fam.specs):
            if kind == "legendre":
                grid = composite_grid([-1.0], [1.0])
            elif cuts == "kinks":
                pad = spec.base.tail_halfwidth * max(max(spec.h), max(k0.h))
                ks = sorted(
                    k
                    for s in (spec, k0)
                    for x in sample.x[:, 0]
                    for k in (x - s.h[0], x + s.h[0])
                    if -pad < k < 1.0 + pad
                )
                grid = statistic_grid(spec, k0, scn, breakpoints_per_dim=[ks])
            elif cuts is None:
                grid = statistic_grid(spec, k0, scn)
            else:
                grid = statistic_grid(spec, k0, scn, breakpoints_per_dim=[cuts])
            gap = estimate_on_grid(spec, sample, grid.points) - estimate_on_grid(
                k0, sample, grid.points
            )
            direct = grid.integrate(gap * gap)
            assert abs(row["distance"] - direct) <= 1e-6, (kind, spec)
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 2. the plug-in noise scale: exact factorized identity, and its Monte Carlo
#    mean matches the analytic value in a scenario with known E l(Y)^2


def test_noise_scale_identity_and_monte_carlo_mean():
    for d, h in ((1, (0.1,)), (2, (0.1, 0.25))):
        scn = _scn(d=d, n=200, replications=2, seed=33)
        sample = scn.generate(0, LossKind.IDENTITY)
        spec = BandwidthSpec(GAUSSIAN, h)
        manual = (
            GAUSSIAN.l2_norm_sq ** d
            * float(np.mean(sample.loss_values**2))
            * math.prod(1.0 / hq for hq in h)
        )
        assert math.isclose(sbar_empirical(spec, sample), manual, rel_tol=1e-12)

    # E l(Y)^2 = E b(X)^2 + sigma^2 E eps^2 with eps standard normal
    # conditioned on [-5, 5]; everything on the right is known exactly.
    m2 = float(stats.truncnorm.moment(2, -5.0, 5.0))
    analytic = GAUSSIAN.l2_norm_sq / 0.1 * (0.5 + 0.09 * m2)
    scn = _scn(n=10_000, replications=60, seed=34)
    spec = BandwidthSpec(GAUSSIAN, (0.1,))
    vals = np.array(
        [
            sbar_empirical(spec, scn.generate(rep, LossKind.IDENTITY))
            for rep in range(scn.replications)
        ]
    )
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    assert abs(float(vals.mean()) - analytic) <= 3.0 * se


# ---------------------------------------------------------------------------
# 3. the noise scale never exceeds the basis sup-norm bound


def test_noise_scale_respects_basis_sup_bounds():
    rng = np.random.default_rng(303)
    kinds = (BasisKind.TRIGONOMETRIC, BasisKind.REGULAR_HISTOGRAM, BasisKind.LEGENDRE)
    for i in range(1000):
        basis_kind = kinds[i % 3]
        d = 1 + (i // 3) % 2
        cap = int(rng.integers(3, 11))
        basis = BasisFamily(basis_kind, m_cap=cap)
        m = tuple(int(v) for v in rng.integers(1, cap + 1, d))
        if rng.random() < 0.5:
            w = tuple(rng.uniform(0.0, 1.0, max(m)).tolist())
            spec = ProjectionSpec(basis, m, w)
        else:
            spec = ProjectionSpec(basis, m)
        lo, hi = basis.support
        x = lo + (hi - lo) * rng.random((40, d))
        y = rng.normal(0.0, 1.0, 40)
        sample = Sample(x, y, LossKind.IDENTITY)
        bound = (
            basis.sup_bound_const**d
            * float(np.mean(sample.loss_values**2))
            * math.prod(m)
        )
        assert sbar_empirical(spec, sample) <= bound + 1e-10


# ---------------------------------------------------------------------------
# 4. the centered statistics behind the selection analysis really are
#    centered, at a sample size small enough to leave nothing to asymptotics


def test_centered_statistics_have_zero_mean_at_small_n():
    t0 = time.monotonic()
    scn = _scn(n=20, replications=10_000, seed=404)
    rep = concentration_experiment(
        BandwidthSpec(GAUSSIAN, (0.3,)),
        BandwidthSpec(GAUSSIAN, (0.15,)),
        scn,
        LossKind.IDENTITY,
        threads=THREADS,
    )
    assert rep.u.target == 0.0 and rep.w.target == 0.0
    assert rep.v.target > 0.0
    for s in (rep.u, rep.v, rep.w):
        assert s.within_3se, (s.name, s.mean, s.target, s.se)
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 5. the partial sine product inequality scanned over a dense grid


def test_sine_product_tail_bound_sweep():
    t0 = time.monotonic()
    rep = check_sine_tail_bound(p_max=200, grid_points=10_000)
    assert rep.passed
    assert rep.margin >= 0.0
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. Legendre section averages stay bounded under smooth designs


def test_legendre_sections_bounded_under_smooth_densities():
    for kind in (DensityKind.TRUNCATED_GAUSSIAN, DensityKind.RAISED_COSINE):
        rep = check_legendre_boundedness(Density(kind, -1.0, 1.0), m_max=50)
        assert rep.passed, kind
        assert rep.margin >= 0.0


# ---------------------------------------------------------------------------
# 7. the regularity suites accept the families that satisfy their
#    conditions and reroute the one that does not


def test_regularity_suites_classify_shipped_families():
    scn = _scn(n=100, replications=2, seed=77)
    fam_bw = make_bandwidth_family(GAUSSIAN, 0.05, (0.05, 0.15, 0.4), d=1, n=100)
    fam_hist = make_projection_family(
        BasisFamily(BasisKind.REGULAR_HISTOGRAM, m_cap=10), 8, d=1, n=100
    )
    for fam in (fam_bw, fam_hist):
        mom = check_kernel_moment_conditions(
            fam, scn, LossKind.IDENTITY, draws=50_000, seed=7
        )
        assert mom.passed
        assert mom.margin > 0.0
        l1 = check_l1_section_bound(fam)
        assert l1.passed
        assert l1.margin >= -1e-9

    fam_trig = make_projection_family(
        BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=32), 32, d=1, n=1000
    )
    l1 = check_l1_section_bound(fam_trig)
    assert not l1.passed
    assert not l1.applicable
    assert l1.margin == -math.inf
    assert any("trig-boundedness" in note for note in l1.notes)

    scn_poly = _scn(
        n=100, replications=2, seed=77, b={"kind": "polynomial"}
    )
    trend = check_trig_spectral_boundedness(
        scn_poly, LossKind.IDENTITY, draws=5000, seed=3
    )
    assert trend.passed
    assert math.isfinite(trend.details["t_stat"])


# ---------------------------------------------------------------------------
# 8. data-driven selection tracks the oracle and avoids the overfitting
#    reference member


def test_pco_selection_tracks_oracle_bandwidth():
    t0 = time.monotonic()
    scn = _scn()  # sine mean, sigma 0.3, n = 1000, 200 replications
    fam = make_bandwidth_family(
        GAUSSIAN, 0.001, (0.001, 0.003, 0.01, 0.03, 0.08, 0.15, 0.3, 0.5), d=1, n=1000
    )
    rep = oracle_experiment(fam, scn, LossKind.IDENTITY, threads=THREADS)
    assert rep.bound_ok
    assert rep.ratio <= 2.0, rep.ratio
    assert rep.k0_selected_fraction < 0.2
    assert time.monotonic() - t0 < 900.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the order-3 member reproduces the sine target exactly, so the oracle "
        "risk is a bare variance floor (~1.2e-3); selection occasionally keeps "
        "extra coefficients whose squared estimates beat the doubled-variance "
        "penalty step, which adds ~1.4 variance units on average and puts the "
        "risk ratio near 2.4 (2.1-2.8 across seeds; 2.115 at this seed) against "
        "the 2.0 target.  The additive-remainder form of the oracle guarantee "
        "does hold (bound_ok below)."
    ),
)
def test_pco_selection_tracks_oracle_trig():
    t0 = time.monotonic()
    fam = make_projection_family(
        BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=32), 32, d=1, n=1000
    )
    rep = oracle_experiment(fam, _scn(), LossKind.IDENTITY, threads=THREADS)
    assert time.monotonic() - t0 < 900.0
    assert rep.bound_ok
    assert rep.k0_selected_fraction < 0.2
    assert rep.ratio <= 2.0, rep.ratio


# ---------------------------------------------------------------------------
# 9. the oracle risk itself decreases with sample size


def _member_risks(specs, scn, loss, grid, target):
    """A replication: the risk of every member on one sample."""

    def one(rep):
        sample = scn.generate(rep, loss)
        return [
            grid.integrate((estimate_on_grid(s, sample, grid.points) - target) ** 2)
            for s in specs
        ]

    return one


def _oracle_risk(specs, scn, loss):
    grid = scn.risk_grid()
    args = (specs, scn, loss, grid, scn.true_s(loss, grid.points))
    rows = np.asarray(pooled_map(_member_risks, args, range(scn.replications), THREADS))
    means = rows.mean(axis=0)
    best = int(np.argmin(means))
    se = float(rows[:, best].std(ddof=1) / math.sqrt(rows.shape[0]))
    return float(means[best]), se


def test_oracle_risk_decreases_with_sample_size():
    base_grid = (0.01, 0.03, 0.08, 0.15, 0.3, 0.5)
    trig32 = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=32)
    builders = {
        "bandwidth": lambda n: make_bandwidth_family(
            GAUSSIAN,
            1.0 / n,
            sorted({1.0 / n, *(g for g in base_grid if g >= 1.0 / n)}),
            d=1,
            n=n,
        ).specs,
        "trig": lambda n: make_projection_family(trig32, 32, d=1, n=n).specs,
    }
    for label, build in builders.items():
        risks = []
        for n in (250, 500, 1000, 2000):
            scn = _scn(n=n, replications=30, seed=900 + n)
            risks.append(_oracle_risk(build(n), scn, LossKind.IDENTITY))
        means = [m for m, _ in risks]
        assert all(a > b for a, b in zip(means, means[1:])), (label, means)
        sep = means[0] - means[-1]
        assert sep > 3.0 * math.hypot(risks[0][1], risks[-1][1]), (label, risks)


# ---------------------------------------------------------------------------
# 10. the quotient estimator recovers a known constant regression ratio


def test_quotient_recovers_constant_regression_ratio():
    n = 10_000
    scn = _scn(
        n=n, replications=2, seed=77, b={"kind": "constant", "c": 2.0}
    )
    fam = make_bandwidth_family(GAUSSIAN, 1e-4, (1e-4, 0.01, 0.05, 0.15, 0.4), d=1, n=n)
    sample_num = scn.generate(0, LossKind.IDENTITY)
    sample_den = scn.generate(0, LossKind.ONE)
    k_num = fam.specs[pco_select(fam, sample_num).chosen_index]
    k_den = fam.specs[pco_select(fam, sample_den).chosen_index]
    pts = np.linspace(0.0, 1.0, 512)[:, None]
    cfg = QuotientConfig()
    assert math.isclose(cfg.beta_at(n), n**-0.25)
    values, inside = quotient_on_grid(k_num, k_den, sample_num, cfg, pts)
    outside_frac = 1.0 - float(inside.mean())
    assert outside_frac < 0.05
    assert abs(float(values[inside].mean()) - 2.0) <= 0.05


# ---------------------------------------------------------------------------
# 11. every report artifact is byte-identical across reruns and thread counts


def test_reports_are_byte_identical_across_runs_and_threads(tmp_path):
    # library reports: rerun and thread-count invariance
    fam = make_bandwidth_family(GAUSSIAN, 0.02, (0.02, 0.1, 0.3), d=1, n=100)
    scn = _scn(n=100, replications=10, seed=5)
    reps = [
        oracle_experiment(fam, scn, LossKind.IDENTITY, threads=t) for t in (1, THREADS, 1)
    ]
    assert reps[0].to_json() == reps[1].to_json() == reps[2].to_json()
    assert reps[0].to_csv() == reps[1].to_csv()

    scn_c = _scn(n=20, replications=200, seed=6)
    a, b = BandwidthSpec(GAUSSIAN, (0.3,)), BandwidthSpec(GAUSSIAN, (0.15,))
    c1 = concentration_experiment(a, b, scn_c, LossKind.IDENTITY, threads=1)
    c8 = concentration_experiment(a, b, scn_c, LossKind.IDENTITY, threads=THREADS)
    assert c1.to_json() == c8.to_json()

    # command-line artifacts: simulate -> select -> estimate -> verify -> report
    from pcoselect import cli

    scn_cfg = {
        "d": 1,
        "f": "uniform",
        "b": {"kind": "sine"},
        "sigma": {"kind": "constant", "c": 0.3},
        "noise": "gaussian",
        "n": 40,
        "replications": 4,
        "seed": 11,
    }
    fam_cfg = {
        "variant": "bandwidth",
        "base": "gaussian",
        "h_min": 0.05,
        "grid": [0.1, 0.3],
        "d": 1,
    }
    (tmp_path / "scn.json").write_text(json.dumps(scn_cfg))
    (tmp_path / "fam.json").write_text(json.dumps(fam_cfg))
    (tmp_path / "spec.json").write_text(
        json.dumps({"variant": "bandwidth", "base": "gaussian", "h": [0.1]})
    )
    (tmp_path / "grid.json").write_text(json.dumps({"lo": [0.0], "hi": [1.0], "points": 33}))
    (tmp_path / "tail.json").write_text(json.dumps({"p_max": 40, "grid_points": 500}))
    (tmp_path / "exp.json").write_text(
        json.dumps({"scenario": scn_cfg, "family": fam_cfg, "loss": "identity"})
    )

    def run_all(tag, threads):
        out = tmp_path / tag
        data = out / "data.csv"
        args = [
            ["simulate", "--config", str(tmp_path / "scn.json"), "--out", str(out)],
            [
                "select",
                "--config", str(tmp_path / "fam.json"),
                "--data", str(data),
                "--loss", "identity",
                "--out", str(out),
            ],
            [
                "estimate",
                "--config", str(tmp_path / "grid.json"),
                "--data", str(data),
                "--spec", str(tmp_path / "spec.json"),
                "--loss", "identity",
                "--out", str(out),
            ],
            ["verify", "--suite", "sine-tail", "--config", str(tmp_path / "tail.json"), "--out", str(out)],
            [
                "report",
                "--config", str(tmp_path / "exp.json"),
                "--threads", str(threads),
                "--out", str(out),
            ],
        ]
        for argv in args:
            assert cli.main(argv) == 0, argv
        names = (
            "data.csv",
            "scenario.json",
            "selection.json",
            "selection.csv",
            "estimate.csv",
            "verify_sine-tail.json",
            "risk.json",
            "risk_by_kernel.csv",
        )
        return {name: (out / name).read_bytes() for name in names}

    first = run_all("a", 1)
    again = run_all("b", 1)
    threaded = run_all("c", THREADS)
    assert first == again
    assert first == threaded
