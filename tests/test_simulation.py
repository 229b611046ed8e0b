import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import pcoselect
from pcoselect import (
    GAUSSIAN,
    BandwidthSpec,
    BasisFamily,
    BasisKind,
    ConfigError,
    Density,
    DensityKind,
    LossKind,
    NoiseKind,
    ProjectionSpec,
    Scenario,
    kernel_matrix,
    make_s_mean,
    sbar_analytic,
    sbar_empirical,
    scenario_from_config,
)
from pcoselect.quadrature import composite_rule
from pcoselect.simulation import RISK_POINTS_BY_DIM

def _scipy_stats_loaded_after(code: str) -> bool:
    src = os.path.dirname(os.path.dirname(pcoselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += "\nimport sys; sys.exit(int('scipy.stats' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return bool(proc.returncode)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the package's import time; only scenarios that sample through it load it
    assert not _scipy_stats_loaded_after("import pcoselect")


def test_select_and_estimate_on_a_csv_leave_scipy_stats_unloaded(tmp_path):
    (tmp_path / "data.csv").write_text("x1,y\n0.1,1.0\n0.4,2.0\n0.5,0.5\n0.9,1.5\n")
    (tmp_path / "family.json").write_text('{"variant": "bandwidth", "h_min": 0.25, "grid": [0.3, 0.6], "d": 1}')
    (tmp_path / "spec.json").write_text('{"variant": "bandwidth", "base": "gaussian", "h": [0.3]}')
    (tmp_path / "grid.json").write_text('{"lo": [0.0], "hi": [1.0], "points": 11}')
    d = str(tmp_path)
    code = (
        "from pcoselect.cli import main\n"
        f"assert main(['select', '--config', '{d}/family.json', '--data', '{d}/data.csv', '--out', '{d}/o']) == 0\n"
        f"assert main(['estimate', '--config', '{d}/grid.json', '--data', '{d}/data.csv',"
        f" '--spec', '{d}/spec.json', '--out', '{d}/o']) == 0"
    )
    assert not _scipy_stats_loaded_after(code)


def test_scenario_loads_scipy_stats_only_when_its_sampler_needs_it():
    # loaded when the scenario is built, so forked workers never import it
    make = "from pcoselect import Scenario, DensityKind, NoiseKind\n"
    assert not _scipy_stats_loaded_after(make + "Scenario(noise=NoiseKind.UNIFORM, f_kind=DensityKind.TRIANGLE)")
    assert _scipy_stats_loaded_after(make + "Scenario(noise=NoiseKind.GAUSSIAN)")
    assert _scipy_stats_loaded_after(make + "Scenario(noise=NoiseKind.UNIFORM, f_kind=DensityKind.RAISED_COSINE)")


ALL_DENSITIES = [
    Density(DensityKind.UNIFORM, 0.0, 1.0),
    Density(DensityKind.TRIANGLE, 0.0, 1.0),
    Density(DensityKind.TRUNCATED_GAUSSIAN, 0.0, 1.0),
    Density(DensityKind.RAISED_COSINE, -1.0, 1.0),
]


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("den", ALL_DENSITIES, ids=lambda d: d.kind.value)
def test_density_integrates_to_one(den):
    nodes, weights = composite_rule(den.lo, den.hi, [0.5 * (den.lo + den.hi)])
    assert_allclose(np.sum(weights * den.pdf(nodes)), 1.0, atol=1e-12)


@pytest.mark.parametrize("den", ALL_DENSITIES, ids=lambda d: d.kind.value)
def test_density_cdf_is_pdf_antiderivative(den):
    # 42 points so the triangle's apex (a kink) is never sampled exactly
    x = np.linspace(den.lo + 0.01, den.hi - 0.01, 42)
    eps = 1e-6
    numeric = (den.cdf(x + eps) - den.cdf(x - eps)) / (2 * eps)
    assert_allclose(numeric, den.pdf(x), atol=1e-6)


@pytest.mark.parametrize("den", ALL_DENSITIES, ids=lambda d: d.kind.value)
def test_density_ppf_inverts_cdf(den):
    p = np.linspace(0.01, 0.99, 33)
    assert_allclose(den.cdf(den.ppf(p)), p, atol=1e-9)


@pytest.mark.parametrize("den", ALL_DENSITIES, ids=lambda d: d.kind.value)
def test_density_sup_norm_matches_grid_max(den):
    x = np.linspace(den.lo, den.hi, 20_001)
    assert den.sup_norm == pytest.approx(np.max(den.pdf(x)), rel=1e-4)


def test_density_pdf_vanishes_outside_support():
    den = Density(DensityKind.TRIANGLE, 0.0, 1.0)
    assert den.pdf(np.array([-0.1, 1.1])).tolist() == [0.0, 0.0]


def test_twice_differentiable_flags():
    assert not Density(DensityKind.TRIANGLE, 0.0, 1.0).twice_differentiable
    assert Density(DensityKind.TRUNCATED_GAUSSIAN, -1.0, 1.0).twice_differentiable
    assert Density(DensityKind.RAISED_COSINE, -1.0, 1.0).twice_differentiable
    assert Density(DensityKind.UNIFORM, 0.0, 1.0).twice_differentiable


@pytest.mark.parametrize(
    "kind", [DensityKind.TRUNCATED_GAUSSIAN, DensityKind.RAISED_COSINE, DensityKind.UNIFORM]
)
def test_deriv_sup_norms_match_finite_differences(kind):
    den = Density(kind, -1.0, 1.0)
    d1, d2 = den.deriv_sup_norms()
    x = np.linspace(-1.0 + 1e-4, 1.0 - 1e-4, 40_001)
    h = 1e-5
    f1 = (den.pdf(x + h) - den.pdf(x - h)) / (2 * h)
    f2 = (den.pdf(x + h) - 2 * den.pdf(x) + den.pdf(x - h)) / (h * h)
    assert d1 == pytest.approx(np.max(np.abs(f1)), rel=1e-3, abs=1e-9)
    assert d2 == pytest.approx(np.max(np.abs(f2)), rel=1e-3, abs=1e-6)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_gaussian_noise_moments_match_truncnorm():
    m2 = stats.truncnorm.moment(2, -5, 5)
    m4 = stats.truncnorm.moment(4, -5, 5)
    assert NoiseKind.GAUSSIAN.m2 == pytest.approx(m2, rel=1e-12)
    assert NoiseKind.GAUSSIAN.m4 == pytest.approx(m4, rel=1e-12)
    # frozen values used in analytic targets
    assert NoiseKind.GAUSSIAN.m2 == pytest.approx(0.9999851327963293, rel=1e-14)
    assert NoiseKind.GAUSSIAN.m4 == pytest.approx(2.999583718297219, rel=1e-13)


def test_uniform_noise_moments():
    assert NoiseKind.UNIFORM.m2 == pytest.approx(1.0)
    assert NoiseKind.UNIFORM.m4 == pytest.approx(9.0 / 5.0)
    p = np.linspace(0.001, 0.999, 101)
    draws = NoiseKind.UNIFORM.ppf(p)
    assert np.max(np.abs(draws)) <= np.sqrt(3.0) + 1e-12


def test_noise_ppf_is_bounded():
    p = np.linspace(1e-9, 1 - 1e-9, 1001)
    assert np.max(np.abs(NoiseKind.GAUSSIAN.ppf(p))) <= 5.0 + 1e-9


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _scn(**over):
    cfg = {
        "d": 1,
        "f": "uniform",
        "b": {"kind": "sine"},
        "sigma": {"kind": "constant", "c": 0.3},
        "noise": "gaussian",
        "n": 50,
        "replications": 2,
        "seed": 9,
    }
    cfg.update(over)
    return scenario_from_config(cfg)


def test_scenario_config_round_trip():
    scn = _scn()
    again = scenario_from_config(scn.to_config())
    assert again == scn


def test_scenario_config_errors_name_fields():
    with pytest.raises(ConfigError, match="'n'"):
        scenario_from_config({"d": 1, "f": "uniform"})
    with pytest.raises(ConfigError, match="noise"):
        _scn(noise="cauchy")
    with pytest.raises(ConfigError, match="'d'"):
        _scn(d=0)
    with pytest.raises(ConfigError, match="b.kind"):
        _scn(b={"kind": "quadratic"})


def test_scenario_rejects_d4():
    with pytest.raises(ConfigError):
        _scn(d=4)


def test_generate_deterministic_and_replication_dependent():
    scn = _scn()
    s1 = scn.generate(0, LossKind.IDENTITY)
    s2 = scn.generate(0, LossKind.IDENTITY)
    s3 = scn.generate(1, LossKind.IDENTITY)
    assert_allclose(s1.x, s2.x, rtol=0)
    assert_allclose(s1.y, s2.y, rtol=0)
    assert not np.array_equal(s1.x, s3.x)


def test_generate_x_within_support():
    scn = _scn(f="truncated_gaussian", support=[2.0, 5.0])
    s = scn.generate(0)
    assert np.all(s.x >= 2.0) and np.all(s.x <= 5.0)


def test_generate_matches_density_distribution():
    # KS test on a fixed replication; threshold generous, seed frozen
    scn = _scn(f="triangle", n=4000, replications=8)
    s = scn.generate(3)
    den = scn.density()
    stat, pvalue = stats.kstest(s.x[:, 0], den.cdf)
    assert pvalue > 0.01


def test_true_s_product_structure():
    scn = _scn(d=2, n=16)
    pts = np.array([[0.2, 0.7], [0.5, 0.5]])
    b = np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    assert_allclose(scn.true_s(LossKind.IDENTITY, pts), b, rtol=1e-12)  # uniform f: s = b
    # square loss adds the noise term
    want = (b * b + 0.09 * NoiseKind.GAUSSIAN.m2) * 1.0
    assert_allclose(scn.true_s(LossKind.SQUARE, pts), want, rtol=1e-12)


def test_cond_moment2_formula_against_mc():
    scn = _scn(n=200_000, sigma={"kind": "affine"}, b={"kind": "polynomial"})
    s = scn.generate(0, LossKind.SQUARE)
    pt = np.array([[0.4]])
    # empirical E(Y^4 | X near 0.4) via a narrow window
    mask = np.abs(s.x[:, 0] - 0.4) < 0.01
    emp = np.mean(s.y[mask] ** 4)
    want = scn.cond_moment2(LossKind.SQUARE, pt)[0]
    assert emp == pytest.approx(want, rel=0.1)


def test_loss_second_moment_uniform_case():
    scn = _scn(b={"kind": "constant", "c": 2.0}, sigma={"kind": "constant", "c": 0.5})
    want = 4.0 + 0.25 * NoiseKind.GAUSSIAN.m2
    assert scn.loss_second_moment(LossKind.IDENTITY) == pytest.approx(want, rel=1e-12)


def test_risk_grid_sizes():
    assert _scn().risk_grid().points.shape[0] == RISK_POINTS_BY_DIM[1]
    scn2 = _scn(d=2, n=100)
    assert scn2.risk_grid().points.shape == (RISK_POINTS_BY_DIM[2] ** 2, 2)
    assert _scn(risk_points=101).risk_grid().points.shape[0] == 101


def test_quad_grid_refinement_and_breakpoints():
    scn = _scn()
    default = scn.quad_grid()
    assert default.points.shape[0] == 4 * 64  # four panels at d = 1
    refined = scn.quad_grid(refine=8)
    assert refined.points.shape[0] == 8 * 64
    with_cells = scn.quad_grid(breakpoints_per_dim=[[0.1, 0.9]])
    assert with_cells.points.shape[0] == 6 * 64


# ---------------------------------------------------------------------------
# section averages and the variance proxy
# ---------------------------------------------------------------------------


def test_make_s_mean_matches_direct_quadrature():
    scn = _scn()
    spec = BandwidthSpec(GAUSSIAN, (0.2,))
    s_mean = make_s_mean(spec, scn, LossKind.IDENTITY)
    t = np.array([[0.3], [0.65]])
    grid = scn.quad_grid(refine=8)
    svals = scn.true_s(LossKind.IDENTITY, grid.points)
    for row in range(2):
        k = kernel_matrix(spec, t[row : row + 1], grid.points)[0]
        want = grid.integrate(k * svals)
        assert_allclose(s_mean(t[row : row + 1])[0], want, rtol=1e-8)


def test_make_s_mean_histogram_is_cellwise_constant():
    scn = _scn()
    spec = ProjectionSpec(BasisFamily(BasisKind.REGULAR_HISTOGRAM), (4,))
    grid = scn.quad_grid(breakpoints_per_dim=[[0.25, 0.5, 0.75]])
    s_mean = make_s_mean(spec, scn, LossKind.IDENTITY, grid)
    inside = s_mean(np.array([[0.26], [0.49]]))
    assert inside[0] == pytest.approx(inside[1], rel=1e-10)


def test_sbar_analytic_matches_empirical_mean():
    scn = _scn(n=2000, replications=40)
    spec = BandwidthSpec(GAUSSIAN, (0.15,))
    target = sbar_analytic(spec, scn, LossKind.IDENTITY)
    vals = [
        sbar_empirical(spec, scn.generate(rep, LossKind.IDENTITY))
        for rep in range(scn.replications)
    ]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(mean - target) <= 3.0 * se


def test_sbar_analytic_gaussian_closed_form():
    # with ell = One the proxy is the exact product formula
    scn = _scn(b={"kind": "zero"}, sigma={"kind": "zero"})
    spec = BandwidthSpec(GAUSSIAN, (0.25,))
    want = GAUSSIAN.l2_norm_sq / 0.25  # E ell^2 = 1
    assert sbar_analytic(spec, scn, LossKind.ONE) == pytest.approx(want, rel=1e-10)
