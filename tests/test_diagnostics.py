"""Tests for the verification suites in the diagnostics module."""

import json
import math

import numpy as np
import pytest

from pcoselect import (
    EPANECHNIKOV,
    GAUSSIAN,
    BasisFamily,
    BasisKind,
    ConfigError,
    Density,
    DensityKind,
    LossKind,
    check_kernel_moment_conditions,
    check_l1_section_bound,
    check_legendre_boundedness,
    check_sine_tail_bound,
    check_trig_spectral_boundedness,
    make_bandwidth_family,
    make_projection_family,
    scenario_from_config,
)
from pcoselect.kernels import DIAG_SCAN_POINTS, ProjectionSpec, diag_sup, section_sq_norm_points


def _scn(**over):
    cfg = {
        "d": 1,
        "f": "uniform",
        "b": {"kind": "sine"},
        "sigma": {"kind": "constant", "c": 0.3},
        "noise": "gaussian",
        "n": 50,
        "replications": 2,
        "seed": 5,
    }
    cfg.update(over)
    return scenario_from_config(cfg)


# ---------------------------------------------------------------------------
# sine tail scan
# ---------------------------------------------------------------------------


def test_sine_tail_bound_passes():
    rep = check_sine_tail_bound(p_max=60, grid_points=2000)
    assert rep.name == "sine-tail"
    assert rep.passed and rep.applicable
    assert rep.margin > 0.0
    doc = json.loads(rep.to_json())
    assert doc["passed"] is True
    assert doc["details"]["p_max"] == 60


# ---------------------------------------------------------------------------
# Legendre expected-diagonal bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind", [DensityKind.TRUNCATED_GAUSSIAN, DensityKind.RAISED_COSINE]
)
def test_legendre_bound_smooth_density(kind):
    den = Density(kind, -1.0, 1.0)
    rep = check_legendre_boundedness(den, m_max=50)
    assert rep.name == "legendre-bound"
    assert rep.passed
    assert rep.margin >= 0.0
    assert rep.details["m_max"] == 50


def test_legendre_bound_uniform_is_tight():
    # flat density: all coefficients vanish and both derivative norms are 0,
    # so observed and bound are both (numerically) zero
    rep = check_legendre_boundedness(Density(DensityKind.UNIFORM, -1.0, 1.0))
    assert rep.passed
    assert abs(rep.margin) < 1e-9


def test_legendre_bound_accepts_scenario():
    scn = _scn(f="truncated_gaussian", support=[-1.0, 1.0])
    rep = check_legendre_boundedness(scn, m_max=20)
    assert rep.passed


def test_legendre_bound_rejects_kinked_density():
    with pytest.raises(ConfigError):
        check_legendre_boundedness(Density(DensityKind.TRIANGLE, -1.0, 1.0))


def test_legendre_bound_rejects_wrong_support():
    with pytest.raises(ConfigError):
        check_legendre_boundedness(Density(DensityKind.TRUNCATED_GAUSSIAN, 0.0, 1.0))


def test_legendre_bound_rejects_other_sources():
    with pytest.raises(ConfigError):
        check_legendre_boundedness(42)
    with pytest.raises(ConfigError):
        check_legendre_boundedness(_scn(d=2, support=[-1.0, 1.0]))


# ---------------------------------------------------------------------------
# L1 section bound
# ---------------------------------------------------------------------------


def test_l1_bound_bandwidth_is_exact():
    for base in (GAUSSIAN, EPANECHNIKOV):
        fam = make_bandwidth_family(base, 0.1, (0.1, 0.4), d=1, n=100)
        rep = check_l1_section_bound(fam)
        assert rep.name == "l1-section-bound"
        assert rep.passed and rep.applicable
        # base kernels integrate to one, so the bound is met with equality
        assert abs(rep.margin) < 1e-9


def test_l1_bound_histogram_passes():
    basis = BasisFamily(BasisKind.REGULAR_HISTOGRAM, m_cap=8)
    fam = make_projection_family(basis, 4, d=1, n=25)
    rep = check_l1_section_bound(fam)
    assert rep.passed and rep.applicable
    assert rep.margin >= -1e-9
    assert rep.details["bound"] == 1.0


def test_l1_bound_trig_not_applicable():
    basis = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=8)
    fam = make_projection_family(basis, 8, d=1, n=64)
    rep = check_l1_section_bound(fam)
    assert not rep.passed
    assert not rep.applicable
    assert rep.margin == -math.inf
    by_member = rep.details["observed_by_member"]
    assert max(by_member.values()) > 2.0  # the norms really do grow
    assert any("trig-boundedness" in note for note in rep.notes)
    # non-finite margins must not leak into strict JSON
    doc = json.loads(rep.to_json())
    assert doc["margin"] is None
    assert doc["applicable"] is False


# ---------------------------------------------------------------------------
# trigonometric spectral trend
# ---------------------------------------------------------------------------


def test_trig_boundedness_flat_spectrum_is_not_a_trend():
    # the pure sine target has a single spectral line, so every running
    # maximum is identical and the fitted slope is rounding noise
    rep = check_trig_spectral_boundedness(_scn(), LossKind.IDENTITY, draws=4000)
    assert rep.name == "trig-boundedness"
    assert rep.passed
    assert rep.details["t_stat"] == 0.0
    assert len(rep.details["means"]) == 4


def test_trig_boundedness_passes_for_smooth_target():
    scn = _scn(b={"kind": "polynomial"})
    rep = check_trig_spectral_boundedness(scn, LossKind.IDENTITY, draws=4000)
    assert rep.passed
    assert rep.margin > 0.0
    # decaying spectrum: the means really differ, so the fit is genuine
    assert rep.details["t_stat"] != 0.0


def test_trig_boundedness_rejects_bad_scenarios():
    with pytest.raises(ConfigError):
        check_trig_spectral_boundedness(_scn(d=2), LossKind.IDENTITY)
    with pytest.raises(ConfigError):
        check_trig_spectral_boundedness(
            _scn(support=[-1.0, 1.0], f="truncated_gaussian"), LossKind.IDENTITY
        )


# ---------------------------------------------------------------------------
# kernel moment conditions
# ---------------------------------------------------------------------------


def test_moment_conditions_gaussian_family():
    scn = _scn()
    fam = make_bandwidth_family(GAUSSIAN, 0.1, (0.1, 0.3), d=1, n=50)
    rep = check_kernel_moment_conditions(fam, scn, LossKind.IDENTITY, draws=20_000)
    assert rep.name == "moment-conditions"
    assert rep.passed
    assert rep.margin > 0.0
    for item in ("item1", "item2", "item3", "item4"):
        assert rep.details[item]["margin"] > 0.0


def test_moment_conditions_histogram_family():
    scn = _scn(n=25)
    basis = BasisFamily(BasisKind.REGULAR_HISTOGRAM, m_cap=8)
    fam = make_projection_family(basis, 3, d=1, n=25)
    rep = check_kernel_moment_conditions(fam, scn, LossKind.IDENTITY, draws=20_000)
    assert rep.passed


@pytest.mark.parametrize("kind", list(BasisKind))
def test_moment_conditions_item1_is_the_squared_weight_diagonal_sup(kind):
    # ||K(x', .)||^2 = prod_q sum_j w_j^2 phi_j(x'_q)^2 is the diagonal of
    # the kernel with weights w^2
    w = (0.9, 0.5, 0.8)
    support = [-1.0, 1.0] if kind is BasisKind.LEGENDRE else [0.0, 1.0]
    scn = _scn(d=2, n=9, support=support, f="uniform")
    fam = make_projection_family(BasisFamily(kind, m_cap=8), 3, d=2, n=9, w=w)
    rep = check_kernel_moment_conditions(fam, scn, LossKind.ONE, draws=200)
    squared = [ProjectionSpec(s.basis, s.m, tuple(v * v for v in w)) for s in fam.specs]
    assert rep.details["item1"]["observed"] == max(diag_sup(s) for s in squared)
    # against the section norms on the scan grid itself
    grid = np.linspace(*support, DIAG_SCAN_POINTS)
    scanned = max(
        math.prod(float(np.max(section_sq_norm_points(ProjectionSpec(s.basis, (mq,), w), grid[:, None]))) for mq in s.m)
        for s in fam.specs
    )
    assert rep.details["item1"]["observed"] == pytest.approx(scanned, rel=1e-14)


def test_moment_conditions_dimension_mismatch():
    scn = _scn()
    fam = make_bandwidth_family(GAUSSIAN, 0.35, (0.35,), d=2, n=10)
    with pytest.raises(ConfigError):
        check_kernel_moment_conditions(fam, scn, LossKind.ONE)
