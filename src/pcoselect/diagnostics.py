"""Numerical verification of the regularity conditions behind selection.

Each check returns a :class:`CheckReport` with the worst margin observed
(bound minus observation; nonnegative means the bound held), enough detail
to reproduce the number, and a deterministic outcome for a fixed seed.

The suites:

* :func:`check_kernel_moment_conditions` - the four moment bounds a
  kernel family must satisfy for the variance and concentration analysis:
  (1) section norms at most a constant times n, (2) bounded section
  averages, (3) mean squared pair inner products controlled by the
  variance scale, (4) mean squared inner products against a dictionary of
  test functions controlled by their norms.  Item (1) takes the supremum
  of a projection member's section norm as
  :func:`~pcoselect.kernels.diag_sup` of the member with squared weights,
  on one table of suprema per basis.
* :func:`check_l1_section_bound` - the uniform bound on squared L1 norms
  of kernel sections.  Bandwidth and histogram families satisfy it with
  explicit constants; trigonometric families do not (their section L1
  norms grow with the order like a Dirichlet kernel's), and the report
  says so rather than pretending otherwise.
* :func:`check_trig_spectral_boundedness` - the route that covers
  trigonometric families instead: the expected squared inner products
  between kernel sections and section averages stay bounded as the
  maximal order grows (tested as "no significantly positive trend").
* :func:`check_sine_tail_bound` - the partial sine series inequality
  underpinning the trigonometric analysis, swept over a dense grid.
* :func:`check_legendre_boundedness` - the expected-diagonal bound for
  Legendre families under a twice continuously differentiable design
  density, against the explicit constant 2 max(2||f'||, ||f''||) zeta(3/2),
  with zeta(3/2) from ``scipy.special.zeta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bases import BasisFamily, BasisKind, basis_matrix, breakpoints, sine_tail_max_violation
from .errors import ConfigError, check_table_size
from .estimator import LossKind, _kernel_sums
from .kernels import (
    BandwidthSpec,
    KernelFamily,
    ProjectionSpec,
    diag_sups,
    section_inner_pointwise,
    section_l1_norm,
    section_sq_norm_points,
    spec_id,
)
from .numerics import mean_se
from .quadrature import composite_rule
from .rng import stream
from .selection import SCHEMA_VERSION
from .simulation import Density, Scenario, make_s_mean, sbar_analytic

NUMERIC_TOL = 1e-9


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    margin: float
    details: dict
    notes: tuple = ()
    applicable: bool = True

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "passed": self.passed,
            "applicable": self.applicable,
            "margin": self.margin if math.isfinite(self.margin) else None,
            "details": self.details,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# moment conditions
# ---------------------------------------------------------------------------


def _section_sups(specs) -> list:
    """sup over x' of ||K(x', .)||_2^2 for every member of ``specs``.

    Bandwidth kernels: the closed form, the same at every x'.  Projection
    kernels: :func:`~pcoselect.kernels.diag_sups` of the members with
    squared weights, since prod_q sum_j w_j^2 phi_j(x'_q)^2 is that
    kernel's diagonal; they share one table of suprema per basis.
    """
    if isinstance(specs[0], BandwidthSpec):
        return [float(section_sq_norm_points(spec, np.zeros((1, spec.d)))[0]) for spec in specs]
    return diag_sups([spec if spec.w is None else ProjectionSpec(spec.basis, spec.m, tuple(v * v for v in spec.w))
                      for spec in specs])


class _PsiShape:
    """One dictionary entry for the test-function moment bound."""

    def __init__(self, name, values_fn, factors=None, breakpoints_unit=()):
        self.name = name
        self.values_fn = values_fn
        self.factors = factors  # per-dim callables, or None when not a product
        self.breakpoints_unit = tuple(breakpoints_unit)

    def values(self, points) -> np.ndarray:
        return self.values_fn(points)


def _psi_dictionary(scn: Scenario, loss: LossKind, norm_grid) -> list:
    lo, hi = scn.support
    length = hi - lo

    def bump(a, b):
        def factor(x):
            return ((x >= lo + a * length) & (x <= lo + b * length)).astype(np.float64)

        return factor

    def wave(k):
        def factor(x):
            u = (np.asarray(x, dtype=np.float64) - lo) / length
            return np.sin(2.0 * np.pi * k * u) * ((u >= 0) & (u <= 1))

        return factor

    def product(factor):
        def values(points):
            pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
            out = np.ones(pts.shape[0])
            for q in range(pts.shape[1]):
                out *= factor(pts[:, q])
            return out

        return values

    shapes = [
        _PsiShape("bump_low", product(bump(0.15, 0.35)), [bump(0.15, 0.35)] * scn.d, (0.15, 0.35)),
        _PsiShape("bump_high", product(bump(0.55, 0.8)), [bump(0.55, 0.8)] * scn.d, (0.55, 0.8)),
        _PsiShape("wave_slow", product(wave(1)), [wave(1)] * scn.d),
        _PsiShape("wave_fast", product(wave(3)), [wave(3)] * scn.d),
    ]
    s_norm_sq = norm_grid.integrate(scn.true_s(loss, norm_grid.points) ** 2)
    if s_norm_sq > 0:
        scale = 1.0 / math.sqrt(s_norm_sq)
        shapes.append(
            _PsiShape("target_itself", lambda pts: scale * scn.true_s(loss, pts), None)
        )
    return shapes


def check_kernel_moment_conditions(
    family: KernelFamily,
    scn: Scenario,
    loss: LossKind,
    draws: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Verify the four family-level moment bounds under a known scenario.

    Needs the scenario (the bounds involve the design density's sup-norm
    and exact second moments), so it refuses nothing: raw-data callers
    simply have no way to construct the arguments.  Items (1) and (2) are
    deterministic quadrature comparisons; items (3) and (4) are Monte
    Carlo with ``draws`` replicates from counter-based streams, compared
    against their bound plus a 3-SE allowance (some bounds are attained
    with equality, where a noise-free comparison is impossible).
    """
    if scn.d != family.d:
        raise ConfigError("scenario and family dimensions differ")
    check_table_size("moment-conditions", draws=draws, d=scn.d)
    if isinstance(family.specs[0], ProjectionSpec):
        # the pointwise inner products evaluate the basis at every draw
        check_table_size("moment-conditions", draws=draws, m_max=max(max(spec.m) for spec in family.specs))
    first = family.specs[0]
    is_bandwidth = isinstance(first, BandwidthSpec)
    n = family.sample_cap
    f_sup = scn.f_sup_norm
    details: dict = {"draws": draws, "seed": seed, "family_size": len(family)}

    # (1) sup section norms vs a constant times n
    if is_bandwidth:
        c1 = first.base.l2_norm_sq**family.d
    else:
        c1 = first.basis.sup_bound_const**family.d
    sup_sections = max(_section_sups(family.specs))
    margin1 = c1 * n - sup_sections
    details["item1"] = {"bound": c1 * n, "observed": sup_sections, "margin": margin1}

    # (2) squared norms of the section averages vs the target norm
    quad = scn.quad_grid()
    s_norm_sq = quad.integrate(scn.true_s(loss, quad.points) ** 2)
    c2 = s_norm_sq  # the L1 norm factor of every shipped base kernel is 1
    worst_avg = -math.inf
    for spec in family.specs:
        brk = None
        if isinstance(spec, ProjectionSpec) and not spec.basis.nested:
            brk = [breakpoints(spec.basis, spec.m[q]) for q in range(spec.d)]
        grid = scn.quad_grid(breakpoints_per_dim=brk)
        vals = make_s_mean(spec, scn, loss, grid)(grid.points)
        worst_avg = max(worst_avg, grid.integrate(vals * vals))
    margin2 = c2 - worst_avg
    details["item2"] = {"bound": c2, "observed": worst_avg, "margin": margin2}

    # (3) pair inner products vs the variance scale.  The bound can hold
    # with equality (histogram family under a flat design), so the Monte
    # Carlo side gets a 3-SE allowance; without it the check would fail on
    # sampling noise about half the time in the tight cases.
    x1 = _design_draws(scn, stream(seed, 0, 0), draws)
    sample2 = _scenario_draws(scn, seed, draws)
    ell2 = loss.apply(sample2[1])
    c3 = f_sup
    sbars = {i: sbar_analytic(spec, scn, loss) for i, spec in enumerate(family.specs)}
    margin3 = math.inf
    for ia, a in enumerate(family.specs):
        for ib, b in enumerate(family.specs):
            inner = section_inner_pointwise(a, x1, b, sample2[0]) * ell2
            mean_sq, se = mean_se(inner * inner)
            margin3 = min(margin3, c3 * sbars[ib] + 3.0 * se - mean_sq)
    details["item3"] = {
        "bound_factor": c3,
        "margin": margin3,
        "pairs": len(family) ** 2,
        "mc_allowance": "3 SE",
    }

    # (4) inner products against the test-function dictionary
    norm_grid = scn.quad_grid()
    shapes = _psi_dictionary(scn, loss, norm_grid)
    c4 = f_sup
    margin4 = math.inf
    psi_rows = []
    for shape in shapes:
        brk = [sorted({scn.support[0] + u * (scn.support[1] - scn.support[0]) for u in shape.breakpoints_unit}) for _ in range(scn.d)]
        grid = scn.quad_grid(breakpoints_per_dim=brk)
        psi_vals = shape.values(grid.points)
        psi_norm_sq = grid.integrate(psi_vals * psi_vals)
        for spec in family.specs:
            mean_sq, se = _mean_sq_inner_with_function(spec, x1, shape, grid, psi_vals)
            gap = c4 * psi_norm_sq + 3.0 * se - mean_sq
            margin4 = min(margin4, gap)
            psi_rows.append({"psi": shape.name, "kernel": spec_id(spec), "margin": gap})
    details["item4"] = {
        "bound_factor": c4,
        "margin": margin4,
        "entries": len(psi_rows),
        "mc_allowance": "3 SE",
    }

    margins = [margin1, margin2, margin3, margin4]
    worst = min(margins)
    return CheckReport(
        name="moment-conditions",
        passed=worst >= -NUMERIC_TOL,
        margin=worst,
        details=details,
    )


def _design_draws(scn: Scenario, gen, draws: int) -> np.ndarray:
    """X of shape (draws, d) from the design density, one column after
    another from ``gen``."""
    den = scn.density()
    return np.column_stack([den.ppf(gen.random(draws)) for _ in range(scn.d)])


def _scenario_draws(scn: Scenario, seed: int, draws: int):
    """(X, Y) pairs from the scenario law, off the replication streams."""
    x = _design_draws(scn, stream(seed, 1, 0), draws)
    gen_e = stream(seed, 1, 1)
    eps = scn.noise.ppf(gen_e.random(draws))
    y = scn.b_eval(x) + scn.sigma_eval(x) * eps
    return x, y


def _mean_sq_inner_with_function(spec, x1: np.ndarray, shape: _PsiShape, grid, psi_vals: np.ndarray) -> tuple[float, float]:
    """MC mean and standard error of <K(X, .), psi>^2 over the supplied draws.

    A projection member at d >= 2 integrates a product psi factor by factor;
    otherwise the inner products are a weighted kernel sum over the grid.
    """
    if isinstance(spec, ProjectionSpec) and spec.d > 1 and shape.factors is not None:
        vals = np.ones(x1.shape[0])
        for q, mq in enumerate(spec.m):
            lo, hi = spec.basis.support
            brk = list(breakpoints(spec.basis, mq))
            nodes, weights = composite_rule(lo, hi, brk)
            coeff = basis_matrix(spec.basis, mq, nodes).T @ (weights * shape.factors[q](nodes))
            vals *= basis_matrix(spec.basis, mq, x1[:, q]) @ (spec.weights_for(mq) * coeff)
    else:
        vals = _kernel_sums([spec], grid.points, grid.weights * psi_vals, x1)[0]
    return mean_se(vals * vals)


# ---------------------------------------------------------------------------
# L1 section bound and the trigonometric alternative
# ---------------------------------------------------------------------------


def check_l1_section_bound(family: KernelFamily, seed: int = 0) -> CheckReport:
    """sup over members and 16 random anchors of ||K(x', .)||_1^2 vs its constant.

    Bandwidth families: the L1 norm factorizes to ||k||_1^d = 1 exactly,
    and no anchor is drawn.
    Histogram families: the norm is the anchored cell weight, at most 1.
    Trigonometric (and Legendre) families admit no order-uniform constant;
    the report is marked not applicable / failed with the observed growth,
    and points at the spectral boundedness route instead.
    """
    first = family.specs[0]
    if isinstance(first, BandwidthSpec):
        bound = first.base.l1_norm ** (2 * family.d)
        observed = max(section_l1_norm(s, np.zeros(s.d)) ** 2 for s in family.specs)
        return CheckReport(
            name="l1-section-bound",
            passed=observed <= bound + NUMERIC_TOL,
            margin=bound - observed,
            details={"bound": bound, "observed": observed},
        )
    lo, hi = first.basis.support
    anchors = lo + (hi - lo) * stream(seed, 0, 0).random((16, family.d))
    if first.basis.kind is BasisKind.REGULAR_HISTOGRAM:
        observed = -math.inf
        for spec in family.specs:
            vals = np.array([section_l1_norm(spec, p) ** 2 for p in anchors])
            # the histogram L1 norm is piecewise constant in the anchor; a
            # full scan adds nothing beyond the per-cell values
            per_cell = max(
                float(np.max(spec.weights_for(mq))) for mq in spec.m
            ) ** (2 * spec.d)
            observed = max(observed, float(np.max(vals)), per_cell)
        bound = 1.0
        return CheckReport(
            name="l1-section-bound",
            passed=observed <= bound + NUMERIC_TOL,
            margin=bound - observed,
            details={"bound": bound, "observed": observed},
        )
    # no order-uniform constant: report the growth and fail the condition
    by_member = {}
    for spec in family.specs:
        worst = max(section_l1_norm(spec, p) ** 2 for p in anchors)
        by_member[spec_id(spec)] = worst
    return CheckReport(
        name="l1-section-bound",
        passed=False,
        applicable=False,
        margin=-math.inf,
        details={"observed_by_member": by_member},
        notes=(
            "not applicable: no order-uniform L1 section bound exists for this "
            "basis (section L1 norms grow with the order); boundedness is "
            "established through the spectral route instead, see the "
            "trig-boundedness suite",
        ),
    )


def check_trig_spectral_boundedness(
    scn: Scenario,
    loss: LossKind,
    m_values=(4, 8, 16, 32),
    draws: int = 10_000,
    seed: int = 0,
) -> CheckReport:
    """Trend test for E sup <K(X, .), s_K'>^2 over growing maximal order.

    For nested trigonometric families the inner product of a kernel
    section with a section average is a partial sum of the spectral
    coefficients of the target, so the supremum over pairs reduces to a
    running maximum of squared partial sums.  Boundedness shows up as the
    absence of a significantly positive least-squares slope across
    ``m_values`` (one-sided 5% level).
    """
    if scn.d != 1:
        raise ConfigError("the spectral boundedness check runs on d = 1 scenarios")
    if scn.support != (0.0, 1.0):
        raise ConfigError("trigonometric families live on support [0, 1]")
    if len(m_values) < 3 or len(set(m_values)) < 2:
        raise ConfigError(
            f"the trend test needs at least three orders in m_values, not all equal (got {list(m_values)})"
        )
    check_table_size("trig-bound", draws=draws, m_values=max(m_values))
    basis = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=max(m_values))
    m_top = max(m_values)
    grid = scn.quad_grid(refine=8)
    s_vals = scn.true_s(loss, grid.points)
    coeff = basis_matrix(basis, m_top, grid.points[:, 0]).T @ (grid.weights * s_vals)
    x1 = _design_draws(scn, stream(seed, 0, 0), draws)[:, 0]
    partial = np.cumsum(basis_matrix(basis, m_top, x1) * coeff[None, :], axis=1)
    partial_sq = partial * partial
    means, ses = [], []
    for m_v in m_values:
        mean, se = mean_se(np.max(partial_sq[:, :m_v], axis=1))
        means.append(mean)
        ses.append(se)
    x = np.asarray(m_values, dtype=np.float64)
    y = np.asarray(means)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * y) / sxx)
    resid = y - y.mean() - slope * xc
    df = len(x) - 2
    se_slope = math.sqrt(float(np.sum(resid**2)) / df / sxx)
    # A target whose spectrum dies before the smallest order makes every
    # mean identical: slope and residuals both drop to rounding scale, and
    # their ratio is noise, not a trend.  Slopes below the rounding floor
    # count as flat; a perfectly linear positive trend (zero residuals,
    # real slope) counts as unbounded growth.
    slope_floor = 64.0 * np.finfo(np.float64).eps * float(np.max(np.abs(y))) / (x.max() - x.min())
    if slope <= slope_floor:
        t_stat = 0.0
    elif se_slope == 0.0:
        t_stat = math.inf
    else:
        t_stat = slope / se_slope
    from scipy import stats

    t_crit = float(stats.t.ppf(0.95, df))
    passed = t_stat <= t_crit
    return CheckReport(
        name="trig-boundedness",
        passed=passed,
        margin=t_crit - t_stat,
        details={
            "m_values": list(m_values),
            "means": means,
            "ses": ses,
            "slope": slope,
            "slope_se": se_slope,
            "t_stat": t_stat,
            "t_crit": t_crit,
            "draws": draws,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# sine tail and Legendre bounds
# ---------------------------------------------------------------------------


def check_sine_tail_bound(p_max: int = 200, grid_points: int = 10_000) -> CheckReport:
    """Scan the partial sine series tail inequality; margin is worst slack."""
    check_table_size("sine-tail", p_max=p_max, grid_points=grid_points)
    worst = sine_tail_max_violation(p_max, grid_points)
    return CheckReport(
        name="sine-tail",
        passed=worst <= 0.0,
        margin=-worst,
        details={"p_max": p_max, "grid_points": grid_points, "worst_excess": worst},
    )


def check_legendre_boundedness(source, m_max: int = 50, eval_points: int = 2048) -> CheckReport:
    """Expected-diagonal bound for Legendre families under a smooth density.

    ``source`` is a Scenario on support [-1, 1] (d = 1) or a Density on
    [-1, 1]; the density must be twice continuously differentiable.  The
    check compares max over orders m <= m_max and anchors x' of
    |E sum_j xi_j(X) xi_j(x')| with 2 max(2||f'||, ||f''||) zeta(3/2).
    """
    if isinstance(source, Scenario):
        if source.d != 1:
            raise ConfigError("the Legendre check runs on d = 1")
        density = source.density()
    elif isinstance(source, Density):
        density = source
    else:
        raise ConfigError("source must be a Scenario or a Density")
    if (density.lo, density.hi) != (-1.0, 1.0):
        raise ConfigError("Legendre families live on support [-1, 1]")
    if not density.twice_differentiable:
        raise ConfigError("the Legendre bound needs a twice differentiable density")
    check_table_size("legendre-bound", m_max=m_max, eval_points=eval_points)
    basis = BasisFamily(BasisKind.LEGENDRE, m_cap=max(m_max, 64))
    nodes, weights = composite_rule(-1.0, 1.0, np.linspace(-1, 1, 9)[1:-1])
    coeff = basis_matrix(basis, m_max, nodes).T @ (weights * density.pdf(nodes))
    anchors = np.linspace(-1.0, 1.0, eval_points)
    partial = np.cumsum(basis_matrix(basis, m_max, anchors) * coeff[None, :], axis=1)
    observed = float(np.max(np.abs(partial)))
    d1, d2 = density.deriv_sup_norms()
    c1 = max(2.0 * d1, d2)
    from scipy import special

    bound = 2.0 * c1 * float(special.zeta(1.5))
    return CheckReport(
        name="legendre-bound",
        passed=observed <= bound + NUMERIC_TOL,
        margin=bound - observed,
        details={
            "bound": bound,
            "observed": observed,
            "m_max": m_max,
            "curvature_const": c1,
            "density": density.kind.value,
        },
    )
