"""Monte Carlo experiments: risk curves, oracle comparisons, concentration.

All experiments share the same discipline: replication r of a scenario is
regenerated from its own counter-based stream, per-replication work is a
pure function of r, and aggregation happens in replication order with a
fixed pairwise reduction.  ``threads`` caps the processes (this one and
up to ``threads - 1`` workers, at most the usable CPUs) that
:func:`~pcoselect.numerics.pooled_map` spreads whole replications over,
so ``threads=8`` and ``threads=1`` produce byte-identical reports.  Each
experiment sends a module-level replication builder and its pickled
arguments (the family or kernels, the scenario, the loss and the grid
values) to the workers of the process's one kept pool, so repeated
experiments fork no new process.  A replication's own bandwidth sweep
and grid evaluation run serially in whichever process computes it, so no
more than ``threads`` processes compute at once.

Risk grids are evaluated for many members at once by
:func:`~pcoselect.estimator.estimate_on_grid`, whose block widths depend
on the sample size and dimension only, so the worker count never changes
a reduction order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .estimator import GramTables, LossKind, estimate_on_grid, u_statistic, v_statistic, w_statistic
from .kernels import BandwidthSpec, KernelFamily, spec_id, spec_to_config
from .numerics import mean_se, pooled_map
from .quadrature import IntegrationGrid, composite_grid
from .selection import pco_select
from .simulation import Scenario, make_s_mean, sbar_analytic

SCHEMA_VERSION = 1

# Estimates held at once by one replication of :func:`oracle_experiment`
# (32 MB): a family whose members times risk-grid points exceed this is
# evaluated in groups of members.  The 2048-point d = 1 grid takes up to
# 2048 members in one call.
_GRID_ESTIMATES = 1 << 22


@dataclass(frozen=True)
class MCRisk:
    """Monte Carlo L2 risk of one kernel under one scenario and loss."""

    mean: float
    se: float
    per_replication: np.ndarray


def _risk_replication(spec, scn: Scenario, loss: LossKind, grid: IntegrationGrid, target: np.ndarray):
    """The replication of :func:`mc_risk`: ``fn(rep)`` is the risk of ``spec``."""

    def one(rep: int) -> float:
        sample = scn.generate(rep, loss)
        shat = estimate_on_grid(spec, sample, grid.points)
        return grid.integrate((shat - target) ** 2)

    return one


def mc_risk(spec, scn: Scenario, loss: LossKind, grid: IntegrationGrid | None = None, threads: int = 1) -> MCRisk:
    """MC estimate of E ||shat_K - s||_2^2 over the scenario support."""
    if grid is None:
        grid = scn.risk_grid()
    args = (spec, scn, loss, grid, scn.true_s(loss, grid.points))
    risks = np.asarray(pooled_map(_risk_replication, args, range(scn.replications), workers=threads))
    mean, se = mean_se(risks)
    return MCRisk(mean, se, risks)


@dataclass(frozen=True)
class RiskReport:
    """Risk landscape of a family: every member, the oracle, and PCO.

    ``ratio`` compares the PCO risk with the oracle (best in-family) risk.
    ``bound_remainder`` is the coarse log(n)^5 / n slack term and
    ``bound_ok`` records whether the PCO risk stays below
    2 * oracle + 5 * remainder, the sanity form of the selection
    guarantee at desk scale.
    """

    family_ids: tuple
    loss: LossKind
    n: int
    replications: int
    risks: np.ndarray
    risk_ses: np.ndarray
    oracle_index: int
    oracle_risk: float
    pco_risk: float
    pco_se: float
    ratio: float
    k0_index: int
    k0_selected_fraction: float
    chosen_indices: np.ndarray
    bound_remainder: float
    bound_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "loss": self.loss.value,
            "n": self.n,
            "replications": self.replications,
            "kernels": [
                {"index": i, "id": kid, "risk": float(r), "se": float(s)}
                for i, (kid, r, s) in enumerate(zip(self.family_ids, self.risks, self.risk_ses))
            ],
            "oracle_index": self.oracle_index,
            "oracle_risk": self.oracle_risk,
            "pco_risk": self.pco_risk,
            "pco_se": self.pco_se,
            "ratio": self.ratio,
            "k0_index": self.k0_index,
            "k0_selected_fraction": self.k0_selected_fraction,
            "selection_counts": {
                str(i): int(np.sum(self.chosen_indices == i)) for i in range(len(self.family_ids))
            },
            "bound_remainder": self.bound_remainder,
            "bound_ok": self.bound_ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "id", "risk", "se", "is_oracle", "is_k0", "times_selected"])
        for i, kid in enumerate(self.family_ids):
            writer.writerow(
                [
                    i,
                    kid,
                    repr(float(self.risks[i])),
                    repr(float(self.risk_ses[i])),
                    int(i == self.oracle_index),
                    int(i == self.k0_index),
                    int(np.sum(self.chosen_indices == i)),
                ]
            )
        return buf.getvalue()


def _oracle_replication(family: KernelFamily, scn: Scenario, loss: LossKind, grid: IntegrationGrid,
                        target: np.ndarray, group: int):
    """The replication of :func:`oracle_experiment`: ``fn(rep)`` gives every
    member's risk and the index PCO chose, on one sample."""

    def one(rep: int):
        sample = scn.generate(rep, loss)
        tables = GramTables(sample)
        tables.reserve(family.specs, family.k0)
        report = pco_select(family, sample, tables)
        risks = []
        for start in range(0, len(family), group):
            shats = estimate_on_grid(family.specs[start : start + group], tables, grid.points)
            risks.extend(grid.integrate((shat - target) ** 2) for shat in shats)
        return np.asarray(risks), report.chosen_index

    return one


def oracle_experiment(family: KernelFamily, scn: Scenario, loss: LossKind, threads: int = 1) -> RiskReport:
    """Risk of every family member plus the PCO-selected kernel, jointly.

    Each replication reuses one sample for all members: the per-member
    risks, the selection run, and the risk of the selected member are all
    computed on the same data, so the PCO column is directly comparable
    with the in-family oracle column.  The risk grid is evaluated for the
    whole family in one :func:`estimate_on_grid` call on the selection's
    tables (in groups of members when the estimates would pass 32 MB):
    bandwidth members share the squared differences to each block of grid
    points, and a nested projection family evaluates its basis at the grid
    once per dimension, at the top order, and expands the coefficient
    tensors selection already built.  Each member's risk is the same
    number whatever the grouping.
    """
    grid = scn.risk_grid()
    n_k = len(family)
    args = (family, scn, loss, grid, scn.true_s(loss, grid.points), max(1, _GRID_ESTIMATES // len(grid.points)))
    results = pooled_map(_oracle_replication, args, range(scn.replications), workers=threads)
    risk_rows = np.stack([r for r, _ in results])
    chosen = np.asarray([c for _, c in results], dtype=np.int64)
    means = np.empty(n_k)
    ses = np.empty(n_k)
    for i in range(n_k):
        means[i], ses[i] = mean_se(risk_rows[:, i])
    pco_per_rep = risk_rows[np.arange(len(chosen)), chosen]
    pco_mean, pco_se = mean_se(pco_per_rep)
    oracle_index = int(np.argmin(means))
    oracle_risk = float(means[oracle_index])
    remainder = math.log(scn.n) ** 5 / scn.n
    return RiskReport(
        family_ids=tuple(spec_id(s) for s in family.specs),
        loss=loss,
        n=scn.n,
        replications=scn.replications,
        risks=means,
        risk_ses=ses,
        oracle_index=oracle_index,
        oracle_risk=oracle_risk,
        pco_risk=pco_mean,
        pco_se=pco_se,
        ratio=pco_mean / oracle_risk if oracle_risk > 0 else math.inf,
        k0_index=family.k0_index,
        k0_selected_fraction=float(np.mean(chosen == family.k0_index)),
        chosen_indices=chosen,
        bound_remainder=remainder,
        bound_ok=pco_mean <= 2.0 * oracle_risk + 5.0 * remainder,
    )


# ---------------------------------------------------------------------------
# concentration of the centered second-order statistics
# ---------------------------------------------------------------------------


def _section_pad(spec) -> float:
    """How far kernel sections reach beyond an anchor inside the support."""
    if isinstance(spec, BandwidthSpec):
        return spec.base.tail_halfwidth * max(spec.h)
    return 0.0


def statistic_grid(a, b, scn: Scenario, refine: int = 4, breakpoints_per_dim=None) -> IntegrationGrid:
    """Integration grid covering the full reach of both kernels' sections.

    Bandwidth sections anchored inside the support extend past it by the
    base kernel's tail half-width times the bandwidth; inner products of
    sections and section averages must be integrated over that enlarged
    box or the pair statistic picks up a positive boundary bias.
    Projection sections vanish off the basis support, so no padding.
    Support edges and any supplied breakpoints become panel boundaries.
    """
    pad = max(_section_pad(a), _section_pad(b))
    lo, hi = scn.support
    cuts = set(np.linspace(lo, hi, refine + 1))
    per_dim = []
    for q in range(scn.d):
        extra = [] if breakpoints_per_dim is None else list(breakpoints_per_dim[q])
        per_dim.append(sorted(cuts | set(extra)))
    return composite_grid([lo - pad] * scn.d, [hi + pad] * scn.d, per_dim)


@dataclass(frozen=True)
class StatisticSummary:
    name: str
    mean: float
    se: float
    target: float

    @property
    def z(self) -> float:
        return (self.mean - self.target) / self.se if self.se > 0 else 0.0

    @property
    def within_3se(self) -> bool:
        return abs(self.mean - self.target) <= 3.0 * self.se


@dataclass(frozen=True)
class ConcentrationReport:
    """MC means of the centered pair/variance/bias statistics vs targets.

    The pair statistic U and the cross term W are exactly centered, so
    their targets are zero; the variance statistic V targets
    sbar - ||s_K||_2^2, both terms evaluated by quadrature.
    """

    loss: LossKind
    n: int
    replications: int
    u: StatisticSummary
    v: StatisticSummary
    w: StatisticSummary

    def to_json_dict(self) -> dict:
        def enc(s: StatisticSummary) -> dict:
            return {
                "name": s.name,
                "mean": s.mean,
                "se": s.se,
                "target": s.target,
                "z": s.z,
                "within_3se": s.within_3se,
            }

        return {
            "schema_version": SCHEMA_VERSION,
            "loss": self.loss.value,
            "n": self.n,
            "replications": self.replications,
            "statistics": [enc(self.u), enc(self.v), enc(self.w)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _concentration_replication(a, b, scn: Scenario, loss: LossKind, grid: IntegrationGrid,
                               sa_grid: np.ndarray, sb_grid: np.ndarray, s_grid: np.ndarray):
    """The replication of :func:`concentration_experiment`: ``fn(rep)`` is
    ``(U(a, b), V(a), W(a, b))`` on one sample."""

    def one(rep: int):
        sample = scn.generate(rep, loss)
        return (
            u_statistic(a, b, sample, sa_grid, sb_grid, grid),
            v_statistic(a, sample, sa_grid, grid),
            w_statistic(a, b, sample, sa_grid, sb_grid, s_grid, grid),
        )

    return one


def concentration_experiment(
    a,
    b,
    scn: Scenario,
    loss: LossKind,
    threads: int = 1,
    grid: IntegrationGrid | None = None,
) -> ConcentrationReport:
    """Replicate the centered statistics for a kernel pair (a, b).

    Per replication this draws a fresh sample and evaluates the centered
    pair statistic U(a, b) (:func:`~pcoselect.estimator.u_statistic`), the
    variance statistic V(a) (:func:`~pcoselect.estimator.v_statistic`) and
    the centered cross term W(a, b)
    (:func:`~pcoselect.estimator.w_statistic`).  The section averages and
    the target are fixed functions of the scenario, evaluated once on the
    quadrature grid and passed to every replication as grid values.  No
    replication forms an n x n table.  The default grid pads the
    support by the kernels' section reach (see :func:`statistic_grid`);
    pass a grid with kernel-aware breakpoints for piecewise kernels so the
    cross terms stay quadrature-exact.
    """
    if grid is None:
        grid = statistic_grid(a, b, scn)
    sa_grid = make_s_mean(a, scn, loss, grid)(grid.points)
    sb_grid = make_s_mean(b, scn, loss, grid)(grid.points)
    args = (a, b, scn, loss, grid, sa_grid, sb_grid, scn.true_s(loss, grid.points))
    results = pooled_map(_concentration_replication, args, range(scn.replications), workers=threads)
    u_vals = np.asarray([r[0] for r in results])
    v_vals = np.asarray([r[1] for r in results])
    w_vals = np.asarray([r[2] for r in results])
    sbar_target = sbar_analytic(a, scn, loss)
    v_target = sbar_target - grid.integrate(sa_grid * sa_grid)
    u_mean, u_se = mean_se(u_vals)
    v_mean, v_se = mean_se(v_vals)
    w_mean, w_se = mean_se(w_vals)
    return ConcentrationReport(
        loss=loss,
        n=scn.n,
        replications=scn.replications,
        u=StatisticSummary("pair", u_mean, u_se, 0.0),
        v=StatisticSummary("variance", v_mean, v_se, v_target),
        w=StatisticSummary("cross", w_mean, w_se, 0.0),
    )
