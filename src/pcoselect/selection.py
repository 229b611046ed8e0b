"""Kernel selection by penalized comparison to overfitting (PCO).

The selected kernel minimizes, over the family,

    crit(K) = ||shat_K - shat_K0||_2^2 + pen(K),

where K0 is the family's overfitting member (largest diagonal supremum)
and the penalty is the sampled cross-section inner product

    pen(K) = (2 / n^2) sum_i <K(., X_i), K0(., X_i)>_2 ell(Y_i)^2.

Both terms come from one :class:`GramTables`.  The distance expands into
three loss-weighted totals and the penalty is the diagonal of the (K, K0)
table; no n x n table is formed for either kind of family.  For bandwidth
kernels the 2N - 1 totals (K, K) and (K, K0) of an N-member family are
reduced in one sweep over the pairwise differences of the sample, in
fixed row blocks with O(n) scratch memory allocated once: each block's
entries are contracted with the loss weights by BLAS dot products, and at
d >= 2 each per-dimension Gaussian factor is evaluated once per block and
shared by the pairs that use it.  A large sweep spreads its blocks over
the worker pool, processes forked once and kept, up to the usable
CPUs (``taskset`` restricts them, and inside a report replication it runs
serially), with the same bits at any worker count; see
:mod:`~pcoselect.estimator`.  The diagonal is a
constant.  For projection kernels the totals are quadratic forms in the
coefficient tensors T = sum_i ell_i (x)_q phi^{m_q}(X_iq), and the
diagonal is an O(n sum_q m_q) row sum over basis values at the sample.
Each nested basis is evaluated once per sample and dimension, at the
family's largest order; memory stays at n sum_q m_q values plus
prod_q m_q <= n per tensor.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .estimator import GramTables, LossKind, Sample, _kernel_sums, criterion_distance
from .kernels import BandwidthSpec, KernelFamily, spec_id, spec_to_config
from .numerics import pairwise_sum

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


def penalty(spec, k0, sample: Sample, tables: GramTables | None = None) -> float:
    """(2/n^2) sum_i <K(., X_i), K0(., X_i)>_2 ell(Y_i)^2."""
    if tables is None:
        tables = GramTables(sample)
    diag = tables.diag(spec, k0)
    ell = sample.loss_values
    return 2.0 * pairwise_sum(diag * ell * ell) / sample.n**2


def _smoothness_key(spec):
    # Smaller key = smoother: large bandwidth products, small order products.
    if isinstance(spec, BandwidthSpec):
        return -float(np.prod(spec.h))
    return float(np.prod(spec.m))


@dataclass(frozen=True)
class SelectionRow:
    index: int
    spec: object
    distance: float
    penalty: float
    total: float


@dataclass(frozen=True)
class SelectionReport:
    """Per-kernel criterion decomposition plus the selected index."""

    loss: LossKind
    n: int
    d: int
    k0_index: int
    chosen_index: int
    rows: tuple

    @property
    def chosen(self):
        return self.rows[self.chosen_index].spec

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "loss": self.loss.value,
            "n": self.n,
            "d": self.d,
            "k0_index": self.k0_index,
            "chosen_index": self.chosen_index,
            "rows": [
                {
                    "index": r.index,
                    "id": spec_id(r.spec),
                    "spec": spec_to_config(r.spec),
                    "distance": r.distance,
                    "penalty": r.penalty,
                    "total": r.total,
                    "chosen": r.index == self.chosen_index,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "id", "distance", "penalty", "total", "is_k0", "is_chosen"])
        for r in self.rows:
            writer.writerow(
                [
                    r.index,
                    spec_id(r.spec),
                    repr(r.distance),
                    repr(r.penalty),
                    repr(r.total),
                    int(r.index == self.k0_index),
                    int(r.index == self.chosen_index),
                ]
            )
        return buf.getvalue()


def pco_select(family: KernelFamily, sample: Sample, tables: GramTables | None = None) -> SelectionReport:
    """Run the PCO criterion over a family and pick the minimizer.

    Exact ties on the criterion go to the smoothest candidate (largest
    bandwidth product, or smallest order product), then to the lowest
    index.  Cross sections of the shipped kernel families are pointwise
    nonnegative, so a negative penalty can only come from a broken Gram
    table and raises instead of being silently accepted.
    """
    if sample.d != family.d:
        raise DimensionError(f"sample dimension {sample.d} != family dimension {family.d}")
    if family.sample_cap != sample.n:
        log.warning(
            "family was sized for n=%d but the sample has n=%d; proceeding with the sample",
            family.sample_cap,
            sample.n,
        )
    if tables is None:
        tables = GramTables(sample)
        tables.reserve(family.specs, family.k0)
    k0 = family.k0
    rows = []
    for idx, spec in enumerate(family.specs):
        dist = criterion_distance(spec, k0, sample, tables)
        pen = penalty(spec, k0, sample, tables)
        if pen < 0.0:
            raise RuntimeError(
                f"negative penalty {pen!r} for {spec_id(spec)}: Gram tables are inconsistent"
            )
        rows.append(SelectionRow(idx, spec, dist, pen, dist + pen))
    chosen = min(
        range(len(rows)),
        key=lambda i: (rows[i].total, _smoothness_key(rows[i].spec), i),
    )
    return SelectionReport(
        loss=sample.loss,
        n=sample.n,
        d=sample.d,
        k0_index=family.k0_index,
        chosen_index=chosen,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# quotient estimation
# ---------------------------------------------------------------------------


class OutsideDomain:
    """Marker for evaluation points where the density estimate is too small."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OutsideDomain"


OUTSIDE_DOMAIN = OutsideDomain()


@dataclass(frozen=True)
class QuotientConfig:
    """Threshold policy for quotient estimates.

    ``beta`` is the lower cutoff on the density estimate; None applies the
    default schedule n^(-1/4) at the sample size in use.  The cutoff must
    stay positive, and the default schedule decreases to zero, so larger
    samples trust smaller density values.
    """

    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and positive (got {self.beta!r})")

    def beta_at(self, n: int) -> float:
        if self.beta is not None:
            return self.beta
        return float(n) ** -0.25


def quotient_estimate(k_num, k_den, sample: Sample, cfg: QuotientConfig, x):
    """Ratio estimate shat_num(x) / shat_den(x), or OUTSIDE_DOMAIN.

    :func:`quotient_on_grid` at the one point x: OUTSIDE_DOMAIN where the
    density estimate falls below the threshold, and the float otherwise.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    values, inside = quotient_on_grid(k_num, k_den, sample, cfg, x[None, :])
    return float(values[0]) if inside[0] else OUTSIDE_DOMAIN


def quotient_on_grid(k_num, k_den, sample: Sample, cfg: QuotientConfig, points):
    """Vectorized quotient shat_num / shat_den: (values, inside_mask), with
    values NaN outside.

    The numerator keeps the sample's loss map; the denominator always
    re-estimates with the unit loss (a density estimate on the same X).
    Both are one kernel pass (:func:`~pcoselect.estimator._kernel_sums`)
    over the distinct members among (k_den, k_num), with the weight rows
    1 and ell: when the two members are equal, every kernel block is
    formed once and contracted with both rows.  The values are the bits
    of two separate estimates.  Points where the density estimate falls
    below the threshold are flagged rather than divided through; the
    boundary case shat_den(x) == beta_n counts as inside.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    members = [k_den] if k_num == k_den else [k_den, k_num]
    weights = np.stack([np.ones(sample.n), sample.loss_values])
    sums = _kernel_sums(members, sample.x, weights, points, sample.n)
    den, num = sums[0, 0], sums[-1, 1]
    inside = den >= cfg.beta_at(sample.n)
    values = np.full(points.shape[0], np.nan)
    values[inside] = num[inside] / den[inside]
    return values, inside
