"""Kernel selection by penalized comparison to overfitting (PCO).

The selected kernel minimizes, over the family,

    crit(K) = ||shat_K - shat_K0||_2^2 + pen(K),

where K0 is the family's overfitting member (largest diagonal supremum)
and the penalty is the sampled cross-section inner product

    pen(K) = (2 / n^2) sum_i <K(., X_i), K0(., X_i)>_2 ell(Y_i)^2.

Both terms come from one call, :meth:`GramTables.family_rows
<pcoselect.estimator.GramTables.family_rows>`, whether the tables are
:func:`pco_select`'s own or the caller's: the distance expands into three
loss-weighted totals and the penalty is the diagonal of the (K, K0)
table.  That call and the one-pair reads of :func:`penalty` and
:func:`~pcoselect.estimator.criterion_distance` go through the one reader
of :class:`~pcoselect.estimator.GramTables`, which keeps nothing per pair,
so a pair gets the same bits alone as in its family.  No n x n table is
formed for either kind of family.  Bandwidth totals are one call of
:func:`~pcoselect.estimator.bandwidth_totals` per family, a moment series
for each wide Gaussian pair at d = 1 and one sweep over the pairwise
differences for the rest, spread over the worker pool once it is large,
with the same bits at any worker count; the diagonal is a constant.
Projection totals are quadratic forms in the coefficient tensors
T = sum_i ell_i (x)_q phi^{m_q}(X_iq), read with the diagonals off prefix
tables over the basis index for nested bases and off cell overlaps for
histograms; see :mod:`~pcoselect.estimator` for both and their memory.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .estimator import GramTables, LossKind, Sample, _distance, _kernel_sums
from .kernels import KernelFamily, smoothness_key, spec_id, spec_to_config
from .numerics import pairwise_sum

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


def _penalty(diag: np.ndarray, ell: np.ndarray, n: int) -> float:
    """(2/n^2) sum_i diag_i ell_i^2, from the (K, K0) diagonal."""
    return 2.0 * pairwise_sum(diag * ell * ell) / n**2


def penalty(spec, k0, sample: Sample, tables: GramTables | None = None) -> float:
    """(2/n^2) sum_i <K(., X_i), K0(., X_i)>_2 ell(Y_i)^2."""
    if tables is None:
        tables = GramTables(sample)
    return _penalty(tables.diag(spec, k0), sample.loss_values, sample.n)


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
    table and raises instead of being silently accepted.  A sample whose
    values overflow the criterion's sums, such as a response near 1e154
    under the identity loss, raises a DataError.
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
    with np.errstate(over="ignore", invalid="ignore"):
        own, cross, diags = tables.family_rows(family.specs, family.k0)
        pens = [_penalty(diag, sample.loss_values, sample.n) for diag in diags]
    rows = []
    for idx, (spec, pen) in enumerate(zip(family.specs, pens)):
        dist = _distance(own[idx], cross[idx], own[family.k0_index], sample.n)
        if not (math.isfinite(dist) and math.isfinite(pen)):
            raise DataError(f"the criterion of {spec_id(spec)} is not finite (distance {dist!r}, penalty {pen!r}):"
                            " the sample's values are too large for float64 sums")
        if pen < 0.0:
            raise RuntimeError(
                f"negative penalty {pen!r} for {spec_id(spec)}: Gram tables are inconsistent"
            )
        rows.append(SelectionRow(idx, spec, dist, pen, dist + pen))
    chosen = min(
        range(len(rows)),
        key=lambda i: (rows[i].total, smoothness_key(rows[i].spec), i),
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
