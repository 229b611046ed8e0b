"""The weighted kernel estimator and its empirical L2 geometry.

Given a sample (X_1, Y_1), ..., (X_n, Y_n) and a loss map ell, the
estimator studied throughout this package is

    shat_K(x) = (1/n) sum_i K(X_i, x) ell(Y_i),

whose expectation is the section average s_K = E(K(X_1, .) ell(Y_1)); the
target of the whole construction is s(x) = E(ell(Y) | X = x) f(x), with
f the design density.  The three shipped loss maps turn one estimator
into three: ell = 1 estimates f itself, ell = identity estimates b f in a
regression model Y = b(X) + noise, and ell = square estimates the second
conditional moment times f (the noise-variance component when b = 0).

Empirical inner products <shat_a, shat_b>_2 are double sums over the Gram
entries <K_a(X_i, .), K_b(X_j, .)>_2.  :class:`GramTables` caches them per
kernel pair and reduces them in a fixed order, so repeated and
thread-pooled runs agree bit for bit.  A bandwidth pair sums the n x n
Gram table itself.  A projection estimator is a coefficient tensor
instead: with T = sum_i ell_i (x)_q phi^{m_q}(X_iq), of shape
(m_1, ..., m_d),

    shat(x) = (1/n) sum_j w_j T_j prod_q phi_{j_q}(x_q),

so the totals are small quadratic forms in T, the penalty diagonals are
row sums over basis values at the sample, and risk-grid values expand T
at the grid points.  These cost O(n prod_q m_q) time and O(n sum_q m_q)
memory, and the families keep prod_q m_q <= n; no projection path on
selection or experiments builds an n x n table.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bases import BasisKind, basis_matrix, cross_gram, histogram_cells
from .errors import DataError
from .kernels import (
    ProjectionSpec,
    histogram_cell_inner,
    kernel_matrix,
    section_inner_matrix,
    section_inner_pointwise,
    section_sq_norm_points,
    spec_id,
)
from .numerics import GRAM_BLOCK_ROWS, combine_partials, pairwise_sum, weighted_gram_total

log = logging.getLogger(__name__)

NEGATIVE_DISTANCE_TOL = 1e-10


class LossKind(enum.Enum):
    """The loss map ell applied to responses before averaging."""

    ONE = "one"
    IDENTITY = "identity"
    SQUARE = "square"

    def apply(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if self is LossKind.ONE:
            return np.ones_like(y)
        if self is LossKind.IDENTITY:
            return y.copy()
        return y * y


@dataclass(frozen=True)
class Sample:
    """Design points x (n, d), responses y (n,), and the attached loss map."""

    x: np.ndarray
    y: np.ndarray
    loss: LossKind = LossKind.ONE

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise DataError("x and y row counts differ")
        if x.shape[0] < 1:
            raise DataError("empty sample")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("sample contains non-finite values")
        object.__setattr__(self, "x", np.ascontiguousarray(x))
        object.__setattr__(self, "y", np.ascontiguousarray(y))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @cached_property
    def loss_values(self) -> np.ndarray:
        return self.loss.apply(self.y)

    def with_loss(self, loss: LossKind) -> "Sample":
        return replace(self, loss=loss)


def read_sample_csv(path, loss: LossKind = LossKind.ONE) -> Sample:
    """Load a sample from CSV with header x1,...,xd,y.

    Rows containing non-finite or unparseable values are dropped with one
    counted warning; a missing, empty, or headerless file raises DataError.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot read data file ({exc.strerror})") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [c.strip() for c in header]
        d = len(header) - 1
        if d < 1 or header[-1] != "y" or header[:-1] != [f"x{q + 1}" for q in range(d)]:
            raise DataError(f"{path}: header must be x1,...,xd,y (got {','.join(header)})")
        rows, rejected = [], 0
        for line in reader:
            if not line:
                continue
            if len(line) != d + 1:
                rejected += 1
                continue
            try:
                vals = [float(v) for v in line]
            except ValueError:
                rejected += 1
                continue
            if not all(np.isfinite(v) for v in vals):
                rejected += 1
                continue
            rows.append(vals)
    if rejected:
        log.warning("%s: dropped %d malformed or non-finite rows", path, rejected)
    if not rows:
        raise DataError(f"{path}: no usable data rows")
    arr = np.asarray(rows, dtype=np.float64)
    return Sample(arr[:, :d], arr[:, d], loss)


def write_sample_csv(path, x: np.ndarray, y: np.ndarray):
    """Write a sample in the x1,...,xd,y layout with full-precision floats."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{q + 1}" for q in range(x.shape[1])] + ["y"])
        for row, yv in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(yv))])


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

_EVAL_BLOCK = 1024
# Coefficient entries summed per pass over the sample; bounds the scratch
# array of a coefficient tensor at _COEFF_BLOCK x n.
_COEFF_BLOCK = 256


def _product_tensor(values, ell: np.ndarray) -> np.ndarray:
    """sum_i ell_i prod_q values[q][i, j_q] for every index tuple j.

    ``values`` holds one (n, m_q) basis matrix per dimension.  Every entry
    is a pairwise sum over the sample of the same n products whatever the
    orders, so the tensor at smaller orders is exactly a slice of this one.
    """
    shape = tuple(v.shape[1] for v in values)
    rows = [np.ascontiguousarray(v.T) for v in values]
    out = np.empty(math.prod(shape))
    for start in range(0, out.size, _COEFF_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _COEFF_BLOCK, out.size)), shape)
        terms = ell[None, :] * rows[0][index[0]]
        for q in range(1, len(rows)):
            terms *= rows[q][index[q]]
        out[start : start + _COEFF_BLOCK] = np.sum(terms, axis=1)
    return out.reshape(shape)


def _check_dim(spec, x: np.ndarray):
    if x.shape[1] != spec.d:
        raise ValueError("point dimension does not match the kernel")


def coefficient_tensor(spec: ProjectionSpec, x: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """T = sum_i ell_i (x)_q phi^{m_q}(x_iq), shape spec.m, before the weights w.

    Histogram members are cell indicators, so their tensor is a per-cell
    sum of ell times prod_q sqrt(m_q), in sample order.
    """
    _check_dim(spec, x)
    if spec.basis.kind is BasisKind.REGULAR_HISTOGRAM:
        cells, oks = zip(*(histogram_cells(mq, x[:, q]) for q, mq in enumerate(spec.m)))
        ok = np.logical_and.reduce(oks)
        flat = np.ravel_multi_index(cells, spec.m)[ok]
        sums = np.bincount(flat, weights=ell[ok], minlength=math.prod(spec.m))
        return (sums * math.sqrt(math.prod(spec.m))).reshape(spec.m)
    return _product_tensor([basis_matrix(spec.basis, mq, x[:, q]) for q, mq in enumerate(spec.m)], ell)


def _expand_at(spec: ProjectionSpec, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] prod_q w_{j_q} phi_{j_q}(points_q) at each row of points."""

    def weighted(q):
        return basis_matrix(spec.basis, spec.m[q], points[:, q]) * spec.weights_for(spec.m[q])

    z = weighted(0) @ coeffs.reshape(spec.m[0], -1)
    for q in range(1, spec.d):
        z = np.einsum("pjr,pj->pr", z.reshape(len(points), spec.m[q], -1), weighted(q))
    return z[:, 0]


def estimate_on_grid(spec, sample: Sample, points: np.ndarray) -> np.ndarray:
    """shat_K at row-stacked evaluation points; shape (P,).

    Projection kernels expand the coefficient tensor in the weighted
    basis at the points, O((n + P) prod_q m_q); bandwidth kernels sum
    K(X_i, x) over the sample.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ell = sample.loss_values
    out = np.empty(points.shape[0])
    if isinstance(spec, ProjectionSpec):
        _check_dim(spec, points)
        coeffs = coefficient_tensor(spec, sample.x, ell)
        for start in range(0, points.shape[0], _EVAL_BLOCK):
            block = points[start : start + _EVAL_BLOCK]
            out[start : start + _EVAL_BLOCK] = _expand_at(spec, coeffs, block) / sample.n
        return out
    for start in range(0, points.shape[0], _EVAL_BLOCK):
        block = points[start : start + _EVAL_BLOCK]
        kmat = kernel_matrix(spec, sample.x, block)
        out[start : start + _EVAL_BLOCK] = ell @ kmat / sample.n
    return out


def estimate(spec, sample: Sample, x) -> float:
    """shat_K(x) = (1/n) sum_i K(X_i, x) ell(Y_i) at one point."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    col = kernel_matrix(spec, sample.x, x[None, :])[:, 0]
    return pairwise_sum(col * sample.loss_values) / sample.n


# ---------------------------------------------------------------------------
# Gram tables
# ---------------------------------------------------------------------------


class GramTables:
    """Loss-weighted section geometry of one sample, cached per kernel pair.

    PCO needs, for kernel pairs (a, b), the totals
    sum_{i,j} ell_i ell_j G_ab[i, j] and the diagonals G_ab[i, i] of the
    table G_ab[i, j] = <K_a(X_i, .), K_b(X_j, .)>_2.  Each unordered pair
    is computed once; G_ab = G_ba^T.

    Projection pairs never form G.  With the coefficient tensors T_a, T_b
    (see :func:`coefficient_tensor`) the total is the quadratic form
    T_a^T ((x)_q W_a C_q W_b) T_b, where W holds the member weights and
    C_q is the basis cross-Gram (the truncated identity for nested
    bases).  The diagonal is a row sum over basis values at the sample.
    A nested basis is evaluated once per dimension at the largest order
    requested (:meth:`reserve` sets that order up front), and every
    smaller order is a slice of it, bit for bit; a histogram order is a
    cell-index computation.  Memory is n sum_q m_q basis values plus
    prod_q m_q per tensor, and the families keep prod_q m_q <= n.

    Bandwidth pairs reduce G itself.  Tables are cached with LRU eviction
    and materialized only up to ``matrix_max_n`` rows; beyond that the
    totals are streamed over fixed-size row blocks, which keeps memory
    flat without changing the reduction order.  :meth:`matrix` builds the
    dense table of any pair; for projection pairs it is the reference the
    coefficient form is tested against.
    """

    def __init__(self, sample: Sample, max_matrices: int = 48, matrix_max_n: int = 4096):
        self.sample = sample
        self.max_matrices = int(max_matrices)
        self.matrix_max_n = int(matrix_max_n)
        self._matrices: OrderedDict = OrderedDict()
        self._totals: dict = {}
        self._diags: dict = {}
        self._basis_values: dict = {}  # (basis kind, q) -> (n, largest order so far)
        self._coeffs: dict = {}  # nested: basis kind; histogram: (kind, m) -> tensor

    def _canonical(self, a, b):
        if spec_id(a) <= spec_id(b):
            return (a, b), False
        return (b, a), True

    def matrix(self, a, b) -> np.ndarray:
        """The n x n table for (a, b); raises for samples above the matrix cap."""
        n = self.sample.n
        if n > self.matrix_max_n:
            raise ValueError(
                f"n = {n} exceeds the dense-table cap {self.matrix_max_n}; use weighted_total"
            )
        key, transposed = self._canonical(a, b)
        if key not in self._matrices:
            gram = section_inner_matrix(key[0], self.sample.x, key[1], self.sample.x)
            self._matrices[key] = gram
            if len(self._matrices) > self.max_matrices:
                self._matrices.popitem(last=False)
        else:
            self._matrices.move_to_end(key)
        gram = self._matrices[key]
        return gram.T if transposed else gram

    # -- projection pairs in coefficient space ------------------------------

    def reserve(self, specs):
        """Evaluate nested bases once, at the largest orders among ``specs``."""
        top = {}
        for s in specs:
            if isinstance(s, ProjectionSpec) and s.basis.nested:
                top[s.basis] = tuple(map(max, top.get(s.basis, s.m), s.m))
        for basis, orders in top.items():
            self.coefficients(ProjectionSpec(basis, orders))

    def _values(self, basis, q: int, m: int) -> np.ndarray:
        """Basis values phi_j(X_iq), j <= m, sliced from the widest evaluation."""
        key = (basis.kind, q)
        vals = self._basis_values.get(key)
        if vals is None or vals.shape[1] < m:
            vals = basis_matrix(basis, m, self.sample.x[:, q])
            self._basis_values[key] = vals
        return vals[:, :m]

    def coefficients(self, spec: ProjectionSpec) -> np.ndarray:
        """The coefficient tensor of ``spec`` on this sample, shape spec.m."""
        _check_dim(spec, self.sample.x)
        kind = spec.basis.kind
        if not spec.basis.nested:
            key = (kind, spec.m)
            if key not in self._coeffs:
                self._coeffs[key] = coefficient_tensor(spec, self.sample.x, self.sample.loss_values)
            return self._coeffs[key]
        full = self._coeffs.get(kind)
        if full is None or any(mq > size for mq, size in zip(spec.m, full.shape)):
            orders = spec.m if full is None else tuple(map(max, spec.m, full.shape))
            values = [self._values(spec.basis, q, mq) for q, mq in enumerate(orders)]
            full = self._coeffs[kind] = _product_tensor(values, self.sample.loss_values)
        return full[tuple(slice(0, mq) for mq in spec.m)]

    @staticmethod
    def _check_projection_pair(a, b):
        if a.d != b.d:
            raise ValueError("kernel dimensions differ")
        if a.basis.kind is not b.basis.kind:
            raise ValueError("projection kernels use different basis families")

    def _projection_total(self, a, b) -> float:
        self._check_projection_pair(a, b)
        y = self.coefficients(b)
        for q in range(a.d):
            ma, mb = a.m[q], b.m[q]
            gram = a.weights_for(ma)[:, None] * cross_gram(a.basis, ma, mb) * b.weights_for(mb)[None, :]
            y = np.moveaxis(np.tensordot(gram, y, axes=(1, q)), 0, q)
        return pairwise_sum(self.coefficients(a) * y)

    def _projection_diag(self, a, b) -> np.ndarray:
        self._check_projection_pair(a, b)
        _check_dim(a, self.sample.x)
        out = np.ones(self.sample.n)
        for q in range(a.d):
            ma, mb = a.m[q], b.m[q]
            if a.basis.nested:
                k = min(ma, mb)
                v = self._values(a.basis, q, k)
                out *= np.sum((v * a.weights_for(ma)[None, :k]) * (v * b.weights_for(mb)[None, :k]), axis=1)
            else:
                ca, ok = histogram_cells(ma, self.sample.x[:, q])
                cb, _ = histogram_cells(mb, self.sample.x[:, q])
                out *= histogram_cell_inner(a, ma, ca, b, mb, cb) * ok
        return out

    # -- public reductions ----------------------------------------------------

    def diag(self, a, b) -> np.ndarray:
        """G[i, i] only: <K_a(X_i, .), K_b(X_i, .)>_2 as an n-vector."""
        key, _ = self._canonical(a, b)
        if key not in self._diags:
            if isinstance(a, ProjectionSpec) and isinstance(b, ProjectionSpec):
                self._diags[key] = self._projection_diag(*key)
            else:
                self._diags[key] = section_inner_pointwise(key[0], self.sample.x, key[1], self.sample.x)
        return self._diags[key]

    def weighted_total(self, a, b) -> float:
        """sum_{i,j} ell_i ell_j G_ab[i, j], reduced in a fixed order."""
        key, _ = self._canonical(a, b)
        if key in self._totals:
            return self._totals[key]
        ell = self.sample.loss_values
        if isinstance(a, ProjectionSpec) and isinstance(b, ProjectionSpec):
            total = self._projection_total(*key)
        elif self.sample.n <= self.matrix_max_n:
            total = weighted_gram_total(self.matrix(key[0], key[1]), ell, ell)
        else:
            partials = []
            x = self.sample.x
            for start in range(0, self.sample.n, GRAM_BLOCK_ROWS):
                stop = start + GRAM_BLOCK_ROWS
                block = section_inner_matrix(key[0], x[start:stop], key[1], x)
                partials.append(weighted_gram_total(block, ell[start:stop], ell))
            total = combine_partials(partials)
        self._totals[key] = total
        return total


def estimator_inner(a, b, sample: Sample, tables: GramTables | None = None) -> float:
    """<shat_a, shat_b>_2 = (1/n^2) sum_{i,j} ell_i ell_j G_ab[i, j]."""
    if tables is None:
        tables = GramTables(sample)
    return tables.weighted_total(a, b) / sample.n**2


def criterion_distance(a, k0, sample: Sample, tables: GramTables | None = None) -> float:
    """||shat_a - shat_k0||_2^2 expanded through the Gram tables.

    Exact arithmetic gives a nonnegative number; floating point can land a
    few ulp below zero, which is clamped to zero.  A drop beyond 1e-10 is
    clamped too but logged, since it would indicate an inconsistent table.
    """
    if tables is None:
        tables = GramTables(sample)
    value = (
        estimator_inner(a, a, sample, tables)
        - 2.0 * estimator_inner(a, k0, sample, tables)
        + estimator_inner(k0, k0, sample, tables)
    )
    if value < 0.0:
        if value < -NEGATIVE_DISTANCE_TOL:
            log.warning("criterion distance %.3e clamped to 0 beyond tolerance", value)
        value = 0.0
    return value


def sbar_empirical(spec, sample: Sample) -> float:
    """(1/n) sum_i ||K(X_i, .)||_2^2 ell(Y_i)^2, the variance-scale proxy."""
    norms = section_sq_norm_points(spec, sample.x)
    ell = sample.loss_values
    return pairwise_sum(norms * ell * ell) / sample.n


# ---------------------------------------------------------------------------
# centered second-order statistics
# ---------------------------------------------------------------------------


def _cross_with_function(spec, sample: Sample, values: np.ndarray, grid) -> np.ndarray:
    """<K_spec(X_i, .), g>_2 for each i, with g given by its grid values."""
    weighted = grid.weights * values
    out = np.empty(sample.n)
    for start in range(0, sample.n, _EVAL_BLOCK):
        block = sample.x[start : start + _EVAL_BLOCK]
        kmat = kernel_matrix(spec, block, grid.points)
        out[start : start + _EVAL_BLOCK] = kmat @ weighted
    return out


def u_statistic(a, b, sample: Sample, s_mean_a=None, s_mean_b=None, grid=None) -> float:
    """Degenerate second-order statistic of the centered section sums.

    U = sum_{i != j} <K_a(X_i, .) ell_i - s_a, K_b(X_j, .) ell_j - s_b>_2,
    where s_a, s_b are the section averages E(K(X_1, .) ell(Y_1)) supplied
    as vectorized callables (None means the zero function).  Cross terms
    against s_a, s_b are integrated on ``grid``, which is required as soon
    as either function is present.  Centering makes E(U) = 0.
    """
    if sample.n < 2:
        raise ValueError("the pair statistic needs at least two observations")
    ell = sample.loss_values
    gram = section_inner_matrix(a, sample.x, b, sample.x)
    weighted = (ell[:, None] * gram) * ell[None, :]
    total = pairwise_sum(weighted) - pairwise_sum(np.diagonal(weighted).copy())
    if s_mean_a is None and s_mean_b is None:
        return total
    if grid is None:
        raise ValueError("an integration grid is required with nonzero section averages")
    sa = np.zeros(grid.points.shape[0]) if s_mean_a is None else np.asarray(s_mean_a(grid.points))
    sb = np.zeros(grid.points.shape[0]) if s_mean_b is None else np.asarray(s_mean_b(grid.points))
    n = sample.n
    cross_a = _cross_with_function(a, sample, sb, grid)
    cross_b = _cross_with_function(b, sample, sa, grid)
    total -= (n - 1) * pairwise_sum(ell * cross_a)
    total -= (n - 1) * pairwise_sum(ell * cross_b)
    total += n * (n - 1) * grid.integrate(sa * sb)
    return total


def v_statistic(spec, sample: Sample, s_mean=None, grid=None) -> float:
    """V = (1/n) sum_i ||K(X_i, .) ell_i - s_K||_2^2.

    With s_mean = None this is exactly :func:`sbar_empirical`; with the
    section average supplied, E(V) = sbar - ||s_K||_2^2.
    """
    base = sbar_empirical(spec, sample)
    if s_mean is None:
        return base
    if grid is None:
        raise ValueError("an integration grid is required with a nonzero section average")
    s_vals = np.asarray(s_mean(grid.points))
    ell = sample.loss_values
    cross = _cross_with_function(spec, sample, s_vals, grid)
    norm_sq = grid.integrate(s_vals * s_vals)
    return base - 2.0 * pairwise_sum(ell * cross) / sample.n + norm_sq


def w_statistic(a, b, sample: Sample, s_mean_a, s_mean_b, s_true, grid) -> float:
    """W = <shat_a - s_a, s_b - s>_2, integrated on the supplied grid.

    All three functions are vectorized callables on row-stacked points.
    E(W) = 0 because shat_a is unbiased for its own section average s_a.
    """
    shat = estimate_on_grid(a, sample, grid.points)
    sa = np.asarray(s_mean_a(grid.points))
    sb = np.asarray(s_mean_b(grid.points))
    st = np.asarray(s_true(grid.points))
    return grid.integrate((shat - sa) * (sb - st))
