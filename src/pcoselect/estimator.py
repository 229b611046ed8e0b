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
entries <K_a(X_i, .), K_b(X_j, .)>_2.  :class:`GramTables` keeps these
totals per kernel pair and reduces them in a fixed order, so repeated and
multi-process runs, and runs at any BLAS thread count, agree bit for bit.
A bandwidth Gram table is a function of the pairwise differences
X_i - X_j, symmetric with a constant diagonal; :func:`bandwidth_totals`
reduces many pairs in one sweep over the strict upper triangle, in fixed
row blocks.  The sweep allocates its O(n) scratch once, forms each
block's differences once for every pair, and contracts each pair's block
with the loss weights in BLAS dot products.  At d >= 2 the Gaussian
factor exp(-delta_q^2 / (2 v_q)) of each distinct (q, v_q) is evaluated
once per block and shared by every pair that uses it.  A projection
estimator is a coefficient tensor instead:
with T = sum_i ell_i (x)_q phi^{m_q}(X_iq), of shape (m_1, ..., m_d),

    shat(x) = (1/n) sum_j w_j T_j prod_q phi_{j_q}(x_q),

so the totals are small quadratic forms in T, the penalty diagonals are
row sums over basis values at the sample, and risk-grid values expand T
at the grid points.  These cost O(n prod_q m_q) time and O(n sum_q m_q)
memory, and the families keep prod_q m_q <= n.  No path on selection or
experiments builds an n x n table.

:func:`estimate_on_grid` evaluates any number of members of a family at
once and shares the work between them.  Bandwidth members walk the
points in column blocks of a fixed scratch budget: the squared
differences to a block are formed once, and each member adds one
in-place pass and one product with ell.  Nested projection members share
one basis evaluation at the points, at the family's top order, and
expand the coefficient tensors that :class:`GramTables` keeps.  With a
quadrature grid as the weighted side, the same pass (:func:`_kernel_sums`)
gives the section averages, the cross terms of the centered statistics
and the diagnostics; :func:`~pcoselect.kernels.kernel_matrix` is on no
``src/`` path.  The pass takes a stack of weight rows as well as one
weight vector.  A bandwidth member's kernel block is formed once and
contracted with every row, one BLAS matrix-vector product per row, and
a projection member's basis values are formed once and expanded with
the coefficient tensor of every row.  One product per row, and not one
matrix product for the stack, because BLAS rounds the two differently;
this way every row has the bits of a call with that row alone.  The
quotient's numerator and denominator are the two rows ell and 1 of one
pass.

The sweep's row blocks and the grid evaluation's column blocks are pure
functions of their block, and their results are put back and reduced in
block order.  Once a sweep or grid is large (``_FORK_WORK``, decided from
n, d and the members or pairs alone), its blocks are spread over the
worker pool of :func:`~pcoselect.numerics.pooled_map`: worker processes
forked by the first map that needs them, up to the usable CPUs, and kept
for the life of the process.  Each map sends a module-level block
builder and its arguments to the workers, and each process allocates its
scratch once per map.  The sched affinity (``taskset``) restricts the pool, and
inside a mapped item, such as a report replication, the blocks run
serially.  The bits are the same at any worker count.  A fork copies
only the calling thread, so do not start the first large sweep while
another thread holds a lock the computation needs.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numerics
from .bases import BasisKind, basis_matrix, cross_gram, histogram_cells
from .errors import DataError
from .kernels import (
    BandwidthSpec,
    BaseKind,
    ProjectionSpec,
    bandwidth_gram_entries,
    histogram_cell_inner,
    section_inner_matrix,
    section_sq_norm_points,
    spec_id,
)
from .numerics import combine_partials, pairwise_sum

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
                rows.append([float(v) for v in line])
            except ValueError:
                rejected += 1
    arr = np.asarray(rows, dtype=np.float64).reshape(-1, d + 1)
    finite = np.isfinite(arr).all(axis=1)
    rejected += int(np.count_nonzero(~finite))
    arr = arr[finite]
    if rejected:
        log.warning("%s: dropped %d malformed or non-finite rows", path, rejected)
    if arr.shape[0] == 0:
        raise DataError(f"{path}: no usable data rows")
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

# Points per projection expansion.
_EVAL_BLOCK = 1024
# Coefficient entries summed per pass over the sample; bounds the scratch
# array of a coefficient tensor at _COEFF_BLOCK x n.
_COEFF_BLOCK = 256
# Basis values per dimension held at once by the grid evaluation of
# projection members (8 MB).  The points are taken in chunks of whole
# _EVAL_BLOCK blocks that fit this budget at the largest order, at least
# one block; each nested basis is evaluated once per chunk and dimension,
# so a d = 1 risk grid of 2048 points takes one call up to order 512.
_BASIS_VALUES = 1 << 20
# Scratch budget, in float64 entries, of the bandwidth grid evaluation.  Its
# d + 2 arrays of n rows share this budget, so the column block width
# depends on n and d alone and the scratch memory (2 MB) not on the points.
# Larger blocks fall out of cache: at n = 1000 and 8 members, 2^20 entries
# took 15-50% longer than 2^18 on the 2048-point (d = 1) and 65536-point
# (d = 2) risk grids.
_GRID_SCRATCH = 1 << 18
# Floor of every Gaussian exponent before ``exp``.  numpy's vector exp
# takes about 1 ns per entry down to -707, 20-30 ns where the result
# underflows to 0 and about 200 ns where it is subnormal, and at small
# bandwidths most entries land there.  A floored entry reads e^-700
# (about 1e-304) instead of 0 or a subnormal.
_EXP_FLOOR = -700.0
# Work, in Gaussian kernel entries summed over the members or pairs, from
# which the bandwidth sweep and grid evaluation map their blocks over the
# worker pool (``numerics.pooled_map``).  The pool is forked once, so a map
# costs one task and one result message per worker: an empty pooled map
# took 86-120 us on a 2-CPU VM, against 13 ms to fork, start and reap a
# worker per map at 180 MB resident.  An entry costs 2-4 ns, so on 2 CPUs
# the break-even is near 0.4 million entries (medians of 41: a 6-member
# sweep at n = 300, 0.49 million, took 2.80 ms serial and 2.70 ms pooled;
# a grid of 1000 points at n = 500, 0.5 million, 2.98 and 2.72 ms).  The
# threshold sits at twice that, where a pooled map saves about a fifth
# (n = 1000 x 1000 points: 5.6 -> 4.6 ms), since a pooled map's time also
# follows the load on every CPU it uses.
_FORK_WORK = 1_000_000
# Cost of an Epanechnikov or mixed sweep entry in Gaussian entries: each is
# an exact convolution rule per dimension, about 40 ns against 2.3 ns.
_CONVOLUTION_COST = 16


def _map_blocks(build, args: tuple, starts, work: int) -> list:
    """``fn(start)`` at every block start, in order, with ``fn = build(*args)``;
    on the worker pool of :func:`~pcoselect.numerics.pooled_map` once
    ``work`` reaches ``_FORK_WORK``.  Each block is a pure function of its
    start and ``args``, so the worker count never changes a number."""
    if work < _FORK_WORK:
        fn = build(*args)
        return [fn(start) for start in starts]
    return numerics.pooled_map(build, args, starts)


def _reaches_floor(span_sq, scales) -> bool:
    """Whether a Gaussian exponent sum_q delta_q^2 scales_q can fall below
    ``_EXP_FLOOR`` when every delta_q^2 is at most span_sq[q].

    Only then does the floor pass change anything; the margin covers the
    rounding of the sum.
    """
    return sum(r * sc for r, sc in zip(span_sq, scales)) < _EXP_FLOOR + 1.0


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


def _nested_top_orders(specs) -> dict:
    """The largest order per dimension of every nested basis among ``specs``."""
    top = {}
    for s in specs:
        if isinstance(s, ProjectionSpec) and s.basis.nested:
            top[s.basis] = tuple(map(max, top.get(s.basis, s.m), s.m))
    return top


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


def _expand(coeffs: np.ndarray, mats) -> np.ndarray:
    """sum_j coeffs[j] prod_q mats[q][p, j_q] for each row p of the weighted basis values.

    A slice of a wider tensor is copied first, since BLAS rounds by memory layout.
    """
    z = mats[0] @ np.ascontiguousarray(coeffs).reshape(mats[0].shape[1], -1)
    for mat in mats[1:]:
        z = np.einsum("pjr,pj->pr", z.reshape(len(mat), mat.shape[1], -1), mat)
    return z[:, 0]


def _projection_rows(specs, tables, points: np.ndarray, divisor) -> np.ndarray:
    """Projection members at the points, shape (members, weight rows, P),
    divided by ``divisor``; ``tables`` holds one :class:`GramTables` per
    weight row, and the coefficient tensors come from them.

    Each nested basis is evaluated once per chunk of points and dimension,
    at the top order among ``specs``, and every member reads the leading
    columns; these are the numbers an evaluation at its own order gives.
    A member's weighted basis values are formed once per block and expanded
    with the tensor of every weight row.
    """
    top = _nested_top_orders(specs)
    widest = max(max(spec.m) for spec in specs)
    size = _EVAL_BLOCK * max(1, _BASIS_VALUES // (_EVAL_BLOCK * widest))
    rows = np.empty((len(specs), len(tables), points.shape[0]))
    for start in range(0, points.shape[0], size):
        chunk = points[start : start + size]
        values = {basis: [basis_matrix(basis, mq, chunk[:, q]) for q, mq in enumerate(orders)]
                  for basis, orders in top.items()}
        # expansions run in fixed blocks of points: BLAS rounds by shape
        for lo in range(0, chunk.shape[0], _EVAL_BLOCK):
            hi = lo + _EVAL_BLOCK
            for member, spec in zip(rows, specs):
                if spec.basis.nested:
                    vals = values[spec.basis]
                    mats = [v[lo:hi, :mq] * spec.weights_for(mq) for v, mq in zip(vals, spec.m)]
                else:
                    mats = [basis_matrix(spec.basis, mq, chunk[lo:hi, q]) * spec.weights_for(mq)
                            for q, mq in enumerate(spec.m)]
                for row, tab in zip(member, tables):
                    row[start + lo : start + hi] = _expand(tab.coefficients(spec), mats) / divisor
    return rows


def _grid_width(n: int, d: int) -> int:
    """Points per column block of the bandwidth grid evaluation."""
    return max(1, _GRID_SCRATCH // ((d + 2) * n))


def _bandwidth_rows(specs, x: np.ndarray, w: np.ndarray, points: np.ndarray, divisor) -> np.ndarray:
    """Bandwidth members at the points, shape (members, weight rows, P),
    in fixed column blocks; ``w`` holds one weight row per sample point.

    A block forms the squared differences (x_iq - g_pq)^2 once, into reused
    scratch.  Each member then takes one in-place pass per dimension: the
    Gaussian exponent sum_q delta_q^2 (-1 / (2 h_q^2)), floored at
    ``_EXP_FLOOR`` if it can reach that far, and one ``exp``, or
    the Epanechnikov product prod_q max(0, 1 - delta_q^2 / h_q^2), and one
    ``w_j @ block`` per weight row.  That is one gemv per row and not one
    gemm for the stack: BLAS rounds the two differently, and a gemv on a
    contiguous row gives every row the bits of a single-row call.  The
    constant prod_q k(0) / h_q / divisor multiplies the rows.  Large
    evaluations compute their blocks on the worker pool (:func:`_map_blocks`);
    a block is a pure function of its columns.
    """
    n, d = x.shape
    args = (specs, np.ascontiguousarray(x), np.ascontiguousarray(w), np.ascontiguousarray(points), divisor)
    starts = range(0, points.shape[0], _grid_width(n, d))
    blocks = _map_blocks(_grid_block_builder, args, starts, len(specs) * n * points.shape[0])
    return np.concatenate(blocks, axis=2) if blocks else np.empty((len(specs), len(w), 0))


def _grid_block_builder(specs, x: np.ndarray, w: np.ndarray, points: np.ndarray, divisor):
    """The block function of :func:`_bandwidth_rows`, with its scratch:
    the rows of every member and weight row at the points of the block
    from ``start``."""
    n, d = x.shape
    width = _grid_width(n, d)
    squares = [np.empty(n * width) for _ in range(d)]
    work, term = np.empty(n * width), np.empty(n * width)
    consts = [math.prod(spec.base.at_zero / hq for hq in spec.h) / divisor for spec in specs]
    span_sq = np.ptp(np.concatenate([x, points]), axis=0) ** 2
    floors = [spec.base.kind is BaseKind.GAUSSIAN
              and _reaches_floor(span_sq, [-0.5 / (hq * hq) for hq in spec.h]) for spec in specs]

    def block_rows(start):
        cols = min(width, points.shape[0] - start)
        sq = [buf[: n * cols].reshape(n, cols) for buf in squares]
        vals, tmp = work[: n * cols].reshape(n, cols), term[: n * cols].reshape(n, cols)
        for q in range(d):
            np.subtract(x[:, q, None], points[None, start : start + cols, q], out=sq[q])
            np.square(sq[q], out=sq[q])
        rows = np.empty((len(specs), len(w), cols))
        for member, spec, const, floor in zip(rows, specs, consts, floors):
            gaussian = spec.base.kind is BaseKind.GAUSSIAN
            for q, hq in enumerate(spec.h):
                out = vals if q == 0 else tmp
                np.multiply(sq[q], (-0.5 if gaussian else -1.0) / (hq * hq), out=out)
                if not gaussian:
                    out += 1.0
                    np.maximum(out, 0.0, out=out)
                if q:
                    (np.add if gaussian else np.multiply)(vals, tmp, out=vals)
            if floor:
                np.maximum(vals, _EXP_FLOOR, out=vals)
            if gaussian:
                np.exp(vals, out=vals)
            for wj, row in zip(w, member):
                np.multiply(wj @ vals, const, out=row)
        return rows

    return block_rows


def _kernel_sums(specs, x: np.ndarray, w: np.ndarray, points, divisor=1, tables=None) -> np.ndarray:
    """sum_i w_i K(x_i, p) / divisor at row-stacked points p, one row per member.

    The estimator is this sum over the sample, w = ell, divided by n.  Every
    shipped kernel is symmetric, K(x, t) = K(t, x), so <K(X_i, .), g>_2 on a
    quadrature grid is this sum over the grid nodes, w = weights times g, at
    the points X_i.

    ``w`` is one weight vector, giving shape (members, P), or a stack of k
    weight rows of shape (k, n), giving (members, k, P).  A member's kernel
    block is formed once and contracted with every row, so k rows cost one
    pass of kernel evaluations, not k: the quotient takes its numerator and
    denominator, ell = y and ell = 1, from one call.  Each row gets its own
    contraction, and its sums are the bits of a call with that row alone.

    Bandwidth members walk the points in column blocks whose width depends
    on len(x) and d alone, so scratch memory is fixed whatever the number
    of points (:func:`_bandwidth_rows`).  Projection members expand the
    coefficient tensor of (x, w_j) at the points (:func:`_projection_rows`),
    taken from ``tables`` when given: those of a sample with design x and
    loss values w, for a single weight vector.  Otherwise one
    :class:`GramTables` is built per weight row.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    for spec in specs:
        _check_dim(spec, points)
        _check_dim(spec, x)
    stack = np.atleast_2d(w)
    out = np.empty((len(specs), len(stack), points.shape[0]))
    bandwidth = [k for k, s in enumerate(specs) if isinstance(s, BandwidthSpec)]
    projection = [k for k, s in enumerate(specs) if isinstance(s, ProjectionSpec)]
    if bandwidth:
        out[bandwidth] = _bandwidth_rows([specs[k] for k in bandwidth], x, stack, points, divisor)
    if projection:
        members = [specs[k] for k in projection]
        if tables is None:
            tables = [GramTables(Sample(x, wj, LossKind.IDENTITY)) for wj in stack]
            for tab in tables:
                tab.reserve(members)
        else:
            tables = [tables]
        out[projection] = _projection_rows(members, tables, points, divisor)
    return out[:, 0] if np.ndim(w) == 1 else out


def estimate_on_grid(specs, sample, points: np.ndarray) -> np.ndarray:
    """shat_K at row-stacked evaluation points, for one member or several.

    ``specs`` is one kernel spec, giving shape (P,), or a sequence of
    members, giving (N, P) with one row per member.  ``sample`` is a
    :class:`Sample` or the :class:`GramTables` of one; the tables left by
    selection hold the coefficient tensors and sample basis values that
    projection members reuse here.  The members share one pass,
    :func:`_kernel_sums`.
    """
    tables = sample if isinstance(sample, GramTables) else None
    sample = tables.sample if tables is not None else sample
    single = not isinstance(specs, (list, tuple))
    out = _kernel_sums([specs] if single else list(specs), sample.x, sample.loss_values, points, sample.n, tables)
    return out[0] if single else out


def estimate(spec, sample: Sample, x) -> float:
    """shat_K(x) = (1/n) sum_i K(X_i, x) ell(Y_i) at one point."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return float(estimate_on_grid(spec, sample, x[None, :])[0])


# ---------------------------------------------------------------------------
# Gram tables
# ---------------------------------------------------------------------------


# Rows per block of the bandwidth sweep.  A block of _SWEEP_ROWS sample
# points against every later point gives one partial sum per pair; the
# number is fixed, so the reduction order depends on n alone.
_SWEEP_ROWS = 32
# Scratch budget, in float64 entries, of the per-dimension Gaussian tables
# of the sweep (2 MB).  When a d >= 2 family has more distinct tables than
# fit a whole block, they are built for fewer rows at a time; every row's
# dot product is the same whichever rows share a pass, so this changes the
# memory and not the numbers.
_TABLE_SCRATCH = 1 << 18
# Columns per BLAS dot product of the sweep.  OpenBLAS splits a dot product
# of more than 10000 entries across its threads, which changes its
# rounding; shorter chunks, added in order, keep the totals independent of
# the BLAS thread count.
_CONTRACT_COLS = 4096


def _gaussian_scales(a, b):
    """-1 / (2 v_q) with v_q = h_aq^2 + h_bq^2 for a Gaussian pair, else None."""
    if a.base.kind is not BaseKind.GAUSSIAN or b.base.kind is not BaseKind.GAUSSIAN:
        return None
    return [-0.5 / (ha * ha + hb * hb) for ha, hb in zip(a.h, b.h)]


def _bandwidth_diag_value(a, b) -> float:
    """G_ab[i, i] = <K_a(x, .), K_b(x, .)>_2, the same at every x."""
    if not (isinstance(a, BandwidthSpec) and isinstance(b, BandwidthSpec)):
        raise ValueError("no closed form for mixed bandwidth/projection sections")
    if a.d != b.d:
        raise ValueError("kernel dimensions differ")
    return float(bandwidth_gram_entries(a, b, [np.zeros(1)] * a.d)[0])


def _sweep_tables(scales, floors, n: int, d: int):
    """The shared per-dimension Gaussian tables of a sweep, and its rows per pass.

    At d >= 2 a Gaussian pair whose exponent cannot reach ``_EXP_FLOOR`` is
    the product over q of exp(scale_q delta_q^2), and pairs with a common
    (q, scale_q) share that table.  Returns {(q, scale_q): index}, per
    pair its table indices (None for a pair that takes another path), and
    the rows per pass, at most ``_SWEEP_ROWS``, for which the tables fit
    ``_TABLE_SCRATCH``.  When one row of them does not fit, no pair is
    factored.
    """
    keys, uses = {}, []
    for scale, floor in zip(scales, floors):
        factored = d > 1 and scale is not None and not floor
        uses.append([keys.setdefault((q, sc), len(keys)) for q, sc in enumerate(scale)] if factored else None)
    rows = _TABLE_SCRATCH // (len(keys) * max(n - 1, 1)) if keys else _SWEEP_ROWS
    if rows < 1:
        return {}, [None] * len(uses), _SWEEP_ROWS
    return keys, uses, min(rows, _SWEEP_ROWS)


def _leading(buf: np.ndarray, shape) -> np.ndarray:
    """The first prod(shape) entries of a scratch buffer, in that shape."""
    return buf[: math.prod(shape)].reshape(shape)


def _row_dots(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """out[i] = sum_j a[i, j] b[i, j], one BLAS dot product per row and
    ``_CONTRACT_COLS`` columns, the chunks added in order."""
    if a.shape[1] <= _CONTRACT_COLS:
        np.vecdot(a, b, out=out)
        return
    np.vecdot(a[:, :_CONTRACT_COLS], b[:, :_CONTRACT_COLS], out=out)
    for lo in range(_CONTRACT_COLS, a.shape[1], _CONTRACT_COLS):
        out += np.vecdot(a[:, lo : lo + _CONTRACT_COLS], b[:, lo : lo + _CONTRACT_COLS])


def bandwidth_totals(pairs, x: np.ndarray, ell: np.ndarray, diagonal: bool = True) -> list:
    """sum_{i,j} ell_i ell_j G_ab[i, j] for every bandwidth pair (a, b), in one sweep.

    A bandwidth Gram table is symmetric with the constant diagonal
    c_ab = G_ab[i, i], so its total is c_ab sum_i ell_i^2 plus twice the
    strict upper triangle.  The sweep walks that triangle in fixed blocks
    of ``_SWEEP_ROWS`` rows, with scratch allocated once per sweep.  A
    block forms the differences (their squares for Gaussian pairs) once,
    and a weight table that holds ell_j where j > i and 0 elsewhere.  Each
    pair writes its entries into one reused value buffer and contracts
    each row with the weight table in BLAS dot products
    (:func:`_row_dots`); the block's partial is ell_rows @ those row sums,
    and partials are combined in block order.

    A Gaussian entry is c_ab exp(sum_q delta_q^2 (-1 / (2 v_q))) with
    v_q = h_aq^2 + h_bq^2, so the sweep sums the exponentials alone.  The
    exponent is floored at ``_EXP_FLOOR`` for the pairs that can reach it
    given the sample's span.  At d >= 2 every other Gaussian pair is a
    product of per-dimension tables exp(delta_q^2 (-1 / (2 v_q))), each
    evaluated once per block and shared by every pair with that v_q
    (:func:`_sweep_tables`): a 5 x 5 tensor family has 18 tables for its
    49 pairs.  The tables of the last dimension are multiplied by the
    weight table once, so a pair at d = 2 is one row-wise dot product of
    two tables.  Other pairs take :func:`bandwidth_gram_entries`.  Scratch
    memory is O(n) whatever the family size.  A pair's total depends on n,
    d and its own kernels alone, so a pair swept with its family or alone
    gets the same bits, unless the family has too many tables for one row
    of the budget and none is built.  With ``diagonal=False`` the sums run
    over i != j only.

    Each block's partial is a pure function of the block, so once the
    sweep is large (:func:`_map_blocks`) the blocks are computed on the
    worker pool, each process taking the next block whenever it finishes
    one, which balances the triangle.  Every process allocates its own
    scratch once per sweep (:func:`_sweep_block_builder`), so memory stays
    O(n) per process, and the partials come back in block order: the
    totals are the same bits at any worker count.
    """
    n, d = x.shape
    if not pairs:
        return []
    for a, _ in pairs:
        _check_dim(a, x)
    diag = [_bandwidth_diag_value(a, b) for a, b in pairs]
    scales = [_gaussian_scales(a, b) for a, b in pairs]
    args = (pairs, np.ascontiguousarray(x), np.ascontiguousarray(ell))
    starts = range(0, n - 1, _SWEEP_ROWS)
    work = sum(1 if scale else _CONVOLUTION_COST for scale in scales) * n * (n - 1) // 2
    partials = np.reshape(_map_blocks(_sweep_block_builder, args, starts, work), (len(starts), len(pairs)))
    sum_sq = pairwise_sum(ell * ell) if diagonal else 0.0
    totals = []
    for c, scale, column in zip(diag, scales, partials.T):
        upper = combine_partials(column)
        # Gaussian partials sum the entries divided by c
        totals.append(c * (sum_sq + 2.0 * upper) if scale else c * sum_sq + 2.0 * upper)
    return totals


def _sweep_block_builder(pairs, x: np.ndarray, ell: np.ndarray):
    """The block function of :func:`bandwidth_totals`, with the sweep's
    scratch: every pair's partial over the rows of the block from ``start``."""
    n, d = x.shape
    scales = [_gaussian_scales(a, b) for a, b in pairs]
    span_sq = np.ptp(x, axis=0) ** 2
    floors = [scale is not None and _reaches_floor(span_sq, scale) for scale in scales]
    keys, uses, rows = _sweep_tables(scales, floors, n, d)
    summed = any(scale is not None and use is None for scale, use in zip(scales, uses))
    size = rows * max(n - 1, 0)
    delta_bufs = [np.empty(size) for _ in range(d)] if any(scale is None for scale in scales) else []
    square_bufs = [np.empty(size) for _ in range(d)] if summed or keys else []
    table_bufs = [np.empty(size) for _ in keys]
    value_buf = np.empty(size) if summed or (keys and d > 2) else None
    term_buf = np.empty(size) if summed and d > 1 else None
    weight_buf = np.empty(size)
    lower = np.tri(_SWEEP_ROWS, _SWEEP_ROWS, -1, dtype=bool)

    def block_partial(start):
        stop = min(start + _SWEEP_ROWS, n - 1)
        w = n - 1 - start
        dots = np.empty((len(pairs), stop - start))
        for k0 in range(0, stop - start, rows):
            k1 = min(k0 + rows, stop - start)
            shape = (k1 - k0, w)
            deltas = [_leading(buf, shape) for buf in delta_bufs]
            squares = [_leading(buf, shape) for buf in square_bufs]
            tables = [_leading(buf, shape) for buf in table_bufs]
            value = None if value_buf is None else _leading(value_buf, shape)
            term = None if term_buf is None else _leading(term_buf, shape)
            # row i = start + k against column j = start + 1 + c: ell_j where j > i (c >= k), else 0
            weights = _leading(weight_buf, shape)
            weights[...] = ell[start + 1 :]
            weights[:, :k1][lower[k0:k1, :k1]] = 0.0
            for q in range(d):
                diff = deltas[q] if deltas else squares[q]
                np.subtract(x[start + k0 : start + k1, q, None], x[None, start + 1 :, q], out=diff)
                if squares:
                    np.square(diff, out=squares[q])
            for (q, sc), table in zip(keys, tables):
                np.multiply(squares[q], sc, out=table)
                np.exp(table, out=table)
                if q == d - 1:
                    # the last factor of every pair carries the weights
                    np.multiply(table, weights, out=table)
            for (a, b), scale, floor, use, out in zip(pairs, scales, floors, uses, dots[:, k0:k1]):
                if use is not None:
                    vals = tables[use[0]]
                    if d > 2:
                        vals = np.multiply(vals, tables[use[1]], out=value)
                        for k in use[2:-1]:
                            np.multiply(vals, tables[k], out=vals)
                    _row_dots(vals, tables[use[-1]], out)
                    continue
                if scale is None:
                    vals = bandwidth_gram_entries(a, b, deltas)
                else:
                    vals = np.multiply(squares[0], scale[0], out=value)
                    for sq, sc in zip(squares[1:], scale[1:]):
                        np.add(vals, np.multiply(sq, sc, out=term), out=vals)
                    if floor:
                        np.maximum(vals, _EXP_FLOOR, out=vals)
                    np.exp(vals, out=vals)
                _row_dots(vals, weights, out)
        return np.vecdot(dots, ell[start:stop])

    return block_partial


class GramTables:
    """Loss-weighted section geometry of one sample, cached per kernel pair.

    PCO needs, for kernel pairs (a, b), the totals
    sum_{i,j} ell_i ell_j G_ab[i, j] and the diagonals G_ab[i, i] of the
    table G_ab[i, j] = <K_a(X_i, .), K_b(X_j, .)>_2.  Each unordered pair
    is computed once and kept as a scalar (totals) or an n-vector
    (diagonals); no n x n table is kept.

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

    Bandwidth pairs never form G either.  Their totals come from
    :func:`bandwidth_totals`, one sweep over the pairwise differences in
    fixed row blocks, with scratch allocated once and per-dimension
    Gaussian tables shared between pairs at d >= 2: after :meth:`reserve`
    with the overfitting member k0, the first :meth:`weighted_total` fills
    every (a, a) and (a, k0) total of the family in one sweep, and an
    unreserved pair takes a sweep of its own.  Their diagonal is a
    constant.  :meth:`matrix` builds the
    dense table of any pair, uncached; it is the reference the sweep and
    the coefficient form are tested against.
    """

    def __init__(self, sample: Sample):
        self.sample = sample
        self._totals: dict = {}
        self._pending: dict = {}  # bandwidth pairs queued by reserve, in order
        self._diags: dict = {}
        self._basis_values: dict = {}  # (basis kind, q) -> (n, largest order so far)
        self._coeffs: dict = {}  # nested: basis kind; histogram: (kind, m) -> tensor

    @staticmethod
    def _canonical(a, b):
        return (a, b) if spec_id(a) <= spec_id(b) else (b, a)

    def matrix(self, a, b) -> np.ndarray:
        """The dense n x n table for (a, b), built on every call."""
        return section_inner_matrix(a, self.sample.x, b, self.sample.x)

    def reserve(self, specs, k0=None):
        """Prepare the tables for a family before its criterion is read.

        Nested bases are evaluated once, at the largest orders among
        ``specs``.  Given the overfitting member ``k0``, the bandwidth
        pairs (a, a) and (a, k0) of every member a are queued, and the
        first :meth:`weighted_total` that needs one of them fills them all
        in one sweep.
        """
        for basis, orders in _nested_top_orders(specs).items():
            self.coefficients(ProjectionSpec(basis, orders))
        if isinstance(k0, BandwidthSpec):
            for s in specs:
                for pair in ((s, s), (s, k0)):
                    self._pending[self._canonical(*pair)] = None

    # -- projection pairs in coefficient space ------------------------------

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
        key = self._canonical(a, b)
        if key not in self._diags:
            if isinstance(a, ProjectionSpec) and isinstance(b, ProjectionSpec):
                self._diags[key] = self._projection_diag(*key)
            else:
                self._diags[key] = np.full(self.sample.n, _bandwidth_diag_value(*key))
        return self._diags[key]

    def weighted_total(self, a, b) -> float:
        """sum_{i,j} ell_i ell_j G_ab[i, j], reduced in a fixed order."""
        key = self._canonical(a, b)
        if key in self._totals:
            return self._totals[key]
        if isinstance(a, ProjectionSpec) and isinstance(b, ProjectionSpec):
            self._totals[key] = self._projection_total(*key)
        else:
            self._pending[key] = None
            keys = [k for k in self._pending if k not in self._totals]
            self._pending.clear()
            self._totals.update(zip(keys, bandwidth_totals(keys, self.sample.x, self.sample.loss_values)))
        return self._totals[key]


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


def _grid_values(fn, grid) -> np.ndarray:
    """Values of ``fn`` at the grid points: ``fn`` is a vectorized callable,
    or already those values; None is the zero function."""
    if fn is None:
        return np.zeros(grid.points.shape[0])
    return np.asarray(fn(grid.points) if callable(fn) else fn, dtype=np.float64)


def u_statistic(a, b, sample: Sample, s_mean_a=None, s_mean_b=None, grid=None) -> float:
    """Degenerate second-order statistic of the centered section sums.

    U = sum_{i != j} <K_a(X_i, .) ell_i - s_a, K_b(X_j, .) ell_j - s_b>_2,
    where s_a, s_b are the section averages E(K(X_1, .) ell(Y_1)) supplied
    as vectorized callables or as their values at ``grid.points`` (None
    means the zero function).  Cross terms against s_a, s_b are integrated
    on ``grid``, which is required as soon as either function is present.
    Centering makes E(U) = 0.  Neither variant builds an n x n table: a
    bandwidth pair takes its sum over i != j from :func:`bandwidth_totals`,
    and a projection pair takes the coefficient-space total of
    :class:`GramTables` less its diagonal term.
    """
    if sample.n < 2:
        raise ValueError("the pair statistic needs at least two observations")
    ell = sample.loss_values
    if isinstance(a, BandwidthSpec) and isinstance(b, BandwidthSpec):
        total = bandwidth_totals([(a, b)], sample.x, ell, diagonal=False)[0]
    else:
        tables = GramTables(sample)
        total = tables.weighted_total(a, b) - pairwise_sum(ell * ell * tables.diag(a, b))
    if s_mean_a is None and s_mean_b is None:
        return total
    if grid is None:
        raise ValueError("an integration grid is required with nonzero section averages")
    sa = _grid_values(s_mean_a, grid)
    sb = _grid_values(s_mean_b, grid)
    n = sample.n
    cross_a = _kernel_sums([a], grid.points, grid.weights * sb, sample.x)[0]
    cross_b = _kernel_sums([b], grid.points, grid.weights * sa, sample.x)[0]
    total -= (n - 1) * pairwise_sum(ell * cross_a)
    total -= (n - 1) * pairwise_sum(ell * cross_b)
    total += n * (n - 1) * grid.integrate(sa * sb)
    return total


def v_statistic(spec, sample: Sample, s_mean=None, grid=None) -> float:
    """V = (1/n) sum_i ||K(X_i, .) ell_i - s_K||_2^2.

    With s_mean = None this is exactly :func:`sbar_empirical`; with the
    section average supplied (a callable or its values at ``grid.points``),
    E(V) = sbar - ||s_K||_2^2.
    """
    base = sbar_empirical(spec, sample)
    if s_mean is None:
        return base
    if grid is None:
        raise ValueError("an integration grid is required with a nonzero section average")
    s_vals = _grid_values(s_mean, grid)
    ell = sample.loss_values
    cross = _kernel_sums([spec], grid.points, grid.weights * s_vals, sample.x)[0]
    norm_sq = grid.integrate(s_vals * s_vals)
    return base - 2.0 * pairwise_sum(ell * cross) / sample.n + norm_sq


def w_statistic(a, b, sample: Sample, s_mean_a, s_mean_b, s_true, grid) -> float:
    """W = <shat_a - s_a, s_b - s>_2, integrated on the supplied grid.

    Each of the three functions is a vectorized callable on row-stacked
    points or its values at ``grid.points``.  E(W) = 0 because shat_a is
    unbiased for its own section average s_a.
    """
    shat = estimate_on_grid(a, sample, grid.points)
    sa, sb, st = (_grid_values(fn, grid) for fn in (s_mean_a, s_mean_b, s_true))
    return grid.integrate((shat - sa) * (sb - st))
