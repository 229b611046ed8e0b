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
entries <K_a(X_i, .), K_b(X_j, .)>_2.  :class:`GramTables` reads these
totals through one reader, keeps nothing per kernel pair and reduces in a
fixed order, so repeated and multi-process runs, and runs at any BLAS
thread count, agree bit for bit.
A bandwidth Gram table is a function of the pairwise differences
X_i - X_j, symmetric with a constant diagonal; :func:`bandwidth_totals`
reduces many pairs in one sweep over the strict upper triangle, in fixed
row blocks.  A wide Gaussian pair at d = 1 skips the sweep: its total is
the series sum_k tau^k / k! M_k^2 of squared moments of the sample
(:func:`_series_sum`), whose terms are all >= 0 and so cannot cancel, at
O(n) per term instead of one ``exp`` per pair of points; which pairs take
it depends on n, the sample's range and the pair alone
(:func:`_series_plan`).  The sweep allocates its O(n) scratch once, forms each
block's differences once for every pair, and contracts each pair's block
with the loss weights in BLAS dot products.  At d >= 2 the Gaussian
factor exp(-delta_q^2 / (2 v_q)) of each distinct (q, v_q) is evaluated
once per block and shared by every pair that uses it.  A projection
estimator is a coefficient tensor instead:
with T = sum_i ell_i (x)_q phi^{m_q}(X_iq), of shape (m_1, ..., m_d),

    shat(x) = (1/n) sum_j w_j T_j prod_q phi_{j_q}(x_q),

so the totals are small quadratic forms in T and risk-grid values expand
T at the grid points.  For a nested basis every order's totals and
penalty diagonals are partial sums over the basis index, which
:class:`GramTables` keeps as prefix tables: a family's whole criterion
is one gather from them (:meth:`GramTables.family_rows`).  These cost
O(n prod_q m_q) time and O(n sum_q m_q) memory, and the families keep prod_q m_q <= n.  No path
on selection or experiments builds an n x n table.

:func:`estimate_on_grid` evaluates any number of members of a family at
once and shares the work between them.  Bandwidth members walk the
points in column blocks of a fixed scratch budget: the squared
differences to a block are formed once, and each member adds one
in-place pass and one product with ell.  On a d = 1 grid that records
its uniform axis (a :func:`~pcoselect.quadrature.trapezoid_grid`, passed
as the grid and not as its points), a Gaussian member factors instead:
each entry exp(-(G_b + k step - x_i)^2 / (2 h^2)) is an anchor factor in
(b, i) times a shift factor in (k, i) times a drift factor in (b, k), so
a stride of B offsets per anchor cuts the ``exp`` calls about B-fold
(:func:`_axis_rows`).  The risk grids of :mod:`~pcoselect.experiments`
take this path; raw point arrays (the quotient, CLI ``estimate``), the
Gauss-Legendre statistic grids, Epanechnikov and projection members,
d >= 2 and members with h near 1/n keep the block path and its bits.
Nested projection members share
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
factored path keeps to matrix-vector products too, one per offset: a
matrix product's rounding follows the BLAS thread count.  The
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
import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numerics
from .bases import BasisKind, basis_matrix, histogram_cells
from .errors import DataError, check_table_size
from .kernels import (
    BandwidthSpec,
    BaseKind,
    ProjectionSpec,
    bandwidth_gram_entries,
    check_pair,
    histogram_section_inner,
    section_inner_matrix,
    section_sq_norm_points,
    spec_id,
    weighted_cross_gram,
)
from .numerics import pairwise_sum

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
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"{path}: cannot read data file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: data file is not {exc.encoding} text ({exc.reason})") from exc
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in lines[0]]
    d = len(header) - 1
    if d < 1 or header[-1] != "y" or header[:-1] != [f"x{q + 1}" for q in range(d)]:
        raise DataError(f"{path}: header must be x1,...,xd,y (got {','.join(header)})")
    arr, rejected = _numeric_rows([line for line in lines[1:] if line], d)
    if rejected:
        log.warning("%s: dropped %d malformed or non-finite rows", path, rejected)
    if arr.shape[0] == 0:
        raise DataError(f"{path}: no usable data rows")
    return Sample(arr[:, :d], arr[:, d], loss)


def _numeric_rows(lines: list, d: int) -> tuple:
    """The rows of d + 1 finite numbers among nonempty ``csv`` rows, as an
    array, and the count of the others.

    Every field goes through ``float`` in one flat pass; only a file with
    an unparseable field is converted again row by row, to drop that row.
    """
    rows = [line for line in lines if len(line) == d + 1]
    rejected = len(lines) - len(rows)
    try:
        arr = np.fromiter(map(float, itertools.chain.from_iterable(rows)), np.float64, len(rows) * (d + 1))
    except ValueError:
        parsed = []
        for line in rows:
            try:
                parsed.append([float(v) for v in line])
            except ValueError:
                rejected += 1
        arr = np.asarray(parsed, dtype=np.float64)
    arr = arr.reshape(-1, d + 1)
    finite = np.isfinite(arr).all(axis=1)
    return arr[finite], rejected + int(np.count_nonzero(~finite))


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
# Scratch budget, in float64 entries, of a coefficient tensor's products:
# each pass over the sample sums max(1, _COEFF_ENTRIES // n) coefficients,
# from one scratch array of that many rows of n products and one gather of
# basis values of the same size (4 MB in all).
_COEFF_ENTRIES = 1 << 18
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
# Anchor strides B of the uniform-axis Gaussian path (:func:`_axis_rows`):
# at most 32, and at least 3, below which a member takes the block path.
# At n = 1000 and 2048 points one member took 1.0-1.3 ms at B = 32 against
# 5-7 ms in blocks; B = 3 saved 9-20% at n = 1000 and 5000, while B = 2
# lost 10-25% at n = 1000.
_AXIS_STRIDE = 32
_AXIS_MIN_STRIDE = 3
# Largest exponent of the path's shift factors: e^300 leaves room for a
# product of two of them with a kernel value of at most 1.
_SHIFT_EXPONENT = 300.0
# Anchor factors below this are set to 0: they hold every floored entry,
# whose products with shift factors would be subnormal and made the BLAS
# contraction of a member about twice as slow.
_NEGLIGIBLE = math.exp(_EXP_FLOOR + 1.0)
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
# Cost of an Epanechnikov sweep entry in Gaussian entries: each is the exact
# 3-node convolution rule per dimension, about 40 ns against 2.3 ns.
_CONVOLUTION_COST = 16
# Overflow in the block builders leaves an inf or nan, which pco_select and the
# CLI's estimate turn into a DataError, or a kernel entry at its exact limit;
# pool workers do not inherit the caller's np.errstate, so the builders carry it.
_OVERFLOW_IGNORED = np.errstate(over="ignore", invalid="ignore")


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
    out = np.empty(math.prod(shape))
    # one coefficient per row, its n products contiguous
    scratch = np.empty((min(max(1, _COEFF_ENTRIES // ell.size), out.size), ell.size))
    for start in range(0, out.size, scratch.shape[0]):
        index = np.unravel_index(np.arange(start, min(start + scratch.shape[0], out.size)), shape)
        terms = np.multiply(ell, values[0].T[index[0]], out=scratch[: index[0].size])
        for q in range(1, len(values)):
            terms *= values[q].T[index[q]]
        out[start : start + terms.shape[0]] = np.sum(terms, axis=1)
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
    for tab in tables:
        tab._widen(top)
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


def _bandwidth_rows(specs, x: np.ndarray, w: np.ndarray, points: np.ndarray, divisor, axis=None) -> np.ndarray:
    """Bandwidth members at the points, shape (members, weight rows, P);
    ``w`` holds one weight row per sample point.

    Given the uniform ``axis`` (lo, step, P) of a d = 1 grid, a Gaussian
    member whose anchor stride (:func:`_axis_stride`) is at least
    ``_AXIS_MIN_STRIDE`` takes the factored path, :func:`_axis_rows`.
    Every other member walks the points in fixed column blocks.  A block
    forms the squared differences (x_iq - g_pq)^2 once, into reused
    scratch.  Each member then takes one in-place pass per dimension: the
    Gaussian exponent sum_q delta_q^2 (-1 / (2 h_q^2)), floored at
    ``_EXP_FLOOR`` if it can reach that far, and one ``exp``, or the
    Epanechnikov product prod_q max(0, 1 - delta_q^2 / h_q^2), and one
    ``w_j @ block`` per weight row.  That is one gemv per row and not one
    gemm for the stack: BLAS rounds the two differently, and a gemv on a
    contiguous row gives every row the bits of a single-row call.  The
    constant prod_q k(0) / h_q / divisor multiplies the rows.  Large
    evaluations compute their blocks on the worker pool
    (:func:`_map_blocks`); a block is a pure function of its columns, and
    a member's rows are the same whichever members share the call.
    """
    n, d = x.shape
    rows = np.empty((len(specs), len(w), points.shape[0]))
    blocked = list(range(len(specs)))
    if axis is not None:
        lo, step, count = axis
        u = x[:, 0] - lo
        ends = (float(u.min()), float(u.max()), 0.0, (count - 1) * step)
        span = (min(ends), max(ends))
        for k, spec in enumerate(specs):
            stride = _axis_stride(spec, 0.5 * (span[1] - span[0]) * abs(step), n)
            if stride >= _AXIS_MIN_STRIDE:
                rows[k] = _axis_rows(spec, u, w, step, count, span, stride, divisor)
                blocked.remove(k)
    if blocked:
        members = [specs[k] for k in blocked]
        args = (members, np.ascontiguousarray(x), np.ascontiguousarray(w), np.ascontiguousarray(points), divisor)
        starts = range(0, points.shape[0], _grid_width(n, d))
        blocks = _map_blocks(_grid_block_builder, args, starts, len(members) * n * points.shape[0])
        if blocks:
            rows[blocked] = np.concatenate(blocks, axis=2)
    return rows


def _axis_stride(spec, reach: float, n: int) -> int:
    """Anchor stride B of :func:`_axis_rows` for a member, 1 for a member
    that is not a d = 1 Gaussian.

    ``reach`` is half the span of the sample and the axis times the step.
    The shift factors of a stride B reach exp(reach (B - 1) / h^2), which
    stays below exp(``_SHIFT_EXPONENT``).  B is at most ``_AXIS_STRIDE``
    and 2 n B at most half of ``_GRID_SCRATCH``, so every member of a
    sample of more than _GRID_SCRATCH / 12 points takes the block path.
    """
    if spec.base.kind is not BaseKind.GAUSSIAN or spec.d != 1:
        return 1
    stride = max(1, min(_AXIS_STRIDE, _GRID_SCRATCH // (4 * n)))
    scale = reach / (spec.h[0] * spec.h[0])
    if scale * (stride - 1) > _SHIFT_EXPONENT:
        stride = int(_SHIFT_EXPONENT // scale) + 1
    return stride


def _axis_rows(spec, u: np.ndarray, w: np.ndarray, step: float, count: int, span, stride: int,
               divisor) -> np.ndarray:
    """A Gaussian member at the ``count`` points lo + p step of a uniform
    axis, shape (weight rows, count); ``u`` is the sample less lo, and
    ``span`` the (low, high) ends of the sample and the axis, less lo.

    Write p = b B + k with 0 <= k < B = ``stride``, the anchor G_b = b B step
    and s = 1 / h^2.  Around the centre c of the span, every entry factors
    exactly:

        exp(-(G_b + k step - u_i)^2 s / 2) = A[b, i] S[k, i] D[b, k],
        A = exp(-(G_b - u_i)^2 s / 2),
        S = exp((u_i - c) k step s),
        D = exp(-(G_b - c) k step s - (k step)^2 s / 2),

    so row_j[b B + k] = D[b, k] sum_i w_ji A[b, i] S[k, i] takes
    n (P / B + B) + P evaluations of ``exp`` instead of n P.  A is floored
    at ``_EXP_FLOOR`` where its exponent can reach it, and then set to 0
    below ``_NEGLIGIBLE``: given the bound on B, the entry of such an A is
    below e^-227, where the block path reads at most that or e^-700.

    The contraction is one BLAS gemv per weight row, offset k and chunk of
    anchors, never one gemm: a gemm's rounding follows the BLAS thread
    count, a gemv's does not.  Working relative to lo keeps k step and G_b
    within a few ulp of the offsets.  Against the block path the rows
    differ by a few 1e-14 of their largest entry on supports near 0, and
    by up to 2.6e-13 on [5, 6], where the block path's own grid points are
    rounded to ulp(5).  The anchors go in chunks of _GRID_SCRATCH / (2 n),
    so A, S and the weighted S hold at most ``_GRID_SCRATCH`` entries.
    The path runs in the calling process: at n (P / B + B) evaluations it
    stays below the pool's break-even.
    """
    n = u.size
    s = 1.0 / (spec.h[0] * spec.h[0])
    centre = 0.5 * (span[0] + span[1])
    offsets = np.arange(stride) * step
    anchors = np.arange(0, count, stride) * step
    shift = np.exp(np.multiply.outer(offsets * s, u - centre))
    drift = np.exp(np.multiply.outer(centre - anchors, offsets * s) - 0.5 * s * offsets * offsets)
    floor = _reaches_floor([(span[1] - span[0]) ** 2], [-0.5 * s])
    chunk = max(1, _GRID_SCRATCH // (2 * n))
    sums = np.empty((len(w), anchors.size, stride))
    weighted = np.empty_like(shift)
    for start in range(0, anchors.size, chunk):
        block = np.subtract.outer(u, anchors[start : start + chunk])
        np.square(block, out=block)
        block *= -0.5 * s
        if floor:
            np.maximum(block, _EXP_FLOOR, out=block)
        np.exp(block, out=block)
        if floor:
            block[block < _NEGLIGIBLE] = 0.0
        for wj, out in zip(w, sums[:, start : start + chunk]):
            np.multiply(shift, wj, out=weighted)
            for k, row in enumerate(weighted):
                out[:, k] = row @ block
    sums *= drift
    sums *= spec.base.at_zero / spec.h[0] / divisor
    return sums.reshape(len(w), -1)[:, :count]


@_OVERFLOW_IGNORED
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

    @_OVERFLOW_IGNORED
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

    ``points`` is an array or an :class:`~pcoselect.quadrature.IntegrationGrid`.
    Bandwidth members walk the points in column blocks whose width depends
    on len(x) and d alone, so scratch memory is fixed whatever the number
    of points (:func:`_bandwidth_rows`); on a grid that records its uniform
    axis, Gaussian members at d = 1 factor over it instead
    (:func:`_axis_rows`), in the same scratch budget.  Projection members expand the
    coefficient tensor of (x, w_j) at the points (:func:`_projection_rows`),
    taken from ``tables`` when given: those of a sample with design x and
    loss values w, for a single weight vector.  Otherwise one
    :class:`GramTables` is built per weight row.
    """
    axis = getattr(points, "axis", None)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    for spec in specs:
        _check_dim(spec, points)
        _check_dim(spec, x)
    stack = np.atleast_2d(w)
    out = np.empty((len(specs), len(stack), points.shape[0]))
    bandwidth = [k for k, s in enumerate(specs) if isinstance(s, BandwidthSpec)]
    projection = [k for k, s in enumerate(specs) if isinstance(s, ProjectionSpec)]
    if bandwidth:
        out[bandwidth] = _bandwidth_rows([specs[k] for k in bandwidth], x, stack, points, divisor, axis)
    if projection:
        tables = [tables] if tables is not None else [GramTables(Sample(x, wj, LossKind.IDENTITY)) for wj in stack]
        out[projection] = _projection_rows([specs[k] for k in projection], tables, points, divisor)
    return out[:, 0] if np.ndim(w) == 1 else out


def estimate_on_grid(specs, sample, points: np.ndarray) -> np.ndarray:
    """shat_K at row-stacked evaluation points, for one member or several.

    ``specs`` is one kernel spec, giving shape (P,), or a sequence of
    members, giving (N, P) with one row per member.  ``points`` is an
    array, or an :class:`~pcoselect.quadrature.IntegrationGrid` whose
    recorded uniform axis lets d = 1 Gaussian members take the factored
    path of :func:`_axis_rows`.  ``sample`` is a
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
# The series of :func:`_series_sum`: a point leaves it once its terms are at
# most 2^-128 (``_SERIES_LOG_DROP``), and no entry of its power table falls
# below 2^-600 |ell_i| (``_SERIES_LOG_FLOOR``).  At most _SERIES_MAX_TERMS
# terms, which reach tau = 346.9, where tau^k / k! <= e^tau < 1e151 is far
# from overflow and the pair's swept exponents could not reach
# ``_EXP_FLOOR`` (they stop at -2 tau).
_SERIES_LOG_DROP = -128.0 * math.log(2.0)
_SERIES_LOG_FLOOR = -600.0 * math.log(2.0)
_SERIES_MAX_TERMS = 1024
# Scratch budget, in float64 entries, of the series' power table (512 KB).
_SERIES_SCRATCH = 1 << 16
# A Gaussian pair at d = 1 takes the series where it has at most
# n - _SERIES_BREAK_EVEN terms.  A series pair costs a fixed 100-250 us plus
# 0.6-0.9 ns per term and point, a swept one 1.7-2.1 ns per entry of its
# triangle on a pool of 2 CPUs (more on one), so the break-even in terms
# grows about linearly in n, less a share of the fixed cost that falls as
# 1 / n.  The marginal pair of a 40-pair sweep against the series, medians
# (ranges) of five alternating rounds on a 2-CPU VM: n = 500, 262 (212-301)
# us against 256 (182-303) us at 200 terms and 329 (214-354) us at 250;
# n = 750, 533 (400-697) us against 506 (382-578) us at 450 terms and 591
# (431-751) us at 550; n = 1000, 852 (756-1246) us against 799 (514-868)
# us at 600 terms and 879 (623-1021) us at 700.  That puts the break-even
# near 200, 450 and 650 terms.
_SERIES_BREAK_EVEN = 300
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
    """G_ab[i, i] = <K_a(x, .), K_b(x, .)>_2, the same at every x; a pair
    without a closed form (:func:`~pcoselect.kernels.check_pair`) raises."""
    check_pair(a, b)
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


def _series_threshold(k: int) -> float:
    """x_k = (2^-128 k!)^(1 / k), which grows with k: from step k of the
    series on, every term (tau t^2)^j / j! of a point with tau t^2 <= x_k
    is at most 2^-128."""
    return math.exp((math.lgamma(k + 1) + _SERIES_LOG_DROP) / k)


def _series_terms(tau: float) -> int:
    """The number of terms of :func:`_series_sum` at tau: the first k with
    x_k >= tau, where every point of [-1, 1] has left the series, or
    ``_SERIES_MAX_TERMS`` + 1 where there is none up to that cap."""
    lo, hi = 1, _SERIES_MAX_TERMS + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _series_threshold(mid) >= tau:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _centre_and_half_range(x: np.ndarray) -> tuple:
    """The midpoint c and the half-range rho of a d = 1 sample."""
    lo, hi = float(x.min()), float(x.max())
    return 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo


def _series_points(x: np.ndarray, ell: np.ndarray) -> tuple:
    """The sample as :func:`_series_sum` reads it: t = (x - c) / rho in
    [-1, 1] (:func:`_centre_and_half_range`; t = 0 where rho = 0), and
    ell, both in order of decreasing t^2, and -t^2 (ascending)."""
    c, rho = _centre_and_half_range(x)
    t = (x[:, 0] - c) / rho if rho > 0.0 else np.zeros(x.shape[0])
    order = np.argsort(-(t * t), kind="stable")
    t = t[order]
    return t, ell[order], -(t * t)


def _series_sum(points: tuple, tau: float, terms: int, scratch: np.ndarray) -> float:
    """sum_{i,j} ell_i ell_j exp(-tau (t_i - t_j)^2 / 2) as
    sum_k tau^k / k! M_k^2 with M_k = sum_i w_i t_i^k and
    w_i = ell_i exp(-tau t_i^2 / 2), over the first ``terms`` terms;
    ``points`` is :func:`_series_points`.

    Every term of the outer sum is >= 0, so it never cancels.  Point i
    leaves the moments from the first pass at a step k with
    tau t_i^2 <= x_k (:func:`_series_threshold`); each term it would still
    add is then at most 2^-128, and all the terms left out come to at most
    2^-63 sqrt(terms) sum_{i,j} |ell_i ell_j| exp(-tau (t_i - t_j)^2 / 2).
    The points go by decreasing t^2, so the ones left are a prefix.  The
    powers w_i t_i^k are built in passes of rows k, k + 1, ... in the
    ``scratch`` table: the first row from the last row of the pass
    before, and each further run of rows from the rows above it times a
    power of t by repeated squaring.  A pass ends before any entry can fall
    below 2^-600 |ell_i|, so that no product is subnormal.  Each M_k is the
    ``np.sum`` of its row, a pairwise sum that involves neither BLAS nor
    any other pair.
    """
    t, ell, neg_sq = points
    w = ell * np.exp(neg_sq * (0.5 * tau))
    moments = np.zeros(terms)
    moments[0] = np.sum(w)
    k = 1
    while k < terms:
        low = _series_threshold(k)
        m = int(np.searchsorted(neg_sq, -low / tau))
        if not m:
            break
        # with tau t^2 in (low, tau], an entry of row j is at least
        # min(exp(-tau / 2), exp(-low / 2) (low / tau)^(j / 2)) |ell|, and tau <= 347
        reach = (-2.0 * _SERIES_LOG_FLOOR - low) / math.log(tau / low) if low < tau else math.inf
        rows = max(1, min(terms - k, scratch.size // m, int(reach) - k + 1))
        table = scratch[: rows * m].reshape(rows, m)
        np.multiply(w[:m], t[:m], out=table[0])
        power, done = t[:m], 1
        while done < rows:
            step = min(done, rows - done)
            np.multiply(table[:step], power, out=table[done : done + step])
            done += step
            if done < rows:
                power = power * power
        np.sum(table, axis=1, out=moments[k : k + rows])
        # the last row, in the scratch: the next pass reads it before it writes there
        w = table[-1]
        k += rows
    coefs = np.ones(terms)
    np.cumprod(tau / np.arange(1.0, terms), out=coefs[1:])
    return pairwise_sum(coefs * (moments * moments))


def _series_plan(pairs, x: np.ndarray) -> list:
    """Per pair, (tau, terms) where the pair takes :func:`_series_sum`, else None.

    Only Gaussian pairs at d = 1 qualify, and only where the series has at
    most ``_SERIES_MAX_TERMS`` terms and no more than the sweep's
    break-even at this n, n - ``_SERIES_BREAK_EVEN``.  With rho the
    half-range of the sample, tau = rho^2 / (h_a^2 + h_b^2), so the plan
    follows from n, the range and the pair alone.
    """
    n, d = x.shape
    if d != 1:
        return [None] * len(pairs)
    rho = _centre_and_half_range(x)[1]
    limit = min(_SERIES_MAX_TERMS, n - _SERIES_BREAK_EVEN)
    plan = []
    for a, b in pairs:
        entry = None
        if a.base.kind is BaseKind.GAUSSIAN and b.base.kind is BaseKind.GAUSSIAN:
            tau = rho * rho / (a.h[0] * a.h[0] + b.h[0] * b.h[0])
            terms = _series_terms(tau)
            if terms <= limit:
                entry = (tau, terms)
        plan.append(entry)
    return plan


def bandwidth_totals(pairs, x: np.ndarray, ell: np.ndarray, consts) -> list:
    """sum_{i,j} ell_i ell_j G_ab[i, j] for every bandwidth pair (a, b): one
    series each for the wide Gaussian pairs at d = 1, one sweep for the rest.

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
    of the budget and none is built.  ``consts`` holds each pair's c_ab
    from :func:`_bandwidth_diag_value`, which checks the pair, so every
    pair is checked before any block is computed, and a caller that also
    needs the diagonal computes c_ab once.

    At d = 1 a Gaussian pair whose series has few enough terms
    (:func:`_series_plan`) skips the sweep.  With c the midpoint of the
    sample's range, rho its half-range, t_i = (x_i - c) / rho and
    tau = rho^2 / (h_a^2 + h_b^2), its sum of exponentials is exactly
    sum_k tau^k / k! M_k^2 with M_k = sum_i ell_i exp(-tau t_i^2 / 2) t_i^k,
    the one-cluster case of the fast Gauss transform (Greengard and
    Strain, 1991).  Every term is a square times a positive number, so the
    outer sum never cancels, whatever the signs of ell, and each term costs
    O(n) where the sweep evaluates n (n - 1) / 2 exponentials
    (:func:`_series_sum`).  The series runs in this process with a scratch
    table of ``_SERIES_SCRATCH`` entries; which pairs take it depends on n,
    the sample's range and the pair alone, so such a pair, too, has the
    same bits alone as in its family.  Narrow Gaussian pairs,
    Epanechnikov pairs and every pair at d >= 2 are swept.  A debug event
    on this module's logger gives the number of pairs on each path and the
    largest term count.

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
    plan = _series_plan(pairs, x)
    totals = [0.0] * len(pairs)
    series = [k for k, entry in enumerate(plan) if entry is not None]
    if series:
        points = _series_points(x, ell)
        scratch = np.empty(max(_SERIES_SCRATCH, n))
        for k in series:
            totals[k] = consts[k] * _series_sum(points, *plan[k], scratch)
    swept = [k for k, entry in enumerate(plan) if entry is None]
    log.debug("bandwidth totals: n %d, %d pairs by series (at most %d terms), %d pairs swept", n, len(series),
              max((plan[k][1] for k in series), default=0), len(swept))
    if not swept:
        return totals
    args = ([pairs[k] for k in swept], np.ascontiguousarray(x), np.ascontiguousarray(ell))
    scales = [_gaussian_scales(*pairs[k]) for k in swept]
    starts = range(0, n - 1, _SWEEP_ROWS)
    work = sum(1 if scale else _CONVOLUTION_COST for scale in scales) * n * (n - 1) // 2
    partials = np.reshape(_map_blocks(_sweep_block_builder, args, starts, work), (len(starts), len(swept)))
    sum_sq = pairwise_sum(ell * ell)
    for k, scale, column in zip(swept, scales, partials.T):
        upper = pairwise_sum(column)
        # Gaussian partials sum the entries divided by c
        totals[k] = consts[k] * (sum_sq + 2.0 * upper) if scale else consts[k] * sum_sq + 2.0 * upper
    return totals


@_OVERFLOW_IGNORED
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

    @_OVERFLOW_IGNORED
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
    """Loss-weighted section geometry of one sample, read through one reader.

    PCO needs, for kernel pairs (a, b), the totals
    sum_{i,j} ell_i ell_j G_ab[i, j] and the diagonals G_ab[i, i] of the
    table G_ab[i, j] = <K_a(X_i, .), K_b(X_j, .)>_2.  Every read, of one
    pair (:meth:`weighted_total`, :meth:`diag`) or of a family's criterion
    (:meth:`family_rows`), is one call of :meth:`_reads`, with one reader
    per kernel kind, so a pair read alone or with its family gets the same
    bits.  Nothing is kept per pair, and no n x n table is formed.

    Projection pairs never form G.  With the coefficient tensors T_a, T_b
    (see :meth:`coefficients`) the total is the quadratic form
    T_a^T ((x)_q W_a C_q W_b) T_b, where W holds the member weights and
    C_q is the basis cross-Gram.  A nested basis is evaluated once per
    dimension at the largest order of a read, and every smaller order is a
    slice of it, bit for bit.  Its totals and diagonals are partial sums
    over the basis index, read off prefix tables (:meth:`_prefix_table`)
    by one gather (:meth:`_nested_reads`).  A histogram read computes each
    axis's cells at every order it uses in one pass, and every member's
    tensor and diagonal reads them (:meth:`_histogram_reads`); a pair's
    W_a C_q W_b is built once and serves both its total and its diagonal.
    Memory per axis is n m_q basis values and n m_q prefix sums per
    distinct pair of weight vectors, or n cells per order used, plus
    prod_q m_q per tensor, with prod_q m_q <= n.  The values and prefix
    sums of an axis are bounded together, and its cells as n times its
    largest order, before they are allocated.

    Bandwidth pairs never form G either.  A read's totals come from one
    call of :func:`bandwidth_totals` (:meth:`_bandwidth_reads`), one sweep
    over the pairwise differences in fixed row blocks, with scratch
    allocated once and per-dimension Gaussian tables shared between pairs
    at d >= 2; a family's 2N - 1 pairs take one call.  In it the wide
    Gaussian pairs at d = 1 each take a series of squared moments instead,
    whose terms are all >= 0 and so cannot cancel, and the other pairs one
    sweep.  Their diagonal is a constant.  :meth:`matrix` builds the dense
    table of any pair, uncached; it is the reference the sweep and the
    coefficient form are tested against.
    """

    def __init__(self, sample: Sample):
        self.sample = sample
        self._basis_values: dict = {}  # (basis kind, q) -> (n, largest order so far)
        self._coeffs: dict = {}  # nested: basis kind; histogram: (kind, m) -> tensor
        self._prefix: dict = {}  # nested (kind, q, w_a, w_b) -> prefix table; q None for totals
        self._grams: dict = {}  # histogram (m_a, m_b, w_a, w_b) -> weighted cross-Gram

    def matrix(self, a, b) -> np.ndarray:
        """The dense n x n table for (a, b), built on every call."""
        return section_inner_matrix(a, self.sample.x, b, self.sample.x)

    def family_rows(self, specs, k0):
        """The (a, a) total, (a, k0) total and (a, k0) diagonal of every member a.

        Returns the two lists of totals and the diagonals as an (N, n)
        array, in the order of ``specs``, from one :meth:`_reads` call.
        """
        n = len(specs)
        totals, diags = self._reads([*specs, k0], [(i, i) for i in range(n)] + [(i, n) for i in range(n)], 2 * n, n)
        return totals[:n], totals[n:], diags

    def _reads(self, specs, pairs, totals: int, diagonals: int) -> tuple:
        """The totals of the first ``totals`` pairs, as a list, and the
        diagonals of the last ``diagonals`` pairs, as a (diagonals, n)
        array; each pair is two indices into ``specs``.

        Every spec is checked against the first
        (:func:`~pcoselect.kernels.check_pair`), so a read has one kernel
        kind, and a spec given twice is one.  Each pair is put in one order,
        smaller key first, from one key per spec, so its numbers do not
        depend on the order it is given in, and a pair given twice is read
        once; pairs go by their indices, so no spec is hashed.  The distinct
        pairs go to the reader of the kind, :meth:`_bandwidth_reads`,
        :meth:`_nested_reads` or :meth:`_histogram_reads`, with the distinct
        specs, the number of pairs, from the first, whose totals are asked
        for, and per diagonal row the index of its pair; it returns those
        totals and the rows.
        """
        first = {}
        index = [first.setdefault(id(s), i) for i, s in enumerate(specs)]
        for s in specs:
            check_pair(specs[0], s)
        _check_dim(specs[0], self.sample.x)
        # projection specs go by weights and then orders, which costs no
        # string; bandwidth specs by ``spec_id``, since the sweep's bits follow
        # which member is first and select-bandwidth's artifacts were fixed so
        keys = [(s.w or (), s.m) if isinstance(s, ProjectionSpec) else spec_id(s) for s in specs]
        slots, distinct, at = {}, [], []
        for i, j in pairs:
            i, j = index[i], index[j]
            if keys[j] < keys[i]:
                i, j = j, i
            k = slots.setdefault(i * len(specs) + j, len(distinct))
            if k == len(distinct):
                distinct.append((specs[i], specs[j]))
            at.append(k)
        if isinstance(specs[0], BandwidthSpec):
            reader = self._bandwidth_reads
        else:
            reader = self._nested_reads if specs[0].basis.nested else self._histogram_reads
        sums, diags = reader([specs[i] for i in first.values()], distinct, max(at[:totals], default=-1) + 1,
                             at[len(at) - diagonals :])
        return [sums[k] for k in at[:totals]], diags

    def _bandwidth_reads(self, specs, pairs, summed: int, rows) -> tuple:
        """:meth:`_reads` of bandwidth pairs.  Each pair's constant diagonal
        c_ab is computed once: it is the pair's diagonal row and scales its
        total in the one :func:`bandwidth_totals` call of the read."""
        consts = [_bandwidth_diag_value(a, b) for a, b in pairs]
        diags = np.repeat(np.array(consts)[rows, None], self.sample.n, axis=1)
        return bandwidth_totals(pairs[:summed], self.sample.x, self.sample.loss_values, consts[:summed]), diags

    # -- projection pairs in coefficient space ------------------------------

    def _values(self, basis, q: int, m: int) -> np.ndarray:
        """Basis values phi_j(X_iq), j <= m, sliced from the widest evaluation."""
        key = (basis.kind, q)
        vals = self._basis_values.get(key)
        if vals is None or vals.shape[1] < m:
            check_table_size("basis values at the sample", n=self.sample.n, m_max=m)
            vals = basis_matrix(basis, m, self.sample.x[:, q])
            self._basis_values[key] = vals
        return vals[:, :m]

    def _widen(self, top: dict):
        """Evaluate each nested basis once, at its top orders (:func:`_nested_top_orders`)."""
        for basis, orders in top.items():
            self.coefficients(ProjectionSpec(basis, orders))

    def _cell_tables(self, orders) -> tuple:
        """Per axis q, {m: (cells of every X_iq at order m, in-support mask)}
        for each m in orders[q], from one bounded pass of
        :func:`~pcoselect.bases.histogram_cells` per axis, and the mask of
        points inside the support on every axis."""
        cells, oks = [], []
        for q, m_q in enumerate(orders):
            check_table_size("histogram cells at the sample", n=self.sample.n, m_max=max(m_q))
            table, ok = histogram_cells(np.asarray(m_q), self.sample.x[:, q])
            cells.append({m: (row, ok) for m, row in zip(m_q, table)})
            oks.append(ok)
        return cells, np.logical_and.reduce(oks)

    def _histogram_tensors(self, members, cells, ok) -> dict:
        """The tensor of each histogram order tuple in ``members``, by order
        tuple, cached once computed from :meth:`_cell_tables` ``cells`` and
        ``ok``: per-cell sums of ell in sample order, times
        prod_q sqrt(m_q).  A point off the support adds +0.0 to its clipped
        cell, which changes no sum, since a sum from +0.0 is never -0.0."""
        ell = np.where(ok, self.sample.loss_values, 0.0)
        tensors = {}
        for m in members:
            tensor = self._coeffs.get((BasisKind.REGULAR_HISTOGRAM, m))
            if tensor is None:
                # the cells raveled in C order: at d = 1 they are the index
                index = cells[0][m[0]][0]
                for axis, mq in zip(cells[1:], m[1:]):
                    index = index * mq + axis[mq][0]
                sums = np.bincount(index, weights=ell, minlength=math.prod(m))
                tensor = self._coeffs[BasisKind.REGULAR_HISTOGRAM, m] = (sums * math.sqrt(math.prod(m))).reshape(m)
            tensors[m] = tensor
        return tensors

    def coefficients(self, spec: ProjectionSpec) -> np.ndarray:
        """T = sum_i ell_i (x)_q phi^{m_q}(X_iq) of ``spec``, shape spec.m, before the weights w.

        Histogram members are cell indicators, so their tensor is a per-cell
        sum of ell times prod_q sqrt(m_q), in sample order
        (:meth:`_histogram_tensors`).
        """
        _check_dim(spec, self.sample.x)
        kind = spec.basis.kind
        if not spec.basis.nested:
            if (kind, spec.m) not in self._coeffs:
                self._histogram_tensors([spec.m], *self._cell_tables([[mq] for mq in spec.m]))
            return self._coeffs[kind, spec.m]
        full = self._coeffs.get(kind)
        if full is None or any(mq > size for mq, size in zip(spec.m, full.shape)):
            orders = spec.m if full is None else tuple(map(max, spec.m, full.shape))
            values = [self._values(spec.basis, q, mq) for q, mq in enumerate(orders)]
            full = self._coeffs[kind] = _product_tensor(values, self.sample.loss_values)
        return full[tuple(slice(0, mq) for mq in spec.m)]

    def _prefix_table(self, a, b, q=None) -> np.ndarray:
        """A nested pair's prefix table, shared by every pair with its weights.

        With q None: the cumulative sums, along each axis in turn, of
        (x)_q (w_a w_b) T^2 over the widest coefficient tensor T, so that
        entry k - 1 is the total of every pair whose box min(m_a, m_b) is k.
        With an axis q: the cumulative sums along j of
        w_a,j w_b,j phi_j(X_iq)^2, one row per order, so that row k - 1 is
        the axis-q factor of the diagonal of every pair with
        min(m_aq, m_bq) = k.  The sums run in index order, so an entry does
        not depend on how wide the table is, and a table grown with the
        tensor or the basis values keeps its entries' bits.  An axis's
        basis values and all its prefix tables, n x m_max entries each,
        are bounded together before a new table is allocated.  The read
        (:meth:`_nested_reads`) has evaluated the basis at the pair's orders.
        """
        source = self._coeffs[a.basis.kind] if q is None else self._basis_values[a.basis.kind, q].T
        # the order axes end where the weights do
        axes = range(source.ndim) if q is None else [0]
        cap = min([len(s.w) for s in (a, b) if s.w is not None], default=max(source.shape))
        shape = tuple(min(k, cap) if p in axes else k for p, k in enumerate(source.shape))
        key = (a.basis.kind, q, a.w, b.w)
        table = self._prefix.get(key)
        if table is None or table.shape != shape:
            if q is not None:
                others = sum(k[:2] == key[:2] for k in self._prefix if k != key)
                check_table_size("basis values and prefix sums at the sample",
                                 tables=others + 2, n=self.sample.n, m_max=source.shape[0])
            table = np.square(source[tuple(slice(0, k) for k in shape)], order="C")
            for p in axes:
                if a.w is not None or b.w is not None:
                    k = shape[p]
                    table *= (a.weights_for(k) * b.weights_for(k)).reshape((k,) + (1,) * (table.ndim - 1 - p))
                np.cumsum(table, axis=p, out=table)
            self._prefix[key] = table
        return table

    def _nested_reads(self, specs, pairs, summed: int, rows) -> tuple:
        """:meth:`_reads` of nested projection pairs, gathered from the
        prefix tables (:meth:`_prefix_table`) of each pair of weight vectors.

        C_q is the truncated identity, so a pair's total is the sum of
        (x)_q (w_a w_b) T^2 over its box min(m_a, m_b), one entry of the
        total table, and a diagonal row is the product over axes of row
        min(m_aq, m_bq) of each axis's table, gathered straight into the
        result in chunks of rows.  A chunk's gathered rows and one table's
        rows come to at most ``_COEFF_ENTRIES`` entries, so the scratch is
        fixed.  The basis is evaluated once, at the top orders of the read,
        after the diagonal rows, the basis values and one prefix table per
        axis and pair of weight vectors are bounded together.
        """
        groups, group_rows = defaultdict(lambda: ([], [])), []  # (w_a, w_b) -> (its pairs, its rows)
        for k, (a, b) in enumerate(pairs):
            members, at = groups[a.w, b.w]
            members.append(k)
            group_rows.append(at)
        for r, k in enumerate(rows):
            group_rows[k].append(r)
        orders = tuple(map(max, zip(*(s.m for s in specs))))
        if rows:
            axis_tables = (1 + sum(1 for _, at in groups.values() if at)) * sum(orders)
            check_table_size("criterion diagonals, basis values and prefix sums at the sample", n=self.sample.n,
                             **{"members + axis tables": len(rows) + axis_tables})
        # one kind per read: the basis of the largest cap takes every top order
        self._widen({max((s.basis for s in specs), key=lambda basis: basis.m_cap): orders})
        boxes = np.minimum([a.m for a, _ in pairs], [b.m for _, b in pairs]) - 1
        row_boxes = boxes[rows]
        totals, diags = np.empty(len(pairs)), np.empty((len(rows), self.sample.n))
        step = max(1, _COEFF_ENTRIES // (2 * self.sample.n))
        for members, at in groups.values():
            a, b = pairs[members[0]]
            totals[members] = self._prefix_table(a, b)[tuple(boxes[members].T)]
            tables = [self._prefix_table(a, b, q) for q in range(a.d)] if at else []
            for lo in range(0, len(at), step):
                chunk, box = at[lo : lo + step], row_boxes[at[lo : lo + step]]
                diags[chunk] = tables[0][box[:, 0]]
                for q in range(1, a.d):
                    diags[chunk] *= tables[q][box[:, q]]
        return totals[:summed].tolist(), diags

    def _overlap(self, a, b, q: int) -> np.ndarray:
        """W_a C_q W_b of a histogram pair on axis q, built once per (orders, weights)."""
        key = (a.m[q], b.m[q], a.w, b.w)
        gram = self._grams.get(key)
        if gram is None:
            gram = self._grams[key] = weighted_cross_gram(a, b, q)
        return gram

    def _histogram_reads(self, specs, pairs, summed: int, rows) -> tuple:
        """:meth:`_reads` of histogram pairs: each axis's cells at every
        order of the read come from one pass (:meth:`_cell_tables`) and
        serve every tensor and diagonal, and each total contracts its own
        tensors in its own order (:meth:`_histogram_total`)."""
        cells, ok = self._cell_tables([sorted({s.m[q] for s in specs}) for q in range(specs[0].d)])
        tensors = self._histogram_tensors([s.m for s in specs], cells, ok)
        diags = np.reshape([self._histogram_diag(*pairs[k], cells) for k in rows], (len(rows), self.sample.n))
        return [self._histogram_total(a, b, tensors[a.m], tensors[b.m]) for a, b in pairs[:summed]], diags

    def _histogram_total(self, a, b, t_a: np.ndarray, t_b: np.ndarray) -> float:
        """The form T_a^T ((x)_q W_a C_q W_b) T_b of a histogram pair with
        tensors t_a, t_b: T_b contracted with the cross-Gram along each axis
        in ``einsum``, not BLAS, except on an axis of equal orders, whose
        cells coincide (C_q = I), so a (K, K) total needs no overlap table."""
        y = t_b
        axes = list(range(a.d))
        for q, (ma, mb) in enumerate(zip(a.m, b.m)):
            if ma == mb:
                if a.w is not None or b.w is not None:
                    y = y * (a.weights_for(ma) * b.weights_for(mb)).reshape((ma,) + (1,) * (a.d - 1 - q))
            else:
                y = np.einsum(self._overlap(a, b, q), [a.d, q], y, axes, axes[:q] + [a.d] + axes[q + 1 :])
        return pairwise_sum(t_a * y)

    def _histogram_diag(self, a, b, cells) -> np.ndarray:
        """G_ab[i, i] of a histogram pair from :meth:`_cell_tables` ``cells``
        (:func:`~pcoselect.kernels.histogram_section_inner`)."""
        return histogram_section_inner([self._overlap(a, b, q) for q in range(a.d)],
                                       [axis[mq] for axis, mq in zip(cells, a.m)],
                                       [axis[mq] for axis, mq in zip(cells, b.m)])

    # -- public reductions ----------------------------------------------------

    def diag(self, a, b) -> np.ndarray:
        """G[i, i] only: <K_a(X_i, .), K_b(X_i, .)>_2 as an n-vector."""
        return self._reads([a, b], [(0, 1)], 0, 1)[1][0]

    def weighted_total(self, a, b) -> float:
        """sum_{i,j} ell_i ell_j G_ab[i, j], reduced in a fixed order."""
        return self._reads([a, b], [(0, 1)], 1, 0)[0][0]


def estimator_inner(a, b, sample: Sample, tables: GramTables | None = None) -> float:
    """<shat_a, shat_b>_2 = (1/n^2) sum_{i,j} ell_i ell_j G_ab[i, j]."""
    if tables is None:
        tables = GramTables(sample)
    return tables.weighted_total(a, b) / sample.n**2


def _distance(own: float, cross: float, anchor: float, n: int) -> float:
    """||shat_a - shat_k0||_2^2 from the totals (a, a), (a, k0) and (k0, k0).

    Exact arithmetic gives a nonnegative number; floating point can land a
    few ulp below zero, which is clamped to zero.  A drop beyond 1e-10 is
    clamped too but logged, since it would indicate an inconsistent table.
    """
    value = own / n**2 - 2.0 * (cross / n**2) + anchor / n**2
    if value < 0.0:
        if value < -NEGATIVE_DISTANCE_TOL:
            log.warning("criterion distance %.3e clamped to 0 beyond tolerance", value)
        value = 0.0
    return value


def criterion_distance(a, k0, sample: Sample, tables: GramTables | None = None) -> float:
    """||shat_a - shat_k0||_2^2 expanded through the Gram tables (:func:`_distance`),
    from one read of the three totals."""
    if tables is None:
        tables = GramTables(sample)
    (own, cross, anchor), _ = tables._reads([a, k0], [(0, 0), (0, 1), (1, 1)], 3, 0)
    return _distance(own, cross, anchor, sample.n)


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
    Centering makes E(U) = 0.  No n x n table is built: the sum over
    i != j is the total of :class:`GramTables` less its diagonal term, both
    from one read, for either variant.
    """
    if sample.n < 2:
        raise ValueError("the pair statistic needs at least two observations")
    ell = sample.loss_values
    (total,), diags = GramTables(sample)._reads([a, b], [(0, 1)], 1, 1)
    total -= pairwise_sum(ell * ell * diags[0])
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
