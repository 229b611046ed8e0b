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
reduces many pairs at once.  At d = 1 no pair forms the differences.  A
Gaussian pair is a trapezoid sum of squares on a uniform grid,
sqrt(2 / (pi v)) step sum_p F_p^2 with
F_p = sum_i ell_i exp(-(x_i - p step)^2 / v) (:func:`_gaussian_total`),
which cannot cancel and costs O(n) ``exp`` calls, not one per pair of
points.  An Epanechnikov pair is int F_a F_b du with
F = sum_i ell_i K(u - x_i), a quadratic between the breakpoints
x_i -+ h, integrated exactly piece by piece in O(n log n)
(:func:`_epanechnikov_total`), from moments of blocks of the sample no
wider than h.  At d >= 2 every pair takes one sweep over the strict
upper triangle, in fixed row blocks.  The sweep allocates its O(n)
scratch once, forms each block's differences once for every pair, and
contracts each pair's block with the loss weights in BLAS dot products.
Every d >= 2 pair is a product of shared per-dimension tables: a
Gaussian pair's factors are exp(-delta_q^2 / (2 v_q)), floored where
their own dimension can reach the exponent floor, and an Epanechnikov
pair's the convolution of its two bandwidths at delta_q; each distinct
factor is evaluated once per block and shared by every pair that uses
it.  A projection estimator is a
coefficient tensor instead: with T = sum_i ell_i (x)_q phi^{m_q}(X_iq), of
shape (m_1, ..., m_d),

    shat(x) = (1/n) sum_j w_j T_j prod_q phi_{j_q}(x_q),

so the totals are small quadratic forms in T and risk-grid values expand
T at the grid points.  For a nested basis every order's totals and
penalty sums are partial sums over the basis index of T^2 and of
D = sum_i ell_i^2 (x)_q phi^{m_q}(X_iq)^2, which a read of
:class:`GramTables` forms as prefix tables: a member's criterion is one
entry of each (:meth:`GramTables.family_rows`).  These cost
O(n prod_q m_q) time and O(n sum_q m_q) memory, and the families keep
prod_q m_q <= n.  The tables keep only the coefficient
tensors between reads.  No path on selection or experiments builds an
n x n table.

:func:`estimate_on_grid` evaluates any number of members of a family at
once and shares the work between them.  Bandwidth members walk the
points in column blocks of a fixed scratch budget, with the sample and
the points sorted once by their first coordinate.  In each block a member
sums only the sample rows within its reach along that coordinate, a
``searchsorted`` window: h_1 for Epanechnikov, exactly, and for Gaussian
about 9.12 h_1 among the data, past which an entry is below 2^-60 of the
nearest one (the rule of the trapezoid sums), and up to the exponent
floor's 37.4 h_1 off them; a block beyond that reach of every sample
point reads exactly 0.  The squared differences to a block are formed
once over the widest window, and each member adds one in-place pass and
one product with ell over its own.  On a d = 1 grid that records
its uniform axis (a :func:`~pcoselect.quadrature.trapezoid_grid`, passed
as the grid and not as its points), a Gaussian member factors instead:
each entry exp(-(G_b + k step - x_i)^2 / (2 h^2)) is an anchor factor in
(b, i) times a shift factor in (k, i) times a drift factor in (b, k), so
a stride of B offsets per anchor cuts the ``exp`` calls about B-fold
(:func:`_axis_rows`).  The risk grids of :mod:`~pcoselect.experiments`
take this path; raw point arrays (the quotient, CLI ``estimate``), the
Gauss-Legendre statistic grids, Epanechnikov members, d >= 2 and members
with h near 1/n take the banded block path.
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

The sweep's row blocks, the d = 1 Gaussian pairs and the grid
evaluation's column blocks are pure functions of their block or pair,
and their results are put back and reduced in order.  Once a sweep, a
set of pairs or a grid is large (``_FORK_WORK``, decided from n, d and
the members or pairs alone, and for a grid from the entries of its
windows), its blocks are spread over the worker pool of
:func:`~pcoselect.numerics.pooled_map`: worker processes forked by the
first map that needs them, up to the usable CPUs, and kept for the life
of the process.  Each map sends a module-level block
builder and its arguments to the workers, and each process allocates its
scratch once per map.  The sched affinity (``taskset``) restricts the pool, and
inside a mapped item, such as a report replication, the blocks run
serially.  The bits are the same at any worker count.  A fork copies
only the calling thread, so do not start the first large sweep while
another thread holds a lock the computation needs.  The d = 1
Epanechnikov pairs always run in the calling process, member by member,
each member's table of pieces built once and dropped after its last
pair, so a family read holds at most two tables: k0's and the current
member's.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import numerics
from .bases import BasisKind, basis_matrix, histogram_cells
from .errors import DataError, check_table_size
from .kernels import (
    BandwidthSpec,
    BaseKind,
    ProjectionSpec,
    _epanechnikov_conv,
    bandwidth_gram_entries,
    check_pair,
    histogram_section_inner,
    section_inner_matrix,
    section_inner_pointwise,
    section_sq_norm_points,
    spec_id,
    weighted_cross_gram,
)
from .numerics import pairwise_sum
from .quadrature import legendre_rule

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


# Characters that end a line for ``str.splitlines`` and not for ``csv``,
# or that numpy's float parser strips as whitespace and ``float`` does
# not.  An ASCII text free of them splits into the lines that ``csv``
# reads, and numpy reads its fields as ``float`` does or refuses them.
_UNLIKE_CSV = "\x0b\x0c\x1c\x1d\x1e\x1f"


def read_sample_csv(path, loss: LossKind = LossKind.ONE) -> Sample:
    """Load a sample from CSV with header x1,...,xd,y.

    Rows containing non-finite or unparseable values are dropped with one
    counted warning; a missing, empty, or headerless file raises DataError.

    The file is read once.  Split at its ``\\r\\n``, ``\\r`` and ``\\n`` line
    ends, a well-formed body is parsed in one C-level ``np.loadtxt`` pass
    (:func:`_loaded_rows`).  A file that pass refuses, or might read
    otherwise than ``float`` (a quoted, non-ASCII or unparseable field, a
    wrong field count, a whitespace-only line), takes the row path
    instead: each ``csv`` record through ``float`` (:func:`_float_rows`).
    Both give the same x and y bits and the same warning.  A file of
    n = 10^5 rows at d = 1, written by :func:`write_sample_csv`, took
    72-73 ms and a tracemalloc peak of 15.1 MB, and 173-187 ms and 39.2 MB
    on the row path (2-CPU Xeon VM, Python 3.11, numpy 2.4).
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read data file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: data file is not {exc.encoding} text ({exc.reason})") from exc
    if not text:
        raise DataError(f"{path}: empty file")
    loaded = _loaded_rows(text)
    if loaded is None:
        # the records a csv reader of the open file would give
        records = csv.reader(io.StringIO(text, newline=""))
        header = next(records)
    else:
        header, arr = loaded
    header = [c.strip() for c in header]
    d = len(header) - 1
    if d < 1 or header[-1] != "y" or header[:-1] != [f"x{q + 1}" for q in range(d)]:
        raise DataError(f"{path}: header must be x1,...,xd,y (got {','.join(header)})")
    rejected = 0
    if loaded is None:
        arr, rejected = _float_rows(records, d)
    finite = np.isfinite(arr).all(axis=1)
    rejected += int(np.count_nonzero(~finite))
    if rejected:
        log.warning("%s: dropped %d malformed or non-finite rows", path, rejected)
    if not finite.any():
        raise DataError(f"{path}: no usable data rows")
    arr = arr[finite]
    return Sample(arr[:, :d], arr[:, d], loss)


def _loaded_rows(text: str):
    """(header fields, rows) of a file's text, the rows one array from one
    ``np.loadtxt`` parse of the nonempty lines after the header.  None
    where ``csv`` might split the text otherwise, or where numpy refuses a
    line or reads other than one row per line of as many numbers as the
    header has fields."""
    if not text.isascii() or any(c in text for c in _UNLIKE_CSV):
        return None
    lines = text.splitlines()
    # a quoted header may span lines; an unquoted csv record is its fields between commas
    if '"' in lines[0]:
        return None
    header = lines[0].split(",")
    rows = list(filter(None, itertools.islice(lines, 1, None)))
    if not rows:
        return header, np.empty((0, len(header)))
    try:
        arr = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return (header, arr) if arr.shape == (len(rows), len(header)) else None


def _float_rows(records, d: int) -> tuple:
    """The nonempty ``csv`` records of d + 1 fields that ``float`` reads,
    as an array, and the count of the other nonempty records."""
    rows, rejected = [], 0
    for line in records:
        if not line:
            continue
        if len(line) != d + 1:
            rejected += 1
            continue
        try:
            rows.append([float(v) for v in line])
        except ValueError:
            rejected += 1
    return np.asarray(rows, dtype=np.float64).reshape(-1, d + 1), rejected


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
# Floor of a Gaussian exponent before ``exp``.  numpy's vector exp takes
# about 1 ns per entry down to -707, 20-30 ns where the result underflows
# to 0 and about 200 ns where it is subnormal.  Where the exponents of a
# sweep table, an anchor table of :func:`_axis_rows` or a grid block can
# reach it, they are floored, and a floored entry reads e^-700 (about
# 1e-304) instead of 0 or a subnormal.  A grid block sums only the sample
# rows within a member's reach (:func:`_grid_windows`), which stops at
# sqrt(-2 _EXP_FLOOR) h, about 37.4 h, where the exponents pass the floor:
# a block of points all farther than that from every sample point reads
# exactly 0.
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
# Cost of a d >= 2 Epanechnikov pair's sweep entry in Gaussian entries.  A 4 x 4
# family (31 pairs, 14 shared tables) took 14 ns an entry at n = 1000, but 50-80
# ns near n = 50, where the tables' fixed costs dominate: on 2 CPUs a pooled map
# broke even at n = 40-48 and saved a fifth from n = 52-64 (3.5 -> 2.7 ms at 64).
# At 16 the family maps from n = 65, at twice the break-even work.
_CONVOLUTION_COST = 16
# Cost of one exponential of a d = 1 Gaussian trapezoid sum in Gaussian
# entries: with its subtraction, square, scaling, weighting and ``bincount``
# a pair took 7.0-7.6 ns an exponential at n = 1000 and 2000 (39 n of them),
# against 2.1 ns a d = 2 sweep entry.  At 3 an 11-pair family maps on the
# pool from n = 777.
_TRAPEZOID_COST = 3
# Overflow in the block builders leaves an inf or nan, which pco_select and the
# CLI's estimate turn into a DataError, or a kernel entry at its exact limit;
# pool workers do not inherit the caller's np.errstate, so the builders carry it.
_OVERFLOW_IGNORED = np.errstate(over="ignore", invalid="ignore")


def _map_blocks(build, args: tuple, starts, work: int) -> list:
    """``fn(start)`` at every block start (or item index), in order, with
    ``fn = build(*args)``; on the worker pool of
    :func:`~pcoselect.numerics.pooled_map` once ``work`` reaches
    ``_FORK_WORK``.  Each block is a pure function of its start and
    ``args``, so the worker count never changes a number."""
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
    """The largest order per dimension of every nested basis among ``specs``.

    The specs are grouped by the identity of their basis, an int that
    hashes in C, and each distinct basis object is hashed once.
    """
    groups = {}
    for s in specs:
        if isinstance(s, ProjectionSpec):
            groups.setdefault(id(s.basis), (s.basis, []))[1].append(s.m)
    top = {}
    for basis, orders in groups.values():
        if basis.nested:
            top[basis] = tuple(map(max, top.get(basis, orders[0]), *orders))
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
    # each table builds its tensor once, at the top orders, not member by member
    for tab, (basis, orders) in itertools.product(tables, top.items()):
        tab._nested_tensor(basis, orders)
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


@_OVERFLOW_IGNORED
def _grid_windows(specs, first: np.ndarray, p: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sample rows each member sums in each column block, shape
    (blocks, members, 2): the half-open range [lo, hi) of the rows of
    ``first``, the sorted first coordinates of the sample, within reach of
    the block's range of first coordinates.  ``p`` holds the sorted first
    coordinates of the points and ``starts`` the first point of each block.

    An Epanechnikov member reaches h_1 (1 + 2^-40): its entries past h_1
    are exactly 0, and the pad is far more than the few ulp by which
    rounding can leave one nonzero.  A Gaussian member reaches
    sqrt(g^2 + 120 ln 2 h_1^2) from a block each of whose points has a
    sample point within g along the first coordinate: past that every
    entry of a point is below 2^-60 of its nearest one (the rule of the
    trapezoid sums), so a block among the data sums about 9.12 h_1 to
    each side and a block off them still sums its points' nearest ones.
    The reach stops at sqrt(-2 ``_EXP_FLOOR``) h_1, about 37.4 h_1, past
    which an entry is below the exponent floor, so a point farther than
    that from every sample point reads exactly 0 unless its block holds
    points nearer the data.  Each bound steps one ulp outward, so
    rounding in p -+ reach drops no row, and a NaN bound (NaN points sort
    last) takes the whole sample, so a NaN point reads NaN.
    """
    after = np.searchsorted(first, p)
    gap = np.minimum(np.abs(p - first[np.maximum(after - 1, 0)]), np.abs(first[np.minimum(after, first.size - 1)] - p))
    far = np.maximum.reduceat(gap, starts)
    low, high = p[starts], p[np.append(starts[1:], p.size) - 1]
    windows = np.empty((starts.size, len(specs), 2), dtype=np.intp)
    for k, spec in enumerate(specs):
        h = spec.h[0]
        if spec.base.kind is BaseKind.GAUSSIAN:
            reach = np.minimum(np.hypot(far, math.sqrt(2.0 * _TRAPEZOID_DROP) * h), math.sqrt(-2.0 * _EXP_FLOOR) * h)
        else:
            reach = h * (1.0 + 2.0**-40)
        lo, hi = low - reach, high + reach
        lo[np.isnan(lo)], hi[np.isnan(hi)] = -np.inf, np.inf
        windows[:, k, 0] = np.searchsorted(first, np.nextafter(lo, -np.inf), "left")
        windows[:, k, 1] = np.searchsorted(first, np.nextafter(hi, np.inf), "right")
    return windows


def _bandwidth_rows(specs, x: np.ndarray, w: np.ndarray, points: np.ndarray, divisor, axis=None) -> np.ndarray:
    """Bandwidth members at the points, shape (members, weight rows, P);
    ``w`` holds one weight row per sample point.

    Given the uniform ``axis`` (lo, step, P) of a d = 1 grid, a Gaussian
    member whose anchor stride (:func:`_axis_stride`) is at least
    ``_AXIS_MIN_STRIDE`` takes the factored path, :func:`_axis_rows`.
    Every other member takes the banded block path.  The sample, with its
    weight rows, and the points are sorted once by their first coordinate
    (ties by the next ones, so permuted points, or a permuted sample of
    distinct points, give the same bits, permuted), and the points are
    walked in fixed column blocks of :func:`_grid_width`.  Each member
    sums, in each block, only the sorted rows within its reach of the
    block (:func:`_grid_windows`); every window is found before the blocks
    run, and the pool threshold (:func:`_map_blocks`) counts the entries
    of the windows.  The block rows are computed by
    :func:`_grid_block_builder`, on the worker pool for large evaluations,
    and put back in the points' order.  A block is a pure function of its
    columns and a member's window of its own, so a member's rows are the
    same whichever members share the call.  A point with an infinite
    coordinate and no NaN reads exactly 0, as its kernel values are; a NaN
    point reads NaN.
    """
    n, d = x.shape
    rows = np.empty((len(specs), len(w), points.shape[0]))
    # out of every kernel's reach, where a floored Gaussian exponent would read e^-700
    infinite = np.isinf(points).any(axis=1) & ~np.isnan(points).any(axis=1)
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
    if blocked and points.shape[0]:
        members = [specs[k] for k in blocked]
        order, place = np.lexsort(x.T[::-1]), np.lexsort(points.T[::-1])
        x, w, points = x[order], np.ascontiguousarray(w[:, order]), points[place]
        starts = np.arange(0, points.shape[0], _grid_width(n, d))
        windows = _grid_windows(members, x[:, 0], points[:, 0], starts)
        cols = np.diff(np.append(starts, points.shape[0]))
        work = int(np.sum((windows[..., 1] - windows[..., 0]) * cols[:, None]))
        args = (members, x, w, points, windows, divisor)
        blocks = _map_blocks(_grid_block_builder, args, range(len(windows)), work)
        rows[blocked] = np.take(np.concatenate(blocks, axis=2), np.argsort(place), axis=2)
    rows[..., infinite] = 0.0
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
def _grid_block_builder(specs, x: np.ndarray, w: np.ndarray, points: np.ndarray, windows: np.ndarray, divisor):
    """The block function of :func:`_bandwidth_rows`, with its scratch:
    the rows of every member and weight row at the points of block ``b``.
    The sample and the points are sorted by their first coordinate and
    ``windows[b]`` holds each member's range of sample rows.

    The block forms the squared differences (x_iq - g_pq)^2 once, over
    the union of its members' windows, into reused scratch.  Each member
    then takes, over its own rows, one in-place pass per dimension: the
    Gaussian exponent sum_q delta_q^2 (-1 / (2 h_q^2)), floored at
    ``_EXP_FLOOR`` if it can reach that far (on the first coordinate over
    the window and the block, on the others over the whole sample and the
    block), and one ``exp``, or the Epanechnikov product
    prod_q max(0, 1 - delta_q^2 / h_q^2); then one ``w_j @ block`` per
    weight row.  That is one gemv per row and not one gemm for the stack:
    BLAS rounds the two differently, and a gemv on a contiguous row gives
    every row the bits of a single-row call.  The constant
    prod_q k(0) / h_q / divisor multiplies the rows, and a member with an
    empty window reads 0.
    """
    n, d = x.shape
    width = _grid_width(n, d)
    squares = [np.empty(n * width) for _ in range(d)]
    work, term = np.empty(n * width), np.empty(n * width)
    consts = [math.prod(spec.base.at_zero / hq for hq in spec.h) / divisor for spec in specs]
    scales = [[-0.5 / (hq * hq) for hq in spec.h] for spec in specs]
    top, bottom = x[:, 1:].max(axis=0), x[:, 1:].min(axis=0)
    # the members whose exponents reach the floor somewhere among all the points
    span_sq = np.ptp(np.concatenate([x, points]), axis=0) ** 2
    floors = [spec.base.kind is BaseKind.GAUSSIAN and _reaches_floor(span_sq, sc) for spec, sc in zip(specs, scales)]

    @_OVERFLOW_IGNORED
    def block_rows(b):
        block = points[b * width : (b + 1) * width]
        cols = block.shape[0]
        rows = np.zeros((len(specs), len(w), cols))
        spans = [(k, lo, hi) for k, (lo, hi) in enumerate(windows[b].tolist()) if hi > lo]
        if not spans:
            return rows
        first, last = min(lo for _, lo, _ in spans), max(hi for _, _, hi in spans)
        sq = [buf[: (last - first) * cols].reshape(last - first, cols) for buf in squares]
        for q in range(d):
            np.subtract(x[first:last, q, None], block[None, :, q], out=sq[q])
            np.square(sq[q], out=sq[q])
        # |delta_q| is at most the span of the whole sample and the block past
        # the first dimension, and of the window and the block along it
        spread = []
        if d > 1 and any(floors):
            spread = (np.maximum(block[:, 1:].max(axis=0), top) - np.minimum(block[:, 1:].min(axis=0), bottom)).tolist()
        for k, lo, hi in spans:
            spec = specs[k]
            vals, tmp = work[: (hi - lo) * cols].reshape(-1, cols), term[: (hi - lo) * cols].reshape(-1, cols)
            gaussian = spec.base.kind is BaseKind.GAUSSIAN
            for q, hq in enumerate(spec.h):
                out = vals if q == 0 else tmp
                np.multiply(sq[q][lo - first : hi - first], (-0.5 if gaussian else -1.0) / (hq * hq), out=out)
                if not gaussian:
                    out += 1.0
                    np.maximum(out, 0.0, out=out)
                if q:
                    (np.add if gaussian else np.multiply)(vals, tmp, out=vals)
            if floors[k]:
                # the first coordinates of the window and the block are sorted
                span = [max(x[hi - 1, 0], block[-1, 0]) - min(x[lo, 0], block[0, 0])] + spread
                if _reaches_floor([r * r for r in span], scales[k]):
                    np.maximum(vals, _EXP_FLOOR, out=vals)
            if gaussian:
                np.exp(vals, out=vals)
            for wj, row in zip(w, rows[k]):
                np.multiply(wj[lo:hi] @ vals, consts[k], out=row)
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
    Bandwidth members walk the points, sorted by their first coordinate, in
    column blocks whose width depends on len(x) and d alone, so scratch
    memory is fixed whatever the number of points, and each member sums
    only the x within its reach of a block along the first coordinate
    (:func:`_grid_windows`): h_1 for Epanechnikov, and for Gaussian about
    9.12 h_1 among the x, past which its entries are below 2^-60 of the
    nearest one, and up to 37.4 h_1 off them.  A block of points all
    farther than that from every x reads exactly 0.  On a grid that records
    its uniform axis, Gaussian members at d = 1 factor over it instead
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
    path of :func:`_axis_rows`.  Other bandwidth members sum, at each block
    of points, only the observations within their reach (the banded block
    path of :func:`_bandwidth_rows`), so a block of points far from the
    data reads exactly 0.  ``sample`` is a
    :class:`Sample` or the :class:`GramTables` of one; the tables left by
    selection hold the coefficient tensors that projection members reuse
    here.  The members share one pass,
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
# fit a whole block, they are built for fewer rows at a time, at least one;
# every row's dot product is the same whichever rows share a pass, so this
# changes the memory and not the numbers.
_TABLE_SCRATCH = 1 << 18
# The trapezoid sum of :func:`_gaussian_total`.  Its grid step is
# _TRAPEZOID_STEP sqrt(v) rounded down to 6 significant bits: the rule's
# aliasing error is then at most 2 exp(-pi^2 / (2 * 0.3416^2)), about 2^-60,
# of sum_ij |ell_i ell_j| exp(-(x_i - x_j)^2 / (2 v)), and every node
# q * step is an exact double.  Each point adds to the nodes whose entries
# exp(-(x - node)^2 / v) it can make at least e^-_TRAPEZOID_DROP = 2^-60 of
# its peak, the aliasing bound: the 19 nearest on each side, whatever the
# rounding of the step.
_TRAPEZOID_STEP = 0.3416
_TRAPEZOID_DROP = 60.0 * math.log(2.0)
# Points per pass of :func:`_gaussian_total`: a pass holds their entries and
# node indices, 39 of each per point (640 KB in all).  On the 2-CPU VM, a
# pair of a 2000-point sample took 0.55-0.59 ms in passes of 1024 points and
# 0.97-1.2 ms in one pass of 2000, whose arrays fall out of cache.
_TRAPEZOID_POINTS = 1024
# Columns per BLAS dot product of the sweep.  OpenBLAS splits a dot product
# of more than 10000 entries across its threads, which changes its
# rounding; shorter chunks, added in order, keep the totals independent of
# the BLAS thread count.
_CONTRACT_COLS = 4096


def _bandwidth_diag_value(a, b) -> float:
    """G_ab[i, i] = <K_a(x, .), K_b(x, .)>_2, the same at every x; a pair
    without a closed form (:func:`~pcoselect.kernels.check_pair`) raises."""
    check_pair(a, b)
    return float(bandwidth_gram_entries(a, b, [np.zeros(1)] * a.d)[0])


def _sweep_tables(pairs, n: int):
    """The shared per-dimension tables of a sweep, and its rows per pass.

    A pair in the sweep (d >= 2) is the product over q of one table per
    dimension, shared by every pair with its key: exp(scale_q delta_q^2),
    scale_q = -1 / (2 v_q), keyed (q, scale_q) for a Gaussian pair, and the
    convolution :func:`~pcoselect.kernels._epanechnikov_conv` of delta_q,
    keyed (q, min(h_aq, h_bq), max(h_aq, h_bq)) for an Epanechnikov pair.
    Returns {key: index}, per pair its table indices, and the rows per
    pass: as many as fit ``_TABLE_SCRATCH``, at least 1 and at most
    ``_SWEEP_ROWS``.  One row of the tables is bounded
    (:func:`~pcoselect.errors.check_table_size`) before any is allocated.
    """
    keys = {}
    uses = []
    for a, b in pairs:
        if a.base.kind is BaseKind.GAUSSIAN:
            factors = [(q, -0.5 / (ha * ha + hb * hb)) for q, (ha, hb) in enumerate(zip(a.h, b.h))]
        else:
            factors = [(q, min(ha, hb), max(ha, hb)) for q, (ha, hb) in enumerate(zip(a.h, b.h))]
        uses.append([keys.setdefault(key, len(keys)) for key in factors])
    check_table_size("tables of the bandwidth sweep", tables=len(keys), columns=max(n - 1, 1))
    return keys, uses, max(1, min(_SWEEP_ROWS, _TABLE_SCRATCH // (len(keys) * max(n - 1, 1))))


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


def _trapezoid_grid(v: float) -> tuple:
    """The grid of :func:`_gaussian_total` at variance v: its step,
    ``_TRAPEZOID_STEP`` sqrt(v) rounded down to 6 significant bits, the
    ratio rho of the step to sqrt(v), and the reach r, in steps, beyond
    which an entry exp(-(x - node)^2 / v) is below e^-``_TRAPEZOID_DROP``."""
    s = math.sqrt(v)
    frac, exp2 = math.frexp(_TRAPEZOID_STEP * s)
    step = math.ldexp(math.floor(frac * 64.0) / 64.0, exp2)
    rho = step / s
    return step, rho, math.ceil(math.sqrt(_TRAPEZOID_DROP) / rho - 0.5)


@_OVERFLOW_IGNORED
def _gaussian_total(x: np.ndarray, ell: np.ndarray, v: float) -> float:
    """sum_{i,j} ell_i ell_j exp(-(x_i - x_j)^2 / (2 v)) over the points x
    of a d = 1 sample, sorted, as a trapezoid sum of squares.

    By the convolution of two Gaussians the total is
    sqrt(2 / (pi v)) int F(u)^2 du with F(u) = sum_i ell_i exp(-(x_i - u)^2 / v),
    and the trapezoid rule on a uniform grid is spectrally exact for it:
    with the step of :func:`_trapezoid_grid` the total is
    sqrt(2 / (pi v)) step sum_p F(p step)^2 to about 2^-60 of the sum over
    |ell_i ell_j|.  Each point adds exp(-(x_i - p step)^2 / v) to the
    2 r + 1 = 39 nodes p nearest it, and F is one ``bincount`` of those
    entries per pass of ``_TRAPEZOID_POINTS`` points, so a pair costs 39 n
    exponentials and O(n) memory whatever v.  The sum is of squares, so it
    cannot cancel, whatever the signs of ell.

    The points split into clusters wherever two neighbours are more than
    2 r + 1 steps apart, which drops only cross terms below e^-80, and the
    nodes of each cluster are numbered from its first point, so that a
    narrow pair allocates no node between clusters.  Node positions are
    exact: a cluster within 2^46 steps of 0 keeps its points' coordinates,
    and a farther one is taken relative to its first point, which is
    exact there (Sterbenz), so the offset of each point from its node
    carries one rounding whatever the offset of the sample.
    """
    if math.isinf(v):
        # every entry is exp(0)
        return pairwise_sum(ell) ** 2
    step, rho, reach = _trapezoid_grid(v)
    width = 2 * reach + 1
    n = x.size
    breaks = np.flatnonzero(x[1:] - x[:-1] > width * step) + 1
    starts, stops = np.concatenate([[0], breaks]), np.concatenate([breaks, [n]])
    sizes = stops - starts
    first = x[starts]
    u = x - np.repeat(np.where(np.abs(first) < 2.0**46 * step, 0.0, first), sizes)
    q = np.rint(u / step)
    offset = (u - q * step) / step
    # each point's nearest node, numbered within its cluster from reach nodes before the first point's
    q -= np.repeat(q[starts], sizes)
    ends = q[stops - 1] + width
    nodes = (np.repeat(np.cumsum(ends) - ends, sizes) + q).astype(np.intp)
    F = np.zeros(int(ends.sum()))
    shifts = np.arange(width) - float(reach)
    for lo in range(0, n, _TRAPEZOID_POINTS):
        hi = min(lo + _TRAPEZOID_POINTS, n)
        entries = np.subtract.outer(offset[lo:hi], shifts)
        np.square(entries, out=entries)
        entries *= -rho * rho
        np.exp(entries, out=entries)
        entries *= ell[lo:hi, None]
        index = (nodes[lo:hi, None] - nodes[lo]) + np.arange(width)
        part = np.bincount(index.ravel(), entries.ravel())
        F[nodes[lo] : nodes[lo] + part.size] += part
    return math.sqrt(2.0 / math.pi) * rho * pairwise_sum(F * F)


def _trapezoid_builder(x: np.ndarray, ell: np.ndarray, variances):
    """The block function of the trapezoid sums of :func:`bandwidth_totals`:
    pair k's :func:`_gaussian_total` at variance ``variances[k]``."""
    return lambda k: _gaussian_total(x, ell, variances[k])


def _add_moved(moments: np.ndarray, part: np.ndarray, e: np.ndarray):
    """Add the moments sum ell_j y_j^k, k = 0, 1, 2, of ``part`` to
    ``moments`` as sum ell_j (y_j + e)^k."""
    m0, m1, m2 = part
    moments[0] += m0
    moments[1] += m1 + e * m0
    moments[2] += m2 + e * (2.0 * m1 + e * m0)


def _exact_order(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The stable order of the exact sums p + q.

    Rounding is monotone, so sorting the rounded sums orders all but those
    that round to the same value; those are ordered, when there are any,
    by their rounding errors (Knuth's TwoSum), which sorting costs more.
    """
    s = p + q
    order = np.argsort(s, kind="stable")
    rounded = s[order]
    if np.any(rounded[1:] == rounded[:-1]):
        q_part = s - p
        order = np.lexsort(((p - (s - q_part)) + (q - q_part), s))
    return order


class _Pieces(NamedTuple):
    """F(u) = sum_i ell_i (1 - ((u - x_i) / h)^2)_+ of one bandwidth h as a
    quadratic on each piece between its 2n breakpoints x_i -+ h, one entry
    per breakpoint and the piece that it starts (:func:`_epanechnikov_pieces`)."""

    points: np.ndarray  # the index i of each breakpoint's point, in the order of the breakpoints
    offsets: np.ndarray  # its offset, -h or +h, from x_i
    live: np.ndarray  # whether its piece has points in reach
    refs: np.ndarray  # the index r of its piece's reference point
    coef: np.ndarray  # (3, 2n): F = c_0 + c_1 s + c_2 s^2 on its piece, s = (u - x_r) / h
    h: float


@_OVERFLOW_IGNORED
def _epanechnikov_pieces(x: np.ndarray, ell: np.ndarray, h: float) -> _Pieces:
    """The :class:`_Pieces` of F(u) = sum_i ell_i (1 - ((u - x_i) / h)^2)_+
    over the points x of a d = 1 sample, sorted.

    The breakpoints are ordered by their exact values (:func:`_exact_order`),
    so a sample far from 0, where x_i -+ h rounds by much of h, keeps its
    order.  At ties the entering breakpoints x_i - h come first, so the
    points in reach of a piece are the range lo <= j < hi of those whose
    x_j - h it has passed and whose x_j + h it has not, and
    c = (M_0 - M_2, 2 M_1, -M_0) with M_k = sum_j ell_j ((x_j - x_r) / h)^k
    over that range.

    No running sum crosses a block, since running-sum updates lose
    accuracy (Seifert, Brockmann, Engel & Gasser 1994).  The points split
    into clusters wherever two neighbours are more than 2 h apart, which
    no piece reaches across, and each cluster into blocks
    floor((x_j - x_c) / h), x_c its first point, so a block is no wider
    than h and a range meets three blocks, rarely a fourth after rounding.
    Each block holds the prefix sums of ell_j y_j^k, y_j = (x_j - x_b) / h
    about its first point x_b, from a segmented scan of ceil(log2(size))
    doubling passes over the whole sample: O(n log n) time and O(n) memory
    however the points cluster.  A piece's reference x_r is the first
    point of the first block of its range, whose partial sums are its
    moments about x_r; each later block's part, whole or partial, is moved
    there from its own first point (:func:`_add_moved`).  These are sample
    points within 2 h of each other, so their difference is exact or
    nearly, and no coordinate is rounded at the sample's offset from 0.
    """
    n = x.size
    # the first point of each point's cluster, then the first and last of its block
    cluster = np.zeros(n, dtype=np.intp)
    gaps = np.flatnonzero(x[1:] - x[:-1] > 2.0 * h) + 1
    cluster[gaps] = gaps
    np.maximum.accumulate(cluster, out=cluster)
    block = np.floor((x - x[cluster]) / h)
    edges = np.ones(n + 1, dtype=bool)
    edges[1:n] = (block[1:] != block[:-1]) | (cluster[1:] != cluster[:-1])
    edges = np.flatnonzero(edges)
    sizes = np.diff(edges)
    start, end = np.repeat(edges[:-1], sizes), np.repeat(edges[1:] - 1, sizes)
    y = (x - x[start]) / h
    sums = np.stack([ell, ell * y, ell * y * y])
    later = np.arange(n) - start
    step, size = 1, sizes.max()
    while step < size:
        np.add(sums[:, step:], sums[:, :-step], out=sums[:, step:], where=later[step:] >= step)
        step *= 2
    # the sums before each point in its block
    before = np.zeros_like(sums)
    before[:, 1:] = sums[:, :-1]
    before[:, later == 0] = 0.0
    # the breakpoints in their exact order, and the range [lo, hi) of points in reach of the piece each starts
    order = _exact_order(np.concatenate([x, x]), np.repeat([-h, h], n))
    leaving = order >= n
    hi = np.cumsum(~leaving)
    live = 2 * hi > np.arange(1, 2 * n + 1)
    k = np.flatnonzero(live)
    hi = hi[k]
    lo, last = k + 1 - hi, hi - 1
    # the moments about the first point of the range's first block, then of the blocks after it
    ref = start[lo]
    moments = np.take(sums, np.minimum(last, end[lo]), axis=1) - np.take(before, lo, axis=1)
    after = end[lo] + 1
    while np.any(more := after <= last):
        after = np.minimum(after, last)
        _add_moved(moments, np.take(sums, np.minimum(last, end[after]), axis=1) * more, (x[after] - x[ref]) / h)
        after = end[after] + 1
    coef = np.zeros((3, 2 * n))
    coef[:, k] = moments[0] - moments[2], 2.0 * moments[1], -moments[0]
    refs = np.zeros(2 * n, dtype=np.intp)
    refs[k] = ref
    return _Pieces(order - n * leaving, np.where(leaving, h, -h), live, refs, coef, h)


@_OVERFLOW_IGNORED
def _epanechnikov_total(x: np.ndarray, a: _Pieces, b: _Pieces) -> float:
    """sum_{i,j} ell_i ell_j G_ab[i, j] of an Epanechnikov pair at d = 1 from
    the :class:`_Pieces` of its members, the same object when h_a = h_b.

    With K_h(t) = (3 / (4 h)) (1 - (t / h)^2)_+ the total is
    (9 / (16 h_a h_b)) int F_a F_b du.  The breakpoints of both members,
    merged in their exact order (a's first at ties), cut the line into
    4n - 1 pieces, or 2n - 1 for h_a = h_b, on which F_a F_b is a quartic,
    so the 3-node Gauss-Legendre rule is exact on each; only pieces in
    reach of both members add.  A piece's width is (x_j - x_i) + (o_j - o_i) from the
    points and offsets of its two breakpoints, and its nodes are placed
    relative to the reference point of each member's own piece, so no
    coordinate is rounded at the sample's offset from 0.  The terms are
    products of F values with positive weights, bounded by the total of
    |ell_i ell_j| G_ab[i, j].
    """
    if a is b:
        k = np.flatnonzero(a.live[:-1])
        points, offsets, at_a, at_b = a.points, a.offsets, k, k
    else:
        points = np.concatenate([a.points, b.points])
        offsets = np.concatenate([a.offsets, b.offsets])
        order = _exact_order(x[points], offsets)
        points, offsets = points[order], offsets[order]
        # each member's piece, -1 before its first breakpoint, which reads its
        # last piece, out of reach like the line before the first
        at_a = np.cumsum(order < a.points.size) - 1
        at_b = np.arange(order.size) - 1 - at_a
        k = np.flatnonzero((a.live[at_a] & b.live[at_b])[:-1])
        at_a, at_b = at_a[k], at_b[k]
    left = x[points[k]]
    width = (x[points[k + 1]] - left) + (offsets[k + 1] - offsets[k])
    nodes, weights = legendre_rule(3)
    # the nodes on [0, 1], one row each
    nodes = 0.5 + 0.5 * nodes[:, None]

    def at_nodes(pieces, at):
        """F at the nodes of every piece, shape (3, pieces)."""
        s = ((left - x[pieces.refs[at]]) + offsets[k]) / pieces.h + (width / pieces.h) * nodes
        c0, c1, c2 = np.take(pieces.coef, at, axis=1)
        return c0 + s * (c1 + s * c2)

    f_a = at_nodes(a, at_a)
    f_b = f_a if a is b else at_nodes(b, at_b)
    sums = np.sum(weights[:, None] * f_a * f_b, axis=0)
    return pairwise_sum(width * sums) * (0.28125 / a.h) / b.h


def bandwidth_totals(pairs, x: np.ndarray, ell: np.ndarray, consts) -> list:
    """sum_{i,j} ell_i ell_j G_ab[i, j] for every bandwidth pair (a, b): at
    d = 1 a trapezoid sum of squares for each Gaussian pair and an exact
    piecewise-quadratic integral for each Epanechnikov pair, at d >= 2 one
    sweep.

    A Gaussian entry is c_ab exp(sum_q delta_q^2 (-1 / (2 v_q))) with
    v_q = h_aq^2 + h_bq^2 and the constant diagonal c_ab = G_ab[i, i].  At
    d = 1 the sample is sorted once, and each Gaussian pair's sum of
    exponentials is :func:`_gaussian_total`: 39 n exponentials of the
    points against a uniform grid, where the sweep evaluates
    n (n - 1) / 2, and a sum of squares that cannot cancel.  Each
    Epanechnikov pair is int F_a F_b du with F = sum_i ell_i K(u - x_i),
    exact on the pieces between the 4n breakpoints x_i -+ h_a, x_i -+ h_b
    (:func:`_epanechnikov_total`): O(n log n) per pair, from a table of
    each member's quadratic pieces (:func:`_epanechnikov_pieces`).  These
    pairs run in this process, member by member, the members of fewer
    pairs first: each table is built once, at its member's first pair, and
    dropped after its last, so a family read holds at most two tables, k0's
    and the current member's.  Which pairs take which path follows from d
    and the base kernel alone.  Each Gaussian pair is one item of
    :func:`_map_blocks`, on the worker pool once the work comes to
    ``_FORK_WORK``; every pair is computed alone, so it has the same bits
    alone as in its family and at any worker count.

    The sweep takes every pair at d >= 2.  A bandwidth Gram table is
    symmetric, so its total is c_ab sum_i ell_i^2 plus twice the strict
    upper triangle.  The sweep
    walks that triangle in fixed blocks of ``_SWEEP_ROWS`` rows, with
    scratch allocated once per sweep.  A block forms the differences
    (their squares for Gaussian pairs) once, and a weight table that holds
    ell_j where j > i and 0 elsewhere.  Each pair writes its entries into
    one reused value buffer and contracts each row with the weight table
    in BLAS dot products (:func:`_row_dots`); the block's partial is
    ell_rows @ those row sums, and partials are combined in block order.
    Every d >= 2 pair is a product of shared per-dimension tables, each
    evaluated once per pass (:func:`_sweep_tables`): a Gaussian pair's are
    exp(delta_q^2 (-1 / (2 v_q))), an Epanechnikov pair's the convolutions
    of its bandwidths at delta_q.  A 5 x 5 Gaussian family has 18 tables for
    its 49 pairs, a 4 x 4 Epanechnikov one 14 for its 31.  A Gaussian
    table's exponent is floored at ``_EXP_FLOOR`` when the span of the
    sample along its own dimension can reach that far
    (:func:`_reaches_floor`).  The tables of the last dimension are
    multiplied by the weight table once, so a pair at d = 2 is one
    row-wise dot product of two tables.  A pass takes as many rows as fit
    ``_TABLE_SCRATCH``, and at least one, so the tables hold at most
    max(2 MB, keys (n - 1) 8 B) per process, where keys <= d (2N - 1) for
    a family of N members.  The plan of the tables (:func:`_sweep_tables`)
    is made once, which bounds one row of them before any process
    allocates it, and goes to every process with the pairs.  The other
    scratch is O(n).  A swept pair's total
    depends on n, d and its own kernels alone, so it, too, gets the same
    bits swept with its family or alone.  ``consts`` holds each pair's c_ab from
    :func:`_bandwidth_diag_value`, which checks the pair, so every pair is
    checked before any total is computed, and a caller that also needs
    the diagonal computes c_ab once; the d = 1 Epanechnikov integral does
    not read it.  A debug event on this module's logger gives the number of
    pairs on each of the three paths.

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
    totals = [0.0] * len(pairs)
    gaussian = [a.base.kind is BaseKind.GAUSSIAN for a, _ in pairs]
    if d == 1:
        order = np.argsort(x[:, 0], kind="stable")
        x, ell = x[order, 0], ell[order]
        summed = [k for k, g in enumerate(gaussian) if g]
        integrated = [k for k, g in enumerate(gaussian) if not g]
        log.debug("bandwidth totals: n %d, %d pairs by trapezoid sum, %d pairs by Epanechnikov integral, "
                  "0 pairs swept", n, len(summed), len(integrated))
        if summed:
            variances = [pairs[k][0].h[0] ** 2 + pairs[k][1].h[0] ** 2 for k in summed]
            work = sum(n * (2 * _trapezoid_grid(v)[2] + 1) for v in variances if math.isfinite(v)) * _TRAPEZOID_COST
            for k, total in zip(summed, _map_blocks(_trapezoid_builder, (x, ell, variances), range(len(summed)), work)):
                totals[k] = consts[k] * total
        bandwidths = {k: (pairs[k][0].h[0], pairs[k][1].h[0]) for k in integrated}
        uses = Counter(h for pair in bandwidths.values() for h in set(pair))
        # member by member, each with its pairs with members of more pairs; a
        # table is built at its member's first pair and dropped after its last
        tables = {}
        for k in sorted(integrated, key=lambda k: min((uses[h], h) for h in bandwidths[k])):
            for h in bandwidths[k]:
                if h not in tables:
                    tables[h] = _epanechnikov_pieces(x, ell, h)
            totals[k] = _epanechnikov_total(x, *(tables[h] for h in bandwidths[k]))
            for h in set(bandwidths[k]):
                uses[h] -= 1
                if not uses[h]:
                    del tables[h]
        return totals
    log.debug("bandwidth totals: n %d, 0 pairs by trapezoid sum, 0 pairs by Epanechnikov integral, %d pairs swept",
              n, len(pairs))
    # the tables are bounded here, before any process allocates them
    sweep = _sweep_tables(pairs, n)
    args = (np.ascontiguousarray(x), np.ascontiguousarray(ell), sweep)
    starts = range(0, n - 1, _SWEEP_ROWS)
    work = sum(1 if g else _CONVOLUTION_COST for g in gaussian) * n * (n - 1) // 2
    partials = np.reshape(_map_blocks(_sweep_block_builder, args, starts, work), (len(starts), len(pairs)))
    sum_sq = pairwise_sum(ell * ell)
    for k, column in enumerate(partials.T):
        upper = pairwise_sum(column)
        # Gaussian partials sum the entries divided by c
        totals[k] = consts[k] * (sum_sq + 2.0 * upper) if gaussian[k] else consts[k] * sum_sq + 2.0 * upper
    return totals


@_OVERFLOW_IGNORED
def _sweep_block_builder(x: np.ndarray, ell: np.ndarray, sweep):
    """The block function of :func:`bandwidth_totals`, with the sweep's
    scratch: every pair's partial over the rows of the block from ``start``.
    ``sweep`` is the pairs' :func:`_sweep_tables`, bounded by the caller."""
    n, d = x.shape
    keys, uses, rows = sweep
    span_sq = np.ptp(x, axis=0) ** 2
    # a Gaussian key is (q, scale_q), an Epanechnikov key (q, h_n, h_w)
    floored = [len(key) == 2 and _reaches_floor([span_sq[key[0]]], [key[1]]) for key in keys]
    size = rows * max(n - 1, 0)
    delta_bufs = [np.empty(size) for _ in range(d)]
    square_bufs = [np.empty(size) for _ in range(d)]
    table_bufs = [np.empty(size) for _ in keys]
    value_buf = np.empty(size) if d > 2 else None
    weight_buf = np.empty(size)
    lower = np.tri(_SWEEP_ROWS, _SWEEP_ROWS, -1, dtype=bool)

    @_OVERFLOW_IGNORED
    def block_partial(start):
        stop = min(start + _SWEEP_ROWS, n - 1)
        w = n - 1 - start
        dots = np.empty((len(uses), stop - start))
        for k0 in range(0, stop - start, rows):
            k1 = min(k0 + rows, stop - start)
            shape = (k1 - k0, w)
            deltas = [_leading(buf, shape) for buf in delta_bufs]
            squares = [_leading(buf, shape) for buf in square_bufs]
            tables = [_leading(buf, shape) for buf in table_bufs]
            # row i = start + k against column j = start + 1 + c: ell_j where j > i (c >= k), else 0
            weights = _leading(weight_buf, shape)
            weights[...] = ell[start + 1 :]
            weights[:, :k1][lower[k0:k1, :k1]] = 0.0
            for q in range(d):
                np.subtract(x[start + k0 : start + k1, q, None], x[None, start + 1 :, q], out=deltas[q])
                np.square(deltas[q], out=squares[q])
            for key, floor, table in zip(keys, floored, tables):
                q = key[0]
                if len(key) == 2:
                    np.multiply(squares[q], key[1], out=table)
                    if floor:
                        np.maximum(table, _EXP_FLOOR, out=table)
                    np.exp(table, out=table)
                else:
                    _epanechnikov_conv(key[1], key[2], deltas[q], out=table)
                if q == d - 1:
                    # the last factor of every pair carries the weights
                    np.multiply(table, weights, out=table)
            for use, out in zip(uses, dots[:, k0:k1]):
                vals = tables[use[0]]
                if d > 2:
                    vals = np.multiply(vals, tables[use[1]], out=_leading(value_buf, shape))
                    for k in use[2:-1]:
                        np.multiply(vals, tables[k], out=vals)
                _row_dots(vals, tables[use[-1]], out)
        return np.vecdot(dots, ell[start:stop])

    return block_partial


def _sample_values(basis, x: np.ndarray, orders) -> list:
    """Per axis q, the basis values phi_j(x_iq), j <= orders[q], each
    bounded before it is allocated."""
    for mq in orders:
        check_table_size("basis values at the sample", n=x.shape[0], m_max=mq)
    return [basis_matrix(basis, mq, x[:, q]) for q, mq in enumerate(orders)]


def _prefix_sums(source: np.ndarray, a, b) -> np.ndarray:
    """The cumulative sums, along every axis in turn, of (w_a w_b) source
    for a nested pair (a, b) and a nonnegative tensor ``source``.

    With T^2 as ``source`` entry k - 1 is the total of every pair whose box
    min(m_a, m_b) is k, and with the penalty tensor D its diagonal sum.  The
    order axes end where the weights do.  The sums run in index order, so
    an entry does not depend on how wide the source is.
    """
    cap = min([len(s.w) for s in (a, b) if s.w is not None], default=max(source.shape))
    shape = tuple(min(k, cap) for k in source.shape)
    table = np.array(source[tuple(slice(0, k) for k in shape)], order="C")
    for p, k in enumerate(shape):
        if a.w is not None or b.w is not None:
            table *= (a.weights_for(k) * b.weights_for(k)).reshape((k,) + (1,) * (table.ndim - 1 - p))
        np.cumsum(table, axis=p, out=table)
    return table


def _pair_key(spec):
    """The key that orders a pair, smaller first: projection specs by weights
    and orders, which costs no string, bandwidth specs by ``spec_id``, which
    fixed the sweep's bits and so select-bandwidth's artifacts."""
    return (spec.w or (), spec.m) if isinstance(spec, ProjectionSpec) else spec_id(spec)


def _histogram_total(a, b, t_a: np.ndarray, t_b: np.ndarray, overlap) -> float:
    """The form T_a^T ((x)_q W_a C_q W_b) T_b of a histogram pair with
    tensors t_a, t_b: T_b contracted with the cross-Gram ``overlap(a, b, q)``
    along each axis in ``einsum``, not BLAS, except on an axis of equal
    orders, whose cells coincide (C_q = I), so a (K, K) total needs no
    overlap table."""
    y = t_b
    axes = list(range(a.d))
    for q, (ma, mb) in enumerate(zip(a.m, b.m)):
        if ma == mb:
            if a.w is not None or b.w is not None:
                y = y * (a.weights_for(ma) * b.weights_for(mb)).reshape((ma,) + (1,) * (a.d - 1 - q))
        else:
            y = np.einsum(overlap(a, b, q), [a.d, q], y, axes, axes[:q] + [a.d] + axes[q + 1 :])
    return pairwise_sum(t_a * y)


class GramTables:
    """Loss-weighted section geometry of one sample, read through one reader.

    PCO needs, for kernel pairs (a, b), the totals
    sum_{i,j} ell_i ell_j G_ab[i, j] and the diagonal sums
    sum_i ell_i^2 G_ab[i, i] of the table
    G_ab[i, j] = <K_a(X_i, .), K_b(X_j, .)>_2, one number each.  Every
    read, of one pair (:meth:`weighted_total`) or of a family's criterion
    (:meth:`family_rows`), is one call of :meth:`_reads`, with one reader
    per kernel kind, so a pair read alone or with its family gets the same
    bits.  The only state kept between reads is the coefficient tensors
    (:meth:`coefficients`), which the risk grid of an experiment expands
    after selection; no n x n table or per-pair row of n values is formed.

    Projection pairs never form G.  With the coefficient tensors T_a, T_b
    the total is the quadratic form T_a^T ((x)_q W_a C_q W_b) T_b, where W
    holds the member weights and C_q is the basis cross-Gram.  A read of
    a nested basis evaluates it once per dimension at the read's largest
    orders, and every smaller order is a slice of it, bit for bit.  Its
    totals and diagonal sums are partial sums over the basis index of T^2
    and of the penalty tensor D, one entry each of a prefix table
    (:meth:`_nested_reads`).  A histogram read computes each axis's cells
    at every order it uses in one pass, and every member's tensor and
    diagonal sum reads them (:meth:`_histogram_reads`); a pair's
    W_a C_q W_b is built once per read and serves both its total and its
    diagonal sum.  The basis values, D, prefix tables, cells and overlaps
    are locals of the read that builds them.  Memory per axis is n m_q
    basis values, or n cells per order used, plus prod_q m_q per tensor
    and prefix table, with prod_q m_q <= n; each read bounds its basis
    values, and its cells as n times its largest order, before they are
    allocated.

    Bandwidth pairs never form G either.  A read's totals come from one
    call of :func:`bandwidth_totals` (:meth:`_bandwidth_reads`); a family's
    2N - 1 pairs take one call.  In it each Gaussian pair at d = 1 is a
    trapezoid sum of squares over a uniform grid, which cannot cancel,
    each Epanechnikov pair at d = 1 an exact integral over the pieces
    between its 4n breakpoints, and every pair at d >= 2 is swept over the
    pairwise differences in fixed row blocks, each Gaussian pair there a
    product of per-dimension tables shared between pairs.  Their diagonal
    is a constant c_ab, so a diagonal sum is c_ab sum_i ell_i^2.
    :meth:`matrix` and :meth:`diag` build the dense table and diagonal of
    any pair, uncached: the references the reads are tested against.
    """

    def __init__(self, sample: Sample):
        self.sample = sample
        self._coeffs: dict = {}  # nested: basis kind; histogram: (kind, m) -> tensor

    def matrix(self, a, b) -> np.ndarray:
        """The dense n x n table for (a, b), built on every call."""
        return section_inner_matrix(a, self.sample.x, b, self.sample.x)

    def family_rows(self, specs, k0):
        """The (a, a) total, (a, k0) total and (a, k0) diagonal sum of every
        member a, as three lists in the order of ``specs``, from one
        :meth:`_reads` call."""
        n = len(specs)
        totals, sums = self._reads([*specs, k0], [(i, i) for i in range(n)] + [(i, n) for i in range(n)], 2 * n, n)
        return totals[:n], totals[n:], sums

    def _reads(self, specs, pairs, totals: int, diagonals: int) -> tuple:
        """The totals of the first ``totals`` pairs and the diagonal sums
        sum_i ell_i^2 G_ab[i, i] of the last ``diagonals`` pairs, as two
        lists; each pair is two indices into ``specs``.

        Every spec is checked against the first
        (:func:`~pcoselect.kernels.check_pair`), so a read has one kernel
        kind, and a spec given twice is one.  Each pair is put in one order,
        smaller :func:`_pair_key` first, so its numbers do not depend on the
        order it is given in, and a pair given twice is read once; pairs go
        by their indices, so no spec is hashed.  The distinct pairs go to
        the reader of the kind, :meth:`_bandwidth_reads`,
        :meth:`_nested_reads` or :meth:`_histogram_reads`, with the distinct
        specs, the number of pairs, from the first, whose totals are asked
        for, and per diagonal sum the index of its pair; it returns those
        totals and sums.
        """
        first = {}
        index = [first.setdefault(id(s), i) for i, s in enumerate(specs)]
        for s in specs:
            check_pair(specs[0], s)
        _check_dim(specs[0], self.sample.x)
        keys = [_pair_key(s) for s in specs]
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
        pair_totals, diagonal = reader([specs[i] for i in first.values()], distinct,
                                       max(at[:totals], default=-1) + 1, at[len(at) - diagonals :])
        return [pair_totals[k] for k in at[:totals]], diagonal

    def _bandwidth_reads(self, specs, pairs, summed: int, rows) -> tuple:
        """:meth:`_reads` of bandwidth pairs.  Each pair's constant diagonal
        c_ab is computed once: it makes the pair's diagonal sum
        c_ab sum_i ell_i^2 and scales its total in the one
        :func:`bandwidth_totals` call of the read."""
        ell = self.sample.loss_values
        consts = [_bandwidth_diag_value(a, b) for a, b in pairs]
        sum_sq = pairwise_sum(ell * ell)
        return bandwidth_totals(pairs[:summed], self.sample.x, ell, consts[:summed]), [consts[k] * sum_sq for k in rows]

    # -- projection pairs in coefficient space ------------------------------

    def _nested_tensor(self, basis, orders, values=None) -> np.ndarray:
        """The kept tensor of a nested basis, at least as wide as ``orders``:
        built or widened from ``values``, the basis at the sample
        (:func:`_sample_values`), when they are wide enough, and from a new
        evaluation otherwise."""
        full = self._coeffs.get(basis.kind)
        if full is None or any(mq > size for mq, size in zip(orders, full.shape)):
            if full is not None:
                orders = tuple(map(max, orders, full.shape))
            if values is None or any(v.shape[1] < mq for v, mq in zip(values, orders)):
                values = _sample_values(basis, self.sample.x, orders)
            values = [v[:, :mq] for v, mq in zip(values, orders)]
            full = self._coeffs[basis.kind] = _product_tensor(values, self.sample.loss_values)
        return full

    def _cell_tables(self, orders) -> tuple:
        """Per axis q, {m: cells of every X_iq at order m} for each m in
        orders[q], from one bounded pass of
        :func:`~pcoselect.bases.histogram_cells` per axis, and the mask of
        points inside the support on every axis."""
        cells, oks = [], []
        for q, m_q in enumerate(orders):
            check_table_size("histogram cells at the sample", n=self.sample.n, m_max=max(m_q))
            table, ok = histogram_cells(np.asarray(m_q), self.sample.x[:, q])
            cells.append(dict(zip(m_q, table)))
            oks.append(ok)
        return cells, np.logical_and.reduce(oks)

    def _histogram_tensors(self, members, cells, ok) -> dict:
        """The tensor of each histogram order tuple in ``members``, by order
        tuple, kept once computed from :meth:`_cell_tables` ``cells`` and
        ``ok``: per-cell sums of ell in sample order, times
        prod_q sqrt(m_q).  A point off the support adds +0.0 to its clipped
        cell, which changes no sum, since a sum from +0.0 is never -0.0."""
        ell = np.where(ok, self.sample.loss_values, 0.0)
        tensors = {}
        for m in members:
            tensor = self._coeffs.get((BasisKind.REGULAR_HISTOGRAM, m))
            if tensor is None:
                # the cells raveled in C order: at d = 1 they are the index
                index = cells[0][m[0]]
                for axis, mq in zip(cells[1:], m[1:]):
                    index = index * mq + axis[mq]
                sums = np.bincount(index, weights=ell, minlength=math.prod(m))
                tensor = self._coeffs[BasisKind.REGULAR_HISTOGRAM, m] = (sums * math.sqrt(math.prod(m))).reshape(m)
            tensors[m] = tensor
        return tensors

    def coefficients(self, spec: ProjectionSpec) -> np.ndarray:
        """T = sum_i ell_i (x)_q phi^{m_q}(X_iq) of ``spec``, shape spec.m, before the weights w.

        Histogram members are cell indicators, so their tensor is a per-cell
        sum of ell times prod_q sqrt(m_q), in sample order
        (:meth:`_histogram_tensors`).  A nested basis keeps one tensor, at
        the widest orders asked for, and a member's is a slice of it.
        """
        _check_dim(spec, self.sample.x)
        if not spec.basis.nested:
            key = (spec.basis.kind, spec.m)
            if key not in self._coeffs:
                self._histogram_tensors([spec.m], *self._cell_tables([[mq] for mq in spec.m]))
            return self._coeffs[key]
        return self._nested_tensor(spec.basis, spec.m)[tuple(slice(0, mq) for mq in spec.m)]

    def _nested_reads(self, specs, pairs, summed: int, rows) -> tuple:
        """:meth:`_reads` of nested projection pairs, one entry each of the
        prefix tables (:func:`_prefix_sums`) of each pair of weight vectors.

        C_q is the truncated identity, so a pair's total is the sum of
        (x)_q (w_a w_b) T^2 over its box min(m_a, m_b), and its diagonal sum
        the same sum of the penalty tensor D = sum_i ell_i^2 (x)_q phi(X_iq)^2,
        built like T (:func:`_product_tensor`) at the read's top orders.  The
        basis is evaluated at most once, at those orders, when the read has
        diagonal sums or the kept tensor is narrower, and squared in place
        once T is built.
        """
        groups = defaultdict(list)  # (w_a, w_b) -> its pairs
        for k, (a, b) in enumerate(pairs):
            groups[a.w, b.w].append(k)
        orders = tuple(map(max, zip(*(s.m for s in specs))))
        # one kind per read: the basis of the largest cap takes every top order
        basis = max((s.basis for s in specs), key=lambda b: b.m_cap)
        values = _sample_values(basis, self.sample.x, orders) if rows else None
        squares = np.square(self._nested_tensor(basis, orders, values)[tuple(slice(0, mq) for mq in orders)])
        if rows:
            penalty = _product_tensor([np.square(v, out=v) for v in values], self.sample.loss_values**2)
        boxes = tuple(np.minimum([a.m for a, _ in pairs], [b.m for _, b in pairs]).T - 1)
        totals, sums = np.empty(len(pairs)), np.empty(len(pairs))
        for members in groups.values():
            a, b = pairs[members[0]]
            at = tuple(box[members] for box in boxes)
            totals[members] = _prefix_sums(squares, a, b)[at]
            if rows:
                sums[members] = _prefix_sums(penalty, a, b)[at]
        return totals[:summed].tolist(), sums[rows].tolist()

    def _histogram_reads(self, specs, pairs, summed: int, rows) -> tuple:
        """:meth:`_reads` of histogram pairs: each axis's cells at every
        order of the read come from one pass (:meth:`_cell_tables`) and
        serve every tensor and diagonal sum, each W_a C_q W_b is built once,
        and each total contracts its own tensors in its own order
        (:func:`_histogram_total`).  A diagonal sum is one gather of the
        pair's diagonal and one sum with ell^2, zero off the support."""
        cells, ok = self._cell_tables([sorted({s.m[q] for s in specs}) for q in range(specs[0].d)])
        tensors = self._histogram_tensors([s.m for s in specs], cells, ok)
        weights = np.where(ok, self.sample.loss_values**2, 0.0)
        grams = {}

        def overlap(a, b, q):
            key = (a.m[q], b.m[q], a.w, b.w)
            if key not in grams:
                grams[key] = weighted_cross_gram(a, b, q)
            return grams[key]

        sums = [pairwise_sum(weights * histogram_section_inner([overlap(a, b, q) for q in range(a.d)],
                                                               [axis[mq] for axis, mq in zip(cells, a.m)],
                                                               [axis[mq] for axis, mq in zip(cells, b.m)]))
                for a, b in (pairs[k] for k in rows)]
        return [_histogram_total(a, b, tensors[a.m], tensors[b.m], overlap) for a, b in pairs[:summed]], sums

    # -- public reductions ----------------------------------------------------

    def diag(self, a, b) -> np.ndarray:
        """G[i, i] only: <K_a(X_i, .), K_b(X_i, .)>_2 as an n-vector, from
        the reference :func:`~pcoselect.kernels.section_inner_pointwise`,
        the pair in the order of :meth:`_reads`, so (a, b) and (b, a) give
        the same bits.  The criterion reads only its sum with ell^2."""
        check_pair(a, b)
        if _pair_key(b) < _pair_key(a):
            a, b = b, a
        return section_inner_pointwise(a, self.sample.x, b, self.sample.x)

    def weighted_total(self, a, b) -> float:
        """sum_{i,j} ell_i ell_j G_ab[i, j], reduced in a fixed order."""
        return self._reads([a, b], [(0, 1)], 1, 0)[0][0]


def estimator_inner(a, b, sample: Sample) -> float:
    """<shat_a, shat_b>_2 = (1/n^2) sum_{i,j} ell_i ell_j G_ab[i, j], read
    on fresh tables, so a projection pair evaluates the basis again on
    every call; keep one :class:`GramTables` to read many pairs."""
    return GramTables(sample).weighted_total(a, b) / sample.n**2


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


def criterion_distance(a, k0, sample: Sample) -> float:
    """||shat_a - shat_k0||_2^2 expanded through the Gram tables (:func:`_distance`),
    from one read of the three totals.

    The read is on fresh tables, so a projection pair evaluates the basis
    again, at the larger order, on every call.  Read a family's distances
    through :func:`~pcoselect.selection.pco_select` or
    :meth:`GramTables.family_rows`, which evaluate it once; the bits are the
    same."""
    (own, cross, anchor), _ = GramTables(sample)._reads([a, k0], [(0, 0), (0, 1), (1, 1)], 3, 0)
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
    i != j is the total of :class:`GramTables` less its diagonal sum
    sum_i ell_i^2 G_ab[i, i], both one number from one read, for either
    variant.
    """
    if sample.n < 2:
        raise ValueError("the pair statistic needs at least two observations")
    ell = sample.loss_values
    (total,), (diagonal,) = GramTables(sample)._reads([a, b], [(0, 1)], 1, 1)
    total -= diagonal
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
