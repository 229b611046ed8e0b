"""Kernel specifications, families, and closed-form L2 section geometry.

Two kinds of product kernels are supported on R^d:

* bandwidth kernels  K(x', x) = prod_q (1/h_q) k((x'_q - x_q)/h_q) built
  from a Gaussian or Epanechnikov base density k, and
* projection kernels K(x', x) = prod_q sum_j w_j phi_j(x_q) phi_j(x'_q)
  built from an orthonormal family truncated at order m_q per dimension,
  optionally downweighted by w_j in [0, 1] (w omitted means w_j = 1).

Inner products between kernel sections <K_a(xa,.), K_b(xb,.)>_2 are
evaluated in closed form.  A bandwidth pair shares one base kernel, as a
:class:`KernelFamily` does.  Gaussian pairs convolve to a Gaussian.  The
Epanechnikov convolution is a polynomial of degree four on the support
overlap, which a 3-node Gauss-Legendre rule on that overlap integrates
exactly.  Projection pairs factor over dimensions into basis cross-Gram
sums.

The selection path builds no table with :func:`section_inner_matrix`: a
projection estimator is a coefficient tensor, which
:mod:`pcoselect.estimator` works on directly, and every d >= 2 bandwidth
pair is a product of shared per-dimension tables of the 1-d convolutions
on pairwise differences, reduced block by block.  No library path builds
a :func:`kernel_matrix` table either:
estimates, section averages, the cross terms of the centered statistics
and the diagnostics are one weighted kernel-sum pass in
:mod:`pcoselect.estimator`.  The pairwise forms stay as the reference that
tests and the dense :meth:`GramTables.matrix` compare those passes against.

Pointwise norms and suprema rest on two primitives.
:func:`section_inner_pointwise` is the only pointwise section product:
a squared section norm pairs a point with itself, and its histogram case,
:func:`histogram_section_inner`, also gives the Gram diagonal of a
histogram pair.
:func:`sup_squares` is the only table of suprema: :func:`diag_sup` reads
sup_x K(x, x) off it, and the supremum of a squared section norm is
:func:`diag_sup` of the same member with squared weights.  The table holds
the squared basis values at the two support endpoints, where Legendre and
unweighted trigonometric members peak, and only a weighted trigonometric
member scans a grid (:func:`diag_scan_squares`).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bases import BasisFamily, BasisKind, basis_matrix, breakpoints, cross_gram, histogram_cells
from .errors import ConfigError, check_table_size, config_enum, config_int, config_ints, config_numbers, config_object
from .quadrature import composite_rule, legendre_rule

DIAG_SCAN_POINTS = 10_000


class BaseKind(enum.Enum):
    GAUSSIAN = "gaussian"
    EPANECHNIKOV = "epanechnikov"


@dataclass(frozen=True)
class BaseKernel:
    """A symmetric base density k with its exact norm constants."""

    kind: BaseKind

    @property
    def l1_norm(self) -> float:
        return 1.0

    @property
    def l2_norm_sq(self) -> float:
        if self.kind is BaseKind.GAUSSIAN:
            return 1.0 / (2.0 * math.sqrt(math.pi))
        return 3.0 / 5.0

    @property
    def at_zero(self) -> float:
        if self.kind is BaseKind.GAUSSIAN:
            return 1.0 / math.sqrt(2.0 * math.pi)
        return 3.0 / 4.0

    @property
    def tail_halfwidth(self) -> float:
        """Half-width outside which k is (numerically) zero, in k's own scale."""
        if self.kind is BaseKind.GAUSSIAN:
            from .quadrature import GAUSSIAN_TAIL_WIDTH

            return GAUSSIAN_TAIL_WIDTH
        return 1.0

    def eval(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if self.kind is BaseKind.GAUSSIAN:
            return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return 0.75 * np.clip(1.0 - u * u, 0.0, None) * (np.abs(u) <= 1.0)


GAUSSIAN = BaseKernel(BaseKind.GAUSSIAN)
EPANECHNIKOV = BaseKernel(BaseKind.EPANECHNIKOV)


@dataclass(frozen=True)
class BandwidthSpec:
    base: BaseKernel
    h: tuple

    def __post_init__(self):
        if any(isinstance(v, (str, bool)) for v in self.h):  # float() would take "0.5" and True
            raise ValueError(f"bandwidths h must be numbers (got {list(self.h)!r})")
        h = tuple(float(v) for v in self.h)
        object.__setattr__(self, "h", h)
        if not h:
            raise ValueError("bandwidth tuple is empty")
        if not all(math.isfinite(v) and v > 0 for v in h):
            raise ValueError(f"bandwidths h must be positive and finite (got {list(h)})")
        for v in h:
            # the Gaussian exponent and the Gram variances divide by h^2
            if not sys.float_info.min <= v * v <= sys.float_info.max:
                raise ValueError(
                    f"bandwidth h = {v!r} is out of range: h^2 must be a normal float"
                    " (about 1.5e-154 <= h <= 1.3e154)"
                )

    @property
    def d(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class ProjectionSpec:
    basis: BasisFamily
    m: tuple
    w: tuple | None = None

    def __post_init__(self):
        m = tuple(int(v) for v in self.m)
        object.__setattr__(self, "m", m)
        if not m:
            raise ValueError("dimension tuple is empty")
        for mq in m:
            self.basis.check_order(mq)
        if self.w is not None:
            w = tuple(float(v) for v in self.w)
            object.__setattr__(self, "w", w)
            if len(w) < max(m):
                raise ValueError("weight vector w is shorter than the largest order")
            if any(not 0.0 <= v <= 1.0 for v in w):
                raise ValueError("weights w must lie in [0, 1]")

    @property
    def d(self) -> int:
        return len(self.m)

    def weights_for(self, mq: int) -> np.ndarray:
        if self.w is None:
            return np.ones(mq)
        return np.asarray(self.w[:mq], dtype=np.float64)


def spec_id(spec) -> str:
    """Short deterministic identifier used in reports."""
    if isinstance(spec, BandwidthSpec):
        hs = ",".join(repr(v) for v in spec.h)
        return f"bandwidth:{spec.base.kind.value}:h={hs}"
    ms = ",".join(str(v) for v in spec.m)
    out = f"projection:{spec.basis.kind.value}:m={ms}"
    if spec.w is not None:
        out += ":w=" + ",".join(repr(v) for v in spec.w)
    return out


def spec_to_config(spec) -> dict:
    if isinstance(spec, BandwidthSpec):
        return {"variant": "bandwidth", "base": spec.base.kind.value, "h": list(spec.h)}
    cfg = {
        "variant": "projection",
        "basis": spec.basis.kind.value,
        "m": list(spec.m),
        "m_cap": spec.basis.m_cap,
    }
    if spec.w is not None:
        cfg["w"] = list(spec.w)
    return cfg


def spec_from_config(cfg: dict):
    """The spec of a :func:`spec_to_config` dict; any fault in it is a ConfigError.

    The bandwidths ``h`` must be a list (or tuple); its values are checked by
    :class:`BandwidthSpec`, whose message states their valid range.
    """
    cfg = config_object("spec", None, cfg)
    variant = cfg.get("variant")
    try:
        if variant == "bandwidth":
            base = BaseKernel(config_enum("spec", "base", cfg["base"], BaseKind))
            if not isinstance(cfg["h"], (list, tuple)):
                raise ConfigError(f"spec config: field 'h' must be a list of numbers (got {cfg['h']!r})")
            return BandwidthSpec(base, tuple(cfg["h"]))
        if variant == "projection":
            basis = BasisFamily(config_enum("spec", "basis", cfg["basis"], BasisKind),
                                config_int("spec", "m_cap", cfg.get("m_cap", 64)))
            w = tuple(config_numbers("spec", "w", cfg["w"])) if "w" in cfg else None
            return ProjectionSpec(basis, tuple(config_ints("spec", "m", cfg["m"])), w)
    except KeyError as exc:
        raise ConfigError(f"spec config: missing field {exc}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spec config: {exc}") from exc
    raise ConfigError(f"spec config: unknown kernel variant {variant!r}")


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def kernel_matrix(spec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """K(xa_i, xb_j) for row-stacked points; shape (len(xa), len(xb))."""
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    if xa.shape[1] != spec.d or xb.shape[1] != spec.d:
        raise ValueError("point dimension does not match the kernel")
    out = np.ones((xa.shape[0], xb.shape[0]))
    if isinstance(spec, BandwidthSpec):
        for q, hq in enumerate(spec.h):
            delta = (xa[:, q][:, None] - xb[None, :, q]) / hq
            out *= spec.base.eval(delta) / hq
        return out
    for q, mq in enumerate(spec.m):
        wq = spec.weights_for(mq)
        va = basis_matrix(spec.basis, mq, xa[:, q]) * wq[None, :]
        vb = basis_matrix(spec.basis, mq, xb[:, q])
        out *= va @ vb.T
    return out


# ---------------------------------------------------------------------------
# closed-form section inner products
# ---------------------------------------------------------------------------


def _epanechnikov_conv(h_a: float, h_b: float, delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Epanechnikov pair by the 3-node Gauss-Legendre rule on the support overlap.

    The pair is even in delta and symmetric in (h_a, h_b), so the wide
    kernel, h_w = max(h_a, h_b), sits at 0 and the narrow one, h_n, at
    t = |delta|.  In s = u - t, with e = h_w - t, the integrand
    (9/16) (e - s)(h_w + t + s)(h_n - s)(h_n + s) / (h_w h_n)^3 has degree
    four on the overlap [-h_n, hi], hi = min(h_n, e), so the rule is exact.
    Each factor is a nonnegative gap (e - hi, h_w - h_n + t, h_n - hi, 0)
    plus the node's offset inside the overlap, and none subtracts t from
    h_n, so no entry loses digits to cancellation: on 1525 differences in
    [-0.6, 0.6] the worst was within 5.6e-16 of the largest of an exact
    rational integral at (h_a, h_b) = (0.5, 1e-6), (1e-6, 0.5), (0.5, 0.5),
    (0.2, 0.05) and (6.18, 1e-6), where forming delta -+ h_b was 8.6e-11 off.

    Every step writes in place into ``out``, new if not given, or one of
    seven work arrays from a single allocation, not into about forty
    temporaries whose heap churn made the sweep's cost depend on what else
    was live.
    """
    h_w, h_n = max(h_a, h_b), min(h_a, h_b)
    delta = np.asarray(delta, dtype=np.float64)
    out = np.empty_like(delta) if out is None else out
    out.fill(0.0)
    gap_e, gap_n, gap_w, half, right, left, term = np.empty((7,) + delta.shape)
    np.abs(delta, out=gap_w)  # t
    np.subtract(h_w, gap_w, out=gap_e)  # e
    np.add(gap_w, h_w - h_n, out=gap_w)  # h_w + t + lo, with lo = -h_n
    np.minimum(gap_e, h_n, out=gap_n)  # hi, the overlap's upper end
    np.add(gap_n, h_n, out=half)
    np.clip(half, 0.0, None, out=half)
    np.multiply(0.5, half, out=half)
    np.subtract(gap_e, gap_n, out=gap_e)  # e - hi
    np.subtract(h_n, gap_n, out=gap_n)  # h_n - hi
    for t, w in zip(*legendre_rule(3)):
        np.multiply(half, 1.0 - t, out=right)
        np.multiply(half, 1.0 + t, out=left)
        np.add(gap_e, right, out=term)
        np.multiply(term, np.add(gap_n, right, out=right), out=term)
        np.multiply(term, left, out=term)
        np.multiply(term, np.add(gap_w, left, out=right), out=term)
        np.multiply(w, term, out=term)
        np.add(out, term, out=out)
    np.multiply(out, half, out=out)
    return np.multiply(out, 0.5625 / (h_a * h_b) ** 3, out=out)


def check_pair(a, b):
    """Raise ValueError unless the pair (a, b) has a closed-form section
    product: both kernels of one variant, one d, and one base kernel or
    basis kind."""
    if isinstance(a, BandwidthSpec) != isinstance(b, BandwidthSpec):
        raise ValueError("no closed form for mixed bandwidth/projection sections")
    if a.d != b.d:
        raise ValueError(f"kernel dimensions differ ({a.d} and {b.d})")
    kind_a, kind_b = (a.base.kind, b.base.kind) if isinstance(a, BandwidthSpec) else (a.basis.kind, b.basis.kind)
    if kind_a is not kind_b:
        raise ValueError(f"no closed form for a pair of two bases ({kind_a.value} x {kind_b.value}): both"
                         " kernels of a pair must have the same base kernel or basis kind")


def bandwidth_gram_entries(a: BandwidthSpec, b: BandwidthSpec, deltas) -> np.ndarray:
    """<K_a(x, .), K_b(x', .)>_2 from the differences deltas[q] = x_q - x'_q,
    for a pair that passes :func:`check_pair`.

    The section inner product of two product kernels is the product over
    dimensions of the 1-d convolutions of their one base: a Gaussian pair
    convolves to a centered Gaussian of variance h_aq^2 + h_bq^2, and an
    Epanechnikov pair is :func:`_epanechnikov_conv`.
    """
    out = 1.0
    for ha, hb, delta in zip(a.h, b.h, deltas):
        delta = np.asarray(delta, dtype=np.float64)
        if a.base.kind is BaseKind.GAUSSIAN:
            v = ha * ha + hb * hb
            out = out * (np.exp(-delta * delta / (2.0 * v)) / math.sqrt(2.0 * math.pi * v))
        else:
            out = out * _epanechnikov_conv(ha, hb, delta)
    return out


def _section_points(a, xa, b, xb) -> tuple:
    """The points of a section product as float arrays of rows, once the
    pair passes :func:`check_pair` and the points have the kernels' d."""
    check_pair(a, b)
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    if xa.shape[1] != a.d or xb.shape[1] != a.d:
        raise ValueError("point dimension does not match the kernels")
    return xa, xb


def section_inner_matrix(a, xa: np.ndarray, b, xb: np.ndarray) -> np.ndarray:
    """Gram block <K_a(xa_i, .), K_b(xb_j, .)>_2, shape (len(xa), len(xb)).

    The pair must pass :func:`check_pair`, else ValueError.
    """
    xa, xb = _section_points(a, xa, b, xb)
    if isinstance(a, BandwidthSpec):
        return bandwidth_gram_entries(a, b, [xa[:, q, None] - xb[None, :, q] for q in range(a.d)])
    out = np.ones((xa.shape[0], xb.shape[0]))
    for q in range(a.d):
        va, vb = basis_matrix(a.basis, a.m[q], xa[:, q]), basis_matrix(b.basis, b.m[q], xb[:, q])
        out *= va @ weighted_cross_gram(a, b, q) @ vb.T
    return out


def section_inner_pointwise(a, xa: np.ndarray, b, xb: np.ndarray) -> np.ndarray:
    """<K_a(xa_i, .), K_b(xb_i, .)>_2 row by row (no cross terms); shape (n,).

    The pair must pass :func:`check_pair`, else ValueError.
    """
    xa, xb = _section_points(a, xa, b, xb)
    if xa.shape != xb.shape:
        raise ValueError("paired point arrays must share a shape")
    if isinstance(a, BandwidthSpec):
        return bandwidth_gram_entries(a, b, [xa[:, q] - xb[:, q] for q in range(a.d)])
    if a.basis.kind is BasisKind.REGULAR_HISTOGRAM:
        cells_a = [histogram_cells(mq, xa[:, q]) for q, mq in enumerate(a.m)]
        cells_b = [histogram_cells(mq, xb[:, q]) for q, mq in enumerate(b.m)]
        inner = histogram_section_inner([weighted_cross_gram(a, b, q) for q in range(a.d)],
                                        [cells for cells, _ in cells_a], [cells for cells, _ in cells_b])
        return inner * np.logical_and.reduce([ok for _, ok in cells_a + cells_b])
    # a nested basis at order k is the first k columns at any higher order
    out = np.ones(xa.shape[0])
    for q in range(a.d):
        ma, mb = a.m[q], b.m[q]
        k = min(ma, mb)
        check_table_size("basis values at the points", n=xa.shape[0], m_max=k)
        va = basis_matrix(a.basis, k, xa[:, q]) * a.weights_for(ma)[None, :k]
        vb = basis_matrix(b.basis, k, xb[:, q]) * b.weights_for(mb)[None, :k]
        out *= np.sum(va * vb, axis=1)
    return out


def weighted_cross_gram(a: ProjectionSpec, b: ProjectionSpec, q: int) -> np.ndarray:
    """W_a C_q W_b: the basis cross-Gram of the orders a.m[q] and b.m[q],
    scaled by the member weights along each side."""
    ma, mb = a.m[q], b.m[q]
    gram = cross_gram(a.basis, ma, mb)
    # unit weights are skipped: gram * 1.0 is gram, bit for bit
    if a.w is not None:
        gram = a.weights_for(ma)[:, None] * gram
    if b.w is not None:
        gram = gram * b.weights_for(mb)[None, :]
    return gram


def histogram_section_inner(grams, cells_a, cells_b) -> np.ndarray:
    """:func:`section_inner_pointwise` of two histogram kernels a and b at
    paired points inside the support, from their cells: ``grams[q]`` is
    :func:`weighted_cross_gram` of the pair on axis q, ``cells_a[q]`` the
    cell indices of :func:`~pcoselect.bases.histogram_cells` on axis q at
    order a.m[q], and ``cells_b[q]`` the same at b.m[q].

    A point in cell c has the section w_c sqrt(m) phi_c, so per axis the
    inner product is sqrt(m m') times the entry (c, c') of the weighted
    cross-Gram.  A point outside [0, 1) reads its clipped cell here; the
    caller multiplies by the in-support mask, once for all axes.
    """
    out = None
    for gram, ca, cb in zip(grams, cells_a, cells_b):
        factor = (gram * math.sqrt(gram.size)).ravel().take(ca * gram.shape[1] + cb)
        out = factor if out is None else np.multiply(out, factor, out=out)
    return out


def section_sq_norm_points(spec, pts: np.ndarray) -> np.ndarray:
    """||K(x', .)||_2^2 for row-stacked points x'.

    Bandwidth kernels: prod_q ||k||_2^2 / h_q, independent of x'.
    Projection kernels: :func:`section_inner_pointwise` of each point with
    itself, prod_q sum_j (w_j phi_j(x'_q))^2.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if isinstance(spec, BandwidthSpec):
        out = 1.0
        for hq in spec.h:
            out *= spec.base.l2_norm_sq / hq
        return np.full(pts.shape[0], out)
    return section_inner_pointwise(spec, pts, spec, pts)


def section_l1_norm(spec, x_prime) -> float:
    """||K(x', .)||_1.

    Bandwidth kernels factor into base L1 norms: ||k||_1^d = 1 exactly.
    Projection kernels are integrated per dimension by a composite rule
    whose panels are refined beyond the oscillation scale of the members.
    """
    if isinstance(spec, BandwidthSpec):
        return spec.base.l1_norm ** spec.d
    xp = np.atleast_1d(np.asarray(x_prime, dtype=np.float64))
    lo, hi = spec.basis.support
    out = 1.0
    for q, mq in enumerate(spec.m):
        anchor = basis_matrix(spec.basis, mq, xp[q : q + 1])[0] * spec.weights_for(mq)
        brk = breakpoints(spec.basis, mq)
        if spec.basis.kind is not BasisKind.REGULAR_HISTOGRAM:
            brk = list(np.linspace(lo, hi, 4 * mq + 1)[1:-1])
        nodes, weights = composite_rule(lo, hi, brk)
        vals = basis_matrix(spec.basis, mq, nodes) @ anchor
        out *= float(np.sum(weights * np.abs(vals)))
    return out


def diag_scan_squares(basis: BasisFamily, m: int) -> np.ndarray:
    """Squared basis values phi_j(t)^2, j <= m, on the diagonal scan grid; m is bounded first."""
    check_table_size("overfitting scan", scan_points=DIAG_SCAN_POINTS, m_max=m)
    lo, hi = basis.support
    mat = basis_matrix(basis, m, np.linspace(lo, hi, DIAG_SCAN_POINTS))
    return mat * mat


def sup_squares(basis: BasisFamily, m: int, scan: bool = False) -> np.ndarray:
    """The table :func:`diag_sup` reads for nested members of orders at most m:
    phi_j(t)^2, j <= m, at the two support endpoints, or with ``scan`` on the
    grid of :func:`diag_scan_squares`; bounded before it is allocated."""
    if scan:
        return diag_scan_squares(basis, m)
    check_table_size("overfitting supremum", endpoints=2, m_max=m)
    mat = basis_matrix(basis, m, np.array(basis.support))
    return mat * mat


def diag_sup(spec) -> float:
    """sup_x K(x, x), the overfitting score of a kernel.

    Bandwidth: prod_q k(0)/h_q exactly.  Histogram projection:
    prod_q m_q max_j w_j exactly.  Other projection kernels take, per
    dimension, the largest row of sum_j w_j phi_j(t)^2 over a table of
    squared basis values (:func:`sup_squares`).  Legendre members,
    weighted or not, and unweighted trigonometric members read the two
    support endpoints, where their supremum sits: each Legendre phi_j^2
    peaks there, since |Q_j| <= Q_j(1) = 1, and the unweighted
    trigonometric sum is constant at odd m and peaks at t = 0 at even m,
    with the value m + 1.  The sine columns vanish at t = 0, so orders 2j
    and 2j + 1 read the same sum, bit for bit.

    A weighted trigonometric member can peak anywhere, so it reads the
    10^4-point scan grid of :func:`diag_scan_squares`, which includes both
    endpoints, and can read low between grid points: per dimension it is
    within a relative pi^2 m^2 / (2 (P - 1)^2) of the supremum, P = 10^4
    the grid size, since the second derivative of the sum is at most
    4 pi^2 m^2 times its mean.  That is 4.4e-7 at m = 3 and 2.0e-4 at
    m = 64; for ``ProjectionSpec(trig, (3,), (1, 0, 1))`` the scan gives
    2.99999995 against the supremum 3.

    With the weights squared this is the supremum over x' of
    ||K(x', .)||_2^2 = prod_q sum_j w_j^2 phi_j(x'_q)^2, the diagonal of the
    w^2-weighted kernel.
    """
    return diag_sups([spec])[0]


def _sup_factor(squares: np.ndarray, mq: int, weights: np.ndarray) -> float:
    """max over the table's points of sum_{j <= mq} w_j phi_j(t)^2, from a
    :func:`sup_squares` table at any order of at least mq: its leading
    columns are the same numbers as a table at order mq."""
    # A view, not a copy: it keeps the memory layout basis_matrix gives
    # (Fortran order for Legendre), and BLAS rounds by layout.
    return float(np.max(squares[:, :mq] @ weights))


def diag_sups(specs) -> list:
    """:func:`diag_sup` of every member, in order, each the product of its
    factors in dimension order.  A bandwidth factor is k(0)/h_q and a
    histogram factor m_q max_j w_j.  Nested members share one
    :func:`sup_squares` table per basis and kind (whether it needs the
    scan), at their largest order, and each distinct (basis, order,
    weights) factor is computed once."""

    def table_key(basis, w):
        # the table a nested member reads: its basis, and whether it needs the scan
        return basis, basis.kind is BasisKind.TRIGONOMETRIC and w is not None

    top = {}
    for s in specs:
        if isinstance(s, ProjectionSpec) and s.basis.nested:
            key = table_key(s.basis, s.w)
            top[key] = max(top.get(key, 0), *s.m)
    tables = {key: sup_squares(key[0], m, key[1]) for key, m in top.items()}

    @functools.cache
    def factor(basis, mq, w):
        weights = ProjectionSpec(basis, (mq,), w).weights_for(mq)
        if not basis.nested:
            return mq * float(np.max(weights))
        return _sup_factor(tables[table_key(basis, w)], mq, weights)

    return [math.prod(s.base.at_zero / hq for hq in s.h) if isinstance(s, BandwidthSpec)
            else math.prod(factor(s.basis, mq, s.w) for mq in s.m) for s in specs]


def smoothness_key(spec):
    """Smaller key = smoother: large bandwidth products, small order products."""
    if isinstance(spec, BandwidthSpec):
        return -float(np.prod(spec.h))
    return float(np.prod(spec.m))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFamily:
    """An ordered collection of candidate kernels plus its overfitting member.

    ``k0_index`` points at the member maximizing sup_x K(x, x) as
    :func:`find_overfitting_k0` computes it: among equal values the
    roughest member, then the lowest index.  ``sample_cap`` is the sample
    size n the family was sized against (the family never holds more than
    n members).  Every member has the variant, d and base kernel or basis
    kind of the first.
    """

    specs: tuple
    sample_cap: int
    k0_index: int

    def __post_init__(self):
        for index, spec in enumerate(self.specs):
            try:
                check_pair(self.specs[0], spec)
            except ValueError as exc:
                raise ValueError(f"family member {index} ({spec_id(spec)}) differs from member 0"
                                 f" ({spec_id(self.specs[0])}): {exc}") from None

    def __len__(self):
        return len(self.specs)

    @property
    def d(self) -> int:
        return self.specs[0].d

    @property
    def k0(self):
        return self.specs[self.k0_index]


def find_overfitting_k0(specs) -> int:
    """Index of the member with the largest diagonal supremum (:func:`diag_sups`).

    Equal suprema go to the roughest member, the largest order product or
    the smallest bandwidth product (:func:`smoothness_key`), and then to
    the lowest index.  This is the projection analogue of the smallest
    bandwidth that PCO compares against.  The suprema of Legendre and
    unweighted trigonometric members are exact (:func:`diag_sup`), so
    their ties are exact too: unweighted trigonometric orders 2j and
    2j + 1 both peak at 2j + 1, and the odd order wins.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty kernel collection")
    values = diag_sups(specs)
    top = max(values)
    tied = [i for i, v in enumerate(values) if v == top]
    return max(tied, key=lambda i: (smoothness_key(specs[i]), -i))


# Entries (tuples times d) of the largest product grid a family builder
# enumerates, the limit of a CLI ``estimate`` grid.
_PRODUCT_ENTRIES = 1_000_000


def _check_product_size(count: int, d: int):
    """Reject d before count^d tuples of d entries exceed ``_PRODUCT_ENTRIES``;
    compared in logarithms, so no huge integer is formed."""
    if d < 1:
        raise ValueError(f"dimension d = {d} must be at least 1")
    if d > _PRODUCT_ENTRIES or math.log(d) + d * math.log(count) > math.log(_PRODUCT_ENTRIES):
        raise ValueError(f"dimension d gives {count}^d tuples of d entries, above the limit of {_PRODUCT_ENTRIES}")


def make_bandwidth_family(base: BaseKernel, h_min: float, grid, d: int, n: int) -> KernelFamily:
    """Family of bandwidth kernels over a per-dimension bandwidth grid.

    Every coordinate of every member ranges over ``grid``, which must sit
    inside [h_min, 1] with h_min in [n^(-1/d), 1].  When the full product
    grid exceeds n members, the n smoothest members (largest bandwidth
    product) are kept along with the overfitting member, so the selection
    anchor is never truncated away.
    """
    grid = sorted(float(v) for v in grid)
    if not grid:
        raise ValueError("empty bandwidth grid")
    _check_product_size(len(grid), d)
    if n < 1:
        raise ValueError("sample cap must be positive")
    if not (n ** (-1.0 / d) - 1e-12 <= h_min <= 1.0):
        raise ValueError(f"h_min {h_min} outside [n^(-1/d), 1] = [{n ** (-1.0 / d)}, 1]")
    for v in grid:
        if not (h_min - 1e-12 <= v <= 1.0):
            raise ValueError(f"grid value {v} outside [h_min, 1]")
    tuples = list(itertools.product(grid, repeat=d))
    if len(tuples) > n:
        products = [float(np.prod(t)) for t in tuples]
        k0_cand = min(range(len(tuples)), key=lambda i: (products[i], i))
        order = sorted(range(len(tuples)), key=lambda i: (-products[i], i))
        keep = set(order[: n - 1]) | {k0_cand}
        tuples = [tuples[i] for i in sorted(keep)]
    specs = tuple(BandwidthSpec(base, t) for t in tuples)
    return KernelFamily(specs, n, find_overfitting_k0(specs))


def make_projection_family(basis: BasisFamily, m_max: int, d: int, n: int, w=None) -> KernelFamily:
    """Family of projection kernels over all order tuples in {1..m_max}^d.

    Requires m_max^d <= n so the family respects the sample-size cap;
    larger requests raise ValueError rather than silently truncating.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if m_max > basis.m_cap:
        raise ValueError(f"m_max {m_max} exceeds the basis order cap m_cap = {basis.m_cap}")
    _check_product_size(m_max, d)
    if m_max**d > n:
        raise ValueError(f"m_max^d = {m_max**d} exceeds the sample cap {n}")
    w = tuple(float(v) for v in w) if w is not None else None
    tuples = list(itertools.product(range(1, m_max + 1), repeat=d))
    specs = tuple(ProjectionSpec(basis, t, w) for t in tuples)
    return KernelFamily(specs, n, find_overfitting_k0(specs))
