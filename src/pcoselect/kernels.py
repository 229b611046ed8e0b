"""Kernel specifications, families, and closed-form L2 section geometry.

Two kinds of product kernels are supported on R^d:

* bandwidth kernels  K(x', x) = prod_q (1/h_q) k((x'_q - x_q)/h_q) built
  from a Gaussian or Epanechnikov base density k, and
* projection kernels K(x', x) = prod_q sum_j w_j phi_j(x_q) phi_j(x'_q)
  built from an orthonormal family truncated at order m_q per dimension,
  optionally downweighted by w_j in [0, 1] (w omitted means w_j = 1).

Inner products between kernel sections <K_a(xa,.), K_b(xb,.)> are
evaluated in closed form.  Gaussian pairs convolve to a Gaussian.  The
Epanechnikov convolution is a polynomial of degree four on the support
overlap, so a 3-node Gauss-Legendre rule on that overlap integrates it
exactly; a mixed Gaussian x Epanechnikov pair uses 128 nodes.  Either rule
accumulates node by node, so its scratch memory is a few arrays the size
of the input.  Projection pairs factor over dimensions into basis
cross-Gram sums.

The selection path builds no table with :func:`section_inner_matrix`: a
projection estimator is a coefficient tensor, which
:mod:`pcoselect.estimator` works on directly, and bandwidth totals are
reduced block by block from :func:`bandwidth_gram_entries` on pairwise
differences.  The pairwise forms stay as the reference that tests and the
dense :meth:`GramTables.matrix` compare against.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bases import BasisFamily, BasisKind, basis_matrix, breakpoints, cross_gram, histogram_cells
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
        h = tuple(float(v) for v in self.h)
        object.__setattr__(self, "h", h)
        if not h:
            raise ValueError("bandwidth tuple is empty")
        if not all(math.isfinite(v) and v > 0 for v in h):
            raise ValueError(f"bandwidths h must be positive and finite (got {list(h)})")

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
    variant = cfg.get("variant")
    if variant == "bandwidth":
        base = BaseKernel(BaseKind(cfg["base"]))
        return BandwidthSpec(base, tuple(cfg["h"]))
    if variant == "projection":
        basis = BasisFamily(BasisKind(cfg["basis"]), int(cfg.get("m_cap", 64)))
        w = tuple(cfg["w"]) if "w" in cfg else None
        return ProjectionSpec(basis, tuple(cfg["m"]), w)
    raise ValueError(f"unknown kernel variant {variant!r}")


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


def kernel_eval(spec, x_prime, x) -> float:
    """K(x', x) at a single pair of d-vectors."""
    a = np.atleast_1d(np.asarray(x_prime, dtype=np.float64))[None, :]
    b = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    return float(kernel_matrix(spec, a, b)[0, 0])


# ---------------------------------------------------------------------------
# closed-form section inner products
# ---------------------------------------------------------------------------


def _conv_quadrature(eval_a, lo_a, hi_a, eval_b, lo_b, hi_b, delta: np.ndarray, nodes: int) -> np.ndarray:
    """integral of f_a(u) f_b(u - delta) over the support overlap, per delta.

    The rule is accumulated node by node, so scratch memory is a few
    arrays of delta's shape whatever the node count.
    """
    delta = np.asarray(delta, dtype=np.float64)
    lo = np.maximum(lo_a, delta + lo_b)
    hi = np.minimum(hi_a, delta + hi_b)
    half = 0.5 * np.clip(hi - lo, 0.0, None)
    mid = 0.5 * (lo + hi)
    out = np.zeros_like(half)
    for x, w in zip(*legendre_rule(nodes)):
        u = mid + half * x
        out += w * (eval_a(u) * eval_b(u - delta))
    return out * half


def _bandwidth_conv_1d(base_a: BaseKernel, h_a: float, base_b: BaseKernel, h_b: float, delta) -> np.ndarray:
    """integral of (1/h_a) k_a(u/h_a) (1/h_b) k_b((u - delta)/h_b) du, vectorized.

    A Gaussian pair convolves in closed form to a centered Gaussian of
    variance h_a^2 + h_b^2.  An Epanechnikov pair is a polynomial of degree
    four on the support overlap, which a 3-node Gauss-Legendre rule on that
    overlap integrates exactly (:func:`_epanechnikov_conv`).  A mixed pair
    is smooth on the overlap and takes a 128-node rule.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if base_a.kind is BaseKind.GAUSSIAN and base_b.kind is BaseKind.GAUSSIAN:
        v = h_a * h_a + h_b * h_b
        return np.exp(-delta * delta / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    if base_a.kind is BaseKind.EPANECHNIKOV and base_b.kind is BaseKind.EPANECHNIKOV:
        return _epanechnikov_conv(h_a, h_b, delta)

    def scaled(base, h):
        return lambda u: base.eval(u / h) / h

    wa = base_a.tail_halfwidth * h_a
    wb = base_b.tail_halfwidth * h_b
    return _conv_quadrature(scaled(base_a, h_a), -wa, wa, scaled(base_b, h_b), -wb, wb, delta, 128)


def _epanechnikov_conv(h_a: float, h_b: float, delta: np.ndarray) -> np.ndarray:
    """The Epanechnikov pair by the 3-node Gauss-Legendre rule on the support overlap.

    The integrand (9/16) (h_a - u)(h_a + u)(h_b - u + delta)(h_b + u - delta) / (h_a h_b)^3
    has degree four, so the rule is exact.  Each factor is the distance
    from the node to a support end, taken as the gap between that end and
    the overlap end plus the node's offset inside the overlap.  Every term
    is nonnegative, so a tiny overlap loses no digits to cancellation.

    Every step writes in place into the result or one of eight work
    arrays taken from a single allocation: two allocations per call, not
    about forty temporaries whose heap churn made the sweep's cost depend
    on what else was live.
    """
    delta = np.asarray(delta, dtype=np.float64)
    out = np.zeros_like(delta)
    gap_b_lo, gap_b, gap_a_lo, gap_a, half, right, left, term = np.empty((8,) + delta.shape)
    np.subtract(delta, h_b, out=gap_b_lo)  # lo_b
    np.add(delta, h_b, out=gap_b)  # hi_b
    np.maximum(-h_a, gap_b_lo, out=gap_a_lo)  # lo, the overlap's lower end
    np.minimum(h_a, gap_b, out=gap_a)  # hi, its upper end
    np.subtract(gap_a, gap_a_lo, out=half)
    np.clip(half, 0.0, None, out=half)
    np.multiply(0.5, half, out=half)
    np.subtract(gap_b, gap_a, out=gap_b)  # hi_b - hi
    np.subtract(h_a, gap_a, out=gap_a)  # h_a - hi
    np.subtract(gap_a_lo, gap_b_lo, out=gap_b_lo)  # lo - lo_b
    np.add(gap_a_lo, h_a, out=gap_a_lo)  # lo + h_a
    for t, w in zip(*legendre_rule(3)):
        np.multiply(half, 1.0 - t, out=right)
        np.multiply(half, 1.0 + t, out=left)
        np.add(gap_a, right, out=term)
        np.multiply(term, np.add(gap_b, right, out=right), out=term)
        np.multiply(term, np.add(gap_a_lo, left, out=right), out=term)
        np.multiply(term, np.add(gap_b_lo, left, out=right), out=term)
        np.multiply(w, term, out=term)
        np.add(out, term, out=out)
    np.multiply(out, half, out=out)
    return np.multiply(out, 0.5625 / (h_a * h_b) ** 3, out=out)


def bandwidth_gram_entries(a: BandwidthSpec, b: BandwidthSpec, deltas) -> np.ndarray:
    """<K_a(x, .), K_b(x', .)>_2 from the differences deltas[q] = x_q - x'_q.

    The section inner product of two product kernels is the product over
    dimensions of the 1-d convolutions :func:`_bandwidth_conv_1d`.
    """
    out = _bandwidth_conv_1d(a.base, a.h[0], b.base, b.h[0], deltas[0])
    for q in range(1, a.d):
        out *= _bandwidth_conv_1d(a.base, a.h[q], b.base, b.h[q], deltas[q])
    return out


def section_inner_matrix(a, xa: np.ndarray, b, xb: np.ndarray) -> np.ndarray:
    """Gram block <K_a(xa_i, .), K_b(xb_j, .)>_2, shape (len(xa), len(xb)).

    Both specs must share the variant (bandwidth with bandwidth, projection
    with projection on the same basis family kind); mixing variants has no
    closed form here and raises ValueError.
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    if a.d != b.d:
        raise ValueError("kernel dimensions differ")
    if xa.shape[1] != a.d or xb.shape[1] != b.d:
        raise ValueError("point dimension does not match the kernels")
    if isinstance(a, BandwidthSpec) and isinstance(b, BandwidthSpec):
        return bandwidth_gram_entries(a, b, [xa[:, q, None] - xb[None, :, q] for q in range(a.d)])
    if isinstance(a, ProjectionSpec) and isinstance(b, ProjectionSpec):
        if a.basis.kind is not b.basis.kind:
            raise ValueError("projection kernels use different basis families")
        out = np.ones((xa.shape[0], xb.shape[0]))
        for q in range(a.d):
            ma, mb = a.m[q], b.m[q]
            va = basis_matrix(a.basis, ma, xa[:, q]) * a.weights_for(ma)[None, :]
            vb = basis_matrix(b.basis, mb, xb[:, q]) * b.weights_for(mb)[None, :]
            if a.basis.nested:
                k = min(ma, mb)
                out *= va[:, :k] @ vb[:, :k].T
            else:
                gram = cross_gram(a.basis, ma, mb)
                out *= va @ gram @ vb.T
        return out
    raise ValueError("no closed form for mixed bandwidth/projection sections")


def section_inner(a, xa, b, xb) -> float:
    """<K_a(xa, .), K_b(xb, .)>_2 at single points."""
    pa = np.atleast_1d(np.asarray(xa, dtype=np.float64))[None, :]
    pb = np.atleast_1d(np.asarray(xb, dtype=np.float64))[None, :]
    return float(section_inner_matrix(a, pa, b, pb)[0, 0])


def section_inner_pointwise(a, xa: np.ndarray, b, xb: np.ndarray) -> np.ndarray:
    """<K_a(xa_i, .), K_b(xb_i, .)>_2 row by row (no cross terms); shape (n,)."""
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    if xa.shape != xb.shape:
        raise ValueError("paired point arrays must share a shape")
    if isinstance(a, BandwidthSpec) and isinstance(b, BandwidthSpec):
        return bandwidth_gram_entries(a, b, [xa[:, q] - xb[:, q] for q in range(a.d)])
    out = np.ones(xa.shape[0])
    if isinstance(a, ProjectionSpec) and isinstance(b, ProjectionSpec):
        if a.basis.kind is not b.basis.kind:
            raise ValueError("projection kernels use different basis families")
        for q in range(a.d):
            ma, mb = a.m[q], b.m[q]
            if a.basis.kind is BasisKind.REGULAR_HISTOGRAM:
                ca, ok_a = histogram_cells(ma, xa[:, q])
                cb, ok_b = histogram_cells(mb, xb[:, q])
                out *= histogram_cell_inner(a, ma, ca, b, mb, cb) * (ok_a & ok_b)
            else:
                k = min(ma, mb)
                va = basis_matrix(a.basis, ma, xa[:, q])[:, :k] * a.weights_for(ma)[None, :k]
                vb = basis_matrix(b.basis, mb, xb[:, q])[:, :k] * b.weights_for(mb)[None, :k]
                out *= np.sum(va * vb, axis=1)
        return out
    raise ValueError("no closed form for mixed bandwidth/projection sections")


def histogram_cell_inner(a, ma: int, ca: np.ndarray, b, mb: int, cb: np.ndarray) -> np.ndarray:
    """Histogram sections on cells ca (order ma) and cb (order mb), paired row by row.

    The section of a point in cell c is w_c m 1_cell(x), so the inner
    product is w_c w'_c' m m' |cell intersect cell'|.
    """
    overlap = np.clip(
        np.minimum((ca + 1) / ma, (cb + 1) / mb) - np.maximum(ca / ma, cb / mb),
        0.0,
        None,
    )
    return a.weights_for(ma)[ca] * b.weights_for(mb)[cb] * ma * mb * overlap


def section_sq_norm(spec, x_prime) -> float:
    """||K(x', .)||_2^2.

    Bandwidth kernels: prod_q ||k||_2^2 / h_q, independent of x'.
    Projection kernels: prod_q sum_j (w_j phi_j(x'_q))^2.
    """
    if isinstance(spec, BandwidthSpec):
        out = 1.0
        for hq in spec.h:
            out *= spec.base.l2_norm_sq / hq
        return out
    xp = np.atleast_1d(np.asarray(x_prime, dtype=np.float64))
    out = 1.0
    for q, mq in enumerate(spec.m):
        row = basis_matrix(spec.basis, mq, xp[q : q + 1])[0] * spec.weights_for(mq)
        out *= float(np.sum(row * row))
    return out


def section_sq_norm_points(spec, pts: np.ndarray) -> np.ndarray:
    """||K(x', .)||_2^2 for row-stacked points x'; vectorized form."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if isinstance(spec, BandwidthSpec):
        return np.full(pts.shape[0], section_sq_norm(spec, pts[0]))
    out = np.ones(pts.shape[0])
    for q, mq in enumerate(spec.m):
        mat = basis_matrix(spec.basis, mq, pts[:, q]) * spec.weights_for(mq)[None, :]
        out *= np.sum(mat * mat, axis=1)
    return out


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
    """Squared basis values phi_j(t)^2, j <= m, on the diagonal scan grid."""
    lo, hi = basis.support
    mat = basis_matrix(basis, m, np.linspace(lo, hi, DIAG_SCAN_POINTS))
    return mat * mat


def diag_sup(spec, scan_squares: np.ndarray | None = None) -> float:
    """sup_x K(x, x), the overfitting score of a kernel.

    Bandwidth: prod_q k(0)/h_q exactly.  Histogram projection:
    prod_q m_q max_j w_j exactly.  Other projection kernels scan a
    10^4-point grid per dimension (their diagonal maxima sit at grid
    endpoints, so the scan is exact for the shipped bases).  Nested bases
    may pass ``scan_squares`` from :func:`diag_scan_squares` at any order
    of at least max(m); its leading columns are the same numbers the
    scan would compute at each order.
    """
    if isinstance(spec, BandwidthSpec):
        out = 1.0
        for hq in spec.h:
            out *= spec.base.at_zero / hq
        return out
    if spec.basis.kind is BasisKind.REGULAR_HISTOGRAM:
        out = 1.0
        for mq in spec.m:
            out *= mq * float(np.max(spec.weights_for(mq)))
        return out
    if scan_squares is None:
        scan_squares = diag_scan_squares(spec.basis, max(spec.m))
    out = 1.0
    for mq in spec.m:
        # A view, not a copy: it keeps the memory layout basis_matrix gives
        # (Fortran order for Legendre), and BLAS rounds by layout.
        out *= float(np.max(scan_squares[:, :mq] @ spec.weights_for(mq)))
    return out


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFamily:
    """An ordered collection of candidate kernels plus its overfitting member.

    ``k0_index`` points at the member maximizing sup_x K(x, x); ties go to
    the lowest index.  ``sample_cap`` is the sample size n the family was
    sized against (the family never holds more than n members).
    """

    specs: tuple
    sample_cap: int
    k0_index: int

    def __len__(self):
        return len(self.specs)

    @property
    def d(self) -> int:
        return self.specs[0].d

    @property
    def k0(self):
        return self.specs[self.k0_index]


def find_overfitting_k0(specs) -> int:
    """Index of the member with the largest diagonal supremum (first on ties).

    Nested projection members share one diagonal scan per basis, taken at
    the largest order among them.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty kernel collection")
    top = {}
    for s in specs:
        if isinstance(s, ProjectionSpec) and s.basis.nested:
            top[s.basis] = max(top.get(s.basis, 0), *s.m)
    scans = {basis: diag_scan_squares(basis, m) for basis, m in top.items()}
    values = [diag_sup(s, scans.get(s.basis) if isinstance(s, ProjectionSpec) else None) for s in specs]
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


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
    if d < 1:
        raise ValueError(f"dimension d = {d} must be at least 1")
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
    if d < 1:
        raise ValueError(f"dimension d = {d} must be at least 1")
    if m_max**d > n:
        raise ValueError(f"m_max^d = {m_max**d} exceeds the sample cap {n}")
    w = tuple(float(v) for v in w) if w is not None else None
    tuples = list(itertools.product(range(1, m_max + 1), repeat=d))
    specs = tuple(ProjectionSpec(basis, t, w) for t in tuples)
    return KernelFamily(specs, n, find_overfitting_k0(specs))
