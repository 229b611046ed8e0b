"""Composite Gauss-Legendre quadrature and integration grids.

The package-wide integration rule is composite Gauss-Legendre with 64 nodes
per unit-length panel, with panel boundaries inserted at every breakpoint a
caller declares (histogram cell edges, kernel support edges).  Gaussian
factors are truncated at 8 effective standard deviations; the discarded
tail mass of a standard normal beyond 8 is below 1e-15, so the truncation
error is negligible against every tolerance used in this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

NODES_PER_UNIT = 64
GAUSSIAN_TAIL_WIDTH = 8.0


@functools.cache
def legendre_rule(nodes: int):
    """Nodes and weights of the ``nodes``-point Gauss-Legendre rule on [-1, 1].

    Computed once per node count; both arrays are read-only because every
    caller shares them.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_panel(lo: float, hi: float, nodes: int = NODES_PER_UNIT):
    """Nodes and weights of the Gauss-Legendre rule mapped onto [lo, hi]."""
    if hi <= lo:
        raise ValueError(f"empty panel [{lo}, {hi}]")
    x, w = legendre_rule(int(nodes))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * x, half * w


def composite_rule(lo: float, hi: float, breakpoints=(), nodes_per_unit: int = NODES_PER_UNIT):
    """Composite Gauss-Legendre nodes/weights on [lo, hi].

    Parameters
    ----------
    lo, hi : float
        Integration interval.
    breakpoints : iterable of float
        Points where the integrand may lose smoothness (cell edges,
        support edges).  Panels never straddle a breakpoint.
    nodes_per_unit : int
        Node budget per unit of panel length; panels longer than one unit
        are split into equal sub-panels of at most unit length, each
        receiving the full node count.

    Returns
    -------
    (nodes, weights) : pair of 1-d arrays
    """
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    cuts = [lo, hi]
    for b in breakpoints:
        b = float(b)
        if lo < b < hi:
            cuts.append(b)
    cuts = sorted(set(cuts))
    xs, ws = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        pieces = max(1, int(np.ceil(b - a)))
        edges = np.linspace(a, b, pieces + 1)
        for p_lo, p_hi in zip(edges[:-1], edges[1:]):
            x, w = gauss_legendre_panel(p_lo, p_hi, nodes_per_unit)
            xs.append(x)
            ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True, eq=False)
class IntegrationGrid:
    """A d-dimensional quadrature rule: flat points (P, d) and weights (P,).

    ``axis`` is (lo, step, count) when the rule is known by construction to
    sit on the uniform axis lo + p step, p < count, of a d = 1 grid (see
    :func:`trapezoid_grid`), and None otherwise; it is never inferred from
    the point values.  Where an array is expected, the grid stands for its
    points.  Grids compare and hash by identity, so a grid can be a dict
    key; two grids built alike are different grids.
    """

    points: np.ndarray
    weights: np.ndarray
    axis: tuple | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights length mismatch")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def integrate(self, values: np.ndarray) -> float:
        from .numerics import pairwise_sum

        return pairwise_sum(self.weights * np.asarray(values, dtype=np.float64))


def tensor_grid(axes) -> IntegrationGrid:
    """Tensor product of per-dimension (nodes, weights) rules."""
    node_list = [np.asarray(x) for x, _ in axes]
    weight_list = [np.asarray(w) for _, w in axes]
    mesh = np.meshgrid(*node_list, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    w = weight_list[0]
    for wq in weight_list[1:]:
        w = np.multiply.outer(w, wq)
    return IntegrationGrid(pts, w.ravel())


def composite_grid(lo, hi, breakpoints_per_dim=None, nodes_per_unit: int = NODES_PER_UNIT) -> IntegrationGrid:
    """Composite Gauss-Legendre grid on a box [lo_1,hi_1] x ... x [lo_d,hi_d]."""
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    d = lo.size
    axes = []
    for q in range(d):
        brk = () if breakpoints_per_dim is None else breakpoints_per_dim[q]
        axes.append(composite_rule(lo[q], hi[q], brk, nodes_per_unit))
    return tensor_grid(axes)


def trapezoid_rule(lo: float, hi: float, num: int):
    """Uniform trapezoid nodes/weights with ``num`` points on [lo, hi]."""
    if num < 2:
        raise ValueError("trapezoid rule needs at least 2 points")
    x = np.linspace(lo, hi, int(num))
    h = (hi - lo) / (num - 1)
    w = np.full(num, h)
    w[0] = w[-1] = 0.5 * h
    return x, w


def trapezoid_grid(lo, hi, num_per_dim) -> IntegrationGrid:
    """Uniform tensor trapezoid grid; the default risk-integration rule.

    At d = 1 the grid records its axis (lo, step, count): its points are
    ``np.linspace(lo, hi, count)``, lo + p step with the last one at hi.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if np.isscalar(num_per_dim) or np.ndim(num_per_dim) == 0:
        nums = [int(num_per_dim)] * lo.size
    else:
        nums = [int(n) for n in num_per_dim]
    axes = [trapezoid_rule(lo[q], hi[q], nums[q]) for q in range(lo.size)]
    grid = tensor_grid(axes)
    if lo.size > 1:
        return grid
    step = (hi[0] - lo[0]) / (nums[0] - 1)
    return IntegrationGrid(grid.points, grid.weights, (float(lo[0]), float(step), nums[0]))
