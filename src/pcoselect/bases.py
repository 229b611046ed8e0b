"""Orthonormal basis families for projection kernels.

Three families ship:

``trigonometric``
    On [0, 1]: member 1 is the constant indicator, member 2i is
    sqrt(2) cos(2 pi i x), member 2i+1 is sqrt(2) sin(2 pi i x).
    Members do not depend on the truncation order, so the family is nested.

``regular_histogram``
    On [0, 1]: member j of order m is sqrt(m) on the cell
    [(j-1)/m, j/m) and zero elsewhere.  Not nested (cells move with m),
    but the expected kernel values stay uniformly bounded by the density
    sup-norm, which is the property the selection theory needs instead.

``legendre``
    On [-1, 1]: member j is sqrt((2j+1)/2) Q_j where Q_j is the j-th
    Legendre polynomial (three-term recurrence; Q_1(x) = x).  The constant
    member Q_0 is deliberately not part of the family; it is exposed only
    through :func:`normalized_legendre` for orthonormality checks.

The squared sums sum_j w_j phi_j(x)^2 and their suprema are kernel
quantities, the diagonal of a projection kernel: they live in
:mod:`pcoselect.kernels` (:func:`~pcoselect.kernels.section_sq_norm_points`
pointwise, :func:`~pcoselect.kernels.diag_sup` on the table of
:func:`~pcoselect.kernels.sup_squares`: the squared members at the two
support endpoints, where Legendre and unweighted trigonometric sums peak).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class BasisKind(enum.Enum):
    TRIGONOMETRIC = "trigonometric"
    REGULAR_HISTOGRAM = "regular_histogram"
    LEGENDRE = "legendre"


_SUPPORTS = {
    BasisKind.TRIGONOMETRIC: (0.0, 1.0),
    BasisKind.REGULAR_HISTOGRAM: (0.0, 1.0),
    BasisKind.LEGENDRE: (-1.0, 1.0),
}


@dataclass(frozen=True)
class BasisFamily:
    """One orthonormal family together with its bookkeeping constants.

    Parameters
    ----------
    kind : BasisKind
        Which family.
    m_cap : int
        Largest truncation order this instance will serve.  Requests
        beyond the cap raise ValueError.

    Notes
    -----
    ``sup_bound_const`` is a constant c with
    sup_x sum_{j<=m} phi_j(x)^2 <= c * m for every m up to the cap.
    Histogram: the sum is exactly m, so c = 1.  Trigonometric: the sum is
    m for odd m and at most m + 1 for even m, so c = 1.5 works from m = 2
    on (and trivially at m = 1).  Legendre: the sum reaches
    m (m + 2) / 2 at the endpoints, which grows faster than any fixed
    multiple of m; the constant is therefore declared relative to the cap,
    c = (m_cap + 2) / 2, and is exact at m = m_cap.
    """

    kind: BasisKind
    m_cap: int = 64

    def __post_init__(self):
        if self.m_cap < 1:
            raise ValueError("m_cap must be at least 1")

    @property
    def support(self) -> tuple[float, float]:
        return _SUPPORTS[self.kind]

    @property
    def nested(self) -> bool:
        """True when members are independent of the truncation order."""
        return self.kind in (BasisKind.TRIGONOMETRIC, BasisKind.LEGENDRE)

    @property
    def sup_bound_const(self) -> float:
        if self.kind is BasisKind.REGULAR_HISTOGRAM:
            return 1.0
        if self.kind is BasisKind.TRIGONOMETRIC:
            return 1.5
        return (self.m_cap + 2) / 2.0

    def check_order(self, m: int):
        if not 1 <= m <= self.m_cap:
            raise ValueError(f"truncation order {m} outside [1, {self.m_cap}]")


def _on_support(support, x):
    """The indicator of ``support`` at x, and x with every point off it moved
    to 0.  Members vanish off the support, but a far point can overflow a
    cosine's argument or a polynomial to inf, and inf times 0 is nan."""
    inside = (x >= support[0]) & (x <= support[1])
    return inside.astype(np.float64), np.where(inside, x, 0.0)


def normalized_legendre(degree: int, x) -> np.ndarray:
    """sqrt((2p+1)/2) Q_p(x) on [-1, 1], zero outside; valid for p >= 0."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    inside, x = _on_support((-1.0, 1.0), np.asarray(x, dtype=np.float64))
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    vals = np.polynomial.legendre.legval(x, coeffs)
    return np.sqrt((2 * degree + 1) / 2.0) * vals * inside


def eval_basis(family: BasisFamily, m: int, j: int, x) -> np.ndarray:
    """Evaluate member j of the order-m family at x (vectorized).

    Raises ValueError when j is outside 1..m or m exceeds the family cap.
    """
    family.check_order(m)
    if not 1 <= j <= m:
        raise ValueError(f"member index {j} outside 1..{m}")
    x = np.asarray(x, dtype=np.float64)

    if family.kind is BasisKind.REGULAR_HISTOGRAM:
        lo_edge = (j - 1) / m
        hi_edge = j / m
        return np.sqrt(m) * ((x >= lo_edge) & (x < hi_edge)).astype(np.float64)

    if family.kind is BasisKind.TRIGONOMETRIC:
        inside, x = _on_support(family.support, x)
        if j == 1:
            return inside
        freq = j // 2
        if j % 2 == 0:
            return np.sqrt(2.0) * np.cos(2 * np.pi * freq * x) * inside
        return np.sqrt(2.0) * np.sin(2 * np.pi * freq * x) * inside

    return normalized_legendre(j, x)


def histogram_cells(m, x) -> tuple[np.ndarray, np.ndarray]:
    """Order-m histogram cell of each x (0-based, clipped) and the in-support mask.

    Member j of order m is sqrt(m) on cell j - 1 and zero elsewhere, so
    these two arrays carry every histogram basis value at x.  x is clipped
    to [0, 1] before it is scaled, so a huge |x| cannot overflow to inf,
    whose integer cast is undefined.  ``m`` may be a 1-d array of orders:
    the cells then have one row per order, from one pass over x, and the
    mask, which no order changes, is returned once.
    """
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.int64)
    if m.ndim:
        m = m[:, None]
    cells = np.floor(np.clip(x, 0.0, 1.0) * m.astype(np.float64)).astype(np.int64)
    return np.clip(cells, 0, m - 1, out=cells), (x >= 0.0) & (x < 1.0)


def basis_matrix(family: BasisFamily, m: int, x) -> np.ndarray:
    """All members at once: matrix of shape (len(x), m), column j-1 is phi_j.

    This is the vectorized path used by the kernel Gram machinery; it must
    (and does, see the tests) agree entrywise with :func:`eval_basis`.
    """
    family.check_order(m)
    x = np.asarray(x, dtype=np.float64).ravel()

    if family.kind is BasisKind.REGULAR_HISTOGRAM:
        cells, ok = histogram_cells(m, x)
        out = np.zeros((x.size, m))
        rows = np.nonzero(ok)[0]
        out[rows, cells[rows]] = np.sqrt(m)
        return out

    if family.kind is BasisKind.TRIGONOMETRIC:
        inside, x = _on_support(family.support, x)
        out = np.empty((x.size, m))
        out[:, 0] = inside
        # columns 2k - 1 and 2k are the cosine and sine of frequency k, from the
        # products of eval_basis, in one contiguous call of each function
        angles = np.multiply.outer(x, 2 * np.pi * np.arange(1, m // 2 + 1))
        sines = np.sin(angles)
        for values, columns in ((np.cos(angles, out=angles), out[:, 1::2]), (sines, out[:, 2::2])):
            values *= np.sqrt(2.0)
            values *= inside[:, None]
            columns[...] = values[:, : columns.shape[1]]
        return out

    inside, x = _on_support(family.support, x)
    vander = np.polynomial.legendre.legvander(x, m)  # columns Q_0 .. Q_m
    scale = np.sqrt((2 * np.arange(1, m + 1) + 1) / 2.0)
    return vander[:, 1:] * scale[None, :] * inside[:, None]


def cross_gram(family: BasisFamily, m: int, m_other: int) -> np.ndarray:
    """Matrix of inner products <phi_j^m, phi_j'^m'> with shape (m, m').

    Nested families give a truncated identity.  Histogram members of
    different orders overlap on intervals, giving
    sqrt(m m') * |cell_j intersect cell_j'|.
    """
    family.check_order(m)
    family.check_order(m_other)
    if family.nested:
        out = np.zeros((m, m_other))
        k = min(m, m_other)
        out[:k, :k] = np.eye(k)
        return out
    edges, others = np.arange(m + 1) / m, np.arange(m_other + 1) / m_other
    lo = np.maximum.outer(edges[:-1], others[:-1])
    hi = np.minimum.outer(edges[1:], others[1:])
    return np.sqrt(m * m_other) * np.maximum(hi - lo, 0.0)


def breakpoints(family: BasisFamily, m: int):
    """Interior smoothness breakpoints of order-m members (quadrature panels)."""
    if family.kind is BasisKind.REGULAR_HISTOGRAM:
        return [j / m for j in range(1, m)]
    return []


def sine_tail_max_violation(p_max: int = 200, grid_points: int = 10_000) -> float:
    """Worst slack of the partial sine series tail bound.

    For every 1 <= p < q <= p_max and every x strictly inside (0, 2 pi),
    the tail sum_{j=p+1}^{q} sin(j x) / j is bounded in absolute value by
    2 / ((1 + p) sin(x / 2)).  Returns the maximum over the scan of
    |tail| - bound (negative everywhere when the bound holds).
    """
    x = 2 * np.pi * np.arange(1, grid_points + 1) / (grid_points + 1)
    j = np.arange(1, p_max + 1)[:, None]
    partial = np.cumsum(np.sin(j * x[None, :]) / j, axis=0)  # S_q(x), q = 1..p_max
    inv_sin = 1.0 / np.sin(x / 2.0)
    worst = -np.inf
    for p in range(1, p_max):
        tails = np.abs(partial[p:] - partial[p - 1][None, :])
        bound = 2.0 / (1.0 + p) * inv_sin
        worst = max(worst, float(np.max(np.max(tails, axis=0) - bound)))
    return worst
