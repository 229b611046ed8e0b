"""Brute-force oracles shared across test modules.

Everything here recomputes quantities the library gets in closed form,
by direct quadrature with panel boundaries at every point where an
integrand can lose smoothness.  Slow and dumb on purpose.
"""

import csv
import sys

import numpy as np

from pcoselect import BandwidthSpec, DataError, ProjectionSpec, composite_rule, kernel_matrix
from pcoselect.bases import breakpoints as basis_breakpoints
from pcoselect.bases import basis_matrix, cross_gram
from pcoselect.numerics import pairwise_sum


def forbid_everywhere(monkeypatch, name, message):
    """Make ``name`` raise in every ``pcoselect`` module namespace that holds it."""

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "pcoselect" and hasattr(module, name):
            monkeypatch.setattr(module, name, forbidden)


def section_box(spec, anchor):
    """Per-dimension integration bounds covering the section's support."""
    anchor = np.atleast_1d(np.asarray(anchor, dtype=np.float64))
    if isinstance(spec, BandwidthSpec):
        reach = [spec.base.tail_halfwidth * h for h in spec.h]
        return (
            [anchor[q] - reach[q] for q in range(spec.d)],
            [anchor[q] + reach[q] for q in range(spec.d)],
        )
    lo, hi = spec.basis.support
    return [lo] * spec.d, [hi] * spec.d


def section_breakpoints(spec, anchor):
    """Kink locations of the section along each dimension."""
    anchor = np.atleast_1d(np.asarray(anchor, dtype=np.float64))
    out = []
    for q in range(spec.d):
        if isinstance(spec, BandwidthSpec):
            h = spec.h[q]
            out.append([anchor[q] - h, anchor[q] + h])
        else:
            out.append(list(basis_breakpoints(spec.basis, spec.m[q])))
    return out


def quad_section_inner(a, xa, b, xb, nodes_per_unit=64):
    """Quadrature oracle for <K_a(xa, .), K_b(xb, .)>_2 over R^d.

    Integrates the product of the two sections on the union box of their
    supports, with panel edges at every kink of either factor.
    """
    xa = np.atleast_1d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_1d(np.asarray(xb, dtype=np.float64))
    lo_a, hi_a = section_box(a, xa)
    lo_b, hi_b = section_box(b, xb)
    brk_a = section_breakpoints(a, xa)
    brk_b = section_breakpoints(b, xb)
    total = 1.0
    for q in range(len(xa)):
        lo = min(lo_a[q], lo_b[q])
        hi = max(hi_a[q], hi_b[q])
        nodes, weights = composite_rule(lo, hi, brk_a[q] + brk_b[q], nodes_per_unit)
        ka = kernel_matrix(_axis_spec(a, q), xa[q : q + 1].reshape(1, 1), nodes.reshape(-1, 1))[0]
        kb = kernel_matrix(_axis_spec(b, q), xb[q : q + 1].reshape(1, 1), nodes.reshape(-1, 1))[0]
        total *= float(np.sum(weights * ka * kb))
    return total


def _axis_spec(spec, q):
    """The 1-d factor of a product kernel along dimension q."""
    if isinstance(spec, BandwidthSpec):
        return BandwidthSpec(spec.base, (spec.h[q],))
    return ProjectionSpec(spec.basis, (spec.m[q],), spec.w)


def reference_read_csv(path):
    """The sample file read row by row with the ``csv`` module and ``float``:
    (x, y, dropped rows), or DataError.  The reference for
    :func:`pcoselect.read_sample_csv`."""
    with open(path, newline="") as fh:
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
    if arr.shape[0] == 0:
        raise DataError(f"{path}: no usable data rows")
    return arr[:, :d], arr[:, d], rejected


def cross_gram_total(tables, a, b):
    """sum_{i,j} ell_i ell_j G_ab[i, j] of a projection pair as the quadratic
    form T_a^T ((x)_q W_a C_q W_b) T_b, one cross-Gram contraction per axis."""
    y = tables.coefficients(b)
    for q in range(a.d):
        ma, mb = a.m[q], b.m[q]
        gram = a.weights_for(ma)[:, None] * cross_gram(a.basis, ma, mb) * b.weights_for(mb)[None, :]
        y = np.moveaxis(np.tensordot(gram, y, axes=(1, q)), 0, q)
    return pairwise_sum(tables.coefficients(a) * y)


def weighted_values_diag(tables, a, b):
    """G_ab[i, i] of a nested projection pair from weighted basis values at the sample."""
    out = np.ones(tables.sample.n)
    for q in range(a.d):
        ma, mb = a.m[q], b.m[q]
        k = min(ma, mb)
        v = basis_matrix(a.basis, k, tables.sample.x[:, q])
        out *= np.sum((v * a.weights_for(ma)[None, :k]) * (v * b.weights_for(mb)[None, :k]), axis=1)
    return out


def reference_product_tensor(values, ell, block=256):
    """sum_i ell_i prod_q values[q][i, j_q] in blocks of ``block`` coefficients,
    each a row sum over the rows of the transposed basis values."""
    shape = tuple(v.shape[1] for v in values)
    rows = [np.ascontiguousarray(v.T) for v in values]
    out = np.empty(int(np.prod(shape)))
    for start in range(0, out.size, block):
        index = np.unravel_index(np.arange(start, min(start + block, out.size)), shape)
        terms = ell[None, :] * rows[0][index[0]]
        for q in range(1, len(rows)):
            terms *= rows[q][index[q]]
        out[start : start + block] = np.sum(terms, axis=1)
    return out.reshape(shape)


def epanechnikov_reference_entries(d, h_a, h_b):
    """The Epanechnikov section products of a d = 1 pair at the long-double
    differences ``d``, by the 3-node Gauss-Legendre rule on the support
    overlap, exact for the degree-4 integrand, in 80-bit arithmetic where
    numpy has it."""
    ha, hb = np.longdouble(h_a), np.longdouble(h_b)
    nodes, weights = (np.asarray(v, dtype=np.longdouble) for v in np.polynomial.legendre.leggauss(3))
    left, right = np.maximum(-ha, d - hb), np.minimum(ha, d + hb)
    half, mid = np.clip(right - left, 0, None) / 2, (right + left) / 2
    g = np.zeros_like(d)
    for t, w in zip(nodes, weights):
        u = mid + half * t
        g += w * (ha - u) * (ha + u) * (hb - (u - d)) * (hb + (u - d))
    g *= half * (np.longdouble(9) / 16) / (ha * hb) ** 3
    return g


def epanechnikov_reference_totals(x, ells, h_a, h_b, rows=200):
    """sum_ij ell_i ell_j G_ab[i, j] and sum_ij |ell_i ell_j| G_ab[i, j] of a
    d = 1 Epanechnikov pair, per row of ``ells``, in long double.

    Each entry is :func:`epanechnikov_reference_entries`; the table is
    built ``rows`` rows at a time, over the columns in reach of them.
    Returns a (len(ells), 2) float array.
    """
    order = np.argsort(x, kind="stable")
    xs = np.asarray(x, dtype=np.longdouble)[order]
    ls = [np.asarray(ell, dtype=np.longdouble)[order] for ell in ells]
    reach = np.longdouble(h_a) + np.longdouble(h_b)
    out = np.zeros((len(ls), 2), dtype=np.longdouble)
    for lo in range(0, xs.size, rows):
        first = np.searchsorted(xs, xs[lo] - reach, side="left")
        last = np.searchsorted(xs, xs[min(lo + rows, xs.size) - 1] + reach, side="right")
        g = epanechnikov_reference_entries(xs[lo : lo + rows, None] - xs[None, first:last], h_a, h_b)
        for row, ell in zip(out, ls):
            row[0] += ell[lo : lo + rows] @ g @ ell[first:last]
            row[1] += np.abs(ell[lo : lo + rows]) @ g @ np.abs(ell[first:last])
    return out.astype(np.float64)
