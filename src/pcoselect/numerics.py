"""Deterministic reduction and parallel-map helpers.

Every sum that feeds a reported number goes through :func:`pairwise_sum`
so that serial and thread-pooled runs produce bit-identical output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

def pairwise_sum(values) -> float:
    """Sum an array with a fixed pairwise (tree) reduction order.

    numpy's contiguous-axis reduction is pairwise with a fixed block size,
    so for a C-contiguous float64 array the result is a pure function of the
    values: independent of thread count and repeatable across runs.  All
    accumulation helpers in this package funnel through here.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return float(np.sum(arr))


def weighted_gram_total(gram: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """Return sum_{i,j} left[i] * gram[i, j] * right[j] in a fixed order."""
    scaled = (left[:, None] * gram) * right[None, :]
    return pairwise_sum(scaled)


def combine_partials(partials) -> float:
    """Combine per-block partial sums; fixed order regardless of scheduling."""
    return pairwise_sum(np.asarray(partials, dtype=np.float64))


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map ``fn`` over ``items`` preserving order.

    With ``threads > 1`` the work runs on a thread pool; results are
    collected by position so output does not depend on completion order.
    Each task must be internally deterministic (they all are here: the
    per-item arithmetic never splits a reduction across threads).
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))
