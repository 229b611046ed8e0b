"""Deterministic reduction and parallel-map helpers.

Every sum that feeds a reported number goes through :func:`pairwise_sum`
so that serial and worker-process runs produce bit-identical output.
"""

from __future__ import annotations

import os
import pickle
import signal

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


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_worker(fn, items, fd: int, inherited):
    """Body of a forked worker: map ``fn``, pickle the outcome to ``fd``, exit.

    ``inherited`` are the parent's read ends of the pipes, closed first.
    The outcome is ``(True, results)`` or ``(False, exception)``; an
    exception that does not survive pickling travels as a RuntimeError
    carrying its type and message.  ``os._exit`` skips atexit handlers and
    the stdio buffers inherited from the parent, so nothing is run or
    printed twice, and the worker never returns into the caller's code.
    """
    status = 1
    try:
        for other in inherited:
            os.close(other)
        try:
            payload = pickle.dumps((True, [fn(item) for item in items]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - every failure goes to the parent
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)
            except Exception:  # noqa: BLE001
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(fd, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map ``fn`` over ``items`` preserving order, on forked worker processes.

    ``workers = min(threads, len(items), usable CPUs)``.  With one worker,
    or where ``os.fork`` does not exist, the map runs serially here.
    Otherwise worker w is forked from this process and computes
    ``items[w::workers]``.  It inherits ``fn`` and everything ``fn``
    closes over, so nothing is pickled or imported on the way in, and it
    pickles its result list back through its own pipe.  Results are put
    back by position, so the output does not depend on scheduling; each
    call of ``fn`` must be a pure function of its item.

    An exception raised in a worker is raised here with its type and
    message.  A worker that dies without sending a result raises
    RuntimeError with its exit status.  Every worker is reaped before this
    returns or raises; on an early exit the remaining ones are killed
    first.  Fork copies only the calling thread, so call this while no
    other thread holds a lock that ``fn`` needs.
    """
    items = list(items)
    workers = min(int(threads), len(items), usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    reads, pids = [], []  # per worker; None once read / reaped
    try:
        for w in range(workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_worker(fn, items[w::workers], write, reads)
            finally:
                os.close(write)
            pids.append(pid)
        outcomes = []
        for w in range(workers):
            with os.fdopen(reads[w], "rb") as pipe:
                reads[w] = None
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
            pids[w] = None
            if status != 0:
                raise RuntimeError(f"parallel_map worker {w} of {workers} exited without a result (exit status {status})")
            outcomes.append(pickle.loads(payload))
    finally:
        for fd in reads:
            if fd is not None:
                os.close(fd)
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = [None] * len(items)
    for w, (ok, value) in enumerate(outcomes):
        if not ok:
            raise value
        results[w::workers] = value
    return results
