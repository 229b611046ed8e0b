"""Deterministic reduction and parallel-map helpers.

Every sum that feeds a reported number goes through :func:`pairwise_sum`
so that serial and worker-process runs produce bit-identical output.

:func:`parallel_map` is the one way the package uses more than one CPU.
The Monte Carlo experiments map whole replications over it, and the
bandwidth sweep and bandwidth grid evaluation of
:mod:`~pcoselect.estimator` map their fixed row or column blocks over it
once their work is large, on up to the usable CPUs, so the sched
affinity (``taskset``) bounds them.  A map started inside a mapped item,
in a forked worker or in the serial loop, runs serially: a report with
``threads=N`` keeps at most N processes busy.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading

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


def mean_se(values) -> tuple[float, float]:
    """Mean and standard error of the mean, both reduced by :func:`pairwise_sum`.

    The standard error uses the unbiased variance; one value has error 0.
    """
    values = np.asarray(values, dtype=np.float64)
    r = values.size
    mean = pairwise_sum(values) / r
    if r < 2:
        return mean, 0.0
    var = pairwise_sum((values - mean) ** 2) / (r - 1)
    return mean, math.sqrt(var / r)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Item indices travel through a pipe that every process reads, one 4-byte
# record per read.  Reads of at most PIPE_BUF bytes are atomic, so each
# record goes to exactly one process, and 1024 records fit the smallest
# pipe buffer Linux gives (one page), so writing them all before any
# process reads never blocks.  Longer maps put a chunk of consecutive
# items behind each record.
_RECORD = 4
_MAX_RECORDS = 1024


def _take(queue: int, chunk: int, count: int):
    """The indices of the items behind the records this process reads
    from ``queue``, until the queue is empty."""
    while record := os.read(queue, _RECORD):
        start = int.from_bytes(record, "little")
        yield from range(start, min(start + chunk, count))


def _portable(exc: BaseException) -> BaseException:
    """``exc``, or a RuntimeError carrying its type and message when it
    does not survive pickling, so that a failure reads the same whichever
    process met it."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _consume(fn, items: list, queue: int, chunk: int):
    """Map ``fn`` over the items this process takes from ``queue``.

    Returns ``([(index, result), ...], failure)``, where ``failure`` is
    None or ``(index, exception)`` for the first item that raised, the
    exception made :func:`_portable`.  After a failure the process empties
    the queue without computing, so every process stops after its current
    item.
    """
    done = []
    for i in _take(queue, chunk, len(items)):
        try:
            done.append((i, fn(items[i])))
        except Exception as exc:  # noqa: BLE001 - the caller raises the lowest failure
            for _ in _take(queue, chunk, len(items)):
                pass
            return done, (i, _portable(exc))
    return done, None


def _run_worker(fn, items: list, queue: int, chunk: int, fd: int, inherited):
    """Body of a forked worker: consume the queue, pickle the outcome to ``fd``, exit.

    ``inherited`` are the parent's read ends of the result pipes, closed
    first.  Results that do not pickle travel as the pickling error.
    ``os._exit`` skips atexit handlers and the stdio buffers inherited from
    the parent, so nothing is run or printed twice, and the worker never
    returns into the caller's code.
    """
    status = 1
    try:
        for other in inherited:
            os.close(other)
        try:
            done, failure = _consume(fn, items, queue, chunk)
        except BaseException as exc:  # noqa: BLE001 - an interrupt also goes to the parent
            done, failure = [], (len(items), _portable(exc))
        try:
            payload = pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001
            payload = pickle.dumps(([], (len(items), _portable(exc))), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


# ``depth``: the maps this thread is running.  A forked worker inherits the
# count of the thread that forked it, so every map it starts runs serially.
# Per thread, so that no update is lost and no lock can be held at a fork.
_maps = threading.local()


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map ``fn`` over ``items`` preserving order, on forked worker processes.

    ``workers = min(threads, len(items), usable CPUs)``.  With one worker,
    where ``os.fork`` does not exist, or when called while another map of
    this thread is running (in the serial loop or in a forked worker), the
    map runs serially here.  Otherwise workers 1, ..., workers - 1 are
    forked from this process, and every process, this one included, takes
    the next item from a shared queue whenever it finishes one, so a
    process that is slowed down takes fewer items instead of holding up
    the map.  A forked worker inherits ``fn`` and everything ``fn`` closes
    over, so nothing is pickled or imported on the way in, and it pickles
    its results back through its own pipe.  Results are put back by
    position, so the output does not depend on scheduling; each call of
    ``fn`` must be a pure function of its item.

    When items raise, the exception of the lowest-indexed one is raised
    here with its type and message, as a serial map would (one that does
    not survive pickling as a RuntimeError naming both): a process stops
    at its first failure and empties the queue, and every item before a
    failure has been taken, so that item is always computed.  A worker
    that dies without sending a result raises RuntimeError with its exit
    status.  Every worker is reaped before this returns or raises; on an
    early exit (an interrupt, or a worker's death) the remaining ones are
    killed first.  Fork copies only the calling thread, so call this while
    no other thread holds a lock that ``fn`` needs.
    """
    items = list(items)
    depth = getattr(_maps, "depth", 0)
    workers = min(int(threads), len(items), usable_cpus())
    _maps.depth = depth + 1
    try:
        if workers <= 1 or depth or not hasattr(os, "fork"):
            return [fn(item) for item in items]
        return _forked_map(fn, items, workers)
    finally:
        _maps.depth = depth


def _forked_map(fn, items: list, workers: int) -> list:
    """The forked branch of :func:`parallel_map`, ``workers >= 2``."""
    chunk = -(-len(items) // _MAX_RECORDS)
    queue, feed = os.pipe()
    try:
        os.write(feed, b"".join(start.to_bytes(_RECORD, "little") for start in range(0, len(items), chunk)))
    finally:
        os.close(feed)
    reads, pids = [None], [None]  # per worker; None once read / reaped, and for this process
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_worker(fn, items, queue, chunk, write, reads[1:])
            finally:
                os.close(write)
            pids.append(pid)
        outcomes = [_consume(fn, items, queue, chunk)]
        for w in range(1, workers):
            with os.fdopen(reads[w], "rb") as pipe:
                reads[w] = None
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
            pids[w] = None
            if status != 0:
                raise RuntimeError(f"parallel_map worker {w} of {workers} exited without a result (exit status {status})")
            outcomes.append(pickle.loads(payload))
    finally:
        os.close(queue)
        for fd in reads:
            if fd is not None:
                os.close(fd)
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for done, _ in outcomes:
        for i, result in done:
            results[i] = result
    return results
