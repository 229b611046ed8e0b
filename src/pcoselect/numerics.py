"""Deterministic reduction and the worker pool.

Every sum that feeds a reported number goes through :func:`pairwise_sum`
so that serial and worker-process runs produce bit-identical output.

The package uses more than one CPU through one mechanism,
:func:`pooled_map`.  It keeps a pool of forked workers for the life of
the process, forked by the first map that needs them.  The Monte Carlo
experiments of :mod:`~pcoselect.experiments` map whole replications over
it, capped at their ``threads``; the bandwidth sweep and bandwidth grid
evaluation of :mod:`~pcoselect.estimator` map their fixed row or column
blocks over it once their work is large.  A map uses at most the usable
CPUs, so the sched affinity (``taskset``) bounds it.  A map started
inside a mapped item, in a worker or in the serial loop, runs serially:
a report with ``threads=N`` keeps at most N processes busy.
"""

from __future__ import annotations

import atexit
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
# Index of a failure that belongs to no item: it sorts after every item.
_NO_ITEM = math.inf


def _records(count: int) -> tuple[bytes, int]:
    """The queue records of a map of ``count`` items, and the items per record."""
    chunk = -(-count // _MAX_RECORDS)
    return b"".join(start.to_bytes(_RECORD, "little") for start in range(0, count, chunk)), chunk


def _take(queue: int, chunk: int, count: int):
    """The indices of the items behind the records this process reads
    from the non-blocking ``queue``, until it has nothing left (or is at
    end of file, once the pool's owner has exited)."""
    while True:
        try:
            record = os.read(queue, _RECORD)
        except BlockingIOError:
            return
        if not record:
            return
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


def _pickled(outcome) -> bytes:
    """A worker's outcome as bytes; results that do not pickle travel as
    the pickling error."""
    try:
        return pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001
        return pickle.dumps(([], (_NO_ITEM, _portable(exc))), pickle.HIGHEST_PROTOCOL)


def _merge(outcomes, count: int) -> list:
    """The results of every process's outcome put back by index, or the
    exception of the lowest-indexed failure raised."""
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * count
    for done, _ in outcomes:
        for i, result in done:
            results[i] = result
    return results


# ---------------------------------------------------------------------------
# The pool: forked once, kept for the life of the process.
#
# Worker w has a task pipe (written here) and a result pipe (read here);
# every message on them is an 8-byte length and a pickle.  All processes
# read item records from one queue pipe whose read end is non-blocking, so
# an empty queue reads as the end of a map while its write end stays open
# here.  A map that completes leaves the queue empty: every process stops
# only at an empty queue, and this process waits for every used worker's
# result.  Any other end of a map kills the pool instead.

_HEADER = 8


class _Pool:
    """This process's pool workers and their queue."""

    def __init__(self):
        self.queue, self.feed = os.pipe()
        os.set_blocking(self.queue, False)
        self.workers = []  # (pid, task pipe write end, result pipe read end)

    def descriptors(self) -> list:
        return [self.queue, self.feed] + [fd for _, tasks, results in self.workers for fd in (tasks, results)]


_pool: _Pool | None = None
# ``depth``: the maps this thread is running; every map started while it is
# nonzero runs serially.  A pool worker sets it for its whole life.  Per
# thread, so that no update is lost and no lock can be held at a fork.
_maps = threading.local()
# Held by the thread whose map uses the pool; a map of another thread that
# finds it held runs serially.
_pool_lock = threading.Lock()


def _send(fd: int, payload: bytes):
    view = memoryview(len(payload).to_bytes(_HEADER, "little") + payload)
    while view:
        view = view[os.write(fd, view) :]


def _read_exactly(fd: int, size: int) -> bytes | None:
    parts = []
    while size:
        part = os.read(fd, min(size, 1 << 20))
        if not part:
            return None
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _receive(fd: int) -> bytes | None:
    """The next message on ``fd``, or None at end of file."""
    header = _read_exactly(fd, _HEADER)
    return None if header is None else _read_exactly(fd, int.from_bytes(header, "little"))


def _serve(tasks: int, results: int, queue: int):
    """Body of a pool worker: run each map sent on ``tasks`` until end of file, then exit.

    A map is ``(build, args, items, chunk)``.  The worker builds
    ``fn = build(*args)`` once, which allocates its scratch, takes items
    from ``queue`` and sends its outcome on ``results``.  It ignores SIGINT,
    which a terminal also sends to it: the pool's owner handles the
    interrupt and kills the pool.  A dead owner closes ``tasks``, and a
    result that finds ``results`` closed ends the worker too.  It leaves by
    ``os._exit``, which skips the atexit handlers and the stdio buffers it
    inherited, so nothing of the owner's is run or printed twice.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        _maps.depth = 1
        while (task := _receive(tasks)) is not None:
            try:
                build, args, items, chunk = pickle.loads(task)
                outcome = _consume(build(*args), items, queue, chunk)
            except Exception as exc:  # noqa: BLE001 - the owner raises it
                outcome = [], (_NO_ITEM, _portable(exc))
            _send(results, _pickled(outcome))
        status = 0
    finally:
        os._exit(status)


def _spawn(pool: _Pool):
    """Fork one more worker into ``pool``."""
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    queue = os.dup(pool.queue)  # the worker's own: the fork hook closes the pool's
    try:
        pid = os.fork()
        if pid == 0:
            os.close(task_write)
            os.close(result_read)
            _serve(task_read, result_write, queue)
    except BaseException:
        for fd in (task_write, result_read):
            os.close(fd)
        raise
    finally:
        for fd in (task_read, result_write, queue):
            os.close(fd)
    pool.workers.append((pid, task_write, result_read))


def _reaped(pool: _Pool, w: int, used: int) -> RuntimeError:
    """Reap worker ``w``, whose pipes have closed, and name its exit status."""
    pid, tasks, results = pool.workers.pop(w - 1)
    os.close(tasks)
    os.close(results)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return RuntimeError(f"pooled_map worker {w} of {used} exited without a result (exit status {status})")


def _close_pool():
    """Kill and reap this process's pool workers; the next pooled map
    forks new ones.  Registered with :mod:`atexit`."""
    global _pool
    pool, _pool = _pool, None
    if pool is None:
        return
    for fd in pool.descriptors():
        os.close(fd)
    for pid, _, _ in pool.workers:
        os.kill(pid, signal.SIGKILL)
    for pid, _, _ in pool.workers:
        os.waitpid(pid, 0)


def _forget_pool():
    """In a forked child: drop the parent's pool, whose workers are not its
    children, and close the pipes that would keep them alive."""
    global _pool, _pool_lock
    pool, _pool = _pool, None
    _pool_lock = threading.Lock()
    if pool is not None:
        for fd in pool.descriptors():
            os.close(fd)


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def pooled_map(build, args: tuple, items, workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` with ``fn = build(*args)``, on the pool.

    ``build`` is a module-level function and ``args`` pickle: every map
    sends both to each worker it uses, which calls ``build`` once (to
    allocate its scratch, say) and then takes items from a shared queue
    whenever it finishes one, as this process does, so a process that is
    slowed down takes fewer items.  The map keeps
    ``min(workers, len(items), usable CPUs)`` processes busy, this one
    included (``workers`` defaults to the usable CPUs).  Its workers are
    forked by the first map that needs them and kept for the life of the
    process, so a map costs a few pipe messages instead of a fork.
    Results are put back by position, so each call of ``fn`` must be a
    pure function of its item and ``build``'s arguments; the output is
    then the same at any worker count.  The map runs serially here when it
    would keep one process busy, where ``os.fork`` does not exist, inside
    another map of this thread (a report replication, say), or while
    another thread's map holds the pool; maps started inside a serial
    map's items run serially too.

    When items raise, the exception of the lowest-indexed one is raised
    here with its type and message, as a serial map would (one that does
    not survive pickling as a RuntimeError naming both): a process stops
    at its first failure and empties the queue, and every item before a
    failure has been taken, so that item is always computed.  A worker
    that dies raises a RuntimeError with its exit status.  Any failure,
    and an interrupt, kills and reaps the pool, so the next map forks a
    fresh one.  The workers exit at end of file on their task pipe, so
    they end with this process even when it is killed; at a normal exit
    an :mod:`atexit` hook kills and reaps them, and a forked child never
    uses its parent's pool.  A worker keeps the modules loaded when it was
    forked, so a module that an item imports for the first time is
    imported once in each worker.
    """
    items = list(items)
    cpus = usable_cpus()
    used = min(cpus if workers is None else int(workers), len(items), cpus) - 1
    depth = getattr(_maps, "depth", 0)
    if used < 1 or depth or not hasattr(os, "fork") or not _pool_lock.acquire(blocking=False):
        _maps.depth = depth + 1
        try:
            fn = build(*args)
            return [fn(item) for item in items]
        finally:
            _maps.depth = depth
    lock = _pool_lock
    _maps.depth = 1
    try:
        return _pooled(build, args, items, used)
    except BaseException:
        _close_pool()
        raise
    finally:
        _maps.depth = 0
        lock.release()


def _pooled(build, args: tuple, items: list, used: int) -> list:
    """The pooled branch of :func:`pooled_map`, ``used >= 1`` workers."""
    global _pool
    if _pool is None:
        _pool = _Pool()
    pool = _pool
    while len(pool.workers) < used:
        _spawn(pool)
    records, chunk = _records(len(items))
    os.write(pool.feed, records)
    task = pickle.dumps((build, args, items, chunk), pickle.HIGHEST_PROTOCOL)
    for w, (_, tasks, _) in enumerate(pool.workers[:used], 1):
        try:
            _send(tasks, task)
        except BrokenPipeError:
            raise _reaped(pool, w, used) from None
    outcomes = [_consume(build(*args), items, pool.queue, chunk)]
    for w, (_, _, results) in enumerate(pool.workers[:used], 1):
        payload = _receive(results)
        if payload is None:
            raise _reaped(pool, w, used)
        outcomes.append(pickle.loads(payload))
    return _merge(outcomes, len(items))


def _same(fn):
    return fn


def parallel_map(fn, items, threads: int = 1) -> list:
    """:func:`pooled_map` of a picklable ``fn`` over ``items`` on ``threads``
    processes.  No module of the package calls it; it is kept for callers
    that wrap it by name, until they trace :func:`pooled_map` instead."""
    return pooled_map(_same, (fn,), items, workers=threads)
