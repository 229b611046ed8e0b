import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pcoselect
from pcoselect import numerics
from pcoselect.numerics import combine_partials, mean_se, pairwise_sum, parallel_map, weighted_gram_total


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(42)
    values = rng.standard_normal(10_001) * 1e6
    assert_allclose(pairwise_sum(values), math.fsum(values), rtol=1e-12)


def test_pairwise_sum_is_order_stable():
    # same contiguous array summed twice gives the same bits
    rng = np.random.default_rng(7)
    values = rng.standard_normal(4097)
    assert pairwise_sum(values) == pairwise_sum(values.copy())


def test_pairwise_sum_empty_and_scalar():
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([3.5])) == 3.5


def test_weighted_gram_total_oracle():
    rng = np.random.default_rng(3)
    left, right = rng.standard_normal(40), rng.standard_normal(50)
    gram = rng.standard_normal((40, 50))
    want = float(left @ gram @ right)
    assert_allclose(weighted_gram_total(gram, left, right), want, rtol=1e-12)


def test_mean_se_is_the_mean_and_its_standard_error():
    values = np.array([1.0, 2.0, 4.0, 7.0])
    mean, se = mean_se(values)
    assert mean == 3.5
    assert_allclose(se, math.sqrt(np.var(values, ddof=1) / 4), rtol=1e-15)
    assert mean_se([2.5]) == (2.5, 0.0)


def test_combine_partials_matches_direct():
    parts = [1e10, -1e10, 1e-3, 2e-3]
    assert_allclose(combine_partials(parts), math.fsum(parts), rtol=1e-15)


# ---------------------------------------------------------------------------
# parallel_map on forked workers.  usable_cpus is patched up so that the
# workers are forked on a machine with fewer CPUs too.


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)


@pytest.fixture
def alarm():
    """Fail a test that blocks for a minute instead of letting it hang."""

    def expired(signum, frame):
        raise TimeoutError("parallel_map blocked for 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Rendezvous:
    """Lets the mapping process wait until a forked worker has started an
    item, so that a test sees workers compute however the items are
    scheduled."""

    def __init__(self):
        self.parent = os.getpid()
        self.read, self.write = os.pipe()
        self.waited = False

    def in_parent(self) -> bool:
        return os.getpid() == self.parent

    def child_started(self):
        os.write(self.write, b"x")

    def wait_for_a_child(self):
        if not self.waited:
            os.read(self.read, 1)
            self.waited = True


@pytest.fixture
def rendezvous():
    meeting = _Rendezvous()
    yield meeting
    os.close(meeting.read)
    os.close(meeting.write)


def test_parallel_map_preserves_order(four_cpus, alarm):
    items = list(range(23))
    for threads in (1, 2, 3, 4, 64):
        out = parallel_map(lambda i: (i * i, np.arange(i, dtype=np.float64)), items, threads)
        assert [v for v, _ in out] == [i * i for i in items]
        assert all(arr.tobytes() == np.arange(i, dtype=np.float64).tobytes() for i, (_, arr) in enumerate(out))
    assert parallel_map(lambda i: i, [], 4) == []
    # more items than queue records: each record stands for a chunk of items
    many = range(2 * numerics._MAX_RECORDS + 3)
    assert parallel_map(lambda i: -i, many, 4) == [-i for i in many]
    _assert_no_child_left()


def test_parallel_map_forks_at_most_the_usable_cpus(monkeypatch, alarm):
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 2)
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    assert parallel_map(lambda i: -i, range(10), threads=64) == [-i for i in range(10)]
    # this process takes items itself
    assert len(forks) == 1
    assert parallel_map(lambda i: -i, range(10), threads=1) == [-i for i in range(10)]
    assert len(forks) == 1
    _assert_no_child_left()


def test_parallel_map_reraises_a_worker_exception(four_cpus, alarm):
    def fn(i):
        if i == 6:
            raise ValueError(f"item {i} is bad")
        return i

    with pytest.raises(ValueError, match="^item 6 is bad$"):
        parallel_map(fn, range(8), threads=3)
    _assert_no_child_left()


def test_parallel_map_unpicklable_exception_keeps_type_and_message(four_cpus, alarm):
    class LocalError(Exception):  # defined in a function: pickle cannot find it by name
        pass

    def fn(i):
        if i == 1:
            raise LocalError("no way back")
        return i

    with pytest.raises(RuntimeError, match="LocalError: no way back"):
        parallel_map(fn, range(4), threads=2)
    _assert_no_child_left()


def test_parallel_map_raises_the_lowest_failing_item(four_cpus, alarm):
    def fn(i):
        if i in (3, 5, 6):
            time.sleep(0.05)  # meanwhile other processes take the later failing items
            raise ValueError(f"item {i}")
        return i

    for threads in (1, 2, 4):
        for _ in range(5):
            with pytest.raises(ValueError, match="^item 3$"):
                parallel_map(fn, range(8), threads)
    _assert_no_child_left()


def test_parallel_map_slowed_process_takes_fewer_items(four_cpus, alarm):
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent:
            time.sleep(0.1)
        return i, os.getpid()

    out = parallel_map(fn, range(40), threads=2)
    assert [i for i, _ in out] == list(range(40))
    # a fixed split would give this process 20 of the 40 items
    assert sum(pid == parent for _, pid in out) <= 10
    _assert_no_child_left()


@pytest.mark.parametrize("death,status", [(lambda: os.kill(os.getpid(), signal.SIGKILL), -9), (lambda: os._exit(7), 7)])
def test_parallel_map_worker_death_raises_runtime_error(four_cpus, alarm, rendezvous, death, status):
    def fn(i):
        if rendezvous.in_parent():
            rendezvous.wait_for_a_child()
            return i
        rendezvous.child_started()
        death()

    with pytest.raises(RuntimeError, match=rf"exited without a result \(exit status {status}\)"):
        parallel_map(fn, range(6), threads=3)
    _assert_no_child_left()


@pytest.mark.parametrize("outer_threads", [1, 4])
def test_parallel_map_nested_in_a_mapped_item_never_forks(monkeypatch, four_cpus, alarm, outer_threads):
    calls = []  # os.fork calls of the process that holds this list
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def fn(i):
        before = len(calls)
        inner = parallel_map(lambda j: 10 * i + j, range(6), 4)
        return inner, len(calls) - before

    out = parallel_map(fn, range(8), outer_threads)
    assert [inner for inner, _ in out] == [[10 * i + j for j in range(6)] for i in range(8)]
    assert [nested for _, nested in out] == [0] * 8
    assert len(calls) == (3 if outer_threads == 4 else 0)
    # once the outer map is done, a map forks again
    assert parallel_map(lambda j: j, range(6), 4) == list(range(6))
    assert len(calls) == (6 if outer_threads == 4 else 3)
    _assert_no_child_left()


def test_forked_sweep_block_exception_keeps_type_and_message(monkeypatch, four_cpus, alarm, rendezvous):
    from pcoselect import GAUSSIAN, BandwidthSpec
    from pcoselect import estimator

    n = 200
    rng = np.random.default_rng(5)
    x, ell = rng.random((n, 1)), rng.standard_normal(n)
    real_row_dots = estimator._row_dots

    def failing_row_dots(a, b, out):
        # every block a forked worker takes fails
        if rendezvous.in_parent():
            rendezvous.wait_for_a_child()
            real_row_dots(a, b, out)
            return
        rendezvous.child_started()
        raise ArithmeticError(f"sweep block failed in the parent: {rendezvous.in_parent()}")

    monkeypatch.setattr(estimator, "_row_dots", failing_row_dots)
    monkeypatch.setattr(estimator, "_FORK_WORK", 0)
    pairs = [(BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.3,)))]
    with pytest.raises(ArithmeticError, match="^sweep block failed in the parent: False$"):
        estimator.bandwidth_totals(pairs, x, ell)
    _assert_no_child_left()


def test_parallel_map_own_share_raising_reaps_every_child(four_cpus, alarm, rendezvous):
    def fn(i):
        if rendezvous.in_parent():
            rendezvous.wait_for_a_child()
            raise KeyError(f"item {i} in the parent")
        rendezvous.child_started()
        time.sleep(1)  # the forked workers are still busy when the parent fails
        return i

    start = time.perf_counter()
    with pytest.raises(KeyError, match="in the parent"):
        parallel_map(fn, range(40), threads=4)
    # the parent empties the queue, so each worker stops after its current
    # item instead of working through 13 seconds of them
    assert time.perf_counter() - start < 8
    _assert_no_child_left()


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(pcoselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered on its pipe
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)


def test_parallel_map_prints_buffered_parent_stdout_once():
    # stdout is a pipe here, so the first line is still in the buffer at fork
    code = (
        "import sys\n"
        "sys.stdout.write('before the fork\\n')\n"
        "from pcoselect import numerics\n"
        "numerics.usable_cpus = lambda: 4\n"
        "print(numerics.parallel_map(lambda i: 10 * i, range(5), 4))\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before the fork\n[0, 10, 20, 30, 40]\n"


def test_oracle_replication_imports_nothing_in_a_worker():
    code = (
        "import json, sys\n"
        "import pcoselect\n"
        "from pcoselect import experiments, numerics\n"
        "numerics.usable_cpus = lambda: 2\n"
        "added = []\n"
        "def spy(fn, items, threads):\n"
        "    def wrapped(item):\n"
        "        before = set(sys.modules)\n"
        "        result = fn(item)\n"
        "        return result, sorted(set(sys.modules) - before)\n"
        "    out = numerics.parallel_map(wrapped, items, threads)\n"
        "    added.extend(new for _, new in out)\n"
        "    return [result for result, _ in out]\n"
        "experiments.parallel_map = spy\n"
        "scn = pcoselect.scenario_from_config({'d': 1, 'f': 'triangle', 'b': {'kind': 'sine'},\n"
        "    'sigma': {'kind': 'constant', 'c': 0.3}, 'noise': 'gaussian', 'n': 200, 'replications': 4})\n"
        "fam = pcoselect.make_bandwidth_family(pcoselect.GAUSSIAN, 0.02, [0.02, 0.1, 0.3], 1, 200)\n"
        "experiments.oracle_experiment(fam, scn, pcoselect.LossKind.IDENTITY, threads=2)\n"
        "print(json.dumps(added))\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], [], []]


# ---------------------------------------------------------------------------
# pooled_map: block workers forked once and kept.  Each test starts without
# a pool (conftest.py closes it after every test).


def _doubling(offset):
    """A block builder: module level, so that a pooled map can send it."""
    return lambda i: 2 * i + offset


def _in_worker(parent):
    return lambda i: (i, os.getpid() != parent, numerics._pool is None)


def _proc_state(pid: int) -> str | None:
    """The state letter of process ``pid`` ('Z' for a zombie), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def _pool_pids() -> list:
    return [pid for pid, _, _ in numerics._pool.workers]


@pytest.fixture
def sweep(monkeypatch):
    """A Gaussian sweep whose blocks go to a pool of three workers: returns
    the sweep and its totals on the serial path."""
    from pcoselect import GAUSSIAN, BandwidthSpec
    from pcoselect import estimator

    rng = np.random.default_rng(9)
    x, ell = rng.random((300, 1)), rng.standard_normal(300)
    pairs = [(BandwidthSpec(GAUSSIAN, (h,)), BandwidthSpec(GAUSSIAN, (0.2,))) for h in (0.01, 0.05, 0.2)]
    with monkeypatch.context() as serial_path:
        serial_path.setattr(numerics, "usable_cpus", lambda: 1)
        serial = estimator.bandwidth_totals(pairs, x, ell)
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)
    monkeypatch.setattr(estimator, "_FORK_WORK", 0)
    return lambda: estimator.bandwidth_totals(pairs, x, ell), serial


def test_pooled_map_forks_its_workers_once(monkeypatch, sweep, alarm):
    run, serial = sweep
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    for _ in range(3):
        assert run() == serial
    assert forks == _pool_pids() and len(forks) == 3
    # a map needs at most len(items) - 1 workers, and the pool keeps the rest
    assert numerics.pooled_map(_doubling, (1,), range(2)) == [1, 3]
    assert numerics.pooled_map(_doubling, (5,), range(40)) == [2 * i + 5 for i in range(40)]
    assert numerics.pooled_map(_doubling, (0,), []) == []
    assert forks == _pool_pids() and len(forks) == 3


@pytest.mark.parametrize("outer_threads", [1, 4])
def test_pooled_map_in_a_mapped_item_runs_serially(four_cpus, alarm, outer_threads):
    assert numerics.pooled_map(_doubling, (0,), range(8)) == [2 * i for i in range(8)]
    pids = _pool_pids()
    parent = os.getpid()

    def item(i):
        inner = numerics.pooled_map(_in_worker, (os.getpid(),), range(6))
        return os.getpid() != parent, numerics._pool is None, inner

    for in_child, dropped, inner in parallel_map(item, range(8), outer_threads):
        # a forked child drops its parent's pool; every item maps serially
        assert dropped == in_child
        assert inner == [(j, False, dropped) for j in range(6)]
    assert _pool_pids() == pids
    # outside a mapped item, workers take items again
    assert any(in_worker for _, in_worker, _ in numerics.pooled_map(_in_worker, (parent,), range(400)))


@pytest.mark.parametrize("death,status", [(lambda: os.kill(os.getpid(), signal.SIGKILL), -9), (lambda: os._exit(7), 7)])
def test_pooled_map_worker_killed_mid_map_raises_its_exit_status(monkeypatch, sweep, alarm, rendezvous, death, status):
    from pcoselect import estimator

    run, serial = sweep
    real_row_dots = estimator._row_dots

    def dying_row_dots(a, b, out):
        if rendezvous.in_parent():
            rendezvous.wait_for_a_child()
            real_row_dots(a, b, out)
            return
        rendezvous.child_started()
        death()

    monkeypatch.setattr(estimator, "_row_dots", dying_row_dots)
    with pytest.raises(RuntimeError, match=rf"exited without a result \(exit status {status}\)"):
        run()
    assert numerics._pool is None
    _assert_no_child_left()
    monkeypatch.setattr(estimator, "_row_dots", real_row_dots)
    assert run() == serial


def test_pooled_map_worker_killed_while_idle_raises_its_exit_status(sweep, alarm):
    run, serial = sweep
    assert run() == serial
    victim = _pool_pids()[1]
    os.kill(victim, signal.SIGKILL)
    while _proc_state(victim) != "Z":
        time.sleep(0.001)
    with pytest.raises(RuntimeError, match=r"worker 2 of 3 exited without a result \(exit status -9\)"):
        run()
    assert numerics._pool is None
    _assert_no_child_left()
    assert run() == serial


@pytest.mark.parametrize("failure", [ValueError("block failed"), KeyboardInterrupt()])
def test_pooled_map_after_a_failed_map_returns_the_serial_bits(monkeypatch, sweep, alarm, failure):
    from pcoselect import estimator

    run, serial = sweep
    parent = os.getpid()
    real_row_dots = estimator._row_dots

    def failing_row_dots(a, b, out):
        # this process fails while the workers are still computing
        if os.getpid() == parent:
            raise failure
        time.sleep(0.02)
        real_row_dots(a, b, out)

    monkeypatch.setattr(estimator, "_row_dots", failing_row_dots)
    with pytest.raises(type(failure)):
        run()
    # the failure, or the interrupt, killed the pool, and with it the
    # results still on their way
    assert numerics._pool is None
    _assert_no_child_left()
    monkeypatch.setattr(estimator, "_row_dots", real_row_dots)
    assert run() == serial
    assert run() == serial


_POOLED_SELECT = (
    "import json, sys\n"
    "import numpy as np\n"
    "import pcoselect\n"
    "from pcoselect import estimator, numerics\n"
    "numerics.usable_cpus = lambda: 3\n"
    "estimator._FORK_WORK = 0\n"
    "rng = np.random.default_rng(3)\n"
    "sample = pcoselect.Sample(rng.random((300, 1)), rng.standard_normal(300), pcoselect.LossKind.IDENTITY)\n"
    "family = pcoselect.make_bandwidth_family(pcoselect.GAUSSIAN, 0.01, [0.01, 0.05, 0.2], 1, 300)\n"
    "pcoselect.pco_select(family, sample)\n"
    "print(json.dumps([pid for pid, _, _ in numerics._pool.workers]), flush=True)\n"
)


def test_pooled_select_leaves_no_worker_after_exit():
    proc = _run_python(_POOLED_SELECT)
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(proc.stdout)
    assert len(pids) == 2
    # reaped at exit, not only ended
    assert [_proc_state(pid) for pid in pids] == [None, None]


def test_killed_parent_leaves_no_worker_running(alarm):
    src = os.path.dirname(os.path.dirname(pcoselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", _POOLED_SELECT + "import time\ntime.sleep(300)\n"],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        pids = json.loads(proc.stdout.readline())
        assert len(pids) == 2 and all(_proc_state(pid) not in (None, "Z") for pid in pids)
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 1.0
        while any(_proc_state(pid) not in (None, "Z") for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [_proc_state(pid) in (None, "Z") for pid in pids] == [True, True]
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
