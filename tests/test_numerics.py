import functools
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
from pcoselect.numerics import mean_se, pairwise_sum, pooled_map, weighted_gram_total


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
    # block partials that cancel, combined as bandwidth_totals combines them
    parts = [1e10, -1e10, 1e-3, 2e-3]
    assert_allclose(pairwise_sum(parts), math.fsum(parts), rtol=1e-15)


# ---------------------------------------------------------------------------
# pooled_map: workers forked once and kept.  usable_cpus is patched up so
# that the workers are forked on a machine with fewer CPUs too, and each
# test starts without a pool (conftest.py closes it after every test).
# A map sends its builder by name, so every builder is a module-level
# function.


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)


@pytest.fixture
def alarm():
    """Fail a test that blocks for a minute instead of letting it hang."""

    def expired(signum, frame):
        raise TimeoutError("pooled_map blocked for 60 s")

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


@pytest.fixture
def spawns(monkeypatch):
    """The pids of the pool workers forked during the test, in order."""
    pids = []
    real_spawn = numerics._spawn

    def counting_spawn(pool):
        real_spawn(pool)
        pids.append(pool.workers[-1][0])

    monkeypatch.setattr(numerics, "_spawn", counting_spawn)
    return pids


def _squares():
    return lambda i: (i * i, np.arange(i, dtype=np.float64))


def _with_pid(delay_in):
    """Items as ``(item, pid)``; a process whose pid is ``delay_in`` sleeps first."""

    def fn(i):
        if os.getpid() == delay_in:
            time.sleep(0.1)
        return i, os.getpid()

    return fn


def _failing_at(bad, delay):
    def fn(i):
        if i in bad:
            time.sleep(delay)  # meanwhile other processes take the later failing items
            raise ValueError(f"item {i}")
        return i

    return fn


def _raising_local_error():
    class LocalError(Exception):  # defined in a function: pickle cannot find it by name
        pass

    def fn(i):
        if i == 1:
            raise LocalError("no way back")
        return i

    return fn


def test_pooled_map_preserves_order(four_cpus, alarm):
    items = list(range(23))
    for workers in (None, 1, 2, 3, 4, 64):
        out = pooled_map(_squares, (), items, workers)
        assert [v for v, _ in out] == [i * i for i in items]
        assert all(arr.tobytes() == np.arange(i, dtype=np.float64).tobytes() for i, (_, arr) in enumerate(out))
    assert pooled_map(_doubling, (0,), [], 4) == []
    # more items than queue records: each record stands for a chunk of items
    many = range(2 * numerics._MAX_RECORDS + 3)
    assert pooled_map(_doubling, (1,), many, 4) == [2 * i + 1 for i in many]
    assert pooled_map(_doubling, (1,), range(2000), 4) == [2 * i + 1 for i in range(2000)]


def test_pooled_map_uses_at_most_its_worker_cap(four_cpus, alarm, spawns):
    parent = os.getpid()
    out = pooled_map(_with_pid, (parent,), range(40), workers=2)
    assert [i for i, _ in out] == list(range(40))
    assert len({pid for _, pid in out}) <= 2 and len(spawns) == 1
    # one process busy: nothing is forked, and the pool stays as it is
    assert pooled_map(_doubling, (0,), range(10), workers=1) == [2 * i for i in range(10)]
    assert len(spawns) == 1
    # no more processes than usable CPUs, whatever the cap
    assert pooled_map(_doubling, (0,), range(10), workers=64) == [2 * i for i in range(10)]
    assert len(spawns) == 3 and spawns == [pid for pid, _, _ in numerics._pool.workers]


def test_parallel_map_is_a_pooled_map_of_a_picklable_function(four_cpus, alarm, spawns):
    assert numerics.parallel_map(abs, range(-5, 5), 2) == [abs(i) for i in range(-5, 5)]
    assert len(spawns) == 1


# parallel_map sends its function to the pool workers, so the item
# functions below are module level and take their state as partial
# arguments.


def _bad_six(i):
    if i == 6:
        raise ValueError(f"item {i} is bad")
    return i


def _failing_item(bad, delay, i):
    return _failing_at(bad, delay)(i)


def test_parallel_map_reraises_a_worker_exception(four_cpus, alarm):
    with pytest.raises(ValueError, match="^item 6 is bad$"):
        numerics.parallel_map(_bad_six, range(8), threads=3)
    _assert_no_child_left()


def test_parallel_map_raises_the_lowest_failing_item(four_cpus, alarm):
    fn = functools.partial(_failing_item, (3, 5, 6), 0.05)
    for threads in (1, 2, 4):
        for _ in range(5):
            with pytest.raises(ValueError, match="^item 3$"):
                numerics.parallel_map(fn, range(8), threads)
    _assert_no_child_left()


# The os.fork calls of the process that holds this list; a test patches
# os.fork to append to it.
_forks = []


def _forks_in_a_nested_map(i):
    before = len(_forks)
    inner = numerics.parallel_map(functools.partial(_affine, 10 * i), range(6), 4)
    return inner, len(_forks) - before


def _affine(offset, j):
    return offset + j


@pytest.mark.parametrize("outer_threads", [1, 4])
def test_parallel_map_nested_in_a_mapped_item_never_forks(monkeypatch, four_cpus, alarm, outer_threads):
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setitem(globals(), "_forks", calls)
    out = numerics.parallel_map(_forks_in_a_nested_map, range(8), outer_threads)
    assert [inner for inner, _ in out] == [[10 * i + j for j in range(6)] for i in range(8)]
    assert [nested for _, nested in out] == [0] * 8
    assert len(calls) == (3 if outer_threads == 4 else 0)
    # once the outer map is done, a map uses the pool again: it forks the
    # workers the serial outer map did not, and keeps the ones it did
    assert numerics.parallel_map(abs, range(6), 4) == list(range(6))
    assert len(calls) == 3


def _parent_raises_while_workers_compute(rendezvous, i):
    if rendezvous.in_parent():
        rendezvous.wait_for_a_child()
        raise KeyError(f"item {i} in the parent")
    rendezvous.child_started()
    time.sleep(1)  # the workers are still busy when the parent fails
    return i


def test_parallel_map_own_share_raising_reaps_every_child(four_cpus, alarm, rendezvous):
    fn = functools.partial(_parent_raises_while_workers_compute, rendezvous)
    start = time.perf_counter()
    with pytest.raises(KeyError, match="in the parent"):
        numerics.parallel_map(fn, range(40), threads=4)
    # the parent empties the queue, so each worker stops after its current
    # item instead of working through 13 seconds of them
    assert time.perf_counter() - start < 8
    assert numerics._pool is None
    _assert_no_child_left()


# How a worker dies; a test sets it before the pool is forked.
_death = None


def _dying_in_a_worker(rendezvous, i):
    if rendezvous.in_parent():
        rendezvous.wait_for_a_child()
        return i
    rendezvous.child_started()
    _death()


@pytest.mark.parametrize("death,status", [(lambda: os.kill(os.getpid(), signal.SIGKILL), -9), (lambda: os._exit(7), 7)])
def test_parallel_map_worker_death_raises_runtime_error(monkeypatch, four_cpus, alarm, rendezvous, death, status):
    monkeypatch.setitem(globals(), "_death", death)
    with pytest.raises(RuntimeError, match=rf"exited without a result \(exit status {status}\)"):
        numerics.parallel_map(functools.partial(_dying_in_a_worker, rendezvous), range(6), threads=3)
    assert numerics._pool is None
    _assert_no_child_left()


def _sweeping(n):
    """Items run a Gaussian sweep of ``n`` points, above the pooled threshold."""
    from pcoselect import GAUSSIAN, BandwidthSpec
    from pcoselect import estimator

    rng = np.random.default_rng(11)
    x, ell = rng.random((n, 1)), rng.standard_normal(n)
    # narrow enough to stay in the sweep: a wider d = 1 pair takes the moment series
    pairs = [(BandwidthSpec(GAUSSIAN, (0.005,)), BandwidthSpec(GAUSSIAN, (0.02,)))]
    assert estimator._series_plan(pairs, x) == [None]
    assert n * (n - 1) // 2 * len(pairs) >= estimator._FORK_WORK
    consts = [estimator._bandwidth_diag_value(*pair) for pair in pairs]
    return lambda i: estimator.bandwidth_totals(pairs, x, ell, consts)


def test_pooled_map_with_one_worker_forks_nothing_and_nests_serially(four_cpus, alarm, spawns):
    out = pooled_map(_sweeping, (1500,), range(2), workers=1)
    assert out[0] == out[1]
    assert spawns == [] and numerics._pool is None
    # the same sweep outside a map takes the pool, with the same bits
    assert _sweeping(1500)(0) == out[0]
    assert len(spawns) == 3


def test_oracle_experiment_forks_its_worker_once(four_cpus, alarm, spawns):
    from pcoselect import GAUSSIAN, LossKind, make_bandwidth_family, scenario_from_config
    from pcoselect.experiments import oracle_experiment

    scn = scenario_from_config({"d": 1, "f": "triangle", "n": 100, "replications": 4})
    fam = make_bandwidth_family(GAUSSIAN, 0.05, [0.05, 0.1, 0.3], 1, 100)
    serial = oracle_experiment(fam, scn, LossKind.ONE, threads=1).to_json()
    assert spawns == []
    for _ in range(2):
        assert oracle_experiment(fam, scn, LossKind.ONE, threads=2).to_json() == serial
    assert len(spawns) == 1


def test_pooled_map_unpicklable_exception_keeps_type_and_message(four_cpus, alarm):
    with pytest.raises(RuntimeError, match="LocalError: no way back"):
        pooled_map(_raising_local_error, (), range(4), workers=2)
    _assert_no_child_left()


def test_pooled_map_raises_the_lowest_failing_item(four_cpus, alarm):
    for workers in (1, 2, 4):
        for _ in range(5):
            with pytest.raises(ValueError, match="^item 3$"):
                pooled_map(_failing_at, ((3, 5, 6), 0.05), range(8), workers)
    _assert_no_child_left()


def test_pooled_map_slowed_process_takes_fewer_items(four_cpus, alarm):
    parent = os.getpid()
    out = pooled_map(_with_pid, (parent,), range(40), workers=2)
    assert [i for i, _ in out] == list(range(40))
    # a fixed split would give this process 20 of the 40 items
    assert sum(pid == parent for _, pid in out) <= 10


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
        estimator.bandwidth_totals(pairs, x, ell, [estimator._bandwidth_diag_value(*pairs[0])])
    _assert_no_child_left()


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(pcoselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered on its pipe
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)


def test_pooled_map_prints_buffered_parent_stdout_once():
    # stdout is a pipe here, so the first line is still in the buffer at fork
    code = (
        "import sys\n"
        "sys.stdout.write('before the fork\\n')\n"
        "from pcoselect import numerics\n"
        "numerics.usable_cpus = lambda: 4\n"
        "def tens():\n"
        "    return lambda i: 10 * i\n"
        "print(numerics.pooled_map(tens, (), range(5), 4))\n"
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
        "def measured(build, *args):\n"
        "    fn = build(*args)\n"
        "    def wrapped(item):\n"
        "        before = set(sys.modules)\n"
        "        result = fn(item)\n"
        "        return result, sorted(set(sys.modules) - before)\n"
        "    return wrapped\n"
        "def spy(build, args, items, workers=None):\n"
        "    out = numerics.pooled_map(measured, (build, *args), items, workers)\n"
        "    added.extend(new for _, new in out)\n"
        "    return [result for result, _ in out]\n"
        "experiments.pooled_map = spy\n"
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
# pooled_map under a bandwidth sweep: the pool is kept between maps, and a
# failure or a dead worker kills it.


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
    consts = [estimator._bandwidth_diag_value(*pair) for pair in pairs]
    with monkeypatch.context() as serial_path:
        serial_path.setattr(numerics, "usable_cpus", lambda: 1)
        serial = estimator.bandwidth_totals(pairs, x, ell, consts)
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)
    monkeypatch.setattr(estimator, "_FORK_WORK", 0)
    return lambda: estimator.bandwidth_totals(pairs, x, ell, consts), serial


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


def _nesting(parent):
    """Items run a pooled map themselves and say where they ran."""

    def item(i):
        inner = pooled_map(_in_worker, (os.getpid(),), range(6))
        return os.getpid() != parent, numerics._pool is None, inner

    return item


@pytest.mark.parametrize("outer_threads", [1, 4])
def test_pooled_map_in_a_mapped_item_runs_serially(four_cpus, alarm, spawns, outer_threads):
    assert pooled_map(_doubling, (0,), range(8)) == [2 * i for i in range(8)]
    pids = _pool_pids()
    parent = os.getpid()
    for in_worker, dropped, inner in pooled_map(_nesting, (parent,), range(8), outer_threads):
        # a worker has dropped its parent's pool; every item maps serially
        assert dropped == in_worker
        assert inner == [(j, False, dropped) for j in range(6)]
    assert _pool_pids() == pids == spawns
    # outside a mapped item, workers take items again: the caller's items are
    # slow, so it cannot empty the queue before a worker wakes up
    assert any(pid != parent for _, pid in pooled_map(_with_pid, (parent,), range(40)))


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
