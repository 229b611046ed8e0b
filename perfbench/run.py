#!/usr/bin/env python3
"""Benchmark for pcoselect: end-to-end metrics, per-layer traces, output checks.

Run from the repository root:

  python3 perfbench/run.py --workload select-bandwidth --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seconds 15   # every workload, one process each
  python3 perfbench/run.py --smoke                       # self-test at tiny sizes
  python3 perfbench/run.py --write-reference             # rewrite reference_seed0.json

A single-workload run prints ``# `` lines (environment, thread budget,
sample counts, error rate, artifact digests) and then, as its last line,
one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones.  See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE_FILE = HERE / "reference_seed0.json"
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("select-bandwidth", "select-projection", "report-oracle", "regress-quotient")
# Operations per workload whose outputs are stored as seed-0 references;
# each is within the first two rounds, which every run completes.
REFERENCE_OPS = {"select-bandwidth": 3, "select-projection": 4, "report-oracle": 2, "regress-quotient": 2}
SETUP_REPEATS = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 900


def thread_budget(workload: str) -> dict:
    """Cap BLAS threads so pool threads x BLAS threads <= nproc.

    Must run before numpy is imported.  report-oracle runs a pool of nproc
    threads with single-threaded BLAS; the others run one thread with BLAS
    at its default, nproc.
    """
    nproc = len(os.sched_getaffinity(0))
    pool = nproc if workload == "report-oracle" else 1
    blas = max(1, nproc // pool)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return {"nproc": nproc, "pool_threads": pool, "blas_threads": blas}


def import_program():
    src = ROOT / "src"
    if not (src / "pcoselect" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no pcoselect sources under {src}")
    sys.path.insert(0, str(src))
    import pcoselect  # noqa: F401


def environment(budget: dict) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), **budget}


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """Outcome of one operation: wall time, artifact digest, problems found."""

    k: int
    seconds: float
    digest: str
    problems: list
    traced: bool = False


def run_op(wl, k, inputs, references, tracer=None, rerun=False) -> Op:
    from workloads import compare_reference

    if tracer is not None:
        tracer.op = k
    start = time.perf_counter()
    try:
        raw = wl.rerun(inputs) if rerun else wl.run(inputs)
    except Exception as exc:  # an operation that raises is counted as failed
        raw = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    if isinstance(raw, Exception):
        problems, digest = [f"raised {type(raw).__name__}: {raw}"], ""
    else:
        result = wl.collect(inputs, raw)
        digest = hashlib.sha256(result.artifacts).hexdigest()
        if result.returncode:
            problems = [f"exit code {result.returncode}"]
        else:
            problems = wl.check(result)
            if k < len(references):
                problems += compare_reference(wl.summary(result), references[k])
    wl.discard(inputs)
    return Op(k, elapsed, digest, problems, traced=tracer is not None)


def set_up(cls, args, workdir):
    """Warm up on smoke-size inputs and build the first round's inputs.

    Repeated SETUP_REPEATS times.  Returns the workload, the first round's
    inputs, the import time and the time of each repeat.
    """
    import_s = time.perf_counter() - PROCESS_START
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        rundir = workdir / f"setup{i}"
        warm = cls("smoke", args.seed, rundir / "warm", args.pool_threads)
        for k in range(len(warm.cases)):
            inputs = warm.prepare(k)
            result = warm.collect(inputs, warm.run(inputs))
            if result.returncode or warm.check(result):
                raise RuntimeError(f"warm-up operation {k} failed")
            warm.discard(inputs)
        wl = cls(args.scale, args.seed, rundir / "ops", args.pool_threads)
        first_round = [wl.prepare(k) for k in range(len(wl.cases))]
        times.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(rundir, ignore_errors=True)
    return wl, first_round, import_s, times


def measure(wl, first_round, seconds, references, tracer=None) -> list:
    """Closed loop, one client, whole rounds until ``seconds`` have passed.

    With a tracer, odd rounds run traced and even rounds untraced, so the
    same process yields both sides of the tracing overhead.
    """
    ops, pending, k, rnd = [], first_round, 0, 0
    start = time.perf_counter()
    while rnd < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        try:
            for inputs in pending:
                ops.append(run_op(wl, k, inputs, references, tracer if traced else None))
                k += 1
        finally:
            if traced:
                tracer.uninstall()
        rnd += 1
        if rnd >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
        pending = [wl.prepare(j) for j in range(k, k + len(wl.cases))]
    return ops


def tail_percentile(times):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    ordered = sorted(times)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def run_workload(args) -> int:
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    references = []
    if args.seed == DEFAULT_SEED and args.scale == "full":
        references = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[args.workload]
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        wl, first_round, import_s, setup_repeats = set_up(cls, args, workdir)
        ops = measure(wl, first_round, args.seconds, references, tracer)
        # Determinism: repeat one first-round operation (single-threaded for
        # the pooled workload) and require byte-identical artifacts.
        r = args.seed % len(wl.cases)
        again = run_op(wl, r, wl.prepare(r), references, rerun=True)
        if again.digest != ops[r].digest:
            again.problems.append(f"repeat of operation {r} changed its artifacts")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = ops + [again]
    failed = [op for op in everything if op.problems]
    times = [op.seconds for op in ops if not op.traced]
    print(f"# workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
    print(f"# env {json.dumps(environment(args.budget), sort_keys=True)}")
    print(f"# setup_s = import {import_s:.4f} s + median of set-up repeats {[round(t, 4) for t in setup_repeats]}")
    tail = tail_percentile(times)
    print(f"# op_p50_s {statistics.median(times):.6f} s over {len(times)} operations"
          + (f"; p{tail[0]:g} {tail[1]:.6f} s" if tail else "; no percentile has ten samples beyond it"))
    print(f"# error_rate {len(failed) / len(everything):.6f} fraction ({len(failed)} of {len(everything)})")
    for op in failed:
        print(f"# failed operation {op.k}: {'; '.join(op.problems)}")
    print(f"# op_seconds {json.dumps([[wl.case_of(op.k).name, round(op.seconds, 6), op.traced] for op in ops])}")
    print(f"# digests {json.dumps({op.k: op.digest for op in ops})}")

    if args.trace:
        traced = [op for op in ops if op.traced]
        untraced_mean = statistics.fmean(times)
        overhead = statistics.fmean(op.seconds for op in traced) / untraced_mean - 1.0
        speedup = again.seconds / statistics.median(times) if wl.threads > 1 else 0.0
        metrics = layer_metrics(tracer.spans, len(traced), speedup, overhead)
        WORK_ROOT.mkdir(exist_ok=True)
        tracer.write_jsonl(WORK_ROOT / f"spans-{args.workload}.jsonl")
    else:
        metrics = {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": import_s + statistics.median(setup_repeats), "unit": "s"},
        }
    print(json.dumps({"correct": not failed, "attempted": len(everything), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def write_reference(args) -> int:
    """Store seed-0 outputs of the first operations of every workload."""
    from workloads import WORKLOADS

    out = {}
    workdir = WORK_ROOT / f"reference-{os.getpid()}"
    try:
        for name in WORKLOAD_NAMES:
            # Artifacts do not depend on the thread count; every run checks that.
            wl = WORKLOADS[name]("full", DEFAULT_SEED, workdir / name, 1)
            out[name] = []
            for k in range(REFERENCE_OPS[name]):
                inputs = wl.prepare(k)
                result = wl.collect(inputs, wl.run(inputs))
                if result.returncode or wl.check(result):
                    raise RuntimeError(f"{name} operation {k} failed its checks")
                out[name].append(wl.summary(result))
                wl.discard(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(out, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


# ---------------------------------------------------------------------------
# several workloads, each in its own process
# ---------------------------------------------------------------------------


def run_child(name, seed, seconds, trace, scale) -> tuple[list[str], dict | None]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        notes, result = run_child(name, args.seed, args.seconds, args.trace, args.scale)
        print(f"== {name}")
        for line in notes:
            if line.startswith(("# op_p50_s", "# error_rate", "# env", "# failed")):
                print("  " + line[2:])
        if result is None:
            print("  did not produce a result")
            status = 1
            continue
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def smoke(args) -> int:
    """Every workload once at tiny sizes, untraced and traced.

    Asserts that each metric named in BENCHMARK.json is emitted with its
    unit, that no operation failed, and that traced artifacts are
    byte-identical to untraced ones.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for name in WORKLOAD_NAMES:
        digests = {}
        for trace in (0, 1):
            notes, result = run_child(name, args.seed, 1, trace, "smoke")
            label = f"{name} trace {trace}"
            if result is None:
                failures.append(f"{label}: no result")
                continue
            if result["failed"] or not result["correct"]:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            for metric in wanted[trace]:
                entry = result["metrics"].get(metric["name"])
                if entry is None or entry.get("unit") != metric["unit"]:
                    failures.append(f"{label}: metric {metric['name']} missing or without unit {metric['unit']}")
            digests[trace] = next(json.loads(line[len("# digests "):]) for line in notes
                                  if line.startswith("# digests "))
        if len(digests) == 2:
            shared = sorted(set(digests[0]) & set(digests[1]), key=int)
            differ = [k for k in shared if digests[0][k] != digests[1][k]]
            if not shared or differ:
                failures.append(f"{name}: traced artifacts differ from untraced at operations {differ}")
        print(f"smoke {name}: {'ok' if not any(f.startswith(name) for f in failures) else 'FAILED'}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="self-test all workloads at tiny sizes")
    parser.add_argument("--write-reference", action="store_true", help="rewrite the seed-0 references")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    args.budget = thread_budget(args.workload)
    args.pool_threads = args.budget["pool_threads"]
    import_program()
    sys.path.insert(0, str(HERE))
    if args.write_reference:
        return write_reference(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
