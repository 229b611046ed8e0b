"""Span recording around pcoselect's public functions, from outside the library.

The traced run replaces selected functions with timing wrappers in every
``pcoselect`` module namespace that holds them (and methods on their
classes), records one span per call, and puts the originals back
afterwards.  Spans carry name, start, end, parent and thread; parent
stacks are kept per thread, and tasks handed to ``parallel_map`` inherit
the span that submitted them, so self time is well defined on a pool.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Gauss-Legendre nodes per Gram entry that ``kernels._bandwidth_conv_1d``
# uses for a factor involving an Epanechnikov kernel: 64 for a pure
# Epanechnikov pair, 128 for a mixed pair.  Gaussian pairs use none.
EPANECHNIKOV_PAIR_NODES = 64
MIXED_PAIR_NODES = 128

# Wrapped functions: defining module, attribute, span name.  Every pcoselect
# namespace that holds the same function object is patched.
FUNCTION_TARGETS = (
    ("pcoselect.kernels", "section_inner_matrix", "kernels.section_inner_matrix"),
    ("pcoselect.kernels", "section_inner_pointwise", "kernels.section_inner_pointwise"),
    ("pcoselect.kernels", "kernel_matrix", "kernels.kernel_matrix"),
    ("pcoselect.bases", "basis_matrix", "bases.basis_matrix"),
    ("pcoselect.estimator", "estimate_on_grid", "estimator.estimate_on_grid"),
    ("pcoselect.estimator", "read_sample_csv", "cli.io"),
    ("pcoselect.numerics", "weighted_gram_total", "numerics.weighted_gram_total"),
    ("pcoselect.numerics", "parallel_map", "numerics.parallel_map"),
    ("pcoselect.selection", "pco_select", "selection.pco_select"),
    ("pcoselect.selection", "penalty", "selection.penalty"),
    ("pcoselect.selection", "quotient_on_grid", "selection.quotient_on_grid"),
    ("pcoselect.experiments", "oracle_experiment", "experiments.oracle_experiment"),
)

# Wrapped methods: module, class, method, span name.
METHOD_TARGETS = (
    ("pcoselect.estimator", "GramTables", "matrix", "estimator.GramTables.matrix"),
    ("pcoselect.estimator", "GramTables", "weighted_total", "estimator.weighted_total"),
    ("pcoselect.simulation", "Scenario", "generate", "simulation.generate"),
    ("pcoselect.selection", "SelectionReport", "to_json", "cli.io"),
    ("pcoselect.selection", "SelectionReport", "to_csv", "cli.io"),
    ("pcoselect.experiments", "RiskReport", "to_json_dict", "cli.io"),
    ("pcoselect.experiments", "RiskReport", "to_csv", "cli.io"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    thread: int
    op: int
    attrs: dict


class Tracer:
    """Collects spans while ``op`` is set; inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    threading.get_ident(), self.op, attrs)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _call(self, name, fn, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        attrs_of = _ATTRS.get(name)
        index = self._open(name, attrs_of(*args, **kwargs) if attrs_of else {})
        try:
            if name == "numerics.parallel_map":
                return self._parallel_map(index, fn, args, kwargs)
            if name == "selection.pco_select":
                return self._with_alloc_peak(index, fn, args, kwargs)
            result = fn(*args, **kwargs)
            if name == "selection.quotient_on_grid":
                inside = result[1]
                self.spans[index].attrs.update(inside=int(inside.sum()), points=int(inside.size))
            return result
        finally:
            self._close(index)

    def _parallel_map(self, index, fn, args, kwargs):
        """Run the pool with each task parented to this span and timed."""
        task_fn, items = args[0], list(args[1])
        threads = int(args[2] if len(args) > 2 else kwargs.get("threads", 1))
        busy = []
        busy_lock = threading.Lock()

        def task(item):
            stack = self._stack()
            stack.append(index)
            t0 = time.perf_counter()
            try:
                return task_fn(item)
            finally:
                with busy_lock:
                    busy.append(time.perf_counter() - t0)
                stack.pop()

        result = fn(task, items, threads)
        effective = threads if threads > 1 and len(items) > 1 else 1
        self.spans[index].attrs.update(busy=sum(busy), threads=effective)
        return result

    def _with_alloc_peak(self, index, fn, args, kwargs):
        """Peak traced allocation during the call above the level at entry.

        tracemalloc is process-wide: calls running at once on a pool share
        one peak, so on report-oracle this bounds the pair, not one call.
        """
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        self.spans[index].attrs["peak_alloc"] = max(0, peak - base)
        return result

    # -- installing and removing wrappers --------------------------------

    def _wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def install(self):
        """Wrap every target in every pcoselect namespace that holds it."""
        if self._patches:
            raise RuntimeError("wrappers already installed")
        for module_name, attr, span in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrapper(span, original)
            for name, module in sorted(sys.modules.items()):
                if name != "pcoselect" and not name.startswith("pcoselect."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, cls_name, attr, span in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self._wrapper(span, vars(cls)[attr]))
        tracemalloc.start()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original back and check that no wrapper remains."""
        tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        leftover = [f"{owner.__name__}.{attr}" for owner, attr, original in self._patches
                    if vars(owner)[attr] is not original]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"wrappers not restored: {leftover}")

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "thread": s.thread, "op": s.op,
                                     **s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-call attributes, computed from the arguments
# ---------------------------------------------------------------------------


def _rows(x) -> int:
    return np.atleast_2d(np.asarray(x)).shape[0]


def _node_evals(a, b, entries: int) -> int:
    """Quadrature node evaluations behind ``entries`` bandwidth Gram entries."""
    from pcoselect.kernels import BandwidthSpec, BaseKind

    if not (isinstance(a, BandwidthSpec) and isinstance(b, BandwidthSpec)):
        return 0
    epan = (a.base.kind is BaseKind.EPANECHNIKOV, b.base.kind is BaseKind.EPANECHNIKOV)
    if not any(epan):
        return 0
    nodes = EPANECHNIKOV_PAIR_NODES if all(epan) else MIXED_PAIR_NODES
    return entries * nodes * a.d


def _gram_attrs(a, xa, b, xb):
    entries = _rows(xa) * _rows(xb)
    return {"entries": entries, "node_evals": _node_evals(a, b, entries)}


def _pointwise_attrs(a, xa, b, xb):
    entries = _rows(xa)
    return {"entries": entries, "node_evals": _node_evals(a, b, entries)}


# Span name -> attributes computed from the call's positional arguments.
_ATTRS = {
    "kernels.section_inner_matrix": _gram_attrs,
    "kernels.section_inner_pointwise": _pointwise_attrs,
    "kernels.kernel_matrix": lambda spec, xa, xb: {"entries": _rows(xa) * _rows(xb)},
    "estimator.estimate_on_grid": lambda spec, sample, points: {"points": _rows(points)},
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order they are reported.
LAYER_UNITS = {
    "kernels.section_inner_matrix.s": "s",
    "kernels.section_inner_matrix.calls": "count",
    "kernels.section_inner_matrix.entries": "count",
    "kernels.quadrature_node_evals": "count",
    "kernels.section_inner_pointwise.s": "s",
    "kernels.kernel_matrix.s": "s",
    "kernels.kernel_matrix.entries": "count",
    "bases.basis_matrix.s": "s",
    "bases.basis_matrix.calls": "count",
    "estimator.weighted_total.s": "s",
    "estimator.weighted_total.calls": "count",
    "estimator.gram_matrices_built": "count",
    "estimator.gram_reads_per_matrix": "ratio",
    "estimator.estimate_on_grid.s": "s",
    "estimator.estimate_on_grid.points": "count",
    "numerics.weighted_gram_total.s": "s",
    "numerics.parallel_map.utilization": "fraction",
    "numerics.parallel_map.speedup": "ratio",
    "selection.pco_select.s": "s",
    "selection.pco_select.peak_alloc_mb": "MB",
    "selection.penalty.s": "s",
    "selection.quotient_on_grid.s": "s",
    "selection.quotient_inside_frac": "fraction",
    "simulation.generate.s": "s",
    "simulation.generate.calls": "count",
    "experiments.oracle_experiment.s": "s",
    "experiments.risk_grid_frac": "fraction",
    "cli.io.s": "s",
    "trace.overhead_frac": "fraction",
}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered((max(a, s.start), min(b, s.end)) for a, b in children[i])
        for i, s in enumerate(spans)
    ]


def _ancestors(spans, index):
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def layer_metrics(spans: list[Span], ops: int, speedup: float, overhead: float) -> dict:
    """Per-operation layer metrics over ``ops`` traced operations.

    Times are self times; counts are exact.  A layer the workload never
    enters reads 0.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def self_s(name):
        return sum(selfs[i] for i in by_name[name]) / ops

    def calls(name):
        return len(by_name[name]) / ops

    def attr_sum(names, key):
        return sum(spans[i].attrs.get(key, 0) for n in names for i in by_name[n])

    gram_spans = by_name["kernels.section_inner_matrix"]
    built = sum(1 for i in gram_spans
                if spans[i].parent >= 0 and spans[spans[i].parent].name == "estimator.GramTables.matrix")
    reads = len(by_name["estimator.GramTables.matrix"])

    pool_busy = attr_sum(["numerics.parallel_map"], "busy")
    pool_capacity = sum((spans[i].end - spans[i].start) * spans[i].attrs["threads"]
                        for i in by_name["numerics.parallel_map"])

    risk_grid, oracle_thread_time = 0.0, 0.0
    for o in by_name["experiments.oracle_experiment"]:
        span = spans[o]
        pools = [i for i in by_name["numerics.parallel_map"] if o in _ancestors(spans, i)]
        oracle_thread_time += (span.end - span.start
                               - sum(spans[i].end - spans[i].start for i in pools)
                               + sum(spans[i].attrs["busy"] for i in pools))
        risk_grid += sum(spans[i].end - spans[i].start for i in by_name["estimator.estimate_on_grid"]
                         if o in _ancestors(spans, i))

    quotient_points = attr_sum(["selection.quotient_on_grid"], "points")
    peaks = [spans[i].attrs["peak_alloc"] for i in by_name["selection.pco_select"]]

    values = {
        "kernels.section_inner_matrix.s": self_s("kernels.section_inner_matrix"),
        "kernels.section_inner_matrix.calls": calls("kernels.section_inner_matrix"),
        "kernels.section_inner_matrix.entries": attr_sum(["kernels.section_inner_matrix"], "entries") / ops,
        "kernels.quadrature_node_evals": attr_sum(
            ["kernels.section_inner_matrix", "kernels.section_inner_pointwise"], "node_evals") / ops,
        "kernels.section_inner_pointwise.s": self_s("kernels.section_inner_pointwise"),
        "kernels.kernel_matrix.s": self_s("kernels.kernel_matrix"),
        "kernels.kernel_matrix.entries": attr_sum(["kernels.kernel_matrix"], "entries") / ops,
        "bases.basis_matrix.s": self_s("bases.basis_matrix"),
        "bases.basis_matrix.calls": calls("bases.basis_matrix"),
        "estimator.weighted_total.s": self_s("estimator.weighted_total"),
        "estimator.weighted_total.calls": calls("estimator.weighted_total"),
        "estimator.gram_matrices_built": built / ops,
        "estimator.gram_reads_per_matrix": reads / built if built else 0.0,
        "estimator.estimate_on_grid.s": self_s("estimator.estimate_on_grid"),
        "estimator.estimate_on_grid.points": attr_sum(["estimator.estimate_on_grid"], "points") / ops,
        "numerics.weighted_gram_total.s": self_s("numerics.weighted_gram_total"),
        "numerics.parallel_map.utilization": pool_busy / pool_capacity if pool_capacity else 0.0,
        "numerics.parallel_map.speedup": speedup,
        "selection.pco_select.s": self_s("selection.pco_select"),
        "selection.pco_select.peak_alloc_mb": max(peaks, default=0) / 2**20,
        "selection.penalty.s": self_s("selection.penalty"),
        "selection.quotient_on_grid.s": self_s("selection.quotient_on_grid"),
        "selection.quotient_inside_frac": (attr_sum(["selection.quotient_on_grid"], "inside") / quotient_points
                                           if quotient_points else 0.0),
        "simulation.generate.s": self_s("simulation.generate"),
        "simulation.generate.calls": calls("simulation.generate"),
        "experiments.oracle_experiment.s": self_s("experiments.oracle_experiment"),
        "experiments.risk_grid_frac": risk_grid / oracle_thread_time if oracle_thread_time else 0.0,
        "cli.io.s": self_s("cli.io"),
        "trace.overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
