"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every workload is a round robin over a few cases.  Operation ``k`` runs
case ``k % len(cases)`` on replication ``k`` of that case's scenario, so
each operation sees fresh data.  The program is driven only through its
public entry points: ``pcoselect.cli.main`` for ``select`` and ``report``
and the package API for the regression fit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pcoselect
from pcoselect import cli

# Scenario replications are addressed by operation index; this is only an
# upper bound the scenario validates against.
MAX_REPLICATIONS = 1_000_000
# Report workloads key each operation's experiment seed as seed * stride + k.
REPORT_SEED_STRIDE = 1000
# Criterion totals, risks and quotient values must match the stored
# references to this relative tolerance (the determinism contract's bound).
REFERENCE_RTOL = 1e-12


@dataclass(frozen=True)
class Case:
    name: str
    scenario: dict
    family: dict
    loss: str = "one"


def _scenario(d, n, f="triangle", b=None, sigma=None, support=(0.0, 1.0)):
    return {
        "d": d,
        "f": f,
        "b": b or {"kind": "zero"},
        "sigma": sigma or {"kind": "zero"},
        "n": n,
        "support": list(support),
    }


def _geometric(lo, hi, count):
    return [float(v) for v in np.geomspace(lo, hi, count)]


def _gaussian(h_min, grid, d=1):
    return {"variant": "bandwidth", "base": "gaussian", "h_min": h_min, "grid": grid, "d": d}


def _projection(basis, m_max, d=1):
    return {"variant": "projection", "basis": basis, "m_max": m_max, "d": d}


# Sizes per scale: "full" is what the benchmark measures, "smoke" is the
# self-test and the warm-up before timing.
def _bandwidth_cases(scale):
    n_a, n_b, n_c = (2000, 1000, 500) if scale == "full" else (200, 400, 100)
    sine = {"kind": "sine"}
    noise = {"kind": "constant", "c": 0.3}
    return [
        Case("gaussian-d1", _scenario(1, n_a), _gaussian(1.0 / n_a, _geometric(0.01, 0.5, 20))),
        Case("gaussian-d2", _scenario(2, n_b, "uniform", sine, noise),
             _gaussian(0.05, _geometric(0.05, 0.4, 5), d=2), loss="identity"),
        Case("epanechnikov-d1", _scenario(1, n_c),
             {"variant": "bandwidth", "base": "epanechnikov", "h_min": 1.0 / n_c,
              "grid": [0.02, 0.05, 0.1, 0.2], "d": 1}),
    ]


def _projection_cases(scale):
    n1, n2 = (2000, 1000) if scale == "full" else (200, 100)
    return [
        Case("trigonometric-d1", _scenario(1, n1), _projection("trigonometric", 20)),
        Case("histogram-d1", _scenario(1, n1), _projection("regular_histogram", 20)),
        Case("legendre-d1", _scenario(1, n1, support=(-1.0, 1.0)), _projection("legendre", 20)),
        Case("trigonometric-d2", _scenario(2, n2), _projection("trigonometric", 5, d=2)),
    ]


def _report_cases(scale):
    n, reps = (1000, 8) if scale == "full" else (200, 2)
    scn = {**_scenario(1, n), "replications": reps}
    return [Case("gaussian-oracle", scn, _gaussian(1.0 / n, _geometric(0.01, 0.3, 8)))]


def _regress_cases(scale):
    n = 1000 if scale == "full" else 200
    scn = _scenario(1, n, "uniform", {"kind": "sine"}, {"kind": "constant", "c": 0.3})
    # The six-member grid of demos/quotient_regression.py.
    grid = sorted({1.0 / n, 0.01, 0.03, 0.08, 0.2, 0.5})
    return [Case("gaussian-quotient", scn, _gaussian(1.0 / n, grid), loss="identity")]


# ---------------------------------------------------------------------------
# output checks shared by the workloads
# ---------------------------------------------------------------------------


def _smoothness_key(spec_cfg):
    # Mirrors the documented tie rule of pco_select: smoother first.
    if spec_cfg["variant"] == "bandwidth":
        return -float(np.prod(spec_cfg["h"]))
    return float(np.prod(spec_cfg["m"]))


def check_selection(report: dict, label: str) -> list[str]:
    """Criterion rows decompose exactly and the chosen index is the argmin."""
    problems = []
    rows = report["rows"]
    for r in rows:
        if not (math.isfinite(r["distance"]) and math.isfinite(r["penalty"])):
            problems.append(f"{label}: row {r['index']} is not finite")
        if r["total"] != r["distance"] + r["penalty"]:
            problems.append(f"{label}: row {r['index']} total != distance + penalty")
        if r["distance"] < 0 or r["penalty"] < 0:
            problems.append(f"{label}: row {r['index']} has a negative term")
    best = min(range(len(rows)), key=lambda i: (rows[i]["total"], _smoothness_key(rows[i]["spec"]), i))
    if report["chosen_index"] != best:
        problems.append(f"{label}: chosen_index {report['chosen_index']} is not the argmin {best}")
    if [r["chosen"] for r in rows] != [r["index"] == best for r in rows]:
        problems.append(f"{label}: chosen flags disagree with chosen_index")
    return problems


def _close(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def _flatten(value):
    if isinstance(value, (list, tuple)):
        return [v for item in value for v in _flatten(item)]
    return [value]


def compare_reference(summary: dict, reference: dict) -> list[str]:
    """Exact match on integers, relative 1e-12 on floats, NaN where NaN."""
    problems = []
    for key, ref in reference.items():
        got, want = _flatten(summary.get(key)), _flatten(ref)
        if len(got) != len(want):
            problems.append(f"reference {key}: {len(got)} values, expected {len(want)}")
            continue
        bad = [i for i, (g, r) in enumerate(zip(got, want))
               if (g != r if isinstance(r, int) else not _close(float(g), float(r)))]
        if bad:
            problems.append(f"reference {key}: {len(bad)} values differ, first at {bad[0]}")
    return problems


def _write_csv(path: Path, sample):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{q + 1}" for q in range(sample.d)] + ["y"])
        for row, yv in zip(sample.x, sample.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(yv))])


def _call_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@dataclass
class Result:
    """What one operation produced, once collected after the timed call."""

    artifacts: bytes
    parsed: dict
    returncode: int = 0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: a round robin of cases over seeded inputs in ``workdir``."""

    name = ""

    def __init__(self, scale: str, seed: int, workdir: Path, threads: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.threads = threads
        self.cases = self.make_cases(scale)

    @staticmethod
    def make_cases(scale):
        raise NotImplementedError

    def case_of(self, k: int) -> Case:
        return self.cases[k % len(self.cases)]

    def prepare(self, k: int):
        """Inputs of operation k (untimed)."""
        raise NotImplementedError

    def run(self, inputs):
        """The timed operation."""
        raise NotImplementedError

    def rerun(self, inputs):
        """The operation repeated after timing, for the determinism check."""
        return self.run(inputs)

    def collect(self, inputs, raw) -> Result:
        raise NotImplementedError

    def check(self, result: Result) -> list[str]:
        raise NotImplementedError

    def summary(self, result: Result) -> dict:
        raise NotImplementedError

    def discard(self, inputs):
        """Remove an operation's files once it has been collected."""


class _CliWorkload(Workload):
    outputs: tuple = ()

    def _op_dir(self, k):
        path = self.workdir / f"op{k}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def collect(self, inputs, raw) -> Result:
        out = Path(inputs["out"])
        if raw != 0:
            return Result(b"", {}, raw)
        blobs = [(out / name).read_bytes() for name in self.outputs]
        return Result(b"\0".join(blobs), json.loads(blobs[0]), raw)

    def discard(self, inputs):
        shutil.rmtree(inputs["dir"], ignore_errors=True)


class SelectWorkload(_CliWorkload):
    outputs = ("selection.json", "selection.csv")

    def prepare(self, k):
        case = self.case_of(k)
        scn = pcoselect.scenario_from_config(
            {**case.scenario, "replications": MAX_REPLICATIONS, "seed": self.seed})
        sample = scn.generate(k, pcoselect.LossKind(case.loss))
        path = self._op_dir(k)
        _write_csv(path / "data.csv", sample)
        (path / "family.json").write_text(json.dumps({"family": case.family}), encoding="utf-8")
        return {"dir": path, "data": str(path / "data.csv"), "config": str(path / "family.json"),
                "loss": case.loss, "out": str(path / "out")}

    def run(self, inputs):
        return _call_cli(["select", "--config", inputs["config"], "--data", inputs["data"],
                          "--loss", inputs["loss"], "--out", inputs["out"]])

    def check(self, result):
        return check_selection(result.parsed, "selection")

    def summary(self, result):
        return {"chosen_index": result.parsed["chosen_index"],
                "totals": [r["total"] for r in result.parsed["rows"]]}


class SelectBandwidth(SelectWorkload):
    name = "select-bandwidth"
    make_cases = staticmethod(_bandwidth_cases)


class SelectProjection(SelectWorkload):
    name = "select-projection"
    make_cases = staticmethod(_projection_cases)


class ReportOracle(_CliWorkload):
    name = "report-oracle"
    make_cases = staticmethod(_report_cases)
    outputs = ("risk.json", "risk_by_kernel.csv")

    def prepare(self, k):
        case = self.case_of(k)
        path = self._op_dir(k)
        config = {"scenario": {**case.scenario, "seed": self.seed * REPORT_SEED_STRIDE + k},
                  "family": case.family, "loss": case.loss}
        (path / "experiment.json").write_text(json.dumps(config), encoding="utf-8")
        return {"dir": path, "config": str(path / "experiment.json"), "out": str(path / "out")}

    def _report(self, inputs, threads):
        return _call_cli(["report", "--config", inputs["config"], "--threads", str(threads),
                          "--out", inputs["out"]])

    def run(self, inputs):
        return self._report(inputs, self.threads)

    def rerun(self, inputs):
        # Single-thread repeat: artifacts must match the pooled run byte for byte.
        return self._report(inputs, 1)

    def check(self, result):
        rep = result.parsed
        risks = [k["risk"] for k in rep["kernels"]]
        problems = []
        if not all(math.isfinite(r) and r >= 0 for r in risks):
            problems.append("risk: a kernel risk is negative or not finite")
        if rep["oracle_index"] != int(np.argmin(risks)) or rep["oracle_risk"] != risks[rep["oracle_index"]]:
            problems.append("risk: oracle is not the smallest mean risk")
        if sum(rep["selection_counts"].values()) != rep["replications"]:
            problems.append("risk: selection counts do not sum to the replications")
        if rep["ratio"] != rep["pco_risk"] / rep["oracle_risk"]:
            problems.append("risk: ratio != pco_risk / oracle_risk")
        return problems

    def summary(self, result):
        rep = result.parsed
        return {"risks": [k["risk"] for k in rep["kernels"]], "pco_risk": rep["pco_risk"],
                "selection_counts": [rep["selection_counts"][str(i)] for i in range(len(rep["kernels"]))]}


class RegressQuotient(Workload):
    name = "regress-quotient"
    make_cases = staticmethod(_regress_cases)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.points = np.linspace(0.0, 1.0, 4001 if self.scale == "full" else 401)[:, None]

    def prepare(self, k):
        case = self.case_of(k)
        scn = pcoselect.scenario_from_config(
            {**case.scenario, "replications": MAX_REPLICATIONS, "seed": self.seed})
        return {"sample": scn.generate(k, pcoselect.LossKind.IDENTITY), "family": case.family}

    def run(self, inputs):
        sample, fam = inputs["sample"], inputs["family"]
        family = pcoselect.make_bandwidth_family(pcoselect.GAUSSIAN, fam["h_min"], fam["grid"], fam["d"], sample.n)
        num = pcoselect.pco_select(family, sample)
        den = pcoselect.pco_select(family, sample.with_loss(pcoselect.LossKind.ONE))
        values, inside = pcoselect.quotient_on_grid(
            family.specs[num.chosen_index], family.specs[den.chosen_index], sample,
            pcoselect.QuotientConfig(), self.points)
        return num, den, values, inside

    def collect(self, inputs, raw):
        num, den, values, inside = raw
        blob = b"\0".join([num.to_json().encode(), den.to_json().encode(), values.tobytes(), inside.tobytes()])
        return Result(blob, {"reports": [num.to_json_dict(), den.to_json_dict()],
                             "values": values, "inside": inside})

    def check(self, result):
        problems = []
        for rep, label in zip(result.parsed["reports"], ("numerator", "denominator")):
            problems += check_selection(rep, label)
        values, inside = result.parsed["values"], result.parsed["inside"]
        if not np.array_equal(np.isnan(values), ~inside):
            problems.append("quotient: NaN pattern differs from the outside-domain mask")
        if not np.all(np.isfinite(values[inside])):
            problems.append("quotient: a value inside the domain is not finite")
        return problems

    def summary(self, result):
        reps = result.parsed["reports"]
        return {"chosen_index": [r["chosen_index"] for r in reps],
                "totals": [[row["total"] for row in r["rows"]] for r in reps],
                "quotient": [float(v) for v in result.parsed["values"]]}


WORKLOADS = {w.name: w for w in (SelectBandwidth, SelectProjection, ReportOracle, RegressQuotient)}
