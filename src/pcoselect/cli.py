"""Batch entry points: simulate, select, estimate, verify, report.

Every command reads a JSON config, writes files with fixed names into
``--out``, and is byte-deterministic given its config (seeds included).

Exit codes: 0 success, 2 config error, 3 data error, 4 dimension error,
5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bases import BasisFamily, BasisKind
from .diagnostics import (
    check_kernel_moment_conditions,
    check_l1_section_bound,
    check_legendre_boundedness,
    check_sine_tail_bound,
    check_trig_spectral_boundedness,
)
from .errors import ConfigError, DataError, DimensionError, VerificationFailure
from .errors import config_enum, config_int, config_ints, config_number, config_numbers, config_object
from .estimator import LossKind, estimate_on_grid, read_sample_csv, write_sample_csv
from .experiments import oracle_experiment
from .kernels import (
    BaseKernel,
    BaseKind,
    KernelFamily,
    make_bandwidth_family,
    make_projection_family,
    spec_from_config,
    spec_id,
)
from .selection import SCHEMA_VERSION, pco_select
from .simulation import Density, DensityKind, scenario_from_config

# Evaluation points of one `estimate` grid.  Its CSV takes about 25 bytes
# per point and coordinate, so the largest grid writes tens of megabytes.
MAX_GRID_POINTS = 1_000_000


def _load_json(path: str, role: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{role} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{role} is not valid JSON ({path}, line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{role} must be a JSON object, not {type(doc).__name__} ({path})")
    return doc


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _family_dimension(cfg: dict, dim, source: str) -> int:
    """The family's ``d``, checked against the dimension ``dim`` of its
    ``source`` (None: no check) before any member is built."""
    d = config_int("family", "d", cfg["d"])
    if dim is not None and d != dim:
        raise DimensionError(f"family config: field 'd' = {cfg['d']!r} does not match the {source} dimension {dim}")
    return d


def _family_from_config(cfg: dict, n: int, dim=None, source: str = "data") -> KernelFamily:
    cfg = config_object("family", None, cfg)
    variant = cfg.get("variant")
    if variant == "bandwidth":
        base = BaseKernel(config_enum("family", "base", cfg.get("base", "gaussian"), BaseKind))
        for field in ("h_min", "grid", "d"):
            if field not in cfg:
                raise ConfigError(f"family config: missing field {field!r}")
        h_min, grid = config_number("family", "h_min", cfg["h_min"]), config_numbers("family", "grid", cfg["grid"])
        d = _family_dimension(cfg, dim, source)
        return _build_family(lambda: make_bandwidth_family(base, h_min, grid, d, n))
    if variant == "projection":
        for field in ("basis", "m_max", "d"):
            if field not in cfg:
                raise ConfigError(f"family config: missing field {field!r}")
        kind = config_enum("family", "basis", cfg["basis"], BasisKind)
        m_cap = config_int("family", "m_cap", cfg.get("m_cap", 64))
        m_max, d = config_int("family", "m_max", cfg["m_max"]), _family_dimension(cfg, dim, source)
        weights = None if cfg.get("w") is None else config_numbers("family", "w", cfg["w"])
        return _build_family(lambda: make_projection_family(BasisFamily(kind, m_cap), m_max, d, n, weights))
    raise ConfigError(f"family config: unknown variant {variant!r}")


def _build_family(build) -> KernelFamily:
    """Run a family builder; its ValueError names the offending field."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"family config: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config, "config")
    scn = scenario_from_config(cfg)
    if args.seed is not None:
        scn = scenario_from_config({**scn.to_config(), "seed": args.seed})
    replication = config_int("scenario", "replication", cfg.get("replication", 0), 0)
    sample = scn.generate(replication)
    out = _out_dir(args)
    write_sample_csv(out / "data.csv", sample.x, sample.y)
    echo = {"schema_version": SCHEMA_VERSION, "scenario": scn.to_config(), "replication": replication}
    _dump_json(echo, out / "scenario.json")
    print(f"wrote {sample.n} rows (d={sample.d}) to {out / 'data.csv'}")
    return 0


def cmd_select(args) -> int:
    cfg = _load_json(args.config, "config")
    loss = LossKind(args.loss)
    sample = read_sample_csv(args.data, loss)
    family = _family_from_config(cfg.get("family", cfg), sample.n, sample.d)
    report = pco_select(family, sample)
    out = _out_dir(args)
    (out / "selection.json").write_text(report.to_json(), encoding="utf-8")
    (out / "selection.csv").write_text(report.to_csv(), encoding="utf-8")
    chosen = report.rows[report.chosen_index]
    print(f"selected kernel {chosen.index}: {spec_id(chosen.spec)}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_json(args.config, "config")
    spec_cfg = _load_json(args.spec, "spec")
    spec = spec_from_config(spec_cfg.get("spec", spec_cfg))
    loss = LossKind(args.loss)
    sample = read_sample_csv(args.data, loss)
    if spec.d != sample.d:
        raise DimensionError(f"spec dimension {spec.d} != data dimension {sample.d}")
    points = _grid_from_config(cfg.get("grid", cfg), sample.d)
    with np.errstate(over="ignore", invalid="ignore"):
        values = estimate_on_grid(spec, sample, points)
    if not np.all(np.isfinite(values)):
        raise DataError("the estimate is not finite: the sample's values are too large for float64 sums")
    out = _out_dir(args)
    lines = [",".join([f"x{q + 1}" for q in range(sample.d)] + ["estimate"])]
    for row, val in zip(points, values):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(val))]))
    (out / "estimate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} estimates to {out / 'estimate.csv'}")
    return 0


def _grid_numbers(grid_cfg: dict, field: str) -> list:
    """A number, or a list of numbers, of the grid config as a list."""
    value = grid_cfg[field]
    return config_numbers("grid", field, value) if isinstance(value, list) else [config_number("grid", field, value)]


def _grid_from_config(grid_cfg, d: int) -> np.ndarray:
    """The row-stacked points of a tensor grid config {lo, hi, points}."""
    grid_cfg = config_object("grid", None, grid_cfg)
    for field in ("lo", "hi", "points"):
        if field not in grid_cfg:
            raise ConfigError(f"grid config: missing field {field!r}")
    lo, hi = (np.asarray(_grid_numbers(grid_cfg, field), dtype=np.float64) for field in ("lo", "hi"))
    if lo.size != d or hi.size != d:
        raise DimensionError(f"grid bounds have dimension {lo.size}, data has dimension {d}")
    counts = _grid_numbers(grid_cfg, "points")
    if not isinstance(grid_cfg["points"], list):
        counts = counts * d
    if len(counts) != d or not all(c >= 1 and c.is_integer() for c in counts):
        raise ConfigError(
            f"grid config: field 'points' must give a positive integer count per dimension "
            f"(got {grid_cfg['points']!r})"
        )
    total = math.prod(int(c) for c in counts)
    if total > MAX_GRID_POINTS:
        raise ConfigError(
            f"grid config: field 'points' asks for {total} grid points, above the limit of {MAX_GRID_POINTS}"
        )
    axes = [np.linspace(lo[q], hi[q], int(counts[q])) for q in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


_SUITES = ("sine-tail", "moment-conditions", "l1-bound", "trig-bound", "legendre-bound")


def cmd_verify(args) -> int:
    cfg = _load_json(args.config, "config") if args.config else {}

    def field(name, default, lo):
        return config_int("verify", name, cfg.get(name, default), lo)

    seed = args.seed if args.seed is not None else field("seed", 0, 0)
    suite = args.suite
    where = f"verify config for suite {suite!r}"
    if suite == "sine-tail":
        report = check_sine_tail_bound(p_max=field("p_max", 200, 2), grid_points=field("grid_points", 10_000, 1))
    elif suite == "moment-conditions":
        scn = scenario_from_config(_require(cfg, "scenario", where))
        family = _family_from_config(_require(cfg, "family", where), scn.n, scn.d, "scenario")
        loss = config_enum("verify", "loss", cfg.get("loss", "one"), LossKind)
        report = check_kernel_moment_conditions(family, scn, loss, draws=field("draws", 100_000, 2), seed=seed)
    elif suite == "l1-bound":
        n = config_int("verify", "n", _require(cfg, "n", where), 1)
        family = _family_from_config(_require(cfg, "family", where), n)
        report = check_l1_section_bound(family, seed=seed)
    elif suite == "trig-bound":
        scn = scenario_from_config(_require(cfg, "scenario", where))
        loss = config_enum("verify", "loss", cfg.get("loss", "one"), LossKind)
        m_values = tuple(config_ints("verify", "m_values", cfg.get("m_values", [4, 8, 16, 32]), 1))
        report = check_trig_spectral_boundedness(
            scn, loss, m_values=m_values, draws=field("draws", 10_000, 2), seed=seed
        )
    elif suite == "legendre-bound":
        if "scenario" in cfg:
            source = scenario_from_config(cfg["scenario"])
        else:
            den_cfg = config_object("verify", "density", _require(cfg, "density", where))
            source = Density(
                config_enum("density", "kind", den_cfg.get("kind"), DensityKind),
                config_number("density", "lo", den_cfg.get("lo", -1.0)),
                config_number("density", "hi", den_cfg.get("hi", 1.0)),
            )
        report = check_legendre_boundedness(source, m_max=field("m_max", 50, 1))
    else:  # pragma: no cover - argparse already restricts choices
        raise ConfigError(f"unknown suite {suite!r}")
    out = _out_dir(args)
    _dump_json(report.to_json_dict(), out / f"verify_{suite}.json")
    status = "passed" if report.passed else ("not applicable" if not report.applicable else "FAILED")
    print(f"{report.name}: {status} (margin {report.margin:.6g})")
    if report.applicable and not report.passed:
        raise VerificationFailure(f"suite {suite} failed with margin {report.margin:.6g}")
    return 0


def _require(cfg: dict, field: str, where: str):
    """``cfg[field]``, or a ConfigError that starts with the command's own ``where``."""
    if field not in cfg:
        raise ConfigError(f"{where}: missing field {field!r}")
    return cfg[field]


def cmd_report(args) -> int:
    threads = args.threads
    if threads < 1:
        raise ConfigError(f"--threads must be at least 1 (got {threads})")
    cfg = _load_json(args.config, "config")
    loss = config_enum("report", "loss", cfg.get("loss", "one"), LossKind)
    scn_cfg = config_object("report", "scenario", _require(cfg, "scenario", "report config"))
    n_values = cfg.get("n_values")
    if n_values:
        rows = []
        seed = config_int("scenario", "seed", scn_cfg.get("seed", 0), 0)
        for n in config_ints("report", "n_values", n_values, 1):
            scn = scenario_from_config({**scn_cfg, "n": n, "seed": seed + n})
            family = _family_from_config(_require(cfg, "family", "report config"), n, scn.d, "scenario")
            rep = oracle_experiment(family, scn, loss, threads=threads)
            rows.append(
                {
                    "n": n,
                    "oracle_risk": rep.oracle_risk,
                    "pco_risk": rep.pco_risk,
                    "pco_se": rep.pco_se,
                    "ratio": rep.ratio,
                }
            )
        out = _out_dir(args)
        by_n = [{**r, "ratio": r["ratio"] if math.isfinite(r["ratio"]) else None} for r in rows]
        _dump_json({"schema_version": SCHEMA_VERSION, "loss": loss.value, "by_n": by_n}, out / "risk.json")
        lines = ["n,oracle_risk,pco_risk,pco_se,ratio"]
        for r in rows:
            lines.append(
                ",".join(
                    [str(r["n"])]
                    + [repr(float(r[k])) for k in ("oracle_risk", "pco_risk", "pco_se", "ratio")]
                )
            )
        (out / "risk_vs_n.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote risk-vs-n report for {len(rows)} sample sizes to {out}")
        return 0
    scn = scenario_from_config(scn_cfg)
    family = _family_from_config(_require(cfg, "family", "report config"), scn.n, scn.d, "scenario")
    rep = oracle_experiment(family, scn, loss, threads=threads)
    out = _out_dir(args)
    _dump_json(rep.to_json_dict(), out / "risk.json")
    (out / "risk_by_kernel.csv").write_text(rep.to_csv(), encoding="utf-8")
    print(
        f"oracle risk {rep.oracle_risk:.6g}, selected-kernel risk {rep.pco_risk:.6g}, "
        f"ratio {rep.ratio:.3f}"
    )
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="pcoselect",
        description="Kernel estimation with data-driven kernel selection by comparison to overfitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset from a scenario config")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select", help="run kernel selection on a dataset")
    p.add_argument("--config", required=True, help="family config JSON")
    p.add_argument("--data", required=True, help="dataset CSV (header x1..xd,y)")
    p.add_argument("--loss", default="one", choices=[k.value for k in LossKind])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("estimate", help="evaluate one kernel estimator on a grid")
    p.add_argument("--config", required=True, help="grid config JSON")
    p.add_argument("--data", required=True, help="dataset CSV (header x1..xd,y)")
    p.add_argument("--spec", required=True, help="kernel spec JSON")
    p.add_argument("--loss", default="one", choices=[k.value for k in LossKind])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--config", default=None, help="suite config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="Monte Carlo risk and selection report")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="replications run on this many worker processes, at most the usable CPUs")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DimensionError as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 4
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
