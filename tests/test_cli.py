"""End-to-end tests of the command line interface, run in process."""

import csv
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pcoselect
from pcoselect import CheckReport, scenario_from_config, write_sample_csv
from pcoselect.cli import main


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _scn_cfg(**over):
    cfg = {
        "d": 1,
        "f": "uniform",
        "b": {"kind": "sine"},
        "sigma": {"kind": "constant", "c": 0.3},
        "noise": "gaussian",
        "n": 40,
        "replications": 2,
        "seed": 11,
    }
    cfg.update(over)
    return cfg


@pytest.fixture()
def dataset(tmp_path):
    """A simulated 1-d dataset plus its directory."""
    cfg = _write_json(tmp_path / "scn.json", _scn_cfg())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out / "data.csv"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_dataset(tmp_path):
    cfg = _write_json(tmp_path / "scn.json", _scn_cfg(n=30))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "data.csv").read_text().splitlines()
    assert lines[0] == "x1,y"
    assert len(lines) == 31
    echo = json.loads((out / "scenario.json").read_text())
    assert echo["replication"] == 0
    assert echo["scenario"]["n"] == 30


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = _write_json(tmp_path / "scn.json", _scn_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "scenario.json").read_bytes() == (b / "scenario.json").read_bytes()


def test_simulate_seed_override_changes_data(tmp_path):
    cfg = _write_json(tmp_path / "scn.json", _scn_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "data.csv").read_bytes() != (b / "data.csv").read_bytes()


def test_simulate_d2_header(tmp_path):
    cfg = _write_json(tmp_path / "scn.json", _scn_cfg(d=2, n=10))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "data.csv").read_text().splitlines()[0] == "x1,x2,y"


def test_simulate_replication_field(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg0 = _write_json(tmp_path / "s0.json", {**_scn_cfg(), "replication": 0})
    cfg1 = _write_json(tmp_path / "s1.json", {**_scn_cfg(), "replication": 1})
    assert main(["simulate", "--config", cfg0, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg1, "--out", str(b)]) == 0
    assert (a / "data.csv").read_bytes() != (b / "data.csv").read_bytes()


def test_simulate_replication_out_of_range(tmp_path, capsys):
    cfg = _write_json(tmp_path / "scn.json", {**_scn_cfg(), "replication": 7})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_simulate_invalid_noise(tmp_path, capsys):
    cfg = _write_json(tmp_path / "scn.json", _scn_cfg(noise="cauchy"))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "noise" in err


def test_simulate_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _bandwidth_cfg(tmp_path, **over):
    cfg = {"variant": "bandwidth", "base": "gaussian", "h_min": 0.1, "grid": [0.1, 0.3], "d": 1}
    cfg.update(over)
    return _write_json(tmp_path / "family.json", cfg)


def test_select_end_to_end(tmp_path, dataset):
    cfg = _bandwidth_cfg(tmp_path)
    out = tmp_path / "sel"
    rc = main(["select", "--config", cfg, "--data", str(dataset), "--loss", "identity", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "selection.json").read_text())
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 2
    assert 0 <= doc["chosen_index"] < 2
    assert sum(r["chosen"] for r in doc["rows"]) == 1
    lines = (out / "selection.csv").read_text().splitlines()
    assert lines[0] == "index,id,distance,penalty,total,is_k0,is_chosen"
    assert sum(int(line.split(",")[-1]) for line in lines[1:]) == 1


def test_select_singleton_family(tmp_path, dataset):
    cfg = _bandwidth_cfg(tmp_path, grid=[0.3], h_min=0.3)
    out = tmp_path / "sel"
    rc = main(["select", "--config", cfg, "--data", str(dataset), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "selection.json").read_text())
    assert doc["chosen_index"] == 0 and doc["k0_index"] == 0
    assert len(doc["rows"]) == 1


def test_main_parses_every_call_with_one_parser(tmp_path, dataset, capsys):
    from pcoselect.cli import build_parser

    assert build_parser() is build_parser()
    cfg = _bandwidth_cfg(tmp_path)
    with pytest.raises(SystemExit):
        main(["select", "--config", cfg, "--data", str(dataset), "--loss", "nope", "--out", str(tmp_path / "x")])
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    # a failed parse leaves nothing behind: the next call takes its own values and defaults
    assert main(["select", "--config", cfg, "--data", str(dataset), "--out", str(tmp_path / "a")]) == 0
    assert main(["select", "--config", cfg, "--data", str(dataset), "--loss", "one", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "selection.json").read_bytes() == (tmp_path / "b" / "selection.json").read_bytes()
    assert not (tmp_path / "x").exists()


def test_select_reruns_byte_identical(tmp_path, dataset):
    cfg = _bandwidth_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["select", "--config", cfg, "--data", str(dataset), "--out", str(out)]) == 0
    assert (a / "selection.json").read_bytes() == (b / "selection.json").read_bytes()
    assert (a / "selection.csv").read_bytes() == (b / "selection.csv").read_bytes()


def test_select_empty_dataset_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("x1,y\n", encoding="utf-8")
    cfg = _bandwidth_cfg(tmp_path)
    rc = main(["select", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("family,row", [
    # the loss products overflow the totals
    ({"variant": "bandwidth", "h_min": 0.5, "grid": [1.0], "d": 1}, "0.0,1.3407807929942597e+154"),
    ({"variant": "projection", "basis": "trigonometric", "m_max": 3, "d": 1}, "0.5,1e200"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_with_overflowing_sums_is_a_data_error(tmp_path, capsys, family, row):
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n" + row + "\n" + "0.25,0.0\n" * 10, encoding="utf-8")
    cfg = _write_json(tmp_path / "family.json", {"family": family})
    rc = main(["select", "--config", cfg, "--data", str(data), "--loss", "identity", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "is not finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "selection.json").exists()


# the sums overflow in this process, in the series of the wide pairs, and in
# the pool's workers, which sweep the narrow pairs of this n = 2000 family
def test_select_with_overflowing_sums_prints_only_the_data_error(tmp_path):
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    write_sample_csv(data, rng.random((2000, 1)), 1e154 * rng.standard_normal(2000))
    family = {"variant": "bandwidth", "base": "gaussian", "h_min": 0.001,
              "grid": [0.002, 0.005, 0.01, 0.05, 0.2, 0.5], "d": 1}
    cfg = _write_json(tmp_path / "family.json", {"family": family})
    src = os.path.dirname(os.path.dirname(pcoselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "pcoselect.cli", "select", "--config", cfg, "--data", str(data),
                           "--loss", "identity", "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("data error: the criterion of bandwidth:gaussian:h=0.002 is not finite")


def test_select_dimension_mismatch(tmp_path, dataset, capsys):
    cfg = _bandwidth_cfg(tmp_path, d=2, h_min=0.35, grid=[0.35, 0.6])
    rc = main(["select", "--config", cfg, "--data", str(dataset), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "dimension error:" in capsys.readouterr().err


def test_select_bad_family_variant(tmp_path, dataset, capsys):
    cfg = _write_json(tmp_path / "family.json", {"variant": "wavelet"})
    rc = main(["select", "--config", cfg, "--data", str(dataset), "--out", str(tmp_path / "o")])
    assert rc == 2


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_zero_responses_give_zero_curve(tmp_path):
    data = tmp_path / "flat.csv"
    x = np.linspace(0.1, 0.9, 20)[:, None]
    write_sample_csv(data, x, np.zeros(20))
    spec = _write_json(tmp_path / "spec.json", {"variant": "bandwidth", "base": "gaussian", "h": [0.2]})
    grid = _write_json(tmp_path / "grid.json", {"lo": 0.0, "hi": 1.0, "points": 7})
    out = tmp_path / "est"
    rc = main(
        ["estimate", "--config", grid, "--data", str(data), "--spec", spec,
         "--loss", "identity", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "estimate.csv").read_text().splitlines()
    assert lines[0] == "x1,estimate"
    assert len(lines) == 8
    assert all(float(line.split(",")[1]) == 0.0 for line in lines[1:])


def test_estimate_single_point_grid(tmp_path, dataset):
    spec = _write_json(
        tmp_path / "spec.json", {"spec": {"variant": "bandwidth", "base": "gaussian", "h": [0.25]}}
    )
    grid = _write_json(tmp_path / "grid.json", {"grid": {"lo": [0.5], "hi": [0.5], "points": [1]}})
    out = tmp_path / "est"
    rc = main(["estimate", "--config", grid, "--data", str(dataset), "--spec", spec, "--out", str(out)])
    assert rc == 0
    lines = (out / "estimate.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.5,")


def test_estimate_grid_dimension_mismatch(tmp_path, dataset, capsys):
    spec = _write_json(tmp_path / "spec.json", {"variant": "bandwidth", "base": "gaussian", "h": [0.25]})
    grid = _write_json(tmp_path / "grid.json", {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "points": 5})
    rc = main(["estimate", "--config", grid, "--data", str(dataset), "--spec", spec, "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "dimension error:" in capsys.readouterr().err


@pytest.mark.parametrize("h", [float("nan"), float("-inf")])
def test_estimate_non_finite_bandwidth_is_a_config_error(tmp_path, dataset, capsys, h):
    spec = _write_json(tmp_path / "spec.json", {"variant": "bandwidth", "base": "gaussian", "h": [h]})
    grid = _write_json(tmp_path / "grid.json", {"lo": 0.0, "hi": 1.0, "points": 5})
    out = tmp_path / "o"
    rc = main(["estimate", "--config", grid, "--data", str(dataset), "--spec", spec, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: spec config:" in err and "bandwidths h" in err
    assert not (out / "estimate.csv").exists()


@pytest.mark.parametrize("h", [1e-320, 1e-160])
def test_estimate_bandwidth_with_subnormal_square_is_a_config_error(tmp_path, dataset, capsys, h):
    # 1e-320 divided by zero in -0.5 / h^2; 1e-160 wrote nan where a grid point met a sample point
    spec = _write_json(tmp_path / "spec.json", {"variant": "bandwidth", "base": "gaussian", "h": [h]})
    grid = _write_json(tmp_path / "grid.json", {"lo": 0.0, "hi": 1.0, "points": 5})
    out = tmp_path / "o"
    rc = main(["estimate", "--config", grid, "--data", str(dataset), "--spec", spec, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: spec config:" in err and f"h = {h!r}" in err
    assert not (out / "estimate.csv").exists()


def test_estimate_spec_dimension_mismatch(tmp_path, dataset, capsys):
    spec = _write_json(tmp_path / "spec.json", {"variant": "bandwidth", "base": "gaussian", "h": [0.25, 0.25]})
    grid = _write_json(tmp_path / "grid.json", {"lo": 0.0, "hi": 1.0, "points": 5})
    out = tmp_path / "o"
    rc = main(["estimate", "--config", grid, "--data", str(dataset), "--spec", spec, "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "dimension error:" in err and "spec dimension 2 != data dimension 1" in err
    assert not (out / "estimate.csv").exists()


@pytest.mark.parametrize(
    "grid_cfg,message",
    [
        ({"lo": [float("nan")], "hi": [1.0], "points": 5}, "field 'lo' must be finite"),
        ({"lo": 0.0, "hi": [float("inf")], "points": 5}, "field 'hi' must be finite"),
        ({"lo": 0.0, "hi": 1.0, "points": "x"}, "field 'points' must be a number"),
        ({"lo": 0.0, "hi": 1.0, "points": 2.5}, "field 'points' must give a positive integer count"),
        ({"lo": 0.0, "hi": 1.0, "points": 1_000_001}, "above the limit of 1000000"),
    ],
)
def test_estimate_bad_grid_is_a_config_error(tmp_path, dataset, capsys, grid_cfg, message):
    spec = _write_json(tmp_path / "spec.json", {"variant": "bandwidth", "base": "gaussian", "h": [0.25]})
    grid = _write_json(tmp_path / "grid.json", grid_cfg)
    out = tmp_path / "o"
    rc = main(["estimate", "--config", grid, "--data", str(dataset), "--spec", spec, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: grid config:" in err and message in err
    assert not (out / "estimate.csv").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_sine_tail_passes(tmp_path):
    cfg = _write_json(tmp_path / "v.json", {"p_max": 60, "grid_points": 2000})
    out = tmp_path / "ver"
    rc = main(["verify", "--suite", "sine-tail", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "verify_sine-tail.json").read_text())
    assert doc["passed"] is True and doc["applicable"] is True


def test_verify_l1_trig_not_applicable_exits_zero(tmp_path, capsys):
    cfg = _write_json(
        tmp_path / "v.json",
        {"n": 64, "family": {"variant": "projection", "basis": "trigonometric", "m_max": 8, "d": 1}},
    )
    out = tmp_path / "ver"
    rc = main(["verify", "--suite", "l1-bound", "--config", cfg, "--out", str(out)])
    assert rc == 0  # not applicable is not a failure
    doc = json.loads((out / "verify_l1-bound.json").read_text())
    assert doc["passed"] is False and doc["applicable"] is False
    assert doc["margin"] is None
    assert "not applicable" in capsys.readouterr().out


def test_verify_l1_bandwidth_passes(tmp_path):
    cfg = _write_json(
        tmp_path / "v.json",
        {"n": 50, "family": {"variant": "bandwidth", "base": "epanechnikov", "h_min": 0.05, "grid": [0.05, 0.2], "d": 1}},
    )
    rc = main(["verify", "--suite", "l1-bound", "--config", cfg, "--out", str(tmp_path / "ver")])
    assert rc == 0


def test_verify_trig_bound_passes(tmp_path):
    cfg = _write_json(tmp_path / "v.json", {"scenario": _scn_cfg(), "loss": "identity", "draws": 2000})
    rc = main(["verify", "--suite", "trig-bound", "--config", cfg, "--out", str(tmp_path / "ver")])
    assert rc == 0


def test_verify_moment_conditions_passes(tmp_path):
    cfg = _write_json(
        tmp_path / "v.json",
        {
            "scenario": _scn_cfg(n=50),
            "family": {"variant": "bandwidth", "base": "gaussian", "h_min": 0.1, "grid": [0.1, 0.3], "d": 1},
            "loss": "identity",
            "draws": 5000,
        },
    )
    out = tmp_path / "ver"
    rc = main(["verify", "--suite", "moment-conditions", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "verify_moment-conditions.json").read_text())
    assert doc["passed"] is True


@pytest.mark.parametrize("family", [
    {"variant": "projection", "basis": "trigonometric", "m_max": 6, "d": 1},
    {"variant": "projection", "basis": "trigonometric", "m_max": 3, "d": 2},
    {"variant": "projection", "basis": "legendre", "m_max": 5, "d": 1},
    {"variant": "projection", "basis": "legendre", "m_max": 3, "d": 2, "w": [1.0, 0.6, 0.3]},
], ids=["trigonometric-d1", "trigonometric-d2", "legendre-d1", "legendre-d2-w"])
def test_verify_moment_conditions_reads_no_scan_for_the_shipped_nested_bases(tmp_path, monkeypatch, family):
    import pcoselect.kernels as kernels_mod

    # the overfitting member and the item-1 supremum both read the two support endpoints
    monkeypatch.setattr(kernels_mod, "diag_scan_squares", lambda *a: pytest.fail("a member was scanned"))
    support = [-1.0, 1.0] if family["basis"] == "legendre" else [0.0, 1.0]
    scenario = _scn_cfg(d=family["d"], n=50 if family["d"] == 1 else 9, support=support)
    cfg = _write_json(tmp_path / "v.json", {"scenario": scenario, "family": family, "draws": 200})
    rc = main(["verify", "--suite", "moment-conditions", "--config", cfg, "--out", str(tmp_path / "ver")])
    assert rc in (0, 5)
    doc = json.loads((tmp_path / "ver" / "verify_moment-conditions.json").read_text())
    m_max, d = family["m_max"], family["d"]
    # without weights the supremum per axis is m (m + 2) / 2 for Legendre, at
    # the endpoints, and m + 1 at even and m at odd trigonometric orders
    if "w" not in family:
        per_axis = m_max * (m_max + 2) / 2 if family["basis"] == "legendre" else m_max + (m_max + 1) % 2
        assert doc["details"]["item1"]["observed"] == pytest.approx(per_axis**d, rel=1e-14)


def test_verify_legendre_bound_from_density(tmp_path):
    cfg = _write_json(tmp_path / "v.json", {"density": {"kind": "raised_cosine"}, "m_max": 30})
    out = tmp_path / "ver"
    rc = main(["verify", "--suite", "legendre-bound", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "verify_legendre-bound.json").read_text())
    assert doc["passed"] is True


def test_verify_missing_required_field(tmp_path, capsys):
    cfg = _write_json(tmp_path / "v.json", {})
    rc = main(["verify", "--suite", "moment-conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


def test_verify_failure_exits_five(tmp_path, monkeypatch, capsys):
    # every shipped suite checks a mathematically true bound, so a failing
    # report has to be injected to pin the exit-code contract
    import pcoselect.cli as cli

    failing = CheckReport(name="sine-tail", passed=False, margin=-0.25, details={"p_max": 1})
    monkeypatch.setattr(cli, "check_sine_tail_bound", lambda **kw: failing)
    out = tmp_path / "ver"
    rc = main(["verify", "--suite", "sine-tail", "--out", str(out)])
    assert rc == 5
    assert "verification failure:" in capsys.readouterr().err
    # the report is still written before the failure is raised
    doc = json.loads((out / "verify_sine-tail.json").read_text())
    assert doc["passed"] is False and doc["applicable"] is True


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_singleton_family_has_unit_ratio(tmp_path):
    cfg = _write_json(
        tmp_path / "r.json",
        {
            "scenario": _scn_cfg(n=60, replications=4),
            "family": {"variant": "bandwidth", "base": "gaussian", "h_min": 0.2, "grid": [0.2], "d": 1},
            "loss": "identity",
        },
    )
    out = tmp_path / "rep"
    rc = main(["report", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "risk.json").read_text())
    assert doc["ratio"] == 1.0
    assert doc["oracle_index"] == 0
    lines = (out / "risk_by_kernel.csv").read_text().splitlines()
    assert len(lines) == 2


def test_report_risk_vs_n(tmp_path):
    cfg = _write_json(
        tmp_path / "r.json",
        {
            "scenario": _scn_cfg(replications=3),
            "family": {"variant": "bandwidth", "base": "gaussian", "h_min": 0.15, "grid": [0.15, 0.4], "d": 1},
            "loss": "identity",
            "n_values": [40, 60],
        },
    )
    out = tmp_path / "rep"
    rc = main(["report", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "risk.json").read_text())
    assert [row["n"] for row in doc["by_n"]] == [40, 60]
    lines = (out / "risk_vs_n.csv").read_text().splitlines()
    assert lines[0] == "n,oracle_risk,pco_risk,pco_se,ratio"
    assert len(lines) == 3


def test_report_threads_do_not_change_bytes(tmp_path):
    cfg = _write_json(
        tmp_path / "r.json",
        {
            "scenario": _scn_cfg(n=50, replications=4),
            "family": {"variant": "bandwidth", "base": "gaussian", "h_min": 0.15, "grid": [0.15, 0.4], "d": 1},
            "loss": "identity",
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["report", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["report", "--config", cfg, "--out", str(b), "--threads", "4"]) == 0
    assert (a / "risk.json").read_bytes() == (b / "risk.json").read_bytes()
    assert (a / "risk_by_kernel.csv").read_bytes() == (b / "risk_by_kernel.csv").read_bytes()


@pytest.mark.parametrize("over,field", [({"d": 2, "risk_points": 1000000}, "risk_points (axis 2) 1000000"),
                                        ({"d": 3, "n": 6000000}, "n 6000000 x d 3")])
def test_report_with_an_oversized_scenario_is_a_config_error(tmp_path, capsys, over, field):
    cfg = _write_json(tmp_path / "r.json", {"scenario": _scn_cfg(**over),
                                            "family": {"variant": "bandwidth", "h_min": 0.15, "grid": [0.2],
                                                       "d": over["d"]}})
    out = tmp_path / "o"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario") and field in err and "limit of 16777216" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n_values", [None, [50, 60]])
def test_report_with_too_many_replications_is_a_config_error(tmp_path, capsys, n_values):
    # 10^9 replications of a 3-member family: 3 x 10^9 risk rows
    cfg = {"scenario": _scn_cfg(n=50, replications=10**9),
           "family": {"variant": "bandwidth", "h_min": 0.15, "grid": [0.2, 0.3, 0.5], "d": 1}}
    if n_values:
        cfg["n_values"] = n_values
    out = tmp_path / "o"
    assert main(["report", "--config", _write_json(tmp_path / "r.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: oracle experiment: replications 1000000000 x members 3")
    assert "limit of 16777216" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_report_threads_below_one_is_a_config_error(tmp_path, capsys, threads):
    cfg = _write_json(tmp_path / "r.json", {"scenario": _scn_cfg(n=50, replications=2),
                                            "family": {"variant": "bandwidth", "h_min": 0.15, "grid": [0.2], "d": 1}})
    out = tmp_path / "o"
    assert main(["report", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "--threads" in err and f"got {threads}" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# configs rejected with exit code 2
# ---------------------------------------------------------------------------

_BAD_FAMILIES = {
    "h_min-below-cap": ({"variant": "bandwidth", "h_min": 0.001, "grid": [0.1], "d": 1}, "h_min"),
    # d = 1 like the data: a family of another dimension is a dimension error first
    "m_max-power-above-n": ({"variant": "projection", "basis": "trigonometric", "m_max": 41, "d": 1}, "m_max"),
    "m_max-above-m_cap": (
        {"variant": "projection", "basis": "legendre", "m_max": 10, "m_cap": 8, "d": 1},
        "m_max",
    ),
}


def _family_argv(command, family, tmp_path, dataset):
    out = ["--out", str(tmp_path / "o")]
    if command == "select":
        return ["select", "--config", _write_json(tmp_path / "f.json", family), "--data", str(dataset)] + out
    if command == "report":
        cfg = {"scenario": _scn_cfg(), "family": family}
        return ["report", "--config", _write_json(tmp_path / "r.json", cfg)] + out
    cfg = {"n": 40, "family": family}
    return ["verify", "--suite", "l1-bound", "--config", _write_json(tmp_path / "v.json", cfg)] + out


@pytest.mark.parametrize("command", ["select", "report", "verify"])
@pytest.mark.parametrize("case", sorted(_BAD_FAMILIES))
def test_family_builder_errors_are_config_errors(tmp_path, dataset, capsys, command, case):
    family, field = _BAD_FAMILIES[case]
    rc = main(_family_argv(command, family, tmp_path, dataset))
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: family config:" in err and field in err


_BANDWIDTH = {"variant": "bandwidth", "h_min": 0.2, "grid": [0.2, 0.4], "d": 1}
_TRIG = {"variant": "projection", "basis": "trigonometric", "m_max": 3, "d": 1}
_MALFORMED_FIELDS = {
    "h_min-string": ({**_BANDWIDTH, "h_min": "abc"}, "h_min"),
    "h_min-bool": ({**_BANDWIDTH, "h_min": True}, "h_min"),
    "grid-number": ({**_BANDWIDTH, "grid": 5}, "grid"),
    "grid-strings": ({**_BANDWIDTH, "grid": ["0.2"]}, "grid"),
    "d-fractional": ({**_BANDWIDTH, "d": 1.7}, "'d'"),
    "d-bool": ({**_BANDWIDTH, "d": True}, "'d'"),
    "projection-d-string": ({**_TRIG, "d": "1"}, "'d'"),
    "m_max-string": ({**_TRIG, "m_max": "x"}, "m_max"),
    "m_max-fractional": ({**_TRIG, "m_max": 2.5}, "m_max"),
    "m_cap-string": ({**_TRIG, "m_cap": "64"}, "m_cap"),
    "m_cap-bool": ({**_TRIG, "m_cap": False}, "m_cap"),
    "w-string": ({**_TRIG, "w": "abc"}, "'w'"),
    "w-nested": ({**_TRIG, "w": [[1.0]]}, "'w'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_FIELDS))
def test_malformed_family_fields_are_config_errors(tmp_path, dataset, capsys, case):
    family, field = _MALFORMED_FIELDS[case]
    rc = main(_family_argv("select", family, tmp_path, dataset))
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: family config: field" in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "family", [{**_BANDWIDTH, "h_min": 1 / 5, "d": 1.0}, {**_TRIG, "m_max": 3.0, "m_cap": 8.0, "d": 1.0, "w": [1, 0.5, 0.25]}]
)
def test_integral_float_counts_are_accepted(tmp_path, dataset, family):
    assert main(_family_argv("select", family, tmp_path, dataset)) == 0


# a family with this d used to build its members before its dimension was
# compared with the data's: 1e300 overflowed itertools.product, and 40 with
# a two-value grid would have built 2^40 tuples
@pytest.mark.parametrize("command", ["select", "report"])
@pytest.mark.parametrize("family", [{"variant": "bandwidth", "h_min": 1.0, "grid": [1.0], "d": 1e300},
                                    {"variant": "bandwidth", "h_min": 0.95, "grid": [0.95, 1.0], "d": 40}])
def test_family_dimension_is_checked_before_the_family_is_built(tmp_path, dataset, capsys, command, family):
    rc = main(_family_argv(command, family, tmp_path, dataset))
    assert rc == 4
    err = capsys.readouterr().err
    assert "dimension error: family config: field 'd'" in err and "dimension 1" in err
    assert ("data" if command == "select" else "scenario") in err
    assert "Traceback" not in err


# integer fields read with a bare int() used to end in a ValueError or
# ZeroDivisionError traceback, and so did a trend over two orders
_BAD_INTEGER_FIELDS = {
    "simulate-replication": (["simulate"], {**_scn_cfg(), "replication": "x"}, "'replication'"),
    "simulate-n-fractional": (["simulate"], _scn_cfg(n=40.5), "'n'"),
    "l1-n": (["verify", "--suite", "l1-bound"], {"n": "x", "family": _BANDWIDTH}, "'n'"),
    "l1-seed": (["verify", "--suite", "l1-bound"], {"n": 40, "seed": "abc", "family": _BANDWIDTH}, "'seed'"),
    "moment-draws": (
        ["verify", "--suite", "moment-conditions"],
        {"scenario": _scn_cfg(), "family": _BANDWIDTH, "draws": 1},
        "'draws' must be at least 2",
    ),
    "trig-m_values": (["verify", "--suite", "trig-bound"], {"scenario": _scn_cfg(), "m_values": 5}, "'m_values'"),
    "trig-two-m_values": (["verify", "--suite", "trig-bound"], {"scenario": _scn_cfg(), "m_values": [4, 8]}, "m_values"),
    # three equal orders divided the trend slope by a zero spread
    "trig-equal-m_values": (
        ["verify", "--suite", "trig-bound"], {"scenario": {"d": 1, "n": 10}, "m_values": [4, 4, 4]}, "not all equal"
    ),
    "report-n_values": (["report"], {"scenario": _scn_cfg(), "family": _BANDWIDTH, "n_values": ["x"]}, "'n_values'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INTEGER_FIELDS))
def test_bad_integer_fields_are_config_errors(tmp_path, capsys, case):
    argv, cfg, field = _BAD_INTEGER_FIELDS[case]
    rc = main(argv + ["--config", _write_json(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("missing", ["scenario", "family"])
@pytest.mark.parametrize("n_values", [None, [50, 60]])
def test_report_missing_field_names_report(tmp_path, capsys, missing, n_values):
    cfg = {"scenario": _scn_cfg(), "family": _BANDWIDTH, **({"n_values": n_values} if n_values else {})}
    del cfg[missing]
    rc = main(["report", "--config", _write_json(tmp_path / "r.json", cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: report config: missing field {missing!r}\n"


# without a bound on d these enumerated 2^40 tuples, or formed 2^(10^300)
# and overflowed itertools.product
@pytest.mark.parametrize("family", [{"variant": "bandwidth", "h_min": 1.0, "grid": [1.0], "d": 1e300},
                                    {"variant": "bandwidth", "h_min": 0.95, "grid": [0.95, 1.0], "d": 40},
                                    {"variant": "projection", "basis": "trigonometric", "m_max": 2, "d": 1e300}])
def test_family_dimension_is_bounded_before_the_product_grid_is_formed(tmp_path, capsys, family):
    cfg = _write_json(tmp_path / "v.json", {"n": 40, "family": family})
    start = time.perf_counter()
    rc = main(["verify", "--suite", "l1-bound", "--config", cfg, "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: family config: dimension d" in err and "above the limit of 1000000" in err


@pytest.mark.parametrize("command", ["select", "report", "verify", "simulate"])
def test_top_level_json_array_is_a_config_error(tmp_path, dataset, capsys, command):
    cfg = _write_json(tmp_path / "list.json", [{"variant": "bandwidth"}])
    argv = {
        "select": ["select", "--config", cfg, "--data", str(dataset)],
        "report": ["report", "--config", cfg],
        "verify": ["verify", "--suite", "l1-bound", "--config", cfg],
        "simulate": ["simulate", "--config", cfg],
    }[command]
    rc = main(argv + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert "must be a JSON object" in capsys.readouterr().err


# `"scenario": [1]` with n_values ended in an AttributeError traceback
@pytest.mark.parametrize("n_values", [None, [40, 60]])
def test_report_scenario_must_be_an_object(tmp_path, capsys, n_values):
    cfg = {"scenario": [1], "family": _BANDWIDTH, **({"n_values": n_values} if n_values else {})}
    rc = main(["report", "--config", _write_json(tmp_path / "r.json", cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: report config: field 'scenario' must be an object (got list)" in err
    assert "Traceback" not in err


# each of these asked for a table of 4 * 10^7 to 10^10 float64 entries (up to
# 80 GB) before anything compared its size with the memory it needs
_OVERSIZED_TABLES = {
    "sine-tail": ({"p_max": 100_000, "grid_points": 100_000}, "sine-tail: p_max 100000 x grid_points 100000"),
    "legendre-bound": ({"density": {"kind": "raised_cosine"}, "m_max": 10**7}, "legendre-bound: m_max 10000000 x eval_points 2048"),
    "moment-conditions": ({"scenario": _scn_cfg(), "family": _BANDWIDTH, "draws": 10**10}, "moment-conditions: draws 10000000000 x d 1"),
    "moment-conditions-projection": (
        {"scenario": _scn_cfg(), "family": {"variant": "projection", "basis": "trigonometric", "m_max": 40, "d": 1},
         "draws": 10**6},
        "moment-conditions: draws 1000000 x m_max 40",
    ),
    "trig-bound": ({"scenario": _scn_cfg(), "draws": 10**8, "m_values": [4, 8, 100]}, "trig-bound: draws 100000000 x m_values 100"),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED_TABLES))
def test_verify_rejects_an_oversized_table_before_allocating_it(tmp_path, capsys, case):
    cfg, shape = _OVERSIZED_TABLES[case]
    # building the first scenario of a process imports scipy.stats (1-2 s);
    # the time limit is for the check, not for that import
    scenario_from_config(_scn_cfg())
    start = time.perf_counter()
    rc = main(["verify", "--suite", case.removesuffix("-projection"), "--config", _write_json(tmp_path / "v.json", cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {shape} asks for a table of" in err and "above the limit of 16777216" in err
    assert "Traceback" not in err


# the overfitting scan asked for two 10^4 x 2000 float64 tables (320 MB)
# before anything compared their size with the limit; only a weighted
# trigonometric family scans
def test_select_bounds_projection_orders_before_their_tables(tmp_path, capsys):
    rng = np.random.default_rng(3)
    data = tmp_path / "data.csv"
    write_sample_csv(data, rng.random((3000, 1)), rng.standard_normal(3000))
    family = {"variant": "projection", "basis": "trigonometric", "m_cap": 100000, "m_max": 2000, "d": 1,
              "w": [1.0] * 2000}
    cfg = _write_json(tmp_path / "f.json", {"family": family})
    start = time.perf_counter()
    rc = main(["select", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: family config: overfitting scan: scan_points 10000 x m_max 2000 asks for a table of" in err
    assert "above the limit of 16777216" in err and "Traceback" not in err


# a nested selection holds its (N, n) criterion diagonals with each axis's
# basis values and prefix sums, each table within the limit on its own:
# here n 3000 x (2000 members + 2 x 2000 axis columns), about 144 MB
def test_select_bounds_the_nested_criterion_tables_together(tmp_path, capsys, monkeypatch):
    import pcoselect.estimator as estimator_mod

    monkeypatch.setattr(estimator_mod, "basis_matrix", lambda *a: pytest.fail("the basis values were allocated"))
    rng = np.random.default_rng(4)
    data = tmp_path / "data.csv"
    write_sample_csv(data, rng.random((3000, 1)), rng.standard_normal(3000))
    family = {"variant": "projection", "basis": "trigonometric", "m_cap": 100000, "m_max": 2000, "d": 1}
    cfg = _write_json(tmp_path / "f.json", {"family": family})
    out = tmp_path / "o"
    assert main(["select", "--config", cfg, "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("config error: criterion diagonals, basis values and prefix sums at the sample: n 3000 x members + axis"
            " tables 6000 asks for a table of 18000000 entries, above the limit of 16777216") in err
    assert "Traceback" not in err
    assert not out.exists()


# each of these ended in a traceback (exit 1), or, where the scenario drew
# non-finite samples, in a data error (exit 3)
_HUGE = 99999999999999999999999
_TRACEBACK_INPUTS = {
    "density-list": (["verify", "--suite", "legendre-bound"], {"density": [1, 2]}, ["'density'", "(got list)"]),
    "density-lo-string": (
        ["verify", "--suite", "legendre-bound"],
        {"density": {"kind": "raised_cosine", "lo": "x"}},
        ["field 'lo' must be a number", "'x'"],
    ),
    "moment-scenario-list": (
        ["verify", "--suite", "moment-conditions"],
        {"scenario": ["b"], "family": _BANDWIDTH},
        ["scenario config must be an object", "(got list)"],
    ),
    "moment-seed-negative": (
        ["verify", "--suite", "moment-conditions", "--seed", "-1"],
        {"scenario": _scn_cfg(), "family": _BANDWIDTH, "draws": 50},
        ["seed", "(got -1)"],
    ),
    "moment-seed-huge": (
        ["verify", "--suite", "moment-conditions", "--seed", str(_HUGE)],
        {"scenario": _scn_cfg(), "family": _BANDWIDTH, "draws": 50},
        ["seed", str(_HUGE)],
    ),
    "simulate-seed-huge": (["simulate"], {"d": 1, "n": 10, "seed": _HUGE}, ["seed", str(_HUGE)]),
    # the risk-vs-n report draws sample size n with seed + n
    "report-seed-plus-n": (
        ["report"],
        {"scenario": {**_scn_cfg(), "seed": 2**64 - 1}, "family": _BANDWIDTH, "n_values": [10, 20]},
        ["seed", str(2**64 - 1 + 10)],
    ),
    "report-support-infinite": (
        ["report"],
        {"scenario": _scn_cfg(support=[0, float("inf")]), "family": _BANDWIDTH},
        ["field 'support' must be finite", "inf"],
    ),
    "report-b-c-nan": (
        ["report"],
        {"scenario": _scn_cfg(b={"kind": "constant", "c": float("nan")}), "family": _BANDWIDTH},
        ["field 'b.c' must be finite", "nan"],
    ),
}
_TRACEBACK_SPECS = {
    "spec-m_cap-infinite": (
        {"variant": "projection", "basis": "trigonometric", "m": [3], "m_cap": float("inf")},
        ["field 'm_cap' must be an integer", "inf"],
    ),
    "spec-m-infinite": (
        {"variant": "projection", "basis": "trigonometric", "m": [float("inf")]},
        ["field 'm' must be an integer", "inf"],
    ),
    # a bare number was iterated, and a string split into its characters
    "spec-h-number": (
        {"variant": "bandwidth", "base": "gaussian", "h": 0.3},
        ["field 'h' must be a list of numbers", "0.3"],
    ),
    "spec-h-string": (
        {"variant": "bandwidth", "base": "gaussian", "h": "0.3"},
        ["field 'h' must be a list of numbers", "'0.3'"],
    ),
}


@pytest.mark.parametrize("case", sorted(_TRACEBACK_INPUTS) + sorted(_TRACEBACK_SPECS))
def test_config_values_that_raised_are_config_errors(tmp_path, dataset, capsys, case):
    out = ["--out", str(tmp_path / "o")]
    if case in _TRACEBACK_SPECS:
        spec, needles = _TRACEBACK_SPECS[case]
        grid = _write_json(tmp_path / "g.json", {"lo": 0.0, "hi": 1.0, "points": 5})
        argv = ["estimate", "--config", grid, "--data", str(dataset), "--spec", _write_json(tmp_path / "s.json", spec)]
    else:
        argv, cfg, needles = _TRACEBACK_INPUTS[case]
        argv = argv + ["--config", _write_json(tmp_path / "c.json", cfg)]
    assert main(argv + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("config error:") == 1
    assert all(needle in err for needle in needles), err
    assert err.count("spec config:") <= 1


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


# b = sigma = 0 under the identity loss: every risk is 0, so the ratio of
# the selected kernel's risk to the oracle's is not finite
@pytest.mark.parametrize("n_values", [None, [50, 60]])
def test_report_with_zero_risks_writes_strict_json(tmp_path, n_values):
    cfg = {
        "scenario": {"d": 1, "n": 50, "replications": 2},
        "family": {"variant": "bandwidth", "h_min": 0.02, "grid": [0.05, 0.2], "d": 1},
        "loss": "identity",
        **({"n_values": n_values} if n_values else {}),
    }
    out = tmp_path / "rep"
    assert main(["report", "--config", _write_json(tmp_path / "r.json", cfg), "--out", str(out)]) == 0
    doc = _strict_json((out / "risk.json").read_text())
    rows = doc["by_n"] if n_values else [doc]
    assert [row["ratio"] for row in rows] == [None] * len(rows)
    assert all(row["oracle_risk"] == 0.0 for row in rows)
    if n_values:
        assert all(line.endswith(",inf") for line in (out / "risk_vs_n.csv").read_text().splitlines()[1:])


# every field of every config a command reads, replaced in turn by each
# malformed JSON value: the command may run or refuse, but must not crash
_MALFORMED_VALUES = {"list": [1], "object": {"a": 1}, "string": "x", "bool": True, "nan": float("nan"),
                     "infinity": float("inf")}
_SCENARIO_FIELDS = ["d", "f", "b", "b.kind", "b.c", "sigma", "sigma.kind", "sigma.c", "noise", "n", "replications",
                    "seed", "support", "risk_points"]
_SMALL_SCENARIO = {"d": 1, "f": "uniform", "b": {"kind": "constant", "c": 0.5}, "sigma": {"kind": "constant", "c": 0.3},
                   "noise": "uniform", "n": 30, "replications": 2, "seed": 3, "support": [0.0, 1.0], "risk_points": 64}
_BANDWIDTH_FAMILY = {"variant": "bandwidth", "base": "gaussian", "h_min": 0.2, "grid": [0.2, 0.4], "d": 1}
_PROJECTION_FAMILY = {"variant": "projection", "basis": "trigonometric", "m_max": 3, "m_cap": 8, "d": 1,
                      "w": [1.0, 0.5, 0.25]}
_GRID = {"lo": 0.0, "hi": 1.0, "points": 5}
_BANDWIDTH_SPEC = {"variant": "bandwidth", "base": "gaussian", "h": [0.25]}
_PROJECTION_SPEC = {"variant": "projection", "basis": "trigonometric", "m": [3], "m_cap": 8, "w": [1.0, 0.5, 0.25]}


def _prefixed(prefix, fields):
    return [prefix] + [f"{prefix}.{field}" for field in fields]


# name: (argv, config, spec config or None, fields of the replaced config)
_CONFIGS = {
    "simulate": (["simulate"], {**_SMALL_SCENARIO, "replication": 1}, None, _SCENARIO_FIELDS + ["replication"]),
    "select-bandwidth": (["select"], {"family": _BANDWIDTH_FAMILY}, None, _prefixed("family", _BANDWIDTH_FAMILY)),
    "select-projection": (["select"], {"family": _PROJECTION_FAMILY}, None, _prefixed("family", _PROJECTION_FAMILY)),
    "estimate-grid": (["estimate"], {"grid": _GRID}, {"spec": _BANDWIDTH_SPEC}, _prefixed("grid", _GRID)),
    "estimate-bandwidth-spec": (["estimate"], {"grid": _GRID}, {"spec": _BANDWIDTH_SPEC},
                                _prefixed("spec", _BANDWIDTH_SPEC)),
    "estimate-projection-spec": (["estimate"], {"grid": _GRID}, {"spec": _PROJECTION_SPEC},
                                 _prefixed("spec", _PROJECTION_SPEC)),
    "sine-tail": (["verify", "--suite", "sine-tail"], {"p_max": 20, "grid_points": 200, "seed": 0}, None,
                  ["p_max", "grid_points", "seed"]),
    "moment-conditions": (
        ["verify", "--suite", "moment-conditions"],
        {"scenario": _SMALL_SCENARIO, "family": _BANDWIDTH_FAMILY, "loss": "identity", "draws": 200, "seed": 0},
        None,
        _prefixed("scenario", _SCENARIO_FIELDS) + _prefixed("family", _BANDWIDTH_FAMILY) + ["loss", "draws", "seed"],
    ),
    "l1-bound": (["verify", "--suite", "l1-bound"], {"n": 40, "family": _PROJECTION_FAMILY, "seed": 0}, None,
                 ["n", "seed"] + _prefixed("family", _PROJECTION_FAMILY)),
    "trig-bound": (
        ["verify", "--suite", "trig-bound"],
        {"scenario": _SMALL_SCENARIO, "loss": "identity", "m_values": [2, 4, 8], "draws": 200, "seed": 0},
        None,
        _prefixed("scenario", _SCENARIO_FIELDS) + ["loss", "m_values", "draws", "seed"],
    ),
    "legendre-bound": (
        ["verify", "--suite", "legendre-bound"],
        {"density": {"kind": "raised_cosine", "lo": -1.0, "hi": 1.0}, "m_max": 10},
        None,
        ["density", "density.kind", "density.lo", "density.hi", "m_max"],
    ),
    "report": (["report"], {"scenario": _SMALL_SCENARIO, "family": _BANDWIDTH_FAMILY, "loss": "identity"}, None,
               _prefixed("scenario", _SCENARIO_FIELDS) + ["family", "loss"]),
    "report-n_values": (
        ["report"],
        {"scenario": _SMALL_SCENARIO, "family": _BANDWIDTH_FAMILY, "loss": "identity", "n_values": [20, 30]},
        None,
        ["n_values", "scenario.seed", "scenario.n"],
    ),
}
_MALFORMED_CASES = [(name, field) for name, (_, _, _, fields) in _CONFIGS.items() for field in fields]


def _replaced(cfg, path, value):
    """A copy of ``cfg`` with the dotted ``path`` set to ``value``."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path.split(".")
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = value
    return cfg


@pytest.mark.parametrize("value", sorted(_MALFORMED_VALUES))
@pytest.mark.parametrize("name,field", _MALFORMED_CASES, ids=[f"{name}:{field}" for name, field in _MALFORMED_CASES])
def test_malformed_json_values_never_raise(tmp_path, dataset, capsys, name, field, value):
    argv, cfg, spec, _ = _CONFIGS[name]
    replaced = _replaced(spec if field.startswith("spec") else cfg, field, _MALFORMED_VALUES[value])
    cfg, spec = (cfg, replaced) if field.startswith("spec") else (replaced, spec)
    argv = argv + ["--config", _write_json(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    if argv[0] in ("select", "estimate"):
        argv += ["--data", str(dataset)]
    if spec is not None:
        argv += ["--spec", _write_json(tmp_path / "s.json", spec)]
    assert main(argv) in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# select on generated configs and data
# ---------------------------------------------------------------------------

# numbers, and the junk a hand-written config or data file may hold instead
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                  st.integers(-3, 70), st.floats(allow_nan=True, allow_infinity=True))
_MISSING = object()


def _field(draw, valid):
    """A config field: a valid value nine times in ten, else junk or missing."""
    if draw(st.integers(0, 9)):
        return draw(valid)
    return draw(st.one_of(_JUNK, st.just(_MISSING)))


def _sample_csv(draw, d):
    """A sample file: the x1..xd,y header and rows of numbers in and out of
    the supports, among a few rows with non-finite values, too few or too
    many fields, or text."""
    good = st.lists(st.floats(-1.2, 1.2), min_size=d + 1, max_size=d + 1)
    bad = st.one_of(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=d + 1, max_size=d + 1),
                    st.lists(st.floats(-1.0, 1.0), max_size=d + 2), st.text(alphabet="0123456789.,-eax", max_size=8))
    count = draw(st.integers(10, 60)) if draw(st.integers(0, 9)) else 0
    rows = [",".join(map(repr, row)) for row in draw(st.lists(good, min_size=count, max_size=count))]
    for row in draw(st.lists(bad, max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), row if isinstance(row, str) else ",".join(map(repr, row)))
    return "\n".join([",".join([f"x{q + 1}" for q in range(d)] + ["y"])] + rows) + "\n"


def _config(draw, fields):
    """A config of the given field strategies, each one valid nine times in ten (:func:`_field`)."""
    cfg = {name: _field(draw, value) for name, value in fields.items()}
    return {name: value for name, value in cfg.items() if value is not _MISSING}


def _family_config(draw, d, m_max=8, config=None):
    """A family config of either variant in dimension d, from ``config``
    (default :func:`_config`)."""
    if draw(st.booleans()):
        h_min = draw(st.floats(0.05, 0.5))
        fields = {"variant": st.just("bandwidth"), "base": st.sampled_from(["gaussian", "epanechnikov"]),
                  "h_min": st.just(h_min), "grid": st.lists(st.floats(h_min, 1.0), min_size=1, max_size=4),
                  "d": st.just(d)}
    else:
        weights = st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
        fields = {"variant": st.just("projection"),
                  "basis": st.sampled_from(["trigonometric", "regular_histogram", "legendre"]),
                  "m_max": st.integers(1, m_max), "m_cap": st.integers(1, 80), "w": weights, "d": st.just(d)}
    return (config or _config)(draw, fields)


@st.composite
def _select_inputs(draw):
    """A family config of either variant, and a sample file (:func:`_sample_csv`)."""
    d = draw(st.integers(1, 3))
    family = _family_config(draw, d)
    if not draw(st.integers(0, 9)):
        d = draw(st.integers(1, 3))
    return family, _sample_csv(draw, d)


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


# 60 examples take 0.9-1.5 s of the tier-1 run on 2 CPUs.  An overflow is
# either silent or a data error, never a warning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_select_inputs(), loss=st.sampled_from(["one", "identity", "square"]))
def test_select_on_generated_configs_and_data_keeps_the_exit_contract(tmp_path, capsys, inputs, loss):
    family, data = inputs
    work = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    (work / "data.csv").write_text(data, encoding="utf-8")
    argv = ["select", "--config", _write_json(work / "family.json", {"family": family}),
            "--data", str(work / "data.csv"), "--loss", loss, "--out", str(work / "out")]
    rc = main(argv)
    assert rc in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err
    if rc == 0:
        report = json.loads((work / "out" / "selection.json").read_text(encoding="utf-8"),
                            parse_constant=lambda name: pytest.fail(f"selection.json holds {name}"))
        assert _finite_numbers(report)
        with open(work / "out" / "selection.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(np.isfinite(float(row[name])) for row in rows for name in ("distance", "penalty", "total"))


@st.composite
def _estimate_inputs(draw):
    """A spec config of either variant, a grid config, and a sample file
    (:func:`_sample_csv`); grid bounds may be reversed, and the grid, spec
    and data dimensions may differ."""
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3)) if not draw(st.integers(0, 9)) else d
    if draw(st.booleans()):
        fields = {"variant": st.just("bandwidth"), "base": st.sampled_from(["gaussian", "epanechnikov"]),
                  "h": st.lists(st.floats(1e-4, 2.0), min_size=size, max_size=size)}
    else:
        fields = {"variant": st.just("projection"),
                  "basis": st.sampled_from(["trigonometric", "regular_histogram", "legendre"]),
                  "m": st.lists(st.integers(1, 12), min_size=size, max_size=size), "m_cap": st.integers(1, 80),
                  "w": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)}
    spec = _config(draw, fields)
    bound = st.one_of(st.floats(-1.5, 1.5), st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d))
    points = st.one_of(st.integers(1, 9), st.lists(st.integers(1, 9), min_size=d, max_size=d))
    grid = _config(draw, {"lo": bound, "hi": bound, "points": points})
    if not draw(st.integers(0, 9)):
        d = draw(st.integers(1, 3))
    return spec, grid, _sample_csv(draw, d)


# 40 examples take 0.4-0.5 s of the tier-1 run on 2 CPUs.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_estimate_inputs(), loss=st.sampled_from(["one", "identity", "square"]))
# y^2 overflows under the square loss: an infinite estimate, once written with exit 0
@example(inputs=({"variant": "bandwidth", "base": "gaussian", "h": [1.0]}, {"lo": 0.0, "hi": 0.0, "points": 1},
                 "x1,y\n0.0,1.3407807929942597e+154\n\n0.0,0.0\n"), loss="square")
def test_estimate_on_generated_configs_and_data_keeps_the_exit_contract(tmp_path, capsys, inputs, loss):
    spec, grid, data = inputs
    work = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    (work / "data.csv").write_text(data, encoding="utf-8")
    argv = ["estimate", "--config", _write_json(work / "grid.json", {"grid": grid}),
            "--spec", _write_json(work / "spec.json", {"spec": spec}),
            "--data", str(work / "data.csv"), "--loss", loss, "--out", str(work / "out")]
    rc = main(argv)
    assert rc in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err
    if rc == 0:
        with open(work / "out" / "estimate.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(np.isfinite(float(v)) for row in rows for v in row)


def _run_config(draw, fields):
    """A config of the given field strategies: every field valid in half the
    examples, else each field valid nine times in ten (:func:`_config`).  A
    config of many fields is then still often valid, and its command runs."""
    if draw(st.booleans()):
        return {name: draw(value) for name, value in fields.items()}
    return _config(draw, fields)


def _strict_finite_json(path):
    """The artifact at ``path`` read as strict JSON, which must hold no non-finite number."""
    doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=lambda name: pytest.fail(f"{path.name} holds {name}"))
    assert _finite_numbers(doc), path.name
    return doc


def _scenario_config(draw, d):
    """A small scenario config in dimension d (:func:`_config`): n, replications
    and risk points stay small, so a report of it takes milliseconds."""
    from pcoselect.simulation import DensityKind, MeanKind, NoiseKind, SigmaKind

    kinds = lambda kind: st.sampled_from([k.value for k in kind])
    fields = {"d": st.just(d), "f": kinds(DensityKind), "n": st.integers(10, 40), "replications": st.integers(1, 3),
              "seed": st.integers(0, 2**31), "risk_points": st.integers(2, 12),
              "b": st.fixed_dictionaries({"kind": kinds(MeanKind), "c": st.floats(-2.0, 2.0)}),
              "sigma": st.fixed_dictionaries({"kind": kinds(SigmaKind), "c": st.floats(0.0, 1.0)})}
    if draw(st.booleans()):
        fields["noise"] = kinds(NoiseKind)
    if draw(st.booleans()):
        fields["support"] = st.one_of(st.sampled_from([[0.0, 1.0], [-1.0, 1.0]]),
                                      st.tuples(st.floats(-1.5, 0.2), st.floats(0.5, 1.5)).map(list))
    return _run_config(draw, fields)


@st.composite
def _report_inputs(draw):
    """A report config: a scenario, a family (4 members at most per axis), a
    loss and sometimes a list of sample sizes; the scenario and family
    dimensions may differ."""
    d = draw(st.integers(1, 2))
    fields = {"scenario": st.just(_scenario_config(draw, d)),
              "family": st.just(_family_config(draw, d if draw(st.integers(0, 9)) else 3 - d, 4, _run_config)),
              "loss": st.sampled_from(["one", "identity", "square"])}
    if draw(st.booleans()):
        fields["n_values"] = st.lists(st.integers(1, 40), max_size=2)
    return _run_config(draw, fields)


# 30 examples take 2-4 s of the tier-1 run on 2 CPUs.
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_report_inputs())
def test_report_on_generated_configs_keeps_the_exit_contract(tmp_path, capsys, cfg):
    work = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    rc = main(["report", "--config", _write_json(work / "report.json", cfg), "--out", str(work / "out")])
    assert rc in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err
    if rc == 0:
        _strict_finite_json(work / "out" / "risk.json")


@st.composite
def _verify_inputs(draw):
    """A suite and its config, from fields each valid nine times in ten (:func:`_config`)."""
    suite = draw(st.sampled_from(["sine-tail", "moment-conditions", "l1-bound", "trig-bound", "legendre-bound"]))
    d = draw(st.integers(1, 2))
    seed = st.integers(0, 2**31)
    loss = st.sampled_from(["one", "identity", "square"])
    fields = {
        "sine-tail": lambda: {"p_max": st.integers(2, 30), "grid_points": st.integers(1, 300), "seed": seed},
        "moment-conditions": lambda: {"scenario": st.just(_scenario_config(draw, d)),
                                      "family": st.just(_family_config(draw, d, 3, _run_config)), "loss": loss,
                                      "draws": st.integers(2, 200), "seed": seed},
        "l1-bound": lambda: {"n": st.integers(1, 60), "family": st.just(_family_config(draw, d, 4, _run_config)),
                             "seed": seed},
        "trig-bound": lambda: {"scenario": st.just(_scenario_config(draw, 1)), "loss": loss,
                               "m_values": st.lists(st.integers(1, 12), min_size=3, max_size=4, unique=True),
                               "draws": st.integers(2, 200), "seed": seed},
        "legendre-bound": lambda: {"density": st.fixed_dictionaries({"kind": st.sampled_from(
                                       ["uniform", "triangle", "truncated_gaussian", "raised_cosine"]),
                                       "lo": st.just(-1.0), "hi": st.just(1.0)}),
                                   "m_max": st.integers(1, 20)},
    }[suite]()
    return suite, _run_config(draw, fields)


# 40 examples take 2-4 s of the tier-1 run on 2 CPUs.
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_verify_inputs())
def test_verify_on_generated_configs_keeps_the_exit_contract(tmp_path, capsys, inputs):
    suite, cfg = inputs
    work = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    rc = main(["verify", "--suite", suite, "--config", _write_json(work / "verify.json", cfg), "--out", str(work / "out")])
    assert rc in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err
    if rc in (0, 5):
        _strict_finite_json(work / "out" / f"verify_{suite}.json")
