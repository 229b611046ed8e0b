"""End-to-end tests of the command line interface, run in process."""

import json
import time

import numpy as np
import pytest

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
    "l1-points": (["verify", "--suite", "l1-bound"], {"n": 40, "points": "many", "family": _BANDWIDTH}, "'points'"),
    "l1-seed": (["verify", "--suite", "l1-bound"], {"n": 40, "seed": "abc", "family": _BANDWIDTH}, "'seed'"),
    "moment-draws": (
        ["verify", "--suite", "moment-conditions"],
        {"scenario": _scn_cfg(), "family": _BANDWIDTH, "draws": 1},
        "'draws' must be at least 2",
    ),
    "trig-m_values": (["verify", "--suite", "trig-bound"], {"scenario": _scn_cfg(), "m_values": 5}, "'m_values'"),
    "trig-two-m_values": (["verify", "--suite", "trig-bound"], {"scenario": _scn_cfg(), "m_values": [4, 8]}, "m_values"),
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
