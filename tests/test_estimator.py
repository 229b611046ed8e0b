import csv
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    cross_gram_total,
    epanechnikov_reference_entries,
    epanechnikov_reference_totals,
    quad_section_inner,
    reference_product_tensor,
    reference_read_csv,
    weighted_values_diag,
)
from pcoselect import (
    EPANECHNIKOV,
    GAUSSIAN,
    BandwidthSpec,
    BasisFamily,
    BasisKind,
    ConfigError,
    DataError,
    GramTables,
    KernelFamily,
    LossKind,
    ProjectionSpec,
    Sample,
    concentration_experiment,
    criterion_distance,
    estimate_on_grid,
    estimator_inner,
    kernel_matrix,
    make_bandwidth_family,
    make_projection_family,
    pco_select,
    penalty,
    read_sample_csv,
    sbar_empirical,
    scenario_from_config,
    section_inner_matrix,
    stream,
    u_statistic,
    v_statistic,
    w_statistic,
    write_sample_csv,
)
from pcoselect import numerics
from pcoselect.bases import basis_matrix
from pcoselect.estimator import (
    _SWEEP_ROWS,
    _TRAPEZOID_POINTS,
    _bandwidth_diag_value,
    _bandwidth_rows,
    _distance,
    _grid_width,
    _kernel_sums,
    _product_tensor,
    _reaches_floor,
    _sweep_tables,
    bandwidth_totals,
)
from pcoselect.experiments import statistic_grid
from pcoselect.kernels import section_inner_pointwise, section_sq_norm_points
from pcoselect.quadrature import composite_grid, trapezoid_grid

TRIG = BasisFamily(BasisKind.TRIGONOMETRIC)
HIST = BasisFamily(BasisKind.REGULAR_HISTOGRAM)
LEG = BasisFamily(BasisKind.LEGENDRE)
_W = (1.0, 0.9, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02, 0.01)

# trigonometric, histogram and Legendre at d = 1 and d = 2, weighted and not
PROJECTION_PAIRS = [
    (ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (4,))),
    (ProjectionSpec(HIST, (4,), _W), ProjectionSpec(HIST, (7,))),
    (ProjectionSpec(LEG, (6,)), ProjectionSpec(LEG, (3,), _W)),
    (ProjectionSpec(TRIG, (3, 5), _W), ProjectionSpec(TRIG, (4, 2))),
    (ProjectionSpec(HIST, (2, 3)), ProjectionSpec(HIST, (3, 2), _W)),
    (ProjectionSpec(LEG, (3, 2), _W), ProjectionSpec(LEG, (2, 4), _W)),
    # both weighted, each order above the other's on one axis
    (ProjectionSpec(HIST, (5, 2), _W), ProjectionSpec(HIST, (3, 7), _W)),
]
# histogram samples put every other point on a cell edge of the orders
# above, a support end, or outside [0, 1)
_HIST_EDGES = (0.0, 0.5, 1 / 3, 0.25, 0.2, 2 / 3, 0.75, 3 / 7, 1.0, -0.2, 1.3, 0.4)


def _sample_for(spec, n, seed):
    """A uniform sample with identity loss on the spec's support (the unit box
    for bandwidths); a histogram sample has ``_HIST_EDGES`` points too."""
    s = _uniform_sample(n, d=spec.d, seed=seed, loss=LossKind.IDENTITY)
    if isinstance(spec, BandwidthSpec):
        return s
    lo, hi = spec.basis.support
    x = lo + (hi - lo) * s.x
    if spec.basis.kind is BasisKind.REGULAR_HISTOGRAM:
        for q in range(spec.d):
            x[::2, q] = np.resize(np.roll(_HIST_EDGES, 5 * q), x[::2, q].shape)
    return Sample(x, s.y, LossKind.IDENTITY)


def _uniform_sample(n, d=1, seed=0, loss=LossKind.ONE):
    rng = stream(seed)
    x = rng.random((n, d))
    y = rng.standard_normal(n)
    return Sample(x, y, loss)


# ---------------------------------------------------------------------------
# Sample and loss handling
# ---------------------------------------------------------------------------


def test_loss_kinds():
    y = np.array([-2.0, 0.5, 3.0])
    assert_allclose(LossKind.ONE.apply(y), np.ones(3))
    assert_allclose(LossKind.IDENTITY.apply(y), y)
    assert_allclose(LossKind.SQUARE.apply(y), y * y)


def test_sample_validation():
    with pytest.raises(DataError):
        Sample(np.zeros((3, 1)), np.zeros(2))
    with pytest.raises(DataError):
        Sample(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DataError):
        Sample(np.array([[0.1], [np.nan]]), np.zeros(2))
    with pytest.raises(DataError):
        Sample(np.zeros((2, 1)), np.array([1.0, np.inf]))


def test_sample_accepts_single_row():
    s = Sample(np.array([[0.5]]), np.array([2.0]), LossKind.SQUARE)
    assert s.n == 1 and s.d == 1
    assert_allclose(s.loss_values, [4.0])


def test_with_loss_shares_data():
    s = _uniform_sample(5, loss=LossKind.ONE)
    t = s.with_loss(LossKind.IDENTITY)
    assert t.loss is LossKind.IDENTITY
    assert_allclose(t.x, s.x)
    assert_allclose(t.loss_values, t.y)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    s = _uniform_sample(17, d=2, seed=3)
    path = tmp_path / "data.csv"
    write_sample_csv(path, s.x, s.y)
    back = read_sample_csv(path, LossKind.IDENTITY)
    assert_allclose(back.x, s.x, rtol=0)  # repr round trip is exact
    assert_allclose(back.y, s.y, rtol=0)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.2\n")
    with pytest.raises(DataError):
        read_sample_csv(path)


def test_csv_drops_malformed_rows(tmp_path, caplog):
    path = tmp_path / "mixed.csv"
    path.write_text("x1,y\n0.1,1.0\noops,2.0\n0.3,nan\n0.4,4.0\n")
    with caplog.at_level(logging.WARNING):
        s = read_sample_csv(path)
    assert s.n == 2
    assert "2" in " ".join(r.message for r in caplog.records)  # counted rejection


def test_csv_drops_each_kind_of_bad_row_once(tmp_path, caplog):
    path = tmp_path / "bad_rows.csv"
    path.write_text(
        "x1,x2,y\n0.1,0.2,1.0\nnan,0.2,1.0\n0.3,inf,2.0\n0.4,0.5,-inf\n"
        "0.5,abc,3.0\n0.6,0.7\n\n0.8,0.9,4.0\n"
    )
    with caplog.at_level(logging.WARNING):
        s = read_sample_csv(path)
    assert_allclose(s.x, [[0.1, 0.2], [0.8, 0.9]], rtol=0)
    assert_allclose(s.y, [1.0, 4.0], rtol=0)
    assert [r.getMessage() for r in caplog.records] == [f"{path}: dropped 5 malformed or non-finite rows"]


def test_csv_all_rows_bad(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("x1,y\nbad,worse\n")
    with pytest.raises(DataError):
        read_sample_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        read_sample_csv(path)


def test_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_sample_csv(tmp_path / "nowhere.csv")


def test_csv_undecodable_file_is_a_data_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"x1,y\n0.5,\xff\xfe\n")
    with pytest.raises(DataError, match="not .* text"):
        read_sample_csv(path)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _read_both(path):
    """read_sample_csv against the row-by-row reference: the same x, y and
    warnings bit for bit, or the same DataError message."""
    try:
        x, y, dropped = reference_read_csv(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_sample_csv(path)
        assert str(got.value) == str(exc)
        return
    handler = _Messages()
    logger = logging.getLogger("pcoselect.estimator")
    logger.addHandler(handler)
    try:
        s = read_sample_csv(path)
    finally:
        logger.removeHandler(handler)
    assert s.x.shape == x.shape and s.x.tobytes() == x.tobytes()
    assert s.y.tobytes() == y.tobytes()
    assert handler.messages == ([f"{path}: dropped {dropped} malformed or non-finite rows"] if dropped else [])


@pytest.mark.parametrize("text", [
    "x1,y\n0.25,1.5\n",  # one data row
    "x1,y\n",  # header only
    "x1,y\n\n\r\n",  # header and blank lines
    "x1,y\r\n0.1,2\r\n\r\n0.2,3\r\n",  # CRLF with a blank line
    "x1,y\r0.1,2\r0.2,3",  # CR line ends, no final newline
    "x1,y\n0.1,2\n   \n0.2,3\n",  # whitespace-only line: malformed
    'x1,y\n"0.1",2\n0.2,3\n',  # quoted field, a number
    'x1,y\n"0.1,0.3",2\n0.2,3\n',  # quoted field with a comma
    "x1,x2,y\n0.1,0.2,1\n0.1,0.2\n0.1,0.2,1,4\n",  # wrong field counts
    "x1,y\n1_0,2\nabc,2\n1e400,2\n0.1,2\n",  # float() reads 1_0; 1e400 is inf
    "x1,y\nnan,1\nInfinity,2\n-inf,3\n",  # only non-finite rows
    "x1,y\n\x1c0.1,2\n0.2,3\n",  # numpy strips \x1c as whitespace, float() refuses it
    "x1,y\n0.1,2\x0c0.3,4\n0.5,6\n",  # str.splitlines breaks lines at \x0c, csv does not
    "x1,y\n0.1,2\u20280.3,4\n0.5,6\n",  # nor at \u2028
    '"x1",y\n0.1,2\n',  # quoted header
])
def test_csv_reader_edge_cases_match_reference(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _read_both(path)


def _refuse(*args, **kwargs):
    raise AssertionError("csv.reader called")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_csv_line_ends_read_the_written_values(tmp_path, monkeypatch, end):
    s = _uniform_sample(40, d=2, seed=4)
    write_sample_csv(tmp_path / "lf.csv", s.x, s.y)
    lines = (tmp_path / "lf.csv").read_text().splitlines()
    text = end.join(lines[:10] + [""] + lines[10:]) + end  # one blank line
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    # a well-formed file takes the one numpy parse, never the csv rows
    monkeypatch.setattr(csv, "reader", _refuse)
    back = read_sample_csv(path)
    assert back.x.tobytes() == s.x.tobytes() and back.y.tobytes() == s.y.tobytes()


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-999, 999).map(str)
# Fields where numpy's parser and ``float`` might disagree: Unicode spaces and
# digits, a NUL, ASCII separators (numpy strips \x1c as whitespace, ``float``
# refuses it), line breaks of ``str.splitlines`` alone, under- and overflow and
# a decimal longer than 17 digits.
_FIELDS = _NUMBERS | st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "abc", "", " ", "1_0", "0x1p3",
                                      '"0.5"', '"1,2"', "1e400", " 0.5 ", "\xa00.5", "1.5e", "0.5\x00", "\u0661",
                                      "+inf", "-nan", "1e-400", "1234567890123456789012345678901234567890",
                                      "\x1c0.5", "0.5\x1f", "0.5\x0c", "\x0b1", "0.5\u2028"])


@st.composite
def _csv_texts(draw):
    d = draw(st.integers(1, 3))
    good = st.lists(_NUMBERS, min_size=d + 1, max_size=d + 1).map(",".join)
    bad = st.lists(_FIELDS, min_size=1, max_size=d + 2).map(",".join)
    blank = st.sampled_from(["", " ", "\t", "  \t "])
    lines = draw(st.lists(st.one_of(good, good, bad, blank), max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines) + 1, max_size=len(lines) + 1))
    header = ",".join([f"x{q + 1}" for q in range(d)] + ["y"])
    text = header + ends[0] + "".join(line + end for line, end in zip(lines, ends[1:]))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=150, deadline=None)
@given(_csv_texts())
def test_csv_reader_matches_row_by_row_reference(text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        _read_both(path)


@pytest.mark.parametrize("text", ['x1,y\n"0.1",2\n0.2,3\n', "x1,y\n0.1,2\nabc,3\n", "x1,y\n0.1,2,4\n0.2,3\n"],
                         ids=["quoted", "unparseable", "field-count"])
def test_refused_csv_is_read_row_by_row(tmp_path, monkeypatch, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    monkeypatch.setattr(csv, "reader", _refuse)
    with pytest.raises(AssertionError, match="csv.reader called"):
        read_sample_csv(path)


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------


def test_estimate_single_observation_is_kernel_section():
    spec = BandwidthSpec(GAUSSIAN, (0.3,))
    s = Sample(np.array([[0.4]]), np.array([7.0]), LossKind.ONE)
    x = np.array([[0.55]])
    want = kernel_matrix(spec, s.x, x)[0, 0]
    assert estimate_on_grid(spec, s, x)[0] == pytest.approx(want, rel=1e-14)


def test_estimate_histogram_hand_count():
    # two of four points share the anchor's cell of width 1/2
    spec = ProjectionSpec(HIST, (2,))
    s = Sample(np.array([[0.1], [0.2], [0.6], [0.8]]), np.zeros(4), LossKind.ONE)
    assert estimate_on_grid(spec, s, np.array([[0.25]]))[0] == pytest.approx(1.0)


def test_estimate_zero_responses():
    spec = BandwidthSpec(GAUSSIAN, (0.2,))
    s = Sample(np.array([[0.2], [0.5], [0.9]]), np.zeros(3), LossKind.IDENTITY)
    grid = np.linspace(0, 1, 7).reshape(-1, 1)
    assert_allclose(estimate_on_grid(spec, s, grid), np.zeros(7))


def test_estimate_on_grid_matches_pointwise():
    spec = ProjectionSpec(TRIG, (5,))
    s = _uniform_sample(40, seed=9, loss=LossKind.IDENTITY)
    grid = np.linspace(0, 1, 31).reshape(-1, 1)
    vals = estimate_on_grid(spec, s, grid)
    for k in (0, 11, 30):
        assert_allclose(vals[k], estimate_on_grid(spec, s, grid[k : k + 1])[0], rtol=1e-12)


@pytest.mark.parametrize(
    "base,d,n",
    [(GAUSSIAN, 1, 700), (GAUSSIAN, 2, 300), (EPANECHNIKOV, 1, 700), (EPANECHNIKOV, 2, 300), (GAUSSIAN, 1, 1)],
)
def test_family_grid_evaluation_matches_kernel_matrix(base, d, n):
    # a point count past two whole column blocks, so the last block is partial
    s = _uniform_sample(n, d=d, seed=40, loss=LossKind.IDENTITY)
    rng = stream(41)
    width = _grid_width(n, d)
    assert width < 1000 or n == 1
    pts = rng.uniform(-0.1, 1.1, size=(2 * width + 7 if n > 1 else 50, d))
    specs = [BandwidthSpec(base, tuple(rng.uniform(0.02, 0.4, d))) for _ in range(4)]
    rows = estimate_on_grid(specs, s, pts)
    assert rows.shape == (4, len(pts))
    for spec, row in zip(specs, rows):
        want = s.loss_values @ kernel_matrix(spec, s.x, pts) / n
        # values cross zero under the identity loss: relative to the curve's scale
        assert_allclose(row, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        assert np.array_equal(estimate_on_grid(spec, s, pts), row)


# one member per kernel kind, with the weighted side on the member's support
_KERNEL_SUM_MEMBERS = {
    "gaussian-d1": BandwidthSpec(GAUSSIAN, (0.07,)),
    # exponents down to -0.5 / 0.004^2, far below the -700 floor
    "gaussian-d1-floor": BandwidthSpec(GAUSSIAN, (0.004,)),
    "gaussian-d2": BandwidthSpec(GAUSSIAN, (0.05, 0.2)),
    "epanechnikov-d1": BandwidthSpec(EPANECHNIKOV, (0.1,)),
    "epanechnikov-d2": BandwidthSpec(EPANECHNIKOV, (0.15, 0.3)),
    "trigonometric-d2": ProjectionSpec(TRIG, (3, 6), _W),
    "histogram-d1": ProjectionSpec(HIST, (7,), _W),
    "legendre-d1": ProjectionSpec(LEG, (9,)),
}


def _weighted_points(spec, n, seed):
    """n points on the spec's support (the unit box for bandwidths) and signed weights."""
    rng = stream(seed)
    lo, hi = (0.0, 1.0) if isinstance(spec, BandwidthSpec) else spec.basis.support
    return lo + (hi - lo) * rng.random((n, spec.d)), rng.standard_normal(n)


@pytest.mark.parametrize("case", sorted(_KERNEL_SUM_MEMBERS))
def test_kernel_sums_match_the_pointwise_kernel(case):
    spec = _KERNEL_SUM_MEMBERS[case]
    x, w = _weighted_points(spec, 600, seed=60)
    points, _ = _weighted_points(spec, 450, seed=61)
    got = _kernel_sums([spec], x, w, points)[0]
    k = kernel_matrix(spec, x, points)
    if case.endswith("floor"):
        assert np.any(k == 0.0)
    # per entry, against the sum of the magnitudes: some exact values are 0
    assert np.all(np.abs(got - w @ k) <= 1e-12 * (np.abs(w) @ np.abs(k)))


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_sums_of_a_family_are_the_rows_of_its_members(d):
    specs = [s for s in _KERNEL_SUM_MEMBERS.values() if s.d == d and not isinstance(s, ProjectionSpec)]
    specs += [ProjectionSpec(TRIG, (5,) * d), ProjectionSpec(TRIG, (2,) * d, _W), ProjectionSpec(HIST, (3,) * d)]
    x, w = _weighted_points(specs[-1], 300, seed=62)
    points, _ = _weighted_points(specs[-1], 700, seed=63)
    rows = _kernel_sums(specs, x, w, points)
    for spec, row in zip(specs, rows):
        assert np.array_equal(_kernel_sums([spec], x, w, points)[0], row)


def _per_member_expansion(spec, s, points):
    """The per-member projection path: a fresh coefficient tensor and basis at the member's own order."""
    coeffs = GramTables(s).coefficients(spec)
    out = np.empty(len(points))
    for start in range(0, len(points), 1024):
        block = points[start : start + 1024]
        mats = [basis_matrix(spec.basis, mq, block[:, q]) * spec.weights_for(mq) for q, mq in enumerate(spec.m)]
        z = mats[0] @ coeffs.reshape(spec.m[0], -1)
        for q in range(1, spec.d):
            z = np.einsum("pjr,pj->pr", z.reshape(len(block), spec.m[q], -1), mats[q])
        out[start : start + 1024] = z[:, 0] / s.n
    return out


@pytest.mark.parametrize(
    "basis,d,m_max,w", [(TRIG, 1, 12, None), (LEG, 1, 9, _W), (HIST, 1, 9, None), (TRIG, 2, 4, _W), (LEG, 2, 3, None), (HIST, 2, 3, _W)]
)
def test_projection_family_grid_is_bit_identical_to_per_member_path(monkeypatch, basis, d, m_max, w):
    import pcoselect.estimator as estimator_mod

    s = _sample_for(ProjectionSpec(basis, (1,) * d), 90, seed=42)
    fam = make_projection_family(basis, m_max, d, s.n, w)
    lo, hi = basis.support
    pts = stream(43).uniform(lo - 0.05, hi + 0.05, size=(2500, d))
    tables = GramTables(s)
    pco_select(fam, s, tables)
    rows = estimate_on_grid(fam.specs, tables, pts)
    for spec, row in zip(fam.specs, rows):
        assert np.array_equal(row, _per_member_expansion(spec, s, pts))
    assert np.array_equal(estimate_on_grid(fam.specs, s, pts), rows)
    # one basis evaluation per 1024 points instead of one for all
    monkeypatch.setattr(estimator_mod, "_BASIS_VALUES", 1)
    assert np.array_equal(estimate_on_grid(fam.specs, tables, pts), rows)


def test_grid_evaluation_memory_is_bounded(monkeypatch):
    import tracemalloc

    # a kernel table per 1024 points took 40 MB at n = 5000; the scratch is fixed.
    # tracemalloc sees this process only: keep every block in it
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    s = _uniform_sample(5000, seed=44)
    specs = [BandwidthSpec(GAUSSIAN, (0.01,)), BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(EPANECHNIKOV, (0.1,))]
    pts = np.linspace(0.0, 1.0, 2048).reshape(-1, 1)
    tracemalloc.start()
    try:
        estimate_on_grid(specs, s, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("base", [GAUSSIAN, EPANECHNIKOV])
def test_banded_rows_match_kernel_matrix(base, d):
    n = 400 if d == 1 else 200
    s = _uniform_sample(n, d=d, seed=46, loss=LossKind.IDENTITY)
    # inside the sample's box and outside it on every side, unsorted, over several column blocks
    pts = stream(47).uniform(-0.5, 1.5, size=(3 * _grid_width(n, d) + 5, d))
    specs = [BandwidthSpec(base, (h,) * d) for h in np.geomspace(1.0 / n, 1.0, 7)]
    if d == 2:
        specs += [BandwidthSpec(base, hs) for h in (1.0 / n, 0.05) for hs in ((h, 0.2), (0.2, h))]
    for spec, row in zip(specs, estimate_on_grid(specs, s, pts)):
        want = s.loss_values @ kernel_matrix(spec, s.x, pts) / n
        assert_allclose(row, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_gaussian_points_off_the_data_sum_their_nearest_sample_points():
    # every point lies 18 h to 68 h from its nearest sample point, past the 9.12 h reach among the data
    h = 0.01
    s = Sample(np.array([[-0.18], [-0.2], [1.5]]), np.array([1.0, -2.0, 0.5]), LossKind.IDENTITY)
    pts = np.linspace(0.0, 1.0, 41)[:, None]
    spec = BandwidthSpec(GAUSSIAN, (h,))
    row = estimate_on_grid(spec, s, pts)
    want = s.loss_values @ kernel_matrix(spec, s.x, pts) / s.n
    assert 0.0 < np.max(np.abs(want)) < 1e-60
    assert_allclose(row, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    # from 37.4 h, where every exponent is below the floor, a point reads exactly 0
    assert np.array_equal(estimate_on_grid(spec, s, [[0.2], [1.5 - 0.375]]), [0.0, 0.0])


def test_epanechnikov_entries_at_the_edge_of_their_window(monkeypatch):
    import pcoselect.estimator as estimator_mod

    # one point per column block, so each window spans just the member's reach
    monkeypatch.setattr(estimator_mod, "_GRID_SCRATCH", 1)
    spec = BandwidthSpec(EPANECHNIKOV, (0.125,))
    # exact in binary: at |delta| = h (1 - 2^-52) an entry is 2^-51 of its peak, at h (1 + 2^-52) it is 0
    edge = 0.125 * np.array([1 - 2.0**-52, -1 + 2.0**-52, 1 + 2.0**-52, -1 - 2.0**-52])
    got = _kernel_sums([spec], np.zeros((1, 1)), np.ones(1), edge[:, None])[0]
    assert np.array_equal(got, [2.0**-51 * 6.0] * 2 + [0.0] * 2)
    assert np.array_equal(got, kernel_matrix(spec, np.zeros((1, 1)), edge[:, None])[0])
    # rounding leaves these entries 2^-53 though each x lies below the rounded p - h
    h, p = 0.6709537902789366, 0.5887580462970003
    past = np.array([[-0.08219574398193631], [-0.08219574398193633]])
    assert np.all(past < p - h)
    assert np.all(np.maximum((past - p) ** 2 * (-1.0 / (h * h)) + 1.0, 0.0) == 2.0**-53)
    assert _kernel_sums([BandwidthSpec(EPANECHNIKOV, (h,))], past, np.ones(2), [[p]])[0, 0] == 2.0**-52 * 0.75 / h
    # sample points over 2h apart, and points within 3 ulp of x_i -+ h: every sum has one
    # term, the entry as the block path rounds it, whichever side of the edge it falls
    rng = stream(48)
    x = (0.05 * np.arange(40) + 0.01 * rng.random(40))[:, None]
    w = rng.standard_normal(40)
    h = 1.0 / 64
    pts = np.concatenate([(p.view(np.int64) + k).view(np.float64)
                          for p in (x[:, 0] + h, x[:, 0] - h) for k in range(-3, 4)])[:, None]
    entries = np.maximum((x - pts.T) ** 2 * (-1.0 / (h * h)) + 1.0, 0.0)
    assert len(pts) / 4 < np.count_nonzero(entries.any(axis=0)) < len(pts) * 3 / 4
    want = np.sum(w[:, None] * entries, axis=0) * (0.75 / h)
    assert np.array_equal(_kernel_sums([BandwidthSpec(EPANECHNIKOV, (h,))], x, w, pts)[0], want)


@pytest.mark.parametrize("d", [1, 2])
def test_banded_member_keeps_its_bits_beside_a_wider_member(d):
    s = _uniform_sample(500, d=d, seed=49, loss=LossKind.IDENTITY)
    pts = stream(50).uniform(-0.2, 1.2, size=(3 * _grid_width(500, d) + 1, d))
    pairs = [(GAUSSIAN, 0.01, GAUSSIAN, 0.3), (EPANECHNIKOV, 0.02, GAUSSIAN, 0.5), (GAUSSIAN, 0.002, EPANECHNIKOV, 0.3)]
    for base, h, wide_base, wide_h in pairs:
        narrow, wide = BandwidthSpec(base, (h,) * d), BandwidthSpec(wide_base, (wide_h,) * d)
        alone = estimate_on_grid(narrow, s, pts)
        assert np.array_equal(estimate_on_grid([wide, narrow], s, pts)[1], alone)
        assert np.array_equal(estimate_on_grid([narrow, wide], s, pts)[0], alone)


@pytest.mark.parametrize("d", [1, 2])
def test_banded_rows_follow_a_permutation_of_the_sample_or_the_points(d):
    s = _uniform_sample(600, d=d, seed=51, loss=LossKind.IDENTITY)
    rng = stream(52)
    # at d = 2 a tensor grid, whose points share their first coordinates
    pts = rng.uniform(-0.1, 1.1, (2000, 1)) if d == 1 else trapezoid_grid([-0.1] * 2, [1.1] * 2, 45).points
    specs = [BandwidthSpec(GAUSSIAN, (0.01,) * d), BandwidthSpec(EPANECHNIKOV, (0.05,) * d),
             BandwidthSpec(GAUSSIAN, (0.2,) * d)]
    rows = estimate_on_grid(specs, s, pts)
    perm = rng.permutation(s.n)
    shuffled = Sample(s.x[perm], s.y[perm], LossKind.IDENTITY)
    assert np.array_equal(estimate_on_grid(specs, shuffled, pts), rows)
    perm = rng.permutation(len(pts))
    assert np.array_equal(estimate_on_grid(specs, s, pts[perm]), rows[:, perm])


def test_nan_points_read_nan_in_any_column_block():
    s = _uniform_sample(300, seed=54)
    width = _grid_width(s.n, 1)
    # NaN points sort last: one block shares them with finite points, the next holds only NaN
    pts = np.concatenate([np.linspace(0.0, 1.0, width + 3), np.full(width + 5, np.nan)])[:, None]
    specs = [BandwidthSpec(GAUSSIAN, (0.01,)), BandwidthSpec(EPANECHNIKOV, (0.05,))]
    rows = estimate_on_grid(specs, s, pts)
    assert np.all(np.isnan(rows[:, width + 3 :]))
    for spec, row in zip(specs, rows):
        want = s.loss_values @ kernel_matrix(spec, s.x, pts[: width + 3]) / s.n
        assert_allclose(row[: width + 3], want, rtol=1e-12, atol=1e-12 * np.max(want))


def test_points_at_infinity_read_exactly_zero():
    # the Gaussian kernel is exactly 0 there, not the floored exponent's e^-700
    h = 0.1
    specs = [BandwidthSpec(GAUSSIAN, (h,)), BandwidthSpec(EPANECHNIKOV, (h,))]
    s = _uniform_sample(300, seed=55)
    rows = estimate_on_grid(specs, s, np.array([[0.5], [0.2], [np.inf], [-np.inf]]))
    assert np.all(rows[:, 2:] == 0.0)
    assert np.all(rows[:, :2] > 0.0)
    s2 = _uniform_sample(300, d=2, seed=56)
    specs2 = [BandwidthSpec(GAUSSIAN, (h, h)), BandwidthSpec(EPANECHNIKOV, (h, h))]
    rows = estimate_on_grid(specs2, s2, np.array([[0.5, np.inf], [np.inf, 0.5], [-np.inf, np.nan], [0.5, 0.5]]))
    assert np.all(rows[:, :2] == 0.0)
    # a NaN point still reads NaN, an infinite coordinate beside it or not
    assert np.all(np.isnan(rows[:, 2]))
    assert np.all(rows[:, 3] > 0.0)


def test_grid_pool_threshold_counts_banded_entries(monkeypatch):
    import pcoselect.estimator as estimator_mod

    maps = []
    real_map = numerics.pooled_map
    monkeypatch.setattr(numerics, "pooled_map",
                        lambda build, args, items: maps.append(len(items)) or real_map(build, args, items))
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    s = _uniform_sample(5000, seed=53)
    pts = np.linspace(0.0, 1.0, 4001).reshape(-1, 1)
    # 20 million entries unbanded, under a million in the windows: in this process
    assert s.n * len(pts) > 20 * estimator_mod._FORK_WORK
    estimate_on_grid(BandwidthSpec(EPANECHNIKOV, (0.001,)), s, pts)
    assert maps == []
    # a member whose every window is the whole sample maps its blocks
    estimate_on_grid(BandwidthSpec(EPANECHNIKOV, (1.0,)), s, pts)
    assert maps == [math.ceil(len(pts) / _grid_width(s.n, 1))]


# Gaussian members on the uniform axis of a trapezoid grid: (lo, hi, points,
# n, bandwidths, members expected on the factored path)
_AXIS_CASES = {
    "unit": (0.0, 1.0, 2048, 1000, (0.01, 0.05, 0.3), 3),
    "symmetric": (-1.0, 1.0, 1001, 400, (0.02, 0.2, 1.0), 3),
    "shifted": (5.0, 6.0, 777, 300, (0.01, 0.1), 2),
    # one partial block of anchors, and a block of two points
    "short": (-0.5, 0.25, 33, 120, (0.03,), 1),
    "two-points": (0.0, 1.0, 2, 50, (0.5, 1.0), 2),
    # h = 1/n gives stride 2: the block path, bit for bit
    "fallback": (0.0, 1.0, 2048, 1000, (1e-3,), 0),
    # from n = 2^18 / 12 on every member takes the block path
    "large-n": (0.0, 1.0, 64, 22000, (0.1,), 0),
}


def _counting_axis_rows(monkeypatch):
    import pcoselect.estimator as estimator_mod

    calls = []
    real = estimator_mod._axis_rows
    monkeypatch.setattr(estimator_mod, "_axis_rows", lambda spec, *a: calls.append(spec) or real(spec, *a))
    return calls


@pytest.mark.parametrize("case", sorted(_AXIS_CASES))
def test_uniform_axis_rows_match_the_block_path(monkeypatch, case):
    lo, hi, count, n, hs, factored = _AXIS_CASES[case]
    grid = trapezoid_grid(lo, hi, count)
    rng = stream(90)
    x = lo + (hi - lo) * rng.random((n, 1))
    # a (k, n) stack with a signed loss row
    w = np.stack([np.ones(n), np.sin(6.0 * x[:, 0]) + 0.3 * rng.standard_normal(n)])
    specs = [BandwidthSpec(GAUSSIAN, (h,)) for h in hs] + [BandwidthSpec(EPANECHNIKOV, (0.1,))]
    calls = _counting_axis_rows(monkeypatch)
    got = _kernel_sums(specs, x, w, grid, n)
    assert len(calls) == factored
    want = _bandwidth_rows(specs, x, w, grid.points, n)
    assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=2, keepdims=True))
    # members off the factored path keep their bits
    assert np.array_equal(got[factored:], want[factored:])
    assert np.array_equal(estimate_on_grid(specs, Sample(x, w[1], LossKind.IDENTITY), grid), got[:, 1])


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-3.0, 6.0),
    width=st.floats(0.05, 4.0),
    count=st.integers(2, 300),
    n=st.integers(1, 150),
    log_h=st.floats(-3.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_uniform_axis_rows_match_the_block_path_property(lo, width, count, n, log_h, seed):
    grid = trapezoid_grid(lo, lo + width, count)
    rng = stream(seed)
    # the sample may reach past the axis on either side
    x = lo + width * rng.uniform(-0.2, 1.2, (n, 1))
    w = np.stack([np.ones(n), rng.standard_normal(n)])
    specs = [BandwidthSpec(GAUSSIAN, (width * 10.0**log_h,))]
    got = _kernel_sums(specs, x, w, grid, n)
    want = _bandwidth_rows(specs, x, w, grid.points, n)
    # against the rows of the weights' magnitudes: a signed row may cancel to 0
    scale = np.max(_bandwidth_rows(specs, x, np.abs(w), grid.points, n), axis=2, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("d", [1, 2])
def test_grids_without_a_uniform_axis_keep_their_bits(d):
    # a d = 2 trapezoid grid and a Gauss-Legendre grid record no axis
    s = _uniform_sample(300, d=d, seed=91, loss=LossKind.IDENTITY)
    spec = BandwidthSpec(GAUSSIAN, (0.05,) * d)
    grid = trapezoid_grid([0.0] * d, [1.0] * d, 40) if d == 2 else composite_grid([0.0], [1.0])
    assert np.array_equal(estimate_on_grid(spec, s, grid), estimate_on_grid(spec, s, grid.points))


def test_estimate_dimension_mismatch():
    spec = BandwidthSpec(GAUSSIAN, (0.2, 0.2))
    s = _uniform_sample(5, d=1)
    with pytest.raises(ValueError):
        estimate_on_grid(spec, s, np.array([[0.5, 0.5]]))


# ---------------------------------------------------------------------------
# estimator inner products
# ---------------------------------------------------------------------------


def test_estimator_inner_single_observation():
    spec = BandwidthSpec(GAUSSIAN, (0.4,))
    s = Sample(np.array([[0.6]]), np.array([1.0]), LossKind.ONE)
    want = section_sq_norm_points(spec, np.array([[0.6]]))[0]
    assert estimator_inner(spec, spec, s) == pytest.approx(want, rel=1e-13)


def test_estimator_inner_coefficient_space_oracle():
    # nested basis: <shat_a, shat_b> is the dot product of shared empirical
    # coefficients a_j = (1/n) sum_i phi_j(X_i) ell(Y_i)
    s = _uniform_sample(60, seed=12, loss=LossKind.IDENTITY)
    a, b = ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (5,))
    got = estimator_inner(a, b, s)
    coeff = basis_matrix(TRIG, 9, s.x[:, 0]).T @ s.loss_values / s.n
    want = float(np.sum(coeff[:5] * coeff[:5]))
    assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize(
    "a,b",
    [
        (BandwidthSpec(GAUSSIAN, (0.15,)), BandwidthSpec(GAUSSIAN, (0.45,))),
        (ProjectionSpec(HIST, (4,)), ProjectionSpec(HIST, (7,))),
        (ProjectionSpec(TRIG, (5,), (1.0, 0.8, 0.8, 0.5, 0.5)), ProjectionSpec(TRIG, (8,))),
    ],
)
def test_estimator_inner_grid_oracle(a, b):
    s = _uniform_sample(50, seed=21, loss=LossKind.IDENTITY)
    got = estimator_inner(a, b, s)
    cuts = sorted({i / 4 for i in range(5)} | {i / 7 for i in range(8)})
    grid = composite_grid([-4.0], [5.0], [cuts])
    va = estimate_on_grid(a, s, grid.points)
    vb = estimate_on_grid(b, s, grid.points)
    want = grid.integrate(va * vb)
    assert_allclose(got, want, atol=1e-6)


def test_estimator_inner_cauchy_schwarz():
    s = _uniform_sample(30, seed=4, loss=LossKind.IDENTITY)
    specs = [BandwidthSpec(GAUSSIAN, (h,)) for h in (0.1, 0.3)] + [
        BandwidthSpec(GAUSSIAN, (0.8,))
    ]
    for a in specs:
        for b in specs:
            lhs = estimator_inner(a, b, s) ** 2
            rhs = estimator_inner(a, a, s) * estimator_inner(b, b, s)
            assert lhs <= rhs + 1e-12


def test_estimator_inner_scales_quadratically_in_y():
    s = _uniform_sample(25, seed=6, loss=LossKind.IDENTITY)
    scaled = Sample(s.x, 3.0 * s.y, LossKind.IDENTITY)
    a, b = BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(GAUSSIAN, (0.5,))
    assert_allclose(
        estimator_inner(a, b, scaled), 9.0 * estimator_inner(a, b, s), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# criterion distance
# ---------------------------------------------------------------------------


def test_criterion_distance_self_is_zero():
    s = _uniform_sample(20, seed=2)
    spec = BandwidthSpec(GAUSSIAN, (0.25,))
    assert criterion_distance(spec, spec, s) == 0.0


def test_criterion_distance_symmetric():
    s = _uniform_sample(35, seed=8, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.12,))
    b = BandwidthSpec(GAUSSIAN, (0.4,))
    assert_allclose(criterion_distance(a, b, s), criterion_distance(b, a, s), rtol=1e-12)


def test_criterion_distance_grid_oracle():
    s = _uniform_sample(50, seed=31, loss=LossKind.IDENTITY)
    a = ProjectionSpec(HIST, (3,))
    k0 = ProjectionSpec(HIST, (8,))
    got = criterion_distance(a, k0, s)
    cuts = sorted({i / 3 for i in range(1, 3)} | {i / 8 for i in range(1, 8)})
    grid = composite_grid([0.0], [1.0], [cuts])
    diff = estimate_on_grid(a, s, grid.points) - estimate_on_grid(k0, s, grid.points)
    assert_allclose(got, grid.integrate(diff * diff), atol=1e-6)


# ---------------------------------------------------------------------------
# sbar
# ---------------------------------------------------------------------------


def test_sbar_empirical_gaussian_identity():
    # with ell = One the value is ||k||_2^2 / h regardless of the data
    spec = BandwidthSpec(GAUSSIAN, (0.5,))
    for seed in (1, 2):
        s = _uniform_sample(30, seed=seed)
        assert sbar_empirical(spec, s) == pytest.approx(0.5641895835477563, rel=1e-12)


def test_sbar_empirical_projection_bound():
    rng = stream(77)
    for _ in range(25):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(2, 40))
        s = Sample(rng.random((n, 1)), rng.standard_normal(n), LossKind.IDENTITY)
        spec = ProjectionSpec(HIST, (m,))
        bound = 1.0 * np.mean(s.loss_values**2) * m
        assert sbar_empirical(spec, s) <= bound + 1e-10


def test_sbar_empirical_single_point():
    spec = ProjectionSpec(TRIG, (4,))
    s = Sample(np.array([[0.3]]), np.array([2.0]), LossKind.IDENTITY)
    want = section_sq_norm_points(spec, np.array([[0.3]]))[0] * 4.0
    assert sbar_empirical(spec, s) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# centered statistics
# ---------------------------------------------------------------------------


def _brute_u(a, b, sample, s_a, s_b, grid):
    n = sample.n
    ell = sample.loss_values
    pts = grid.points
    sa = s_a(pts)
    sb = s_b(pts)
    ka = kernel_matrix(a, sample.x, pts)
    kb = kernel_matrix(b, sample.x, pts)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gi = ka[i] * ell[i] - sa
            hj = kb[j] * ell[j] - sb
            total += grid.integrate(gi * hj)
    return total


def test_u_statistic_matches_brute_force():
    s = _uniform_sample(6, seed=14, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.3,))
    b = BandwidthSpec(GAUSSIAN, (0.18,))
    grid = composite_grid([-3.0], [4.0], [[0.0, 0.5, 1.0]])

    def s_a(pts):
        return np.sin(2 * np.pi * pts[:, 0])

    def s_b(pts):
        return pts[:, 0] * np.exp(-pts[:, 0] ** 2)

    got = u_statistic(a, b, s, s_a, s_b, grid=grid)
    want = _brute_u(a, b, s, s_a, s_b, grid)
    assert_allclose(got, want, rtol=1e-8)


def test_u_statistic_uncentered_reduction():
    # with no section means supplied the statistic is the off-diagonal Gram sum
    s = _uniform_sample(5, seed=15, loss=LossKind.IDENTITY)
    a = ProjectionSpec(TRIG, (3,))
    b = ProjectionSpec(TRIG, (6,))
    got = u_statistic(a, b, s)
    from pcoselect import section_inner_matrix

    gram = section_inner_matrix(a, s.x, b, s.x)
    weighted = s.loss_values[:, None] * gram * s.loss_values[None, :]
    want = float(np.sum(weighted) - np.sum(np.diagonal(weighted)))
    assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize(
    "a,b",
    [
        (BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(GAUSSIAN, (0.3,))),
        (BandwidthSpec(GAUSSIAN, (0.2, 0.1)), BandwidthSpec(GAUSSIAN, (0.15, 0.3))),
        (BandwidthSpec(EPANECHNIKOV, (0.1,)), BandwidthSpec(EPANECHNIKOV, (0.25,))),
        (BandwidthSpec(EPANECHNIKOV, (0.2, 0.1)), BandwidthSpec(EPANECHNIKOV, (0.05, 0.3))),
    ],
)
def test_u_statistic_bandwidth_sweep_matches_dense(a, b):
    # the sweep reduces i != j with no table; the dense table is the reference
    s = _uniform_sample(2 * _SWEEP_ROWS + 11, d=a.d, seed=45, loss=LossKind.SQUARE)
    ell = s.loss_values
    weighted = (ell[:, None] * section_inner_matrix(a, s.x, b, s.x)) * ell[None, :]
    want = float(np.sum(weighted) - np.sum(np.diagonal(weighted)))
    assert_allclose(u_statistic(a, b, s), want, rtol=1e-12)


@pytest.mark.parametrize("a,b", PROJECTION_PAIRS)
def test_u_statistic_projection_coefficient_form_matches_dense(monkeypatch, a, b):
    # the coefficient-space total less its diagonal term, with no table
    s = _sample_for(a, 150, seed=47)
    ell = s.loss_values
    weighted = (ell[:, None] * section_inner_matrix(a, s.x, b, s.x)) * ell[None, :]
    want = float(np.sum(weighted) - np.sum(np.diagonal(weighted)))

    def no_table(*args, **kwargs):
        raise AssertionError("u_statistic built an n x n table")

    monkeypatch.setattr("pcoselect.kernels.section_inner_matrix", no_table)
    monkeypatch.setattr("pcoselect.estimator.section_inner_matrix", no_table)
    assert_allclose(u_statistic(a, b, s), want, rtol=1e-12)


@pytest.mark.parametrize(("basis", "n", "orders"), [
    (TRIG, 20_000, (20, 20)),
    (LEG, 3000, (7, 5, 4)),
    (TRIG, 300_000, (3,)),
])
def test_coefficient_tensor_memory_is_bounded_and_identical_to_256_row_blocks(basis, n, orders):
    import tracemalloc

    # blocks of 256 coefficients x n products, two of them live, peaked at 89 MiB
    # at n = 20000, m = (20, 20); the scratch now takes a fixed number of entries
    lo, hi = basis.support
    x = stream(47).uniform(lo, hi, size=(n, len(orders)))
    ell = stream(48).standard_normal(n)
    values = [basis_matrix(basis, mq, x[:, q]) for q, mq in enumerate(orders)]
    tracemalloc.start()
    try:
        got = _product_tensor(values, ell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.array_equal(got, reference_product_tensor(values, ell))


def test_u_statistic_memory_is_bounded():
    import tracemalloc

    # the dense table and its weighted copy took 206 MB at n = 3000
    s = _uniform_sample(3000, seed=46, loss=LossKind.IDENTITY)
    tracemalloc.start()
    try:
        u_statistic(BandwidthSpec(GAUSSIAN, (0.05,)), BandwidthSpec(GAUSSIAN, (0.2,)), s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_u_statistic_two_points():
    # n = 2 leaves exactly the two ordered pairs
    s = Sample(np.array([[0.3], [0.7]]), np.array([1.5, -0.5]), LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.25,))
    b = BandwidthSpec(GAUSSIAN, (0.4,))
    grid = composite_grid([-3.0], [4.0], [[0.5]])

    def s_a(pts):
        return 0.2 * np.ones(pts.shape[0])

    def s_b(pts):
        return 0.1 * pts[:, 0]

    got = u_statistic(a, b, s, s_a, s_b, grid=grid)
    want = _brute_u(a, b, s, s_a, s_b, grid)
    assert_allclose(got, want, rtol=1e-10)


def test_u_statistic_needs_two_points():
    s = Sample(np.array([[0.5]]), np.array([1.0]))
    spec = BandwidthSpec(GAUSSIAN, (0.3,))
    with pytest.raises(ValueError):
        u_statistic(spec, spec, s)


def test_v_statistic_brute_force():
    s = _uniform_sample(4, seed=16, loss=LossKind.IDENTITY)
    spec = BandwidthSpec(GAUSSIAN, (0.35,))
    grid = composite_grid([-3.0], [4.0], [[0.5]])

    def s_mean(pts):
        return np.cos(np.pi * pts[:, 0])

    got = v_statistic(spec, s, s_mean, grid=grid)
    ell = s.loss_values
    k = kernel_matrix(spec, s.x, grid.points)
    sm = s_mean(grid.points)
    want = np.mean(
        [grid.integrate((k[i] * ell[i] - sm) ** 2) for i in range(s.n)]
    )
    assert_allclose(got, want, rtol=1e-8)


def test_v_statistic_zero_mean_reduces_to_sbar():
    s = _uniform_sample(10, seed=17, loss=LossKind.SQUARE)
    spec = ProjectionSpec(HIST, (5,))
    got = v_statistic(spec, s)
    assert_allclose(got, sbar_empirical(spec, s), rtol=1e-12)


def test_w_statistic_zero_when_second_factor_vanishes():
    s = _uniform_sample(8, seed=18, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.3,))
    b = BandwidthSpec(GAUSSIAN, (0.5,))
    grid = statistic_grid(a, b, _scn_for_grid(), refine=2)

    def f(pts):
        return np.sin(pts[:, 0])

    got = w_statistic(a, b, s, f, f, f, grid)
    assert got == pytest.approx(0.0, abs=1e-14)


def _scn_for_grid():
    from pcoselect import scenario_from_config

    return scenario_from_config({"d": 1, "f": "uniform", "n": 8, "seed": 0})


def test_w_statistic_single_point_reduction():
    s = Sample(np.array([[0.4]]), np.array([2.0]), LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.3,))
    b = BandwidthSpec(GAUSSIAN, (0.6,))
    grid = composite_grid([-4.0], [5.0], [[0.4]])

    def s_a(pts):
        return 0.3 * np.ones(pts.shape[0])

    def s_b(pts):
        return pts[:, 0] ** 2 * np.exp(-np.abs(pts[:, 0]))

    def s_true(pts):
        return np.sin(pts[:, 0])

    got = w_statistic(a, b, s, s_a, s_b, s_true, grid)
    sect = kernel_matrix(a, s.x, grid.points)[0] * 2.0
    want = grid.integrate((sect - s_a(grid.points)) * (s_b(grid.points) - s_true(grid.points)))
    assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# Gram tables
# ---------------------------------------------------------------------------


def test_gram_tables_transpose_view():
    s = _uniform_sample(12, seed=19)
    tables = GramTables(s)
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = BandwidthSpec(GAUSSIAN, (0.6,))
    mab = tables.matrix(a, b)
    mba = tables.matrix(b, a)
    assert_allclose(mab, mba.T, rtol=0)


@pytest.mark.parametrize(
    "a,b", [(BandwidthSpec(GAUSSIAN, (0.15,)), BandwidthSpec(GAUSSIAN, (0.3,)))] + PROJECTION_PAIRS
)
def test_gram_tables_weighted_total_matches_dense(a, b):
    # projection pairs take the coefficient form; the dense table is the reference
    s = _sample_for(a, 40, seed=20)
    ell = s.loss_values
    tables = GramTables(s)
    dense = section_inner_matrix(a, s.x, b, s.x)
    assert_allclose(tables.matrix(a, b), dense, rtol=0)
    want = float(ell @ dense @ ell)
    assert_allclose(tables.weighted_total(a, b), want, rtol=1e-12)
    assert tables.weighted_total(b, a) == tables.weighted_total(a, b)
    assert_allclose(tables.diag(a, b), np.diagonal(dense), rtol=1e-12)
    pts = _sample_for(a, 40, seed=32).x
    assert_allclose(estimate_on_grid(a, s, pts), ell @ kernel_matrix(a, s.x, pts) / s.n, rtol=1e-12)


def test_gram_tables_streaming_matches_dense():
    # a d = 1 Epanechnikov pair takes the piecewise-quadratic integral, not the
    # sweep; the d = 2 cases of test_bandwidth_sweep_matches_dense stream its blocks
    s = _uniform_sample(3 * _SWEEP_ROWS + 5, seed=22, loss=LossKind.IDENTITY)
    a = BandwidthSpec(EPANECHNIKOV, (0.2,))
    b = BandwidthSpec(EPANECHNIKOV, (0.45,))
    tables = GramTables(s)
    ell = s.loss_values
    assert_allclose(tables.weighted_total(a, b), float(ell @ tables.matrix(a, b) @ ell), rtol=1e-12)


# Gaussian and Epanechnikov, each at d = 1 and d = 2
BANDWIDTH_PAIRS = [
    (BandwidthSpec(GAUSSIAN, (0.07,)), BandwidthSpec(GAUSSIAN, (0.3,))),
    (BandwidthSpec(GAUSSIAN, (0.1, 0.4)), BandwidthSpec(GAUSSIAN, (0.25, 0.05))),
    (BandwidthSpec(EPANECHNIKOV, (0.05,)), BandwidthSpec(EPANECHNIKOV, (0.2,))),
    (BandwidthSpec(EPANECHNIKOV, (0.15, 0.3)), BandwidthSpec(EPANECHNIKOV, (0.4, 0.1))),
]


def _totals(pairs, x, ell):
    """:func:`bandwidth_totals` of ``pairs``, with each pair's constant diagonal."""
    return bandwidth_totals(pairs, x, ell, [_bandwidth_diag_value(a, b) for a, b in pairs])


@pytest.mark.parametrize("n", [1, _SWEEP_ROWS + 13, 3 * _SWEEP_ROWS])
@pytest.mark.parametrize("a,b", BANDWIDTH_PAIRS)
def test_bandwidth_sweep_matches_dense(a, b, n):
    # signed weights (identity loss); one row, a partial block, whole blocks
    s = _uniform_sample(n, d=a.d, seed=36, loss=LossKind.IDENTITY)
    ell = s.loss_values
    dense = section_inner_matrix(a, s.x, b, s.x)
    totals = _totals([(a, b), (a, a), (b, b)], s.x, ell)
    want = [float(ell @ m @ ell) for m in (dense, section_inner_matrix(a, s.x, a, s.x),
                                            section_inner_matrix(b, s.x, b, s.x))]
    assert_allclose(totals, want, rtol=1e-12)
    tables = GramTables(s)
    assert_allclose(tables.weighted_total(a, b), want[0], rtol=1e-12)
    assert tables.weighted_total(b, a) == tables.weighted_total(a, b)
    assert_allclose(tables.diag(a, b), np.diagonal(dense), rtol=1e-12)


def test_gaussian_exponent_floor_keeps_to_the_exact_references(monkeypatch):
    # at h = 1/n most Gaussian exponents fall below the floor of -700
    n = 400
    s = _uniform_sample(n, seed=12, loss=LossKind.IDENTITY)
    ell = s.loss_values
    a, b = BandwidthSpec(GAUSSIAN, (1.0 / n,)), BandwidthSpec(GAUSSIAN, (2.5 / n,))
    want = [float(ell @ section_inner_matrix(p, s.x, q, s.x) @ ell) for p, q in ((a, b), (a, a), (b, b))]
    assert_allclose(_totals([(a, b), (a, a), (b, b)], s.x, ell), want, rtol=1e-12)
    pts = np.linspace(-0.05, 1.05, 1001).reshape(-1, 1)
    for spec, row in zip((a, b), estimate_on_grid([a, b], s, pts)):
        ref = ell @ kernel_matrix(spec, s.x, pts) / n
        assert_allclose(row, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    # far from every observation the exact kernel is 0, and so is the estimate
    ones = s.with_loss(LossKind.ONE)
    assert kernel_matrix(a, s.x, np.array([[3.0]])).max() == 0.0
    assert estimate_on_grid(a, ones, [[3.0]])[0] == ones.loss_values @ kernel_matrix(a, s.x, [[3.0]])[:, 0] / n
    tight = Sample(np.linspace(0.0, 0.01, 5)[:, None], np.ones(5))
    wide = BandwidthSpec(GAUSSIAN, (0.05,))
    assert estimate_on_grid(wide, tight, [[3.0]])[0] == np.sum(kernel_matrix(wide, tight.x, [[3.0]])) / 5
    # the factored path of a uniform axis reads 0 there too
    calls = _counting_axis_rows(monkeypatch)
    axis = trapezoid_grid(0.0, 3.0, 3001)
    far = BandwidthSpec(GAUSSIAN, (0.02,))
    assert estimate_on_grid(far, ones, axis)[-1] == 0.0 == kernel_matrix(far, s.x, [[3.0]]).max()
    assert calls == [far]


def _family_pairs(fam):
    """The (K, K) and (K, K0) pairs of a family, as its one sweep takes them."""
    return list(dict.fromkeys(p for spec in fam.specs for p in ((spec, spec), (spec, fam.k0))))


def _dense_totals(pairs, s):
    ell = s.loss_values
    return [float(ell @ section_inner_matrix(a, s.x, b, s.x) @ ell) for a, b in pairs]


# tensor families capped at 1000 members' worth of sample, so any sample size may use them
TENSOR_FAMILIES = [
    make_bandwidth_family(GAUSSIAN, 0.1, [0.1, 0.2, 0.4], 2, 1000),
    make_bandwidth_family(GAUSSIAN, 0.15, [0.15, 0.3, 0.6], 3, 1000),
    make_bandwidth_family(EPANECHNIKOV, 0.05, [0.05, 0.1, 0.2, 0.4], 2, 1000),
]


@pytest.mark.parametrize("n", [1, 2, 32, 33, 65])
@pytest.mark.parametrize("fam", TENSOR_FAMILIES, ids=["d2", "d3", "epanechnikov-d2"])
def test_sweep_shares_per_dimension_tables_and_matches_dense(fam, n):
    d = fam.k0.d
    s = _uniform_sample(n, d=d, seed=60 + n, loss=LossKind.IDENTITY)
    pairs = _family_pairs(fam)
    keys, uses, _ = _sweep_tables(pairs, n)
    # every pair is one table per dimension, and the pairs share their tables
    assert all(len(use) == d for use in uses) and len(keys) < d * len(pairs)
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [33, 200])
def test_sweep_mixes_floored_factored_and_epanechnikov_pairs(n):
    # at d = 2 every Gaussian pair is factored; the first-dimension table of
    # (a, a) can reach the exponent floor and is floored, no other table is
    s = _uniform_sample(n, d=2, seed=61, loss=LossKind.IDENTITY)
    a, b = BandwidthSpec(GAUSSIAN, (0.015, 0.3)), BandwidthSpec(GAUSSIAN, (0.3, 0.3))
    e, f = BandwidthSpec(EPANECHNIKOV, (0.2, 0.35)), BandwidthSpec(EPANECHNIKOV, (0.1, 0.5))
    pairs = [(a, a), (a, b), (b, b), (e, e), (e, f)]
    keys, uses, _ = _sweep_tables(pairs, n)
    # a Gaussian table is keyed by its scale -1 / (2 v_q), an Epanechnikov one by its two bandwidths, in order
    narrow = -0.5 / (2 * 0.015**2)
    assert [[list(keys)[k] for k in use] for use in uses] == [
        [(0, narrow), (1, -0.5 / (2 * 0.3**2))],
        [(0, -0.5 / (0.015**2 + 0.3**2)), (1, -0.5 / (2 * 0.3**2))],
        [(0, -0.5 / (2 * 0.3**2)), (1, -0.5 / (2 * 0.3**2))],
        [(0, 0.2, 0.2), (1, 0.35, 0.35)],
        [(0, 0.1, 0.2), (1, 0.35, 0.5)],
    ]
    span_sq = np.ptp(s.x, axis=0) ** 2
    assert [key for key in keys if len(key) == 2 and _reaches_floor([span_sq[key[0]]], [key[1]])] == [(0, narrow)]
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)
    # at d = 1 the narrow Gaussian pairs and the wide one take the trapezoid sum
    s1 = _uniform_sample(n, seed=62, loss=LossKind.IDENTITY)
    c, g = BandwidthSpec(GAUSSIAN, (1.0 / 400,)), BandwidthSpec(GAUSSIAN, (0.3,))
    pairs1 = [(c, c), (c, g), (g, g)]
    assert_allclose(_totals(pairs1, s1.x, s1.loss_values), _dense_totals(pairs1, s1), rtol=1e-12, atol=0)


class _CountingExp:
    """A stand-in for the estimator's ``np`` that records the size of every ``exp`` argument."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.sizes.append(np.size(args[0]))
        return np.exp(*args, **kwargs)


def test_tensor_family_evaluates_one_exp_per_table_and_block(monkeypatch):
    import pcoselect.estimator as estimator_mod

    n = 200
    s = _uniform_sample(n, d=2, seed=63, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, 1000))
    assert len(pairs) == 49
    want = _totals(pairs, s.x, s.loss_values)
    exps = _CountingExp()
    monkeypatch.setattr(estimator_mod, "np", exps)
    got = _totals(pairs, s.x, s.loss_values)
    monkeypatch.undo()
    assert got == want
    # 5 + 4 distinct variances per dimension: 18 tables per block, not 49 pair exponentials
    blocks = math.ceil((n - 1) / _SWEEP_ROWS)
    assert len(exps.sizes) == 18 * blocks
    assert_allclose(got, _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_sweep_totals_are_identical_with_one_row_of_tables_per_pass(monkeypatch):
    import pcoselect.estimator as estimator_mod

    n = 200
    s = _uniform_sample(n, d=2, seed=71, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, 1000))
    want = _totals(pairs, s.x, s.loss_values)
    # a budget below one row of the 18 tables: each pass takes one row, and
    # each table takes one exp per pass, in this process
    monkeypatch.setattr(estimator_mod, "_TABLE_SCRATCH", 18 * (n - 1) - 1)
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    exps = _CountingExp()
    monkeypatch.setattr(estimator_mod, "np", exps)
    got = _totals(pairs, s.x, s.loss_values)
    monkeypatch.undo()
    assert [t.hex() for t in got] == [t.hex() for t in want]
    # row i of the block from start meets the n - 1 - start later points
    assert len(exps.sizes) == 18 * (n - 1)
    assert exps.sizes == [n - 1 - start for start in range(0, n - 1, _SWEEP_ROWS)
                          for _ in range(min(_SWEEP_ROWS, n - 1 - start)) for _ in range(18)]


# families whose narrow tables reach the exponent floor on the unit box
FLOORED_FAMILIES = [
    make_bandwidth_family(GAUSSIAN, 0.01, [0.01, 0.03, 0.1, 0.3], 2, 10**4),
    make_bandwidth_family(GAUSSIAN, 0.015, [0.015, 0.05, 0.2], 3, 10**6),
]


@pytest.mark.parametrize("fam", FLOORED_FAMILIES, ids=["d2", "d3"])
def test_floored_gaussian_pairs_match_dense(fam):
    d = fam.k0.d
    n = 150
    s = _uniform_sample(n, d=d, seed=72, loss=LossKind.IDENTITY)
    pairs = _family_pairs(fam)
    keys, _, _ = _sweep_tables(pairs, n)
    span_sq = np.ptp(s.x, axis=0) ** 2
    floored = [key for key in keys if _reaches_floor([span_sq[key[0]]], [key[1]])]
    assert 0 < len(floored) < len(keys)
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_sweep_tables_past_the_limit_raise_before_they_are_allocated(monkeypatch):
    import pcoselect.errors as errors_mod
    import pcoselect.estimator as estimator_mod

    # one row of the 5 x 5 family's 18 tables, one entry above a patched limit
    n = 200
    s = _uniform_sample(n, d=2, seed=73, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    fam = make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, 1000)
    pairs = _family_pairs(fam)
    monkeypatch.setattr(errors_mod, "MAX_TABLE_ENTRIES", 18 * (n - 1) - 1)
    monkeypatch.setattr(estimator_mod, "_sweep_block_builder", lambda *args: pytest.fail("the sweep started"))
    with pytest.raises(ConfigError, match=r"^tables of the bandwidth sweep: tables 18 x columns 199 asks "
                                          r"for a table of 3582 entries, above the limit of 3581"):
        _totals(pairs, s.x, s.loss_values)
    with pytest.raises(ConfigError, match="^tables of the bandwidth sweep"):
        pco_select(fam, s)
    # at the limit the sweep runs, one row per pass
    monkeypatch.undo()
    monkeypatch.setattr(errors_mod, "MAX_TABLE_ENTRIES", 18 * (n - 1))
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_pair_total_does_not_depend_on_the_rest_of_its_sweep():
    # the 18 tables of the Gaussian family, and the 14 of the Epanechnikov
    # one, take several passes per block of rows
    n = 1000
    s = _uniform_sample(n, d=2, seed=64, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    for fam in (make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, n),
                make_bandwidth_family(EPANECHNIKOV, 0.05, [0.05, 0.1, 0.2, 0.4], 2, n)):
        pairs = _family_pairs(fam)
        assert _sweep_tables(pairs, n)[2] < _SWEEP_ROWS
        together = _totals(pairs, s.x, s.loss_values)
        assert [_totals([p], s.x, s.loss_values)[0] for p in pairs[::6]] == together[::6]


def test_sweep_block_reads_no_pairwise_gram_entries(monkeypatch):
    import pcoselect.estimator as estimator_mod
    import pcoselect.kernels as kernels_mod

    # every swept pair, Gaussian or Epanechnikov, is a product of the sweep's tables
    n = 70
    s = _uniform_sample(n, d=3, seed=66, loss=LossKind.IDENTITY)
    pairs = [(BandwidthSpec(EPANECHNIKOV, (0.2, 0.35, 0.5)), BandwidthSpec(EPANECHNIKOV, (0.1, 0.5, 0.5))),
             (BandwidthSpec(GAUSSIAN, (0.05, 0.3, 0.2)), BandwidthSpec(GAUSSIAN, (0.1, 0.1, 0.4)))]
    consts = [_bandwidth_diag_value(a, b) for a, b in pairs]
    want = bandwidth_totals(pairs, s.x, s.loss_values, consts)
    for module in (estimator_mod, kernels_mod):
        monkeypatch.setattr(module, "bandwidth_gram_entries", lambda *args: pytest.fail("a pair read G_ab"))
    got = bandwidth_totals(pairs, s.x, s.loss_values, consts)
    assert [t.hex() for t in got] == [t.hex() for t in want]
    monkeypatch.undo()
    assert_allclose(got, _dense_totals(pairs, s), rtol=1e-12, atol=0)


@pytest.mark.parametrize("narrow_first", [False, True])
def test_epanechnikov_d2_pair_with_a_tiny_bandwidth_holds_to_a_long_double_reference(narrow_first):
    # the narrow kernel of the first dimension sits at differences on a 0.1
    # grid, among them the wide kernel's support end 0.5; either order of
    # the pair puts it at |delta|, where delta -+ 1e-6 kept about ten digits
    rng = stream(80)
    n = 64
    x = np.column_stack([np.round(rng.random(n), 1), rng.random(n)])
    ell = rng.standard_normal(n)
    a, b = BandwidthSpec(EPANECHNIKOV, (0.5, 0.5)), BandwidthSpec(EPANECHNIKOV, (1e-6, 0.5))
    if narrow_first:
        a, b = b, a
    got = _totals([(a, b)], x, ell)[0]
    xl, ll = x.astype(np.longdouble), ell.astype(np.longdouble)
    table = np.ones((n, n), dtype=np.longdouble)
    for q in range(2):
        table *= epanechnikov_reference_entries(xl[:, q, None] - xl[None, :, q], a.h[q], b.h[q])
    want, scale = float(ll @ table @ ll), float(np.abs(ll) @ table @ np.abs(ll))
    assert abs(got - want) <= 1e-14 * scale, (got, want, scale)


def _d1_sample(case):
    """A d = 1 sample for the trapezoid tests, by name: its points and loss."""
    rng = stream(65)
    if case == "signed":
        return Sample(rng.random((7, 1)), rng.standard_normal(7), LossKind.IDENTITY)
    if case == "shifted":
        return Sample(5.0 + rng.random((7, 1)), rng.standard_normal(7), LossKind.IDENTITY)
    if case == "constant":
        # every point on one node
        return Sample(np.full((6, 1), 0.3), rng.standard_normal(6), LossKind.IDENTITY)
    n = {"one-point": 1, "two-points": 2}[case]
    return Sample(rng.random((n, 1)), rng.standard_normal(n), LossKind.IDENTITY)


_D1_PAIRS = [(0.05, 0.3), (0.2, 0.2), (0.5, 0.9), (0.03, 0.03)]


@pytest.mark.parametrize("case", ["signed", "shifted", "constant", "one-point", "two-points"])
def test_gaussian_d1_totals_match_dense_and_quadrature(case):
    # every Gaussian pair at d = 1 takes the trapezoid sum, even at n = 1 and 2
    s = _d1_sample(case)
    pairs = [(BandwidthSpec(GAUSSIAN, (ha,)), BandwidthSpec(GAUSSIAN, (hb,))) for ha, hb in _D1_PAIRS]
    got = _totals(pairs, s.x, s.loss_values)
    assert np.all(np.isfinite(got))
    assert_allclose(got, _dense_totals(pairs, s), rtol=1e-12, atol=0)
    ell = s.loss_values
    for (a, b), total in zip(pairs, got):
        assert_allclose(total, float(ell @ GramTables(s).matrix(a, b) @ ell), rtol=1e-12, atol=0)
        quad = np.array([[quad_section_inner(a, xi, b, xj) for xj in s.x] for xi in s.x])
        assert_allclose(total, float(ell @ quad @ ell), rtol=1e-12)


@pytest.mark.parametrize("loss", [LossKind.ONE, LossKind.IDENTITY])
@pytest.mark.parametrize("offset", [100.0, 1e12])
def test_gaussian_d1_totals_hold_at_an_offset(loss, offset):
    # on [offset, offset + 1] at h = 1/n: the nodes are exact doubles and each
    # point's offset from its node carries one rounding, so the offset costs no
    # digits; at 1e12, past 2^46 grid steps, the points are taken relative to the first
    n = 500
    rng = stream(66)
    s = Sample(offset + rng.random((n, 1)), rng.standard_normal(n), loss)
    narrow, wide = BandwidthSpec(GAUSSIAN, (1.0 / n,)), BandwidthSpec(GAUSSIAN, (0.05,))
    pairs = [(narrow, narrow), (narrow, wide), (wide, wide)]
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-14, atol=0)


def test_gaussian_d1_totals_of_clusters_and_lone_points_match_dense():
    # tight clusters and lone points, far apart at the narrow bandwidths and not at the wide ones
    rng = stream(67)
    x = np.concatenate([0.1 + 0.01 * rng.random(40), 0.5 + 0.002 * rng.random(30), [0.3, 0.8, 0.9, 0.9],
                        5.0 + 0.01 * rng.random(20)])
    s = Sample(x[:, None], rng.standard_normal(x.size), LossKind.IDENTITY)
    specs = [BandwidthSpec(GAUSSIAN, (h,)) for h in (1e-4, 1e-3, 0.02, 0.3)]
    pairs = [(a, b) for a in specs for b in specs]
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)
    # h_a^2 + h_b^2 overflows: every entry is exp(0) and the pair's constant is 0
    huge = BandwidthSpec(GAUSSIAN, (1e154,))
    assert _totals([(huge, huge)], s.x, s.loss_values) == _dense_totals([(huge, huge)], s) == [0.0]


def test_gaussian_d1_pair_total_does_not_depend_on_the_rest_of_its_family():
    n = 600
    s = _uniform_sample(n, seed=67, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.01, 0.5, 20))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 1, n))
    together = _totals(pairs, s.x, s.loss_values)
    assert [_totals([p], s.x, s.loss_values)[0] for p in pairs] == together
    assert_allclose(together, _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_bandwidth_totals_log_the_pairs_on_each_path(caplog):
    n = 600
    s = _uniform_sample(n, seed=69, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.01, 0.5, 20))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 1, n))
    e, f = BandwidthSpec(EPANECHNIKOV, (0.05,)), BandwidthSpec(EPANECHNIKOV, (0.2,))
    pairs2 = _family_pairs(TENSOR_FAMILIES[0])
    s2 = _uniform_sample(n, d=2, seed=69, loss=LossKind.IDENTITY)
    with caplog.at_level(logging.DEBUG, logger="pcoselect.estimator"):
        _totals(pairs + [(e, e), (e, f)], s.x, s.loss_values)
        _totals(pairs2, s2.x, s2.loss_values)
    assert caplog.messages == [
        f"bandwidth totals: n {n}, {len(pairs)} pairs by trapezoid sum, 2 pairs by Epanechnikov integral, 0 pairs swept",
        f"bandwidth totals: n {n}, 0 pairs by trapezoid sum, 0 pairs by Epanechnikov integral, {len(pairs2)} pairs swept",
    ]


def test_d1_gaussian_family_takes_no_sweep(monkeypatch):
    import pcoselect.estimator as estimator_mod

    # the 20-member family of the d = 1 select benchmark and CI, on [0, 1] at n = 2000
    n = 2000
    s = _uniform_sample(n, seed=68, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.01, 0.5, 20))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 1, n))
    assert len(pairs) == 39
    monkeypatch.setattr(estimator_mod, "_sweep_block_builder", lambda *args: pytest.fail("a d = 1 Gaussian pair swept"))
    # every exp in this process
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    exps = _CountingExp()
    monkeypatch.setattr(estimator_mod, "np", exps)
    got = _totals(pairs, s.x, s.loss_values)
    monkeypatch.undo()
    # one exp per pair and pass of points, over the 39 nodes nearest each point
    assert len(exps.sizes) == len(pairs) * math.ceil(n / _TRAPEZOID_POINTS)
    assert sum(exps.sizes) == 39 * n * len(pairs)
    assert got == _totals(pairs, s.x, s.loss_values)
    assert_allclose(got[::4], _dense_totals(pairs[::4], s), rtol=1e-12, atol=0)


def test_gaussian_d1_pair_work_and_memory_stay_bounded_as_h_falls(monkeypatch):
    import tracemalloc

    import pcoselect.estimator as estimator_mod

    # at h = 1e-9 a grid of step 0.3416 sqrt(2) h over [0, 1] would have about 2e9 nodes
    n = 2000
    s = _uniform_sample(n, seed=70, loss=LossKind.IDENTITY)
    # no two points close enough for their entry to reach 1e-12 of a diagonal one
    assert np.min(np.diff(np.sort(s.x[:, 0]))) > 1e-8
    a = BandwidthSpec(GAUSSIAN, (1e-9,))
    exps = _CountingExp()
    monkeypatch.setattr(estimator_mod, "np", exps)
    tracemalloc.start()
    try:
        (total,) = _totals([(a, a)], s.x, s.loss_values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert_allclose(total, _bandwidth_diag_value(a, a) * np.sum(s.loss_values**2), rtol=1e-12, atol=0)
    assert sum(exps.sizes) == 39 * n
    assert peak < 8 * 2**20


def _epanechnikov_pairs(hs):
    specs = [BandwidthSpec(EPANECHNIKOV, (h,)) for h in hs]
    return [(a, b) for i, a in enumerate(specs) for b in specs[i:]]


def _assert_near_reference(pairs, x, ells, tol=1e-14):
    """Each pair's total for each loss row is off its long-double reference
    by at most ``tol`` times the reference's sum of |ell_i ell_j| G_ab[i, j]."""
    got = [_totals(pairs, x[:, None], ell) for ell in ells]
    for k, (a, b) in enumerate(pairs):
        for row, (want, scale) in zip(got, epanechnikov_reference_totals(x, ells, a.h[0], b.h[0])):
            assert abs(row[k] - want) <= tol * scale, (a.h, b.h, row[k], want, scale)


@pytest.mark.parametrize("offset", [0.0, 100.0])
@pytest.mark.parametrize("n", [1, 2, 7, 300, 2000])
def test_epanechnikov_d1_totals_hold_to_a_long_double_reference(n, offset):
    # losses one and identity, h from 5e-4 to 0.5; on [100, 101] the pieces
    # are placed from sample points, so the offset costs no digits
    rng = stream(75)
    x = offset + rng.random(n)
    pairs = _epanechnikov_pairs((5e-4, 0.004, 0.02, 0.1, 0.5))
    if n == 2000:
        # the references of pairs that reach past 0.2 are the slowest: one of them
        pairs = [(a, b) for a, b in pairs if (a.h[0], b.h[0]) in [(5e-4, 5e-4), (5e-4, 0.02), (0.02, 0.1), (0.1, 0.5)]]
    _assert_near_reference(pairs, x, [np.ones(n), rng.standard_normal(n)])


def _clustered_points(case, rng):
    if case == "duplicates":
        return np.repeat(rng.random(60), 5)
    if case == "one-block":
        # within 1e-4: one block of every member from h = 2e-3
        return 0.3 + 1e-4 * rng.random(300)
    # 1e6 apart: two clusters at every bandwidth, each placed from its own points
    return np.concatenate([1e-3 * rng.random(150), 1e6 + 1e-3 * rng.random(150)])


@pytest.mark.parametrize("case", ["duplicates", "one-block", "far-clusters"])
def test_epanechnikov_d1_totals_of_clustered_samples(case):
    rng = stream(76)
    x = _clustered_points(case, rng)
    _assert_near_reference(_epanechnikov_pairs((1e-5, 2e-3, 0.05, 0.5)), x, [np.ones(x.size), rng.standard_normal(x.size)])


def test_epanechnikov_d1_totals_hold_far_from_zero():
    # on [1e12, 1e12 + 1] a breakpoint x_i -+ h rounds by up to 6e-5, more than
    # h = 1e-5 itself: the breakpoints are ordered by their exact values
    rng = stream(79)
    x = 1e12 + rng.random(300)
    _assert_near_reference(_epanechnikov_pairs((1e-5, 2e-3, 0.05)), x, [np.ones(x.size), rng.standard_normal(x.size)])


def test_epanechnikov_d1_scan_of_one_block_keeps_memory_linear():
    import tracemalloc

    # every point in one block of both members: the segmented scan takes
    # log2(n) doubling passes over O(n) arrays, never a padded n x n one
    n = 2**15
    rng = stream(77)
    x = 0.5 + 1e-3 * rng.random((n, 1))
    a, b = BandwidthSpec(EPANECHNIKOV, (0.05,)), BandwidthSpec(EPANECHNIKOV, (0.2,))
    pairs = [(a, a), (a, b), (b, b)]
    tracemalloc.start()
    try:
        got = _totals(pairs, x, rng.standard_normal(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(got))
    # about 700 bytes a point; an n x n table would take 8 n bytes a point
    assert peak < 2000 * n


def test_epanechnikov_d1_pair_total_does_not_depend_on_the_rest_of_its_family():
    n = 600
    s = _uniform_sample(n, seed=78, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.005, 0.5, 6))
    pairs = _family_pairs(make_bandwidth_family(EPANECHNIKOV, grid[0], grid, 1, n))
    together = _totals(pairs, s.x, s.loss_values)
    assert [_totals([p], s.x, s.loss_values)[0] for p in pairs] == together
    assert [_totals(pairs[::-1], s.x, s.loss_values)[k] for k in range(len(pairs) - 1, -1, -1)] == together
    assert_allclose(together, _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_epanechnikov_d1_family_read_runs_in_this_process(monkeypatch):
    # with the pool open to every pair, the integrals still run here, one table per member
    import pcoselect.estimator as estimator_mod

    n = 600
    s = _uniform_sample(n, seed=79, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.005, 0.5, 6))
    family = make_bandwidth_family(EPANECHNIKOV, grid[0], grid, 1, n)
    alone = [GramTables(s).family_rows([a], family.k0)[:2] for a in family.specs]
    built, real_pieces = [], estimator_mod._epanechnikov_pieces
    monkeypatch.setattr(estimator_mod, "_epanechnikov_pieces", lambda x, ell, h: built.append(h) or real_pieces(x, ell, h))
    monkeypatch.setattr(numerics, "pooled_map", lambda *args: pytest.fail("pooled_map called"))
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)
    monkeypatch.setattr(estimator_mod, "_FORK_WORK", 0)
    own, cross, _ = GramTables(s).family_rows(family.specs, family.k0)
    assert sorted(built) == sorted({spec.h[0] for spec in family.specs})
    assert [([a], [b]) for a, b in zip(own, cross)] == alone


def _serial_and_forked(monkeypatch, compute):
    """``compute()`` on the serial path, then with every block map on a
    pool of three workers; asserts that the second run used that pool."""
    import pcoselect.estimator as estimator_mod

    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    serial = compute()
    assert numerics._pool is None
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)
    monkeypatch.setattr(estimator_mod, "_FORK_WORK", 0)
    forked = compute()
    monkeypatch.undo()
    assert len(numerics._pool.workers) == 3
    return serial, forked


def _sweep_cases():
    n = 4 * _SWEEP_ROWS + 7
    g = [BandwidthSpec(GAUSSIAN, (h, 0.3)) for h in (1.0 / n, 0.05, 0.3)]
    e = [BandwidthSpec(EPANECHNIKOV, (h,)) for h in (0.03, 0.1, 0.2, 0.5)]
    gd = [BandwidthSpec(GAUSSIAN, (h,)) for h in (0.05, 0.1, 0.3)]
    return {
        # (g0, g0) and (g0, g1) reach the exponent floor and are summed, the others factored
        "gaussian-d2-floored": ([(a, b) for a in g for b in g], _uniform_sample(n, d=2, seed=70, loss=LossKind.IDENTITY)),
        "gaussian-d2-factored": (_family_pairs(TENSOR_FAMILIES[0]), _uniform_sample(n, d=2, seed=71, loss=LossKind.IDENTITY)),
        "gaussian-d3": (_family_pairs(TENSOR_FAMILIES[1]), _uniform_sample(n, d=3, seed=72, loss=LossKind.IDENTITY)),
        # both kinds of pair in one call: the Epanechnikov integrals of four
        # members, which run in this process, and the five trapezoid sums of
        # three, one item each on a pool of three workers
        "epanechnikov-and-gaussian": ([(f, f) for f in e] + [(e[0], f) for f in e[1:]]
                                      + [(f, f) for f in gd] + [(gd[0], f) for f in gd[1:]],
                                      _uniform_sample(n, seed=73, loss=LossKind.IDENTITY)),
    }


def _off_diagonal_sums(pairs, s):
    """Per pair the sum over i != j that u_statistic reads, from one read of
    every pair of each base kernel."""
    out = np.empty(len(pairs))
    for kind in {a.base.kind for a, _ in pairs}:
        at = [k for k, (a, _) in enumerate(pairs) if a.base.kind is kind]
        specs = list(dict.fromkeys(spec for k in at for spec in pairs[k]))
        index = [(specs.index(pairs[k][0]), specs.index(pairs[k][1])) for k in at]
        totals, sums = GramTables(s)._reads(specs, index, len(index), len(index))
        out[at] = [total - diagonal for total, diagonal in zip(totals, sums)]
    return out


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("case", sorted(_sweep_cases()))
def test_forked_sweep_is_bit_identical_to_serial(monkeypatch, case, diagonal):
    # without the diagonal: the sums over i != j that u_statistic reads, one
    # read per pair and one read of every pair, which has the same bits
    pairs, s = _sweep_cases()[case]
    if diagonal:
        compute = lambda: np.array(_totals(pairs, s.x, s.loss_values))
    else:
        compute = lambda: np.array([[u_statistic(a, b, s) for a, b in pairs], _off_diagonal_sums(pairs, s)])
    serial, forked = _serial_and_forked(monkeypatch, compute)
    assert np.array_equal(serial, forked)
    if not diagonal:
        assert np.array_equal(serial[0], serial[1])


def test_pooled_trapezoid_sums_are_bit_identical_to_serial(monkeypatch):
    # a d = 1 Gaussian family: one pair per item of the pool, narrow pairs reaching the exponent floor among them
    n = 4 * _SWEEP_ROWS + 7
    g = [BandwidthSpec(GAUSSIAN, (h,)) for h in (1.0 / n, 0.05, 0.3)]
    pairs, s = [(a, b) for a in g for b in g], _uniform_sample(n, seed=70, loss=LossKind.IDENTITY)
    serial, forked = _serial_and_forked(monkeypatch, lambda: np.array(_totals(pairs, s.x, s.loss_values)))
    assert np.array_equal(serial, forked)


def test_regression_family_maps_its_trapezoid_sums_on_the_pool(monkeypatch):
    # the 6-member Gaussian family of demos/quotient_regression.py at n = 1000:
    # 11 trapezoid pairs, 0.43 million exponentials, pass _FORK_WORK at their cost
    import pcoselect.estimator as estimator_mod

    n = 1000
    grid = sorted({1.0 / n, 0.01, 0.03, 0.08, 0.2, 0.5})
    family = make_bandwidth_family(GAUSSIAN, 1.0 / n, grid, 1, n)
    s = _uniform_sample(n, seed=76, loss=LossKind.IDENTITY)
    monkeypatch.setattr(estimator_mod, "_FORK_WORK", math.inf)
    serial = pco_select(family, s)
    monkeypatch.undo()
    maps = []
    real_map = numerics.pooled_map
    monkeypatch.setattr(numerics, "pooled_map",
                        lambda build, args, items: maps.append((build, len(items))) or real_map(build, args, items))
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 4)
    pooled = pco_select(family, s)
    assert maps == [(estimator_mod._trapezoid_builder, 11)]
    assert len(numerics._pool.workers) == 3
    assert pooled == serial


@pytest.mark.parametrize("d", [1, 2])
def test_forked_grid_evaluation_is_bit_identical_to_serial(monkeypatch, d):
    s = _uniform_sample(300, d=d, seed=74, loss=LossKind.IDENTITY)
    specs = [BandwidthSpec(GAUSSIAN, (1.0 / 300,) * d), BandwidthSpec(GAUSSIAN, (0.1,) * d),
             BandwidthSpec(EPANECHNIKOV, (0.2,) * d)]
    pts = np.random.default_rng(75).uniform(-0.1, 1.1, (2000, d))
    assert pts.shape[0] > 4 * _grid_width(s.n, d)
    serial, forked = _serial_and_forked(monkeypatch, lambda: estimate_on_grid(specs, s, pts))
    assert np.array_equal(serial, forked)


# weight-row stacks, one case per kernel kind; every case adds a Gaussian
# member so that the pooled run maps its blocks on the pool
_WEIGHT_ROW_CASES = {
    "gaussian-d1": [BandwidthSpec(GAUSSIAN, (0.07,))],
    # exponents down to -0.5 / 0.004^2, far below the -700 floor
    "gaussian-d1-floor": [BandwidthSpec(GAUSSIAN, (0.004,))],
    "gaussian-d2": [BandwidthSpec(GAUSSIAN, (0.05, 0.2))],
    "epanechnikov": [BandwidthSpec(EPANECHNIKOV, (0.1,)), BandwidthSpec(EPANECHNIKOV, (0.3,))],
    "nested-projection": [ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (4,), _W)],
    "nested-projection-d2": [ProjectionSpec(LEG, (5, 3), _W)],
    "histogram": [ProjectionSpec(HIST, (7,), _W), ProjectionSpec(HIST, (3,))],
}


@pytest.mark.parametrize("case", sorted(_WEIGHT_ROW_CASES))
def test_weight_rows_are_identical_to_single_row_calls(monkeypatch, case):
    members = _WEIGHT_ROW_CASES[case]
    x, _ = _weighted_points(members[0], 301, seed=80)
    points, _ = _weighted_points(members[0], 900, seed=81)
    specs = members + [BandwidthSpec(GAUSSIAN, (0.1,) * members[0].d)]
    rng = stream(82)
    # an odd n: rows after the first start off a 16-byte boundary
    w = np.stack([np.ones(len(x)), rng.standard_normal(len(x)), rng.random(len(x))])
    assert len(points) > 3 * _grid_width(len(x), x.shape[1])

    def compute():
        stacked = _kernel_sums(specs, x, w, points, len(x))
        return stacked, [_kernel_sums(specs, x, wj.copy(), points, len(x)) for wj in w]

    serial, pooled = _serial_and_forked(monkeypatch, compute)
    for stacked, singles in (serial, pooled):
        assert stacked.shape == (len(specs), len(w), len(points))
        for j, single in enumerate(singles):
            assert np.array_equal(stacked[:, j], single)
    assert np.array_equal(serial[0], pooled[0])


_BLAS_THREADS_SCRIPT = """
import hashlib
import logging
from pcoselect import EPANECHNIKOV, GAUSSIAN, LossKind, Sample, make_bandwidth_family, pco_select, stream
from pcoselect import estimator
from pcoselect.estimator import _bandwidth_diag_value, bandwidth_totals

def sample(n, d, seed):
    rng = stream(seed)
    return Sample(rng.random((n, d)), rng.standard_normal(n), LossKind.IDENTITY)

class Paths(logging.Handler):
    def emit(self, record):
        paths.append(record.getMessage())

paths = []
estimator.log.addHandler(Paths())
estimator.log.setLevel(logging.DEBUG)
cases = [
    # d = 1 from h = 1/n: the trapezoid sums, no sweep
    (make_bandwidth_family(GAUSSIAN, 1 / 12000, [1 / 12000, 0.02, 0.05], 1, 12000), sample(12000, 1, 1)),
    # rows longer than OpenBLAS's threading threshold, contracted in chunks of _CONTRACT_COLS
    (make_bandwidth_family(GAUSSIAN, 0.05, [0.05, 0.3], 2, 10100), sample(10100, 2, 2)),
    (make_bandwidth_family(EPANECHNIKOV, 0.02, [0.02, 0.05, 0.2], 1, 800), sample(800, 1, 3)),
]
assert cases[1][1].n - 1 > 10000 > 2 * estimator._CONTRACT_COLS
for fam, s in cases:
    print(hashlib.sha256(pco_select(fam, s).to_json().encode()).hexdigest())
    # the criterion rounds away most of the totals' last bits, so they are compared too
    pairs = list(dict.fromkeys(p for spec in fam.specs for p in ((spec, spec), (spec, fam.k0))))
    consts = [_bandwidth_diag_value(*pair) for pair in pairs]
    print(*(t.hex() for t in bandwidth_totals(pairs, s.x, s.loss_values, consts)))
    if s.d == 1 and fam.k0.base is GAUSSIAN:
        assert paths and all(path.endswith(" 0 pairs swept") for path in paths), paths
"""


def test_selection_is_byte_identical_across_blas_thread_counts():
    src = os.path.dirname(os.path.dirname(estimate_on_grid.__code__.co_filename))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 6
    assert outputs[0] == outputs[1]


_QUOTIENT_THREADS_SCRIPT = """
import hashlib
import numpy as np
from pcoselect import EPANECHNIKOV, GAUSSIAN, BandwidthSpec, LossKind, QuotientConfig, Sample, quotient_on_grid, stream
from pcoselect import estimator, numerics

rng = stream(7)
x = rng.random((1000, 1))
sample = Sample(x, np.sin(6.0 * x[:, 0]) + 0.3 * rng.standard_normal(1000), LossKind.IDENTITY)
# unsorted points, inside the sample's range and outside it
points = rng.uniform(-0.5, 1.5, (4001, 1))
cases = [(BandwidthSpec(GAUSSIAN, (0.01,)), BandwidthSpec(GAUSSIAN, (0.03,))),
         (BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(GAUSSIAN, (0.001,))),
         (BandwidthSpec(EPANECHNIKOV, (0.05,)), BandwidthSpec(EPANECHNIKOV, (0.05,)))]
# every evaluation maps its blocks, on one process and then on two
estimator._FORK_WORK = 0
for cpus in (1, 2):
    numerics.usable_cpus = lambda: cpus
    digest = hashlib.sha256()
    for num, den in cases:
        values, inside = quotient_on_grid(num, den, sample, QuotientConfig(), points)
        digest.update(values.tobytes() + inside.tobytes())
    print(digest.hexdigest())
"""


def test_quotient_is_byte_identical_across_pool_and_blas_thread_counts():
    src = os.path.dirname(os.path.dirname(estimate_on_grid.__code__.co_filename))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _QUOTIENT_THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs += proc.stdout.split()
    assert len(outputs) == 4 and len(set(outputs)) == 1


@pytest.mark.parametrize("a,b", BANDWIDTH_PAIRS)
def test_bandwidth_sweep_matches_quadrature(a, b):
    s = _uniform_sample(7, d=a.d, seed=40, loss=LossKind.IDENTITY)
    ell = s.loss_values
    quad = np.array([[quad_section_inner(a, xi, b, xj) for xj in s.x] for xi in s.x])
    assert_allclose(GramTables(s).weighted_total(a, b), float(ell @ quad @ ell), rtol=1e-12)


def test_mixed_base_pairs_raise_naming_both_bases():
    # a pair has one closed form only when both kernels share their base
    s = _uniform_sample(40, seed=37, loss=LossKind.IDENTITY)
    g, e = BandwidthSpec(GAUSSIAN, (0.1,)), BandwidthSpec(EPANECHNIKOV, (0.3,))
    both = r"two bases \((gaussian x epanechnikov|epanechnikov x gaussian)\)"
    with pytest.raises(ValueError, match=r"member 1 \(bandwidth:epanechnikov:.*member 0 \(bandwidth:gaussian:"):
        KernelFamily((g, e), s.n, 0)
    with pytest.raises(ValueError, match=both):
        _totals([(g, g), (g, e)], s.x, s.loss_values)
    with pytest.raises(ValueError, match=both):
        section_inner_matrix(e, s.x, g, s.x)
    with pytest.raises(ValueError, match=both):
        section_inner_pointwise(g, s.x, e, s.x)
    with pytest.raises(ValueError, match=both):
        u_statistic(g, e, s)
    with pytest.raises(ValueError, match=both):
        GramTables(s).weighted_total(g, e)
    with pytest.raises(ValueError, match=both):
        GramTables(s).diag(g, e)
    scn = scenario_from_config({"d": 1, "n": 30, "replications": 2, "seed": 5})
    with pytest.raises(ValueError, match=both):
        concentration_experiment(g, e, scn, LossKind.ONE)


def test_sample_tables_are_bounded_before_they_are_allocated(monkeypatch):
    import pcoselect.estimator as estimator_mod

    # n x m_max basis values, or cells of every order up to m_max, per axis
    monkeypatch.setattr(estimator_mod, "basis_matrix", lambda *a: pytest.fail("the basis table was allocated"))
    monkeypatch.setattr(estimator_mod, "histogram_cells", lambda *a: pytest.fail("the cells were computed"))
    s = _uniform_sample(20_000, seed=41)
    wide = BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=1000)
    with pytest.raises(ConfigError, match="basis values at the sample: n 20000 x m_max 839 .* limit of 16777216"):
        GramTables(s).coefficients(ProjectionSpec(wide, (839,)))
    # the n diagonal values of a pair come from the pointwise reference, bounded the same way,
    # at the order min(m_a, m_b) it evaluates
    with pytest.raises(ConfigError, match="basis values at the points: n 20000 x m_max 839 .* limit of 16777216"):
        GramTables(s).diag(ProjectionSpec(wide, (839,)), ProjectionSpec(wide, (840,)))
    hist = ProjectionSpec(BasisFamily(BasisKind.REGULAR_HISTOGRAM, m_cap=1000), (839,))
    with pytest.raises(ConfigError, match="histogram cells at the sample: n 20000 x m_max 839 .* limit of 16777216"):
        penalty(hist, hist, s)


def test_nested_reads_bound_their_basis_values_alone(monkeypatch):
    import pcoselect.errors as errors_mod
    import pcoselect.estimator as estimator_mod

    # a read holds n x 9 basis values at n = 50, and per pair of weight
    # vectors two prefix tables of 9 entries, not a row of n values per pair
    monkeypatch.setattr(errors_mod, "MAX_TABLE_ENTRIES", 450)
    s = _uniform_sample(50, seed=47)
    plain, weighted = ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (9,), _W)
    members = [ProjectionSpec(TRIG, (m,), w) for m in range(1, 10) for w in (None, _W)]
    tables = GramTables(s)
    # read after read, and 18 members in one read: nothing is held between them but the tensor
    for a, b in [(plain, plain), (plain, weighted), (weighted, weighted)] * 2:
        penalty(a, b, s)
        tables.family_rows(members, b)
    assert list(vars(tables)) == ["sample", "_coeffs"]
    monkeypatch.setattr(errors_mod, "MAX_TABLE_ENTRIES", 449)
    monkeypatch.setattr(estimator_mod, "basis_matrix", lambda *a: pytest.fail("the basis values were allocated"))
    with pytest.raises(ConfigError, match="basis values at the sample: n 50 x m_max 9 asks for a table of 450 "
                                          "entries, above the limit of 449"):
        GramTables(s).family_rows([plain, weighted], plain)


def test_bandwidth_sweep_rejects_mixed_variants():
    s = _uniform_sample(5, seed=37)
    with pytest.raises(ValueError, match="mixed"):
        GramTables(s).weighted_total(BandwidthSpec(GAUSSIAN, (0.2,)), ProjectionSpec(TRIG, (3,)))
    with pytest.raises(ValueError, match="dimensions"):
        GramTables(s).weighted_total(BandwidthSpec(GAUSSIAN, (0.2,)), BandwidthSpec(GAUSSIAN, (0.2, 0.3)))


def test_gram_tables_diag():
    s = _uniform_sample(9, seed=23)
    tables = GramTables(s)
    a = ProjectionSpec(HIST, (4,))
    b = ProjectionSpec(HIST, (6,))
    diag = tables.diag(a, b)
    mat = tables.matrix(a, b)
    assert_allclose(diag, np.diagonal(mat), rtol=1e-12)


# ---------------------------------------------------------------------------
# projection pairs in coefficient space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b", PROJECTION_PAIRS)
def test_projection_coefficient_form_matches_quadrature(a, b):
    s = _sample_for(a, 7, seed=33)
    ell = s.loss_values
    quad = np.array([[quad_section_inner(a, xi, b, xj) for xj in s.x] for xi in s.x])
    tables = GramTables(s)
    assert_allclose(tables.weighted_total(a, b), float(ell @ quad @ ell), rtol=1e-12)
    assert_allclose(tables.diag(a, b), np.diagonal(quad), rtol=1e-12)


def test_nested_coefficients_are_slices_of_the_widest_evaluation():
    s = _sample_for(ProjectionSpec(TRIG, (1, 1)), 50, seed=34)
    tables = GramTables(s)
    # a family read evaluates the basis once, at the top orders (6, 5)
    specs = [ProjectionSpec(TRIG, (6, 2)), ProjectionSpec(TRIG, (2, 5))]
    tables.family_rows(specs, specs[0])
    for m in [(1, 1), (6, 5), (3, 4), (6, 1)]:
        spec = ProjectionSpec(TRIG, m)
        # fresh tables evaluate the basis at the member's own orders
        direct = GramTables(s).coefficients(spec)
        assert np.array_equal(tables.coefficients(spec), direct)


# order pairs per dimension count: m_a < m_b, m_a > m_b, equal, and mixed
# across axes; at d = 1 also boxes of more than 8 entries inside a larger
# tensor, where numpy's pairwise sum groups the box differently from the
# full shape
_NESTED_ORDER_PAIRS = {
    1: [((3,), (9,)), ((9,), (3,)), ((6,), (6,)), ((1,), (12,)), ((20,), (9,)), ((9,), (20,)), ((17,), (24,))],
    2: [((2, 3), (5, 4)), ((5, 4), (2, 3)), ((5, 1), (2, 4)), ((3, 3), (3, 3))],
    3: [((1, 2, 3), (3, 3, 3)), ((3, 3, 2), (1, 2, 3)), ((3, 1, 2), (1, 3, 2))],
}
_W_OTHER = (0.8, 0.0, 0.7, 0.5, 0.45, 0.3, 0.25, 0.2, 0.1, 0.05, 0.04, 0.01) * 2


@pytest.mark.parametrize("basis", [TRIG, LEG], ids=["trigonometric", "legendre"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("loss", [LossKind.ONE, LossKind.IDENTITY], ids=["one", "y"])
def test_nested_totals_and_diagonals_match_the_cross_gram_form(basis, d, loss):
    # the prefix tables sum in index order, the cross-Gram form pairwise
    s = _sample_for(ProjectionSpec(basis, (1,) * d), 300, seed=36)
    s = s.with_loss(loss)
    tables = GramTables(s)
    weights = [None, _W + tuple(np.geomspace(0.005, 1e-4, 15)), _W_OTHER]
    for ma, mb in _NESTED_ORDER_PAIRS[d]:
        for wa in weights:
            for wb in weights:
                a, b = ProjectionSpec(basis, ma, wa), ProjectionSpec(basis, mb, wb)
                total = tables.weighted_total(a, b)
                assert_allclose(total, cross_gram_total(tables, a, b), rtol=1e-12, atol=0)
                diag = weighted_values_diag(tables, a, b)
                assert_allclose(tables.diag(a, b), diag, rtol=1e-12, atol=0)
                diagonal = _diagonal_sum(tables, a, b)
                assert_allclose(diagonal, numerics.pairwise_sum(s.loss_values**2 * diag), rtol=1e-12, atol=0)
                # the same bits in either order, and from fresh tables
                fresh = GramTables(s)
                assert fresh.weighted_total(b, a).hex() == total.hex()
                assert _diagonal_sum(fresh, b, a).hex() == diagonal.hex()
                assert fresh.diag(b, a).tobytes() == tables.diag(a, b).tobytes()


def _diagonal_sum(tables, a, b):
    """sum_i ell_i^2 G_ab[i, i] from a read of the one pair."""
    return tables._reads([a, b], [(0, 1)], 0, 1)[1][0]


def _dense_rows(family, s):
    """The (a, a) and (a, k0) totals and (a, k0) diagonals of every member
    from the dense section tables."""
    ell, k0 = s.loss_values, family.k0
    own = [float(ell @ section_inner_matrix(a, s.x, a, s.x) @ ell) for a in family.specs]
    cross = [section_inner_matrix(a, s.x, k0, s.x) for a in family.specs]
    return own, [float(ell @ g @ ell) for g in cross], [np.diagonal(g) for g in cross]


def _hand_built(basis, orders, w, k0_index):
    specs = tuple(ProjectionSpec(basis, m, w) for m in orders)
    return KernelFamily(specs, 1000, k0_index)


# nested d = 1, 2, 3 and histogram d = 1, 2, weighted and not; k0 at the
# top, and below it with members of larger orders; histogram orders cross
_FAMILY_ROWS_CASES = {
    "trigonometric-d1": (TRIG, [(1,), (4,), (9,), (6,)], 2),
    "trigonometric-d1-w-k0-inside": (TRIG, [(2,), (7,), (5,), (12,)], 2, _W_OTHER),
    "legendre-d2-w": (LEG, [(1, 1), (3, 2), (2, 4), (4, 4)], 3, _W),
    "legendre-d2-k0-inside": (LEG, [(1, 3), (3, 2), (2, 4), (5, 1)], 1),
    "trigonometric-d3": (TRIG, [(1, 1, 1), (2, 3, 1), (3, 3, 3), (3, 1, 2)], 2),
    "trigonometric-d3-w-k0-inside": (TRIG, [(1, 2, 1), (2, 3, 1), (3, 3, 3), (3, 1, 2)], 1, _W),
    "histogram-d1": (HIST, [(3,), (7,), (5,), (9,)], 3),
    "histogram-d1-w-k0-inside": (HIST, [(3,), (7,), (5,), (9,)], 1, _W),
    "histogram-d2-crossing": (HIST, [(5, 2), (3, 7), (2, 2), (4, 6)], 1, _W),
    "histogram-d2-crossing-k0-inside": (HIST, [(5, 2), (3, 7), (2, 2), (6, 4)], 0),
}


@pytest.mark.parametrize("case", list(_FAMILY_ROWS_CASES))
def test_reserved_projection_pairs_match_the_dense_tables(case):
    # the rows of GramTables.family_rows, against the dense tables and against
    # reads of one pair at a time
    basis, orders, k0_index, *w = _FAMILY_ROWS_CASES[case]
    family = _hand_built(basis, orders, w[0] if w else None, k0_index)
    s = _sample_for(family.k0, 60, seed=42)
    k0 = family.k0
    rows = GramTables(s).family_rows(family.specs, k0)
    assert [len(row) for row in rows] == [len(family)] * 3
    ell_sq = s.loss_values**2
    for a, r_own, r_cross, r_sum, t_own, t_cross, diag in zip(family.specs, *rows, *_dense_rows(family, s)):
        assert_allclose(r_own, t_own, rtol=1e-12, atol=0)
        assert_allclose(r_cross, t_cross, rtol=1e-12, atol=0)
        assert_allclose(r_sum, float(np.sum(ell_sq * diag)), rtol=1e-12, atol=0)
        # a family read or one pair at a time, in either order: the same bits
        single = GramTables(s)
        assert single.weighted_total(k0, a).hex() == r_cross.hex()
        assert single.weighted_total(a, a).hex() == r_own.hex()
        assert _diagonal_sum(single, k0, a).hex() == r_sum.hex()


@pytest.mark.parametrize("case", ["trigonometric-d1-w-k0-inside", "legendre-d2-k0-inside",
                                  "histogram-d2-crossing-k0-inside"])
def test_reserved_projection_pairs_match_quadrature(case):
    basis, orders, k0_index, *w = _FAMILY_ROWS_CASES[case]
    family = _hand_built(basis, orders, w[0] if w else None, k0_index)
    s = _sample_for(family.k0, 5, seed=43)
    ell, k0 = s.loss_values, family.k0
    for a, *row in zip(family.specs, *GramTables(s).family_rows(family.specs, k0)):
        for b, total in ((a, row[0]), (k0, row[1])):
            quad = np.array([[quad_section_inner(a, xi, b, xj) for xj in s.x] for xi in s.x])
            assert_allclose(total, float(ell @ quad @ ell), rtol=1e-12)
        # quad is now the (a, k0) table
        assert_allclose(row[2], float(np.sum(ell * ell * np.diagonal(quad))), rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", ["trigonometric-d1-w-k0-inside", "legendre-d2-k0-inside",
                                  "histogram-d2-crossing-k0-inside", "trigonometric-d3-w-k0-inside"])
def test_pco_select_with_k0_below_the_top_member_matches_the_dense_rows(case):
    basis, orders, k0_index, *w = _FAMILY_ROWS_CASES[case]
    family = _hand_built(basis, orders, w[0] if w else None, k0_index)
    assert any(mq > m0 for spec in family.specs for mq, m0 in zip(spec.m, family.k0.m))
    s = _sample_for(family.k0, 80, seed=44)
    report = pco_select(family, s)
    own, cross, diags = _dense_rows(family, s)
    ell, n, top = s.loss_values, s.n, max(own)
    for row, t_own, t_cross, diag in zip(report.rows, own, cross, diags):
        distance = max(0.0, (t_own - 2.0 * t_cross + own[family.k0_index]) / n**2)
        assert abs(row.distance - distance) <= 1e-12 * top / n**2
        assert_allclose(row.penalty, 2.0 * float(np.sum(diag * ell * ell)) / n**2, rtol=1e-12)


@pytest.mark.parametrize("basis,orders", [(TRIG, ((3, 2), (5, 4))), (LEG, ((6,), (2,))), (HIST, ((3, 5), (4, 2))),
                                          (HIST, ((4,), (4,)))])
def test_projection_pair_with_two_weight_vectors_matches_the_dense_table(basis, orders):
    a = ProjectionSpec(basis, orders[0], _W)
    b = ProjectionSpec(basis, orders[1], _W_OTHER)
    s = _sample_for(a, 50, seed=45)
    ell = s.loss_values
    dense = section_inner_matrix(a, s.x, b, s.x)
    tables = GramTables(s)
    assert_allclose(tables.weighted_total(a, b), float(ell @ dense @ ell), rtol=1e-12)
    assert_allclose(tables.diag(a, b), np.diagonal(dense), rtol=1e-12, atol=1e-14 * np.max(np.diagonal(dense)))
    diagonal = _diagonal_sum(tables, a, b)
    assert_allclose(diagonal, float(np.sum(ell * ell * np.diagonal(dense))), rtol=1e-12, atol=0)
    assert GramTables(s).weighted_total(b, a).hex() == tables.weighted_total(a, b).hex()
    assert _diagonal_sum(GramTables(s), b, a).hex() == diagonal.hex()
    assert GramTables(s).diag(b, a).tobytes() == tables.diag(a, b).tobytes()


def _per_pair_rows(fam, s, step=1):
    """Every ``step``-th member's (distance, penalty) as hex, read one pair
    at a time through criterion_distance and penalty, each on fresh GramTables."""
    return [(criterion_distance(a, fam.k0, s).hex(), penalty(a, fam.k0, s).hex()) for a in fam.specs[::step]]


def _chunked_rows(fam, s, size):
    """Every member's (distance, penalty) as hex, from one
    :meth:`GramTables.family_rows` read per disjoint chunk of ``size``
    members, each on fresh GramTables, and the (k0, k0) total from one more."""
    anchor = GramTables(s).weighted_total(fam.k0, fam.k0)
    rows = []
    for lo in range(0, len(fam), size):
        own, cross, sums = GramTables(s).family_rows(fam.specs[lo : lo + size], fam.k0)
        rows += [(_distance(o, c, anchor, s.n).hex(), (2.0 * diagonal / s.n**2).hex())
                 for o, c, diagonal in zip(own, cross, sums)]
    return rows


def _report_rows(report):
    return [(row.distance.hex(), row.penalty.hex()) for row in report.rows]


def test_pco_select_on_projections_builds_no_gram_table(monkeypatch):
    import pcoselect.estimator as estimator_mod
    import pcoselect.kernels as kernels_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("projection selection must not build pairwise section tables")

    reference = {}
    cases = [(TRIG, 1, 12), (HIST, 1, 12), (LEG, 1, 12), (TRIG, 2, 4), (HIST, 2, 4)]
    for basis, d, m_max in cases:
        s = _sample_for(ProjectionSpec(basis, (1,) * d), 80, seed=35)
        fam = make_projection_family(basis, m_max, d, s.n)
        # read pair by pair, each read on fresh tables
        reference[basis.kind, d] = (fam, s, _per_pair_rows(fam, s))
    for module in (estimator_mod, kernels_mod):
        monkeypatch.setattr(module, "section_inner_matrix", forbidden)
        monkeypatch.setattr(module, "section_inner_pointwise", forbidden, raising=False)
    calls, cells, grams = [], [], []
    real_basis_matrix, real_cells = estimator_mod.basis_matrix, estimator_mod.histogram_cells
    real_gram = estimator_mod.weighted_cross_gram
    monkeypatch.setattr(estimator_mod, "basis_matrix", lambda *a: calls.append(a[1]) or real_basis_matrix(*a))
    monkeypatch.setattr(estimator_mod, "histogram_cells", lambda m, x: cells.append(m) or real_cells(m, x))
    monkeypatch.setattr(estimator_mod, "weighted_cross_gram",
                        lambda a, b, q: grams.append((a.m[q], b.m[q])) or real_gram(a, b, q))
    for (kind, d), (fam, s, want) in reference.items():
        calls.clear()
        cells.clear()
        grams.clear()
        assert _report_rows(pco_select(fam, s)) == want
        # nested bases: one evaluation per dimension, at the family's top order
        assert calls == ([] if kind is BasisKind.REGULAR_HISTOGRAM else [fam.k0.m[0]] * d)
        # histograms: the cells of every order of an axis, in one pass per axis
        orders = [sorted({m for spec in fam.specs for m in spec.m})] * d
        assert [list(m) for m in cells] == (orders if kind is BasisKind.REGULAR_HISTOGRAM else [])
        # histograms: one cross-Gram per (m, m0), shared by the axes, the
        # (K, K0) total and its diagonal; (K, K) totals build none
        m0 = fam.k0.m[0]
        assert sorted(grams) == ([(m, m0) for m in range(1, m0 + 1)] if kind is BasisKind.REGULAR_HISTOGRAM else [])


def test_pco_select_on_bandwidths_builds_no_gram_table(monkeypatch):
    import pcoselect.estimator as estimator_mod
    import pcoselect.kernels as kernels_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("bandwidth selection must not build pairwise section tables")

    reference = {}
    cases = [(GAUSSIAN, 1, [0.02, 0.05, 0.1, 0.3]), (GAUSSIAN, 2, [0.15, 0.25, 0.4]), (EPANECHNIKOV, 1, [0.03, 0.1, 0.3])]
    for base, d, grid in cases:
        s = _uniform_sample(2 * _SWEEP_ROWS + 9, d=d, seed=38, loss=LossKind.IDENTITY)
        fam = make_bandwidth_family(base, grid[0], grid, d, s.n)
        # read pair by pair, every total takes its own sweep
        reference[base.kind, d] = (fam, s, _per_pair_rows(fam, s))
    monkeypatch.setattr(GramTables, "matrix", forbidden)
    for module in (estimator_mod, kernels_mod):
        monkeypatch.setattr(module, "section_inner_matrix", forbidden)
        monkeypatch.setattr(module, "section_inner_pointwise", forbidden, raising=False)
    sweeps = []
    real_totals = estimator_mod.bandwidth_totals
    monkeypatch.setattr(estimator_mod, "bandwidth_totals", lambda pairs, *a: sweeps.append(pairs) or real_totals(pairs, *a))
    for fam, s, want in reference.values():
        sweeps.clear()
        assert _report_rows(pco_select(fam, s)) == want
        # one sweep fills the 2N - 1 totals (K, K) and (K, K0)
        assert [len(pairs) for pairs in sweeps] == [2 * len(fam) - 1]


# bandwidth families as (base, d, grid, n); the d = 1 Gaussian family takes
# the trapezoid sum, the others sweep
_BANDWIDTH_SELECTIONS = {
    "gaussian-d1": (GAUSSIAN, 1, [0.01, 0.03, 0.1, 0.3, 0.5], 500),
    "gaussian-d2": (GAUSSIAN, 2, [0.1, 0.2, 0.4], 150),
    "epanechnikov-d1": (EPANECHNIKOV, 1, [0.03, 0.1, 0.3], 150),
}
# histogram families built by make_projection_family as (m_max, d, w, n),
# on samples with points off the support [0, 1)
_HISTOGRAM_SELECTIONS = {
    "histogram-family-d1": (20, 1, None, 400),
    "histogram-family-d2-w": (4, 2, _W, 200),
    "histogram-family-d3": (3, 3, None, 100),
}


@pytest.mark.parametrize("case", [*_BANDWIDTH_SELECTIONS, *_HISTOGRAM_SELECTIONS, "trigonometric-d1-w-k0-inside",
                                  "legendre-d2-w", "histogram-d1", "histogram-d1-w-k0-inside", "histogram-d2-crossing",
                                  "histogram-d2-crossing-k0-inside"])
def test_pco_select_rows_are_identical_to_per_pair_reads(case):
    if case in _BANDWIDTH_SELECTIONS:
        base, d, grid, n = _BANDWIDTH_SELECTIONS[case]
        s = _uniform_sample(n, d=d, seed=47, loss=LossKind.IDENTITY)
        fam = make_bandwidth_family(base, grid[0], grid, d, n)
    elif case in _HISTOGRAM_SELECTIONS:
        m_max, d, w, n = _HISTOGRAM_SELECTIONS[case]
        gen = stream(47, 1, 0)
        s = Sample(gen.random((n, d)) * 1.2 - 0.1, gen.standard_normal(n), LossKind.IDENTITY)
        fam = make_projection_family(HIST, m_max, d, n, w)
    else:
        basis, orders, k0_index, *w = _FAMILY_ROWS_CASES[case]
        fam = _hand_built(basis, orders, w[0] if w else None, k0_index)
        s = _sample_for(fam.k0, 80, seed=47)
    want = _per_pair_rows(fam, s)
    assert _report_rows(pco_select(fam, s)) == want
    assert _report_rows(pco_select(fam, s, GramTables(s))) == want


def test_pco_select_on_passed_tables_sweeps_once_with_identical_rows(monkeypatch):
    import pcoselect.estimator as estimator_mod

    s = _uniform_sample(300, seed=48, loss=LossKind.IDENTITY)
    grid = [0.01, 0.015, 0.025, 0.04, 0.06, 0.1, 0.16, 0.25, 0.4]
    fam = make_bandwidth_family(GAUSSIAN, grid[0], grid, 1, s.n)
    sweeps = []
    real_totals = estimator_mod.bandwidth_totals
    monkeypatch.setattr(estimator_mod, "bandwidth_totals",
                        lambda pairs, *a: sweeps.append(len(pairs)) or real_totals(pairs, *a))
    tables = GramTables(s)
    report = pco_select(fam, s, tables)
    # tables passed in take the same one sweep of the 2N - 1 pairs as pco_select's own
    assert sweeps == [2 * len(fam) - 1]
    assert pco_select(fam, s).to_json() == report.to_json()
    assert sweeps == [2 * len(fam) - 1] * 2
    # nothing is kept per pair: a second selection on the same tables sweeps again, to the same rows
    assert pco_select(fam, s, tables).to_json() == report.to_json()
    assert sweeps == [2 * len(fam) - 1] * 3


@pytest.mark.parametrize("a,k0", [(BandwidthSpec(GAUSSIAN, (0.02,)), BandwidthSpec(GAUSSIAN, (0.3,))),
                                  (BandwidthSpec(EPANECHNIKOV, (0.3, 0.2)), BandwidthSpec(EPANECHNIKOV, (0.05, 0.1)))],
                         ids=["gaussian-d1", "epanechnikov-d2"])
def test_per_pair_statistics_take_one_read_with_identical_values(monkeypatch, a, k0):
    import pcoselect.estimator as estimator_mod

    s = _uniform_sample(300, d=a.d, seed=51, loss=LossKind.IDENTITY)
    tables = GramTables(s)
    own, cross, anchor = (tables.weighted_total(*pair) for pair in ((a, a), (a, k0), (k0, k0)))
    diagonal = _diagonal_sum(tables, a, k0)
    assert_allclose(diagonal, _bandwidth_diag_value(a, k0) * numerics.pairwise_sum(s.loss_values**2), rtol=1e-15)
    sweeps, consts = [], []
    real_totals, real_const = estimator_mod.bandwidth_totals, estimator_mod._bandwidth_diag_value
    monkeypatch.setattr(estimator_mod, "bandwidth_totals",
                        lambda pairs, *rest: sweeps.append(len(pairs)) or real_totals(pairs, *rest))
    monkeypatch.setattr(estimator_mod, "_bandwidth_diag_value", lambda *pair: consts.append(pair) or real_const(*pair))
    # the distance's three totals take one call, with the bits of three single reads
    assert criterion_distance(a, k0, s).hex() == _distance(own, cross, anchor, s.n).hex()
    assert sweeps == [3] and len(consts) == 3
    # U's total and diagonal sum are one read of one pair, whose c_ab is computed once
    assert u_statistic(a, k0, s).hex() == (cross - diagonal).hex()
    assert sweeps == [3, 1] and len(consts) == 4
    # a pair given three times is read once
    assert criterion_distance(k0, k0, s) == 0.0
    assert sweeps == [3, 1, 1]


# A dense n x n table would take 200 MB at n = 5000 and 32 MB at n = 2000;
# the sweep's scratch is a few row blocks.
SELECTION_PEAK_BOUND = 16 * 2**20


def _selection_peak(monkeypatch, fam, s):
    """The peak traced memory of ``pco_select(fam, s)``, and its report."""
    import tracemalloc

    # tracemalloc sees this process only: keep the whole sweep in it
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        report = pco_select(fam, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, report


@pytest.mark.parametrize("base,n,grid", [(GAUSSIAN, 5000, [0.01, 0.1, 0.5]), (EPANECHNIKOV, 2000, [0.01, 0.05, 0.2]),
                                         (EPANECHNIKOV, 5000, [5e-4, 1e-3, 2e-3, 4e-3]),
                                         (EPANECHNIKOV, 5000, [0.02, 0.05, 0.1, 0.2])])
def test_pco_select_memory_is_bounded(monkeypatch, base, n, grid):
    fam = make_bandwidth_family(base, grid[0], grid, 1, n)
    assert _selection_peak(monkeypatch, fam, _uniform_sample(n, seed=39))[0] < SELECTION_PEAK_BOUND


def test_pco_select_memory_is_bounded_at_d2(monkeypatch):
    # the family's 10 per-dimension tables share their budget a few rows at a time
    grid = [0.02, 0.1, 0.4]
    fam = make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, 5000)
    assert _selection_peak(monkeypatch, fam, _uniform_sample(5000, d=2, seed=39))[0] < SELECTION_PEAK_BOUND


@pytest.mark.parametrize("m_max,d,n,bound", [(500, 1, 2000, 2.2), (20, 2, 2000, 1.0), (30, 2, 900, 1.0)],
                         ids=["trigonometric-d1-500", "trigonometric-d2-20", "trigonometric-d2-30"])
def test_nested_selection_holds_no_diagonal_rows(monkeypatch, m_max, d, n, bound):
    # in units of one (N, n) table of diagonal rows: at d = 1 the n x 500 basis
    # values are as large, and the coefficient products' scratch (4 MB) is
    # beside them; at d = 2 the N = m_max^2 members outnumber the basis values
    rng = stream(49)
    s = Sample(rng.random((n, d)), rng.standard_normal(n), LossKind.IDENTITY)
    fam = make_projection_family(BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=1000), m_max, d, n)
    peak, report = _selection_peak(monkeypatch, fam, s)
    assert peak < bound * len(fam) * n * 8
    # every member against reads of disjoint 50-member chunks, each with k0
    # and its own tensors
    assert _report_rows(report) == _chunked_rows(fam, s, 50)
    # every 20th member alone: a per-pair read evaluates the basis at the top order
    step = len(fam) // 20
    assert _report_rows(report)[::step] == _per_pair_rows(fam, s, step)


def test_pco_select_reads_the_64_member_trigonometric_family_at_n_100000():
    # 64 rows of 10^5 diagonal values would be 6.4 million entries beside the
    # basis values; the penalties are one prefix-table entry each
    n = 100_000
    rng = stream(52)
    s = Sample(rng.random((n, 1)), rng.standard_normal(n), LossKind.IDENTITY)
    fam = make_projection_family(TRIG, 64, 1, n)
    report = pco_select(fam, s)
    ell_sq = s.loss_values**2
    # every 9th member, k0 among them, against the pointwise reference
    for a, row in list(zip(fam.specs, report.rows))[::9]:
        want = 2.0 * numerics.pairwise_sum(ell_sq * section_inner_pointwise(a, s.x, fam.k0, s.x)) / n**2
        assert_allclose(row.penalty, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [1, 2])
def test_nested_rows_of_interleaved_weight_vectors_are_identical_to_per_pair_reads(d):
    # members alternate between two weight vectors, so each pair of weight vectors reads every other member
    orders = [(m,) * d for m in range(1, 7)]
    specs = tuple(ProjectionSpec(LEG, m, None if i % 2 else _W) for i, m in enumerate(orders))
    fam = KernelFamily(specs, 1000, len(specs) - 1)
    s = _sample_for(fam.k0, 80, seed=50)
    assert _report_rows(pco_select(fam, s)) == _per_pair_rows(fam, s)
