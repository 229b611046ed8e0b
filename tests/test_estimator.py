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

from helpers import cross_gram_total, quad_section_inner, reference_product_tensor, reference_read_csv, weighted_values_diag
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
    _SERIES_BREAK_EVEN,
    _SERIES_MAX_TERMS,
    _SWEEP_ROWS,
    _bandwidth_diag_value,
    _bandwidth_rows,
    _distance,
    _gaussian_scales,
    _grid_width,
    _kernel_sums,
    _product_tensor,
    _series_plan,
    _series_terms,
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
])
def test_csv_reader_edge_cases_match_reference(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _read_both(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_csv_line_ends_read_the_written_values(tmp_path, end):
    s = _uniform_sample(40, d=2, seed=4)
    write_sample_csv(tmp_path / "lf.csv", s.x, s.y)
    lines = (tmp_path / "lf.csv").read_text().splitlines()
    text = end.join(lines[:10] + [""] + lines[10:]) + end  # one blank line
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    back = read_sample_csv(path)
    assert back.x.tobytes() == s.x.tobytes() and back.y.tobytes() == s.y.tobytes()


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-999, 999).map(str)
_FIELDS = _NUMBERS | st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "abc", "", " ", "1_0", "0x1p3",
                                      '"0.5"', '"1,2"', "1e400", " 0.5 "])


@st.composite
def _csv_texts(draw):
    d = draw(st.integers(1, 3))
    good = st.lists(_NUMBERS, min_size=d + 1, max_size=d + 1).map(",".join)
    bad = st.lists(_FIELDS, min_size=1, max_size=d + 2).map(",".join)
    blank = st.sampled_from(["", " ", "\t", "  \t "])
    lines = draw(st.lists(st.one_of(good, good, bad, blank), max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines) + 1, max_size=len(lines) + 1))
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
    # the sweep streams the strict upper triangle over several row blocks
    s = _uniform_sample(3 * _SWEEP_ROWS + 5, seed=22, loss=LossKind.IDENTITY)
    a = BandwidthSpec(GAUSSIAN, (0.2,))
    b = BandwidthSpec(GAUSSIAN, (0.45,))
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


def test_gaussian_exponent_floor_keeps_to_the_exact_references():
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
    # far from every observation each entry reads e^-700 where the exact kernel is 0
    ones = s.with_loss(LossKind.ONE)
    assert kernel_matrix(a, s.x, np.array([[3.0]])).max() == 0.0
    assert_allclose(estimate_on_grid(a, ones, [[3.0]])[0], math.exp(-700.0) * a.base.at_zero / a.h[0], rtol=1e-12)
    # the floor is decided on the span of sample and points together
    tight = Sample(np.linspace(0.0, 0.01, 5)[:, None], np.ones(5))
    wide = BandwidthSpec(GAUSSIAN, (0.05,))
    assert_allclose(estimate_on_grid(wide, tight, [[3.0]])[0], math.exp(-700.0) * wide.base.at_zero / 0.05,
                    rtol=1e-12)


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
]


@pytest.mark.parametrize("n", [1, 2, 32, 33, 65])
@pytest.mark.parametrize("fam", TENSOR_FAMILIES, ids=["d2", "d3"])
def test_sweep_shares_per_dimension_tables_and_matches_dense(fam, n):
    d = fam.k0.d
    s = _uniform_sample(n, d=d, seed=60 + n, loss=LossKind.IDENTITY)
    pairs = _family_pairs(fam)
    scales = [_gaussian_scales(a, b) for a, b in pairs]
    keys, uses, _ = _sweep_tables(scales, [False] * len(pairs), n, d)
    # every pair is factored, and the pairs share their tables
    assert all(use is not None for use in uses) and len(keys) < d * len(pairs)
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [33, 200])
def test_sweep_mixes_floored_factored_and_epanechnikov_pairs(n):
    # at d = 2, (a, a) can reach the exponent floor and is summed; (a, b) and (b, b) are factored
    s = _uniform_sample(n, d=2, seed=61, loss=LossKind.IDENTITY)
    a, b = BandwidthSpec(GAUSSIAN, (0.015, 0.3)), BandwidthSpec(GAUSSIAN, (0.3, 0.3))
    e, f = BandwidthSpec(EPANECHNIKOV, (0.2, 0.35)), BandwidthSpec(EPANECHNIKOV, (0.1, 0.5))
    pairs = [(a, a), (a, b), (b, b), (e, e), (e, f)]
    scales = [_gaussian_scales(p, q) for p, q in pairs]
    span_sq = np.ptp(s.x, axis=0) ** 2
    floors = [sc is not None and sum(r * c for r, c in zip(span_sq, sc)) < -699.0 for sc in scales]
    assert floors == [True, False, False, False, False]
    _, uses, _ = _sweep_tables(scales, floors, n, 2)
    assert [use is not None for use in uses] == [False, True, True, False, False]
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)
    # at d = 1 the floored pair and the plain one share a sweep as well
    s1 = _uniform_sample(n, seed=62, loss=LossKind.IDENTITY)
    c, g = BandwidthSpec(GAUSSIAN, (1.0 / 400,)), BandwidthSpec(GAUSSIAN, (0.3,))
    pairs1 = [(c, c), (c, g), (g, g)]
    assert_allclose(_totals(pairs1, s1.x, s1.loss_values), _dense_totals(pairs1, s1), rtol=1e-12, atol=0)


def test_tensor_family_evaluates_one_exp_per_table_and_block(monkeypatch):
    import pcoselect.estimator as estimator_mod

    n = 200
    s = _uniform_sample(n, d=2, seed=63, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, 1000))
    assert len(pairs) == 49
    want = _totals(pairs, s.x, s.loss_values)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            exps.append(args[0].shape)
            return np.exp(*args, **kwargs)

    exps = []
    monkeypatch.setattr(estimator_mod, "np", CountingNumpy())
    got = _totals(pairs, s.x, s.loss_values)
    monkeypatch.undo()
    assert got == want
    # 5 + 4 distinct variances per dimension: 18 tables per block, not 49 pair exponentials
    blocks = math.ceil((n - 1) / _SWEEP_ROWS)
    assert len(exps) == 18 * blocks
    assert_allclose(got, _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_pair_total_does_not_depend_on_the_rest_of_its_sweep():
    # the 18 tables of this family take several passes per block of rows
    n = 1000
    s = _uniform_sample(n, d=2, seed=64, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.05, 0.4, 5))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 2, n))
    scales = [_gaussian_scales(a, b) for a, b in pairs]
    assert _sweep_tables(scales, [False] * len(pairs), n, 2)[2] < _SWEEP_ROWS
    together = _totals(pairs, s.x, s.loss_values)
    assert [_totals([p], s.x, s.loss_values)[0] for p in pairs[::6]] == together[::6]


def _series_sample(case):
    """A d = 1 sample for the series tests, by name: its points and loss."""
    rng = stream(65)
    if case == "signed":
        return Sample(rng.random((7, 1)), rng.standard_normal(7), LossKind.IDENTITY)
    if case == "shifted":
        # on [5, 6]: t = (x - 5.5) / 0.5 loses nothing to the offset
        return Sample(5.0 + rng.random((7, 1)), rng.standard_normal(7), LossKind.IDENTITY)
    if case == "constant":
        # rho = 0: every t is 0, not 0 / 0
        return Sample(np.full((6, 1), 0.3), rng.standard_normal(6), LossKind.IDENTITY)
    n = {"one-point": 1, "two-points": 2}[case]
    return Sample(rng.random((n, 1)), rng.standard_normal(n), LossKind.IDENTITY)


_SERIES_PAIRS = [(0.05, 0.3), (0.2, 0.2), (0.5, 0.9), (0.03, 0.03)]


@pytest.mark.parametrize("case", ["signed", "shifted", "constant", "one-point", "two-points"])
def test_series_matches_dense_and_quadrature(monkeypatch, case):
    import pcoselect.estimator as estimator_mod

    # every Gaussian pair under the term cap takes the series, even at n = 1 and 2
    monkeypatch.setattr(estimator_mod, "_SERIES_BREAK_EVEN", -_SERIES_MAX_TERMS)
    s = _series_sample(case)
    pairs = [(BandwidthSpec(GAUSSIAN, (ha,)), BandwidthSpec(GAUSSIAN, (hb,))) for ha, hb in _SERIES_PAIRS]
    plan = _series_plan(pairs, s.x)
    assert all(entry is not None for entry in plan)
    if case == "constant":
        assert [terms for _, terms in plan] == [1] * len(pairs)
    got = _totals(pairs, s.x, s.loss_values)
    assert np.all(np.isfinite(got))
    assert_allclose(got, _dense_totals(pairs, s), rtol=1e-12, atol=0)
    ell = s.loss_values
    for (a, b), total in zip(pairs, got):
        assert_allclose(total, float(ell @ GramTables(s).matrix(a, b) @ ell), rtol=1e-12, atol=0)
        quad = np.array([[quad_section_inner(a, xi, b, xj) for xj in s.x] for xi in s.x])
        assert_allclose(total, float(ell @ quad @ ell), rtol=1e-12)


def _pair_at_terms(s, terms):
    """A Gaussian (h, h) pair whose series on the sample ``s`` has ``terms`` terms."""
    rho = 0.5 * np.ptp(s.x)
    lo, hi = 0.0, 400.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _series_terms(mid) <= terms else (lo, mid)
    # a little inside the boundary, so that the rounding of tau cannot cross it
    tau = lo * (1.0 - 1e-9)
    assert _series_terms(tau) == terms
    h = BandwidthSpec(GAUSSIAN, (rho / math.sqrt(2.0 * tau),))
    return h, h


@pytest.mark.parametrize("n", [400, 700])
def test_series_pairs_on_both_sides_of_the_break_even(n):
    s = _uniform_sample(n, seed=66, loss=LossKind.IDENTITY)
    limit = n - _SERIES_BREAK_EVEN
    assert 0 < limit < _SERIES_MAX_TERMS
    pairs = [_pair_at_terms(s, limit), _pair_at_terms(s, limit + 1)]
    below, above = _series_plan(pairs, s.x)
    assert below[1] == limit and above is None
    assert_allclose(_totals(pairs, s.x, s.loss_values), _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_series_power_tables_hold_no_subnormal(monkeypatch):
    import pcoselect.estimator as estimator_mod

    # points at every scale from the centre: the powers of the inner ones would underflow
    offsets = 10.0 ** -np.arange(1.0, 300.0, 3.0)
    x = np.concatenate([[0.0, 1.0, 0.5], 0.5 + offsets, 0.5 - offsets / 3.0])[:, None]
    s = Sample(x, np.ones(len(x)))
    pairs = [_pair_at_terms(s, terms) for terms in (40, 300, _SERIES_MAX_TERMS)]
    monkeypatch.setattr(estimator_mod, "_SERIES_BREAK_EVEN", -_SERIES_MAX_TERMS)
    assert all(entry is not None for entry in _series_plan(pairs, s.x))

    class CheckingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def sum(self, a, *args, **kwargs):
            if np.ndim(a) == 2:
                tables.append(a.size)
                assert not np.any((a != 0.0) & (np.abs(a) < np.finfo(np.float64).tiny))
            return np.sum(a, *args, **kwargs)

    tables = []
    monkeypatch.setattr(estimator_mod, "np", CheckingNumpy())
    got = _totals(pairs, s.x, s.loss_values)
    monkeypatch.undo()
    assert len(tables) >= 3
    assert_allclose(got, _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_series_pair_total_does_not_depend_on_the_rest_of_its_family():
    n = 600
    s = _uniform_sample(n, seed=67, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.01, 0.5, 20))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 1, n))
    plan = _series_plan(pairs, s.x)
    assert None in plan and any(plan)
    together = _totals(pairs, s.x, s.loss_values)
    assert [_totals([p], s.x, s.loss_values)[0] for p in pairs] == together
    assert_allclose(together, _dense_totals(pairs, s), rtol=1e-12, atol=0)


def test_bandwidth_totals_log_the_pairs_on_each_path(caplog):
    n = 600
    s = _uniform_sample(n, seed=69, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.01, 0.5, 20))
    pairs = _family_pairs(make_bandwidth_family(GAUSSIAN, grid[0], grid, 1, n))
    terms = [entry[1] for entry in _series_plan(pairs, s.x) if entry is not None]
    with caplog.at_level(logging.DEBUG, logger="pcoselect.estimator"):
        _totals(pairs, s.x, s.loss_values)
    assert caplog.messages == [f"bandwidth totals: n {n}, {len(terms)} pairs by series (at most {max(terms)} terms),"
                               f" {len(pairs) - len(terms)} pairs swept"]


def test_wide_pairs_of_the_d1_family_leave_the_sweep(monkeypatch):
    import pcoselect.estimator as estimator_mod

    # the 20-member family of the d = 1 select benchmark and CI, on [0, 1] at n = 2000
    n = 2000
    s = _uniform_sample(n, seed=68, loss=LossKind.IDENTITY)
    grid = list(np.geomspace(0.01, 0.5, 20))
    fam = make_bandwidth_family(GAUSSIAN, grid[0], grid, 1, n)
    pairs = _family_pairs(fam)
    assert len(pairs) == 39
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    want = _totals(pairs, s.x, s.loss_values)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            exps.append(args[0].shape)
            return np.exp(*args, **kwargs)

    exps = []
    monkeypatch.setattr(estimator_mod, "np", CountingNumpy())
    got = _totals(pairs, s.x, s.loss_values)
    monkeypatch.undo()
    assert got == want
    # tau = rho^2 / (h_a^2 + h_b^2) <= 346.9: (h, h) from h = grid[4], (h, grid[0]) from h = grid[5]
    series = [pair for pair, entry in zip(pairs, _series_plan(pairs, s.x)) if entry is not None]
    wide = {(g, g) for g in fam.specs[4:]} | {(g, fam.k0) for g in fam.specs[5:]}
    assert len(wide) == 31 and series == [pair for pair in pairs if pair in wide]
    # one exp over the sample per series pair, one per block for each of the 8 swept pairs
    blocks = math.ceil((n - 1) / _SWEEP_ROWS)
    assert exps.count((n,)) == 31
    assert len(exps) == 31 + 8 * blocks
    assert_allclose(got[::4], _dense_totals(pairs[::4], s), rtol=1e-12, atol=0)


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
    g = [BandwidthSpec(GAUSSIAN, (h,)) for h in (1.0 / n, 0.05, 0.3)]
    e = [BandwidthSpec(EPANECHNIKOV, (h,)) for h in (0.03, 0.2)]
    return {
        # (g0, g0) and (g0, g1) reach the exponent floor
        "gaussian-d1-floored": ([(a, b) for a in g for b in g], _uniform_sample(n, seed=70, loss=LossKind.IDENTITY)),
        "gaussian-d2-factored": (_family_pairs(TENSOR_FAMILIES[0]), _uniform_sample(n, d=2, seed=71, loss=LossKind.IDENTITY)),
        "gaussian-d3": (_family_pairs(TENSOR_FAMILIES[1]), _uniform_sample(n, d=3, seed=72, loss=LossKind.IDENTITY)),
        # both kinds of pair in one map
        "epanechnikov-and-gaussian": ([(e[0], e[0]), (e[0], e[1]), (e[1], e[1]), (g[1], g[2])],
                                      _uniform_sample(n, seed=73, loss=LossKind.IDENTITY)),
    }


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("case", sorted(_sweep_cases()))
def test_forked_sweep_is_bit_identical_to_serial(monkeypatch, case, diagonal):
    # without the diagonal: the sums over i != j that u_statistic reads, one sweep per pair
    pairs, s = _sweep_cases()[case]
    if diagonal:
        compute = lambda: np.array(_totals(pairs, s.x, s.loss_values))
    else:
        compute = lambda: np.array([u_statistic(a, b, s) for a, b in pairs])
    serial, forked = _serial_and_forked(monkeypatch, compute)
    assert np.array_equal(serial, forked)


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
from pcoselect import EPANECHNIKOV, GAUSSIAN, LossKind, Sample, make_bandwidth_family, pco_select, stream
from pcoselect.estimator import _bandwidth_diag_value, _series_plan, bandwidth_totals

def sample(n, d, seed):
    rng = stream(seed)
    return Sample(rng.random((n, d)), rng.standard_normal(n), LossKind.IDENTITY)

cases = [
    # d = 1 from h = 1/n: floored pairs, and rows longer than OpenBLAS's threading threshold
    (make_bandwidth_family(GAUSSIAN, 1 / 12000, [1 / 12000, 0.02, 0.05], 1, 12000), sample(12000, 1, 1)),
    (make_bandwidth_family(GAUSSIAN, 0.05, [0.05, 0.1, 0.3], 2, 1000), sample(1000, 2, 2)),
    (make_bandwidth_family(EPANECHNIKOV, 0.02, [0.02, 0.05, 0.2], 1, 800), sample(800, 1, 3)),
]
for fam, s in cases:
    print(hashlib.sha256(pco_select(fam, s).to_json().encode()).hexdigest())
    # the criterion rounds away most of the totals' last bits, so they are compared too
    pairs = list(dict.fromkeys(p for spec in fam.specs for p in ((spec, spec), (spec, fam.k0))))
    if s.d == 1 and fam.k0.base is GAUSSIAN:
        # the d = 1 Gaussian family has series pairs as well as swept ones
        plan = _series_plan(pairs, s.x)
        assert None in plan and any(plan), plan
    consts = [_bandwidth_diag_value(*pair) for pair in pairs]
    print(*(t.hex() for t in bandwidth_totals(pairs, s.x, s.loss_values, consts)))
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
    hist = ProjectionSpec(BasisFamily(BasisKind.REGULAR_HISTOGRAM, m_cap=1000), (839,))
    with pytest.raises(ConfigError, match="histogram cells at the sample: n 20000 x m_max 839 .* limit of 16777216"):
        GramTables(s).diag(hist, hist)


def test_prefix_tables_are_bounded_with_the_basis_values(monkeypatch):
    import pcoselect.errors as errors_mod

    # 50 x 9 values and one 50 x 9 prefix table per pair of weight vectors
    monkeypatch.setattr(errors_mod, "MAX_TABLE_ENTRIES", 1000)
    s = _uniform_sample(50, seed=47)
    plain, weighted = ProjectionSpec(TRIG, (9,)), ProjectionSpec(TRIG, (9,), _W)
    tables = GramTables(s)
    tables.diag(plain, plain)
    axis_tables = lambda: {key for key in tables._prefix if key[1] is not None}
    held = axis_tables()
    with pytest.raises(ConfigError, match="basis values and prefix sums at the sample: tables 3 x n 50 x m_max 9 "
                                          "asks for a table of 1350 entries, above the limit of 1000"):
        tables.diag(plain, weighted)
    assert axis_tables() == held
    # a table that replaces one of its own key counts once
    tables.diag(ProjectionSpec(TRIG, (4,)), ProjectionSpec(TRIG, (6,)))


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
                assert_allclose(tables.diag(a, b), weighted_values_diag(tables, a, b), rtol=1e-12, atol=0)
                # the same bits in either order, and from fresh tables
                fresh = GramTables(s)
                assert fresh.weighted_total(b, a).hex() == total.hex()
                assert fresh.diag(b, a).tobytes() == tables.diag(a, b).tobytes()


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
    assert rows[2].shape == (len(family), s.n)
    for a, r_own, r_cross, r_diag, t_own, t_cross, diag in zip(family.specs, *rows, *_dense_rows(family, s)):
        assert_allclose(r_own, t_own, rtol=1e-12, atol=0)
        assert_allclose(r_cross, t_cross, rtol=1e-12, atol=0)
        assert_allclose(r_diag, diag, rtol=1e-12, atol=1e-14 * np.max(diag))
        # a family read or one pair at a time, in either order: the same bits
        single = GramTables(s)
        assert single.weighted_total(k0, a).hex() == r_cross.hex()
        assert single.weighted_total(a, a).hex() == r_own.hex()
        assert single.diag(k0, a).tobytes() == r_diag.tobytes()


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
        assert_allclose(row[2], np.diagonal(quad), rtol=1e-12, atol=1e-14 * np.max(np.diagonal(quad)))


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
    assert GramTables(s).weighted_total(b, a).hex() == tables.weighted_total(a, b).hex()
    assert GramTables(s).diag(b, a).tobytes() == tables.diag(a, b).tobytes()


def _per_pair_rows(fam, s):
    """Every member's (distance, penalty) as hex, read one pair at a time
    through criterion_distance and penalty on one fresh GramTables."""
    tables = GramTables(s)
    return [(criterion_distance(a, fam.k0, s, tables).hex(), penalty(a, fam.k0, s, tables).hex())
            for a in fam.specs]


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
        # read pair by pair, the tables grow order by order
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


# bandwidth families as (base, d, grid, n); the d = 1 Gaussian sweep is past
# _FORK_WORK, so it runs on the worker pool where there is more than one CPU,
# and each of its single pairs runs serially
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
    diag = tables.diag(a, k0)
    sweeps, consts = [], []
    real_totals, real_const = estimator_mod.bandwidth_totals, estimator_mod._bandwidth_diag_value
    monkeypatch.setattr(estimator_mod, "bandwidth_totals",
                        lambda pairs, *rest: sweeps.append(len(pairs)) or real_totals(pairs, *rest))
    monkeypatch.setattr(estimator_mod, "_bandwidth_diag_value", lambda *pair: consts.append(pair) or real_const(*pair))
    # the distance's three totals take one call, with the bits of three single reads
    assert criterion_distance(a, k0, s, tables).hex() == _distance(own, cross, anchor, s.n).hex()
    assert sweeps == [3] and len(consts) == 3
    # U's total and diagonal are one read of one pair, whose c_ab is computed once
    ell = s.loss_values
    assert u_statistic(a, k0, s).hex() == (cross - numerics.pairwise_sum(ell * ell * diag)).hex()
    assert sweeps == [3, 1] and len(consts) == 4
    # a pair given three times is read once
    assert criterion_distance(k0, k0, s, tables) == 0.0
    assert sweeps == [3, 1, 1]


# A dense n x n table would take 200 MB at n = 5000 and 32 MB at n = 2000;
# the sweep's scratch is a few row blocks.
SELECTION_PEAK_BOUND = 16 * 2**20


def _selection_peak(monkeypatch, base, n, d, grid):
    import tracemalloc

    # tracemalloc sees this process only: keep the whole sweep in it
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1)
    s = _uniform_sample(n, d=d, seed=39)
    fam = make_bandwidth_family(base, grid[0], grid, d, n)
    tracemalloc.start()
    try:
        pco_select(fam, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("base,n,grid", [(GAUSSIAN, 5000, [0.01, 0.1, 0.5]), (EPANECHNIKOV, 2000, [0.01, 0.05, 0.2])])
def test_pco_select_memory_is_bounded(monkeypatch, base, n, grid):
    assert _selection_peak(monkeypatch, base, n, 1, grid) < SELECTION_PEAK_BOUND


def test_pco_select_memory_is_bounded_at_d2(monkeypatch):
    # the family's 10 per-dimension tables share their budget a few rows at a time
    assert _selection_peak(monkeypatch, GAUSSIAN, 5000, 2, [0.02, 0.1, 0.4]) < SELECTION_PEAK_BOUND


@pytest.mark.parametrize("m_max,d", [(500, 1), (20, 2)])
def test_nested_selection_gathers_its_diagonals_into_the_result(m_max, d):
    import tracemalloc

    # the (N, n) diagonals, and at d = 1 the n x 500 basis values and prefix sums
    # beside them; a gathered copy of the diagonals would add one more (N, n) table
    n = 2000
    rng = stream(49)
    s = Sample(rng.random((n, d)), rng.standard_normal(n), LossKind.IDENTITY)
    fam = make_projection_family(BasisFamily(BasisKind.TRIGONOMETRIC, m_cap=1000), m_max, d, n)
    tracemalloc.start()
    try:
        report = pco_select(fam, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = len(fam) * n * 8
    assert peak < (3.3 if d == 1 else 1.6) * table
    assert _report_rows(report) == _per_pair_rows(fam, s)


@pytest.mark.parametrize("d", [1, 2])
def test_nested_rows_of_interleaved_weight_vectors_are_identical_to_per_pair_reads(d):
    # members alternate between two weight vectors, so each vector gathers into every other row
    orders = [(m,) * d for m in range(1, 7)]
    specs = tuple(ProjectionSpec(LEG, m, None if i % 2 else _W) for i, m in enumerate(orders))
    fam = KernelFamily(specs, 1000, len(specs) - 1)
    s = _sample_for(fam.k0, 80, seed=50)
    assert _report_rows(pco_select(fam, s)) == _per_pair_rows(fam, s)
