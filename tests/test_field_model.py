import math
import re

import numpy as np
import pytest

from fieldkit.ball_planner import _travel_times
from fieldkit.errors import InputError, OutOfField
from fieldkit.field_model import (
    FieldSpec,
    GridIndex,
    cell_center,
    load_default_field,
    pose_to_cell,
)


@pytest.fixture(scope="module")
def spec():
    return FieldSpec()


def all_centers(spec):
    """Oracle helper: centers of every cell as an (N, 2) array plus indices."""
    xs = (-spec.half_length) + (np.arange(spec.n_cols) + 0.5) * spec.cell_size
    ys = (-spec.half_width) + (np.arange(spec.n_rows) + 0.5) * spec.cell_size
    cols, rows = np.meshgrid(np.arange(spec.n_cols), np.arange(spec.n_rows))
    cx, cy = np.meshgrid(xs, ys)
    return rows.ravel(), cols.ravel(), np.column_stack([cx.ravel(), cy.ravel()])


def nearest_center_scan(p, spec):
    """Brute-force nearest center with the stated tie-break (row, then col)."""
    rows, cols, centers = all_centers(spec)
    d = np.hypot(centers[:, 0] - p[0], centers[:, 1] - p[1])
    best = d.min()
    tied = np.flatnonzero(d <= best + 1e-12)
    order = np.lexsort((cols[tied], rows[tied]))
    k = tied[order[0]]
    return GridIndex(int(rows[k]), int(cols[k]))


def test_defaults_match_kidsize_grid(spec):
    assert spec.n_cols == 90 and spec.n_rows == 60
    assert spec.cell_count == 5400


def test_center_of_field_tie_breaks_to_smallest_index(spec):
    # four centers are equidistant from (0, 0); smallest (row, col) wins
    assert pose_to_cell((0.0, 0.0), spec) == GridIndex(29, 44)


def test_pose_at_cell_center_is_identity(spec):
    for idx in (GridIndex(0, 0), GridIndex(17, 55), GridIndex(59, 89)):
        assert pose_to_cell(cell_center(idx, spec), spec) == idx


def test_cell_center_corners(spec):
    assert cell_center(GridIndex(0, 0), spec) == pytest.approx((-4.45, -2.95))
    assert cell_center(GridIndex(59, 89), spec) == pytest.approx((4.45, 2.95))


def test_round_trip_against_scan_oracle(spec):
    rng = np.random.default_rng(7)
    pts = np.column_stack([
        rng.uniform(-spec.half_length, spec.half_length, 1000),
        rng.uniform(-spec.half_width, spec.half_width, 1000),
    ])
    for p in pts:
        idx = pose_to_cell(p, spec)
        assert idx == nearest_center_scan(p, spec)
        cx, cy = cell_center(idx, spec)
        assert max(abs(cx - p[0]), abs(cy - p[1])) <= spec.cell_size / 2 + 1e-12


def test_grid_bijection_over_all_cells(spec):
    rows, cols, centers = all_centers(spec)
    for r, c, p in zip(rows, cols, centers):
        assert pose_to_cell(p, spec) == GridIndex(int(r), int(c))


def test_out_of_field_raises(spec):
    with pytest.raises(OutOfField):
        pose_to_cell((spec.half_length + spec.cell_size, 0.0), spec)
    # inside the half-cell margin is fine
    pose_to_cell((spec.half_length + spec.cell_size / 2 - 1e-9, 0.0), spec)


def graph_row(spec, i, kicks):
    """Targets and center distances of cell i's row in the planner's kick graph."""
    # a ball speed of 1.0 leaves the center distances bit for bit
    indptr, dst, dist = _travel_times(spec, tuple(kicks), 1.0)
    n = i.row * spec.n_cols + i.col
    lo, hi = indptr[n], indptr[n + 1]
    return [(GridIndex(int(t) // spec.n_cols, int(t) % spec.n_cols), float(d))
            for t, d in zip(dst[lo:hi], dist[lo:hi])]


def assert_row_matches_oracle(spec, i, kicks, kick_edges):
    """The graph row equals the scalar oracle, distances bit for bit."""
    row = graph_row(spec, i, kicks)
    assert sorted(row) == sorted(kick_edges(i, kicks, spec))
    return row


def test_kick_edges_annulus_matches_brute_force(spec, kick_edges):
    center = pose_to_cell((0.0, 0.0), spec)
    edges = assert_row_matches_oracle(spec, center, [0.5], kick_edges)
    rows, cols, centers = all_centers(spec)
    c = np.array(cell_center(center, spec))
    d = np.hypot(centers[:, 0] - c[0], centers[:, 1] - c[1])
    in_annulus = (np.abs(d - 0.5) <= spec.cell_size / 2) & (d > 0)
    assert len(edges) == int(in_annulus.sum())
    got = {(e.row, e.col) for e, _ in edges}
    expect = {(int(r), int(c_)) for r, c_, m in zip(rows, cols, in_annulus) if m}
    assert got == expect


def test_kick_edges_lengths_match_centers(spec, kick_edges):
    i = GridIndex(10, 20)
    for j, dist in assert_row_matches_oracle(spec, i, [0.5, 1.0], kick_edges):
        a = cell_center(i, spec)
        b = cell_center(j, spec)
        assert dist == math.sqrt((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2)
        assert abs(dist - 0.5) <= 0.05 + 1e-12 or abs(dist - 1.0) <= 0.05 + 1e-12


def test_kick_edges_clip_at_border(spec, kick_edges):
    # 5.9 m and 8.9 m span the grid's rows and columns, 10.7 m its diagonal
    for kicks in ([3.0], [5.9, 8.9], [10.7]):
        for corner in (GridIndex(0, 0), GridIndex(spec.n_rows - 1, spec.n_cols - 1)):
            edges = assert_row_matches_oracle(spec, corner, kicks, kick_edges)
            assert edges
            for j, _ in edges:
                assert 0 <= j.row < spec.n_rows and 0 <= j.col < spec.n_cols


def test_kick_edges_no_self_and_no_duplicates(spec, kick_edges):
    i = GridIndex(30, 45)
    edges = assert_row_matches_oracle(spec, i, [0.5, 1.0, 2.0], kick_edges)
    targets = [(j.row, j.col) for j, _ in edges]
    assert (i.row, i.col) not in targets
    assert len(targets) == len(set(targets))


def test_kick_edges_match_oracle_on_random_cells(spec, kick_edges):
    rng = np.random.default_rng(5)
    # 9.5 m reaches past the 6 m width and 12 m past the 10.8 m diagonal
    for kicks in ([0.5], [0.5, 1.0, 2.0], [2.0, 0.5, 1.0], [3.0, 0.75], [3.0, 9.5], [12.0]):
        for _ in range(15):
            i = GridIndex(int(rng.integers(spec.n_rows)), int(rng.integers(spec.n_cols)))
            assert_row_matches_oracle(spec, i, kicks, kick_edges)


def test_kick_edges_symmetry_interior(spec):
    rng = np.random.default_rng(3)
    kicks = [0.5, 1.0]
    for _ in range(20):
        i = GridIndex(int(rng.integers(15, 45)), int(rng.integers(15, 75)))
        for j, _ in graph_row(spec, i, kicks):
            back = {k for k, _ in graph_row(spec, j, kicks)}
            assert i in back


def test_kick_edges_empty_kicks_rejected(spec, kick_edges):
    for kicks in ([], [0.05]):
        with pytest.raises(InputError):
            _travel_times(spec, tuple(kicks), 1.0)
        with pytest.raises(InputError):
            kick_edges(GridIndex(0, 0), kicks, spec)


def test_default_json_reproduces_defaults(spec):
    assert load_default_field() == spec


def test_invalid_specs_rejected():
    with pytest.raises(InputError):
        FieldSpec(length=9.05)  # not an integer number of cells
    with pytest.raises(InputError):
        FieldSpec(line_segments=(((0.0, 0.0), (10.0, 0.0)),))  # outside border
    with pytest.raises(InputError):
        FieldSpec(goal_center_right=(4.0, 0.0))  # not on the border line


def test_zero_length_segment_rejected():
    seg = ((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(InputError, match=re.escape(f"line segment {seg} has zero length")):
        FieldSpec(line_segments=(seg,))
    with pytest.raises(InputError, match="has zero length"):
        FieldSpec.from_dict({"line_segments": [[[1, 1], [1, 1]]]})
    # the shortest segment is still a segment, and so is an empty layout
    tiny = ((1.0, 1.0), (1.0, math.nextafter(1.0, 2.0)))
    assert FieldSpec(line_segments=(tiny,)).line_segments == (tiny,)
    assert FieldSpec(line_segments=()).line_segments == ()


def test_pose_theta_normalized():
    from fieldkit.field_model import FieldPose

    assert FieldPose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
    assert FieldPose(0, 0, -math.pi).theta == pytest.approx(math.pi)
