"""Shared test fixtures: independent oracles used by several modules."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from fieldkit.ball_planner import _segment_blocked, _travel_times, time_to_approach_ball
from fieldkit.errors import InputError
from fieldkit.field_model import GridIndex, cell_center, pose_to_cell


def _reference_dijkstra_cost(ctx, spec):
    """Shortest kick-plan cost via scipy's Dijkstra, independent of the A* code.

    The kick graph weights are ball travel times; the start cell's outgoing
    edges are overwritten with first-kick costs (approach time plus opponent
    doubling), which reproduces the planner's "first expanded edge is the
    first kick" semantics.
    """
    indptr, dst, travel = _travel_times(spec, ctx.kick_lengths, ctx.ball_speed)
    n = spec.cell_count
    n_cols = spec.n_cols
    start_cell = pose_to_cell(ctx.ball_pos, spec)
    start = start_cell.row * n_cols + start_cell.col
    goal_cell = pose_to_cell(ctx.goal_center, spec)
    goal = goal_cell.row * n_cols + goal_cell.col
    if start == goal:
        return 0.0
    data = travel.copy()
    lo, hi = indptr[start], indptr[start + 1]
    vs = dst[lo:hi]
    start_center = cell_center(start_cell, spec)
    reach = time_to_approach_ball(start_center, ctx.robot_pos, ctx)
    first = data[lo:hi].copy()
    opps = np.asarray(ctx.opponents, float).reshape(-1, 2)
    if len(opps):
        xs = spec.col_centers()
        ys = spec.row_centers()
        ends = np.column_stack([xs[vs % n_cols], ys[vs // n_cols]])
        blocked = _segment_blocked(start_center, ends, opps, ctx.opponent_radius)
        first[blocked] = first[blocked] * 2
    data[lo:hi] = reach + first
    m = sp.csr_matrix((data, dst, indptr), shape=(n, n))
    d = scipy_dijkstra(m, indices=start, directed=True)
    return float(d[goal])


@pytest.fixture(scope="session")
def reference_dijkstra_cost():
    return _reference_dijkstra_cost


def _kick_edges(i, kick_lengths, spec):
    """In-field cells reachable from cell i by one kick, with center distances.

    The scalar twin of the planner's CSR kick graph, one cell at a time: it
    tests every other in-field cell against the ideal-distance rule, a
    center offset cell_size*sqrt(dr^2+dc^2) within half a cell of a kick.
    """
    kicks = [float(k) for k in kick_lengths]
    if not kicks or min(kicks) <= spec.cell_size:
        raise InputError("kicks must be non-empty and each longer than a cell")
    cx, cy = cell_center(i, spec)
    out = []
    for r in range(spec.n_rows):
        for c in range(spec.n_cols):
            dr, dc = r - i.row, c - i.col
            ideal = spec.cell_size * math.sqrt(dr * dr + dc * dc)
            if (dr or dc) and any(abs(ideal - k) <= spec.cell_size / 2 for k in kicks):
                j = GridIndex(r, c)
                tx, ty = cell_center(j, spec)
                out.append((j, math.sqrt((tx - cx) ** 2 + (ty - cy) ** 2)))
    return out


@pytest.fixture(scope="session")
def kick_edges():
    return _kick_edges
