"""plan_ball_path against the binary-heap A* it replaced.

`plan_ball_path_heap` below is the earlier search, kept verbatim as an
independent oracle: its open set is a heap of (f, g, cell index) entries,
so a pop takes the lowest f, then the lowest g, then the smallest index,
and an entry whose g no longer matches the cell's is stale and skipped. The
library keeps one f array instead and scans it for the same order, so every
plan must be equal: the same total cost, waypoints and expanded_nodes.

The only lines added to the oracle record its tied pops: with `ties` given,
it also tracks the f of each open cell's one valid entry, and appends
(popped, lowest index) for every pop whose lower g won over a cell of equal
f and smaller index. The tests assert that such pops occur, so the lower-g
rule is exercised and not only the index rule that argmin gives for free.
On set_pieces' scenes those pops leave every plan as plain argmin would
find it; on the collinear scenes, where the goal ties with a cell on the
line, they change expanded_nodes, so only that test fails if the tie scan
is dropped.
"""

import dataclasses
import heapq
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldkit.ball_planner import (
    BallPlan,
    PlanContext,
    _approach_times,
    _segment_blocked,
    _travel_times,
    plan_ball_path,
    time_to_approach_ball,
)
from fieldkit.errors import InputError, NoPath
from fieldkit.field_model import FieldPose, FieldSpec, GridIndex, cell_center, pose_to_cell

ROOT = Path(__file__).resolve().parents[1]
SPEC = FieldSpec()
FINE = FieldSpec(cell_size=0.05)


# --- oracle: a heap of (f, g, index) entries, verbatim ---------------------------

def plan_ball_path_heap(ctx: PlanContext, spec: FieldSpec, *,
                        zero_heuristic: bool = False, ties: list | None = None) -> BallPlan:
    """A* over the kick graph from the ball cell to the goal cell.

    The first expanded edge is costed as the first kick; later edges carry
    ball travel time only. Ties are broken by lower g, then smaller cell
    index, so the search is fully deterministic.
    """
    if not spec.contains(ctx.ball_pos):
        raise InputError(f"ball {ctx.ball_pos} outside field")
    n_cols = spec.n_cols
    start_cell = pose_to_cell(ctx.ball_pos, spec)
    start = start_cell.row * n_cols + start_cell.col
    goal_cell = pose_to_cell(ctx.goal_center, spec)
    target = goal_cell.row * n_cols + goal_cell.col

    indptr, dst, travel = _travel_times(spec, ctx.kick_lengths, ctx.ball_speed)
    n = spec.cell_count
    xs = spec.col_centers()
    ys = spec.row_centers()
    centers = np.column_stack([xs[np.arange(n) % n_cols], ys[np.arange(n) // n_cols]])
    if zero_heuristic:
        h_goal = np.zeros(n)
    else:
        h_goal = np.hypot(centers[:, 0] - ctx.goal_center[0],
                          centers[:, 1] - ctx.goal_center[1]) / ctx.ball_speed

    # g of every open node; a closed node holds -inf, so no improvement test
    # passes for it and none of its stale heap entries matches
    g = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    bounds = indptr.tolist()
    opponents = np.asarray(ctx.opponents, dtype=float).reshape(-1, 2)
    push, pop = heapq.heappush, heapq.heappop
    open_f = np.full(n, np.inf)  # recording only: f of each open cell's valid entry
    open_f[start] = 0.0

    start_center = cell_center(start_cell, spec)
    g[start] = 0.0
    heap = [(0.0, 0.0, start)]  # the only entry, so its f is never compared
    expanded = 0
    goal = -1
    while heap:
        fu, gu, u = pop(heap)
        if gu != g[u]:
            continue
        if ties is not None:
            lowest = int(np.flatnonzero(open_f == fu)[0])
            if lowest != u:
                ties.append((u, lowest))
            open_f[u] = np.inf
        expanded += 1
        if u == target:
            goal = u
            break
        g[u] = -np.inf
        lo, hi = bounds[u], bounds[u + 1]
        vs = dst[lo:hi]
        hv = h_goal
        if u == start:
            reach = time_to_approach_ball(start_center, ctx.robot_pos, ctx)
            costs = travel[lo:hi].copy()
            if len(opponents):
                blocked = _segment_blocked(start_center, centers[vs], opponents,
                                           ctx.opponent_radius)
                costs[blocked] = costs[blocked] * 2
            costs = reach + costs
            if not zero_heuristic and ctx.teammates:
                tm_all = np.stack([_approach_times(centers[vs], tm, ctx)
                                   for tm in ctx.teammates])
                hv = h_goal.copy()
                hv[vs] += tm_all.min(axis=0)
        else:
            costs = travel[lo:hi]
        gn = gu + costs
        improve = gn < g[vs]
        iv = vs[improve]
        if iv.size:
            ig = gn[improve]
            g[iv] = ig
            parent[iv] = u
            open_f[iv] = ig + hv[iv]
            for item in zip((ig + hv[iv]).tolist(), ig.tolist(), iv.tolist()):
                push(heap, item)
    if goal < 0:
        raise NoPath("goal cells unreachable with the given kick set")

    cells = []
    node = goal
    while node >= 0:
        cells.append(node)
        node = parent[node]
    cells.reverse()
    waypoints = tuple(cell_center(GridIndex(c // n_cols, c % n_cols), spec) for c in cells)
    return BallPlan(waypoints=waypoints, total_cost=float(g[goal]), expanded_nodes=expanded)


# --- helpers -----------------------------------------------------------------------

def assert_same_plan(ctx, spec=SPEC, zero_heuristic=False, ties=None):
    """The library's plan equals the heap's, or both raise NoPath."""
    try:
        want = plan_ball_path_heap(ctx, spec, zero_heuristic=zero_heuristic, ties=ties)
    except NoPath:
        with pytest.raises(NoPath):
            plan_ball_path(ctx, spec, zero_heuristic=zero_heuristic)
        return None
    got = plan_ball_path(ctx, spec, zero_heuristic=zero_heuristic)
    assert (got.total_cost, got.waypoints, got.expanded_nodes) == \
        (want.total_cost, want.waypoints, want.expanded_nodes)
    return got


def random_scene(rng):
    """Criterion 1's scene draw, in its order (tests/test_acceptance.py)."""
    ball = (rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
    robot = FieldPose(rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9),
                      rng.uniform(-np.pi, np.pi))
    opps = tuple((rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
                 for _ in range(rng.integers(0, 4)))
    tms = tuple(FieldPose(rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9),
                          rng.uniform(-np.pi, np.pi))
                for _ in range(rng.integers(0, 3)))
    return PlanContext(robot_pos=robot, ball_pos=ball, teammates=tms, opponents=opps)


@pytest.fixture(scope="module")
def set_pieces():
    """perfbench's set_pieces workload, imported read-only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
    return workloads.build("set_pieces")


# --- equality ----------------------------------------------------------------------

@pytest.mark.parametrize("zero_heuristic", [False, True], ids=["guided", "zero"])
def test_criterion_1_scenes_match_heap(zero_heuristic):
    rng = np.random.default_rng(20210704)
    for i in range(100):
        ctx = random_scene(rng)
        assert assert_same_plan(ctx, zero_heuristic=zero_heuristic) is not None, f"scene {i}"


@pytest.mark.parametrize("seed", [1, 2])
def test_set_pieces_scenes_match_heap(set_pieces, seed):
    scenes = set_pieces.make_inputs(seed)[0]["scenes"][:1000]
    assert {s.kick_lengths for s in scenes} == {(0.5, 1.0, 2.0), (0.5, 1.0, 1.5, 2.0, 3.0)}
    ties = []
    for i, ctx in enumerate(scenes):
        assert assert_same_plan(ctx, ties=ties) is not None, f"scene {i}"
    # the lower-g rule chose a cell other than the lowest index of its f
    assert len(ties) > 50


def mirrored(ctx):
    """The scene mirrored about y = 0, the goal axis."""
    def flip(p):
        return FieldPose(p.x, -p.y, -p.theta)
    return dataclasses.replace(ctx, robot_pos=flip(ctx.robot_pos),
                               ball_pos=(ctx.ball_pos[0], -ctx.ball_pos[1]),
                               teammates=tuple(map(flip, ctx.teammates)),
                               opponents=tuple((x, -y) for x, y in ctx.opponents))


def test_collinear_scenes_match_heap():
    # the goal at a cell center and the ball on its row, with kicks of 1 m and
    # 2 m: a cell on the line and the goal often tie in f; with the goal at
    # the left end it has the higher g and the lower index of the two, so the
    # pop order shows in expanded_nodes
    ties = []
    for goal_x in (-4.5, 4.5):
        goal = pose_to_cell((goal_x, 0.0), SPEC)
        for col in range(SPEC.n_cols):
            ball = cell_center(GridIndex(goal.row, col), SPEC)
            ctx = PlanContext(robot_pos=FieldPose(*ball, 0.0), ball_pos=ball,
                              goal_center=cell_center(goal, SPEC), kick_lengths=(1.0, 2.0))
            assert assert_same_plan(ctx, ties=ties) is not None, \
                f"goal x {goal_x}, ball col {col}"
    assert len(ties) > 50


@pytest.mark.parametrize("zero_heuristic", [False, True], ids=["guided", "zero"])
def test_mirrored_scenes_match_heap(zero_heuristic):
    # y = 0 is a row boundary, so a ball on the axis starts in one of the two
    # rows beside it and its mirror scene is not the same search
    rng = np.random.default_rng(59)
    for i in range(10):
        ctx = random_scene(rng)
        on_axis = dataclasses.replace(ctx, ball_pos=(ctx.ball_pos[0], 0.0))
        for scene in (ctx, mirrored(ctx), on_axis, mirrored(on_axis)):
            assert assert_same_plan(scene, zero_heuristic=zero_heuristic) is not None, \
                f"scene {i}"


@pytest.mark.parametrize("zero_heuristic", [False, True], ids=["guided", "zero"])
def test_ball_in_goal_cell(zero_heuristic):
    goal = cell_center(pose_to_cell((4.5, 0.0), SPEC), SPEC)
    ctx = PlanContext(robot_pos=FieldPose(0.0, 1.0, 0.0), ball_pos=goal,
                      opponents=((4.0, 0.0),), teammates=(FieldPose(3.0, 0.0, 0.0),))
    plan = assert_same_plan(ctx, zero_heuristic=zero_heuristic)
    assert plan == BallPlan(waypoints=(goal,), total_cost=0.0, expanded_nodes=1)


# (30.0,) gives the ball cell no edge; (10.0,) and (10.5,) link only cells near
# opposite corners, so the search closes 144 and 20 cells before it gives up
@pytest.mark.parametrize("kicks, ball", [((30.0,), (0.0, 0.0)), ((10.0,), (-4.4, -2.9)),
                                         ((10.5,), (4.4, 2.9))])
@pytest.mark.parametrize("zero_heuristic", [False, True], ids=["guided", "zero"])
def test_no_path_matches_heap(kicks, ball, zero_heuristic):
    ctx = PlanContext(robot_pos=FieldPose(0.0, 0.0, 0.0), ball_pos=ball, kick_lengths=kicks)
    with pytest.raises(NoPath):
        plan_ball_path_heap(ctx, SPEC, zero_heuristic=zero_heuristic)
    with pytest.raises(NoPath):
        plan_ball_path(ctx, SPEC, zero_heuristic=zero_heuristic)


@pytest.mark.parametrize("zero_heuristic", [False, True], ids=["guided", "zero"])
def test_fine_grid_scenes_match_heap(zero_heuristic):
    rng = np.random.default_rng(5)
    for i in range(5):
        ctx = random_scene(rng)
        assert assert_same_plan(ctx, FINE, zero_heuristic=zero_heuristic) is not None, \
            f"scene {i}"


coord_x = st.floats(-4.4, 4.4)
coord_y = st.floats(-2.9, 2.9)
poses = st.builds(FieldPose, coord_x, coord_y, st.floats(-np.pi, np.pi))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ball=st.tuples(coord_x, coord_y), robot=poses,
       opponents=st.lists(st.tuples(coord_x, coord_y), max_size=3),
       teammates=st.lists(poses, max_size=2),
       kicks=st.lists(st.sampled_from([0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0]),
                      min_size=1, max_size=4, unique=True),
       zero_heuristic=st.booleans())
def test_plan_matches_heap_property(ball, robot, opponents, teammates, kicks,
                                    zero_heuristic):
    ctx = PlanContext(robot_pos=robot, ball_pos=ball, teammates=tuple(teammates),
                      opponents=tuple(opponents), kick_lengths=tuple(sorted(kicks)))
    assert_same_plan(ctx, zero_heuristic=zero_heuristic)
