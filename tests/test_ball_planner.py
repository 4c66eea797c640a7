import math

import numpy as np
import pytest

from fieldkit.ball_planner import (
    PlanContext,
    _segment_blocked,
    _travel_times,
    compute_cost,
    heuristic,
    intersect_opponent,
    plan_ball_path,
    plan_cost_recomputed,
    time_to_approach_ball,
)
from fieldkit.errors import NoPath
from fieldkit.field_model import FieldPose, FieldSpec, cell_center, pose_to_cell


@pytest.fixture(scope="module")
def spec():
    return FieldSpec()


def ctx_at(ball, robot=None, **kw):
    robot = robot or FieldPose(ball[0], ball[1], 0.0)
    return PlanContext(robot_pos=robot, ball_pos=ball, **kw)


def random_ctx(rng, max_opponents=3, max_teammates=2):
    ball = (rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
    robot = FieldPose(rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9),
                      rng.uniform(-np.pi, np.pi))
    opps = tuple((rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
                 for _ in range(rng.integers(0, max_opponents + 1)))
    tms = tuple(FieldPose(rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9),
                          rng.uniform(-np.pi, np.pi))
                for _ in range(rng.integers(0, max_teammates + 1)))
    return PlanContext(robot_pos=robot, ball_pos=ball, teammates=tms, opponents=opps)


# --- cost function -----------------------------------------------------------

def test_cost_later_kicks_are_pure_travel_time():
    ctx = ctx_at((0.0, 0.0))
    assert compute_cost(ctx, (0.0, 0.0), (1.0, 0.0), first_kick=False) == 0.5


def test_cost_first_kick_adds_zero_approach_when_robot_ready():
    # robot standing at the ball facing the kick direction
    ctx = ctx_at((0.0, 0.0), FieldPose(0.0, 0.0, 0.0))
    assert compute_cost(ctx, (0.0, 0.0), (1.0, 0.0), first_kick=True) == 0.5


def test_cost_first_kick_doubles_travel_through_opponent():
    ctx = ctx_at((0.0, 0.0), FieldPose(0.0, 0.0, 0.0), opponents=((0.5, 0.0),))
    assert compute_cost(ctx, (0.0, 0.0), (1.0, 0.0), first_kick=True) == 1.0
    # opponent only matters on the first kick
    assert compute_cost(ctx, (0.0, 0.0), (1.0, 0.0), first_kick=False) == 0.5


def test_cost_is_scaled_metric_for_later_kicks():
    ctx = ctx_at((0.0, 0.0), opponents=((0.2, 0.1),))
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = tuple(rng.uniform(-4, 4, 2))
        b = tuple(rng.uniform(-4, 4, 2))
        if a == b:
            continue
        dist = math.sqrt((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2)
        assert compute_cost(ctx, a, b, False) == dist / ctx.ball_speed


# --- approach time -----------------------------------------------------------

def test_approach_zero_when_at_ball_and_aligned():
    ctx = ctx_at((0.0, 0.0))
    assert time_to_approach_ball((0.0, 0.0), FieldPose(0.0, 0.0, 0.0), ctx) == 0.0


def test_at_ball_thresholds_are_constants():
    with pytest.raises(TypeError):
        ctx_at((0.0, 0.0), at_ball_dist=0.2)
    with pytest.raises(TypeError):
        ctx_at((0.0, 0.0), at_ball_angle=0.2)
    assert PlanContext.at_ball_dist == 0.1 and PlanContext.at_ball_angle == 0.1


def test_approach_walking_term():
    ctx = ctx_at((0.0, 0.0))
    robot = FieldPose(-1.0, 0.0, 0.0)  # 1 m behind the ball, facing it
    assert time_to_approach_ball((0.0, 0.0), robot, ctx) == pytest.approx(5.0)


def test_approach_rotation_term_only():
    ctx = ctx_at((0.0, 0.0))
    robot = FieldPose(0.0, 0.0, math.pi)  # at the ball but facing away
    assert time_to_approach_ball((0.0, 0.0), robot, ctx) == pytest.approx(math.pi)


# --- opponent intersection ---------------------------------------------------

def test_intersect_opponent_on_midpoint():
    assert intersect_opponent((0, 0), (2, 0), [(1.0, 0.0)], 0.3)


def test_intersect_opponent_just_outside_radius():
    assert not intersect_opponent((0, 0), (2, 0), [(1.0, 0.301)], 0.3)
    assert intersect_opponent((0, 0), (2, 0), [(1.0, 0.299)], 0.3)


def test_intersect_opponent_matches_dense_sampling():
    rng = np.random.default_rng(11)
    ts = np.linspace(0.0, 1.0, 10_000)
    for _ in range(1000):
        a = rng.uniform(-4, 4, 2)
        b = rng.uniform(-4, 4, 2)
        if np.allclose(a, b):
            continue
        opp = rng.uniform(-4, 4, 2)
        radius = rng.uniform(0.1, 0.6)
        samples = a[None, :] + ts[:, None] * (b - a)[None, :]
        dense = bool((np.hypot(*(samples - opp).T) < radius).any())
        got = intersect_opponent(tuple(a), tuple(b), [tuple(opp)], radius)
        # dense sampling can only miss by a sliver near the boundary
        if dense != got:
            d = np.hypot(*(samples - opp).T).min()
            assert abs(d - radius) < 1e-5
        else:
            assert dense == got


def test_intersect_opponent_agrees_with_vectorized_blocked_flags():
    # seeded case on which a BLAS distance and a scalar sqrt distance
    # disagreed in the last bit, across the radius: A* (vectorized) and
    # compute_cost / plan_cost_recomputed (scalar) must flag the same edges
    start = (2.4400233899630415, 2.46352631789195)
    end = (-4.014623678565092, -1.049680072930336)
    opp = (0.7803821041929742, 0.6926491002381523)
    radius = 0.7619901654800694
    vectorized = _segment_blocked(start, np.array([end]), np.array([opp]), radius)
    assert bool(vectorized[0]) == intersect_opponent(start, end, [opp], radius)
    rng = np.random.default_rng(5)
    ends = rng.uniform(-4, 4, (200, 2))
    opps = rng.uniform(-4, 4, (3, 2))
    flags = _segment_blocked(start, ends, opps, radius)
    assert flags.tolist() == [intersect_opponent(start, tuple(e), [tuple(o) for o in opps], radius)
                              for e in ends]


# --- heuristic ---------------------------------------------------------------

def test_heuristic_zero_at_goal():
    ctx = ctx_at((0.0, 0.0))
    assert heuristic(ctx, ctx.goal_center, first_kick=False) == 0.0


def test_heuristic_goal_distance_over_ball_speed():
    ctx = ctx_at((0.0, 0.0))
    assert heuristic(ctx, (1.5, 0.0), first_kick=False) == pytest.approx(1.5)


def test_heuristic_first_kick_teammate_at_spot():
    to = (2.0, 0.0)
    mate = FieldPose(to[0], to[1], 0.0)  # at the spot, already facing the goal
    ctx = ctx_at((0.0, 0.0), teammates=(mate,))
    goal_term = math.dist(to, ctx.goal_center) / ctx.ball_speed
    assert heuristic(ctx, to, first_kick=True) == pytest.approx(goal_term)
    # without teammates the first-kick heuristic is just the goal term
    ctx2 = ctx_at((0.0, 0.0))
    assert heuristic(ctx2, to, first_kick=True) == pytest.approx(goal_term)
    # a distant teammate adds its walk time
    far = FieldPose(to[0] - 1.0, to[1], 0.0)
    ctx3 = ctx_at((0.0, 0.0), teammates=(far,))
    assert heuristic(ctx3, to, first_kick=True) == pytest.approx(goal_term + 5.0)


# --- full planning -----------------------------------------------------------

def test_single_kick_plan_on_empty_field(spec):
    # ball cell center sits exactly one 2.0 m kick from the goal cell center
    ball = (2.45, -0.05)
    ctx = ctx_at(ball, FieldPose(ball[0], ball[1], 0.0), kick_lengths=(2.0,))
    plan = plan_ball_path(ctx, spec)
    assert plan.kicks == 1
    start = cell_center(pose_to_cell(ball, spec), spec)
    goal = cell_center(pose_to_cell(ctx.goal_center, spec), spec)
    assert plan.waypoints[0] == start and plan.waypoints[-1] == goal
    expected = compute_cost(ctx, start, goal, first_kick=True)
    assert plan.total_cost == expected
    assert expected == pytest.approx(1.0)  # approach 0 + 2.0 m / 2.0 m/s


def test_waypoints_are_valid_kick_edges(spec, kick_edges):
    rng = np.random.default_rng(2)
    for _ in range(10):
        ctx = random_ctx(rng)
        plan = plan_ball_path(ctx, spec)
        indptr, dst, _ = _travel_times(spec, ctx.kick_lengths, 1.0)
        for a, b in zip(plan.waypoints, plan.waypoints[1:]):
            ia, ib = pose_to_cell(a, spec), pose_to_cell(b, spec)
            n = ia.row * spec.n_cols + ia.col
            row = {int(t) for t in dst[indptr[n]:indptr[n + 1]]}
            # the planner's graph row is the oracle's edge set, and holds the kick
            assert row == {j.row * spec.n_cols + j.col
                           for j, _ in kick_edges(ia, ctx.kick_lengths, spec)}
            assert ib.row * spec.n_cols + ib.col in row


def test_cost_equals_edge_sum_on_random_instances(spec):
    rng = np.random.default_rng(9)
    for _ in range(25):
        ctx = random_ctx(rng)
        plan = plan_ball_path(ctx, spec)
        assert plan_cost_recomputed(ctx, plan) == plan.total_cost


def test_zero_heuristic_matches_reference_dijkstra(spec, reference_dijkstra_cost):
    rng = np.random.default_rng(4)
    for _ in range(10):
        ctx = random_ctx(rng)
        plan = plan_ball_path(ctx, spec, zero_heuristic=True)
        assert plan.total_cost == reference_dijkstra_cost(ctx, spec)


def test_threat_on_direct_segment_never_reduces_cost(spec):
    rng = np.random.default_rng(8)
    for _ in range(10):
        ctx = random_ctx(rng, max_opponents=0, max_teammates=0)
        base = plan_ball_path(ctx, spec).total_cost
        ball = np.array(ctx.ball_pos)
        goal = np.array(ctx.goal_center)
        mid = tuple(ball + rng.uniform(0.3, 0.7) * (goal - ball))
        blocked_ctx = PlanContext(robot_pos=ctx.robot_pos, ball_pos=ctx.ball_pos,
                                  opponents=(mid,))
        assert plan_ball_path(blocked_ctx, spec).total_cost >= base


def test_no_path_with_pathological_kicks(spec):
    # kicks much longer than the field diagonal reach nothing in-field
    ctx = ctx_at((0.0, 0.0), kick_lengths=(30.0,))
    with pytest.raises(NoPath):
        plan_ball_path(ctx, spec)


def test_plan_is_deterministic(spec):
    rng = np.random.default_rng(12)
    ctx = random_ctx(rng)
    a = plan_ball_path(ctx, spec)
    b = plan_ball_path(ctx, spec)
    assert a == b
