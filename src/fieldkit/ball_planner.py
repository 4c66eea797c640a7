"""A* kick planning over the discretized field.

Edge costs are times: the ball travel time for every kick, plus (for the
first kick only) the robot's time to approach the ball, with the travel
term doubled when the kick segment crosses an opponent disc. The heuristic
is the remaining ball travel time to the opponent goal center, plus (for
the first kick) the best teammate's approach time to the landing spot.

The open set is one array of f = g + h per cell, scanned for its minimum on
each pop (Dijkstra 1959's O(V^2) selection, with A*'s key). The kick graph
is dense, with about 27 improvements per expansion, so a heap would mostly
hold entries that go stale before they are popped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import InputError, NoPath
from .field_model import FieldPose, FieldSpec, GridIndex, cell_center, kick_offsets, pose_to_cell
from .geometry import normalize_angle, normalize_angles, points_segments_distance

Point = tuple[float, float]


@dataclass(frozen=True)
class PlanContext:
    """Scene state plus kick and speed parameters for one planning query."""

    robot_pos: FieldPose
    ball_pos: Point
    teammates: tuple[FieldPose, ...] = ()
    opponents: tuple[Point, ...] = ()
    ball_speed: float = 2.0
    walk_speed: float = 0.2
    turn_speed: float = 1.0
    opponent_radius: float = 0.3
    kick_lengths: tuple[float, ...] = (0.5, 1.0, 2.0)
    goal_center: Point = (4.5, 0.0)
    # "already at the ball" thresholds under which approach time is zero
    at_ball_dist: ClassVar[float] = 0.1
    at_ball_angle: ClassVar[float] = 0.1

    def __post_init__(self):
        object.__setattr__(self, "ball_pos", (float(self.ball_pos[0]), float(self.ball_pos[1])))
        object.__setattr__(self, "teammates", tuple(self.teammates))
        object.__setattr__(self, "opponents",
                           tuple((float(o[0]), float(o[1])) for o in self.opponents))
        object.__setattr__(self, "kick_lengths", tuple(float(k) for k in self.kick_lengths))
        object.__setattr__(self, "goal_center", (float(self.goal_center[0]), float(self.goal_center[1])))
        values = (*self.goal_center, *self.kick_lengths, *sum(self.opponents, ()),
                  *(v for p in (self.robot_pos, *self.teammates) for v in (p.x, p.y, p.theta)),
                  self.ball_speed, self.walk_speed, self.turn_speed, self.opponent_radius)
        if not all(map(math.isfinite, values)):
            raise InputError("scene poses, speeds, distances and points must be finite")
        if self.ball_speed <= 0 or self.walk_speed <= 0 or self.turn_speed <= 0:
            raise InputError("speeds must be positive")
        if self.opponent_radius <= 0:
            raise InputError("opponent_radius must be positive")


@dataclass(frozen=True)
class BallPlan:
    """Kick sequence from the ball cell toward the goal cell."""

    waypoints: tuple[Point, ...]
    total_cost: float
    expanded_nodes: int

    @property
    def kicks(self) -> int:
        return len(self.waypoints) - 1


def time_to_approach_ball(ball: Point, robot: FieldPose, ctx: PlanContext) -> float:
    """Kinematic bound: walk the distance, turn onto the ball bearing.

    Returns exactly zero when the robot is already at the ball (within
    ctx.at_ball_dist) and roughly aligned (within ctx.at_ball_angle).
    At zero offset the bearing degenerates to 0 (atan2 convention).
    """
    dx = ball[0] - robot.x
    dy = ball[1] - robot.y
    dist = math.sqrt(dx * dx + dy * dy)
    bearing = math.atan2(dy, dx) if dist >= 1e-9 else 0.0
    turn = abs(normalize_angle(bearing - robot.theta))
    if dist < ctx.at_ball_dist and turn <= ctx.at_ball_angle:
        return 0.0
    return dist / ctx.walk_speed + turn / ctx.turn_speed


def intersect_opponent(from_pos: Point, to_pos: Point, opponents, radius: float) -> bool:
    """True iff any opponent disc of the given radius blocks the open segment."""
    return bool((points_segments_distance(opponents, from_pos, to_pos) < radius).any())


def compute_cost(ctx: PlanContext, from_pos: Point, to_pos: Point, first_kick: bool) -> float:
    """Edge cost in seconds (ball travel; first kick adds approach/threat terms)."""
    dx = to_pos[0] - from_pos[0]
    dy = to_pos[1] - from_pos[1]
    travel = math.sqrt(dx * dx + dy * dy) / ctx.ball_speed
    if not first_kick:
        return travel
    reach = time_to_approach_ball(from_pos, ctx.robot_pos, ctx)
    if intersect_opponent(from_pos, to_pos, ctx.opponents, ctx.opponent_radius):
        return reach + travel * 2
    return reach + travel


def heuristic(ctx: PlanContext, to_pos: Point, first_kick: bool) -> float:
    """Remaining time estimate: ball to goal, plus teammate approach on the first kick."""
    dx = ctx.goal_center[0] - to_pos[0]
    dy = ctx.goal_center[1] - to_pos[1]
    goal_time = math.sqrt(dx * dx + dy * dy) / ctx.ball_speed
    if first_kick and ctx.teammates:
        goal_time += min(time_to_approach_ball(to_pos, tm, ctx) for tm in ctx.teammates)
    return goal_time


@lru_cache(maxsize=8)
def _travel_times(spec: FieldSpec, kicks: tuple[float, ...], ball_speed: float):
    """CSR adjacency over all cells: (indptr, targets, ball travel times).

    Travel times are center distances over ball_speed, with the distances
    computed from the same center coordinates as cell_center, so edge costs
    here agree bit for bit with scalar compute_cost. Targets are intp, so
    the planner gathers with them without a cast per expansion.
    """
    dr, dc = kick_offsets(spec, kicks).T
    n_rows, n_cols = spec.n_rows, spec.n_cols
    tr = np.arange(n_rows)[:, None] + dr  # target row of (source row, offset)
    tc = np.arange(n_cols)[:, None] + dc
    # (rows, cols, offsets), row-major: each cell's in-field targets in offset order
    inside = ((tr >= 0) & (tr < n_rows))[:, None] & ((tc >= 0) & (tc < n_cols))
    rows, cols, k = np.nonzero(inside)
    indptr = np.zeros(spec.cell_count + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=2), out=indptr[1:])
    # center offsets per (source row or col, offset); % wraps the targets
    # off the field, which no edge gathers
    xs, ys = spec.col_centers(), spec.row_centers()
    dx = xs[tc % n_cols] - xs[:, None]
    dy = ys[tr % n_rows] - ys[:, None]
    dist = np.sqrt((dx * dx)[cols, k] + (dy * dy)[rows, k])
    return indptr, tr[rows, k] * n_cols + tc[cols, k], dist / ball_speed


def _segment_blocked(a: Point, ends, opponents, radius: float) -> np.ndarray:
    """intersect_opponent for one start and (S, 2) segment ends, shape (S,)."""
    return (points_segments_distance(opponents, a, ends) < radius).any(axis=0)


def _approach_times(points: np.ndarray, robot: FieldPose, ctx: PlanContext) -> np.ndarray:
    """Vectorized time_to_approach_ball over (N, 2) ball positions."""
    dx = points[:, 0] - robot.x
    dy = points[:, 1] - robot.y
    dist = np.sqrt(dx * dx + dy * dy)
    bearing = np.where(dist >= 1e-9, np.arctan2(dy, dx), 0.0)
    turn = np.abs(normalize_angles(bearing - robot.theta))
    t = dist / ctx.walk_speed + turn / ctx.turn_speed
    t[(dist < ctx.at_ball_dist) & (turn <= ctx.at_ball_angle)] = 0.0
    return t


def plan_ball_path(ctx: PlanContext, spec: FieldSpec, *,
                   zero_heuristic: bool = False) -> BallPlan:
    """A* over the kick graph from the ball cell to the goal cell.

    The first expanded edge is costed as the first kick; later edges carry
    ball travel time only. Pops follow (f, g, cell index): among open cells
    of equal f, the lower g, then the smaller index, so the search is fully
    deterministic. With zero_heuristic f is g bit for bit, so argmin's first
    index is that choice already and the tie scan is skipped.

    With teammates the guided plan need not be the cheapest: the first kick's
    heuristic adds teammate approach time that the cost leaves out. On
    criterion 1's 100 scenes it cost more than the optimum in 72, all with
    teammates (median +2.9%, at most +27%); zero_heuristic=True is optimal.
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

    # g of every open node, -inf once closed, so no improvement test passes
    # for a closed node; f = g + h of every open node, inf for the others
    g = np.full(n, np.inf)
    f = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    bounds = indptr.tolist()
    opponents = np.asarray(ctx.opponents, dtype=float).reshape(-1, 2)

    start_center = cell_center(start_cell, spec)
    g[start] = f[start] = 0.0
    expanded = 0
    while True:
        u = int(f.argmin())
        fu = f[u]
        if fu == np.inf:
            raise NoPath("goal cells unreachable with the given kick set")
        if not zero_heuristic and f[u + 1:].min(initial=np.inf) == fu:
            tied = np.flatnonzero(f == fu)
            u = int(tied[g[tied].argmin()])
        expanded += 1
        if u == target:
            break
        gu = g[u]
        g[u] = -np.inf
        f[u] = np.inf
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
            f[iv] = ig + hv[iv]
            parent[iv] = u

    cells = []
    node = target
    while node >= 0:
        cells.append(node)
        node = parent[node]
    cells.reverse()
    waypoints = tuple(cell_center(GridIndex(c // n_cols, c % n_cols), spec) for c in cells)
    return BallPlan(waypoints=waypoints, total_cost=float(g[target]), expanded_nodes=expanded)


def plan_cost_recomputed(ctx: PlanContext, plan: BallPlan) -> float:
    """Re-evaluate a plan's cost edge by edge with the scalar cost function."""
    total = 0.0
    for k in range(len(plan.waypoints) - 1):
        total = total + compute_cost(ctx, plan.waypoints[k], plan.waypoints[k + 1], k == 0)
    return total
