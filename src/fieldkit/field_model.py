"""Field geometry, grid discretization, and kick-edge generation.

The field frame is centered at the field middle, x toward the opponent
(right) goal, y toward the left touchline, theta = 0 facing the opponent
goal. The grid covers the field with square cells; rows run along y,
columns along x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, OutOfField, check_fields
from .geometry import normalize_angle

Point = tuple[float, float]
Segment = tuple[Point, Point]


@dataclass(frozen=True, order=True)
class GridIndex:
    row: int
    col: int


@dataclass(frozen=True)
class FieldPose:
    """Robot pose in the field frame; theta is normalized to (-pi, pi]."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_angle(self.theta))


def _default_layout(length, width, penalty_depth, penalty_width,
                    goal_area_depth, goal_area_width) -> tuple[Segment, ...]:
    """Painted line segments: border, halfway line, penalty and goal areas."""
    hl, hw = length / 2.0, width / 2.0
    segs = [
        ((-hl, -hw), (hl, -hw)),
        ((hl, -hw), (hl, hw)),
        ((hl, hw), (-hl, hw)),
        ((-hl, hw), (-hl, -hw)),
        ((0.0, -hw), (0.0, hw)),
    ]
    for sign in (-1.0, 1.0):
        # penalty area: front line plus two sides; the back edge is the border
        pf = sign * (hl - penalty_depth)
        py = penalty_width / 2.0
        segs.append(((pf, -py), (pf, py)))
        segs.append(((sign * hl, -py), (pf, -py)))
        segs.append(((sign * hl, py), (pf, py)))
        gf = sign * (hl - goal_area_depth)
        gy = goal_area_width / 2.0
        segs.append(((gf, -gy), (gf, gy)))
        segs.append(((sign * hl, -gy), (gf, -gy)))
        segs.append(((sign * hl, gy), (gf, gy)))
    return tuple(segs)


def _as_point(p) -> Point:
    return (float(p[0]), float(p[1]))


def _as_segments(segs) -> tuple[Segment, ...]:
    return tuple((_as_point(a), _as_point(b)) for a, b in segs)


@dataclass(frozen=True)
class FieldSpec:
    """Canonical field geometry shared by planner, localizer, and renderer."""

    length: float = 9.0
    width: float = 6.0
    cell_size: float = 0.1
    line_width: float = 0.05
    goal_center_left: Point = (-4.5, 0.0)
    goal_center_right: Point = (4.5, 0.0)
    goal_width: float = 2.6
    line_segments: tuple[Segment, ...] = field(
        default_factory=lambda: _default_layout(9.0, 6.0, 2.0, 5.0, 1.0, 3.0))
    circle_center: Point = (0.0, 0.0)
    circle_radius: float = 0.75

    def __post_init__(self):
        object.__setattr__(self, "goal_center_left", _as_point(self.goal_center_left))
        object.__setattr__(self, "goal_center_right", _as_point(self.goal_center_right))
        object.__setattr__(self, "circle_center", _as_point(self.circle_center))
        object.__setattr__(self, "line_segments", _as_segments(self.line_segments))
        check_fields(self, "field", (
            (("length", "width", "cell_size"), lambda v: 0 < v < math.inf, "positive and finite"),
            (("line_width", "goal_width", "circle_radius"), math.isfinite, "finite"),
            (("goal_center_left", "goal_center_right", "circle_center", "line_segments"),
             lambda points: np.isfinite(points).all(), "finite"),
        ))
        for extent, name in ((self.length, "length"), (self.width, "width")):
            cells = extent / self.cell_size
            if abs(cells - round(cells)) > 1e-9:
                raise InputError(f"{name}/cell_size must be an exact integer, got {cells}")
        hl, hw = self.length / 2.0, self.width / 2.0
        eps = 1e-9
        for seg in self.line_segments:
            if seg[0] == seg[1]:
                raise InputError(f"line segment {seg} has zero length")
            for px, py in seg:
                if abs(px) > hl + eps or abs(py) > hw + eps:
                    raise InputError(f"line segment endpoint {(px, py)} outside border")
        for gc, side in ((self.goal_center_left, -1.0), (self.goal_center_right, 1.0)):
            if abs(gc[0] - side * hl) > eps or abs(gc[1]) > eps:
                raise InputError(f"goal center {gc} must sit on the short border at y=0")

    @property
    def n_rows(self) -> int:
        return round(self.width / self.cell_size)

    @property
    def n_cols(self) -> int:
        return round(self.length / self.cell_size)

    @property
    def cell_count(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def half_length(self) -> float:
        return self.length / 2.0

    @property
    def half_width(self) -> float:
        return self.width / 2.0

    @property
    def goal_posts(self) -> tuple[Point, ...]:
        """Point landmarks: the four goal posts."""
        hw = self.goal_width / 2.0
        posts = []
        for gx, gy in (self.goal_center_left, self.goal_center_right):
            posts.append((gx, gy - hw))
            posts.append((gx, gy + hw))
        return tuple(posts)

    def contains(self, p, margin: float = 0.0) -> bool:
        return (abs(p[0]) <= self.half_length + margin
                and abs(p[1]) <= self.half_width + margin)

    def col_centers(self) -> np.ndarray:
        return (-self.half_length) + (np.arange(self.n_cols) + 0.5) * self.cell_size

    def row_centers(self) -> np.ndarray:
        return (-self.half_width) + (np.arange(self.n_rows) + 0.5) * self.cell_size

    @classmethod
    def from_dict(cls, doc: dict) -> "FieldSpec":
        if not isinstance(doc, dict):
            raise InputError(f"field must be a JSON object, got {type(doc).__name__}")
        try:
            kwargs = {}
            for key in ("length", "width", "cell_size", "line_width"):
                if key in doc:
                    kwargs[key] = float(doc[key])
            if "line_segments" in doc:
                kwargs["line_segments"] = _as_segments(doc["line_segments"])
            if "circle" in doc:
                kwargs["circle_center"] = _as_point(doc["circle"]["center"])
                kwargs["circle_radius"] = float(doc["circle"]["radius"])
            if "goals" in doc:
                goals = doc["goals"]
                kwargs["goal_center_left"] = _as_point(goals["left"])
                kwargs["goal_center_right"] = _as_point(goals["right"])
                if "width" in goals:
                    kwargs["goal_width"] = float(goals["width"])
            return cls(**kwargs)
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InputError(f"bad field document: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "width": self.width,
            "cell_size": self.cell_size,
            "line_width": self.line_width,
            "line_segments": [[list(a), list(b)] for a, b in self.line_segments],
            "circle": {"center": list(self.circle_center), "radius": self.circle_radius},
            "goals": {
                "left": list(self.goal_center_left),
                "right": list(self.goal_center_right),
                "width": self.goal_width,
            },
        }


def load_default_field() -> FieldSpec:
    """The default field description: FieldSpec's defaults."""
    return FieldSpec()


def _nearest_axis(coord: float, half: float, cell: float, n: int) -> int:
    """Nearest cell index along one axis; ties go to the smaller index."""
    u = (coord + half) / cell
    c0 = int(math.floor(u))
    best = None
    best_d = math.inf
    for c in (c0 - 1, c0, c0 + 1):
        if 0 <= c < n:
            d = abs(u - (c + 0.5))
            if d < best_d:
                best, best_d = c, d
    return best


def pose_to_cell(p, spec: FieldSpec) -> GridIndex:
    """Grid cell whose center is nearest to p.

    p must lie within the field rectangle expanded by half a cell; ties are
    broken toward the smaller index (row first, then col).
    """
    x, y = float(p[0]), float(p[1])
    if not spec.contains((x, y), spec.cell_size / 2.0 + 1e-12):
        raise OutOfField(f"point {(x, y)} outside field (+ half-cell margin)")
    row = _nearest_axis(y, spec.half_width, spec.cell_size, spec.n_rows)
    col = _nearest_axis(x, spec.half_length, spec.cell_size, spec.n_cols)
    return GridIndex(row, col)


def cell_center(i: GridIndex, spec: FieldSpec) -> Point:
    """Geometric center of a cell in the centered field frame."""
    if not (0 <= i.row < spec.n_rows and 0 <= i.col < spec.n_cols):
        raise InputError(f"grid index {i} out of range")
    x = (-spec.half_length) + (i.col + 0.5) * spec.cell_size
    y = (-spec.half_width) + (i.row + 0.5) * spec.cell_size
    return (x, y)


def kick_offsets(spec: FieldSpec, kick_lengths) -> np.ndarray:
    """Grid offsets (dr, dc) whose center distance lies within half a cell of a kick.

    Membership is evaluated on the ideal offset distance cell_size*sqrt(dr^2+dc^2),
    which is translation invariant, so an edge's membership never depends on
    where the source cell sits. Offsets are searched only within the grid
    (|dr| < n_rows, |dc| < n_cols): a longer one has no in-field target from
    any cell. Returns an (M, 2) intp array in row-major (dr, dc) order.
    """
    kicks = [float(k) for k in kick_lengths]
    if not kicks:
        raise InputError("kick_lengths must be non-empty")
    if any(k <= spec.cell_size for k in kicks):
        raise InputError("every kick length must exceed the cell size")
    half = spec.cell_size / 2.0
    reach = (max(kicks) + half) / spec.cell_size
    rows, cols = (math.ceil(min(n - 1, reach)) for n in (spec.n_rows, spec.n_cols))
    dr, dc = np.mgrid[-rows:rows + 1, -cols:cols + 1].reshape(2, -1)
    dist = spec.cell_size * np.sqrt(dr * dr + dc * dc)
    hit = (np.abs(dist[:, None] - np.array(kicks)) <= half).any(axis=1) & ((dr != 0) | (dc != 0))
    return np.column_stack([dr[hit], dc[hit]])
