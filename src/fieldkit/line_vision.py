"""Field-line and corner detection.

Pipeline: a three-rectangle sliding window scores every (decimated) image
site in a horizontal and a vertical pass, producing two heatmaps; each pass
scores the whole site grid as one box-sum evaluation on integral images per
distinct line width. 1-D non-maximum suppression along each pass's scan
direction keeps line-center candidates; a seeded progressive probabilistic
Hough transform turns the candidates into segments; near-collinear segments
are merged; pairs of merged lines meeting near 90 degrees become corner
observations (1 for an L junction, 2 for a T, 4 for an X).

The passes and NMS run only on the bounding box of the nonzero pixels,
padded so that every site outside it would score 0: a birdview is black
wherever the camera does not see the ground, and those sites cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_fields
from .geometry import axial_diff, connected_components, line_intersection
from .raster import Raster

Point = tuple[float, float]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

# the most int32 cells (128 MiB) a Hough accumulator may take; a finer one is a MemoryError
HOUGH_MAX_CELLS = 1 << 25


@dataclass(frozen=True)
class LineSegment:
    p0: Point
    p1: Point

    def __post_init__(self):
        object.__setattr__(self, "p0", (float(self.p0[0]), float(self.p0[1])))
        object.__setattr__(self, "p1", (float(self.p1[0]), float(self.p1[1])))
        if self.length <= 0:
            raise InputError("segment endpoints must differ")

    @property
    def length(self) -> float:
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    @property
    def direction(self) -> float:
        """Undirected angle in [0, pi)."""
        a = math.atan2(self.p1[1] - self.p0[1], self.p1[0] - self.p0[0]) % math.pi
        return a if a < math.pi else 0.0

    @property
    def unit(self) -> Point:
        d = self.length
        return ((self.p1[0] - self.p0[0]) / d, (self.p1[1] - self.p0[1]) / d)

    @property
    def midpoint(self) -> Point:
        return ((self.p0[0] + self.p1[0]) / 2.0, (self.p0[1] + self.p1[1]) / 2.0)

    def point_line_distance(self, p) -> float:
        """Distance from p to this segment's infinite line."""
        ux, uy = self.unit
        dx = p[0] - self.p0[0]
        dy = p[1] - self.p0[1]
        return abs(dx * uy - dy * ux)


@dataclass(frozen=True)
class CornerObservation:
    """A right-angle meeting of two lines; dir_a/dir_b point along the arms."""

    position: Point
    dir_a: Point
    dir_b: Point


@dataclass(frozen=True)
class VisionConfig:
    """Every line-vision setting; each stage of detect_lines reads its own."""

    decimation: int = 4
    luma_weight: float = 1.0
    green_weight: float = 1.0
    nms_radius: int = 2
    nms_threshold: float = 25.0
    hough_rho: float = 2.0
    hough_theta: float = math.pi / 180.0
    hough_votes: int = 10
    min_length: float = 40.0
    max_gap: float = 12.0
    join_dist: float = 3.0
    merge_angle_tol: float = math.radians(3.0)
    merge_dist_tol: float = 4.0
    corner_angle_tol: float = math.radians(10.0)
    corner_extend_tol: float = 6.0
    corner_end_slack: float = 6.0
    seed: int = 0

    def __post_init__(self):
        checks = (
            (("decimation", "nms_radius", "hough_votes"), lambda v: v >= 1, "at least 1"),
            (("seed",), lambda v: v >= 0, "non-negative"),
            (("hough_rho",), lambda v: 0 < v < math.inf, "positive and finite"),
            (("hough_theta",), lambda v: 0 < v <= math.pi, "in (0, pi]"),
            (("luma_weight", "green_weight", "nms_threshold"), math.isfinite, "finite"),
            (("min_length", "max_gap", "join_dist", "merge_angle_tol", "merge_dist_tol",
              "corner_angle_tol", "corner_extend_tol", "corner_end_slack"),
             lambda v: 0 <= v < math.inf, "finite and non-negative"),
        )
        check_fields(self, "vision", checks)


def integral_image(channel: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: table[y, x] = sum over [0,y) x [0,x)."""
    c = np.asarray(channel)
    out = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=np.int64)
    np.cumsum(c, axis=0, dtype=np.int64, out=out[1:, 1:])
    np.cumsum(out[1:, 1:], axis=1, out=out[1:, 1:])
    return out


def rect_sum(table: np.ndarray, y0, y1, x0, x1):
    """Sum of pixels in rows [y0, y1), cols [x0, x1); bounds may be arrays,
    and the column bounds may be slices of equal length."""
    return table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]


def _width_map_as_array(width_map, height: int) -> np.ndarray:
    """The expected line width of each of `height` rows, rounded to whole
    pixels and at least 1; width_map is one width or one per row."""
    try:
        wm = np.broadcast_to(np.asarray(width_map, dtype=float), (height,))
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"width_map must be one width or one per row ({height}): {exc}") from exc
    # NaN fails the comparison; the bound keeps the cast to int64 from overflowing
    if not (np.abs(wm) < 2.0**31).all():
        raise InputError("width_map must be finite and under 2**31 pixels")
    return np.maximum(np.rint(wm), 1).astype(np.int64)


def line_response_pass(tables, direction: str, width_map, cfg: VisionConfig) -> np.ndarray:
    """Three-rectangle sliding-window score: bright middle, dark green sides.

    `tables` is the pair (integral_image(luma), integral_image(green)) of one
    raster. The middle rectangle width follows the expected line width for
    the image row; the side rectangles are the same size and adjacent. Scores
    clip at 0, and sites whose window leaves the image score 0. Returns the
    score of every site of the decimated grid, scored as one box-sum
    evaluation per distinct line width.
    """
    if direction not in (HORIZONTAL, VERTICAL):
        raise InputError(f"unknown pass direction {direction!r}")
    h, w = (n - 1 for n in tables[0].shape)
    decimation = cfg.decimation
    rows = np.arange(0, h, decimation)
    n_cols = len(range(0, w, decimation))
    row_widths = _width_map_as_array(width_map, h)[rows]
    values = np.zeros((len(rows), n_cols))
    for lw in np.unique(row_widths).tolist():
        half = lw // 2
        # window edges relative to the site: three lw-wide boxes along the
        # scan direction ([side][mid][side]), one lw-wide box across it
        along = (-half - lw, -half, -half + lw, -half + 2 * lw)
        across = (-half, -half + lw)
        row_edges, col_edges = (across, along) if direction == HORIZONTAL else (along, across)
        i = np.flatnonzero(row_widths == lw)
        i = i[(rows[i] + row_edges[0] >= 0) & (rows[i] + row_edges[-1] <= h)]
        # the sites whose window fits between columns 0 and w are contiguous
        j0 = -(col_edges[0] // decimation)
        j1 = min(n_cols - 1, (w - col_edges[-1]) // decimation)
        if len(i) == 0 or j1 < j0:
            continue
        ys = [rows[i] + e for e in row_edges]
        xs = [slice(j0 * decimation + e, j1 * decimation + e + 1, decimation) for e in col_edges]
        if direction == HORIZONTAL:
            boxes = [(ys[0], ys[1], xs[k], xs[k + 1]) for k in range(3)]
        else:
            boxes = [(ys[k], ys[k + 1], xs[0], xs[1]) for k in range(3)]
        (side0_l, mid_l, side1_l), (side0_g, mid_g, side1_g) = (
            [rect_sum(table, *box) for box in boxes] for table in tables)
        side_l = side0_l + side1_l
        side_g = side0_g + side1_g
        area = lw * lw
        score = (cfg.luma_weight * (mid_l / area - side_l / (2 * area))
                 + cfg.green_weight * (side_g / (2 * area) - mid_g / area))
        values[i, j0:j1 + 1] = np.maximum(score, 0.0)
    return values


def nms(values: np.ndarray, direction: str, cfg: VisionConfig) -> np.ndarray:
    """1-D non-maximum suppression along the pass's scan direction.

    Keeps sites of a line_response_pass score map at or above nms_threshold
    that beat every neighbor within nms_radius; on plateaus the first site in
    scan order wins. Returns (N, 2) full-resolution pixel coordinates (x, y).
    """
    if direction == HORIZONTAL:
        keep = _nms_1d(values, cfg.nms_radius, cfg.nms_threshold)
    else:
        keep = _nms_1d(values.T, cfg.nms_radius, cfg.nms_threshold).T
    rows, cols = np.nonzero(keep)
    return np.column_stack([cols * cfg.decimation, rows * cfg.decimation]).astype(float)


def _nms_1d(v: np.ndarray, radius: int, threshold: float) -> np.ndarray:
    """Row-wise local maxima: strictly greater than earlier neighbors' scores
    is not required, but later ties are claimed by the earlier site."""
    keep = v >= threshold
    for off in range(1, radius + 1):
        left = np.zeros_like(v)
        left[:, off:] = v[:, :-off]
        right = np.zeros_like(v)
        right[:, :-off] = v[:, off:]
        keep &= v > left          # strictly beat earlier sites
        keep &= v >= right        # allow ties with later sites (first wins)
    return keep


def hough_segments(points, cfg: VisionConfig, rng) -> list[LineSegment]:
    """Progressive probabilistic Hough transform over candidate points.

    Points are visited in an order drawn from rng; each visited point votes
    one (hough_rho, hough_theta) sinusoid into the accumulator. When a bin on
    the voted curve reaches hough_votes, the points within join_dist of that
    line are walked along it (bridging gaps up to max_gap); a run of at least
    min_length is emitted as a segment, and the walked points are removed
    and un-voted.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return []
    rho, votes, max_gap, join_dist = cfg.hough_rho, cfg.hough_votes, cfg.max_gap, cfg.join_dist
    # rho = x cos t + y sin t is bounded by the largest point radius
    max_rho = float(np.hypot(pts[:, 0], pts[:, 1]).max()) + 1.0
    # sized before anything is allocated; an infinite bin count overflows
    try:
        n_rho = int(2 * max_rho / rho) + 3
        cells = n_rho * math.ceil(math.pi / cfg.hough_theta)  # np.arange's length
    except OverflowError:
        cells = math.inf
    if cells > HOUGH_MAX_CELLS:
        raise MemoryError(f"Hough accumulator of {cells} cells exceeds {HOUGH_MAX_CELLS}")
    thetas = np.arange(0.0, math.pi, cfg.hough_theta)
    acc = np.zeros((n_rho, len(thetas)), dtype=np.int32)
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)

    def rho_bins(p):
        return np.rint((p[0] * cos_t + p[1] * sin_t + max_rho) / rho).astype(np.int64)

    alive = np.ones(len(pts), dtype=bool)
    voted = np.zeros(len(pts), dtype=bool)
    order = rng.permutation(len(pts))
    segments: list[LineSegment] = []
    for k in order:
        if not alive[k]:
            continue
        bins = rho_bins(pts[k])
        acc[bins, np.arange(len(thetas))] += 1
        voted[k] = True
        curve = acc[bins, np.arange(len(thetas))]
        best_t = int(np.argmax(curve))
        if curve[best_t] < votes:
            continue
        # walk the winning line: direction (-sin, cos), normal (cos, sin)
        n = np.array([cos_t[best_t], sin_t[best_t]])
        d = np.array([-sin_t[best_t], cos_t[best_t]])
        line_rho = float(pts[k] @ n)
        near = alive & (np.abs(pts @ n - line_rho) <= join_dist)
        idx = np.flatnonzero(near)
        s = pts[idx] @ d
        order_s = np.argsort(s, kind="stable")
        idx = idx[order_s]
        s = s[order_s]
        anchor = int(np.searchsorted(s, float(pts[k] @ d)))
        anchor = min(anchor, len(s) - 1)
        lo = anchor
        while lo > 0 and s[lo] - s[lo - 1] <= max_gap:
            lo -= 1
        hi = anchor
        while hi < len(s) - 1 and s[hi + 1] - s[hi] <= max_gap:
            hi += 1
        run = idx[lo:hi + 1]
        p_start = pts[run[0]]
        p_end = pts[run[-1]]
        length = math.hypot(*(p_end - p_start))
        if length >= cfg.min_length:
            segments.append(LineSegment(tuple(p_start), tuple(p_end)))
        # consume the walked run either way so it is not revisited
        was_voted = run[voted[run]]
        for j in was_voted:
            acc[rho_bins(pts[j]), np.arange(len(thetas))] -= 1
            voted[j] = False
        alive[run] = False
    return segments


def _segments_mergeable(a: LineSegment, b: LineSegment, angle_tol: float,
                        dist_tol: float) -> bool:
    if axial_diff(a.direction, b.direction) > angle_tol:
        return False
    d = max(a.point_line_distance(b.p0), a.point_line_distance(b.p1),
            b.point_line_distance(a.p0), b.point_line_distance(a.p1))
    return d <= dist_tol


def _merge_group(group: list[LineSegment]) -> LineSegment:
    """Length-weighted line fit through a group, spanning all endpoints."""
    weights = np.array([s.length for s in group])
    # axial mean direction via angle doubling
    angles = np.array([s.direction for s in group])
    vx = float(np.sum(weights * np.cos(2 * angles)))
    vy = float(np.sum(weights * np.sin(2 * angles)))
    ang = 0.5 * math.atan2(vy, vx) % math.pi
    ux, uy = math.cos(ang), math.sin(ang)
    mids = np.array([s.midpoint for s in group])
    cx, cy = np.average(mids, axis=0, weights=weights)
    ends = np.array([p for s in group for p in (s.p0, s.p1)])
    t = (ends[:, 0] - cx) * ux + (ends[:, 1] - cy) * uy
    t0, t1 = float(t.min()), float(t.max())
    return LineSegment((cx + t0 * ux, cy + t0 * uy), (cx + t1 * ux, cy + t1 * uy))


def merge_segments(segs, angle_tol: float, dist_tol: float) -> list[LineSegment]:
    """Join near-collinear segments into covering lines; repeats to a fixpoint."""
    current = list(segs)
    while True:
        n = len(current)
        if n <= 1:
            return current
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n)
                 if _segments_mergeable(current[i], current[j], angle_tol, dist_tol))
        merged = [_merge_group([current[i] for i in g]) if len(g) > 1 else current[g[0]]
                  for g in connected_components(n, pairs)]
        if len(merged) == n:
            return merged
        current = merged


def detect_corners(lines, angle_tol: float, extend_tol: float,
                   end_slack: float) -> list[CornerObservation]:
    """Right-angle junctions between line pairs.

    Each line contributes an arm per side extending at least extend_tol past
    the intersection; a junction emits one observation per arm pair, which
    yields the 1/2/4 multiplicity for L, T and X junctions.
    """
    out: list[CornerObservation] = []
    lines = list(lines)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            if abs(axial_diff(a.direction, b.direction) - math.pi / 2) > angle_tol:
                continue
            x = line_intersection(a.p0, a.unit, b.p0, b.unit)
            if x is None:
                continue
            arms_a = _arms(a, x, extend_tol, end_slack)
            arms_b = _arms(b, x, extend_tol, end_slack)
            if arms_a is None or arms_b is None:
                continue
            for ua in arms_a:
                for ub in arms_b:
                    out.append(CornerObservation(position=x, dir_a=ua, dir_b=ub))
    return out


def _arms(seg: LineSegment, x, extend_tol: float, end_slack: float):
    """Arm directions of seg at intersection x, or None if x misses the segment."""
    ux, uy = seg.unit
    t0 = (seg.p0[0] - x[0]) * ux + (seg.p0[1] - x[1]) * uy
    t1 = (seg.p1[0] - x[0]) * ux + (seg.p1[1] - x[1]) * uy
    lo, hi = min(t0, t1), max(t0, t1)
    if lo > end_slack or hi < -end_slack:
        return None  # intersection beyond the segment span
    arms = []
    if hi >= extend_tol:
        arms.append((ux, uy))
    if lo <= -extend_tol:
        arms.append((-ux, -uy))
    if not arms:
        return None
    return arms


def _crop_box(r: Raster, widths: np.ndarray, cfg: VisionConfig):
    """(y0, y1, x0, x1): the bounding box of the raster's nonzero pixels,
    padded, with its origin on the decimated site grid.

    A window's pixels lie within 2 lw of its site. With a pad of twice that,
    a window that crosses the crop's edge covers only zero pixels, so it
    scores 0 on the crop and on the whole raster alike; (nms_radius + 1)
    sites more keep NMS's neighbours of scoring sites inside the crop. An
    all-zero raster gives an empty box.
    """
    nonzero = (r.luma | r.green) != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if len(rows) == 0:
        return 0, 0, 0, 0
    cols = np.flatnonzero(nonzero.any(axis=0))
    d = cfg.decimation
    pad = 2 * (2 * int(widths.max())) + (cfg.nms_radius + 1) * d
    y0 = max(rows[0] - pad, 0) // d * d
    x0 = max(cols[0] - pad, 0) // d * d
    return y0, min(rows[-1] + 1 + pad, r.height), x0, min(cols[-1] + 1 + pad, r.width)


def detect_lines(r: Raster, width_map, cfg: VisionConfig = VisionConfig()):
    """Full pipeline: both passes, NMS, Hough, merge, corners.

    Returns (lines, corners); each physical line appears once in the line
    list and additionally contributes corner observations where it crosses
    another near 90 degrees. The passes and NMS run on _crop_box's crop,
    whose origin is added back to the candidates, so the Hough transform
    sees the same points, in the same order, as on the whole raster.
    """
    rng = np.random.default_rng(cfg.seed)
    widths = _width_map_as_array(width_map, r.height)
    y0, y1, x0, x1 = _crop_box(r, widths, cfg)
    tables = (integral_image(r.luma[y0:y1, x0:x1]), integral_image(r.green[y0:y1, x0:x1]))
    origin = np.array([x0, y0], dtype=float)
    segments: list[LineSegment] = []
    for direction in (HORIZONTAL, VERTICAL):
        values = line_response_pass(tables, direction, widths[y0:y1], cfg)
        segments.extend(hough_segments(nms(values, direction, cfg) + origin, cfg, rng))
    lines = merge_segments(segments, cfg.merge_angle_tol, cfg.merge_dist_tol)
    lines = [s for s in lines if s.length >= cfg.min_length]
    corners = detect_corners(lines, cfg.corner_angle_tol, cfg.corner_extend_tol,
                             cfg.corner_end_slack)
    return lines, corners
