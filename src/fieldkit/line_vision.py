"""Field-line and corner detection.

Pipeline: a three-rectangle sliding window scores every (decimated) image
site in a horizontal and a vertical pass, producing two heatmaps; each pass
reads its box sums from rows and columns of two integral images (int32 when
every sum fits), one evaluation per run of site rows with one line width. 1-D
non-maximum suppression along each pass's scan direction keeps line-center
candidates; a seeded progressive probabilistic Hough transform turns the
candidates into segments, computing the accumulator cells of a block of
points at once; near-collinear segments are merged; pairs of merged lines
meeting near 90 degrees become corner observations (1 for an L junction, 2
for a T, 4 for an X).

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

# the most int32 cells (128 MiB) a Hough accumulator may take; a finer one is a
# MemoryError. It also sizes the blocks of curves hough_segments computes at
# once: at most HOUGH_MAX_CELLS / 16 cells, of 48 bytes each while computed
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
    """Summed-area table with a zero border: table[y, x] = sum over [0,y) x [0,x).

    The table is int32 when the channel is bool or unsigned and its size
    times its dtype's max is below 2**31, and int64 otherwise. The table of
    such a channel is monotone in y and x, so no entry, and no rect_sum with
    y0 <= y1 and x0 <= x1 on the way to it, leaves int32.
    """
    c = np.asarray(channel)
    dtype = np.int64
    if c.dtype.kind in "bu":
        top = 1 if c.dtype.kind == "b" else int(np.iinfo(c.dtype).max)
        if c.size * top < 2**31:
            dtype = np.int32
    out = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=dtype)
    # copied first: a cumsum that also casts runs at about half the speed
    out[1:, 1:] = c
    np.cumsum(out[1:, 1:], axis=0, out=out[1:, 1:])
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
    score of every site of the decimated grid.

    Each run of site rows with one line width lw is scored at once from
    the tables. The horizontal pass takes each site row's two boundary rows
    and subtracts them, which gives the sums of the lw-tall strip along that
    row; a site's three boxes are differences of that strip's sums at the
    four window edges, lw apart along the row. The vertical pass does the
    same with each site column's two boundary columns and window edges lw
    apart down the column. The rows and columns are gathered with take, so
    every arithmetic operation runs on contiguous arrays of one shape and
    dtype: broadcast, cast or strided operands go through numpy's iterator,
    and on Python 3.11 those crashed a thread while another thread started
    and stopped tracemalloc.
    """
    if direction not in (HORIZONTAL, VERTICAL):
        raise InputError(f"unknown pass direction {direction!r}")
    h, w = (n - 1 for n in tables[0].shape)
    d = cfg.decimation
    n_rows, n_cols = len(range(0, h, d)), len(range(0, w, d))
    widths = _width_map_as_array(width_map, h)[::d]
    values = np.zeros((n_rows, n_cols))

    # site rows [bounds[m], bounds[m + 1]) share one width
    bounds = np.flatnonzero(np.diff(widths, prepend=0, append=0)).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        lw = int(widths[a])
        half = lw // 2
        # window edges relative to the site: [side][mid][side] spans `along`
        # the scan direction, one lw-wide box spans `across` it
        along = (-half - lw, -half + 2 * lw)
        across = (-half, -half + lw)
        ry, rx = (across, along) if direction == HORIZONTAL else (along, across)
        # the sites whose window fits inside the table
        k0, k1 = max(a, -(ry[0] // d)), min(b - 1, (h - ry[1]) // d)
        j0, j1 = -(rx[0] // d), min(n_cols - 1, (w - rx[1]) // d)
        if k1 < k0 or j1 < j0:
            continue
        # strip sums, then the strip sums at the window's four edges along the
        # scan direction
        if direction == HORIZONTAL:
            ys = np.arange(k0, k1 + 1) * d + across[0]
            strips = [t.take(ys + lw, axis=0) - t.take(ys, axis=0) for t in tables]
            xs = np.arange(j0, j1 + 1) * d + along[0]
            edges = [[s.take(xs + m * lw, axis=1) for m in range(4)] for s in strips]
        else:
            xs = np.arange(j0, j1 + 1) * d + across[0]
            y = slice(k0 * d + along[0], k1 * d + along[1] + 1)
            strips = [t[y].take(xs + lw, axis=1) - t[y].take(xs, axis=1) for t in tables]
            ys = np.arange(k1 - k0 + 1) * d
            edges = [[s.take(ys + m * lw, axis=0) for m in range(4)] for s in strips]
        # the box sums as float64, which holds them exactly
        (mid_l, side_l), (mid_g, side_g) = (
            ((e2 - e1).astype(float), ((e1 - e0) + (e3 - e2)).astype(float))
            for e0, e1, e2, e3 in edges)
        area = lw * lw
        # cfg.luma_weight * (mid_l / area - side_l / (2 * area))
        #     + cfg.green_weight * (side_g / (2 * area) - mid_g / area),
        # evaluated in place in that order
        mid_l /= area
        side_l /= 2 * area
        mid_l -= side_l
        mid_l *= cfg.luma_weight
        side_g /= 2 * area
        mid_g /= area
        side_g -= mid_g
        side_g *= cfg.green_weight
        mid_l += side_g
        values[k0:k1 + 1, j0:j1 + 1] = np.maximum(mid_l, 0.0, out=mid_l)
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
    """Row-wise local maxima at or above threshold: a kept site scores
    strictly more than each earlier neighbor within radius and at least as
    much as each later one, so on a plateau the earliest site wins."""
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
    n_theta = len(thetas)
    acc = np.zeros(n_rho * n_theta, dtype=np.int32)  # cell (rho bin, theta), flat
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    # the curves of the points in visiting order, a block of points at a time;
    # cos_t, sin_t and the theta indices are repeated once per point of a
    # block, so that curves() runs on contiguous arrays of one length, as
    # line_response_pass does
    block = max(1, HOUGH_MAX_CELLS // (16 * n_theta))
    rows = min(block, len(pts))
    cos_rows, sin_rows = np.tile(cos_t, rows), np.tile(sin_t, rows)
    theta_rows = np.tile(np.arange(n_theta), rows)

    def curves(p):
        """The flat cell each of the points p votes for at each theta:
        rint((x cos t + y sin t + max_rho) / rho) * n_theta + t, one row per
        point."""
        size = len(p) * n_theta
        v = np.repeat(p[:, 0], n_theta)
        v *= cos_rows[:size]
        w = np.repeat(p[:, 1], n_theta)
        w *= sin_rows[:size]
        v += w
        v += max_rho
        v /= rho
        flat = np.rint(v, out=v).astype(np.intp)
        flat *= n_theta
        flat += theta_rows[:size]
        return flat.reshape(len(p), n_theta)

    alive = np.ones(len(pts), dtype=bool)
    voted = np.zeros(len(pts), dtype=bool)
    order = rng.permutation(len(pts))
    start = end = 0
    segments: list[LineSegment] = []
    for q, k in enumerate(order.tolist()):
        if not alive[k]:
            continue
        if q >= end:
            start, end = q, q + block
            block_curves = curves(pts[order[start:end]])
        curve_cells = block_curves[q - start]
        curve = acc[curve_cells]
        curve += 1
        acc[curve_cells] = curve
        voted[k] = True
        best_t = int(curve.argmax())
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
        for i in range(0, len(was_voted), block):
            for cells in curves(pts[was_voted[i:i + block]]):
                acc[cells] -= 1
        voted[was_voted] = False
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
