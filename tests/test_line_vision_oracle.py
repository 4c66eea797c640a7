"""The line-vision stages against the implementations they replaced.

`integral_image` and `line_response_pass` below are the earlier
implementation, kept verbatim as an independent oracle: one Python
iteration per site row, six rectangle sums gathered per iteration. The
vectorized pass evaluates the same box sums and the same score expression,
so its heatmaps must match the oracle's bit for bit.

`hough_segments` below is the earlier transform, kept verbatim: each
visited point computes its curve's bins alone, votes them into an
(n_rho, n_theta) accumulator, and a walked run is un-voted one point at a
time. The library computes the curves of a block of the visiting order at
once, on a flat accumulator, so its segments, and the random numbers it
draws, must be equal.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from fieldkit import line_vision
from fieldkit.birdview import BirdviewSpec, CameraExtrinsics, CameraIntrinsics, birdview_transform
from fieldkit.errors import InputError
from fieldkit.field_model import FieldSpec
from fieldkit.line_vision import (
    HORIZONTAL,
    HOUGH_MAX_CELLS,
    VERTICAL,
    LineSegment,
    VisionConfig,
    _width_map_as_array,
    detect_lines,
    rect_sum,
)
from fieldkit.raster import Raster
from fieldkit.synth import GRASS_GREEN, GRASS_LUMA, Scene, render_birdview, render_field

ROOT = Path(__file__).resolve().parents[1]


# --- oracle: the row loop, verbatim --------------------------------------------

def integral_image(channel: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: table[y, x] = sum over [0,y) x [0,x)."""
    c = np.asarray(channel, dtype=np.int64)
    out = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(c, axis=0), axis=1, out=out[1:, 1:])
    return out


def line_response_pass(r: Raster, direction: str, width_map, decimation: int,
                       luma_weight: float = 1.0, green_weight: float = 1.0) -> np.ndarray:
    """Three-rectangle sliding-window score: bright middle, dark green sides.

    The middle rectangle width follows the expected line width for the image
    row; the side rectangles are the same size and adjacent. Scores clip at 0.
    """
    if direction not in (HORIZONTAL, VERTICAL):
        raise InputError(f"unknown pass direction {direction!r}")
    h, w = r.luma.shape
    wm = _width_map_as_array(width_map, h)
    it_l = integral_image(r.luma)
    it_g = integral_image(r.green)
    rows = np.arange(0, h, decimation)
    cols = np.arange(0, w, decimation)
    values = np.zeros((len(rows), len(cols)))
    for i, row in enumerate(rows):
        lw = int(wm[row])
        half = lw // 2
        if direction == HORIZONTAL:
            # window slides along x: [left][mid][right], each lw wide, lw tall
            y0, y1 = row - half, row - half + lw
            if y0 < 0 or y1 > h:
                continue
            x_mid0 = cols - half
            x_mid1 = x_mid0 + lw
            x_l0 = x_mid0 - lw
            x_r1 = x_mid1 + lw
            ok = (x_l0 >= 0) & (x_r1 <= w)
            if not ok.any():
                continue
            area = lw * lw
            mid_l = rect_sum(it_l, y0, y1, np.where(ok, x_mid0, 0), np.where(ok, x_mid1, 0))
            side_l = (rect_sum(it_l, y0, y1, np.where(ok, x_l0, 0), np.where(ok, x_mid0, 0))
                      + rect_sum(it_l, y0, y1, np.where(ok, x_mid1, 0), np.where(ok, x_r1, 0)))
            mid_g = rect_sum(it_g, y0, y1, np.where(ok, x_mid0, 0), np.where(ok, x_mid1, 0))
            side_g = (rect_sum(it_g, y0, y1, np.where(ok, x_l0, 0), np.where(ok, x_mid0, 0))
                      + rect_sum(it_g, y0, y1, np.where(ok, x_mid1, 0), np.where(ok, x_r1, 0)))
        else:
            # window slides along y: [above][mid][below] stacked, lw tall, lw wide
            y_mid0 = row - half
            y_mid1 = y_mid0 + lw
            y_a0 = y_mid0 - lw
            y_b1 = y_mid1 + lw
            if y_a0 < 0 or y_b1 > h:
                continue
            x0 = cols - half
            x1 = x0 + lw
            ok = (x0 >= 0) & (x1 <= w)
            if not ok.any():
                continue
            area = lw * lw
            xs0 = np.where(ok, x0, 0)
            xs1 = np.where(ok, x1, 0)
            mid_l = rect_sum(it_l, y_mid0, y_mid1, xs0, xs1)
            side_l = (rect_sum(it_l, y_a0, y_mid0, xs0, xs1)
                      + rect_sum(it_l, y_mid1, y_b1, xs0, xs1))
            mid_g = rect_sum(it_g, y_mid0, y_mid1, xs0, xs1)
            side_g = (rect_sum(it_g, y_a0, y_mid0, xs0, xs1)
                      + rect_sum(it_g, y_mid1, y_b1, xs0, xs1))
        score = (luma_weight * (mid_l / area - side_l / (2 * area))
                 + green_weight * (side_g / (2 * area) - mid_g / area))
        values[i] = np.where(ok, np.maximum(score, 0.0), 0.0)
    return values


# --- oracle: the per-point Hough transform, verbatim ------------------------------

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


# --- bit identity ----------------------------------------------------------------

SIZES = [(480, 640), (240, 320), (37, 53)]
WIDTHS = [1, 2, 4, 5, 30, "linspace", "random"]


def random_raster(shape, seed):
    rng = np.random.default_rng(seed)
    return Raster(rng.integers(0, 256, shape, dtype=np.uint8),
                  rng.integers(0, 256, shape, dtype=np.uint8))


@pytest.mark.parametrize("shape", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_pass_equals_row_loop(shape, width, direction):
    r = random_raster(shape, seed=shape[0] + shape[1])
    tables = (line_vision.integral_image(r.luma), line_vision.integral_image(r.green))
    if width == "linspace":
        width_map = np.linspace(2, 9, shape[0])
    elif width == "random":  # runs of one width as short as one site row
        width_map = np.random.default_rng(shape[1]).integers(1, 9, shape[0])
    else:
        width_map = width
    for decimation in (1, 2, 3, 4):
        for weights in ((1.0, 1.0), (1.3, 0.7)):
            want = line_response_pass(r, direction, width_map, decimation, *weights)
            cfg = VisionConfig(decimation=decimation, luma_weight=weights[0],
                               green_weight=weights[1])
            got = line_vision.line_response_pass(tables, direction, width_map, cfg)
            assert got.shape == want.shape
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (decimation, weights)
            if width == 30 and shape == (37, 53):
                assert not got.any()  # no window fits the raster
            else:
                assert got.any()


def test_unknown_direction_rejected():
    with pytest.raises(InputError):
        r = random_raster((8, 8), 0)
        tables = (line_vision.integral_image(r.luma), line_vision.integral_image(r.green))
        line_vision.line_response_pass(tables, "diagonal", 2, VisionConfig(decimation=1))


def test_integral_image_matches_oracle():
    rng = np.random.default_rng(3)
    for channel, dtype in ((rng.integers(0, 256, (37, 53), dtype=np.uint8), np.int32),
                           (rng.integers(0, 2, (48, 31)).astype(bool), np.int32),
                           (np.full((480, 640), 255, np.uint8), np.int32),
                           (np.full((300, 200), 65535, np.uint16), np.int64),
                           (rng.integers(-128, 128, (19, 23), dtype=np.int8), np.int64)):
        got = line_vision.integral_image(channel)
        want = integral_image(channel)
        assert got.dtype == dtype
        assert np.array_equal(got, want)


# 8,421,504 * 255 = 2**31 - 128 and 8,421,505 * 255 = 2**31 + 127
BELOW = (128, 65793)
ABOVE = (5, 1684301)


@pytest.mark.parametrize("shape, dtype", [(BELOW, np.int32), (ABOVE, np.int64)],
                         ids=["below", "above"])
def test_integral_image_dtype_at_the_int32_limit(shape, dtype):
    channel = np.full(shape, 255, np.uint8)
    table = line_vision.integral_image(channel)
    assert table.dtype == dtype
    assert int(table[-1, -1]) == channel.size * 255
    # the last row and column count every pixel before them
    assert np.array_equal(table[-1], np.arange(shape[1] + 1, dtype=np.int64) * shape[0] * 255)
    assert np.array_equal(table[:, -1], np.arange(shape[0] + 1, dtype=np.int64) * shape[1] * 255)


def test_rect_sum_exact_near_the_int32_limit():
    h, w = BELOW
    table = line_vision.integral_image(np.full(BELOW, 255, np.uint8))
    assert table.dtype == np.int32
    assert rect_sum(table, 0, h, 0, w) == h * w * 255 == 2**31 - 128
    rng = np.random.default_rng(7)
    y = np.sort(rng.integers(0, h + 1, (2, 500)), axis=0)
    x = np.sort(rng.integers(0, w + 1, (2, 500)), axis=0)
    # large boxes, whose corners hold the largest entries, and empty ones
    y[:, :100] = [[0] * 100, [h] * 100]
    x[:, 50:150] = [[0] * 100, [w] * 100]
    y[1, 450:] = y[0, 450:]
    got = rect_sum(table, y[0], y[1], x[0], x[1])
    assert got.dtype == np.int32
    assert np.array_equal(got, (y[1] - y[0]) * (x[1] - x[0]) * 255)
    # column bounds given as slices, as the response pass passes them
    got = rect_sum(table, 1, h, slice(0, w - 40, 8), slice(40, w, 8))
    assert np.array_equal(got, np.full(len(range(0, w - 40, 8)), (h - 1) * 40 * 255))


def test_detect_lines_per_row_width_map_matches_row_loop(monkeypatch):
    spec = FieldSpec()
    bspec = BirdviewSpec(out_width=320, out_height=240, meters_per_pixel=0.015,
                         view_center=(0.0, 2.0))
    cfg = VisionConfig(decimation=2, min_length=35.0, max_gap=10.0, hough_votes=8)
    width_px = spec.line_width / bspec.meters_per_pixel
    img = render_birdview(Scene(field=spec, noise_sigma=6.0, seed=2), bspec)
    # wider lines toward the bottom of the image, as a perspective birdview has
    width_map = np.linspace(width_px - 1.5, width_px + 2.5, img.height)
    assert len(np.unique(_width_map_as_array(width_map, img.height))) > 2
    got = detect_lines(img, width_map, cfg)
    # the oracle builds its own integral images from the raster and ignores
    # the tables detect_lines shares between the two passes
    monkeypatch.setattr(line_vision, "line_response_pass",
                        lambda tables, direction, width_map, cfg: line_response_pass(
                            img, direction, width_map, cfg.decimation,
                            cfg.luma_weight, cfg.green_weight))
    want = detect_lines(img, width_map, cfg)
    assert len(want[0]) >= 2 and len(want[1]) >= 1
    assert got == want


# --- the crop against the whole raster ----------------------------------------------

def detect_lines_uncropped(r: Raster, width_map, cfg: VisionConfig):
    """detect_lines before the crop, verbatim: both passes and NMS run on
    the whole raster."""
    rng = np.random.default_rng(cfg.seed)
    tables = (line_vision.integral_image(r.luma), line_vision.integral_image(r.green))
    segments = []
    for direction in (HORIZONTAL, VERTICAL):
        values = line_vision.line_response_pass(tables, direction, width_map, cfg)
        segments.extend(line_vision.hough_segments(line_vision.nms(values, direction, cfg),
                                                   cfg, rng))
    lines = line_vision.merge_segments(segments, cfg.merge_angle_tol, cfg.merge_dist_tol)
    lines = [s for s in lines if s.length >= cfg.min_length]
    corners = line_vision.detect_corners(lines, cfg.corner_angle_tol, cfg.corner_extend_tol,
                                         cfg.corner_end_slack)
    return lines, corners


def assert_crop_matches(monkeypatch, r, width_map, cfg):
    """detect_lines equals the uncropped oracle, and its Hough transform is
    handed the same candidate points, in the same order; returns how many."""
    seen = []
    hough = line_vision.hough_segments

    def recording(points, cfg, rng):
        seen.append(np.array(points))
        return hough(points, cfg, rng)

    monkeypatch.setattr(line_vision, "hough_segments", recording)
    got = detect_lines(r, width_map, cfg)
    got_points, seen[:] = seen[:], []
    want = detect_lines_uncropped(r, width_map, cfg)
    assert len(got_points) == len(seen) == 2
    for a, b in zip(got_points, seen):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got == want
    return sum(len(p) for p in seen), got


def bordered_raster(rng, shape, borders):
    """Grass crossed by three white lines, with noise, inside zero borders
    (top, bottom, left, right) wide; every pixel inside them is nonzero."""
    h, w = shape
    top, bottom, left, right = borders
    bh, bw = h - top - bottom, w - left - right
    yy, xx = np.mgrid[0:bh, 0:bw]
    on = np.zeros((bh, bw), bool)
    for _ in range(3):
        a = rng.uniform(0.0, np.pi)
        px, py = rng.uniform(0, bw), rng.uniform(0, bh)
        on |= np.abs((xx - px) * np.sin(a) - (yy - py) * np.cos(a)) <= rng.uniform(1.0, 3.0)
    noise = rng.integers(-8, 9, (bh, bw))
    luma = np.zeros(shape, np.uint8)
    green = np.zeros(shape, np.uint8)
    box = (slice(top, h - bottom), slice(left, w - right))
    luma[box] = np.clip(np.where(on, 230, GRASS_LUMA) + noise, 1, 255)
    green[box] = np.clip(np.where(on, 0, GRASS_GREEN) + noise, 0, 255)
    return Raster(luma, green)


def crop_config(seed):
    """decimation 1-4 and nms_radius 1-3, all twelve pairs over twelve seeds;
    low thresholds make candidates of the faint scores at the box's edges."""
    return VisionConfig(decimation=1 + seed % 4, nms_radius=1 + (seed // 4) % 3,
                        nms_threshold=(25.0, 2.0, 0.0)[seed % 3], hough_votes=6,
                        min_length=15.0, max_gap=6.0, seed=seed)


def random_width_map(rng, height):
    if rng.random() < 0.5:
        return int(rng.integers(1, 8))
    return np.linspace(rng.uniform(1.0, 4.0), rng.uniform(3.0, 8.0), height)


@pytest.mark.parametrize("seed", range(24))
def test_crop_matches_uncropped_on_bordered_rasters(monkeypatch, seed):
    rng = np.random.default_rng(100 + seed)
    shape = (int(rng.integers(40, 121)), int(rng.integers(40, 161)))
    # each border is absent (nonzero pixels touch that edge) or up to a
    # third of the raster wide
    borders = [0 if rng.random() < 0.3 else int(rng.integers(1, shape[k // 2] // 3))
               for k in range(4)]
    r = bordered_raster(rng, shape, borders)
    candidates, _ = assert_crop_matches(monkeypatch, r, random_width_map(rng, shape[0]),
                                        crop_config(seed))
    assert candidates > 0


@pytest.mark.parametrize("edge", range(4), ids=["top", "bottom", "left", "right"])
@pytest.mark.parametrize("seed", range(3))
def test_crop_matches_uncropped_when_touching_an_edge(monkeypatch, edge, seed):
    rng = np.random.default_rng(200 + seed)
    borders = [45] * 4
    borders[edge] = 0
    r = bordered_raster(rng, (150, 170), borders)
    candidates, _ = assert_crop_matches(monkeypatch, r, random_width_map(rng, 150),
                                        crop_config(seed + 4 * edge))
    assert candidates > 0


@pytest.mark.parametrize("seed", range(12))
def test_crop_matches_uncropped_on_sparse_rasters(monkeypatch, seed):
    rng = np.random.default_rng(300 + seed)
    shape = (int(rng.integers(20, 80)), int(rng.integers(20, 80)))
    luma = np.zeros(shape, np.uint8)
    green = np.zeros(shape, np.uint8)
    if seed % 3:  # one nonzero pixel, at a corner or anywhere; else all zero
        y, x = ((0, 0), (shape[0] - 1, shape[1] - 1), (0, shape[1] - 1), (shape[0] - 1, 0),
                (int(rng.integers(shape[0])), int(rng.integers(shape[1]))))[seed % 5]
        (luma if seed % 2 else green)[y, x] = 255
    candidates, got = assert_crop_matches(monkeypatch, Raster(luma, green),
                                          random_width_map(rng, shape[0]), crop_config(seed))
    if seed % 3 == 0:
        assert candidates == 0 and got == ([], [])


@pytest.mark.parametrize("pan, tilt", [(0.0, 0.75), (-0.6, 0.65), (0.9, 0.85)])
def test_crop_matches_uncropped_on_camera_birdviews(monkeypatch, pan, tilt):
    # the benchmark's head camera, 0.7 m up, seen through a 1 cm birdview of
    # which only the ground footprint is nonzero
    intr = CameraIntrinsics(fx=260.0, fy=260.0, cx=159.5, cy=119.5, width=320, height=240,
                            k1=-0.3, k2=0.1)
    robot = (1.2, -0.4, 0.3)
    world = CameraExtrinsics(position=(robot[0], robot[1], 0.7), rpy=(0.0, tilt, robot[2] + pan))
    image = render_field(Scene(field=FieldSpec(), noise_sigma=4.0, seed=7), intr, world)
    reach = 0.7 / np.tan(tilt) + 0.85
    spec = BirdviewSpec(view_center=(reach * np.cos(pan), reach * np.sin(pan)), view_yaw=pan)
    head = CameraExtrinsics(position=(0.0, 0.0, 0.7), rpy=(0.0, tilt, pan))
    bird = birdview_transform(image, head, intr, spec)
    y0, y1, x0, x1 = line_vision._crop_box(bird, _width_map_as_array(5, bird.height),
                                           VisionConfig(decimation=2))
    assert (y1 - y0) * (x1 - x0) < 0.8 * bird.luma.size
    for width_map in (5, np.linspace(4.0, 7.0, bird.height)):
        for decimation in (1, 2, 4):
            _, (lines, _) = assert_crop_matches(monkeypatch, bird, width_map,
                                                VisionConfig(decimation=decimation))
            assert lines


def test_crop_box_pads_and_aligns():
    luma = np.zeros((100, 120), np.uint8)
    luma[40:45, 50:61] = 9
    r = Raster(luma, np.zeros_like(luma))
    cfg = VisionConfig(decimation=4, nms_radius=2)
    # pad 2 * (2 * 3) + (2 + 1) * 4 = 24; origins 16 and 26 round down to 16 and 24
    assert line_vision._crop_box(r, np.full(100, 3), cfg) == (16, 69, 24, 85)
    assert line_vision._crop_box(Raster(np.zeros_like(luma), np.zeros_like(luma)),
                                 np.full(100, 3), cfg) == (0, 0, 0, 0)
    assert line_vision._crop_box(r, np.full(100, 30), cfg) == (0, 100, 0, 120)


# --- the Hough transform against the per-point oracle ---------------------------------

def assert_hough_matches(points, cfg, seed=None, state=None):
    """hough_segments equals the oracle on points, and leaves its generator
    (seeded, or set to a bit generator state) in the same state; returns the
    segments."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    if state is not None:
        rng_got.bit_generator.state = rng_want.bit_generator.state = state
    got = line_vision.hough_segments(points, cfg, rng_got)
    want = hough_segments(points, cfg, rng_want)
    assert got == want
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got


@pytest.fixture(scope="module")
def workload_candidates():
    """The Hough inputs of detect_lines on head_scan's and match_frames'
    camera frames, seeds 1 and 2, built read-only through perfbench's
    workloads: (points, generator state) per call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
    calls = []
    hough = line_vision.hough_segments

    def recording(points, cfg, rng):
        calls.append((np.array(points), rng.bit_generator.state))
        return hough(points, cfg, rng)

    for name in ("head_scan", "match_frames"):
        wl = workloads.build(name)
        for seed in (1, 2):
            inputs, jobs = wl.make_inputs(seed)
            for job in jobs:
                if job[0] != "camera":
                    continue
                j, rendered = wl.render(job)
                frame = inputs["frames"][j]
                camera, spec = workloads._head_camera(frame["pan"] + wl.drift(j), frame["tilt"])
                bird = birdview_transform(rendered["image"], camera, workloads.HEAD_INTRINSICS,
                                          spec)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(line_vision, "hough_segments", recording)
                    line_vision.detect_lines(bird, workloads.LINE_WIDTH_PX, workloads.VISION)
    return workloads.VISION, calls


def test_hough_matches_oracle_on_workload_frames(workload_candidates):
    cfg, calls = workload_candidates
    assert len(calls) == 192
    found = sum(len(assert_hough_matches(points, cfg, state=state)) for points, state in calls)
    assert found > 2 * len(calls)


def collinear_points(rng, n_lines, per_line, noise, extent=200.0):
    """Points on random lines, rounded to whole pixels as NMS gives them,
    with some points repeated and some scattered; shuffled."""
    parts = []
    for _ in range(n_lines):
        p = rng.uniform(0.0, extent, 2)
        a = rng.uniform(0.0, math.pi)
        t = rng.uniform(-extent / 2, extent / 2, per_line)
        parts.append(p + t[:, None] * [math.cos(a), math.sin(a)])
    parts.append(rng.uniform(0.0, extent, (noise, 2)))
    pts = np.rint(np.concatenate(parts))
    pts = np.concatenate([pts, pts[rng.integers(0, len(pts), len(pts) // 5)]])
    return pts[rng.permutation(len(pts))]


HOUGH_CONFIGS = [
    VisionConfig(),
    VisionConfig(hough_votes=4, min_length=10.0, max_gap=8.0, join_dist=2.0),
    VisionConfig(hough_votes=3, min_length=5.0, max_gap=30.0, join_dist=5.0,
                 hough_rho=1.0, hough_theta=math.pi / 360),
    VisionConfig(hough_votes=6, hough_rho=3.5, hough_theta=0.05, max_gap=4.0),
]


@pytest.mark.parametrize("cfg", HOUGH_CONFIGS, ids=range(len(HOUGH_CONFIGS)))
@pytest.mark.parametrize("seed", range(8))
def test_hough_matches_oracle_on_collinear_sets(cfg, seed):
    rng = np.random.default_rng(400 + seed)
    pts = collinear_points(rng, n_lines=int(rng.integers(1, 6)),
                           per_line=int(rng.integers(10, 80)), noise=int(rng.integers(0, 60)))
    assert len(np.unique(pts, axis=0)) < len(pts)
    assert_hough_matches(pts, cfg, seed)


def test_hough_matches_oracle_on_degenerate_sets():
    cfg = VisionConfig(hough_votes=2, min_length=1.0)
    for pts in (np.zeros((1, 2)), np.full((40, 2), 7.0), [[0.0, 0.0], [0.0, 50.0]],
                np.column_stack([np.arange(60.0), np.zeros(60)]),
                np.column_stack([np.zeros(60), np.arange(60.0) * 3])):
        for seed in range(3):
            assert_hough_matches(np.asarray(pts, float), cfg, seed)


@pytest.mark.parametrize("seed", range(4))
def test_hough_matches_oracle_across_curve_blocks(monkeypatch, seed):
    # cap the accumulator at exactly this set's size, so that a block of
    # curves holds n_rho / 16 points and the set spans many blocks
    rng = np.random.default_rng(500 + seed)
    pts = collinear_points(rng, n_lines=4, per_line=60, noise=120, extent=100.0)
    cfg = VisionConfig(hough_votes=5, min_length=10.0, max_gap=10.0)
    max_rho = float(np.hypot(pts[:, 0], pts[:, 1]).max()) + 1.0
    n_rho = int(2 * max_rho / cfg.hough_rho) + 3
    n_theta = len(np.arange(0.0, math.pi, cfg.hough_theta))
    monkeypatch.setattr(line_vision, "HOUGH_MAX_CELLS", n_rho * n_theta)
    assert len(pts) > 3 * (n_rho // 16)
    assert len(assert_hough_matches(pts, cfg, seed)) >= 2
    # with no bin reaching its votes, every point is visited and voted
    assert assert_hough_matches(pts, VisionConfig(hough_votes=10**6), seed) == []


def test_hough_cap_still_refuses_before_allocating(monkeypatch):
    pts = np.array([[0.0, 0.0], [100.0, 0.0]])
    cfg = VisionConfig()
    n_rho = int(2 * 101.0 / cfg.hough_rho) + 3
    monkeypatch.setattr(line_vision, "HOUGH_MAX_CELLS", n_rho * 180 - 1)
    with pytest.raises(MemoryError):
        line_vision.hough_segments(pts, cfg, np.random.default_rng(0))
    monkeypatch.setattr(line_vision, "HOUGH_MAX_CELLS", n_rho * 180)
    assert_hough_matches(pts, cfg, 0)


@pytest.mark.parametrize("seed", range(8))
def test_hough_unvotes_runs_longer_than_a_block(monkeypatch, seed):
    # two runs on one row, farther apart than max_gap, that share the row's
    # cell: once one is walked, the other reaches hough_votes only if the
    # walked run's votes all left the accumulator, and those span blocks
    cfg = VisionConfig(hough_rho=4.0, hough_votes=80)
    pts = np.column_stack([np.r_[0.0:150.0, 180.0:230.0], np.full(200, 20.0)])
    n_rho = int(2 * (math.hypot(229.0, 20.0) + 1.0) / cfg.hough_rho) + 3
    monkeypatch.setattr(line_vision, "HOUGH_MAX_CELLS", n_rho * 180)
    assert n_rho // 16 < 30
    segments = assert_hough_matches(pts, cfg, seed)
    assert any({s.p0, s.p1} == {(0.0, 20.0), (149.0, 20.0)} for s in segments)
