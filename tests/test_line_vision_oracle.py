"""The whole-grid line response pass against the row loop it replaced.

`integral_image` and `line_response_pass` below are the earlier
implementation, kept verbatim as an independent oracle: one Python
iteration per site row, six rectangle sums gathered per iteration. The
vectorized pass evaluates the same int64 box sums and the same score
expression, so its heatmaps must match the oracle's bit for bit.
"""

import numpy as np
import pytest

from fieldkit import line_vision
from fieldkit.birdview import BirdviewSpec, CameraExtrinsics, CameraIntrinsics, birdview_transform
from fieldkit.errors import InputError
from fieldkit.field_model import FieldSpec
from fieldkit.line_vision import (
    HORIZONTAL,
    VERTICAL,
    VisionConfig,
    _width_map_as_array,
    detect_lines,
    rect_sum,
)
from fieldkit.raster import Raster
from fieldkit.synth import GRASS_GREEN, GRASS_LUMA, Scene, render_birdview, render_field


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


# --- bit identity ----------------------------------------------------------------

SIZES = [(480, 640), (240, 320), (37, 53)]
WIDTHS = [1, 2, 4, 5, 30, "linspace"]


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
    width_map = np.linspace(2, 9, shape[0]) if width == "linspace" else width
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
    for channel in (rng.integers(0, 256, (37, 53), dtype=np.uint8),
                    rng.integers(0, 2, (48, 31)).astype(bool),
                    np.full((480, 640), 255, np.uint8)):
        got = line_vision.integral_image(channel)
        want = integral_image(channel)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


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
