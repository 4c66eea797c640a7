import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fieldkit import line_vision
from fieldkit.birdview import BirdviewSpec
from fieldkit.errors import InputError
from fieldkit.field_model import FieldSpec
from fieldkit.line_vision import (
    HORIZONTAL,
    VERTICAL,
    LineSegment,
    VisionConfig,
    detect_corners,
    detect_lines,
    hough_segments,
    integral_image,
    line_response_pass,
    merge_segments,
    nms,
    rect_sum,
)
from fieldkit.raster import Raster
from fieldkit.synth import GRASS_GREEN, GRASS_LUMA, Scene, render_birdview


def flat_raster(luma, green, h=40, w=60):
    return Raster(np.full((h, w), luma, np.uint8), np.full((h, w), green, np.uint8))


def stripe_raster(center_col, width=5, h=64, w=96):
    """White vertical stripe on grass-colored background."""
    luma = np.full((h, w), GRASS_LUMA, np.uint8)
    green = np.full((h, w), GRASS_GREEN, np.uint8)
    lo = center_col - width // 2
    luma[:, lo:lo + width] = 255
    green[:, lo:lo + width] = 0
    return Raster(luma, green)


def tables_of(r):
    return integral_image(r.luma), integral_image(r.green)


# --- settings ------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    {"decimation": 0}, {"nms_radius": 0}, {"hough_votes": 0},
    {"hough_rho": 0.0}, {"hough_rho": math.inf}, {"hough_theta": 0.0}, {"hough_theta": 4.0},
    {"hough_theta": math.nan}, {"luma_weight": math.inf}, {"green_weight": -math.inf},
    {"nms_threshold": math.nan}, {"min_length": -1.0}, {"max_gap": math.nan},
    {"merge_angle_tol": math.inf}, {"corner_end_slack": -0.5},
], ids=str)
def test_vision_config_rejects_out_of_range_values(bad):
    with pytest.raises(InputError):
        VisionConfig(**bad)


def test_vision_config_accepts_range_ends():
    VisionConfig(hough_theta=math.pi, min_length=0.0, max_gap=0.0, nms_threshold=-5.0)


# --- integral image ----------------------------------------------------------

def test_integral_all_zero():
    assert not integral_image(np.zeros((5, 7), np.uint8)).any()


def test_integral_all_ones_full_rect():
    table = integral_image(np.ones((4, 4), np.uint8))
    assert rect_sum(table, 0, 4, 0, 4) == 16


def test_integral_random_rects_match_naive():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
    table = integral_image(img)
    for _ in range(100):
        y0, y1 = sorted(rng.integers(0, 33, 2))
        x0, x1 = sorted(rng.integers(0, 33, 2))
        assert rect_sum(table, y0, y1, x0, x1) == img[y0:y1, x0:x1].sum()


# --- sliding-window response -------------------------------------------------

def test_stripe_heatmap_peaks_on_centerline():
    r = stripe_raster(47, width=5)
    heat = line_response_pass(tables_of(r), HORIZONTAL, 5, VisionConfig(decimation=1))
    peak_cols = heat.argmax(axis=1)
    interior = peak_cols[10:-10]
    assert np.all(np.abs(interior - 47) <= 1)
    assert heat.max() > 200  # strong combined luma+green contrast


def test_uniform_image_scores_zero():
    r = flat_raster(120, 40)
    heat = line_response_pass(tables_of(r), HORIZONTAL, 5, VisionConfig(decimation=2))
    assert not heat.any()


def test_dark_stripe_clips_to_zero():
    # stripe darker than background: negative response clipped at 0
    luma = np.full((32, 48), 200, np.uint8)
    luma[:, 20:25] = 20
    r = Raster(luma, np.zeros_like(luma))
    heat = line_response_pass(tables_of(r), HORIZONTAL, 5, VisionConfig(decimation=1))
    assert heat[:, 20:25].max() == 0.0


def test_vertical_pass_finds_horizontal_stripe():
    luma = np.full((64, 96), GRASS_LUMA, np.uint8)
    green = np.full((64, 96), GRASS_GREEN, np.uint8)
    luma[30:35, :] = 255
    green[30:35, :] = 0
    heat = line_response_pass(tables_of(Raster(luma, green)), VERTICAL, 5,
                              VisionConfig(decimation=1))
    rows = heat.argmax(axis=0)
    assert np.all(np.abs(rows[10:-10] - 32) <= 1)


def test_pass_reads_the_tables_it_is_given():
    # the tables are all the pass sees: here, an all-white raster's
    white = flat_raster(255, 0, h=64, w=96)
    heat = line_response_pass(tables_of(white), HORIZONTAL, 5, VisionConfig(decimation=1))
    assert heat.shape == (64, 96)
    assert not heat.any()


# --- NMS ---------------------------------------------------------------------

def brute_force_nms(values, radius, threshold, axis):
    """Oracle: strictly greater than every neighbor within radius along axis."""
    v = values if axis == 1 else values.T
    keep = np.zeros_like(v, dtype=bool)
    n_rows, n_cols = v.shape
    for i in range(n_rows):
        for j in range(n_cols):
            if v[i, j] < threshold:
                continue
            lo = max(0, j - radius)
            hi = min(n_cols, j + radius + 1)
            neighborhood = np.delete(v[i, lo:hi], j - lo)
            if len(neighborhood) == 0 or v[i, j] > neighborhood.max():
                keep[i, j] = True
    return keep if axis == 1 else keep.T


def test_nms_single_peak():
    v = np.zeros((3, 11))
    v[1, 5] = 10.0
    pts = nms(v, HORIZONTAL, VisionConfig(decimation=4, nms_radius=2, nms_threshold=1.0))
    assert pts.tolist() == [[20.0, 4.0]]


def test_nms_plateau_first_in_scan_wins():
    v = np.zeros((1, 10))
    v[0, 4:7] = 5.0
    pts = nms(v, HORIZONTAL, VisionConfig(decimation=1, nms_radius=2, nms_threshold=1.0))
    assert len(pts) == 1 and pts[0].tolist() == [4.0, 0.0]


def test_nms_matches_brute_force_on_random_maps():
    rng = np.random.default_rng(42)
    for direction, axis in ((HORIZONTAL, 1), (VERTICAL, 0)):
        for _ in range(20):
            v = rng.random((12, 18)) * 10
            radius = int(rng.integers(1, 4))
            threshold = float(rng.uniform(0, 5))
            cfg = VisionConfig(decimation=2, nms_radius=radius, nms_threshold=threshold)
            got = {tuple(p) for p in nms(v, direction, cfg).tolist()}
            keep = brute_force_nms(v, radius, threshold, axis)
            expect = {(c * 2.0, r * 2.0) for r, c in zip(*np.nonzero(keep))}
            assert got == expect


# --- Hough -------------------------------------------------------------------

def test_hough_collinear_points_single_segment():
    t = np.arange(50, dtype=float) * 4
    pts = np.column_stack([10 + t * math.cos(0.4), 8 + t * math.sin(0.4)])
    segs = hough_segments(pts, VisionConfig(hough_votes=8, min_length=50, max_gap=10),
                          np.random.default_rng(0))
    assert len(segs) == 1
    seg = segs[0]
    ends = sorted([seg.p0, seg.p1])
    assert np.allclose(ends[0], pts[0], atol=2.0)
    assert np.allclose(ends[1], pts[-1], atol=2.0)


def test_hough_cross_gives_two_segments():
    t = np.arange(-24, 25, dtype=float) * 4
    horiz = np.column_stack([100 + t, np.full_like(t, 60.0)])
    vert = np.column_stack([np.full_like(t, 100.0), 60 + t])
    pts = np.vstack([horiz, vert])
    segs = hough_segments(pts, VisionConfig(hough_votes=8, min_length=80, max_gap=10),
                          np.random.default_rng(3))
    assert len(segs) == 2
    dirs = sorted(s.direction for s in segs)
    assert dirs[0] == pytest.approx(0.0, abs=0.05)
    assert dirs[1] == pytest.approx(math.pi / 2, abs=0.05)


def test_hough_empty_input():
    assert hough_segments(np.zeros((0, 2)), VisionConfig(), np.random.default_rng(0)) == []


def test_hough_deterministic_under_seed():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 200, (120, 2))
    cfg = VisionConfig(hough_votes=6, min_length=30, max_gap=15)
    a = hough_segments(pts.copy(), cfg, np.random.default_rng(5))
    b = hough_segments(pts.copy(), cfg, np.random.default_rng(5))
    assert a == b


# --- merging -----------------------------------------------------------------

def test_merge_collinear_abutting():
    a = LineSegment((0, 0), (50, 0))
    b = LineSegment((50, 0), (100, 0))
    out = merge_segments([a, b], math.radians(3), 3.0)
    assert len(out) == 1
    assert out[0].length == pytest.approx(100.0, abs=1e-6)


def test_merge_perpendicular_untouched():
    a = LineSegment((0, 0), (50, 0))
    b = LineSegment((20, -20), (20, 30))
    out = merge_segments([a, b], math.radians(3), 3.0)
    assert len(out) == 2


def test_merge_recovers_fragmented_lines():
    rng = np.random.default_rng(9)
    base = [
        ((10.0, 10.0), (200.0, 15.0)),
        ((30.0, 100.0), (220.0, 95.0)),
        ((120.0, 0.0), (125.0, 180.0)),
    ]
    pieces = []
    for (ax, ay), (bx, by) in base:
        cuts = np.sort(rng.uniform(0.05, 0.95, 5))
        ts = np.concatenate([[0.0], cuts, [1.0]])
        for t0, t1 in zip(ts[:-1], ts[1:]):
            if t1 - t0 < 0.03:
                continue
            p0 = (ax + t0 * (bx - ax), ay + t0 * (by - ay))
            p1 = (ax + t1 * (bx - ax), ay + t1 * (by - ay))
            pieces.append(LineSegment(p0, p1))
    rng.shuffle(pieces)
    merged = merge_segments(pieces, math.radians(3), 3.0)
    assert len(merged) == 3
    for (a, b) in base:
        full = LineSegment(a, b)
        match = min(merged, key=lambda s: s.point_line_distance(full.midpoint))
        assert match.point_line_distance(a) < 2.0
        assert match.point_line_distance(b) < 2.0
        assert abs(match.length - full.length) < 4.0


def test_merge_idempotent():
    rng = np.random.default_rng(31)
    segs = [LineSegment(tuple(rng.uniform(0, 100, 2)), tuple(rng.uniform(0, 100, 2)))
            for _ in range(12)]
    once = merge_segments(segs, math.radians(5), 4.0)
    twice = merge_segments(once, math.radians(5), 4.0)
    assert len(once) == len(twice)
    for a, b in zip(sorted(once, key=lambda s: s.p0), sorted(twice, key=lambda s: s.p0)):
        assert np.allclose(a.p0, b.p0, atol=1e-6) and np.allclose(a.p1, b.p1, atol=1e-6)


def test_merge_order_insensitive():
    rng = np.random.default_rng(77)
    segs = [LineSegment(tuple(rng.uniform(0, 100, 2)), tuple(rng.uniform(0, 100, 2)))
            for _ in range(15)]
    forward = merge_segments(segs, math.radians(5), 4.0)
    backward = merge_segments(segs[::-1], math.radians(5), 4.0)
    assert len(forward) == len(backward)
    fw = sorted(forward, key=lambda s: sorted([s.p0, s.p1])[0])
    bw = sorted(backward, key=lambda s: sorted([s.p0, s.p1])[0])
    for a, b in zip(fw, bw):
        ea = sorted([a.p0, a.p1])
        eb = sorted([b.p0, b.p1])
        assert np.allclose(ea, eb, atol=1e-6)


# --- corners -----------------------------------------------------------------

# angle tolerance, then how far arms must extend and ends may fall short (px)
TOLS = (math.radians(10), 6.0, 6.0)


def test_corner_multiplicity_l_t_x():
    # L: segments share an endpoint
    l = detect_corners([LineSegment((0, 0), (40, 0)), LineSegment((0, 0), (0, 40))], *TOLS)
    assert len(l) == 1
    # T: one segment ends on the middle of the other
    t = detect_corners([LineSegment((-40, 0), (40, 0)), LineSegment((0, 0), (0, 40))], *TOLS)
    assert len(t) == 2
    # X: both segments cross fully
    x = detect_corners([LineSegment((-40, 0), (40, 0)), LineSegment((0, -40), (0, 40))], *TOLS)
    assert len(x) == 4


def test_corner_requires_right_angle():
    slanted = detect_corners(
        [LineSegment((0, 0), (40, 0)), LineSegment((0, 0), (30, 30))], *TOLS)
    assert slanted == []


def test_corner_skips_distant_intersections():
    # infinite lines cross far outside both spans
    out = detect_corners(
        [LineSegment((0, 0), (40, 0)), LineSegment((100, 10), (100, 50))], *TOLS)
    assert out == []


def test_corner_arm_directions_point_away():
    obs = detect_corners([LineSegment((0, 0), (40, 0)), LineSegment((0, 0), (0, 40))],
                         *TOLS)[0]
    assert obs.position == pytest.approx((0.0, 0.0), abs=1e-9)
    dirs = sorted([obs.dir_a, obs.dir_b])
    assert np.allclose(dirs, [(0.0, 1.0), (1.0, 0.0)], atol=1e-9) or \
        np.allclose(dirs, [(1.0, 0.0), (0.0, 1.0)], atol=1e-9)


# --- end to end --------------------------------------------------------------

def birdview_setup(view_center, mpp=0.015, size=(320, 240), yaw=0.0):
    spec = FieldSpec()
    bspec = BirdviewSpec(out_width=size[0], out_height=size[1],
                         meters_per_pixel=mpp, view_center=view_center, view_yaw=yaw)
    cfg = VisionConfig(decimation=2, nms_threshold=25.0, min_length=35.0,
                       max_gap=10.0, hough_votes=8)
    width_px = spec.line_width / mpp
    return spec, bspec, cfg, width_px


def test_detect_lines_blank_image():
    r = flat_raster(GRASS_LUMA, GRASS_GREEN, h=120, w=160)
    lines, corners = detect_lines(r, width_map=4, cfg=VisionConfig(decimation=2))
    assert lines == [] and corners == []


@pytest.mark.parametrize("width_map", [
    math.nan, -math.inf, 1e300, [5.0] * 39 + [math.nan], np.array([4.0, 5.0, 6.0]),
    np.ones((40, 2)), "wide",
], ids=["nan", "-inf", "huge", "nan-row", "three-rows", "two-columns", "text"])
def test_detect_lines_rejects_bad_width_map(width_map):
    with pytest.raises(InputError, match="width_map"):
        detect_lines(stripe_raster(48, h=40), width_map, VisionConfig(decimation=2))


def test_detect_lines_builds_each_integral_image_once(monkeypatch):
    calls = []

    def counted(channel):
        calls.append(channel.shape)
        return integral_image(channel)

    monkeypatch.setattr(line_vision, "integral_image", counted)
    spec, bspec, cfg, width_px = birdview_setup(view_center=(0.0, 2.0))
    img = render_birdview(Scene(field=spec, noise_sigma=0.0), bspec)
    lines, _ = detect_lines(img, width_map=round(width_px), cfg=cfg)
    assert lines  # both passes ran on the shared tables
    assert calls == [img.luma.shape, img.green.shape]


def test_detect_lines_on_rendered_birdview():
    spec, bspec, cfg, width_px = birdview_setup(view_center=(0.0, 2.0))
    scene = Scene(field=spec, noise_sigma=0.0)
    img = render_birdview(scene, bspec)
    lines, corners = detect_lines(img, width_map=round(width_px), cfg=cfg)
    # visible ground truth: halfway line (x=0) and the top border (y=3)
    gt = [((0.0, 0.8), (0.0, 3.0)), ((-2.4, 3.0), (2.4, 3.0))]
    for a, b in gt:
        ac = np.array(bspec.field_to_pixel(*a))
        bc = np.array(bspec.field_to_pixel(*b))
        gt_dir = math.atan2(bc[1] - ac[1], bc[0] - ac[0]) % math.pi
        found = False
        for seg in lines:
            d_ang = abs(seg.direction - gt_dir)
            d_ang = min(d_ang, math.pi - d_ang)
            gt_seg = LineSegment(tuple(ac), tuple(bc))
            if d_ang <= math.radians(2.0) and \
               gt_seg.point_line_distance(seg.p0) <= 2.0 and \
               gt_seg.point_line_distance(seg.p1) <= 2.0:
                found = True
        assert found, f"line {a}-{b} not detected"
    # the halfway line meets the border in a T: at least 2 corners there
    tpos = np.array(bspec.field_to_pixel(0.0, 3.0))
    near_t = [c for c in corners if math.hypot(c.position[0] - tpos[0],
                                               c.position[1] - tpos[1]) < 6.0]
    assert len(near_t) == 2


def test_detect_penalty_area_corner():
    # view centered on the left penalty area's front-left corner: an L
    spec, bspec, cfg, width_px = birdview_setup(view_center=(-2.5, 2.0),
                                                size=(256, 192))
    scene = Scene(field=spec, noise_sigma=0.0)
    img = render_birdview(scene, bspec)
    lines, corners = detect_lines(img, width_map=round(width_px), cfg=cfg)
    corner_px = np.array(bspec.field_to_pixel(-2.5, 2.5))
    hits = [c for c in corners if math.hypot(c.position[0] - corner_px[0],
                                             c.position[1] - corner_px[1]) <= 5.0]
    assert len(hits) >= 1


def test_detect_lines_with_noise():
    spec, bspec, cfg, width_px = birdview_setup(view_center=(0.0, 2.0))
    scene = Scene(field=spec, noise_sigma=8.0, seed=5)
    img = render_birdview(scene, bspec)
    lines, _ = detect_lines(img, width_map=round(width_px), cfg=cfg)
    assert len(lines) >= 2


TOGGLED_TRACEMALLOC = textwrap.dedent("""
    import threading, time, tracemalloc
    import numpy as np
    from fieldkit import line_vision as lv
    rng = np.random.default_rng(0)
    luma = rng.integers(0, 256, (240, 320), dtype=np.uint8)
    tables = (lv.integral_image(luma), lv.integral_image(255 - luma))
    pts = np.rint(rng.uniform(0, 300, (150, 2)))
    pts[:60, 1] = 100.0
    cfg = lv.VisionConfig(decimation=2)
    done = threading.Event()
    def toggle():
        while not done.is_set():
            tracemalloc.start()
            tracemalloc.stop()
    thread = threading.Thread(target=toggle)
    thread.start()
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < 5.0:
            for direction in (lv.HORIZONTAL, lv.VERTICAL):
                lv.line_response_pass(tables, direction, 5, cfg)
            lv.hough_segments(pts, cfg, rng)
    finally:
        done.set()
        thread.join()
""")


def test_pass_and_hough_survive_tracemalloc_stopped_from_another_thread():
    # on Python 3.11 an allocation that numpy's iterator makes with the GIL
    # released can race tracemalloc.stop() in another thread and crash the
    # process; a pass or Hough transform whose arithmetic runs on broadcast
    # or strided operands crashed here within 3 s in 3 of 4 runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", TOGGLED_TRACEMALLOC], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
