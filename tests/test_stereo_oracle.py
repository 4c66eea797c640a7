"""block_match and voxel_bin against the implementations they replaced.

`block_match` below is an earlier implementation, kept verbatim as an
independent oracle: its own summed-area table and four-corner gather per
disparity, a separate right-view volume shifted from the left one, and a
masked copy of the left volume for the uniqueness test. The library's
version holds no cost volume but applies the same tie, uniqueness and
consistency rules to the same integer costs, so its disparity maps must
match the oracle's bit for bit. `voxel_bin` is the `np.unique(axis=0)` and
`np.add.at` version, kept verbatim: the library's sort-based binning visits
the voxels in the same order and adds each voxel's points in the same
order, so its centroids must match bit for bit too.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldkit import stereo_obstacles
from fieldkit.birdview import CameraExtrinsics
from fieldkit.errors import DimensionMismatch, InputError
from fieldkit.raster import Raster
from fieldkit.stereo_obstacles import (
    PointCloud,
    StereoParams,
    StereoRig,
    detect_obstacles,
    disparity_to_points,
)
from fieldkit.synth import Obstacle, Scene, render_stereo


# --- oracle: three (D+1) x H x W volumes, verbatim -----------------------------

def block_match(left: Raster, right: Raster, window: int, max_disparity: int,
                uniqueness: float = 0.15) -> np.ndarray:
    """Integer disparity map minimizing windowed SAD.

    Returns int32 (H, W); invalid pixels are -1. Flat-cost ties resolve to
    the smallest disparity. Two validity filters: the best cost must beat
    the best outside +/-1 disparity by the uniqueness margin, and the
    left-right consistency check tolerates 1 px.
    """
    if left.luma.shape != right.luma.shape:
        raise DimensionMismatch("stereo pair shapes differ")
    if window % 2 == 0 or window < 1:
        raise InputError("window must be odd and positive")
    if max_disparity < 0:
        raise InputError("max_disparity must be non-negative")
    l = left.luma.astype(np.int32)
    r = right.luma.astype(np.int32)
    h, w = l.shape
    half = window // 2
    big = np.int64(1) << 40

    # cost_l[d][v, u] = SAD of left(u) vs right(u - d); cost_r derives by shift
    n_d = max_disparity + 1
    cost_l = np.full((n_d, h, w), big, dtype=np.int64)
    cost_r = np.full((n_d, h, w), big, dtype=np.int64)
    for d in range(n_d):
        diff = np.full((h, w), 0, dtype=np.int64)
        if d == 0:
            diff = np.abs(l - r).astype(np.int64)
        else:
            diff[:, d:] = np.abs(l[:, d:] - r[:, :-d]).astype(np.int64)
        ii = np.zeros((h + 1, w + 1), dtype=np.int64)
        np.cumsum(np.cumsum(diff, axis=0), axis=1, out=ii[1:, 1:])
        y0 = np.arange(h) - half
        y1 = np.arange(h) + half + 1
        x0 = np.arange(w) - half
        x1 = np.arange(w) + half + 1
        ok_y = (y0 >= 0) & (y1 <= h)
        ok_x = (x0 >= 0) & (x1 <= w)
        yy0 = np.where(ok_y, y0, 0)[:, None]
        yy1 = np.where(ok_y, y1, 0)[:, None]
        xx0 = np.where(ok_x, x0, 0)[None, :]
        xx1 = np.where(ok_x, x1, 0)[None, :]
        sad = ii[yy1, xx1] - ii[yy0, xx1] - ii[yy1, xx0] + ii[yy0, xx0]
        valid = ok_y[:, None] & ok_x[None, :]
        # left window must stay in-bounds after the shift by d
        valid = valid & (np.arange(w)[None, :] - d - half >= 0)
        cost_l[d] = np.where(valid, sad, big)
        # SAD_r(u, d) = SAD_l(u + d, d)
        cr = np.full((h, w), big, dtype=np.int64)
        if d == 0:
            cr = cost_l[d].copy()
        else:
            cr[:, :-d] = cost_l[d][:, d:]
        cost_r[d] = cr

    disp_l = np.argmin(cost_l, axis=0).astype(np.int32)
    disp_r = np.argmin(cost_r, axis=0).astype(np.int32)
    best_l = np.take_along_axis(cost_l, disp_l[None].astype(np.int64), axis=0)[0]
    valid_l = best_l < big
    valid_r = np.take_along_axis(cost_r, disp_r[None].astype(np.int64), axis=0)[0] < big
    if uniqueness > 0 and n_d > 3:
        d_axis = np.arange(n_d)[:, None, None]
        masked = np.where(np.abs(d_axis - disp_l[None]) <= 1, big, cost_l)
        second = masked.min(axis=0)
        ambiguous = (second < big) & (best_l * (1.0 + uniqueness) > second)
        valid_l &= ~ambiguous

    u = np.arange(w)[None, :].repeat(h, axis=0)
    ur = u - disp_l
    ur_ok = valid_l & (ur >= 0)
    ur_c = np.where(ur_ok, ur, 0)
    match = disp_r[np.arange(h)[:, None], ur_c]
    match_ok = valid_r[np.arange(h)[:, None], ur_c]
    consistent = ur_ok & match_ok & (np.abs(disp_l - match) <= 1)
    return np.where(consistent, disp_l, -1).astype(np.int32)


# --- oracle: np.unique rows and np.add.at, verbatim ----------------------------

def voxel_bin(pc: PointCloud, voxel: float, min_points_per_voxel: int = 1) -> PointCloud:
    """Centroid per occupied voxel; voxels with too few points are dropped."""
    if voxel <= 0:
        raise InputError("voxel size must be positive")
    if len(pc) == 0:
        return PointCloud(np.zeros((0, 3)))
    keys = np.floor(pc.points / voxel).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, pc.points)
    centroids = sums / counts[:, None]
    return PointCloud(centroids[counts >= min_points_per_voxel])


# --- fixtures ------------------------------------------------------------------

WINDOWS = (1, 3, 9, 15)
MAX_DISPARITIES = (0, 2, 3, 64, 80)  # 80 is at least every raster's width below
UNIQUENESS = (0.0, 0.15)

# criterion 7's two-post scene, seen by its 320x240 rig
POSTS = tuple(Obstacle(x, y, 0.02, 0.3) for x, y in ((0.55, -0.12), (0.55, 0.12)))
EXTRINSICS = CameraExtrinsics(position=(-0.4, 0.0, 0.35), rpy=(0.0, 0.32, 0.0))
FULL_RIG = StereoRig(baseline=0.062, focal=700.0, cx=159.5, cy=119.5, width=320, height=240)
# the same view on a 72x48 sensor, for the parameter grid
SMALL_RIG = StereoRig(baseline=0.062, focal=157.5, cx=35.5, cy=23.5, width=72, height=48)


def _random_pair(seed, h, w):
    rng = np.random.default_rng(seed)
    return tuple(Raster.from_gray(rng.integers(0, 256, (h, w)).astype(np.uint8))
                 for _ in range(2))


def _rendered_pair(seed, noise_sigma):
    rng = np.random.default_rng(seed)
    boxes = tuple(Obstacle(float(rng.uniform(0.3, 0.9)), float(rng.uniform(-0.2, 0.2)),
                           float(rng.uniform(0.02, 0.06)), float(rng.uniform(0.1, 0.3)))
                  for _ in range(2))
    return render_stereo(Scene(obstacles=boxes, noise_sigma=noise_sigma, seed=seed),
                         SMALL_RIG, EXTRINSICS)


def _stripe_pair(period, seed):
    # low-contrast stripes with a brightness offset between the views: the
    # true match costs the offset, d1 +/- 1 little more and every period
    # repeats the minimum, so d1 +/- 1 often hold the second and third keys
    # and only the fourth is the far near-tie the uniqueness test needs
    rng = np.random.default_rng(seed)
    base = 128 + 1.5 * np.cos(2 * np.pi * np.arange(56) / period) + rng.normal(0, 2, (20, 56))
    noise = rng.normal(0, 1, (2, 20, 48))
    return tuple(Raster.from_gray(np.clip(np.rint(img + n), 0, 255).astype(np.uint8))
                 for img, n in zip((base[:, :48], base[:, 5:53] + 6), noise))


PAIRS = {
    "boxes-seed1": lambda: _rendered_pair(1, 0.0),
    "boxes-seed2-noise": lambda: _rendered_pair(2, 4.0),
    "boxes-seed3-noise": lambda: _rendered_pair(3, 8.0),
    "smaller-than-window-7x9": lambda: _random_pair(4, 7, 9),
    "narrow-24x12": lambda: _random_pair(5, 24, 12),
    "flat": lambda: (Raster.from_gray(np.full((20, 30), 128, np.uint8)),) * 2,
    "stripes-period2": lambda: _stripe_pair(2, 1),
    "stripes-period3": lambda: _stripe_pair(3, 1),
}


@pytest.fixture(scope="module")
def criterion_7_pair():
    return render_stereo(Scene(obstacles=POSTS), FULL_RIG, EXTRINSICS)


def assert_same_disparity(left, right, window, max_disparity, uniqueness):
    with mock.patch.object(stereo_obstacles, "UNIQUENESS_MARGIN", uniqueness):
        got = stereo_obstacles.block_match(left, right, StereoParams(window=window,
                                                                  max_disparity=max_disparity))
    want = block_match(left, right, window, max_disparity, uniqueness)
    assert got.dtype == np.int32
    assert np.array_equal(got, want), (window, max_disparity, uniqueness)


# --- equivalence ---------------------------------------------------------------

@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("pair", PAIRS)
def test_block_match_matches_oracle(pair, window):
    left, right = PAIRS[pair]()
    for max_disparity in MAX_DISPARITIES:
        for uniqueness in UNIQUENESS:
            assert_same_disparity(left, right, window, max_disparity, uniqueness)


def test_rendered_pairs_exercise_every_filter():
    # the grid above compares maps that hold valid and invalid pixels alike
    for name in ("boxes-seed1", "boxes-seed2-noise", "boxes-seed3-noise"):
        disp = block_match(*PAIRS[name](), 9, 64, 0.15)
        assert (disp > 0).any() and (disp < 0).any(), name


def test_full_rig_matches_oracle(criterion_7_pair):
    assert_same_disparity(*criterion_7_pair, 9, 64, 0.15)


def test_detect_obstacles_unchanged(criterion_7_pair, monkeypatch):
    params = StereoParams(window=9, max_disparity=64, step=2, voxel=0.03,
                          min_points_per_voxel=2, protrusion=0.08,
                          link_dist=0.1, min_cluster_size=8, seed=0)
    got = detect_obstacles(*criterion_7_pair, FULL_RIG, params)
    monkeypatch.setattr(stereo_obstacles, "block_match",
                        lambda left, right, p: block_match(left, right, p.window, p.max_disparity))
    want = detect_obstacles(*criterion_7_pair, FULL_RIG, params)
    assert len(want[1]) == 2
    assert got == want


def test_volume_follows_the_image_not_max_disparity():
    left, right = _random_pair(6, 8, 8)
    disp = stereo_obstacles.block_match(left, right, StereoParams(window=3, max_disparity=10**9))
    assert np.array_equal(disp, block_match(left, right, 3, 7))


def test_block_match_memory_is_bounded(criterion_7_pair):
    # the 65-layer int64 cost volume alone was 40 MB on this 320x240 pair
    params = StereoParams(window=9, max_disparity=64)
    stereo_obstacles.block_match(*criterion_7_pair, params)
    tracemalloc.start()
    try:
        stereo_obstacles.block_match(*criterion_7_pair, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"block_match peak {peak / 1e6:.1f} MB"


def test_key_dtype_is_int32_while_keys_fit():
    assert stereo_obstacles._key_dtype(9, 16) is np.int32  # 255 * 81 + 1 = 20656 < 2^15
    assert stereo_obstacles._key_dtype(9, 17) is np.int64
    assert stereo_obstacles._key_dtype(2901, 0) is np.int32  # 255 * 2901^2 < 2^31 - 1
    assert stereo_obstacles._key_dtype(2903, 0) is np.int64
    assert stereo_obstacles._key_dtype(2901, 1) is np.int64


@pytest.mark.parametrize("pair", ("boxes-seed2-noise", "narrow-24x12", "stripes-period3"))
def test_int64_keys_match_oracle(pair, monkeypatch):
    # int64 keys need a window or a width far beyond what the volume oracle
    # can hold, so force them on the grid's pairs
    monkeypatch.setattr(stereo_obstacles, "_key_dtype", lambda window, shift: np.int64)
    left, right = PAIRS[pair]()
    for window in (1, 9):
        for max_disparity in (3, 64):
            assert_same_disparity(left, right, window, max_disparity, 0.15)

@pytest.mark.parametrize("axis", (0, 1))
def test_run_sum_matches_every_window(axis):
    # n runs up to the summed axis's length, 17; the other axis has 13
    a = np.random.default_rng(9).integers(0, 256, (17, 17)).astype(np.int32)
    a = a[:13] if axis == 1 else a[:, :13]
    rows, cols = a.shape
    step = cols if axis == 0 else 1
    for n in range(1, 18):
        got = stereo_obstacles._run_sum(a.ravel(), n, step)
        if axis == 0:
            got = got.reshape(rows - n + 1, cols)
            want = np.array([a[i:i + n].sum(axis=0) for i in range(rows - n + 1)])
        else:
            # sums starting in the last n - 1 columns run into the next row
            got = got[np.arange(rows)[:, None] * cols + np.arange(cols - n + 1)]
            want = np.array([a[:, j:j + n].sum(axis=1) for j in range(cols - n + 1)]).T
        assert got.dtype == a.dtype
        assert np.array_equal(got, want), n


# --- property ------------------------------------------------------------------

@st.composite
def stereo_case(draw):
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.integers(0, draw(st.sampled_from((2, 8, 256))), (h, w + 6)).astype(np.uint8)
    shift = draw(st.integers(0, 6))
    left = Raster.from_gray(base[:, :w])
    right = Raster.from_gray(base[:, shift:shift + w])
    window = draw(st.sampled_from((1, 3, 5, 9, 15)))
    max_disparity = draw(st.integers(0, 30))
    uniqueness = draw(st.sampled_from((0.0, 0.15, 0.5)))
    return left, right, window, max_disparity, uniqueness


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stereo_case())
def test_block_match_property(case):
    assert_same_disparity(*case)


# --- voxel_bin -----------------------------------------------------------------

def assert_same_voxels(points, voxel, min_points_per_voxel):
    pc = PointCloud(points)
    params = StereoParams(voxel=voxel, min_points_per_voxel=min_points_per_voxel)
    got = stereo_obstacles.voxel_bin(pc, params).points
    want = voxel_bin(pc, voxel, min_points_per_voxel).points
    assert got.shape == want.shape and np.array_equal(got, want), (voxel, min_points_per_voxel)


@pytest.mark.parametrize("pair", ("boxes-seed1", "boxes-seed2-noise", "boxes-seed3-noise"))
def test_voxel_bin_matches_oracle_on_rendered_clouds(pair):
    disparity = block_match(*PAIRS[pair](), 9, 64, 0.15)
    for step in (1, 2):
        points = disparity_to_points(disparity, SMALL_RIG, StereoParams(step=step)).points
        assert len(points) > 10
        for voxel in (0.01, 0.03, 0.05):
            for m in (1, 2, 3):
                assert_same_voxels(points, voxel, m)


def test_voxel_bin_matches_oracle_on_the_full_rig(criterion_7_pair):
    params = StereoParams(window=9, max_disparity=64, step=2)
    disparity = stereo_obstacles.block_match(*criterion_7_pair, params)
    points = disparity_to_points(disparity, FULL_RIG, params).points
    for m in (1, 2, 3):
        assert_same_voxels(points, 0.03, m)


@pytest.mark.parametrize("points", [
    np.zeros((0, 3)),
    np.array([[0.3, -0.2, 1.1]]),
    np.array([[-0.01, -0.01, -0.01], [0.01, 0.01, 0.01], [-0.04, 0.0, -0.06]]),
    np.repeat(np.array([[-0.12, 0.07, 0.5], [0.2, -0.33, -1.0]]), 3, axis=0),
], ids=["empty", "one-point", "negative", "duplicates"])
@pytest.mark.parametrize("m", (1, 2, 3))
def test_voxel_bin_matches_oracle_on_edge_cases(points, m):
    assert_same_voxels(points, 0.05, m)


@st.composite
def cloud_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    points = rng.normal(draw(st.sampled_from((0.0, -1.0, 2.0))),
                        draw(st.sampled_from((0.01, 0.1, 1.0))), (n, 3))
    if n and draw(st.booleans()):  # exact duplicates
        points = np.vstack([points, points[rng.integers(0, n, n)]])
    voxel = draw(st.sampled_from((0.005, 0.03, 0.1, 1.0)))
    return points, voxel, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cloud_case())
def test_voxel_bin_property(case):
    assert_same_voxels(*case)
