"""block_match, voxel_bin and ransac_plane against the implementations they
replaced.

`block_match` below is an earlier implementation, kept verbatim as an
independent oracle: its own summed-area table and four-corner gather per
disparity, a separate right-view volume shifted from the left one, and a
masked copy of the left volume for the uniqueness test. The library's
version holds no cost volume but applies the same tie, uniqueness and
consistency rules to the same integer costs, so its disparity maps must
match the oracle's bit for bit on the rows of the params.step grid, the
only rows it matches; the others must be -1. `voxel_bin` is the
`np.unique(axis=0)` and `np.add.at` version, kept verbatim: the library's
sort-based binning visits the voxels in the same order and adds each
voxel's points in the same order, so its centroids must match bit for bit
too. `ransac_plane` is the
loop that scored one hypothesis at a time, kept verbatim: the library draws
the same samples and scores them in blocks, so its GroundPlane must be
equal, and its per-sample counts must equal the loop's, also for points
that lie at inlier_dist from a sampled plane.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldkit import stereo_obstacles
from fieldkit.birdview import CameraExtrinsics
from fieldkit.errors import DegenerateCloud, DimensionMismatch, InputError
from fieldkit.raster import Raster
from fieldkit.stereo_obstacles import (
    GroundPlane,
    PointCloud,
    StereoParams,
    StereoRig,
    _canonical_orientation,
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


# --- oracle: one hypothesis at a time, verbatim ---------------------------------

def ransac_plane(pc: PointCloud, params: StereoParams) -> GroundPlane:
    """Classic 3-point RANSAC followed by a least-squares refit over inliers."""
    pts = pc.points
    if len(pts) < 3:
        raise DegenerateCloud(f"need at least 3 points, got {len(pts)}")
    rng = np.random.default_rng(params.seed)
    best_count = 0
    best = None
    for _ in range(params.ransac_iterations):
        i, j, k = rng.choice(len(pts), 3, replace=False)
        n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            continue  # collinear sample
        n = n / norm
        d = float(n @ pts[i])
        count = int((np.abs(pts @ n - d) <= params.inlier_dist).sum())
        if count > best_count:
            best_count = count
            best = (n, d)
    if best is None:
        raise DegenerateCloud("all RANSAC samples were collinear")
    n, d = best
    inliers = pts[np.abs(pts @ n - d) <= params.inlier_dist]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    n_ref = _canonical_orientation(vt[-1])
    d_ref = float(n_ref @ centroid)
    count = int((np.abs(pts @ n_ref - d_ref) <= params.inlier_dist).sum())
    return GroundPlane(normal=tuple(float(v) for v in n_ref), offset=d_ref,
                       inlier_count=count)


# --- fixtures ------------------------------------------------------------------

WINDOWS = (1, 3, 9, 11, 13, 15)  # 11 is the widest with int16 sums
MAX_DISPARITIES = (0, 2, 3, 64, 80)  # 80 is at least every raster's width below
# a window spans window // step whole step-row blocks plus window % step
# rows, and none of the first when the step is wider than the window
STEPS = (1, 2, 3, 4, 7)
UNIQUENESS = (0.0, 0.15)

# criterion 7's two-post scene, seen by its 320x240 rig, and its parameters
POSTS = tuple(Obstacle(x, y, 0.02, 0.3) for x, y in ((0.55, -0.12), (0.55, 0.12)))
EXTRINSICS = CameraExtrinsics(position=(-0.4, 0.0, 0.35), rpy=(0.0, 0.32, 0.0))
FULL_RIG = StereoRig(baseline=0.062, focal=700.0, cx=159.5, cy=119.5, width=320, height=240)
CRITERION_7 = StereoParams(window=9, max_disparity=64, step=2, voxel=0.03,
                           min_points_per_voxel=2, protrusion=0.08,
                           link_dist=0.1, min_cluster_size=8, seed=0)
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
    # every SAD is 255 window^2, the largest any window can hold
    "white-black": lambda: tuple(Raster.from_gray(np.full((16, 40), v, np.uint8))
                                 for v in (255, 0)),
    "stripes-period2": lambda: _stripe_pair(2, 1),
    "stripes-period3": lambda: _stripe_pair(3, 1),
}


@pytest.fixture(scope="module")
def criterion_7_pair():
    return render_stereo(Scene(obstacles=POSTS), FULL_RIG, EXTRINSICS)


def assert_same_disparity(left, right, window, max_disparity, uniqueness, steps):
    """At each step, the rows on its grid equal the oracle's and the others are -1."""
    want = block_match(left, right, window, max_disparity, uniqueness)
    for step in steps:
        params = StereoParams(window=window, max_disparity=max_disparity, step=step)
        with mock.patch.object(stereo_obstacles, "UNIQUENESS_MARGIN", uniqueness):
            got = stereo_obstacles.block_match(left, right, params)
        case = (window, max_disparity, uniqueness, step)
        assert got.dtype == np.int32 and got.shape == want.shape, case
        assert np.array_equal(got[::step], want[::step]), case
        off_grid = np.arange(len(got)) % step != 0
        assert (got[off_grid] == -1).all(), case


# --- equivalence ---------------------------------------------------------------

@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("pair", PAIRS)
def test_block_match_matches_oracle(pair, window):
    left, right = PAIRS[pair]()
    for max_disparity in MAX_DISPARITIES:
        for uniqueness in UNIQUENESS:
            assert_same_disparity(left, right, window, max_disparity, uniqueness, STEPS)


def test_rendered_pairs_exercise_every_filter():
    # the grid above compares maps that hold valid and invalid pixels alike
    for name in ("boxes-seed1", "boxes-seed2-noise", "boxes-seed3-noise"):
        disp = block_match(*PAIRS[name](), 9, 64, 0.15)
        assert (disp > 0).any() and (disp < 0).any(), name


def test_full_rig_matches_oracle(criterion_7_pair):
    assert_same_disparity(*criterion_7_pair, 9, 64, 0.15, (1, 2))


def test_detect_obstacles_unchanged(criterion_7_pair, monkeypatch):
    got = detect_obstacles(*criterion_7_pair, FULL_RIG, CRITERION_7)
    monkeypatch.setattr(stereo_obstacles, "block_match",
                        lambda left, right, p: block_match(left, right, p.window, p.max_disparity))
    monkeypatch.setattr(stereo_obstacles, "ransac_plane", ransac_plane)
    want = detect_obstacles(*criterion_7_pair, FULL_RIG, CRITERION_7)
    assert len(want[1]) == 2
    assert got == want


def test_volume_follows_the_image_not_max_disparity():
    left, right = _random_pair(6, 8, 8)
    disp = stereo_obstacles.block_match(left, right,
                                        StereoParams(window=3, max_disparity=10**9, step=1))
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


def test_sum_dtype_is_int16_while_window_sums_fit():
    assert stereo_obstacles._sum_dtype(11, np.int32) is np.int16  # 255 * 121 = 30855 < 2^15
    assert stereo_obstacles._sum_dtype(13, np.int32) is np.int32  # 255 * 169 = 43095
    assert stereo_obstacles._sum_dtype(13, np.int64) is np.int64
    assert stereo_obstacles._sum_dtype(1, np.int64) is np.int16


@pytest.mark.parametrize("pair", ("boxes-seed2-noise", "narrow-24x12", "stripes-period3"))
def test_int64_keys_match_oracle(pair, monkeypatch):
    # int64 keys need a window or a width far beyond what the volume oracle
    # can hold, so force them on the grid's pairs
    monkeypatch.setattr(stereo_obstacles, "_key_dtype", lambda window, shift: np.int64)
    left, right = PAIRS[pair]()
    for window in (1, 9):
        for max_disparity in (3, 64):
            assert_same_disparity(left, right, window, max_disparity, 0.15, STEPS)


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
    window = draw(st.sampled_from((1, 3, 5, 9, 11, 13, 15)))
    max_disparity = draw(st.integers(0, 30))
    uniqueness = draw(st.sampled_from((0.0, 0.15, 0.5)))
    # step 1 reads the whole map; the drawn step adds a grid beside it
    return left, right, window, max_disparity, uniqueness, (1, draw(st.integers(2, 4)))


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


# --- ransac_plane --------------------------------------------------------------

def assert_same_plane(points, params):
    pc = PointCloud(points)
    try:
        want = ransac_plane(pc, params)
    except DegenerateCloud:
        with pytest.raises(DegenerateCloud):
            stereo_obstacles.ransac_plane(pc, params)
        return
    assert stereo_obstacles.ransac_plane(pc, params) == want, params


def loop_counts(pts, samples, inlier_dist):
    """The oracle's count of each sample, 0 for a collinear one."""
    counts = []
    for i, j, k in samples:
        n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            counts.append(0)
            continue
        n = n / norm
        d = float(n @ pts[i])
        counts.append(int((np.abs(pts @ n - d) <= inlier_dist).sum()))
    return counts


def _cloud(left, right, rig, params):
    disparity = stereo_obstacles.block_match(left, right, params)
    return stereo_obstacles.voxel_bin(disparity_to_points(disparity, rig, params), params).points


@pytest.fixture(scope="module")
def criterion_7_cloud(criterion_7_pair):
    return _cloud(*criterion_7_pair, FULL_RIG, CRITERION_7)


@pytest.fixture(scope="module")
def match_frames_clouds(perfbench_workloads):
    """The clouds of perfbench's match_frames stereo pairs, seeds 1 and 2."""
    workloads = perfbench_workloads
    wl = workloads.build("match_frames")
    clouds = []
    for seed in (1, 2):
        for job in wl.make_inputs(seed)[1]:
            if job[0] == "stereo":
                pair = wl.render(job)[1]
                clouds.append(_cloud(pair["left"], pair["right"], workloads.RIG,
                                     workloads.STEREO_PARAMS))
    return workloads.STEREO_PARAMS, clouds


def _boundary_cloud(seed, n, inlier_dist):
    """A tilted ground whose points, but for ransac_plane's first sample at
    this seed, lie at +/- inlier_dist from that sample's plane, to within
    the last bits of the oracle's residuals: where a block product and the
    loop's matrix-vector product round to different sides of inlier_dist."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, (n, 3))
    pts[:, 1] = 0.3 + pts[:, [0, 2]] @ rng.normal(0, 0.1, 2)
    first = np.random.default_rng(seed).choice(n, 3, replace=False)
    i, j, k = first
    normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
    normal = normal / np.linalg.norm(normal)
    d = float(normal @ pts[i])
    others = np.setdiff1d(np.arange(n), first)
    side = rng.choice((-1.0, 1.0), (len(others), 1))
    pts[others] += side * inlier_dist * normal
    for _ in range(4):
        residual = np.abs(pts @ normal - d)[others, None]
        pts[others] += side * (inlier_dist - residual) * normal
    return pts


def test_ransac_matches_oracle_on_match_frames_clouds(match_frames_clouds):
    params, clouds = match_frames_clouds
    assert len(clouds) == 24
    for points in clouds:
        assert_same_plane(points, params)


@pytest.mark.parametrize("iterations", (1, stereo_obstacles.RANSAC_BLOCK,
                                        stereo_obstacles.RANSAC_BLOCK + 1, 1000))
def test_ransac_matches_oracle_at_any_iteration_count(criterion_7_cloud, iterations,
                                                     monkeypatch):
    params = dataclasses.replace(CRITERION_7, ransac_iterations=iterations)
    assert_same_plane(criterion_7_cloud, params)
    # the boundary cloud is built for the first sample drawn at params.seed
    params = dataclasses.replace(params, seed=iterations)
    pts = _boundary_cloud(params.seed, 300, params.inlier_dist)
    assert_same_plane(pts, params)
    # and that sample, in ransac_plane's first block, is counted again the scalar way
    rng = np.random.default_rng(params.seed)
    block = np.array([rng.choice(len(pts), 3, replace=False)
                      for _ in range(min(iterations, stereo_obstacles.RANSAC_BLOCK))])
    recounted = []
    plane_through = stereo_obstacles._plane_through
    monkeypatch.setattr(stereo_obstacles, "_plane_through",
                        lambda p, *ijk: recounted.append(ijk) or plane_through(p, *ijk))
    stereo_obstacles._sample_counts(pts, block, params.inlier_dist)
    assert tuple(block[0]) in recounted


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("inlier_dist", (0.02, 0.1))
def test_ransac_matches_oracle_at_inlier_dist(seed, inlier_dist):
    pts = _boundary_cloud(seed, 400, inlier_dist)
    params = StereoParams(inlier_dist=inlier_dist, seed=seed)
    assert_same_plane(pts, params)
    # with repeats, so some samples are collinear; the first is the boundary plane's
    samples = np.random.default_rng(seed).choice(len(pts), (200, 3))
    samples[0] = np.random.default_rng(seed).choice(len(pts), 3, replace=False)
    got = stereo_obstacles._sample_counts(pts, samples, inlier_dist)
    assert list(got) == loop_counts(pts, samples, inlier_dist)


def test_sample_counts_match_the_loop_on_rendered_clouds(criterion_7_cloud):
    rng = np.random.default_rng(11)
    samples = np.array([rng.choice(len(criterion_7_cloud), 3, replace=False)
                        for _ in range(300)])
    for dist in (0.005, 0.02, 0.05):
        got = stereo_obstacles._sample_counts(criterion_7_cloud, samples, dist)
        assert list(got) == loop_counts(criterion_7_cloud, samples, dist)


def test_ransac_some_samples_collinear():
    # half the points on one line, and repeated points, so many samples are collinear
    rng = np.random.default_rng(3)
    t = rng.uniform(-1, 1, 40)
    line = np.column_stack([t, 0.5 * t + 0.3, 2.0 - t])
    plane = np.column_stack([rng.uniform(-1, 1, 40), np.full(40, 0.3), rng.uniform(1, 3, 40)])
    pts = np.vstack([line, plane, line[:5], line[:5]])
    for seed in range(5):
        params = StereoParams(ransac_iterations=100, seed=seed)
        assert_same_plane(pts, params)
        samples = np.array([rng.choice(len(pts), 3, replace=False) for _ in range(100)])
        counts = stereo_obstacles._sample_counts(pts, samples, params.inlier_dist)
        assert 0 in counts and list(counts) == loop_counts(pts, samples, params.inlier_dist)


def test_sample_counts_at_the_collinearity_threshold():
    # right triangles whose cross products are 1e-12 long and one ulp either side
    legs = (np.nextafter(1e-12, 0.0), 1e-12, np.nextafter(1e-12, 1.0))
    ground = np.random.default_rng(4).uniform(-1, 1, (50, 3)) * (1, 1, 1e-13)
    pts = np.vstack([[(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(a, 0.0, 0.0) for a in legs], ground])
    samples = np.array([(0, 2 + m, 1) for m in range(len(legs))])
    got = stereo_obstacles._sample_counts(pts, samples, 0.01)
    assert got[0] == 0 and got[2] > 0
    assert list(got) == loop_counts(pts, samples, 0.01)


@pytest.mark.parametrize("n", (3, 30, 300))
def test_ransac_all_samples_collinear(n):
    t = np.linspace(-1, 1, n)
    pts = np.column_stack([t, 2 * t + 0.1, 3 - t])
    for iterations in (1, stereo_obstacles.RANSAC_BLOCK + 1):
        params = StereoParams(ransac_iterations=iterations)
        with pytest.raises(DegenerateCloud):
            ransac_plane(PointCloud(pts), params)
        with pytest.raises(DegenerateCloud):
            stereo_obstacles.ransac_plane(PointCloud(pts), params)


@st.composite
def plane_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 2000))
    n_out = int(n * draw(st.sampled_from((0.0, 0.2, 0.5))))
    ground = np.column_stack([rng.uniform(-1, 1, n - n_out),
                              rng.normal(0.3, draw(st.sampled_from((0.0, 0.005, 0.02))),
                                         n - n_out),
                              rng.uniform(0.5, 3, n - n_out)])
    points = np.vstack([ground, rng.uniform(-1, 3, (n_out, 3))])
    points = points[rng.permutation(n)]
    params = StereoParams(ransac_iterations=draw(st.sampled_from((1, 3, 64, 65, 200))),
                          inlier_dist=draw(st.sampled_from((0.005, 0.02, 0.1))),
                          seed=draw(st.integers(0, 1000)))
    return points, params


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(plane_case())
def test_ransac_property(case):
    assert_same_plane(*case)


def test_ransac_memory_follows_the_cloud_not_the_iterations():
    # scored all at once, the 700 x 20000 residuals alone would be 112 MB
    pts = np.random.default_rng(5).uniform(-1, 1, (700, 3))
    params = StereoParams(ransac_iterations=20_000)
    tracemalloc.start()
    try:
        stereo_obstacles.ransac_plane(PointCloud(pts), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, f"ransac_plane peak {peak / 1e6:.1f} MB"
