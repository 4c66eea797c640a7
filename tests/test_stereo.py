import math

import numpy as np
import pytest

from fieldkit.birdview import CameraExtrinsics
from fieldkit.errors import DegenerateCloud, DimensionMismatch, InputError
from fieldkit.raster import Raster
from fieldkit.stereo_obstacles import (
    PointCloud,
    StereoParams,
    StereoRig,
    block_match,
    detect_obstacles,
    disparity_to_points,
    extract_clusters,
    ransac_plane,
    voxel_bin,
)
from fieldkit.synth import Obstacle, Scene, render_stereo


def textured_pair(shift, h=60, w=120, seed=0):
    """Right image = left content moved left by `shift` (disparity = shift)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, (h, w + shift)).astype(np.uint8)
    left = base[:, :w]
    right = base[:, shift:shift + w]
    return Raster.from_gray(left), Raster.from_gray(right)


# --- block matching ----------------------------------------------------------

def test_block_match_constant_shift():
    left, right = textured_pair(7)
    disp = block_match(left, right, StereoParams(window=7, max_disparity=20, step=1))
    h, w = disp.shape
    interior = disp[10:h - 10, 35:w - 10]
    valid = interior[interior >= 0]
    assert len(valid) > 0.9 * interior.size
    assert np.all(valid == 7)


def test_block_match_textureless_ties_to_zero():
    flat = Raster.from_gray(np.full((40, 60), 128, np.uint8))
    disp = block_match(flat, flat, StereoParams(window=5, max_disparity=10, step=1))
    valid = disp[disp >= 0]
    assert np.all(valid == 0)


def test_block_match_noise_mostly_invalidated():
    rng = np.random.default_rng(3)
    left = Raster.from_gray(rng.integers(0, 256, (60, 80)).astype(np.uint8))
    right = Raster.from_gray(rng.integers(0, 256, (60, 80)).astype(np.uint8))
    disp = block_match(left, right, StereoParams(window=5, max_disparity=24, step=1))
    h, w = disp.shape
    interior = disp[5:h - 5, 28:w - 5]
    assert (interior < 0).mean() >= 0.8


def test_block_match_dimension_mismatch():
    a = Raster.from_gray(np.zeros((10, 10), np.uint8))
    b = Raster.from_gray(np.zeros((10, 12), np.uint8))
    with pytest.raises(DimensionMismatch):
        block_match(a, b, StereoParams(window=5, max_disparity=8))


# --- settings ----------------------------------------------------------------

@pytest.mark.parametrize("cls, field, value", [
    (StereoParams, "window", 4), (StereoParams, "window", 0), (StereoParams, "window", -1),
    (StereoParams, "max_disparity", -1), (StereoParams, "step", 0),
    (StereoParams, "ransac_iterations", 0), (StereoParams, "voxel", 0.0),
    (StereoParams, "inlier_dist", -0.02), (StereoParams, "inlier_dist", math.inf),
    (StereoParams, "protrusion", math.nan), (StereoParams, "link_dist", -math.inf),
    (StereoParams, "min_ground_inlier_ratio", math.nan),
    (StereoParams, "min_ground_inlier_ratio", -0.1),
    (StereoParams, "min_ground_inlier_ratio", 1.5), (StereoParams, "seed", -1),
    (StereoRig, "baseline", 0.0), (StereoRig, "baseline", math.nan),
    (StereoRig, "focal", -700.0), (StereoRig, "focal", math.inf),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_settings_checked_when_built(cls, field, value):
    with pytest.raises(InputError, match=f"{field} must be .*, got {value!r}"):
        cls(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("window", 1), ("max_disparity", 0), ("step", 1), ("ransac_iterations", 1),
    ("voxel", 1e-300), ("min_ground_inlier_ratio", 0.0), ("min_ground_inlier_ratio", 1.0),
    ("seed", 0), ("min_points_per_voxel", -5), ("min_cluster_size", 0),
], ids=str)
def test_settings_at_their_bounds_are_valid(field, value):
    assert getattr(StereoParams(**{field: value}), field) == value


# --- reprojection ------------------------------------------------------------

def test_depth_formula():
    rig = StereoRig(baseline=0.062, focal=1000.0, cx=50.0, cy=40.0, width=101, height=81)
    disp = np.full((81, 101), -1, np.int32)
    disp[40, 50] = 62
    pc = disparity_to_points(disp, rig, StereoParams(step=1))
    assert len(pc) == 1
    x, y, z = pc.points[0]
    assert z == pytest.approx(1.0)
    assert x == 0.0 and y == 0.0  # principal point


def test_depth_disparity_product_exact():
    rig = StereoRig(baseline=0.062, focal=700.0, cx=30.0, cy=20.0, width=64, height=48)
    rng = np.random.default_rng(0)
    disp = rng.integers(1, 64, (48, 64)).astype(np.int32)
    pc = disparity_to_points(disp, rig, StereoParams(step=1))
    d = disp.ravel().astype(float)
    z = pc.points[:, 2]
    np.testing.assert_allclose(z * d, rig.focal * rig.baseline, rtol=1e-15)


def test_doubling_disparity_halves_depth():
    rig = StereoRig(focal=500.0, cx=10, cy=10, width=21, height=21)
    for d in (2, 10, 30):
        one = np.full((21, 21), d, np.int32)
        two = np.full((21, 21), 2 * d, np.int32)
        z1 = disparity_to_points(one, rig, StereoParams(step=1)).points[:, 2]
        z2 = disparity_to_points(two, rig, StereoParams(step=1)).points[:, 2]
        np.testing.assert_allclose(z1, 2 * z2, rtol=1e-15)


def test_zero_and_invalid_disparity_skipped():
    rig = StereoRig()
    disp = np.zeros((8, 8), np.int32)
    disp[2, 2] = -1
    assert len(disparity_to_points(disp, rig, StereoParams(step=1))) == 0


# --- voxel binning -----------------------------------------------------------

def test_voxel_single_cluster_centroid():
    pts = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02], [0.03, 0.01, 0.02]])
    out = voxel_bin(PointCloud(pts), StereoParams(voxel=0.1, min_points_per_voxel=1))
    assert len(out) == 1
    np.testing.assert_allclose(out.points[0], pts.mean(axis=0))


def test_voxel_drops_sparse():
    pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [5.0, 5.0, 5.0]])
    out = voxel_bin(PointCloud(pts), StereoParams(voxel=0.1, min_points_per_voxel=2))
    assert len(out) == 1


def test_voxel_matches_brute_force_binning():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (10_000, 3))
    voxel = 0.25
    out = voxel_bin(PointCloud(pts), StereoParams(voxel=voxel, min_points_per_voxel=1))
    keys = {tuple(k) for k in np.floor(pts / voxel).astype(int)}
    assert len(out) == len(keys)


def test_voxel_filter_monotone():
    rng = np.random.default_rng(8)
    pts = rng.normal(0, 0.5, (2000, 3))
    sizes = [len(voxel_bin(PointCloud(pts), StereoParams(voxel=0.1, min_points_per_voxel=m)))
             for m in (1, 2, 3, 5, 8)]
    assert sizes == sorted(sizes, reverse=True)


# --- RANSAC ------------------------------------------------------------------

def test_ransac_exact_plane():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200),
                           np.zeros(200)])
    params = StereoParams(ransac_iterations=50, inlier_dist=0.01, seed=0)
    plane = ransac_plane(PointCloud(pts), params)
    np.testing.assert_allclose(plane.normal, (0, 0, 1), atol=1e-9)
    assert plane.offset == pytest.approx(0.0, abs=1e-9)
    assert plane.inlier_count == 200


def test_ransac_three_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    plane = ransac_plane(PointCloud(pts), StereoParams(ransac_iterations=20, inlier_dist=0.01))
    n = np.asarray(plane.normal)
    for p in pts:
        assert abs(n @ p - plane.offset) < 1e-9


def test_ransac_noisy_plane_with_outliers():
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_in, n_out = 800, 200
        inliers = np.column_stack([rng.uniform(-1, 1, n_in), rng.uniform(-1, 1, n_in),
                                   rng.normal(0, 0.005, n_in)])
        outliers = np.column_stack([rng.uniform(-1, 1, n_out), rng.uniform(-1, 1, n_out),
                                    rng.uniform(0.2, 0.5, n_out)])
        pc = PointCloud(np.vstack([inliers, outliers]))
        plane = ransac_plane(pc, StereoParams(ransac_iterations=100, inlier_dist=0.02, seed=seed))
        angle = math.degrees(math.acos(abs(np.asarray(plane.normal) @ np.array([0, 0, 1.0]))))
        errors.append(angle)
        assert plane.inlier_count >= 0.75 * len(pc)
        assert angle <= 5.0
    assert float(np.median(errors)) <= 2.0


def test_ransac_collinear_degenerate():
    t = np.linspace(0, 1, 30)
    pts = np.column_stack([t, 2 * t, 3 * t])
    with pytest.raises(DegenerateCloud):
        ransac_plane(PointCloud(pts), StereoParams(ransac_iterations=50, inlier_dist=0.01))
    with pytest.raises(DegenerateCloud):
        ransac_plane(PointCloud(np.zeros((2, 3))),
                     StereoParams(ransac_iterations=10, inlier_dist=0.01))


# --- clustering --------------------------------------------------------------

def column_points(x, z, height, n=40, jitter=0.005, seed=0):
    """Thin vertical column standing on the y=const ground (camera frame:
    y points down, so 'up' is -y)."""
    rng = np.random.default_rng(seed)
    ys = np.linspace(0.0, -height, n)
    return np.column_stack([np.full(n, x) + rng.normal(0, jitter, n),
                            ys,
                            np.full(n, z) + rng.normal(0, jitter, n)])


def ground_patch(n=400, y=0.3, seed=1):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-1.5, 1.5, n), np.full(n, y),
                            rng.uniform(0.5, 3.0, n)])


def test_two_columns_two_clusters():
    ground = ground_patch()
    a = column_points(-0.5, 1.5, 0.45, seed=2) + np.array([0, 0.3, 0])
    b = column_points(0.5, 1.5, 0.45, seed=3) + np.array([0, 0.3, 0])
    pc = PointCloud(np.vstack([ground, a, b]))
    plane = ransac_plane(pc, StereoParams(ransac_iterations=100, inlier_dist=0.02, seed=0))
    clusters = extract_clusters(
        pc, plane, StereoParams(protrusion=0.1, link_dist=0.15, min_cluster_size=10))
    assert len(clusters) == 2
    got = sorted(c.centroid[0] for c in clusters)
    assert got[0] == pytest.approx(a[:, 0].mean(), abs=0.03)
    assert got[1] == pytest.approx(b[:, 0].mean(), abs=0.03)
    for c in clusters:
        assert c.max_protrusion > 0.1
        assert c.point_count >= 10


def test_no_protruding_points_no_clusters():
    pc = PointCloud(ground_patch())
    plane = ransac_plane(pc, StereoParams(ransac_iterations=80, inlier_dist=0.02, seed=0))
    params = StereoParams(protrusion=0.1, link_dist=0.15, min_cluster_size=5)
    assert extract_clusters(pc, plane, params) == []


# a bad setting is refused when StereoParams is built, before any stage runs;
# a cell size that is valid but too small for the cloud is refused by the stage
@pytest.mark.parametrize("stage", [
    lambda pc, plane: StereoParams(voxel=math.nan),
    lambda pc, plane: StereoParams(voxel=math.inf),
    lambda pc, plane: voxel_bin(pc, StereoParams(voxel=1e-300)),  # keys past int64
    lambda pc, plane: StereoParams(ransac_iterations=0),
    lambda pc, plane: StereoParams(inlier_dist=math.nan),
    lambda pc, plane: StereoParams(protrusion=math.inf),
    lambda pc, plane: StereoParams(link_dist=0.0),
    lambda pc, plane: extract_clusters(pc, plane, StereoParams(link_dist=1e-300)),
])
def test_stage_values_must_be_positive_and_finite(stage):
    column = column_points(0.0, 1.0, 0.3, seed=4) + np.array([0, 0.3, 0])
    pc = PointCloud(np.vstack([ground_patch(), column]))
    plane = ransac_plane(pc, StereoParams(ransac_iterations=80, inlier_dist=0.02, seed=0))
    with pytest.raises(InputError):
        stage(pc, plane)


def test_gap_splits_cluster_by_link_distance():
    ground = ground_patch()
    low = column_points(0.0, 1.0, 0.3, seed=4) + np.array([0, 0.3, 0])
    high = low.copy()
    high[:, 1] -= 0.8  # same column, lifted far above: a gap along y
    pc = PointCloud(np.vstack([ground, low, high]))
    plane = ransac_plane(pc, StereoParams(ransac_iterations=80, inlier_dist=0.02, seed=0))
    joined = extract_clusters(
        pc, plane, StereoParams(protrusion=0.05, link_dist=0.9, min_cluster_size=10))
    split = extract_clusters(
        pc, plane, StereoParams(protrusion=0.05, link_dist=0.3, min_cluster_size=10))
    assert len(joined) == 1
    assert len(split) == 2


def test_clusters_sorted_by_camera_distance():
    ground = ground_patch()
    near = column_points(0.0, 0.8, 0.4, seed=5) + np.array([0, 0.3, 0])
    far = column_points(0.3, 2.5, 0.4, seed=6) + np.array([0, 0.3, 0])
    pc = PointCloud(np.vstack([ground, near, far]))
    plane = ransac_plane(pc, StereoParams(ransac_iterations=80, inlier_dist=0.02, seed=0))
    clusters = extract_clusters(
        pc, plane, StereoParams(protrusion=0.1, link_dist=0.15, min_cluster_size=10))
    dists = [np.linalg.norm(c.centroid) for c in clusters]
    assert dists == sorted(dists)


# --- end to end --------------------------------------------------------------

def desk_rig():
    return StereoRig(baseline=0.062, focal=700.0, cx=159.5, cy=119.5,
                     width=320, height=240)


def desk_camera():
    return CameraExtrinsics(position=(-0.4, 0.0, 0.35), rpy=(0.0, 0.32, 0.0))


def test_stereo_scene_two_robots():
    posts = (Obstacle(0.55, -0.12, 0.02, 0.3), Obstacle(0.55, 0.12, 0.02, 0.3))
    scene = Scene(obstacles=posts, noise_sigma=0.0)
    rig = desk_rig()
    ex = desk_camera()
    left, right = render_stereo(scene, rig, ex)
    params = StereoParams(window=9, max_disparity=64, step=2, voxel=0.03,
                          min_points_per_voxel=2, protrusion=0.08,
                          link_dist=0.1, min_cluster_size=8, seed=0)
    plane, clusters = detect_obstacles(left, right, rig, params)
    # the world-up direction expressed in the camera frame
    n = np.asarray(plane.normal)
    expected = ex.rotation_world_from_camera().T @ np.array([0.0, 0.0, 1.0])
    angle = math.degrees(math.acos(min(1.0, abs(n @ expected))))
    assert angle <= 2.0
    assert len(clusters) == 2


def test_clusters_map_to_field_positions():
    from fieldkit.stereo_obstacles import clusters_to_field

    posts = (Obstacle(0.55, -0.12, 0.02, 0.3), Obstacle(0.55, 0.12, 0.02, 0.3))
    rig = desk_rig()
    ex = desk_camera()
    left, right = render_stereo(Scene(obstacles=posts), rig, ex)
    params = StereoParams(window=9, max_disparity=64, step=2, voxel=0.03,
                          min_points_per_voxel=2, protrusion=0.08,
                          link_dist=0.1, min_cluster_size=8, seed=0)
    _, clusters = detect_obstacles(left, right, rig, params)
    field_pos = clusters_to_field(clusters, ex)
    for ob in posts:
        assert min(math.hypot(x - ob.x, y - ob.y) for x, y in field_pos) <= 0.03


def test_stereo_obstacle_below_threshold_ignored():
    scene = Scene(obstacles=(Obstacle(0.55, 0.0, 0.02, 0.05),), noise_sigma=0.0)
    rig = desk_rig()
    left, right = render_stereo(scene, rig, desk_camera())
    params = StereoParams(window=9, max_disparity=64, step=2, voxel=0.03,
                          min_points_per_voxel=2, protrusion=0.12,
                          link_dist=0.1, min_cluster_size=8, seed=0)
    _, clusters = detect_obstacles(left, right, rig, params)
    assert clusters == []


def test_stereo_no_ground_degenerate():
    # camera pitched upward: rays never hit the field
    scene = Scene(noise_sigma=0.0)
    rig = desk_rig()
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.4), rpy=(0.0, -0.8, 0.0))
    left, right = render_stereo(scene, rig, ex)
    with pytest.raises(DegenerateCloud):
        detect_obstacles(left, right, rig, StereoParams())
