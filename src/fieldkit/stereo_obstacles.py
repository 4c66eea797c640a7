"""Stereo ground-plane obstacle detection.

A rectified pair goes through SAD block matching with a left-right
consistency check, reprojection of the disparity map to a camera-frame
point cloud, voxel binning for noise rejection, a RANSAC ground-plane fit,
and single-linkage clustering of the points protruding above the plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud, DimensionMismatch, InputError
from .geometry import connected_components
from .line_vision import integral_image, rect_sum
from .raster import Raster


@dataclass(frozen=True)
class StereoRig:
    """Rectified stereo geometry; the right camera sits +baseline along camera x."""

    baseline: float = 0.062
    focal: float = 700.0
    cx: float = 159.5
    cy: float = 119.5
    width: int = 320
    height: int = 240

    def __post_init__(self):
        if self.baseline <= 0 or self.focal <= 0:
            raise InputError("baseline and focal must be positive")


@dataclass(frozen=True)
class StereoParams:
    window: int = 9
    max_disparity: int = 64
    step: int = 2
    voxel: float = 0.05
    min_points_per_voxel: int = 2
    ransac_iterations: int = 200
    inlier_dist: float = 0.02
    protrusion: float = 0.1
    link_dist: float = 0.15
    min_cluster_size: int = 10
    min_ground_inlier_ratio: float = 0.2
    seed: int = 0


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, 3) camera-frame meters

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise InputError("point cloud must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class GroundPlane:
    """Plane n . x = d with a unit normal oriented toward the camera's up."""

    normal: tuple[float, float, float]
    offset: float
    inlier_count: int

    def height_above(self, points: np.ndarray) -> np.ndarray:
        n = np.asarray(self.normal)
        return np.asarray(points) @ n - self.offset


@dataclass(frozen=True)
class ObstacleCluster:
    centroid: tuple[float, float, float]
    extent: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    point_count: int
    max_protrusion: float


def block_match(left: Raster, right: Raster, window: int, max_disparity: int,
                uniqueness: float = 0.15) -> np.ndarray:
    """Integer disparity map minimizing windowed SAD.

    Returns int32 (H, W); invalid pixels are -1. Flat-cost ties resolve to
    the smallest disparity. Two validity filters: the best cost must beat
    the best outside +/-1 disparity by the uniqueness margin, and the
    left-right consistency check tolerates 1 px. One int64 cost volume holds
    min(max_disparity + 1, W - window + 1) layers, at least one: a wider
    disparity has no window inside the image, so memory follows the image.
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
    inner, outer = slice(None, -window), slice(window, None)

    # cost[d][v, u] = SAD of left(u) vs right(u - d), big where either window
    # leaves the image; the right view's SAD_r(u, d) is SAD_l(u + d, d)
    n_d = max_disparity + 1
    cost = np.full((max(1, min(n_d, w - window + 1)), h, w), big, dtype=np.int64)
    best_r = np.full((h, w), big, dtype=np.int64)
    disp_r = np.zeros((h, w), dtype=np.int32)
    for d in range(len(cost)):
        table = integral_image(np.abs(l[:, d:] - r[:, :w - d]))
        cost[d, half:h - half, d + half:w - half] = rect_sum(table, inner, outer, inner, outer)
        better = cost[d, :, d:] < best_r[:, :w - d]  # strict: ties keep the smaller d
        best_r[:, :w - d][better] = cost[d, :, d:][better]
        disp_r[:, :w - d][better] = d

    disp_l = np.argmin(cost, axis=0).astype(np.int32)
    best_l = np.take_along_axis(cost, disp_l[None], axis=0)[0]
    valid_l = best_l < big
    if uniqueness > 0 and n_d > 3:
        for offset in (-1, 0, 1):  # a clipped index stays within +/-1 of disp_l
            np.put_along_axis(cost, np.clip(disp_l[None] + offset, 0, len(cost) - 1), big, axis=0)
        second = cost.min(axis=0)
        valid_l &= ~((second < big) & (best_l * (1.0 + uniqueness) > second))

    rows = np.arange(h)[:, None]
    ur = np.arange(w) - disp_l
    ur_ok = valid_l & (ur >= 0)
    ur_c = np.where(ur_ok, ur, 0)
    consistent = ur_ok & (best_r[rows, ur_c] < big) & (np.abs(disp_l - disp_r[rows, ur_c]) <= 1)
    return np.where(consistent, disp_l, -1).astype(np.int32)


def disparity_to_points(disparity: np.ndarray, rig: StereoRig, step: int = 1) -> PointCloud:
    """Reproject valid, positive disparities on a step grid: Z = f b / d."""
    if step < 1:
        raise InputError("step must be >= 1")
    d = np.asarray(disparity)
    vs, us = np.mgrid[0:d.shape[0]:step, 0:d.shape[1]:step]
    dd = d[::step, ::step].astype(float)
    keep = dd > 0
    dd = dd[keep]
    us = us[keep].astype(float)
    vs = vs[keep].astype(float)
    z = rig.focal * rig.baseline / dd
    x = (us - rig.cx) * z / rig.focal
    y = (vs - rig.cy) * z / rig.focal
    return PointCloud(np.column_stack([x, y, z]))


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


def _canonical_orientation(n: np.ndarray) -> np.ndarray:
    """Flip the normal so it points toward camera up (-y), else +z, else +x."""
    for comp in (-n[1], n[2], n[0]):
        if abs(comp) > 1e-12:
            return n if comp > 0 else -n
    return n


def ransac_plane(pc: PointCloud, iterations: int, inlier_dist: float,
                 seed: int = 0) -> GroundPlane:
    """Classic 3-point RANSAC followed by a least-squares refit over inliers."""
    pts = pc.points
    if len(pts) < 3:
        raise DegenerateCloud(f"need at least 3 points, got {len(pts)}")
    rng = np.random.default_rng(seed)
    best_count = 0
    best = None
    for _ in range(iterations):
        i, j, k = rng.choice(len(pts), 3, replace=False)
        n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            continue  # collinear sample
        n = n / norm
        d = float(n @ pts[i])
        count = int((np.abs(pts @ n - d) <= inlier_dist).sum())
        if count > best_count:
            best_count = count
            best = (n, d)
    if best is None:
        raise DegenerateCloud("all RANSAC samples were collinear")
    n, d = best
    inliers = pts[np.abs(pts @ n - d) <= inlier_dist]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    n_ref = _canonical_orientation(vt[-1])
    d_ref = float(n_ref @ centroid)
    count = int((np.abs(pts @ n_ref - d_ref) <= inlier_dist).sum())
    return GroundPlane(normal=tuple(float(v) for v in n_ref), offset=d_ref,
                       inlier_count=count)


def extract_clusters(pc: PointCloud, plane: GroundPlane, protrusion: float,
                     link_dist: float, min_size: int) -> list[ObstacleCluster]:
    """Single-linkage clusters of points protruding above the ground plane.

    Neighbor search runs on a uniform grid of cell size link_dist, which
    gives the same connectivity as a KD-tree Euclidean clustering.
    """
    if protrusion <= 0:
        raise InputError("protrusion must be positive")
    heights = plane.height_above(pc.points)
    sel = np.flatnonzero(heights > protrusion)
    if len(sel) == 0:
        return []
    pts = pc.points[sel]
    hts = heights[sel]
    cells = np.floor(pts / link_dist).astype(np.int64)
    buckets: dict[tuple, list[int]] = {}
    for idx, c in enumerate(map(tuple, cells)):
        buckets.setdefault(c, []).append(idx)

    link2 = link_dist * link_dist
    offsets = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    pairs = []
    for cell, members in buckets.items():
        mpts = pts[members]
        for off in offsets:
            other = (cell[0] + off[0], cell[1] + off[1], cell[2] + off[2])
            if other not in buckets or other < cell:
                continue
            opts_idx = buckets[other]
            d2 = ((mpts[:, None, :] - pts[opts_idx][None, :, :]) ** 2).sum(axis=2)
            ii, jj = np.nonzero(d2 <= link2)
            pairs.extend((members[a], opts_idx[b]) for a, b in zip(ii, jj))

    clusters = []
    for members in connected_components(len(pts), pairs):
        if len(members) < min_size:
            continue
        sub = pts[members]
        centroid = sub.mean(axis=0)
        clusters.append(ObstacleCluster(
            centroid=tuple(float(v) for v in centroid),
            extent=tuple((float(sub[:, k].min()), float(sub[:, k].max())) for k in range(3)),
            point_count=len(members),
            max_protrusion=float(hts[members].max()),
        ))
    clusters.sort(key=lambda c: float(np.linalg.norm(c.centroid)))
    return clusters


def clusters_to_field(clusters, extrinsics) -> list[tuple[float, float]]:
    """Ground positions of obstacle clusters in the field frame.

    Thin composition over the camera extrinsics: rotate/translate each
    centroid into the field frame and drop the height.
    """
    r_wc = extrinsics.rotation_world_from_camera()
    origin = np.asarray(extrinsics.position)
    out = []
    for c in clusters:
        world = origin + r_wc @ np.asarray(c.centroid)
        out.append((float(world[0]), float(world[1])))
    return out


def detect_obstacles(left: Raster, right: Raster, rig: StereoRig,
                     params: StereoParams = StereoParams()):
    """Full stereo chain, block_match then obstacles_from_disparity;
    returns (GroundPlane, clusters)."""
    disparity = block_match(left, right, params.window, params.max_disparity)
    return obstacles_from_disparity(disparity, rig, params)


def obstacles_from_disparity(disparity: np.ndarray, rig: StereoRig, params: StereoParams):
    """The chain after block matching; returns (GroundPlane, clusters).

    Raises DegenerateCloud when the cloud cannot support a confident ground
    fit (too few points or the inlier ratio below the configured floor).
    """
    cloud = disparity_to_points(disparity, rig, params.step)
    binned = voxel_bin(cloud, params.voxel, params.min_points_per_voxel)
    plane = ransac_plane(binned, params.ransac_iterations, params.inlier_dist,
                         params.seed)
    if plane.inlier_count < params.min_ground_inlier_ratio * len(binned):
        raise DegenerateCloud(
            f"ground support too low: {plane.inlier_count}/{len(binned)} inliers")
    clusters = extract_clusters(binned, plane, params.protrusion,
                                params.link_dist, params.min_cluster_size)
    return plane, clusters
