"""Stereo ground-plane obstacle detection.

A rectified pair goes through SAD block matching with a left-right
consistency check, reprojection of the disparity map to a camera-frame
point cloud, voxel binning for noise rejection, a RANSAC ground-plane fit,
and single-linkage clustering of the points protruding above the plane.
Each stage reads its settings from a StereoParams, checked when it is built.
Block matching runs only on the rows of the params.step grid, the rows the
reprojection samples, and RANSAC scores its hypotheses in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud, DimensionMismatch, InputError, check_fields
from .geometry import connected_components
from .raster import Raster

# block_match's best SAD, times 1 + this, must not exceed the best outside +/-1
UNIQUENESS_MARGIN = 0.15
# ransac_plane scores this many hypotheses per product
RANSAC_BLOCK = 64
# a sample whose cross product is shorter than this is collinear
COLLINEAR_NORM = 1e-12


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
        check_fields(self, "rig", ((("baseline", "focal"), lambda v: 0 < v < math.inf,
                                    "positive and finite"),))


@dataclass(frozen=True)
class StereoParams:
    """Every stereo setting; each stage of detect_obstacles reads its own."""

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

    def __post_init__(self):
        check_fields(self, "stereo params", (
            (("window",), lambda v: v >= 1 and v % 2 == 1, "odd and at least 1"),
            (("max_disparity", "seed"), lambda v: v >= 0, "non-negative"),
            (("step", "ransac_iterations"), lambda v: v >= 1, "at least 1"),
            (("voxel", "inlier_dist", "protrusion", "link_dist"),
             lambda v: 0 < v < math.inf, "positive and finite"),
            (("min_ground_inlier_ratio",), lambda v: 0 <= v <= 1, "in [0, 1]"),
        ))


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


def _run_sum(a: np.ndarray, n: int, step: int) -> np.ndarray:
    """out[i] = a[i] + a[i + step] + ... + a[i + (n - 1) step] for a 1-D a.

    The length is len(a) - (n - 1) step, which must be positive. Doubling:
    s_2k[i] = s_k[i] + s_k[i + k step], and the sum of n adds the s_k of n's
    set bits k at offsets 0, k1, k1 + k2, ... steps, so O(log n) shifted
    adds in a's dtype. On a flattened 2-D array, step = row length sums
    along axis 0 and step = 1 along axis 1, where the sums that run into the
    next row are the caller's to discard.
    """
    count = len(a) - (n - 1) * step
    out, offset, part, k = None, 0, a, 1
    while k <= n:
        if n & k:
            piece = part[offset:offset + count]
            out = piece if out is None else out + piece
            offset += k * step
        if 2 * k <= n:
            part = part[:-k * step] + part[k * step:]
        k *= 2
    return out


def _key_dtype(window: int, shift: int):
    """int32 while every key (c << shift) | d, with c <= 255 window^2, stays
    below int32's max (the sentinel), else int64."""
    return np.int32 if (255 * window * window + 1) << shift < 2**31 else np.int64


def block_match(left: Raster, right: Raster, params: StereoParams) -> np.ndarray:
    """Integer disparity map minimizing windowed SAD, on the params.step grid.

    Returns int32 (H, W). Only the rows that are multiples of params.step are
    matched, the rows disparity_to_points reads; every other row, and every
    invalid pixel, is -1. Flat-cost ties resolve to the smallest disparity.
    Two validity filters: the best cost must beat the best outside +/-1
    disparity by UNIQUENESS_MARGIN, and the left-right consistency check
    tolerates 1 px. Both stay within one row, as do the horizontal window
    sums, so a matched row equals the row of a full match.

    Memory is O(H W), with no cost volume and the keys held on the grid rows
    only: one pass over the min(max_disparity + 1, W - window + 1)
    disparities sums each pixel's SAD down its window on every row, then
    across the window on the grid rows, and packs each SAD c into the key
    (c << shift) | d, so an elementwise minimum keeps the smallest cost and,
    among equal costs, the smallest d. Running minima of the keys give the
    left best, the right best (SAD_r(u, d) = SAD_l(u + d, d)) and, for the
    uniqueness test, the four smallest keys per pixel: at most two of the
    last three are the winner's neighbours, so they hold the best key
    outside +/-1 of it.
    """
    if left.luma.shape != right.luma.shape:
        raise DimensionMismatch("stereo pair shapes differ")
    window, step = params.window, params.step
    h, w = left.luma.shape
    n_d = params.max_disparity + 1
    n_layers = min(n_d, w - window + 1)
    disparity = np.full((h, w), -1, dtype=np.int32)
    half = window // 2
    first = -(-half // step) * step  # the first grid row whose window fits
    if first > h - 1 - half or n_layers < 1:
        return disparity  # no window fits inside the image on the grid
    shift = (n_layers - 1).bit_length()
    mask = (1 << shift) - 1
    dtype = _key_dtype(window, shift)
    # no window inside the image; its low bits are all ones, so | d keeps it
    none = np.iinfo(dtype).max
    # shifted, so |l - r| and its sums come out as c << shift
    l = left.luma.astype(dtype).ravel() << shift
    r = right.luma.astype(dtype).ravel() << shift

    # state covers the grid rows, state row t centred on image row first + t step
    n_rows = (h - 1 - half - first) // step + 1
    key = np.full((n_rows, w), none, dtype=dtype)
    flat = key.ravel()
    best = np.full((4 if n_d > 3 else 1, flat.size), none, dtype=dtype)
    right_best = np.full(flat.size, none, dtype=dtype)
    scratch = np.empty_like(flat)
    diff = np.empty_like(l)
    for d in range(n_layers):
        # diff[i] pairs left pixel i with right pixel i - d; columns below d
        # pair with the row above, diff[:d] keeps an earlier layer's values,
        # and the windows that read either are set to none below
        part = diff[d:]
        np.abs(np.subtract(l[d:], r[:l.size - d], out=part), out=part)
        # column sums down every window, then across those of the grid rows
        columns = _run_sum(diff, window, w).reshape(-1, w)[first - half::step]
        sums = _run_sum(columns.ravel(), window, 1)
        # the window whose top-left is pixel j centres on key[j + half]
        flat[half:half + sums.size] = sums
        key[:, :d + half] = none  # its window leaves the right image
        key[:, w - half:] = none  # its window leaves both images
        flat |= d
        for i in range(len(best) - 1, 0, -1):  # sorted insertion: min(b_i, max(b_i-1, key))
            np.minimum(best[i], np.maximum(best[i - 1], flat, out=scratch), out=best[i])
        np.minimum(best[0], flat, out=best[0])
        # right pixel j sees left pixel j + d; a wrap into the next row lands on none
        np.minimum(right_best[:flat.size - d], flat[d:], out=right_best[:flat.size - d])

    best = best.reshape(len(best), n_rows, w)
    valid_l = best[0] != none
    disp_l = best[0] & mask
    if len(best) > 1:
        near = np.abs((best[1:3] & mask) - disp_l) <= 1
        second = np.where(near[0], np.where(near[1], best[3], best[2]), best[1])
        ambiguous = (best[0] >> shift) * (1.0 + UNIQUENESS_MARGIN) > (second >> shift)
        valid_l &= (second == none) | ~ambiguous

    rows = np.arange(n_rows)[:, None]
    ur = np.arange(w) - disp_l
    ur_ok = valid_l & (ur >= 0)
    matched = right_best.reshape(n_rows, w)[rows, np.where(ur_ok, ur, 0)]
    consistent = ur_ok & (matched != none) & (np.abs(disp_l - (matched & mask)) <= 1)
    disparity[first:h - half:step] = np.where(consistent, disp_l, -1)
    return disparity


def disparity_to_points(disparity: np.ndarray, rig: StereoRig, params: StereoParams) -> PointCloud:
    """Reproject valid, positive disparities on a params.step grid: Z = f b / d."""
    d = np.asarray(disparity)
    vs, us = np.mgrid[0:d.shape[0]:params.step, 0:d.shape[1]:params.step]
    dd = d[::params.step, ::params.step].astype(float)
    keep = dd > 0
    dd = dd[keep]
    us = us[keep].astype(float)
    vs = vs[keep].astype(float)
    z = rig.focal * rig.baseline / dd
    x = (us - rig.cx) * z / rig.focal
    y = (vs - rig.cy) * z / rig.focal
    return PointCloud(np.column_stack([x, y, z]))


def _cell_keys(points: np.ndarray, size: float, name: str) -> np.ndarray:
    """floor(points / size) as int64 cell keys, each with room for a
    neighbour's +/-1; a tiny size on a wide cloud is refused."""
    if len(points) and not float(np.abs(points).max()) < 2.0**62 * size:
        raise InputError(f"{name} {size!r} is too small for the cloud: cell keys overflow int64")
    return np.floor(points / size).astype(np.int64)


def voxel_bin(pc: PointCloud, params: StereoParams) -> PointCloud:
    """Centroid per occupied voxel; voxels with too few points are dropped."""
    keys = _cell_keys(pc.points, params.voxel, "voxel")
    if len(pc) == 0:
        return PointCloud(np.zeros((0, 3)))
    # voxel ids in np.unique(keys, axis=0)'s lexicographic order
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    counts = np.bincount(inverse)
    # bincount adds each voxel's points in index order, as np.add.at does
    sums = np.column_stack([np.bincount(inverse, weights=pc.points[:, j]) for j in range(3)])
    centroids = sums / counts[:, None]
    return PointCloud(centroids[counts >= params.min_points_per_voxel])


def _canonical_orientation(n: np.ndarray) -> np.ndarray:
    """Flip the normal so it points toward camera up (-y), else +z, else +x."""
    for comp in (-n[1], n[2], n[0]):
        if abs(comp) > 1e-12:
            return n if comp > 0 else -n
    return n


def _plane_through(pts: np.ndarray, i, j, k):
    """Unit normal n and offset d of the plane n . x = d through pts[i],
    pts[j] and pts[k], or None when they are collinear."""
    n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
    norm = np.linalg.norm(n)
    if norm < COLLINEAR_NORM:
        return None
    n = n / norm
    return n, float(n @ pts[i])


def _inlier_count(pts: np.ndarray, n: np.ndarray, d: float, inlier_dist: float) -> int:
    return int((np.abs(pts @ n - d) <= inlier_dist).sum())


def _sample_counts(pts: np.ndarray, samples: np.ndarray, inlier_dist: float) -> np.ndarray:
    """_inlier_count of _plane_through each (i, j, k) row of samples, or 0
    when collinear, from one (N, B) product.

    That product rounds residuals differently from _inlier_count's
    matrix-vector product, so a sample with a residual, or a normal's
    length, within rounding of its threshold is counted again the scalar way.
    """
    # far above the few ulps by which the two residuals can differ
    slack = 1e-12 * (float(np.abs(pts).max()) + inlier_dist)
    origin = pts[samples[:, 0]]
    normals = np.cross(pts[samples[:, 1]] - origin, pts[samples[:, 2]] - origin)
    norms = np.linalg.norm(normals, axis=1)
    planar = norms >= COLLINEAR_NORM
    normals /= np.where(planar, norms, 1.0)[:, None]
    residual = pts @ normals.T
    residual -= np.einsum("ij,ij->i", normals, origin)
    np.abs(residual, out=residual)
    counts = np.count_nonzero(residual <= inlier_dist, axis=0)
    counts[~planar] = 0
    residual -= inlier_dist
    np.abs(residual, out=residual)
    recount = ((residual <= slack).any(axis=0)
               | (np.abs(norms - COLLINEAR_NORM) <= 1e-12 * COLLINEAR_NORM))
    for h in np.flatnonzero(recount):
        plane = _plane_through(pts, *samples[h])
        counts[h] = 0 if plane is None else _inlier_count(pts, *plane, inlier_dist)
    return counts


def ransac_plane(pc: PointCloud, params: StereoParams) -> GroundPlane:
    """Classic 3-point RANSAC followed by a least-squares refit over inliers.

    Samples are scored RANSAC_BLOCK at a time (_sample_counts), so memory is
    O(N RANSAC_BLOCK) for any ransac_iterations. The first sample with the
    most inliers wins, and its plane is recomputed alone for the refit.
    """
    pts = pc.points
    if len(pts) < 3:
        raise DegenerateCloud(f"need at least 3 points, got {len(pts)}")
    rng = np.random.default_rng(params.seed)
    best_count = 0
    best = None
    for start in range(0, params.ransac_iterations, RANSAC_BLOCK):
        size = min(RANSAC_BLOCK, params.ransac_iterations - start)
        samples = np.array([rng.choice(len(pts), 3, replace=False) for _ in range(size)])
        counts = _sample_counts(pts, samples, params.inlier_dist)
        h = int(np.argmax(counts))
        if counts[h] > best_count:  # strict, so the earliest maximum wins
            best_count = counts[h]
            best = samples[h]
    if best is None:
        raise DegenerateCloud("all RANSAC samples were collinear")
    n, d = _plane_through(pts, *best)
    inliers = pts[np.abs(pts @ n - d) <= params.inlier_dist]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    n_ref = _canonical_orientation(vt[-1])
    d_ref = float(n_ref @ centroid)
    return GroundPlane(normal=tuple(float(v) for v in n_ref), offset=d_ref,
                       inlier_count=_inlier_count(pts, n_ref, d_ref, params.inlier_dist))


def extract_clusters(pc: PointCloud, plane: GroundPlane,
                     params: StereoParams) -> list[ObstacleCluster]:
    """Single-linkage clusters of points protruding above the ground plane.

    Neighbor search runs on a uniform grid of cell size link_dist, which
    gives the same connectivity as a KD-tree Euclidean clustering.
    """
    heights = plane.height_above(pc.points)
    sel = np.flatnonzero(heights > params.protrusion)
    pts = pc.points[sel]
    hts = heights[sel]
    cells = _cell_keys(pts, params.link_dist, "link_dist")
    if len(sel) == 0:
        return []
    buckets: dict[tuple, list[int]] = {}
    for idx, c in enumerate(map(tuple, cells)):
        buckets.setdefault(c, []).append(idx)

    link2 = params.link_dist * params.link_dist
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
        if len(members) < params.min_cluster_size:
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
    disparity = block_match(left, right, params)
    return obstacles_from_disparity(disparity, rig, params)


def obstacles_from_disparity(disparity: np.ndarray, rig: StereoRig, params: StereoParams):
    """The chain after block matching; returns (GroundPlane, clusters).

    Raises DegenerateCloud when the cloud cannot support a confident ground
    fit (too few points or the inlier ratio below the configured floor).
    """
    binned = voxel_bin(disparity_to_points(disparity, rig, params), params)
    plane = ransac_plane(binned, params)
    if plane.inlier_count < params.min_ground_inlier_ratio * len(binned):
        raise DegenerateCloud(
            f"ground support too low: {plane.inlier_count}/{len(binned)} inliers")
    return plane, extract_clusters(binned, plane, params)
