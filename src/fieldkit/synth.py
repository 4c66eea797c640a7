"""Synthetic world: field renders (perspective, birdview, stereo) and
observation trajectories, all with known ground truth and seeded noise.

Rendering is flat shaded; the tests need geometric fidelity, not realism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .birdview import BirdviewSpec, CameraExtrinsics, CameraIntrinsics, _undistort_normalized
from .field_model import FieldPose, FieldSpec
from .geometry import points_segments_distance
from .localization import (
    CORNER,
    LINE,
    SensorModel,
    corner_observation,
    expected_observations,
    line_observation,
    point_observation,
)
from .raster import Raster, add_noise
from .stereo_obstacles import StereoRig

GRASS_LUMA, GRASS_GREEN = 84, 85
LINE_LUMA, LINE_GREEN = 255, 0
BOX_LUMA, BOX_GREEN = 150, 10
SKY_LUMA, SKY_GREEN = 0, 0


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned box standing on the field: square footprint, given height."""

    x: float
    y: float
    radius: float
    height: float


@dataclass(frozen=True)
class Scene:
    field: FieldSpec = field(default_factory=FieldSpec)
    robot: FieldPose = FieldPose(0.0, 0.0, 0.0)
    obstacles: tuple[Obstacle, ...] = ()
    noise_sigma: float = 0.0
    seed: int = 0


def paint_ground(spec: FieldSpec, xs: np.ndarray, ys: np.ndarray):
    """Flat ground colors at field coordinates: white lines on green grass."""
    half = spec.line_width / 2.0
    on_line = np.zeros(xs.shape, dtype=bool)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    # one segment per call: all segments at once would hold several
    # (pixels x segments) temporaries
    for a, b in spec.line_segments:
        d = points_segments_distance(pts, a, b)
        on_line |= (d <= half).reshape(xs.shape)
    ring = np.abs(np.hypot(xs - spec.circle_center[0], ys - spec.circle_center[1])
                  - spec.circle_radius)
    on_line |= ring <= half
    luma = np.where(on_line, LINE_LUMA, GRASS_LUMA).astype(np.uint8)
    green = np.where(on_line, LINE_GREEN, GRASS_GREEN).astype(np.uint8)
    return luma, green


def _hash01(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Deterministic lattice hash in [0, 1) from integer cell coordinates."""
    a = ix.astype(np.uint64) * np.uint64(73856093)
    b = iy.astype(np.uint64) * np.uint64(19349663)
    c = iz.astype(np.uint64) * np.uint64(83492791)
    h = (a ^ b ^ c) * np.uint64(2654435761)
    h ^= h >> np.uint64(16)
    return (h & np.uint64(0xFFFFFF)).astype(np.float64) / float(0x1000000)


def surface_texture(pts: np.ndarray, scale: float = 0.004, amplitude: float = 25.0):
    """High-frequency texture attached to world coordinates (stereo needs it)."""
    cells = np.floor(pts / scale).astype(np.int64)
    return (_hash01(cells[:, 0], cells[:, 1], cells[:, 2]) - 0.5) * 2.0 * amplitude


def render_birdview(scene: Scene, bspec: BirdviewSpec) -> Raster:
    """Orthographic top-down render of the field on the birdview pixel grid."""
    rows, cols = np.mgrid[0:bspec.out_height, 0:bspec.out_width]
    fx, fy = bspec.pixel_to_field(cols, rows)
    luma, green = paint_ground(scene.field, fx, fy)
    for ob in scene.obstacles:
        inside = (np.abs(fx - ob.x) <= ob.radius) & (np.abs(fy - ob.y) <= ob.radius)
        luma = np.where(inside, BOX_LUMA, luma).astype(np.uint8)
        green = np.where(inside, BOX_GREEN, green).astype(np.uint8)
    out = Raster(luma, green)
    if scene.noise_sigma > 0:
        out = add_noise(out, scene.noise_sigma, np.random.default_rng(scene.seed))
    return out


def _pixel_rays(intr: CameraIntrinsics, ex: CameraExtrinsics):
    """World-frame unit-z-normalized ray directions for every pixel center."""
    rows, cols = np.mgrid[0:intr.height, 0:intr.width]
    xd = (cols.ravel() - intr.cx) / intr.fx
    yd = (rows.ravel() - intr.cy) / intr.fy
    xn, yn = _undistort_normalized(xd, yd, intr)
    dirs_cam = np.column_stack([xn, yn, np.ones(xn.size)])
    r_wc = ex.rotation_world_from_camera()
    return dirs_cam @ r_wc.T


def _raycast(scene: Scene, intr: CameraIntrinsics, ex: CameraExtrinsics,
             textured: bool):
    """Nearest-hit shading of ground plane and obstacle boxes per pixel."""
    dirs = _pixel_rays(intr, ex)
    origin = np.asarray(ex.position)
    n = len(dirs)
    t_hit = np.full(n, np.inf)
    luma = np.full(n, SKY_LUMA, dtype=np.float64)
    green = np.full(n, SKY_GREEN, dtype=np.float64)

    descending = dirs[:, 2] < -1e-12
    t_ground = np.where(descending, -origin[2] / np.where(descending, dirs[:, 2], -1.0), np.inf)
    hit_g = np.isfinite(t_ground)
    ground_pts = origin + np.where(hit_g, t_ground, 0.0)[:, None] * dirs
    gl, gg = paint_ground(scene.field, ground_pts[:, 0], ground_pts[:, 1])
    t_hit = np.where(hit_g, t_ground, t_hit)
    luma = np.where(hit_g, gl, luma)
    green = np.where(hit_g, gg, green)

    for ob in scene.obstacles:
        lo = np.array([ob.x - ob.radius, ob.y - ob.radius, 0.0])
        hi = np.array([ob.x + ob.radius, ob.y + ob.radius, ob.height])
        inv = np.where(np.abs(dirs) > 1e-15, 1.0 / dirs, np.inf)
        t0 = (lo - origin) * inv
        t1 = (hi - origin) * inv
        t_near = np.minimum(t0, t1).max(axis=1)
        t_far = np.maximum(t0, t1).min(axis=1)
        hit = (t_far >= t_near) & (t_far > 1e-9)
        t_box = np.where(t_near > 1e-9, t_near, t_far)
        closer = hit & (t_box < t_hit)
        t_hit = np.where(closer, t_box, t_hit)
        luma = np.where(closer, BOX_LUMA, luma)
        green = np.where(closer, BOX_GREEN, green)

    if textured:
        ok = np.isfinite(t_hit)
        pts = origin + np.where(ok, t_hit, 0.0)[:, None] * dirs
        tex = surface_texture(pts)
        luma = np.where(ok, luma + tex, luma)

    shape = (intr.height, intr.width)
    luma = np.clip(np.rint(luma), 0, 255).astype(np.uint8).reshape(shape)
    green = np.clip(np.rint(green), 0, 255).astype(np.uint8).reshape(shape)
    return Raster(luma, green)


def render_field(scene: Scene, intr: CameraIntrinsics, ex: CameraExtrinsics,
                 textured: bool = False) -> Raster:
    """Perspective render through the given camera (distortion included)."""
    out = _raycast(scene, intr, ex, textured)
    if scene.noise_sigma > 0:
        out = add_noise(out, scene.noise_sigma, np.random.default_rng(scene.seed))
    return out


def render_stereo(scene: Scene, rig: StereoRig, ex: CameraExtrinsics):
    """Textured rectified pair; the right camera is shifted by the baseline
    along the camera x axis."""
    intr = CameraIntrinsics(fx=rig.focal, fy=rig.focal, cx=rig.cx, cy=rig.cy,
                            width=rig.width, height=rig.height)
    r_wc = ex.rotation_world_from_camera()
    shift = r_wc @ np.array([rig.baseline, 0.0, 0.0])
    ex_right = CameraExtrinsics(position=tuple(np.asarray(ex.position) + shift),
                                rpy=ex.rpy)
    left = _raycast(scene, intr, ex, textured=True)
    right = _raycast(scene, intr, ex_right, textured=True)
    if scene.noise_sigma > 0:
        rng = np.random.default_rng(scene.seed)
        left = add_noise(left, scene.noise_sigma, rng)
        right = add_noise(right, scene.noise_sigma, rng)
    return left, right


def generate_trajectory(scene: Scene, steps: int, odom_noise, obs_sigmas: SensorModel,
                        seed: int = 0) -> dict:
    """Seeded random walk with noisy odometry and observations plus ground truth.

    Returns a JSON-ready dict: one entry per step with the robot-frame
    odometry delta, the noisy observations, and the true pose.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    spec = scene.field
    pose = scene.robot
    sx, sy, sth = (float(v) for v in odom_noise)
    entries = []
    for _ in range(steps):
        forward = float(rng.uniform(0.05, 0.15))
        turn = float(rng.normal(0.0, 0.2))
        # steer back toward the field center when drifting out
        nx = pose.x + forward * math.cos(pose.theta)
        ny = pose.y + forward * math.sin(pose.theta)
        if abs(nx) > spec.half_length - 0.4 or abs(ny) > spec.half_width - 0.4:
            to_center = math.atan2(-pose.y, -pose.x)
            turn = float(np.clip(to_center - pose.theta, -0.5, 0.5))
        new_pose = FieldPose(pose.x + forward * math.cos(pose.theta),
                             pose.y + forward * math.sin(pose.theta),
                             pose.theta + turn)
        # true delta expressed in the previous robot frame
        dxw = new_pose.x - pose.x
        dyw = new_pose.y - pose.y
        c, s = math.cos(-pose.theta), math.sin(-pose.theta)
        delta = (c * dxw - s * dyw, s * dxw + c * dyw, turn)
        odom = [delta[0] + rng.normal(0.0, sx) if sx > 0 else delta[0],
                delta[1] + rng.normal(0.0, sy) if sy > 0 else delta[1],
                delta[2] + rng.normal(0.0, sth) if sth > 0 else delta[2]]
        observations = []
        for obs in expected_observations(new_pose, spec, obs_sigmas.max_range):
            observations.append(_perturb(obs, obs_sigmas, rng))
        entries.append({
            "odometry": [float(v) for v in odom],
            "observations": [o.to_dict() for o in observations],
            "ground_truth": [new_pose.x, new_pose.y, new_pose.theta],
        })
        pose = new_pose
    return {
        "steps": entries,
        "odom_noise": [sx, sy, sth],
        "sigmas": {"sigma_d": obs_sigmas.sigma_d, "sigma_p": obs_sigmas.sigma_p,
                   "sigma_theta": obs_sigmas.sigma_theta,
                   "max_range": obs_sigmas.max_range},
    }


def _perturb(obs, sm: SensorModel, rng: np.random.Generator):
    if sm.sigma_d == 0 and sm.sigma_p == 0 and sm.sigma_theta == 0:
        return obs
    if obs.kind == LINE:
        return line_observation(obs.distance + rng.normal(0.0, sm.sigma_d),
                                obs.direction + rng.normal(0.0, sm.sigma_theta))
    if obs.kind == CORNER:
        p = (obs.position[0] + rng.normal(0.0, sm.sigma_p),
             obs.position[1] + rng.normal(0.0, sm.sigma_p))
        return corner_observation(p, obs.orientation + rng.normal(0.0, sm.sigma_theta))
    return point_observation((obs.position[0] + rng.normal(0.0, sm.sigma_p),
                              obs.position[1] + rng.normal(0.0, sm.sigma_p)))
