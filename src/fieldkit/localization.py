"""Monte Carlo (particle filter) self-localization against the known field.

Observations arrive in the robot frame: infinite lines as (signed
perpendicular distance, direction mod pi), corners as (position,
orientation of the corner bisector), and point features (goal-post-like)
as bare positions. Lines carry orientation information, corners carry
both orientation and position, which is what makes a corner the most
informative of the three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import Degenerate, InputError
from .field_model import FieldPose, FieldSpec
from .geometry import normalize_angle, normalize_angles, points_segments_distance
from .line_vision import LineSegment, detect_corners

LINE = "line"
CORNER = "corner"
POINT = "point"


@dataclass(frozen=True)
class RobotObservation:
    """One feature seen by the robot, expressed in its own frame."""

    kind: str
    distance: float | None = None      # line: signed perpendicular distance (m)
    direction: float | None = None     # line: direction in [0, pi)
    position: tuple[float, float] | None = None   # corner/point: 2D position (m)
    orientation: float | None = None   # corner: bisector angle (rad)

    def __post_init__(self):
        if self.kind not in (LINE, CORNER, POINT):
            raise InputError(f"unknown observation kind {self.kind!r}")
        if self.kind == LINE and (self.distance is None or self.direction is None):
            raise InputError("line observation needs distance and direction")
        if self.kind in (CORNER, POINT) and self.position is None:
            raise InputError(f"{self.kind} observation needs a position")
        if self.kind == CORNER and self.orientation is None:
            raise InputError("corner observation needs an orientation")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == LINE:
            d["distance"] = self.distance
            d["direction"] = self.direction
        else:
            d["position"] = list(self.position)
            if self.kind == CORNER:
                d["orientation"] = self.orientation
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RobotObservation":
        kind = d["kind"]
        if kind == LINE:
            return cls(kind=LINE, distance=float(d["distance"]),
                       direction=float(d["direction"]))
        pos = (float(d["position"][0]), float(d["position"][1]))
        if kind == CORNER:
            return cls(kind=CORNER, position=pos, orientation=float(d["orientation"]))
        return cls(kind=POINT, position=pos)


def line_observation(distance: float, direction: float) -> RobotObservation:
    """Canonical line observation: direction folded into [0, pi), distance
    sign fixed by the normal (-sin d, cos d)."""
    d = direction % math.pi
    if d >= math.pi:  # fp edge: direction a hair under a multiple of pi
        d -= math.pi
    wraps = round((direction - d) / math.pi)
    # folding the direction by pi flips the normal, hence the signed distance
    dist = -distance if wraps % 2 else distance
    return RobotObservation(kind=LINE, distance=dist, direction=d)


def corner_observation(position, orientation: float) -> RobotObservation:
    return RobotObservation(kind=CORNER, position=(float(position[0]), float(position[1])),
                            orientation=normalize_angle(orientation))


def point_observation(position) -> RobotObservation:
    return RobotObservation(kind=POINT, position=(float(position[0]), float(position[1])))


@dataclass(frozen=True)
class SensorModel:
    """Gaussian residual scales plus the association gate and range limit."""

    sigma_d: float = 0.15      # line distance (m)
    sigma_p: float = 0.2       # corner/point position (m)
    sigma_theta: float = 0.15  # directions and orientations (rad)
    max_range: float = 4.0
    gate: float = 3.0          # residuals beyond gate sigmas score the floor
    floor: float = math.exp(-18.0)

    def __post_init__(self):
        # zero sigmas are allowed for noise-free generation; the likelihood
        # path rejects them (it divides by every sigma)
        if min(self.sigma_d, self.sigma_p, self.sigma_theta) < 0:
            raise InputError("sigmas must be non-negative")


@dataclass
class ParticleSet:
    """Pose hypotheses: poses is (N, 3) [x, y, theta]; weights sum to 1."""

    poses: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.poses = np.asarray(self.poses, dtype=float).reshape(-1, 3)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.poses) != len(self.weights) or len(self.poses) == 0:
            raise InputError("poses and weights must be non-empty and aligned")

    def __len__(self):
        return len(self.poses)

    @classmethod
    def uniform(cls, spec: FieldSpec, n: int, rng: np.random.Generator) -> "ParticleSet":
        poses = np.column_stack([
            rng.uniform(-spec.half_length, spec.half_length, n),
            rng.uniform(-spec.half_width, spec.half_width, n),
            rng.uniform(-math.pi, math.pi, n),
        ])
        return cls(poses, np.full(n, 1.0 / n))


# --- layout features ---------------------------------------------------------

@lru_cache(maxsize=8)
def _layout_features(spec: FieldSpec):
    """Field lines, corner junctions, and point landmarks in the field frame.

    Lines: (starts, ends, direction phi in [0, pi), normal, signed offset).
    Corners: junctions of the painted segments with L/T/X multiplicity, each
    carrying the bisector orientation of its arm pair.
    Points: the goal posts.
    """
    starts = np.array([seg[0] for seg in spec.line_segments], dtype=float)
    ends = np.array([seg[1] for seg in spec.line_segments], dtype=float)
    d = ends - starts
    phi = np.mod(np.arctan2(d[:, 1], d[:, 0]), math.pi)
    phi = np.where(phi >= math.pi, 0.0, phi)
    normals = np.column_stack([-np.sin(phi), np.cos(phi)])
    offsets = np.einsum("ij,ij->i", normals, starts)

    segs = [LineSegment(a, b) for a, b in spec.line_segments]
    junctions = detect_corners(segs, angle_tol=math.radians(5.0),
                               extend_tol=0.05, end_slack=0.02)
    cpos = np.array([j.position for j in junctions], dtype=float).reshape(-1, 2)
    corient = np.array([
        math.atan2(j.dir_a[1] + j.dir_b[1], j.dir_a[0] + j.dir_b[0])
        for j in junctions
    ])
    posts = np.array(spec.goal_posts, dtype=float)
    return (starts, ends, phi, normals, offsets), (cpos, corient), posts


def expected_observations(pose: FieldPose, spec: FieldSpec,
                          max_range: float) -> list[RobotObservation]:
    """Every layout feature within range, transformed into the robot frame."""
    (starts, ends, phi, normals, offsets), (cpos, corient), posts = _layout_features(spec)
    out: list[RobotObservation] = []
    p = np.array([pose.x, pose.y])
    seg_dist = points_segments_distance(p, starts, ends)[0]
    for i in np.flatnonzero(seg_dist <= max_range):
        d_r = float(offsets[i] - normals[i] @ p)
        out.append(line_observation(d_r, float(phi[i] - pose.theta)))
    c, s = math.cos(-pose.theta), math.sin(-pose.theta)
    rot = np.array([[c, -s], [s, c]])
    if len(cpos):
        rel = (cpos - p) @ rot.T
        rng_mask = np.hypot(rel[:, 0], rel[:, 1]) <= max_range
        for i in np.flatnonzero(rng_mask):
            out.append(corner_observation(tuple(rel[i]),
                                          corient[i] - pose.theta))
    rel = (posts - p) @ rot.T
    for i in np.flatnonzero(np.hypot(rel[:, 0], rel[:, 1]) <= max_range):
        out.append(point_observation(tuple(rel[i])))
    return out


# --- measurement model -------------------------------------------------------
#
# The expected features depend on the particle poses only, so they are
# computed once per update as (N particles, S features) arrays, and each
# observation is then one broadcast against them with a min over features.
# The arrays are built with the same elementwise operations, in the same
# order, as the per-feature reference loops in
# tests/test_localization_oracle.py, and update_and_resample multiplies the
# per-observation likelihoods into the weights in observation order. Both
# keep the weights bit-identical to that reference; reordering either one
# changes the last bits of the weights and with them every seeded run.

_RESIDUAL_DIMS = {LINE: 2, CORNER: 2, POINT: 1}


def _to_robot_frame(points: np.ndarray, poses: np.ndarray, max_range: float):
    """Field points (S, 2) seen from every pose: robot-frame x, y and the
    in-range mask, each (N, S)."""
    x, y, th = poses[:, :1], poses[:, 1:2], poses[:, 2]
    cth, sth = np.cos(-th)[:, None], np.sin(-th)[:, None]
    dx = points[:, 0] - x
    dy = points[:, 1] - y
    rel_x = cth * dx - sth * dy
    rel_y = sth * dx + cth * dy
    return rel_x, rel_y, np.hypot(rel_x, rel_y) <= max_range


def _expected_features(poses: np.ndarray, spec: FieldSpec, max_range: float) -> dict:
    """Pose-only expected features of each kind, (N, S) arrays.

    Lines: signed distance and direction in [0, pi) in the robot frame,
    plus the in-range mask. Corners: robot-frame position, in-range mask
    and field bisector minus heading. Points: robot-frame position and
    in-range mask.
    """
    (starts, ends, phi, normals, offsets), (cpos, corient), posts = _layout_features(spec)
    x, y, th = poses[:, :1], poses[:, 1:2], poses[:, 2:]
    d_exp = offsets - (normals[:, 0] * x + normals[:, 1] * y)
    raw = phi - th
    phi_exp = np.mod(raw, math.pi)
    phi_exp = np.where(phi_exp >= math.pi, phi_exp - math.pi, phi_exp)
    # folding the direction by pi flips the normal and the signed distance
    wraps = np.rint((raw - phi_exp) / math.pi)
    d_exp = np.where(wraps % 2 != 0, -d_exp, d_exp)
    in_range = points_segments_distance(poses[:, :2], starts, ends) <= max_range
    return {LINE: (d_exp, phi_exp, in_range),
            CORNER: (*_to_robot_frame(cpos, poses, max_range), corient - th),
            POINT: _to_robot_frame(posts, poses, max_range)}


def _residuals_sq(obs: RobotObservation, expected: dict, sm: SensorModel) -> np.ndarray:
    """Min squared normalized residual of one observation per particle, over
    the in-range features of its kind (inf when none is in range)."""
    if obs.kind == LINE:
        d_exp, phi_exp, in_range = expected[LINE]
        dphi = np.abs(phi_exp - obs.direction)
        flip = dphi > math.pi / 2
        ddist = np.where(flip, d_exp + obs.distance, d_exp - obs.distance)
        dphi = np.where(flip, math.pi - dphi, dphi)
        r2 = (ddist / sm.sigma_d) ** 2 + (dphi / sm.sigma_theta) ** 2
    else:
        rel_x, rel_y, in_range = expected[obs.kind][:3]
        dp2 = (rel_x - obs.position[0]) ** 2 + (rel_y - obs.position[1]) ** 2
        r2 = dp2 / sm.sigma_p ** 2
        if obs.kind == CORNER:
            dth = np.abs(normalize_angles(expected[CORNER][3] - obs.orientation))
            r2 = r2 + (dth / sm.sigma_theta) ** 2
    return np.min(np.where(in_range, r2, np.inf), axis=1, initial=np.inf)


def _observation_likelihoods(observations, poses: np.ndarray, spec: FieldSpec,
                             sm: SensorModel):
    """Per-particle likelihood of each observation, yielded in order: a
    Gaussian kernel on the best-matching feature, gated and floored."""
    observations = list(observations)
    if not observations:
        return
    if min(sm.sigma_d, sm.sigma_p, sm.sigma_theta) <= 0:
        raise InputError("likelihood evaluation needs positive sigmas")
    expected = _expected_features(poses, spec, sm.max_range)
    for obs in observations:
        r2 = _residuals_sq(obs, expected, sm)
        score = np.exp(-0.5 * np.minimum(r2, 1e6))
        gated = r2 > sm.gate ** 2 * _RESIDUAL_DIMS[obs.kind]
        yield np.where(gated, sm.floor, np.maximum(score, sm.floor))


def observation_likelihood(obs: RobotObservation, pose: FieldPose,
                           spec: FieldSpec, sigmas: SensorModel) -> float:
    """Score of one observation under one pose hypothesis (1.0 at zero residual)."""
    poses = np.array([[pose.x, pose.y, pose.theta]])
    return float(next(_observation_likelihoods([obs], poses, spec, sigmas))[0])


# --- filter steps ------------------------------------------------------------

def predict(particles: ParticleSet, odometry, noise_std,
            rng: np.random.Generator) -> ParticleSet:
    """Advance each particle by the robot-frame odometry delta plus noise."""
    dx, dy, dth = (float(v) for v in odometry)
    sx, sy, sth = (float(v) for v in noise_std)
    if min(sx, sy, sth) < 0:
        raise InputError("noise_std must be non-negative")
    n = len(particles)
    ex = dx + (rng.normal(0.0, sx, n) if sx > 0 else 0.0)
    ey = dy + (rng.normal(0.0, sy, n) if sy > 0 else 0.0)
    eth = dth + (rng.normal(0.0, sth, n) if sth > 0 else 0.0)
    th = particles.poses[:, 2]
    c, s = np.cos(th), np.sin(th)
    poses = np.column_stack([
        particles.poses[:, 0] + c * ex - s * ey,
        particles.poses[:, 1] + s * ex + c * ey,
        normalize_angles(th + eth),
    ])
    return ParticleSet(poses, particles.weights.copy())


def update_and_resample(particles: ParticleSet, observations, spec: FieldSpec,
                        sigmas: SensorModel, rng: np.random.Generator) -> ParticleSet:
    """Weight particles by the observation likelihood product, then resample
    systematically when the effective sample size drops below half."""
    w = particles.weights.copy()
    for lik in _observation_likelihoods(observations, particles.poses, spec, sigmas):
        w = w * lik
    total = w.sum()
    if total == 0.0:
        raise Degenerate("all particle weights underflowed to zero")
    w = w / total
    n = len(particles)
    ess = 1.0 / float(w @ w)
    if ess >= 0.5 * n:
        return ParticleSet(particles.poses.copy(), w)
    positions = (rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(w), positions)
    idx = np.clip(idx, 0, n - 1)
    return ParticleSet(particles.poses[idx], np.full(n, 1.0 / n))


def estimate_pose(particles: ParticleSet):
    """Weighted mean pose and spread: (FieldPose, (sigma_xy m, sigma_theta rad)).

    Theta uses the circular mean; sigma_theta is the circular standard
    deviation sqrt(-2 ln R).
    """
    w = particles.weights / particles.weights.sum()
    x = float(w @ particles.poses[:, 0])
    y = float(w @ particles.poses[:, 1])
    cs = float(w @ np.cos(particles.poses[:, 2]))
    sn = float(w @ np.sin(particles.poses[:, 2]))
    theta = math.atan2(sn, cs)
    var_xy = float(w @ ((particles.poses[:, 0] - x) ** 2
                        + (particles.poses[:, 1] - y) ** 2))
    r_bar = min(1.0, math.hypot(cs, sn))
    sigma_theta = math.sqrt(max(0.0, -2.0 * math.log(max(r_bar, 1e-300))))
    return FieldPose(x, y, theta), (math.sqrt(var_xy), sigma_theta)


def posterior_support(particles: ParticleSet, xy_bin: float = 0.25,
                      theta_bins: int = 72, half_length: float = 4.5,
                      half_width: float = 3.0):
    """Effective posterior support: (position area m^2, orientation width rad).

    Both are histogram perplexities (exp of entropy) scaled to physical
    units. Unlike a circular standard deviation, these stay small for a
    sharp multimodal posterior (four orientation modes at 90 degrees is a
    narrow support, not a near-uniform circle), which is what makes the
    corner/line/point information ordering measurable.
    """
    w = particles.weights / particles.weights.sum()
    poses = particles.poses

    def perplexity(p):
        nz = p[p > 0]
        return math.exp(-(nz * np.log(nz)).sum())

    hxy, _, _ = np.histogram2d(
        poses[:, 0], poses[:, 1],
        bins=[np.arange(-half_length, half_length + xy_bin, xy_bin),
              np.arange(-half_width, half_width + xy_bin, xy_bin)],
        weights=w)
    area = perplexity(hxy.ravel() / hxy.sum()) * xy_bin * xy_bin
    hth, _ = np.histogram(np.mod(poses[:, 2], 2 * math.pi), bins=theta_bins,
                          range=(0.0, 2 * math.pi), weights=w)
    width = perplexity(hth / hth.sum()) * (2 * math.pi / theta_bins)
    return area, width


def estimate_dominant_pose(particles: ParticleSet, radius_xy: float = 0.5,
                           radius_theta: float = 0.5):
    """Pose of the heaviest local particle cluster.

    The global weighted mean is meaningless when the posterior is multimodal
    (the default layout is 180-degree symmetric, so two equal modes persist);
    this picks the strongest mode and averages within it.
    """
    w = particles.weights / particles.weights.sum()
    poses = particles.poses
    # weight captured within the radius around each particle, O(N^2) on
    # moderate N; particles are a few hundred to a few thousand
    dx = poses[:, 0][:, None] - poses[:, 0][None, :]
    dy = poses[:, 1][:, None] - poses[:, 1][None, :]
    dth = np.abs(normalize_angles(poses[:, 2][:, None] - poses[:, 2][None, :]))
    near = (dx * dx + dy * dy <= radius_xy ** 2) & (dth <= radius_theta)
    mass = near @ w
    k = int(np.argmax(mass))
    sel = near[k]
    ws = w[sel] / w[sel].sum()
    sub = poses[sel]
    x = float(ws @ sub[:, 0])
    y = float(ws @ sub[:, 1])
    theta = math.atan2(float(ws @ np.sin(sub[:, 2])), float(ws @ np.cos(sub[:, 2])))
    return FieldPose(x, y, theta)


class MonteCarloFilter:
    """Convenience wrapper owning the particle set, config and RNG."""

    def __init__(self, spec: FieldSpec, n_particles: int = 500,
                 sigmas: SensorModel = SensorModel(), seed: int = 0):
        self.spec = spec
        self.sigmas = sigmas
        self.rng = np.random.default_rng(seed)
        self.particles = ParticleSet.uniform(spec, n_particles, self.rng)

    def step(self, odometry, noise_std, observations) -> None:
        self.particles = predict(self.particles, odometry, noise_std, self.rng)
        self.particles = update_and_resample(self.particles, observations,
                                             self.spec, self.sigmas, self.rng)

    def estimate(self):
        return estimate_pose(self.particles)

    def dominant(self):
        return estimate_dominant_pose(self.particles)
