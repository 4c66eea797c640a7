"""Monte Carlo (particle filter) self-localization against the known field.

Observations arrive in the robot frame: infinite lines as (signed
perpendicular distance, direction mod pi), corners as (position,
orientation of the corner bisector), and point features (goal-post-like)
as bare positions. Lines carry orientation information, corners carry
both orientation and position, which is what makes a corner the most
informative of the three. One robot-frame feature model, _expected_features,
scores particles in update_and_resample and, read at one pose by
expected_observations, gives synth its observations. Each particle scores
an observation on its nearest in-range feature: one np.minimum.reduceat over
its run of the row-major (particle, feature) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import Degenerate, InputError
from .field_model import FieldPose, FieldSpec
from .geometry import normalize_angle, normalize_angles, segment_distance, segment_terms
from .line_vision import LineSegment, detect_corners

LINE = "line"
CORNER = "corner"
POINT = "point"

# posterior_support's histogram: square position cells (m), orientation bins
SUPPORT_XY_BIN = 0.25
SUPPORT_THETA_BINS = 72
# estimate_dominant_pose's cluster: position (m) and orientation (rad) radii
MODE_RADIUS_XY = 0.5
MODE_RADIUS_THETA = 0.5


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
        values = (self.distance, self.direction, self.orientation, *(self.position or ()))
        if not all(math.isfinite(v) for v in values if v is not None):
            raise InputError(f"{self.kind} observation values must be finite")

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
        """The canonical observation a document describes, as the constructors build it."""
        try:
            kind = d["kind"]
            if kind == LINE:
                return line_observation(float(d["distance"]), float(d["direction"]))
            if kind not in (CORNER, POINT):
                raise InputError(f"unknown observation kind {kind!r}")
            x, y = d["position"]
            if kind == CORNER:
                return corner_observation((x, y), float(d["orientation"]))
            return point_observation((x, y))
        except KeyError as exc:
            raise InputError(f"observation missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed observation {d!r}: {exc}") from exc


def _fold_lines(distance, direction):
    """Elementwise (signed distance, direction) with the direction folded into
    [0, pi): each fold by pi flips the normal (-sin d, cos d), hence the sign."""
    folded = np.mod(direction, math.pi)
    # fp edge: a direction a hair under a multiple of pi folds to pi
    folded = np.where(folded >= math.pi, folded - math.pi, folded)
    wraps = np.rint((direction - folded) / math.pi)
    return np.where(wraps % 2 != 0, -distance, distance), folded


def line_observation(distance: float, direction: float) -> RobotObservation:
    """Canonical line observation: direction folded into [0, pi) by
    _fold_lines, distance sign fixed by the normal (-sin d, cos d)."""
    if not math.isfinite(direction):
        raise InputError(f"line direction must be finite, got {direction}")
    dist, d = _fold_lines(distance, direction)
    return RobotObservation(kind=LINE, distance=float(dist), direction=float(d))


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
    gate: ClassVar[float] = 3.0  # residuals beyond gate sigmas score the floor
    floor: ClassVar[float] = math.exp(-18.0)

    def __post_init__(self):
        # zero sigmas are allowed for noise-free generation; the likelihood
        # path rejects them (it divides by every sigma)
        if not all(math.isfinite(s) and s >= 0
                   for s in (self.sigma_d, self.sigma_p, self.sigma_theta)):
            raise InputError("sigmas must be finite and non-negative")
        # infinity is a valid range: every feature is observed
        if not self.max_range >= 0:
            raise InputError("max_range must be non-negative")


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
    segments = np.array(spec.line_segments, dtype=float).reshape(-1, 2, 2)
    starts, ends = segments[:, 0], segments[:, 1]
    d = ends - starts
    _, phi = _fold_lines(0.0, np.arctan2(d[:, 1], d[:, 0]))
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


# --- measurement model -------------------------------------------------------
#
# The expected features depend on the particle poses only, so they are
# computed once per update (expected_observations reads them at one pose;
# lines fold through _fold_lines, as line_observation's do). The in-range
# test runs on every (particle, feature) pair of a kind, and only the
# in-range pairs are gathered, in row-major order (_Pairs), so each
# particle's pairs are adjacent. Each observation runs its residual
# arithmetic on those flat pairs, and one np.minimum.reduceat over the runs
# gives each particle its best feature; a particle with no pair gets inf.
# The arithmetic uses the same elementwise operations, in the same order, as
# the per-feature reference loops in tests/test_localization_oracle.py, a
# minimum is exact in any order, and update_and_resample multiplies the
# per-observation likelihoods into the weights in observation order. So the
# weights stay bit-identical to that reference; reordering the arithmetic or
# the products changes their last bits and with them every seeded run. Every
# ufunc over pairs runs on contiguous operands of one shape and dtype: the
# in-range tests on each particle value repeated and each feature value
# tiled, not broadcast, and the residuals on values gathered per pair.

_RESIDUAL_DIMS = {LINE: 2, CORNER: 2, POINT: 1}


class _Pairs:
    """The in-range (particle, feature) pairs of an (N, S) mask in row-major
    order, so each particle's pairs are adjacent. particle and feature give
    each pair's indices, seen the particles that have a pair, and starts
    where each of their runs begins (strictly increasing, so reduceat's rule
    for a start that does not exceed the next never applies).
    """

    def __init__(self, in_range: np.ndarray):
        self.n = len(in_range)
        self.particle, self.feature = np.nonzero(in_range)
        # not count_nonzero(axis=1), a casting reduction through numpy's iterator
        counts = np.bincount(self.particle, minlength=self.n)
        self.seen = np.flatnonzero(counts)
        self.starts = (np.cumsum(counts) - counts)[self.seen]

    def minimum(self, values: np.ndarray) -> np.ndarray:
        """Per-particle minimum of one value per pair; inf without a pair."""
        out = np.full(self.n, np.inf)
        out[self.seen] = np.minimum.reduceat(values, self.starts)
        return out


def _to_robot_frame(points: np.ndarray, x, y, th, max_range: float):
    """Field points (S, 2) seen from every pose (x, y, th): the in-range
    pairs and their robot-frame x and y."""
    n, s = len(x), len(points)
    cth, sth = (np.repeat(f(-th), s) for f in (np.cos, np.sin))
    dx = np.tile(points[:, 0], n) - np.repeat(x, s)
    dy = np.tile(points[:, 1], n) - np.repeat(y, s)
    rel_x = cth * dx - sth * dy
    rel_y = sth * dx + cth * dy
    pairs = _Pairs((np.hypot(rel_x, rel_y) <= max_range).reshape(n, s))
    index = pairs.particle * s + pairs.feature
    return pairs, rel_x[index], rel_y[index]


def _expected_features(poses: np.ndarray, spec: FieldSpec, max_range: float) -> dict:
    """Pose-only expected features of each kind on its in-range pairs.

    Lines: the pairs, signed distance and direction in [0, pi) in the robot
    frame. Corners: the pairs, robot-frame position and field bisector
    minus heading. Points: the pairs and robot-frame position.
    """
    (starts, ends, phi, normals, offsets), (cpos, corient), posts = _layout_features(spec)
    x, y, th = (np.ascontiguousarray(v) for v in poses.T)
    n, s = len(x), len(starts)
    terms = np.tile(np.array(segment_terms(starts, ends)), n)
    dist = segment_distance(np.repeat(x, s), np.repeat(y, s), *terms)
    lines = _Pairs((dist <= max_range).reshape(n, s))
    at, of = lines.particle, lines.feature
    d_exp = offsets[of] - (normals[of, 0] * x[at] + normals[of, 1] * y[at])
    d_exp, phi_exp = _fold_lines(d_exp, phi[of] - th[at])
    corners = _to_robot_frame(cpos, x, y, th, max_range)
    return {LINE: (lines, d_exp, phi_exp),
            CORNER: (*corners, corient[corners[0].feature] - th[corners[0].particle]),
            POINT: _to_robot_frame(posts, x, y, th, max_range)}


def expected_observations(pose: FieldPose, spec: FieldSpec,
                          max_range: float) -> list[RobotObservation]:
    """Every layout feature within range in the robot frame, by kind in layout
    order: the particle model, _expected_features, at one pose."""
    expected = _expected_features(np.array([[pose.x, pose.y, pose.theta]]), spec, max_range)
    _, d_exp, phi_exp = expected[LINE]
    _, cx, cy, corient = expected[CORNER]
    _, px, py = expected[POINT]
    return ([RobotObservation(kind=LINE, distance=d, direction=phi)
             for d, phi in zip(d_exp.tolist(), phi_exp.tolist())]
            + [corner_observation((x, y), o)
               for x, y, o in zip(cx.tolist(), cy.tolist(), corient.tolist())]
            + [point_observation(p) for p in zip(px.tolist(), py.tolist())])


def _residuals_sq(obs: RobotObservation, expected: dict, sm: SensorModel) -> np.ndarray:
    """Min squared normalized residual of one observation per particle, over
    the in-range features of its kind (inf when none is in range)."""
    if obs.kind == LINE:
        pairs, d_exp, phi_exp = expected[LINE]
        dphi = np.abs(phi_exp - obs.direction)
        flip = dphi > math.pi / 2
        ddist = np.where(flip, d_exp + obs.distance, d_exp - obs.distance)
        dphi = np.where(flip, math.pi - dphi, dphi)
        r2 = (ddist / sm.sigma_d) ** 2 + (dphi / sm.sigma_theta) ** 2
    else:
        pairs, rel_x, rel_y = expected[obs.kind][:3]
        dp2 = (rel_x - obs.position[0]) ** 2 + (rel_y - obs.position[1]) ** 2
        r2 = dp2 / sm.sigma_p ** 2
        if obs.kind == CORNER:
            dth = np.abs(normalize_angles(expected[CORNER][3] - obs.orientation))
            r2 = r2 + (dth / sm.sigma_theta) ** 2
    return pairs.minimum(r2)


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


def posterior_support(particles: ParticleSet, spec: FieldSpec):
    """Effective posterior support: (position area m^2, orientation width rad).

    Both are histogram perplexities (exp of entropy) over spec's whole field,
    scaled to physical units. Unlike a circular standard deviation, these
    stay small for a sharp multimodal posterior (four orientation modes at
    90 degrees is a narrow support, not a near-uniform circle), which is
    what makes the corner/line/point information ordering measurable.
    """
    w = particles.weights / particles.weights.sum()
    poses = particles.poses

    def perplexity(p):
        nz = p[p > 0]
        return math.exp(-(nz * np.log(nz)).sum())

    b = SUPPORT_XY_BIN
    hxy, _, _ = np.histogram2d(
        poses[:, 0], poses[:, 1],
        bins=[np.arange(-spec.half_length, spec.half_length + b, b),
              np.arange(-spec.half_width, spec.half_width + b, b)],
        weights=w)
    area = perplexity(hxy.ravel() / hxy.sum()) * b * b
    hth, _ = np.histogram(np.mod(poses[:, 2], 2 * math.pi), bins=SUPPORT_THETA_BINS,
                          range=(0.0, 2 * math.pi), weights=w)
    width = perplexity(hth / hth.sum()) * (2 * math.pi / SUPPORT_THETA_BINS)
    return area, width


def estimate_dominant_pose(particles: ParticleSet):
    """Pose of the heaviest local particle cluster.

    The global weighted mean is meaningless when the posterior is multimodal
    (the default layout is 180-degree symmetric, so two equal modes persist);
    this picks the strongest mode and averages within it.

    Systematic resampling leaves runs of equal adjacent poses whose
    particles share one neighbourhood, so the test is built over one row per
    run: D x D for D runs, about 200 of N=500 on the benchmark's frames. A
    set that was not resampled has D = N and still builds the full N x N
    test. Copies that are not adjacent form runs with equal rows, and argmax
    takes the earliest, so the lowest particle index still wins a tie.
    """
    w = particles.weights / particles.weights.sum()
    poses = particles.poses
    new_run = np.concatenate(([True], np.any(poses[1:] != poses[:-1], axis=1)))
    starts = np.flatnonzero(new_run)
    run = poses[starts]
    # weight captured within the radius around each run's pose
    dx = run[:, 0][:, None] - run[:, 0][None, :]
    dy = run[:, 1][:, None] - run[:, 1][None, :]
    dth = np.abs(normalize_angles(run[:, 2][:, None] - run[:, 2][None, :]))
    near = (dx * dx + dy * dy <= MODE_RADIUS_XY ** 2) & (dth <= MODE_RADIUS_THETA)
    mass = near @ np.add.reduceat(w, starts)
    sel = near[int(np.argmax(mass))][np.cumsum(new_run) - 1]
    return estimate_pose(ParticleSet(poses[sel], w[sel]))[0]


class MonteCarloFilter:
    """Convenience wrapper owning the particle set, config and RNG."""

    def __init__(self, spec: FieldSpec, n_particles: int, sigmas: SensorModel, seed: int):
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
