"""The vectorized measurement kernel and the run-length mode against the
code they replaced.

The three residual functions below are the earlier implementation, kept
verbatim (with the BLAS point-to-segment distance and the np.mod angle wrap
they called) as an independent oracle. The weights of update_and_resample
must match theirs bit for bit. The O(N^2) estimate_dominant_pose is kept
verbatim too, and the mode over runs of equal poses must return the same
pose on every set.
"""

import math

import numpy as np
import pytest

from fieldkit.errors import Degenerate, InputError
from fieldkit.field_model import FieldPose, FieldSpec
from fieldkit.localization import (
    CORNER,
    LINE,
    MODE_RADIUS_THETA,
    MODE_RADIUS_XY,
    POINT,
    MonteCarloFilter,
    ParticleSet,
    RobotObservation,
    SensorModel,
    _layout_features,
    _observation_likelihoods,
    estimate_dominant_pose,
    estimate_pose,
    observation_likelihood,
    update_and_resample,
)
from fieldkit.synth import Scene, generate_trajectory

SPEC = FieldSpec()


# --- oracle: the per-feature loops, verbatim ---------------------------------

def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap into (-pi, pi]."""
    t = np.mod(np.asarray(theta, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    # np.mod puts exact -pi at the low end; the convention is (-pi, pi]
    return np.where(t == -math.pi, math.pi, t)


def points_segment_distance(points: np.ndarray, a, b) -> np.ndarray:
    """Distances from an (N, 2) array of points to the closed segment [a, b]."""
    pts = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    seg_len2 = float(d @ d)
    if seg_len2 == 0.0:
        return np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1])
    t = ((pts - a) @ d) / seg_len2
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * d
    return np.hypot(pts[:, 0] - closest[:, 0], pts[:, 1] - closest[:, 1])


def _line_residuals_sq(obs, poses, spec, sm):
    """Min squared normalized residual of a line observation per particle."""
    (starts, ends, phi, normals, offsets), _, _ = _layout_features(spec)
    n = len(poses)
    best = np.full(n, np.inf)
    x, y, th = poses[:, 0], poses[:, 1], poses[:, 2]
    for i in range(len(starts)):
        d_exp = offsets[i] - (normals[i, 0] * x + normals[i, 1] * y)
        raw = phi[i] - th
        phi_exp = np.mod(raw, math.pi)
        phi_exp = np.where(phi_exp >= math.pi, phi_exp - math.pi, phi_exp)
        # folding the direction by pi flips the normal and the signed distance
        wraps = np.rint((raw - phi_exp) / math.pi)
        d_exp = np.where(wraps % 2 != 0, -d_exp, d_exp)
        dphi = np.abs(phi_exp - obs.direction)
        flip = dphi > math.pi / 2
        ddist = np.where(flip, d_exp + obs.distance, d_exp - obs.distance)
        dphi = np.where(flip, math.pi - dphi, dphi)
        seg_d = points_segment_distance(poses[:, :2], starts[i], ends[i])
        r2 = (ddist / sm.sigma_d) ** 2 + (dphi / sm.sigma_theta) ** 2
        r2 = np.where(seg_d <= sm.max_range, r2, np.inf)
        best = np.minimum(best, r2)
    return best


def _corner_residuals_sq(obs, poses, spec, sm):
    _, (cpos, corient), _ = _layout_features(spec)
    n = len(poses)
    best = np.full(n, np.inf)
    if not len(cpos):
        return best
    x, y, th = poses[:, 0], poses[:, 1], poses[:, 2]
    cth, sth = np.cos(-th), np.sin(-th)
    for i in range(len(cpos)):
        dx = cpos[i, 0] - x
        dy = cpos[i, 1] - y
        rel_x = cth * dx - sth * dy
        rel_y = sth * dx + cth * dy
        in_range = np.hypot(rel_x, rel_y) <= sm.max_range
        dp2 = (rel_x - obs.position[0]) ** 2 + (rel_y - obs.position[1]) ** 2
        dth = np.abs(normalize_angles(corient[i] - th - obs.orientation))
        r2 = dp2 / sm.sigma_p ** 2 + (dth / sm.sigma_theta) ** 2
        best = np.minimum(best, np.where(in_range, r2, np.inf))
    return best


def _point_residuals_sq(obs, poses, spec, sm):
    _, _, posts = _layout_features(spec)
    n = len(poses)
    best = np.full(n, np.inf)
    x, y, th = poses[:, 0], poses[:, 1], poses[:, 2]
    cth, sth = np.cos(-th), np.sin(-th)
    for i in range(len(posts)):
        dx = posts[i, 0] - x
        dy = posts[i, 1] - y
        rel_x = cth * dx - sth * dy
        rel_y = sth * dx + cth * dy
        in_range = np.hypot(rel_x, rel_y) <= sm.max_range
        dp2 = (rel_x - obs.position[0]) ** 2 + (rel_y - obs.position[1]) ** 2
        best = np.minimum(best, np.where(in_range, dp2 / sm.sigma_p ** 2, np.inf))
    return best


_RESIDUALS = {LINE: _line_residuals_sq, CORNER: _corner_residuals_sq,
              POINT: _point_residuals_sq}


def _likelihoods(obs, poses, spec, sm):
    """Gaussian kernel on the best-matching expected feature, gated and floored."""
    if min(sm.sigma_d, sm.sigma_p, sm.sigma_theta) <= 0:
        raise InputError("likelihood evaluation needs positive sigmas")
    r2 = _RESIDUALS[obs.kind](obs, poses, spec, sm)
    score = np.exp(-0.5 * np.minimum(r2, 1e6))
    gated = r2 > sm.gate ** 2 * _residual_dims(obs.kind)
    return np.where(gated, sm.floor, np.maximum(score, sm.floor))


def _residual_dims(kind):
    return {LINE: 2, CORNER: 2, POINT: 1}[kind]


def oracle_update_and_resample(particles, observations, spec, sigmas, rng):
    w = particles.weights.copy()
    for obs in observations:
        w = w * _likelihoods(obs, particles.poses, spec, sigmas)
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


# --- the comparison ----------------------------------------------------------

def seeded_case(n, max_range, seed):
    """Noisy observations from one trajectory step, and n particles of which
    half are uniform over the field and half lie near the true pose."""
    sm = SensorModel(max_range=max_range)
    traj = generate_trajectory(Scene(field=SPEC, robot=FieldPose(-1.0, 0.5, 0.4)),
                               steps=3, odom_noise=(0.02, 0.02, 0.02),
                               obs_sigmas=sm, seed=seed)
    step = traj["steps"][-1]
    observations = [RobotObservation.from_dict(o) for o in step["observations"]]
    rng = np.random.default_rng(seed)
    uniform = ParticleSet.uniform(SPEC, n - n // 2, rng)
    near = np.asarray(step["ground_truth"]) + rng.normal(0.0, (0.3, 0.3, 0.2), (n // 2, 3))
    poses = np.vstack([uniform.poses, near])
    weights = rng.uniform(0.5, 1.5, n)
    return ParticleSet(poses, weights / weights.sum()), observations, sm


@pytest.mark.parametrize("n, max_range, expected_obs", [(500, 4.0, 15), (2000, 8.0, 40)])
@pytest.mark.parametrize("seed", [0, 1])
def test_weights_bit_identical_to_per_feature_loops(n, max_range, expected_obs, seed):
    particles, observations, sm = seeded_case(n, max_range, seed)
    assert len(observations) >= expected_obs
    assert {o.kind for o in observations} == {LINE, CORNER, POINT}
    raw = particles.weights.copy()
    for obs in observations:
        raw = raw * _likelihoods(obs, particles.poses, SPEC, sm)
    # the near half carries real likelihood, so the comparison is not all floor
    assert len(np.unique(raw)) > n // 4
    # the weight products themselves, before normalizing and resampling
    new_raw = particles.weights.copy()
    for lik in _observation_likelihoods(observations, particles.poses, SPEC, sm):
        new_raw = new_raw * lik
    assert np.array_equal(new_raw, raw)
    old = oracle_update_and_resample(particles, observations, SPEC, sm,
                                     np.random.default_rng(seed))
    new = update_and_resample(particles, observations, SPEC, sm,
                              np.random.default_rng(seed))
    assert np.array_equal(new.poses, old.poses)
    assert np.array_equal(new.weights, old.weights)


def test_single_pose_likelihood_matches_oracle():
    particles, observations, sm = seeded_case(40, 4.0, 3)
    for pose in particles.poses:
        fp = FieldPose(*pose)
        for obs in observations:
            want = float(_likelihoods(obs, pose.reshape(1, 3), SPEC, sm)[0])
            assert observation_likelihood(obs, fp, SPEC, sm) == want


# --- oracle: the O(N^2) mode, verbatim ----------------------------------------

def oracle_estimate_dominant_pose(particles):
    w = particles.weights / particles.weights.sum()
    poses = particles.poses
    # weight captured within the radius around each particle, O(N^2) on
    # moderate N; particles are a few hundred to a few thousand
    dx = poses[:, 0][:, None] - poses[:, 0][None, :]
    dy = poses[:, 1][:, None] - poses[:, 1][None, :]
    dth = np.abs(normalize_angles(poses[:, 2][:, None] - poses[:, 2][None, :]))
    near = (dx * dx + dy * dy <= MODE_RADIUS_XY ** 2) & (dth <= MODE_RADIUS_THETA)
    mass = near @ w
    k = int(np.argmax(mass))
    sel = near[k]
    return estimate_pose(ParticleSet(poses[sel], w[sel]))[0]


def filter_sets(n, max_range, seed, steps):
    """The particle set after every step of a seeded global localization run."""
    sm = SensorModel(max_range=max_range)
    traj = generate_trajectory(Scene(field=SPEC, robot=FieldPose(1.5, -1.0, 2.5)),
                               steps=steps, odom_noise=(0.02, 0.02, 0.02),
                               obs_sigmas=sm, seed=seed)
    mcl = MonteCarloFilter(SPEC, n, sm, seed=seed)
    sets = []
    for step in traj["steps"]:
        observations = [RobotObservation.from_dict(o) for o in step["observations"]]
        mcl.step(step["odometry"], (0.05, 0.05, 0.05), observations)
        sets.append(mcl.particles)
    return sets


def distinct(particles):
    return len(np.unique(particles.poses, axis=0))


def assert_mode_matches_oracle(particles):
    assert estimate_dominant_pose(particles) == oracle_estimate_dominant_pose(particles)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mode_matches_oracle_on_resampled_sets(seed):
    sets = filter_sets(500, 4.0, seed, steps=8)
    resampled = [p for p in sets if distinct(p) < len(p)]
    assert len(resampled) >= 4
    for particles in sets:
        assert_mode_matches_oracle(particles)


@pytest.mark.parametrize("seed", [0, 1])
def test_mode_matches_oracle_on_sets_not_resampled(seed):
    particles, _, _ = seeded_case(500, 4.0, seed)
    assert distinct(particles) == len(particles)
    assert_mode_matches_oracle(particles)


@pytest.mark.parametrize("seed", [0, 1])
def test_mode_matches_oracle_with_duplicates_apart(seed):
    particles = filter_sets(500, 4.0, seed, steps=6)[-1]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        order = rng.permutation(len(particles))
        shuffled = ParticleSet(particles.poses[order], particles.weights[order])
        assert distinct(shuffled) < len(shuffled)
        assert_mode_matches_oracle(shuffled)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mode_matches_oracle_with_headings_near_pi(seed):
    rng = np.random.default_rng(seed)
    n = 300
    poses = np.column_stack([rng.normal(0.5, 0.3, n), rng.normal(-0.5, 0.3, n),
                             math.pi + rng.normal(0.0, 0.3, n)])
    poses[:, 2] = np.where(poses[:, 2] > math.pi, poses[:, 2] - 2 * math.pi, poses[:, 2])
    poses[:5, 2] = [math.pi, -math.pi, np.nextafter(-math.pi, 0.0), np.nextafter(math.pi, 0.0),
                    -math.pi]
    # duplicate some rows next to each other and some far apart, as
    # resampling and then a shuffle would
    idx = np.sort(rng.integers(0, n, n))
    idx[::7] = rng.integers(0, n, len(idx[::7]))
    weights = rng.uniform(0.5, 1.5, n)
    for w in (weights[idx], np.full(n, 1.0 / n)):
        particles = ParticleSet(poses[idx], w)
        assert (particles.poses[:, 2] > 3.0).any() and (particles.poses[:, 2] < -3.0).any()
        assert_mode_matches_oracle(particles)


@pytest.mark.parametrize("first", [0, 1])
def test_mode_tie_goes_to_the_lower_index(first):
    # two separated clusters of 32 particles each at weight 1/64, so both
    # masses are exactly 1/2
    rng = np.random.default_rng(5)
    centres = [(-2.0, 1.0, 0.5), (2.5, -1.0, -2.0)]
    clusters = [np.asarray(c) + rng.normal(0.0, 0.02, (32, 3)) for c in centres]
    particles = ParticleSet(np.vstack([clusters[first], clusters[1 - first]]),
                            np.full(64, 1.0 / 64))
    pose = estimate_dominant_pose(particles)
    assert pose == oracle_estimate_dominant_pose(particles)
    assert pose == estimate_pose(ParticleSet(clusters[first], np.full(32, 1.0 / 64)))[0]
    # with every pose repeated in place the tie holds, and so does the winner
    doubled = ParticleSet(np.repeat(particles.poses, 2, axis=0), np.full(128, 1.0 / 128))
    assert estimate_dominant_pose(doubled) == oracle_estimate_dominant_pose(doubled)
    assert math.hypot(pose.x - centres[first][0], pose.y - centres[first][1]) < 0.05


def test_mode_of_one_particle_is_its_pose():
    particles = ParticleSet([[1.0, -2.0, 3.0]], [0.25])
    pose = estimate_dominant_pose(particles)
    assert pose == oracle_estimate_dominant_pose(particles)
    assert pose == FieldPose(1.0, -2.0, 3.0)


def test_mode_matches_oracle_on_relocalize_sized_sets():
    sets = filter_sets(2000, 8.0, 3, steps=3)
    assert any(distinct(p) < 1000 for p in sets)
    for particles in sets:
        assert_mode_matches_oracle(particles)
