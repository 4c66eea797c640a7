"""The vectorized measurement kernel against the per-feature loops it replaced.

The three residual functions below are the earlier implementation, kept
verbatim (with the BLAS point-to-segment distance they called) as an
independent oracle. The weights of update_and_resample must match theirs
bit for bit.
"""

import math

import numpy as np
import pytest

from fieldkit.errors import Degenerate, InputError
from fieldkit.field_model import FieldPose, FieldSpec
from fieldkit.geometry import normalize_angles
from fieldkit.localization import (
    CORNER,
    LINE,
    POINT,
    ParticleSet,
    RobotObservation,
    SensorModel,
    _layout_features,
    _observation_likelihoods,
    observation_likelihood,
    update_and_resample,
)
from fieldkit.synth import Scene, generate_trajectory

SPEC = FieldSpec()


# --- oracle: the per-feature loops, verbatim ---------------------------------

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
