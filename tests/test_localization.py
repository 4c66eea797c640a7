import math

import numpy as np
import pytest

from fieldkit.errors import Degenerate, InputError
from fieldkit.field_model import FieldPose, FieldSpec
from fieldkit.localization import (
    CORNER,
    LINE,
    POINT,
    MonteCarloFilter,
    ParticleSet,
    RobotObservation,
    SensorModel,
    corner_observation,
    estimate_dominant_pose,
    estimate_pose,
    expected_observations,
    line_observation,
    observation_likelihood,
    posterior_support,
    predict,
    update_and_resample,
)


@pytest.fixture(scope="module")
def spec():
    return FieldSpec()


def particles_at(poses, weights=None):
    poses = np.asarray(poses, dtype=float)
    if weights is None:
        weights = np.full(len(poses), 1.0 / len(poses))
    return ParticleSet(poses, weights)


# --- predict -----------------------------------------------------------------

def test_predict_zero_motion_zero_noise(spec):
    p = particles_at([[1.0, 2.0, 0.5], [-1.0, 0.0, -2.0]])
    out = predict(p, (0, 0, 0), (0, 0, 0), np.random.default_rng(0))
    assert np.allclose(out.poses, p.poses)
    assert np.allclose(out.weights, p.weights)


def test_predict_forward_in_own_frame(spec):
    p = particles_at([[0.0, 0.0, 0.0]])
    out = predict(p, (1.0, 0.0, 0.0), (0, 0, 0), np.random.default_rng(0))
    assert np.allclose(out.poses, [[1.0, 0.0, 0.0]])
    # facing +y: forward motion moves along +y
    p2 = particles_at([[0.0, 0.0, math.pi / 2]])
    out2 = predict(p2, (1.0, 0.0, 0.0), (0, 0, 0), np.random.default_rng(0))
    assert np.allclose(out2.poses[0], [0.0, 1.0, math.pi / 2], atol=1e-12)


def test_predict_mean_displacement_matches_odometry(spec):
    n = 100_000
    p = particles_at(np.zeros((n, 3)))
    odom = (0.3, -0.1, 0.2)
    std = (0.05, 0.05, 0.02)
    out = predict(p, odom, std, np.random.default_rng(7))
    for axis in range(3):
        err = abs(out.poses[:, axis].mean() - odom[axis])
        assert err < 3 * std[axis] / math.sqrt(n)


# --- expected observations ---------------------------------------------------

def test_center_pose_sees_halfway_line_through_itself(spec):
    obs = expected_observations(FieldPose(0, 0, 0), spec, max_range=0.5)
    lines = [o for o in obs if o.kind == LINE]
    assert len(lines) == 1
    assert lines[0].distance == pytest.approx(0.0, abs=1e-12)
    # halfway line runs along y; in the robot frame (theta=0) it keeps
    # direction pi/2
    assert lines[0].direction == pytest.approx(math.pi / 2)


def test_tiny_range_sees_nothing(spec):
    # a spot away from every line: inside the left penalty area off-axis
    obs = expected_observations(FieldPose(-3.4, 0.9, 0.0), spec, max_range=0.1)
    assert obs == []


def test_layout_corner_census(spec):
    # default layout: 12 L junctions (4 border + 4 penalty + 4 goal-area
    # fronts) and 10 T junctions (2 halfway + 8 area sides on the border),
    # reported with multiplicity 1 and 2
    obs = expected_observations(FieldPose(0, 0, 0), spec, max_range=100.0)
    corners = [o for o in obs if o.kind == CORNER]
    assert len(corners) == 12 * 1 + 10 * 2
    lines = [o for o in obs if o.kind == LINE]
    assert len(lines) == len(spec.line_segments)
    points = [o for o in obs if o.kind == POINT]
    assert len(points) == 4  # goal posts


def test_expected_observation_geometry(spec):
    # robot at (-4, 2.5) facing +x sees the left border 0.5 m behind it
    pose = FieldPose(-4.0, 2.5, 0.0)
    obs = expected_observations(pose, spec, max_range=0.6)
    border = [o for o in obs if o.kind == LINE and o.direction == pytest.approx(math.pi / 2)]
    assert any(abs(abs(o.distance) - 0.5) < 1e-9 for o in border)


# --- likelihood --------------------------------------------------------------

def test_likelihood_one_at_exact_observation(spec):
    sm = SensorModel()
    pose = FieldPose(1.3, -0.7, 0.4)
    for obs in expected_observations(pose, spec, sm.max_range):
        assert observation_likelihood(obs, pose, spec, sm) == pytest.approx(1.0)


def test_likelihood_direction_mod_pi(spec):
    sm = SensorModel()
    pose = FieldPose(0.0, 0.0, 0.0)
    exact = [o for o in expected_observations(pose, spec, 0.5) if o.kind == LINE][0]
    flipped = line_observation(-exact.distance, exact.direction + math.pi)
    assert observation_likelihood(flipped, pose, spec, sm) == pytest.approx(1.0)


def test_from_dict_builds_the_canonical_observation(spec):
    sm = SensorModel()
    pose = FieldPose(0.0, 0.0, 0.0)
    for exact in expected_observations(pose, spec, 1.0):
        assert RobotObservation.from_dict(exact.to_dict()) == exact
    exact = [o for o in expected_observations(pose, spec, 0.5) if o.kind == LINE][0]
    wrapped = RobotObservation.from_dict({**exact.to_dict(),
                                          "direction": exact.direction + 2 * math.pi})
    assert wrapped.distance == exact.distance
    assert wrapped.direction == pytest.approx(exact.direction, abs=1e-12)
    assert observation_likelihood(wrapped, pose, spec, sm) == pytest.approx(1.0)
    # the kind is checked before any field it would need
    for doc in ({"kind": "blob"}, {"kind": "blob", "position": [1.0, 0.5]}, {"kind": None}):
        with pytest.raises(InputError, match="unknown observation kind"):
            RobotObservation.from_dict(doc)


@pytest.mark.parametrize("fields", [
    dict(kind=LINE, distance=math.nan, direction=0.3),
    dict(kind=LINE, distance=0.5, direction=math.inf),
    dict(kind=CORNER, position=(math.inf, 0.0), orientation=0.2),
    dict(kind=CORNER, position=(1.0, 0.0), orientation=math.nan),
    dict(kind=POINT, position=(0.0, -math.inf)),
], ids=str)
def test_observation_values_must_be_finite(fields):
    with pytest.raises(InputError, match="must be finite"):
        RobotObservation(**fields)


@pytest.mark.parametrize("direction", [math.nan, math.inf, -math.inf])
def test_line_observation_rejects_non_finite_direction(direction):
    with pytest.raises(InputError, match="line direction must be finite"):
        line_observation(0.5, direction)


def test_likelihood_decreases_with_residual(spec):
    sm = SensorModel()
    pose = FieldPose(0.0, 0.0, 0.0)
    base = [o for o in expected_observations(pose, spec, 0.5) if o.kind == LINE][0]
    scores = []
    for delta in np.linspace(0.0, 0.4, 9):
        obs = line_observation(base.distance + delta, base.direction)
        scores.append(observation_likelihood(obs, pose, spec, sm))
    diffs = np.diff(scores)
    assert np.all(diffs < 0)


def test_likelihood_floor_gates_far_residuals(spec):
    sm = SensorModel()
    pose = FieldPose(0.0, 0.0, 0.0)
    obs = corner_observation((0.05, 0.05), 0.3)  # no junction anywhere near
    assert observation_likelihood(obs, pose, spec, sm) == pytest.approx(sm.floor)


@pytest.mark.parametrize("fixed", [{"gate": 1.0}, {"floor": 0.0}])
def test_sensor_model_gate_and_floor_are_constants(fixed):
    with pytest.raises(TypeError):
        SensorModel(**fixed)
    assert SensorModel().gate == 3.0 and SensorModel().floor == math.exp(-18.0)


# --- update and resample -----------------------------------------------------

def test_update_single_particle_unchanged(spec):
    p = particles_at([[1.0, 1.0, 0.0]])
    obs = expected_observations(FieldPose(1.0, 1.0, 0.0), spec, 2.0)
    out = update_and_resample(p, obs, spec, SensorModel(), np.random.default_rng(0))
    assert np.allclose(out.poses, p.poses)
    assert out.weights[0] == pytest.approx(1.0)


def test_update_no_observations_preserves_poses(spec):
    rng = np.random.default_rng(3)
    p = ParticleSet.uniform(spec, 50, rng)
    out = update_and_resample(p, [], spec, SensorModel(), rng)
    assert np.array_equal(out.poses, p.poses)


def test_update_two_cluster_concentration(spec):
    # two hypothesis clusters; the observation is consistent with one of them
    rng = np.random.default_rng(11)
    n = 400
    true_pose = FieldPose(-3.0, -1.0, 0.3)
    # a pose from which the observed corner maps far from every junction
    wrong_pose = FieldPose(-1.5, -2.0, -1.0)
    poses = np.vstack([
        np.column_stack([rng.normal(true_pose.x, 0.05, n // 2),
                         rng.normal(true_pose.y, 0.05, n // 2),
                         rng.normal(true_pose.theta, 0.05, n // 2)]),
        np.column_stack([rng.normal(wrong_pose.x, 0.05, n // 2),
                         rng.normal(wrong_pose.y, 0.05, n // 2),
                         rng.normal(wrong_pose.theta, 0.05, n // 2)]),
    ])
    p = particles_at(poses)
    sm = SensorModel(sigma_d=0.05, sigma_p=0.05, sigma_theta=0.05, max_range=3.0)
    obs = [o for o in expected_observations(true_pose, spec, 3.0) if o.kind == CORNER]
    out = update_and_resample(p, obs[:1], spec, sm, rng)
    near_true = np.hypot(out.poses[:, 0] - true_pose.x,
                         out.poses[:, 1] - true_pose.y) < 0.5
    assert near_true.mean() >= 0.9


def test_update_degenerate_when_all_weights_underflow(spec):
    p = particles_at([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    # dozens of impossible corner observations push the product to exact zero
    bad = [corner_observation((0.01 * i, 0.02), 0.1) for i in range(60)]
    with pytest.raises(Degenerate):
        update_and_resample(p, bad, spec, SensorModel(), np.random.default_rng(0))


def test_resample_keeps_particle_count_and_normalization(spec):
    rng = np.random.default_rng(5)
    p = ParticleSet.uniform(spec, 300, rng)
    obs = expected_observations(FieldPose(0.5, 0.5, 0.1), spec, 3.0)
    out = update_and_resample(p, obs, spec, SensorModel(), rng)
    assert len(out) == 300
    assert out.weights.sum() == pytest.approx(1.0)


# --- estimate ----------------------------------------------------------------

def test_estimate_identical_particles_zero_spread():
    p = particles_at([[1.0, -2.0, 0.7]] * 5)
    pose, (sxy, sth) = estimate_pose(p)
    assert (pose.x, pose.y, pose.theta) == pytest.approx((1.0, -2.0, 0.7))
    assert sxy == 0.0 and sth == pytest.approx(0.0, abs=1e-7)


def test_estimate_circular_mean_wraps():
    p = particles_at([[0.0, 0.0, 3.0], [0.0, 0.0, -3.0]])
    pose, _ = estimate_pose(p)
    assert abs(pose.theta) == pytest.approx(math.pi, abs=1e-9)


def test_estimate_spread_matches_direct_formula():
    rng = np.random.default_rng(2)
    poses = np.column_stack([rng.normal(0, 1, 200), rng.normal(0, 2, 200),
                             rng.normal(0.5, 0.3, 200)])
    w = rng.random(200)
    p = particles_at(poses, w / w.sum())
    pose, (sxy, sth) = estimate_pose(p)
    wn = w / w.sum()
    mx = float(wn @ poses[:, 0])
    my = float(wn @ poses[:, 1])
    var = float(wn @ ((poses[:, 0] - mx) ** 2 + (poses[:, 1] - my) ** 2))
    assert sxy == pytest.approx(math.sqrt(var))
    r = math.hypot(float(wn @ np.cos(poses[:, 2])), float(wn @ np.sin(poses[:, 2])))
    assert sth == pytest.approx(math.sqrt(-2 * math.log(r)))


def test_dominant_mode_picks_heavier_cluster():
    rng = np.random.default_rng(8)
    a = np.column_stack([rng.normal(2.0, 0.05, 70), rng.normal(1.0, 0.05, 70),
                         rng.normal(0.0, 0.02, 70)])
    b = np.column_stack([rng.normal(-2.0, 0.05, 30), rng.normal(-1.0, 0.05, 30),
                         rng.normal(math.pi, 0.02, 30)])
    p = particles_at(np.vstack([a, b]))
    pose = estimate_dominant_pose(p)
    assert math.hypot(pose.x - 2.0, pose.y - 1.0) < 0.1


def test_posterior_support_covers_the_whole_field():
    # a uniform posterior's support is the whole field's area, whatever its size
    big = FieldSpec(length=12.0, width=8.0, goal_center_left=(-6.0, 0.0),
                    goal_center_right=(6.0, 0.0))
    for field, area in ((FieldSpec(), 54.0), (big, 96.0)):
        p = ParticleSet.uniform(field, 200_000, np.random.default_rng(3))
        support, width = posterior_support(p, field)
        assert support == pytest.approx(area, rel=0.01)
        assert width == pytest.approx(2 * math.pi, rel=0.01)


# --- filter smoke ------------------------------------------------------------

def test_filter_tracks_from_good_prior(spec):
    from fieldkit.synth import Scene, generate_trajectory

    sm = SensorModel()
    scene = Scene(field=spec, robot=FieldPose(-2.0, -1.0, 0.5))
    traj = generate_trajectory(scene, steps=15, odom_noise=(0.01, 0.01, 0.01),
                               obs_sigmas=sm, seed=3)
    f = MonteCarloFilter(spec, n_particles=300, sigmas=sm, seed=4)
    # start the particles near the true pose: pure tracking
    start = traj["steps"][0]["ground_truth"]
    rng = np.random.default_rng(0)
    f.particles = ParticleSet(
        np.column_stack([rng.normal(start[0], 0.15, 300),
                         rng.normal(start[1], 0.15, 300),
                         rng.normal(start[2], 0.1, 300)]),
        np.full(300, 1 / 300))
    from fieldkit.localization import RobotObservation

    for step in traj["steps"]:
        obs = [RobotObservation.from_dict(o) for o in step["observations"]]
        f.step(step["odometry"], (0.02, 0.02, 0.02), obs)
    est, _ = f.estimate()
    gt = traj["steps"][-1]["ground_truth"]
    assert math.hypot(est.x - gt[0], est.y - gt[1]) < 0.2
    assert abs((est.theta - gt[2] + math.pi) % (2 * math.pi) - math.pi) < 0.2


def test_update_survives_tracemalloc_stopped_from_another_thread(run_beside_tracemalloc_toggle):
    # the (N, 1) pose columns broadcast against the features crashed here in
    # 1 of 6 8 s runs. Only a few updates fit in the window, so the body also
    # runs the per-particle minimum on the update's own pairs, about a
    # thousand times per window
    proc = run_beside_tracemalloc_toggle("""
        import numpy as np
        from fieldkit.field_model import FieldPose, FieldSpec
        from fieldkit.localization import (ParticleSet, SensorModel, _expected_features,
                                           expected_observations, update_and_resample)
        spec, sensor = FieldSpec(), SensorModel()
        rng = np.random.default_rng(0)
        particles = ParticleSet.uniform(spec, 500, rng)
        observations = expected_observations(FieldPose(-1.0, 0.5, 0.4), spec, 4.0)
        expected = _expected_features(particles.poses, spec, sensor.max_range)
        pairs = [(e[0], e[1]) for e in expected.values()]
    """, """
        update_and_resample(particles, observations, spec, sensor, rng)
        for _ in range(100):
            for p, values in pairs:
                p.minimum(values)
    """)
    assert proc.returncode == 0, proc.stderr[-2000:]
