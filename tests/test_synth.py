import math

import numpy as np
import pytest

from fieldkit.birdview import BirdviewSpec, CameraExtrinsics, CameraIntrinsics, project, unproject_to_ground
from fieldkit.errors import InputError
from fieldkit.field_model import FieldPose, FieldSpec
from fieldkit.localization import RobotObservation, SensorModel, expected_observations
from fieldkit.stereo_obstacles import StereoParams, StereoRig, block_match
from fieldkit.synth import (
    Obstacle,
    Scene,
    generate_trajectory,
    paint_ground,
    render_birdview,
    render_field,
    render_stereo,
    surface_texture,
)


def overhead_camera(h=3.0):
    return CameraExtrinsics(position=(0.0, 0.0, h), rpy=(0.0, math.pi / 2, 0.0))


def narrow_intr():
    return CameraIntrinsics(fx=400.0, fy=400.0, cx=159.5, cy=119.5, width=320, height=240)


def test_render_deterministic_with_seed():
    scene = Scene(noise_sigma=8.0, seed=42)
    intr = narrow_intr()
    ex = CameraExtrinsics(position=(-1.0, 0.0, 0.7), rpy=(0.0, 0.7, 0.0))
    a = render_field(scene, intr, ex)
    b = render_field(scene, intr, ex)
    assert np.array_equal(a.luma, b.luma) and np.array_equal(a.green, b.green)
    c = render_field(Scene(noise_sigma=8.0, seed=43), intr, ex)
    assert not np.array_equal(a.luma, c.luma)


def test_noise_sigma_statistics():
    scene_clean = Scene(noise_sigma=0.0)
    scene_noisy = Scene(noise_sigma=8.0, seed=1)
    bspec = BirdviewSpec(out_width=200, out_height=150, meters_per_pixel=0.02)
    clean = render_birdview(scene_clean, bspec)
    noisy = render_birdview(scene_noisy, bspec)
    # measure on grass pixels away from clipping at 0/255
    grass = clean.luma == 84
    diff = noisy.luma.astype(float)[grass] - clean.luma.astype(float)[grass]
    assert abs(diff.std() - 8.0) <= 0.8


def test_overhead_render_lines_at_projected_pixels():
    spec = FieldSpec()
    scene = Scene(field=spec)
    intr = narrow_intr()
    ex = overhead_camera()
    img = render_field(scene, intr, ex)
    # sample interior points of the halfway line and check they render white
    for y in np.linspace(-0.8, 0.8, 7):
        u, v = project((0.0, float(y), 0.0), ex, intr)
        assert img.luma[round(v), round(u)] == 255
    # a grass point well away from any line renders green
    u, v = project((1.0, 1.0, 0.0), ex, intr)
    assert img.luma[round(v), round(u)] == 84


def test_painted_centerline_unprojects_onto_layout():
    # renderer/geometry consistency: white pixel centers of the halfway line,
    # unprojected through the same camera, land on the x=0 line within one
    # pixel's worth of meters
    spec = FieldSpec()
    intr = narrow_intr()
    ex = CameraExtrinsics(position=(-1.2, 0.0, 0.8), rpy=(0.0, 0.75, 0.0))
    img = render_field(Scene(field=spec), intr, ex)
    white_v, white_u = np.nonzero(img.luma == 255)
    count = 0
    for u, v in zip(white_u, white_v):
        gx, gy = unproject_to_ground((float(u), float(v)), ex, intr)
        if abs(gy) < 0.5 and -0.4 < gx < 0.4:  # halfway-line neighborhood
            assert abs(gx) <= spec.line_width / 2 + 0.02
            count += 1
    assert count > 50


def test_paint_ground_line_width():
    spec = FieldSpec()
    xs = np.linspace(-0.1, 0.1, 2001)
    ys = np.zeros_like(xs) + 1.0
    luma, _ = paint_ground(spec, xs, ys)
    white = np.flatnonzero(luma == 255)
    span = xs[white[-1]] - xs[white[0]]
    assert span == pytest.approx(spec.line_width, abs=2e-4)


def test_obstacle_occludes_ground():
    scene = Scene(obstacles=(Obstacle(1.0, 0.0, 0.1, 0.4),))
    intr = narrow_intr()
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.4), rpy=(0.0, 0.2, 0.0))
    img = render_field(scene, intr, ex)
    u, v = project((1.0, 0.0, 0.2), ex, intr)  # a point on the box front
    assert img.luma[round(v), round(u)] == 150


def test_surface_texture_deterministic_and_bounded():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (5000, 3))
    a = surface_texture(pts)
    b = surface_texture(pts.copy())
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 25.0
    assert a.std() > 5.0


def test_stereo_ground_disparity_matches_depth_formula():
    rig = StereoRig(baseline=0.062, focal=700.0, cx=159.5, cy=119.5,
                    width=320, height=240)
    ex = CameraExtrinsics(position=(-0.4, 0.0, 0.35), rpy=(0.0, 0.35, 0.0))
    left, right = render_stereo(Scene(), rig, ex)
    disp = block_match(left, right, StereoParams(window=9, max_disparity=64, step=1))
    intr = CameraIntrinsics(fx=rig.focal, fy=rig.focal, cx=rig.cx, cy=rig.cy,
                            width=rig.width, height=rig.height)
    r_cw = ex.rotation_world_from_camera().T
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(300):
        u = int(rng.integers(80, 240))
        v = int(rng.integers(140, 230))  # lower half: ground
        if disp[v, u] <= 0:
            continue
        gx, gy = unproject_to_ground((u, v), ex, intr)
        cam = r_cw @ (np.array([gx, gy, 0.0]) - np.asarray(ex.position))
        expected = rig.focal * rig.baseline / cam[2]
        assert abs(disp[v, u] - expected) <= 1.0
        checked += 1
    assert checked > 150


def test_zero_baseline_renders_identical_pair():
    rig = StereoRig(baseline=1e-12, focal=500.0, cx=79.5, cy=59.5, width=160, height=120)
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.4), rpy=(0.0, 0.4, 0.0))
    left, right = render_stereo(Scene(), rig, ex)
    assert np.array_equal(left.luma, right.luma)


def test_trajectory_zero_noise_matches_expected_observations():
    spec = FieldSpec()
    sm = SensorModel(sigma_d=0.0, sigma_p=0.0, sigma_theta=0.0, max_range=3.0)
    scene = Scene(field=spec, robot=FieldPose(-1.0, 0.5, 0.3))
    traj = generate_trajectory(scene, steps=5, odom_noise=(0, 0, 0), obs_sigmas=sm, seed=9)
    pose = scene.robot
    for step in traj["steps"]:
        dx, dy, dth = step["odometry"]
        c, s = math.cos(pose.theta), math.sin(pose.theta)
        pose = FieldPose(pose.x + c * dx - s * dy, pose.y + s * dx + c * dy,
                         pose.theta + dth)
        gt = step["ground_truth"]
        assert (pose.x, pose.y) == pytest.approx((gt[0], gt[1]), abs=1e-12)
        expect = [o.to_dict() for o in
                  expected_observations(FieldPose(*gt), spec, sm.max_range)]
        assert step["observations"] == expect


def test_trajectory_deterministic():
    scene = Scene(robot=FieldPose(0.5, 0.5, 0.0))
    sm = SensorModel()
    a = generate_trajectory(scene, 10, (0.01, 0.01, 0.01), sm, seed=5)
    b = generate_trajectory(scene, 10, (0.01, 0.01, 0.01), sm, seed=5)
    assert a == b
    c = generate_trajectory(scene, 10, (0.01, 0.01, 0.01), sm, seed=6)
    assert a != c


@pytest.mark.parametrize("steps", [0, -3])
def test_trajectory_rejects_fewer_than_one_step(steps):
    # an InputError, so callers that catch FieldkitError see it
    with pytest.raises(InputError, match="steps must be >= 1"):
        generate_trajectory(Scene(), steps, (0.01, 0.01, 0.01), SensorModel(), seed=5)


def test_trajectory_noise_statistics():
    spec = FieldSpec()
    sm = SensorModel(sigma_d=0.1, sigma_p=0.1, sigma_theta=0.05, max_range=4.0)
    scene = Scene(field=spec, robot=FieldPose(0.0, 0.0, 0.0))
    traj = generate_trajectory(scene, steps=1000, odom_noise=(0.02, 0.02, 0.01),
                               obs_sigmas=sm, seed=11)
    pose = scene.robot
    odo_err = []
    line_err = []
    for step in traj["steps"]:
        gt = step["ground_truth"]
        dx, dy, dth = step["odometry"]
        c, s = math.cos(pose.theta), math.sin(pose.theta)
        pred = (pose.x + c * dx - s * dy, pose.y + s * dx + c * dy)
        odo_err.append(pred[0] - gt[0])
        # exact observation for comparison: regenerate without noise
        exact = expected_observations(FieldPose(*gt), spec, sm.max_range)
        noisy = [RobotObservation.from_dict(o) for o in step["observations"]]
        for e, n in zip(exact, noisy):
            if e.kind == "line" and n.kind == "line":
                d = n.distance - e.distance
                if abs(d) < 1.0:  # skip direction-fold sign flips
                    line_err.append(d)
        pose = FieldPose(*gt)
    assert abs(np.std(odo_err) - 0.02) < 0.002
    assert abs(np.std(line_err) - 0.1) < 0.01
