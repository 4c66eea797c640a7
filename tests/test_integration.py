"""The bundled demo pipeline run end to end with real filters: the stereo
chain executes at half rate while its consumers keep reading the retained
obstacle list on off-frames."""

from importlib import resources

import numpy as np

from fieldkit.birdview import BirdviewSpec, CameraExtrinsics, CameraIntrinsics, birdview_transform
from fieldkit.line_vision import VisionConfig, detect_lines
from fieldkit.pipeline_scheduler import EMPTY, RunContext, compute_batches, parse_pipeline
from fieldkit.pipeline_scheduler import run_frame
from fieldkit.stereo_obstacles import StereoParams, StereoRig, detect_obstacles
from fieldkit.synth import Obstacle, Scene, render_stereo


def load_demo_pipeline():
    text = resources.files("fieldkit.data").joinpath("demo_pipeline.json").read_text()
    return parse_pipeline(text)


def test_demo_pipeline_batches():
    plan = compute_batches(load_demo_pipeline())
    assert plan.batches == (("birdview", "stereo_obstacles"), ("line_detect",),
                            ("world_model",))


def test_demo_pipeline_runs_with_real_filters():
    rig = StereoRig(baseline=0.062, focal=700.0, cx=159.5, cy=119.5,
                    width=320, height=240)
    ex = CameraExtrinsics(position=(-0.4, 0.0, 0.35), rpy=(0.0, 0.32, 0.0))
    scene = Scene(obstacles=(Obstacle(0.55, 0.0, 0.02, 0.3),))
    pairs = [render_stereo(scene, rig, ex) for _ in range(2)]

    intr = CameraIntrinsics(fx=rig.focal, fy=rig.focal, cx=rig.cx, cy=rig.cy,
                            width=rig.width, height=rig.height)
    bspec = BirdviewSpec(out_width=200, out_height=150, meters_per_pixel=0.01,
                         view_center=(0.4, 0.0))
    params = StereoParams(window=9, max_disparity=64, step=2, voxel=0.03,
                          min_points_per_voxel=2, protrusion=0.08,
                          link_dist=0.1, min_cluster_size=8, seed=0)
    stereo_runs = []

    def stereo(inputs):
        stereo_runs.append(1)
        plane, clusters = detect_obstacles(inputs["left_image"], inputs["right_image"],
                                           rig, params)
        return {"ground_plane": plane, "obstacles": clusters}

    world_states = []

    registry = {
        "birdview": lambda inputs: {
            "bird_image": birdview_transform(inputs["left_image"], ex, intr, bspec)},
        "line_detect": lambda inputs: {
            "line_observations": detect_lines(
                inputs["bird_image"], width_map=5,
                cfg=VisionConfig(decimation=2, min_length=30.0))[0]},
        "stereo_obstacles": stereo,
        "world_model": lambda inputs: {
            "world_state": (inputs["line_observations"], inputs["obstacles"])},
    }
    plan = compute_batches(load_demo_pipeline())
    ctx = RunContext(max_workers=2)
    for frame in range(4):
        left, right = pairs[frame % 2]
        ctx.sources = {"left_image": left, "right_image": right}
        store = run_frame(plan, registry, frame, ctx)
        world_states.append(store["world_state"])

    assert len(stereo_runs) == 2  # frames 0 and 2 only
    # off-frames consume the retained obstacle list (same object)
    assert world_states[1][1] is world_states[0][1]
    assert world_states[3][1] is world_states[2][1]
    # the obstacle actually got detected and lines were found
    assert len(world_states[0][1]) == 1
    assert len(world_states[0][0]) >= 1
    assert world_states[0][1] is not EMPTY
