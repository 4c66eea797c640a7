import json
import subprocess
import sys
import time

import numpy as np
import pytest

import fieldkit.cli
import fieldkit.stereo_obstacles
from fieldkit.cli import main
from fieldkit.errors import InputError
from fieldkit.field_model import FieldSpec
from fieldkit.raster import read_pnm, write_ppm
from fieldkit.stereo_obstacles import block_match


SMALL_INTRINSICS = {"fx": 300.0, "fy": 300.0, "cx": 3.5, "cy": 3.5, "width": 8, "height": 8}
SMALL_CAMERA = {"intrinsics": SMALL_INTRINSICS,
                "extrinsics": {"position": [-1.0, 0.0, 0.7], "rpy": [0.0, 0.75, 0.0]}}
SMALL_RIG = {"baseline": 0.062, "focal": 700.0, "cx": 3.5, "cy": 3.5, "width": 8, "height": 8}
PLAN = {"robot": [0, 0, 0], "ball": [0.5, 0.2]}
# one localize step that scores every observation kind against the field
STEP = {"odometry": [0.1, 0.0, 0.0], "observations": [
    {"kind": "line", "distance": 1.0, "direction": 0.3},
    {"kind": "corner", "position": [1.0, 0.5], "orientation": 0.2},
    {"kind": "point", "position": [2.0, 0.4]}]}
# stereo params under which the rendered pair gives one obstacle cluster
PAIR_PARAMS = {"voxel": 0.03, "protrusion": 0.08, "link_dist": 0.1, "min_cluster_size": 8}
NAN, INF = float("nan"), float("inf")


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "ball": [0.5, 0.2],
        "robot": [0.0, 0.0, 0.2],
        "opponents": [[2.0, 0.1]],
        "teammates": [[3.0, 1.0, 0.0]],
    }))
    return path


@pytest.fixture()
def camera_file(tmp_path):
    path = tmp_path / "camera.json"
    path.write_text(json.dumps({
        "intrinsics": {"fx": 300.0, "fy": 300.0, "cx": 159.5, "cy": 119.5,
                       "width": 320, "height": 240},
        "extrinsics": {"position": [-1.0, 0.0, 0.7], "rpy": [0.0, 0.75, 0.0]},
        "birdview": {"out_width": 200, "out_height": 150, "meters_per_pixel": 0.015,
                     "view_center": [0.3, 0.0]},
    }))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_plan_subcommand(tmp_path, scene_file):
    out = tmp_path / "plan.json"
    overlay = tmp_path / "plan.ppm"
    assert run_cli("plan", scene_file, "--out", out, "--overlay", overlay) == 0
    doc = json.loads(out.read_text())
    assert doc["total_cost"] > 0
    assert len(doc["waypoints"]) == len(doc["cells"]) >= 2
    assert read_pnm(overlay).shape[2] == 3


def test_plan_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    nan, inf = float("nan"), float("inf")
    ok = {"robot": [0, 0, 0], "ball": [0.5, 0.2]}
    for doc in ({"robot": [0, 0, 0]},                 # no ball
                {"robot": [0, 0, 0], "ball": "x"},    # ball not a point
                [[0, 0, 0], [0.5, 0.2]],              # not an object
                {**ok, "robot": [nan, 0, 0.2]},       # non-finite values
                {**ok, "robot": [0, 0, nan]},
                {**ok, "ball_speed": nan},
                {**ok, "walk_speed": inf},
                {**ok, "teammates": [[nan, 0, 0]]},
                {**ok, "opponent_radius": nan, "opponents": [[1.0, 0.1]]}):
        bad.write_text(json.dumps(doc))
        assert run_cli("plan", bad) == 2, doc


def test_unknown_key_message_lists_every_key_a_document_may_set(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**PLAN, "bogus": 1}))
    assert run_cli("plan", bad) == 2
    known = ["ball", "ball_speed", "field", "goal", "kick_lengths", "opponent_radius",
             "opponents", "robot", "teammates", "turn_speed", "walk_speed"]
    assert f"unknown keys ['bogus']; known: {known}" in capsys.readouterr().err
    image = tmp_path / "image.ppm"
    write_ppm(image, np.zeros((8, 8, 3), dtype=np.uint8))
    bad.write_text(json.dumps({**SMALL_RIG, "bogus": 1}))
    assert run_cli("stereo", image, image, bad) == 2
    known = ["baseline", "cx", "cy", "extrinsics", "focal", "height", "params", "width"]
    assert f"unknown keys ['bogus']; known: {known}" in capsys.readouterr().err


def test_render_non_object_document_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2, 3]))
    assert run_cli("render", bad, "--out", tmp_path / "r.ppm") == 2


@pytest.mark.parametrize("argv", [
    ["gen-trajectory", "--steps", "0"],
    ["localize", "{traj}", "--particles", "-3"],
    ["pipeline-bench", "{pipe}", "--frames", "0"],
    ["detect-lines", "{img}", "--decimation", "0"],
    ["detect-lines", "{img}", "--line-width-px", "nan"],
    ["pipeline-bench", "{pipe}", "--sleep-ms", "-1"],
    ["pipeline-bench", "{pipe}", "--workers", "0"],
    ["mask", "{cam}", "--fov-deg", "nan"],
    ["--seed", "-1", "localize", "{traj}"],
])
def test_non_positive_counts_exit_code(tmp_path, argv):
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"steps": []}))
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"source_slots": [], "filters": []}))
    img = tmp_path / "img.ppm"
    write_ppm(img, np.full((8, 8, 3), 90, np.uint8))
    cam = tmp_path / "cam.json"
    cam.write_text(json.dumps({"intrinsics": SMALL_INTRINSICS}))
    # argparse rejects the value before any command runs
    with pytest.raises(SystemExit) as exc:
        run_cli(*[a.format(traj=traj, pipe=pipe, img=img, cam=cam) for a in argv])
    assert exc.value.code == 2


def test_count_too_large_for_memory_exit_code(tmp_path):
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"steps": []}))
    # the 7 TiB particle array is refused at once, before any page is touched
    assert run_cli("localize", traj, "--particles", "1000000000000") == 2


@pytest.mark.parametrize("argv, doc, code", [
    # a rig without focal takes StereoRig's default focal, so this document
    # is now valid; the flat 8x8 pair then has no ground plane to fit
    (["stereo", "{img}", "{img}"], {k: v for k, v in SMALL_RIG.items() if k != "focal"}, 3),
    (["stereo", "{img}", "{img}"], {**SMALL_RIG, "focal": "x"}, 2),
    (["stereo", "{img}", "{img}"], {**SMALL_RIG, "params": {"bogus": 1}}, 2),
    (["distort", "{img}"], {"extrinsics": SMALL_CAMERA["extrinsics"]}, 2),
    (["mask"], {"extrinsics": SMALL_CAMERA["extrinsics"]}, 2),
    (["birdview", "{img}"], {**SMALL_CAMERA, "birdview": {"out_width": "x"}}, 2),
    (["birdview", "{img}"], {**SMALL_CAMERA, "intrinsics": {**SMALL_INTRINSICS, "fx": "a"}}, 2),
    (["birdview", "{img}"], {**SMALL_CAMERA, "extrinsics": {"position": [0, 1]}}, 2),
    (["render"], {"obstacles": [[1, 2]]}, 2),
    (["render"], {"obstacles": [["a", 0, 1, 1]], "camera": SMALL_CAMERA}, 2),
    (["render"], {"noise_sigma": "x"}, 2),
    (["render"], {"seed": "x"}, 2),
    (["render", "--stereo"], {}, 2),
    (["render"], {"camera": [1, 2]}, 2),
    (["render"], {"birdview": {"view_center": [0.0]}}, 2),
    (["birdview", "{img}"], {**SMALL_CAMERA, "extrinsics": {"position": [0, 0, 1], "rpy": [0.1]}}, 2),
    (["plan"], {"ball": [0.5, 0.2], "robot": [None, 0.0, 0.2]}, 2),
    (["plan"], {"ball": [0.5, 0.2], "robot": [0, 0, 0], "kick_lengths": [float("nan")]}, 2),
    (["plan", "--overlay", "{img}.ppm"],
     {"ball": [0.5, 0.2], "robot": [0, 0, 0], "opponents": [[float("inf"), 0]]}, 2),
    (["localize"], {"steps": None}, 2),
    (["pipeline-bench"], {"source_slots": [[]], "filters": []}, 2),
    (["pipeline-bench"], {"filters": [{"name": "a", "inputs": None}]}, 2),
    (["detect-lines", "{img}", "--config"], {"vision": {"bogus": 1}}, 2),
    # the cost volume follows the image, so a huge max_disparity still fits
    (["stereo", "{img}", "{img}"], {**SMALL_RIG, "params": {"max_disparity": 10**9}}, 3),
    # sigmas keys are SensorModel's fields; its gate and floor are constants
    (["localize"], {"steps": [], "sigmas": {"sigma_d": 0.2, "gate": 1.0}}, 2),
    # vision values are range-checked before any pixel is read
    (["detect-lines", "{img}", "--config"], {"vision": {"hough_rho": 0}}, 2),
    (["detect-lines", "{img}", "--config"], {"vision": {"hough_theta": 0}}, 2),
    (["detect-lines", "{img}", "--config"], {"vision": {"hough_theta": 4}}, 2),
    (["detect-lines", "{img}", "--config"], {"vision": {"hough_votes": 0}}, 2),
    (["detect-lines", "{img}", "--config"], {"vision": {"max_gap": float("nan")}}, 2),
    (["detect-lines", "{img}", "--config"], {"vision": {"luma_weight": float("inf")}}, 2),
    # a negative or NaN range would gate every feature; infinity keeps them all
    (["localize"], {"steps": [], "sigmas": {"max_range": float("nan")}}, 2),
    (["localize"], {"steps": [], "sigmas": {"max_range": -1}}, 2),
    (["gen-trajectory"], {"sigmas": {"max_range": float("nan")}}, 2),
    (["gen-trajectory"], {"sigmas": {"max_range": -1}}, 2),
    (["gen-trajectory", "--steps", "2"], {"sigmas": {"max_range": float("inf")}}, 0),
    # a field must be an object of finite numbers
    *((["plan"], {**PLAN, "field": field}, 2) for field in (
        "default", "nonsense", [1, 2], {"length": INF}, {"cell_size": INF},
        {"line_width": NAN}, {"circle": {"center": [0, 0], "radius": NAN}},
        {"goals": {"left": [-4.5, 0], "right": [4.5, 0], "width": NAN}},
        {"goals": {"left": [NAN, 0], "right": [4.5, 0]}},
        {"line_segments": [[[NAN, 0], [1, 0]]]})),
    # plan scene keys are PlanContext's fields plus robot, ball, goal and field
    (["plan"], {**PLAN, "bogus": 1}, 2),
    (["plan"], {**PLAN, "ball": {"x": 0.5}}, 2),
    # stereo params on the rendered pair: a bad value exits 2 when the params
    # are built, and a voxel too fine for the cloud when voxel_bin runs
    *((["stereo", "{left}", "{right}"], {"params": {**PAIR_PARAMS, key: value}}, 2)
      for key, value in (("voxel", NAN), ("voxel", INF), ("voxel", 1e-300),
                         ("protrusion", NAN), ("protrusion", INF), ("inlier_dist", NAN),
                         ("ransac_iterations", 0), ("min_ground_inlier_ratio", NAN),
                         ("min_ground_inlier_ratio", 1.5))),
    # camera, birdview and scene values must be finite
    (["mask"], {"intrinsics": {**SMALL_INTRINSICS, "fx": NAN}}, 2),
    (["birdview", "{img}"], {**SMALL_CAMERA, "intrinsics": {**SMALL_INTRINSICS, "fx": NAN}}, 2),
    (["birdview", "{img}"], {**SMALL_CAMERA, "intrinsics": {**SMALL_INTRINSICS, "fy": INF}}, 2),
    *((["birdview", "{img}"], {**SMALL_CAMERA, "extrinsics": extrinsics}, 2) for extrinsics in (
        {"position": [NAN, 0.0, 0.7]}, {"position": [-1.0, INF, 0.7]},
        {"position": [-1.0, 0.0, 0.7], "rpy": [0.0, NAN, 0.0]})),
    *((["birdview", "{img}"], {**SMALL_CAMERA, "birdview": birdview}, 2) for birdview in (
        {"meters_per_pixel": NAN}, {"meters_per_pixel": INF}, {"view_center": [NAN, 0.0]},
        {"view_yaw": NAN})),
    (["render"], {"noise_sigma": NAN}, 2),
    (["render"], {"noise_sigma": -1.0}, 2),
    (["render"], {"noise_sigma": 2.0, "seed": -1}, 2),
    # every command reads --config, so a missing config is an input error
    (["--config", "{img}.missing", "mask"], SMALL_CAMERA, 2),
    # the command fills robot_pos, ball_pos, teammates and goal_center itself
    (["plan"], {**PLAN, "goal_center": [-4.5, 0]}, 2),
    (["plan"], {**PLAN, "robot_pos": [0, 0, 0]}, 2),
    # an obstacle needs a finite position and a positive, finite size
    (["render"], {"obstacles": [[0.5, 0, NAN, 0.3]]}, 2),
    (["render"], {"obstacles": [[0.5, 0, 0.02, -0.3]]}, 2),
    (["render"], {"obstacles": [[INF, 0, 0.02, 0.3]]}, 2),
    # an integer too large for a float
    (["gen-trajectory"], {"odom_noise": [10**400, 0, 0]}, 2),
    # a negative seed is refused when the settings are built
    (["detect-lines", "{img}", "--config"], {"vision": {"seed": -1}}, 2),
    (["stereo", "{left}", "{right}"], {"params": {**PAIR_PARAMS, "seed": -1}}, 2),
    # trajectory steps must be finite
    (["localize"], {"steps": [{"odometry": [0, 0, 0], "observations": [
        {"kind": "line", "distance": NAN, "direction": 0.3}]}]}, 2),
    (["localize"], {"steps": [{"odometry": [0, 0, 0], "observations": [
        {"kind": "corner", "position": [INF, 0.5], "orientation": 0.2}]}]}, 2),
    (["localize"], {"steps": [{"odometry": [0, NAN, 0], "observations": []}]}, 2),
    # a field without painted lines has no line or corner to expect, only posts
    (["localize"], {"field": {"line_segments": []}, "steps": [STEP]}, 0),
    (["gen-trajectory", "--steps", "2"], {"field": {"line_segments": []}}, 0),
    # a zero-length painted segment is refused wherever the field is read
    *(([command], {**doc, "field": {"line_segments": [[[1.0, 1.0], [1.0, 1.0]]]}}, 2)
      for command, doc in (("render", {}), ("plan", PLAN), ("localize", {"steps": [STEP]}),
                           ("gen-trajectory", {}))),
])
def test_malformed_document_exit_code(tmp_path, stereo_pair, argv, doc, code):
    img = tmp_path / "img.ppm"
    write_ppm(img, np.full((8, 8, 3), 90, np.uint8))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    left, right = stereo_pair
    argv = [a.format(img=img, left=left, right=right) for a in argv]
    assert run_cli(*argv, path, "--out", tmp_path / "out") == code


@pytest.mark.parametrize("header", [b"P6\nab 2\n255\n", b"P5\n2 x\n255\n",
                                    b"P5\n-1 -1\n255\nz", b"P5\n0 3\n255\n"])
def test_malformed_pnm_header(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header)
    with pytest.raises(InputError):
        read_pnm(path)
    assert run_cli("detect-lines", path) == 2


@pytest.fixture(scope="module")
def birdview_image(tmp_path_factory):
    work = tmp_path_factory.mktemp("bird")
    scene = work / "scene.json"
    scene.write_text(json.dumps({
        "birdview": {"out_width": 160, "out_height": 120, "meters_per_pixel": 0.03},
        "noise_sigma": 6.0,
    }))
    assert run_cli("--seed", 3, "render", scene, "--out", work / "bird.ppm") == 0
    return work / "bird.ppm"


@pytest.mark.parametrize("vision, code", [({}, 0), ({"hough_theta": 1e-4}, 0),
                                          ({"hough_theta": 1e-7}, 2),
                                          ({"hough_theta": 1e-300}, 2),
                                          ({"hough_rho": 1e-300}, 2),
                                          ({"hough_rho": 5e-324}, 2)], ids=str)
def test_hough_bins_too_fine_to_allocate_exit_code(tmp_path, birdview_image, vision, code):
    # the image has lines, so candidates reach the Hough accumulator; one too
    # fine is refused before it is allocated, so the refusal is quick
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vision": vision}))
    out = tmp_path / "lines.json"
    start = time.perf_counter()
    assert run_cli("--config", config, "detect-lines", birdview_image,
                   "--line-width-px", 2, "--out", out) == code
    if code == 0:
        assert json.loads(out.read_text())["lines"]
    else:
        assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def stereo_pair(tmp_path_factory):
    work = tmp_path_factory.mktemp("pair")
    scene = work / "scene.json"
    scene.write_text(json.dumps({
        "camera": {"extrinsics": {"position": [-0.4, 0.0, 0.35], "rpy": [0.0, 0.32, 0.0]},
                   "intrinsics": {"fx": 700.0, "fy": 700.0, "cx": 159.5, "cy": 119.5,
                                  "width": 320, "height": 240}},
        "obstacles": [[0.55, 0.0, 0.02, 0.3]],
    }))
    assert run_cli("--seed", 3, "render", scene, "--stereo", "--out", work / "pair.ppm") == 0
    return work / "pair_left.ppm", work / "pair_right.ppm"


@pytest.mark.parametrize("link_dist, code", [(0.1, 0), (0.0, 2), (float("nan"), 2),
                                             (-0.1, 2), (float("inf"), 2), (1e-300, 2)])
def test_stereo_link_dist_exit_code(tmp_path, stereo_pair, link_dist, code):
    # the pair has a ground plane and one obstacle above it, so clustering
    # runs; a tiny link_dist would overflow the int64 cell keys
    rig = tmp_path / "rig.json"
    rig.write_text(json.dumps({"params": {**PAIR_PARAMS, "link_dist": link_dist}}))
    out = tmp_path / "stereo.json"
    assert run_cli("stereo", *stereo_pair, rig, "--out", out) == code
    if code == 0:
        assert len(json.loads(out.read_text())["clusters"]) == 1


def test_stereo_seed_flag_beats_the_params_seed(tmp_path, stereo_pair):
    rig = tmp_path / "rig.json"
    out = tmp_path / "stereo.json"

    def stereo(seed, *flags):
        rig.write_text(json.dumps({"params": {**PAIR_PARAMS, "seed": seed}}))
        assert run_cli(*flags, "stereo", *stereo_pair, rig, "--out", out) == 0
        return out.read_text()

    assert stereo(5) == stereo(0, "--seed", 5) != stereo(0)


def test_unwritable_output_exit_code(tmp_path, scene_file):
    assert run_cli("plan", scene_file, "--out", tmp_path / "missing" / "plan.json") == 2


def test_missing_files_exit_code(tmp_path):
    assert run_cli("plan", tmp_path / "nope.json") == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00\x9c")
    assert run_cli("plan", binary) == 2
    assert run_cli("detect-lines", tmp_path / "nope.ppm") == 2
    assert run_cli("pipeline-bench", tmp_path / "nope.json") == 2


@pytest.mark.parametrize("kick", [30.0, 300.0, 1e6, 1e308], ids=str)
def test_plan_no_path_exit_code(tmp_path, kick):
    # no kick longer than the field has an edge; none of them is slow to find
    doc = {"ball": [0.0, 0.0], "robot": [0.0, 0.0, 0.0], "kick_lengths": [kick]}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(doc))
    assert run_cli("plan", f) == 3


def test_detect_lines_flags_beat_the_vision_section(tmp_path, birdview_image):
    config = tmp_path / "config.json"
    out = tmp_path / "lines.json"

    def detect(vision, *flags):
        config.write_text(json.dumps({"vision": vision}))
        assert run_cli("--config", config, "detect-lines", birdview_image,
                       "--line-width-px", 2, *flags, "--out", out) == 0
        return out.read_text()

    flags = ("--decimation", 1, "--min-length", 10, "--seed", 4)
    by_section = detect({"decimation": 1, "min_length": 10, "seed": 4})
    assert by_section == detect({}, *flags) != detect({})
    assert detect({"decimation": 3, "min_length": 60, "seed": 7}, *flags) == by_section


def test_render_and_detect_lines(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "birdview": {"out_width": 320, "out_height": 240, "meters_per_pixel": 0.015,
                     "view_center": [0.0, 2.0]},
        "noise_sigma": 4.0,
    }))
    img = tmp_path / "bird.ppm"
    assert run_cli("--seed", 3, "render", scene, "--out", img) == 0
    out = tmp_path / "lines.json"
    assert run_cli("detect-lines", img, "--line-width-px", 3, "--decimation", 2,
                   "--min-length", 35, "--out", out,
                   "--overlay", tmp_path / "overlay.ppm") == 0
    doc = json.loads(out.read_text())
    assert len(doc["lines"]) >= 2
    assert len(doc["corners"]) >= 1


def test_birdview_subcommand(tmp_path, camera_file):
    spec = FieldSpec()
    src = tmp_path / "view.ppm"
    # render a perspective view through the same camera JSON
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"camera": json.loads(camera_file.read_text())}))
    assert run_cli("render", scene, "--out", src) == 0
    out = tmp_path / "bird.ppm"
    assert run_cli("birdview", src, camera_file, "--out", out) == 0
    assert read_pnm(out).shape == (150, 200, 3)


def test_distort_and_mask_subcommands(tmp_path, camera_file):
    src = tmp_path / "src.ppm"
    rgb = np.zeros((240, 320, 3), np.uint8)
    rgb[:, :, 1] = 90
    rgb[120, :, :] = 255
    write_ppm(src, rgb)
    out = tmp_path / "wide.ppm"
    assert run_cli("distort", src, camera_file, "--k1", -0.3, "--k2", 0.1,
                   "--out", out) == 0
    assert read_pnm(out).shape == (240, 320, 3)
    mask_out = tmp_path / "mask.pgm"
    assert run_cli("mask", camera_file, "--fov-deg", 50.0, "--out", mask_out) == 0
    mask = read_pnm(mask_out)
    assert mask[120, 160] == 255 and mask[0, 0] == 0


def test_gen_trajectory_then_localize(tmp_path):
    traj = tmp_path / "traj.json"
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"robot": [-2.0, -1.0, 0.5]}))
    assert run_cli("--seed", 7, "gen-trajectory", scene, "--steps", 12,
                   "--out", traj) == 0
    est = tmp_path / "est.jsonl"
    assert run_cli("--seed", 1, "localize", traj, "--particles", 300,
                   "--out", est) == 0
    lines = est.read_text().strip().split("\n")
    assert len(lines) == 12
    last = json.loads(lines[-1])
    assert set(last) == {"step", "estimate", "spread", "mode"}


@pytest.mark.parametrize("step", [
    {"odometry": [0, 0, 0], "observations": [{"kind": "line"}]},
    {"odometry": [0, 0, 0], "observations": [{"kind": "corner", "position": [1.0],
                                              "orientation": 0.0}]},
    {"observations": []},
    {"odometry": [0, 0, 0]},
    {"odometry": [0, 0], "observations": []},
    {"odometry": [0, 0, 0], "observations": [{"kind": "foo", "position": [1, 2]}]},
])
def test_localize_malformed_step_exit_code(tmp_path, step):
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"steps": [step]}))
    assert run_cli("localize", traj, "--particles", 50) == 2


def test_localize_non_finite_odometry_message(tmp_path, capsys):
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"steps": [{"odometry": [0.1, 0, 0], "observations": []},
                                          {"odometry": [0, INF, 0], "observations": []}]}))
    assert run_cli("localize", traj, "--particles", 50) == 2
    assert "step 1: odometry must be finite [dx, dy, dtheta], got [0.0, inf, 0.0]" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["localize", "gen-trajectory"])
@pytest.mark.parametrize("noise", [
    {"sigmas": {"sigma_d": "x"}},
    {"sigmas": {"sigma_p": [0.2]}},
    {"sigmas": {"sigma_theta": -0.1}},
    {"sigmas": {"sigma_d": float("nan")}},
    {"sigmas": [0.1, 0.2]},
    {"odom_noise": [0.1]},
    {"odom_noise": [0.1, 0.1, 0.1, 0.1]},
    {"odom_noise": [0.1, -0.1, 0.1]},
    {"odom_noise": [0.1, float("nan"), 0.1]},
    {"odom_noise": [0.1, float("inf"), 0.1]},
    {"odom_noise": [0.1, "y", 0.1]},
    {"odom_noise": "123"},
    {"odom_noise": 0.1},
])
def test_malformed_noise_exit_code(tmp_path, command, noise):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"steps": [{"odometry": [0.1, 0.0, 0.0], "observations": []}],
                               **noise}))
    argv = [command, doc, "--out", tmp_path / "out.json"]
    assert run_cli(*argv, *(["--particles", 50] if command == "localize" else
                            ["--steps", 2])) == 2


@pytest.mark.parametrize("command", ["localize", "gen-trajectory"])
@pytest.mark.parametrize("where", ["document", "config", "both"])
def test_null_sigmas_is_absent(tmp_path, command, where):
    # like every other section, "sigmas": null reads as no "sigmas" key
    steps = {"steps": [{"odometry": [0.1, 0.0, 0.0], "observations": []}]}
    flags = ["--particles", 50] if command == "localize" else ["--steps", 2]
    outputs = []
    for sigmas in ({}, {"sigmas": None}):
        doc, config = tmp_path / "doc.json", tmp_path / "config.json"
        doc.write_text(json.dumps({**steps, **(sigmas if where != "config" else {})}))
        config.write_text(json.dumps(sigmas if where != "document" else {}))
        out = tmp_path / f"out{len(outputs)}.json"
        assert run_cli("--config", config, command, doc, "--out", out, *flags) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_stereo_subcommand(tmp_path, monkeypatch):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "camera": {"extrinsics": {"position": [-0.4, 0.0, 0.35], "rpy": [0.0, 0.32, 0.0]},
                   "intrinsics": {"fx": 700.0, "fy": 700.0, "cx": 159.5, "cy": 119.5,
                                  "width": 320, "height": 240}},
        "obstacles": [[0.55, -0.12, 0.02, 0.3], [0.55, 0.12, 0.02, 0.3]],
    }))
    assert run_cli("render", scene, "--stereo", "--out", tmp_path / "pair.ppm") == 0
    rig = tmp_path / "rig.json"
    rig.write_text(json.dumps({
        "baseline": 0.062, "focal": 700.0, "cx": 159.5, "cy": 119.5,
        "width": 320, "height": 240,
        "params": {"voxel": 0.03, "protrusion": 0.08, "link_dist": 0.1,
                   "min_cluster_size": 8},
    }))
    out = tmp_path / "stereo.json"
    cloud = tmp_path / "cloud.xyz"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return block_match(*args, **kwargs)

    # every block_match the command can reach: its own and the chain's
    monkeypatch.setattr(fieldkit.cli, "block_match", counted)
    monkeypatch.setattr(fieldkit.stereo_obstacles, "block_match", counted)
    assert run_cli("stereo", tmp_path / "pair_left.ppm", tmp_path / "pair_right.ppm",
                   rig, "--out", out, "--cloud", cloud) == 0
    assert len(calls) == 1  # the obstacles and the cloud share one disparity map
    doc = json.loads(out.read_text())
    assert len(doc["clusters"]) == 2
    assert abs(np.linalg.norm(doc["plane"]["normal"]) - 1.0) < 1e-9
    assert len(cloud.read_text().strip().split("\n")) > 100


def test_pipeline_bench_subcommand(tmp_path):
    pipeline = tmp_path / "pipe.json"
    pipeline.write_text(json.dumps({
        "source_slots": ["frame"],
        "filters": [
            {"name": "a", "inputs": ["frame"], "outputs": ["x"]},
            {"name": "b", "inputs": ["x"], "outputs": ["y"]},
            {"name": "c", "inputs": ["x"], "outputs": ["z"], "divider": 2},
        ],
    }))
    out = tmp_path / "bench.json"
    assert run_cli("pipeline-bench", pipeline, "--frames", 4, "--sleep-ms", 1,
                   "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["batches"] == [["a"], ["b", "c"]]
    assert doc["executions"] == {"a": 4, "b": 4, "c": 2}


def test_pipeline_cycle_exit_code(tmp_path):
    pipeline = tmp_path / "pipe.json"
    pipeline.write_text(json.dumps({
        "source_slots": [],
        "filters": [
            {"name": "a", "inputs": ["sb"], "outputs": ["sa"]},
            {"name": "b", "inputs": ["sa"], "outputs": ["sb"]},
        ],
    }))
    assert run_cli("pipeline-bench", pipeline) == 2


def test_config_flag_supplies_field(tmp_path, scene_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"field": FieldSpec().to_dict()}))
    out = tmp_path / "plan.json"
    assert run_cli("--config", config, "plan", scene_file, "--out", out) == 0
    assert json.loads(out.read_text())["total_cost"] > 0


@pytest.mark.parametrize("args_builder", [
    lambda d: ["--seed", "5", "plan", d / "scene.json"],
    lambda d: ["--seed", "5", "gen-trajectory", d / "scene2.json", "--steps", "5"],
])
def test_json_outputs_byte_identical_under_seed(tmp_path, scene_file, args_builder):
    (tmp_path / "scene.json").write_text(scene_file.read_text())
    (tmp_path / "scene2.json").write_text(json.dumps({"robot": [0.0, 0.0, 0.0]}))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        argv = [str(a) for a in args_builder(tmp_path)] + ["--out", str(out)]
        assert main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_seed_before_or_after_the_subcommand(tmp_path):
    # the top-level --seed must survive parsing of the subcommand's copy
    outs = []
    for argv in (["--seed", 5, "gen-trajectory"], ["gen-trajectory", "--seed", 5],
                 ["gen-trajectory"]):
        out = tmp_path / "traj.json"
        assert run_cli(*argv, "--steps", 3, "--out", out) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] != outs[2]


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "fieldkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fieldkit" in proc.stdout
