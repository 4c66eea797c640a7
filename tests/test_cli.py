import json
import subprocess
import sys

import numpy as np
import pytest

from fieldkit.cli import main
from fieldkit.field_model import FieldSpec
from fieldkit.raster import read_pnm, write_ppm


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
    for doc in ({"robot": [0, 0, 0]},                 # no ball
                {"robot": [0, 0, 0], "ball": "x"},    # ball not a point
                [[0, 0, 0], [0.5, 0.2]]):             # not an object
        bad.write_text(json.dumps(doc))
        assert run_cli("plan", bad) == 2, doc


def test_render_non_object_document_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2, 3]))
    assert run_cli("render", bad, "--out", tmp_path / "r.ppm") == 2


@pytest.mark.parametrize("argv", [
    ["gen-trajectory", "--steps", "0"],
    ["localize", "{traj}", "--particles", "-3"],
    ["pipeline-bench", "{pipe}", "--frames", "0"],
])
def test_non_positive_counts_exit_code(tmp_path, argv):
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"steps": []}))
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"source_slots": [], "filters": []}))
    # argparse rejects the count before any command runs
    with pytest.raises(SystemExit) as exc:
        run_cli(*[a.format(traj=traj, pipe=pipe) for a in argv])
    assert exc.value.code == 2


def test_missing_files_exit_code(tmp_path):
    assert run_cli("plan", tmp_path / "nope.json") == 2
    assert run_cli("detect-lines", tmp_path / "nope.ppm") == 2
    assert run_cli("pipeline-bench", tmp_path / "nope.json") == 2


def test_plan_no_path_exit_code(tmp_path):
    doc = {"ball": [0.0, 0.0], "robot": [0.0, 0.0, 0.0], "kick_lengths": [30.0]}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(doc))
    assert run_cli("plan", f) == 3


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


def test_stereo_subcommand(tmp_path):
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
    assert run_cli("stereo", tmp_path / "pair_left.ppm", tmp_path / "pair_right.ppm",
                   rig, "--out", out, "--cloud", cloud) == 0
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


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "fieldkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fieldkit" in proc.stdout
