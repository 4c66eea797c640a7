"""Print one SHA-256 per output of a fixed set of seeded fieldkit commands.

Run it on two commits and compare the listings to show that a change keeps
every CLI output byte-identical:

    PYTHONPATH=src python3 tests/cli_hashes.py

The command set is acceptance criterion 8's (tests/test_acceptance.py),
with its fixtures hashed too, plus what it leaves out: detect-lines on an
image with corners and an overlay, stereo --cloud with extrinsics, birdview
--bilinear, distort --mask-fov, localize --config with sigmas, plan
--zero-heuristic --overlay, pipeline-bench with --workers, detect-lines
with its settings in a --config vision section, and a render and a mask
through the benchmark's distorted head lens. Every command runs in one
temporary directory and must exit 0. The name does not match pytest's
test_*.py pattern, so the suite does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from fieldkit.cli import main as cli_main

CAMERA = {
    "intrinsics": {"fx": 300.0, "fy": 300.0, "cx": 79.5, "cy": 59.5,
                   "width": 160, "height": 120},
    "extrinsics": {"position": [-1.0, 0.0, 0.7], "rpy": [0.0, 0.75, 0.0]},
    "birdview": {"out_width": 120, "out_height": 90, "meters_per_pixel": 0.02},
}
# the benchmark's head camera: barrel distortion k1 = -0.3, k2 = 0.1
HEAD_CAMERA = {**CAMERA, "intrinsics": {"fx": 260.0, "fy": 260.0, "cx": 159.5, "cy": 119.5,
                                        "width": 320, "height": 240, "k1": -0.3, "k2": 0.1}}
RIG = {"baseline": 0.062, "focal": 700.0, "cx": 159.5, "cy": 119.5,
       "width": 320, "height": 240,
       "params": {"voxel": 0.03, "protrusion": 0.08, "link_dist": 0.1,
                  "min_cluster_size": 8}}
DOCUMENTS = {
    "scene.json": {"ball": [0.5, 0.2], "robot": [0.0, 0.0, 0.2],
                   "opponents": [[2.0, 0.1]], "teammates": [[3.0, 1.0, 0.0]]},
    "render_scene.json": {
        "birdview": {"out_width": 160, "out_height": 120, "meters_per_pixel": 0.03},
        "noise_sigma": 6.0},
    "stereo_scene.json": {
        "camera": {"extrinsics": {"position": [-0.4, 0.0, 0.35], "rpy": [0.0, 0.32, 0.0]},
                   "intrinsics": {"fx": 700.0, "fy": 700.0, "cx": 159.5, "cy": 119.5,
                                  "width": 320, "height": 240}},
        "obstacles": [[0.55, 0.0, 0.02, 0.3]]},
    "camera.json": CAMERA,
    "rig.json": RIG,
    "rig_ex.json": {**RIG, "extrinsics": {"position": [-0.4, 0.0, 0.35],
                                          "rpy": [0.0, 0.32, 0.0]}},
    "pipe.json": {"source_slots": ["frame"],
                  "filters": [{"name": "a", "inputs": ["frame"], "outputs": ["x"]},
                              {"name": "b", "inputs": ["x"], "outputs": ["y"],
                               "divider": 2}]},
    "traj_scene.json": {"robot": [-2.0, -1.0, 0.5]},
    "persp.json": {"camera": CAMERA, "noise_sigma": 4.0},
    "head_camera.json": HEAD_CAMERA,
    "persp_head.json": {"camera": HEAD_CAMERA, "noise_sigma": 4.0},
    "field_scene.json": {
        "birdview": {"out_width": 320, "out_height": 240, "meters_per_pixel": 0.02},
        "noise_sigma": 4.0},
    "sigmas.json": {"sigmas": {"sigma_d": 0.2, "sigma_p": 0.25, "max_range": 3.5}},
    # the config's values for the flags the corners.json command gives
    "vision.json": {"vision": {"decimation": 2, "min_length": 30}},
    # the document's sigmas win over the config's, key by key
    "walk.json": {"sigmas": {"sigma_theta": 0.2}, "steps": [
        {"odometry": [0.1, 0.0, 0.05],
         "observations": [{"kind": "line", "distance": 1.0, "direction": 0.1},
                          {"kind": "corner", "position": [1.0, 0.5], "orientation": 0.3}]},
        {"odometry": [0.1, 0.02, 0.0],
         "observations": [{"kind": "point", "position": [2.0, -0.7]},
                          {"kind": "line", "distance": -0.8, "direction": 1.6}]},
    ]},
}

# (argv, files it writes); inputs of later commands are written by earlier ones
COMMANDS = [
    (["--seed", "3", "render", "render_scene.json", "--out", "bird.ppm"], ["bird.ppm"]),
    (["--seed", "3", "render", "stereo_scene.json", "--stereo", "--out", "pair.ppm"],
     ["pair_left.ppm", "pair_right.ppm"]),
    (["--seed", "3", "render", "render_scene.json", "--out", "view.ppm"], ["view.ppm"]),
    (["--seed", "5", "gen-trajectory", "traj_scene.json", "--steps", "8", "--out", "traj.json"],
     ["traj.json"]),
    (["--seed", "4", "render", "persp.json", "--out", "persp.ppm"], ["persp.ppm"]),
    (["--seed", "9", "plan", "scene.json", "--out", "plan.json"], ["plan.json"]),
    (["--seed", "9", "detect-lines", "bird.ppm", "--line-width-px", "2", "--decimation", "2",
      "--min-length", "30", "--out", "lines.json"], ["lines.json"]),
    (["--seed", "9", "birdview", "persp.ppm", "camera.json", "--out", "birdview.ppm"],
     ["birdview.ppm"]),
    (["--seed", "9", "localize", "traj.json", "--particles", "200", "--out", "localize.json"],
     ["localize.json"]),
    (["--seed", "9", "stereo", "pair_left.ppm", "pair_right.ppm", "rig.json",
      "--out", "stereo.json"], ["stereo.json"]),
    (["--seed", "9", "pipeline-bench", "pipe.json", "--frames", "3", "--sleep-ms", "1",
      "--out", "pipeline.json"], ["pipeline.json"]),
    (["--seed", "9", "gen-trajectory", "traj_scene.json", "--steps", "6",
      "--out", "gen_trajectory.json"], ["gen_trajectory.json"]),
    (["--seed", "9", "render", "render_scene.json", "--out", "render.ppm"], ["render.ppm"]),
    (["--seed", "9", "distort", "view.ppm", "camera.json", "--k1", "-0.2", "--k2", "0.05",
      "--out", "distort.ppm"], ["distort.ppm"]),
    (["--seed", "9", "mask", "camera.json", "--fov-deg", "30", "--out", "mask.pgm"],
     ["mask.pgm"]),
    # flags criterion 8 leaves out; render --stereo made pair_*.ppm above
    (["--seed", "3", "render", "field_scene.json", "--out", "field.ppm"], ["field.ppm"]),
    (["--seed", "9", "detect-lines", "field.ppm", "--line-width-px", "3", "--decimation", "2",
      "--min-length", "30", "--overlay", "corners.ppm", "--out", "corners.json"],
     ["corners.json", "corners.ppm"]),
    # a config section sets what the flags set: the same hash as corners.json
    (["--seed", "9", "--config", "vision.json", "detect-lines", "field.ppm",
      "--line-width-px", "3", "--out", "corners_config.json"], ["corners_config.json"]),
    (["--seed", "9", "stereo", "pair_left.ppm", "pair_right.ppm", "rig_ex.json",
      "--cloud", "cloud.xyz", "--out", "stereo_cloud.json"], ["stereo_cloud.json", "cloud.xyz"]),
    (["--seed", "9", "birdview", "persp.ppm", "camera.json", "--bilinear",
      "--out", "birdview_bilinear.ppm"], ["birdview_bilinear.ppm"]),
    (["--seed", "9", "distort", "view.ppm", "camera.json", "--k1", "-0.2", "--k2", "0.05",
      "--mask-fov", "30", "--out", "distort_masked.ppm"], ["distort_masked.ppm"]),
    (["--seed", "9", "--config", "sigmas.json", "localize", "walk.json", "--particles", "200",
      "--out", "localize_sigmas.json"], ["localize_sigmas.json"]),
    (["--seed", "9", "plan", "scene.json", "--zero-heuristic", "--overlay", "plan_zero.ppm",
      "--out", "plan_zero.json"], ["plan_zero.json", "plan_zero.ppm"]),
    (["--seed", "9", "pipeline-bench", "pipe.json", "--frames", "4", "--sleep-ms", "0",
      "--workers", "2", "--out", "pipeline_workers.json"], ["pipeline_workers.json"]),
    # the lens inversion: every ray of a render, and a mask that cuts the corners
    (["--seed", "4", "render", "persp_head.json", "--out", "persp_head.ppm"], ["persp_head.ppm"]),
    (["--seed", "9", "mask", "head_camera.json", "--fov-deg", "70", "--out", "mask_head.pgm"],
     ["mask_head.pgm"]),
]


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # commands name their files relative to the directory
        try:
            for name, doc in DOCUMENTS.items():
                Path(name).write_text(json.dumps(doc))
            for argv, outputs in COMMANDS:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli_main(argv)
                if code != 0:
                    print(f"exit {code}: {' '.join(argv)}\n{err.getvalue()}", file=sys.stderr)
                    return 1
                for out in outputs:
                    print(f"{hashlib.sha256(Path(out).read_bytes()).hexdigest()}  {out}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
