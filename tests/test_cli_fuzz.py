"""The CLI contract under random input: every subcommand, fed random JSON
documents (valid ones with keys dropped, added or retyped, and documents of
any JSON shape, NaN and infinities included) and random argv, returns 0, 2
or 3, or stops in argparse with SystemExit 0 or 2. Any other exception
fails the test.

Magnitudes are bounded only to keep the runtime down (8x8 images, at most
50 particles, 3 steps or frames, 1 ms of sleep). The draws are derandomized,
so the suite stays deterministic.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fieldkit.cli import main  # noqa: E402
from fieldkit.raster import write_ppm  # noqa: E402

INTRINSICS = {"fx": 6.0, "fy": 6.0, "cx": 3.5, "cy": 3.5, "width": 8, "height": 8}
EXTRINSICS = {"position": [-1.0, 0.0, 0.7], "rpy": [0.0, 0.75, 0.0]}
BIRDVIEW = {"out_width": 8, "out_height": 6, "meters_per_pixel": 0.2,
            "view_center": [0.3, 0.0], "view_yaw": 0.1}
CAMERA = {"intrinsics": INTRINSICS, "extrinsics": EXTRINSICS, "birdview": BIRDVIEW}
RIG = {"baseline": 0.062, "focal": 6.0, "cx": 3.5, "cy": 3.5, "width": 8, "height": 8}
# a coarse grid keeps each plan short; retyping reaches FieldSpec.from_dict
FIELD = {"length": 9.0, "width": 6.0, "cell_size": 0.25, "line_width": 0.05,
         "circle": {"center": [0.0, 0.0], "radius": 0.75},
         "goals": {"left": [-4.5, 0.0], "right": [4.5, 0.0], "width": 2.6}}
SCENE = {"robot": [0.0, 0.0, 0.2], "obstacles": [[0.5, 0.0, 0.1, 0.3]],
         "noise_sigma": 2.0, "seed": 1}

# per subcommand: the argv before the flags, a valid document, and its flags
COMMANDS = {
    "plan": (["plan", "{doc}"],
             {"ball": [0.5, 0.2], "robot": [0.0, 0.0, 0.2], "opponents": [[2.0, 0.1]],
              "teammates": [[3.0, 1.0, 0.0]], "kick_lengths": [0.5, 1.0, 2.0],
              "goal": [4.5, 0.0], "ball_speed": 2.0, "field": FIELD},
             ["--zero-heuristic", "--overlay"]),
    "detect-lines": (["detect-lines", "{img}", "--config", "{doc}"],
                     {"vision": {"nms_threshold": 5.0, "hough_votes": 3, "max_gap": 4.0,
                                 "hough_rho": 1.0, "hough_theta": 0.05, "seed": 0}},
                     ["--line-width-px", "--decimation", "--min-length", "--overlay"]),
    "birdview": (["birdview", "{img}", "{doc}"], CAMERA, ["--bilinear"]),
    "distort": (["distort", "{img}", "{doc}"], CAMERA, ["--k1", "--k2", "--mask-fov"]),
    # the default 100 degree limit exceeds the 8x8 camera's 79 degree field
    "mask": (["mask", "{doc}", "--fov-deg", "60"], CAMERA, ["--fov-deg"]),
    # the field's segments make a cross, so the layout has lines and corners
    "localize": (["localize", "{doc}"],
                 {"sigmas": {"sigma_d": 0.2, "max_range": 4.0}, "odom_noise": [0.02, 0.02, 0.02],
                  "field": {"line_segments": [[[-1.0, 0.0], [1.0, 0.0]],
                                              [[0.0, -1.0], [0.0, 1.0]]]},
                  "steps": [{"odometry": [0.1, 0.0, 0.0], "observations": [
                      {"kind": "line", "distance": 1.0, "direction": 0.3},
                      {"kind": "corner", "position": [1.0, 0.5], "orientation": 0.2},
                      {"kind": "point", "position": [2.0, 0.4]}]}]},
                 ["--particles"]),
    "stereo": (["stereo", "{img}", "{img}", "{doc}"],
               {**RIG, "params": {"window": 3, "max_disparity": 4, "step": 1,
                                  "min_cluster_size": 1, "min_ground_inlier_ratio": 0.0,
                                  "seed": 0},
                "extrinsics": EXTRINSICS},
               ["--cloud"]),
    "pipeline-bench": (["pipeline-bench", "{doc}"],
                       {"source_slots": ["frame"],
                        "filters": [{"name": "a", "inputs": ["frame"], "outputs": ["x"]},
                                    {"name": "b", "inputs": ["x"], "outputs": ["y"],
                                     "divider": 2}]},
                       ["--frames", "--sleep-ms", "--workers"]),
    "render": (["render", "{doc}"],
               {**SCENE, "birdview": BIRDVIEW, "camera": {"intrinsics": INTRINSICS,
                                                          "extrinsics": EXTRINSICS},
                "rig": RIG, "textured": True},
               ["--stereo"]),
    "gen-trajectory": (["gen-trajectory", "{doc}"],
                       {**SCENE, "sigmas": {"sigma_p": 0.3}, "odom_noise": [0.0, 0.1, 0.0]},
                       ["--steps"]),
}

KEYS = sorted({key for _, doc, _ in COMMANDS.values() for key in doc}
              | set(INTRINSICS) | set(EXTRINSICS) | set(BIRDVIEW) | {"bogus", "params"})

# Python's json reads and writes NaN and Infinity, so documents may hold them
numbers = (st.integers(-3, 12) | st.floats(-4.0, 4.0, allow_nan=False)
           | st.sampled_from([math.nan, math.inf, -math.inf]))
scalars = st.none() | st.booleans() | numbers | st.text(max_size=3)
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=8)

# valid values are bounded to keep each run short; the rest are invalid
FLAG_VALUES = {
    "--line-width-px": st.floats(0.0, 8.0).map(str),
    "--decimation": st.integers(1, 4).map(str),
    "--min-length": st.floats(0.0, 12.0).map(str),
    "--k1": st.floats(-0.5, 0.5).map(str),
    "--k2": st.floats(-0.2, 0.2).map(str),
    "--mask-fov": st.floats(0.0, 120.0).map(str),
    "--fov-deg": st.floats(0.0, 120.0).map(str),
    "--particles": st.integers(1, 50).map(str),
    "--steps": st.integers(1, 3).map(str),
    "--frames": st.integers(1, 3).map(str),
    "--sleep-ms": st.floats(0.0, 1.0).map(str),
    "--workers": st.integers(1, 3).map(str),
    "--seed": st.integers(0, 5).map(str),
}
BAD_VALUES = st.sampled_from(["nan", "inf", "-1", "0", "x", ""])
PATH_FLAGS = ("--overlay", "--cloud")


def _paths(doc):
    """Every path into the nested objects and lists of a JSON value."""
    yield ()
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        for rest in _paths(value):
            yield (key, *rest)


@st.composite
def documents(draw, base):
    """A copy of `base` with a few keys dropped, added or retyped, or any JSON value."""
    if draw(st.integers(0, 5)) == 0:
        return draw(values)
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["drop", "retype", "add"]))
        if action == "drop":
            del parent[path[-1]]
        elif action == "retype":
            parent[path[-1]] = draw(values)
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(KEYS))] = draw(values)
    return doc


@st.composite
def invocations(draw, command):
    head, base, flags = COMMANDS[command]
    argv = list(head)
    for flag in ["--seed", *flags]:
        if draw(st.booleans()):
            continue
        argv.append(flag)
        if flag in PATH_FLAGS:
            argv.append("{out}." + flag[2:])
        elif flag in FLAG_VALUES:
            bad = draw(st.integers(0, 7)) == 0
            argv.append(draw(BAD_VALUES if bad else FLAG_VALUES[flag]))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x"])))
    return argv, draw(documents(base))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    rgb = np.random.default_rng(0).integers(0, 256, (8, 8, 3), dtype=np.uint8)
    rgb[3:5, :, :] = 255
    write_ppm(work / "img.ppm", rgb)
    return work


def _command_line(workdir, argv, doc):
    """Write `doc` into the work directory and fill in argv's paths."""
    (workdir / "doc.json").write_text(json.dumps(doc))
    out = str(workdir / "out")
    return [a.format(doc=workdir / "doc.json", img=workdir / "img.ppm", out=out)
            for a in argv] + ["--out", out + ".out"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_base_documents_run(workdir, command):
    # the draws start from these, so each must be valid as it stands; stereo
    # reads one image as both views, so no pixel has a disparity (exit 3)
    head, base, _ = COMMANDS[command]
    assert main(_command_line(workdir, head, base)) in ((0, 3) if command == "stereo" else (0,))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_contract_under_random_input(workdir, command):
    @settings(max_examples=20, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations(command))
    def check(invocation):
        argv = _command_line(workdir, *invocation)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
        else:
            assert code in (0, 2, 3), argv

    check()
