"""Time the vision and stereo stages, the localization steps and the planner,
each alone, on the benchmark's seeded frames and scenes, and print their
medians.

    PYTHONPATH=src python3 tests/stage_times.py [--repeats N] [--beside]

For seeds 1 and 2 it builds the inputs of perfbench's head_scan,
match_frames and set_pieces workloads through perfbench/workloads.py
(imported, not changed) and times each frame's stages as the frame loop
calls them.

Vision: it renders the camera frames and times a birdview with an empty
index cache (a miss), the same birdview again (a hit), then detect_lines on
it. It then runs detect_lines once more with each of its stages wrapped in
a timer where detect_lines looks it up, and times each stage alone: the
crop box, the two integral images, each pass, NMS and the Hough transform
(both directions together), and merge plus corners. Stereo: on each of
match_frames' stereo pairs it times block_match, disparity_to_points,
voxel_bin, ransac_plane and extract_clusters with the workload's rig and
parameters, each on the output of the one before.
Localization: it runs the workload's filter (same particle count, seed,
odometry, noise and observations) over two cycles of the frame pool and
times predict, update_and_resample and estimate_dominant_pose on each frame.
The filter's random state is restored before each repeat, so every repeat
times the same call and the filter follows the benchmark's trajectory.
Planner: it times plan_ball_path on the first 512 scenes of perfbench's
set_pieces workload (both kick sets), after one untimed query per kick set
has built the kick graphs, as the workload's warm-up does.
Each frame or scene is timed N times (default 5); a line gives the median
over all frames and repeats, and the last line per workload the median
number of distinct poses the mode saw. The planner's line gives the median
and p90 over all scenes and repeats, and the median expanded_nodes.

With --beside it times only block_match and update_and_resample, as above,
while a second thread runs detect_lines without pause on the birdviews of
the same workload's camera frames, as the frame loop's pool overlaps them.
Times alone miss most of what the two cost in a frame.

BLAS is pinned to one thread before numpy loads, as perfbench/run.py pins
it: the birdview projects its points with an (N, 3) @ (3, 3) product and
ransac_plane scores its hypotheses with an (N, 3) @ (3, B) one, which a
multi-threaded BLAS runs several times slower, so unpinned times would not
be the times the benchmark sees. The name does not match pytest's
test_*.py pattern, so the suite does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import concurrent.futures  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from fieldkit import ball_planner, birdview, errors, field_model, line_vision  # noqa: E402
from fieldkit import localization  # noqa: E402
from fieldkit import stereo_obstacles  # noqa: E402


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


# detect_lines' stage functions and the line each one's time goes to; a
# pass goes to the line of its direction
LINE_STAGES = {"_crop_box": "crop box", "integral_image": "integral images",
               "line_response_pass": None, "nms": "nms", "hough_segments": "hough",
               "merge_segments": "merge and corners", "detect_corners": "merge and corners"}
LINE_LINES = ["lines: " + s for s in ("crop box", "integral images", "horizontal pass",
                                      "vertical pass", "nms", "hough", "merge and corners")]


def line_stages(bird) -> collections.Counter:
    """The ms each detect_lines stage took on one birdview, summed over its
    calls in one detect_lines run."""
    spent = collections.Counter()
    originals = {name: getattr(line_vision, name) for name in LINE_STAGES}

    def timer(name, fn):
        def timed(*args):
            out, ms = _timed(fn, *args)
            spent["lines: " + (LINE_STAGES[name] or f"{args[1]} pass")] += ms
            return out
        return timed

    try:
        for name, fn in originals.items():
            setattr(line_vision, name, timer(name, fn))
        line_vision.detect_lines(bird, workloads.LINE_WIDTH_PX, workloads.VISION)
    finally:
        for name, fn in originals.items():
            setattr(line_vision, name, fn)
    return spent


STEREO_STAGES = ("block_match", "disparity_to_points", "voxel_bin", "ransac_plane",
                 "extract_clusters")


def stereo_times(rendered: dict, repeats: int, times: dict) -> None:
    """Append to times each stereo stage's samples, in ms, on one pair."""
    params = workloads.STEREO_PARAMS
    for _ in range(repeats):
        disparity, ms = _timed(stereo_obstacles.block_match, rendered["left"],
                               rendered["right"], params)
        times["block_match"].append(ms)
        cloud, ms = _timed(stereo_obstacles.disparity_to_points, disparity, workloads.RIG,
                           params)
        times["disparity_to_points"].append(ms)
        binned, ms = _timed(stereo_obstacles.voxel_bin, cloud, params)
        times["voxel_bin"].append(ms)
        plane, ms = _timed(stereo_obstacles.ransac_plane, binned, params)
        times["ransac_plane"].append(ms)
        _, ms = _timed(stereo_obstacles.extract_clusters, binned, plane, params)
        times["extract_clusters"].append(ms)


def stage_times(name: str, seed: int, repeats: int) -> dict:
    """Every sample, in ms, of each stage on one workload's camera frames and
    stereo pairs; a workload without stereo has no stereo samples."""
    wl = workloads.build(name)
    inputs, jobs = wl.make_inputs(seed)
    times = {"birdview miss": [], "birdview hit": [], "detect_lines": []}
    times.update((stage, []) for stage in LINE_LINES + list(STEREO_STAGES))
    for job in jobs:
        j, rendered = wl.render(job)
        if job[0] == "stereo":
            stereo_times(rendered, repeats, times)
            continue
        frame = inputs["frames"][j]
        camera, spec = workloads._head_camera(frame["pan"] + wl.drift(j), frame["tilt"])
        args = (rendered["image"], camera, workloads.HEAD_INTRINSICS, spec)
        for _ in range(repeats):
            birdview._nearest_index_map.cache_clear()
            _, miss = _timed(birdview.birdview_transform, *args)
            bird, hit = _timed(birdview.birdview_transform, *args)
            _, lines = _timed(line_vision.detect_lines, bird, workloads.LINE_WIDTH_PX,
                              workloads.VISION)
            times["birdview miss"].append(miss)
            times["birdview hit"].append(hit)
            times["detect_lines"].append(lines)
            for stage, ms in line_stages(bird).items():
                times[stage].append(ms)
    return times


def beside_lines(name: str, seed: int, repeats: int) -> dict:
    """Every sample, in ms, of block_match on one workload's stereo pairs and
    of update_and_resample on its frames, while another thread runs
    detect_lines on the birdviews of its camera frames."""
    wl = workloads.build(name)
    inputs, jobs = wl.make_inputs(seed)
    birds, pairs = [], []
    for job in jobs:
        j, rendered = wl.render(job)
        if job[0] == "stereo":
            pairs.append(rendered)
            continue
        frame = inputs["frames"][j]
        camera, spec = workloads._head_camera(frame["pan"] + wl.drift(j), frame["tilt"])
        birds.append(birdview.birdview_transform(rendered["image"], camera,
                                                 workloads.HEAD_INTRINSICS, spec))
    done = threading.Event()

    def lines():
        while not done.is_set():
            for bird in birds:
                line_vision.detect_lines(bird, workloads.LINE_WIDTH_PX, workloads.VISION)

    # result() re-raises a detect_lines failure, which would otherwise leave
    # the stages timed alone without a word
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        running = pool.submit(lines)
        try:
            times = {"block_match": []}
            for rendered in pairs:
                for _ in range(repeats):
                    _, ms = _timed(stereo_obstacles.block_match, rendered["left"],
                                   rendered["right"], workloads.STEREO_PARAMS)
                    times["block_match"].append(ms)
            times["update_and_resample"] = mcl_times(name, seed, repeats)[0]["update_and_resample"]
        finally:
            done.set()
        running.result()
    return times


def mcl_times(name: str, seed: int, repeats: int) -> tuple[dict, list]:
    """Every sample, in ms, of each filter step on one workload's frames,
    and the number of distinct poses in each set the mode saw."""
    wl = workloads.build(name)
    inputs, _ = wl.make_inputs(seed)
    spec = field_model.load_default_field()
    sensor = localization.SensorModel()

    def new_filter():
        return localization.MonteCarloFilter(spec, wl.n_particles, sensor,
                                             seed=inputs["mcl_seed"])

    def repeated(fn, *args):
        """fn(*args) timed `repeats` times from the same random state."""
        state = mcl.rng.bit_generator.state
        samples = []
        for _ in range(repeats):
            mcl.rng.bit_generator.state = state
            out, ms = _timed(fn, *args)
            samples.append(ms)
        return out, samples

    mcl = new_filter()
    times = {"predict": [], "update_and_resample": [], "estimate_dominant_pose": []}
    distinct = []
    for k in range(2 * wl.pool):
        frame = inputs["frames"][k % wl.pool]
        particles, ms = repeated(localization.predict, mcl.particles, frame["odometry"],
                                 workloads.PREDICT_NOISE, mcl.rng)
        times["predict"] += ms
        try:
            particles, ms = repeated(localization.update_and_resample, particles,
                                     frame["observations"], spec, sensor, mcl.rng)
        except errors.Degenerate:
            mcl = new_filter()  # the frame loop restarts the filter the same way
            continue
        times["update_and_resample"] += ms
        mcl.particles = particles
        _, ms = repeated(localization.estimate_dominant_pose, particles)
        times["estimate_dominant_pose"] += ms
        distinct.append(len(np.unique(particles.poses, axis=0)))
    return times, distinct


def plan_times(seed: int, repeats: int) -> tuple[list, list]:
    """Every sample, in ms, of plan_ball_path on the first 512 set_pieces
    scenes of one seed, and each scene's expanded_nodes."""
    wl = workloads.build("set_pieces")
    scenes = wl.make_inputs(seed)[0]["scenes"][:512]
    spec = wl.setup({"scenes": scenes}).field
    for ctx in scenes[:wl.warmup]:
        ball_planner.plan_ball_path(ctx, spec)
    times, expanded = [], []
    for ctx in scenes:
        for _ in range(repeats):
            plan, ms = _timed(ball_planner.plan_ball_path, ctx, spec)
            times.append(ms)
        expanded.append(plan.expanded_nodes)
    return times, expanded


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--beside", action="store_true",
                    help="time block_match and update_and_resample beside detect_lines")
    args = ap.parse_args(argv)
    if args.beside:
        for name in ("head_scan", "match_frames"):
            for seed in (1, 2):
                for stage, samples in beside_lines(name, seed, args.repeats).items():
                    if samples:
                        print(f"{name} seed {seed} {stage} beside lines: "
                              f"{statistics.median(samples):.2f} ms median of {len(samples)}")
        return 0
    # the planner runs first: right after the stereo stages its first ~1,500
    # queries took 1.5x as long as in a fresh process
    for seed in (1, 2):
        times, expanded = plan_times(seed, args.repeats)
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"set_pieces seed {seed} plan_ball_path: {statistics.median(times):.2f} ms "
              f"median, {p90:.2f} ms p90 of {len(times)}; expanded_nodes "
              f"{statistics.median(expanded)} median")
    for name in ("head_scan", "match_frames"):
        for seed in (1, 2):
            times, distinct = mcl_times(name, seed, args.repeats)
            times.update(stage_times(name, seed, args.repeats))
            for stage, samples in times.items():
                if not samples:
                    continue
                print(f"{name} seed {seed} {stage}: {statistics.median(samples):.2f} ms "
                      f"median of {len(samples)}")
            print(f"{name} seed {seed} distinct poses per set: {statistics.median(distinct)} "
                  f"median of {len(distinct)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
