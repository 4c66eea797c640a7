"""Time the birdview miss, the birdview hit and detect_lines, each alone, on
the benchmark's seeded frames, and print their medians.

    PYTHONPATH=src python3 tests/stage_times.py [--repeats N]

For seeds 1 and 2 it builds the inputs of perfbench's head_scan and
match_frames workloads through perfbench/workloads.py (imported, not
changed), renders their camera frames, and times each frame's stages as the
frame loop calls them: a birdview with an empty index cache (a miss), the
same birdview again (a hit), then detect_lines on it. Each frame is timed
N times (default 5); a line gives the median over all frames and repeats.

BLAS is pinned to one thread before numpy loads, as perfbench/run.py pins
it: the birdview projects its points with an (N, 3) @ (3, 3) product, which
a multi-threaded BLAS runs several times slower, so unpinned times would
not be the times the benchmark sees. The name does not match pytest's
test_*.py pattern, so the suite does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from fieldkit import birdview, line_vision  # noqa: E402


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def stage_times(name: str, seed: int, repeats: int) -> dict:
    """Every sample, in ms, of each stage on one workload's camera frames."""
    wl = workloads.build(name)
    inputs, jobs = wl.make_inputs(seed)
    times = {"birdview miss": [], "birdview hit": [], "detect_lines": []}
    for job in jobs:
        if job[0] != "camera":
            continue
        j, rendered = wl.render(job)
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
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    for name in ("head_scan", "match_frames"):
        for seed in (1, 2):
            for stage, samples in stage_times(name, seed, args.repeats).items():
                print(f"{name} seed {seed} {stage}: {statistics.median(samples):.2f} ms "
                      f"median of {len(samples)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
