"""fieldkit frame-loop benchmark.

One run measures one workload for a fixed time and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload match_frames --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced
    python3 perfbench/run.py --workload relocalize --smoke --trace 1

With --trace 0 the metrics are the end-to-end ones (no tracing installed);
with --trace 1 they are the per-layer ones, from spans recorded by wrapping
the program's public functions (see tracing.py).  Inputs are generated from
the seed in a separate process before timing; set-up is measured cold, in
fresh processes.  The load is a closed loop: one frame in flight, the next
frame starts when the previous one ends.
"""

from __future__ import annotations

import os

# one BLAS thread: the scheduler's pool already uses every core, and more
# compute threads than cores only add contention
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import pickle
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
CONFIRM_SEED = 2        # for confirming a claim on a seed not used while writing it
DEFAULT_SECONDS = 30
COLD_SETUPS = 7         # setup_s is the median of this many cold set-ups
WORKLOAD_NAMES = ("match_frames", "head_scan", "relocalize", "set_pieces")

# names, units and better directions of the metrics: end-to-end ones are
# measured untraced, per-layer ones traced
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]

# where each per-layer metric that shares a kind comes from: name -> (source, kind)
#   kind "frame_ms.pNN": percentile over frames of the spans' per-frame time
#   kind "p50": median of one sample per frame or per filter
#   kind "count": mean over frames of a per-frame count
#   kind "mean": mean over calls;  "peak": largest peak in MB
# the rest are set directly in per_layer()
LAYER_SOURCES = {
    "pipeline_scheduler.overhead_ms.p50": ("pipeline_scheduler.overhead_ms", "p50"),
    "pipeline_scheduler.dispatch_ms.p50": ("pipeline_scheduler.dispatch_ms", "p50"),
    "birdview.transform_ms.p50": (("birdview.transform",), "frame_ms.p50"),
    "birdview.transform_ms.p90": (("birdview.transform",), "frame_ms.p90"),
    "birdview.valid_frac": ("birdview.valid_frac", "mean"),
    "line_vision.detect_ms.p50": (("line_vision.detect",), "frame_ms.p50"),
    "line_vision.response_pass_ms.p50": (("line_vision.response_pass",), "frame_ms.p50"),
    "line_vision.nms_ms.p50": (("line_vision.nms",), "frame_ms.p50"),
    "line_vision.hough_ms.p50": (("line_vision.hough",), "frame_ms.p50"),
    "line_vision.merge_ms.p50": (("line_vision.merge",), "frame_ms.p50"),
    "line_vision.corners_ms.p50": (("line_vision.corners",), "frame_ms.p50"),
    "line_vision.candidates": ("line_vision.candidates", "count"),
    "line_vision.segments": ("line_vision.segments", "count"),
    "line_vision.lines": ("line_vision.lines", "count"),
    "line_vision.corners": ("line_vision.corners", "count"),
    "localization.predict_ms.p50": (("localization.predict",), "frame_ms.p50"),
    "localization.update_ms.p50": (("localization.update",), "frame_ms.p50"),
    "localization.mode_ms.p50": (("localization.mode",), "frame_ms.p50"),
    "localization.mode_peak_mb": ("localization.mode", "peak"),
    "localization.observations": ("localization.observations", "mean"),
    "localization.resample_rate": ("localization.resample_rate", "mean"),
    "stereo_obstacles.detect_ms.p50": (("stereo_obstacles.detect",), "frame_ms.p50"),
    "stereo_obstacles.block_match_ms.p50": (("stereo_obstacles.block_match",), "frame_ms.p50"),
    "stereo_obstacles.block_match_peak_mb": ("stereo_obstacles.block_match", "peak"),
    "stereo_obstacles.cloud_ms.p50": (("stereo_obstacles.cloud", "stereo_obstacles.voxel"),
                                      "frame_ms.p50"),
    "stereo_obstacles.ransac_ms.p50": (("stereo_obstacles.ransac",), "frame_ms.p50"),
    "stereo_obstacles.cluster_ms.p50": (("stereo_obstacles.cluster",), "frame_ms.p50"),
    "stereo_obstacles.valid_disparity_frac": ("stereo_obstacles.valid_disparity_frac", "mean"),
    "stereo_obstacles.ground_inlier_ratio": ("stereo_obstacles.ground_inlier_ratio", "mean"),
    "stereo_obstacles.clusters": ("stereo_obstacles.clusters", "mean"),
    "ball_planner.plan_ms.p50": (("ball_planner.plan",), "frame_ms.p50"),
    "ball_planner.plan_ms.p90": (("ball_planner.plan",), "frame_ms.p90"),
    "ball_planner.expanded_nodes": ("ball_planner.expanded_nodes", "mean"),
    "ball_planner.kicks": ("ball_planner.kicks", "mean"),
}


def _import_program():
    if not (SRC / "fieldkit" / "__init__.py").is_file():
        sys.exit(f"error: fieldkit sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports fieldkit)
    return workloads


# --- work done in child processes ----------------------------------------------------

def inputs_task(name: str, seed: int, smoke: bool):
    return _import_program().build(name, smoke).make_inputs(seed)


def render_task(name: str, smoke: bool, jobs):
    wl = _import_program().build(name, smoke)
    return [wl.render(job) for job in jobs]


def cold_setup_task(name: str, smoke: bool, inputs) -> float:
    """Set-up time of a fresh process, whose lazy caches are all empty."""
    return set_up(_import_program().build(name, smoke), inputs)[2]


TASKS = {f.__name__: f for f in (inputs_task, render_task, cold_setup_task)}


def in_children(calls):
    """Run each (task name, args) in its own fresh Python process, all at
    once, and return their results in order.  Every child has ended when
    this returns or raises."""
    procs = []
    try:
        for _ in calls:
            procs.append(subprocess.Popen([sys.executable, str(Path(__file__)), "--child"],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        # a child reads all its input before it starts, so writing in turn
        # lets them all work at once; pickles are streamed, not built in
        # memory first, so sending inputs adds no copy of them to peak_rss_mb
        for proc, call in zip(procs, calls):
            pickle.dump(call, proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            proc.stdin.close()
        results = []
        for proc in procs:
            try:
                result = pickle.load(proc.stdout)
            except EOFError:
                result = None       # the child failed; its exit code says so
            if proc.wait() != 0:
                raise RuntimeError(f"child process failed with exit code {proc.returncode}")
            results.append(result)
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def child_main() -> int:
    """A child's side of in_children: one call from stdin, its result to stdout."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr     # nothing the task prints may corrupt the result
    task, args = pickle.load(sys.stdin.buffer)
    pickle.dump(TASKS[task](*args), out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()
    return 0


def synthesize(name: str, seed: int, smoke: bool):
    """A workload's inputs, generated in child processes (one per core) so
    that none of the program's lazy caches fill in the measuring process.
    Returns (inputs, seconds taken)."""
    t0 = time.perf_counter()
    [(inputs, jobs)] = in_children([("inputs_task", (name, seed, smoke))])
    if jobs:
        n = min(len(os.sched_getaffinity(0)), len(jobs))
        chunks = in_children([("render_task", (name, smoke, jobs[i::n])) for i in range(n)])
        rendered = [r for chunk in chunks for r in chunk]
        inputs = _import_program().build(name, smoke).attach(inputs, rendered)
    return inputs, time.perf_counter() - t0


def set_up(wl, inputs):
    """Set-up as setup_s counts it: the program's objects, then the untimed
    warm-up frames.  Returns (state, each warm-up frame's output or error,
    seconds taken)."""
    from fieldkit.errors import FieldkitError
    t0 = time.perf_counter()
    state = wl.setup(inputs)
    warm = []
    for k in range(wl.warmup):
        try:
            warm.append(wl.run(state, k))
        except FieldkitError as exc:
            wl.recover(state)
            warm.append(exc)
    return state, warm, time.perf_counter() - t0


# --- one measured run ----------------------------------------------------------------

def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workloads = _import_program()
    from fieldkit.errors import FieldkitError
    import tracing

    wl = workloads.build(name, smoke)
    inputs, synth_s = synthesize(name, seed, smoke)
    setups = []
    if not trace and not smoke:
        # one after another, so that they do not compete for the cores
        setups = [in_children([("cold_setup_task", (name, smoke, inputs))])[0]
                  for _ in range(COLD_SETUPS - 1)]

    quality = workloads.Quality()
    digest = hashlib.sha256()
    failures = []

    def attempt(state, k):
        t0 = time.perf_counter()
        try:
            out = wl.run(state, k)
        except FieldkitError as exc:
            elapsed = time.perf_counter() - t0
            wl.recover(state)
            return exc, elapsed
        return out, time.perf_counter() - t0

    def judge(state, k, out) -> bool:
        in_window = k < wl.quality_frames
        if isinstance(out, FieldkitError):
            failures.append(f"frame {k}: {type(out).__name__}: {out}")
            if in_window:
                digest.update(b"failed")
            return False
        ok, frame_bytes = wl.check(state, k, out, quality if in_window else None)
        if in_window:
            digest.update(frame_bytes)
        if not ok:
            failures.append(f"frame {k}: output check failed")
        return ok

    state, warm, setup_s = set_up(wl, inputs)
    setups.append(setup_s)
    failed = sum(not judge(state, k, out) for k, out in enumerate(warm))

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, getattr(state, "registry", None),
                        getattr(getattr(state, "plan", None), "batches", ()))
    times, stereo_times = [], []
    k = wl.warmup
    loop_start = time.perf_counter()
    try:
        while k < wl.quality_frames or (
                not smoke and time.perf_counter() - loop_start < seconds):
            if tracer is not None:
                tracer.frame = k
            out, elapsed = attempt(state, k)
            (stereo_times if wl.is_stereo(k) else times).append(elapsed)
            failed += not judge(state, k, out)
            k += 1
    finally:
        if tracer is not None:
            tracer.restore()
    attempted = k

    all_times = times + stereo_times
    fps = len(all_times) / sum(all_times)
    result = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "digest": digest.hexdigest(), "quality_frames": wl.quality_frames,
        "frames": {"timed": len(all_times), "plain": len(times), "stereo": len(stereo_times)},
        "stamp": stamp(seed),
    }
    if not trace:
        result["end_to_end"] = {
            "fps": fps,
            "frame_ms.p50": _percentile(times, 50) * 1e3,
            "frame_ms.p75": _percentile(times, 75) * 1e3,
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        result["setup_runs_s"] = setups
        extra = {"frame_ms.p90": (_percentile(times, 90) * 1e3, "ms", "lower"),
                 "error_rate": (failed / attempted, "ratio", "lower")}
        if stereo_times:
            extra["stereo_frame_ms.p50"] = (_percentile(stereo_times, 50) * 1e3, "ms", "lower")
            extra["stereo_frame_ms.p90"] = (_percentile(stereo_times, 90) * 1e3, "ms", "lower")
        extra.update(wl.quality_metrics(quality))
        result["workload_metrics"] = extra
    else:
        result["per_layer"], result["upper_bounds"] = per_layer(tracer, wl, state, attempted,
                                                                synth_s, fps)
        result["trace_buffer"] = {"recorded": tracer.recorded, "retained": len(tracer.buffer),
                                  "capacity": tracer.buffer.maxlen}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{name}-seed{seed}-spans.jsonl"
        tracer.write_jsonl(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result["correct"] = failed == 0
    return result


def per_layer(tracer, wl, state, attempted: int, synth_s: float, fps: float):
    """Per-layer metrics of a traced run.  Times are taken over the frames
    without stereo, as frame_ms is, except the stereo layer's own."""
    values, upper = {}, []
    for name, (source, kind) in LAYER_SOURCES.items():
        def frames(pairs):
            return [v for f, v in pairs
                    if name.startswith("stereo_obstacles.") or not wl.is_stereo(f)]
        if kind.startswith("frame_ms."):
            per_frame = {}
            for span in source:
                for frame, seconds in tracer.frame_time.get(span, {}).items():
                    per_frame[frame] = per_frame.get(frame, 0.0) + seconds
            value = _percentile(frames(per_frame.items()), int(kind[-2:])) * 1e3
        elif kind == "p50":
            value = _percentile(frames(tracer.samples.get(source, [])), 50)
        elif kind == "count":
            counts = list(tracer.frame_count.get(source, {}).values())
            value = float(np.mean(counts)) if counts else 0.0
        elif kind == "mean":
            samples = [v for _, v in tracer.samples.get(source, [])]
            value = float(np.mean(samples)) if samples else 0.0
        else:  # "peak"
            value, in_batch = tracer.peak_mb.get(source, (0.0, False))
            if in_batch:
                upper.append(name)
        values[name] = value
    # RunContext.log over every frame run through run_frame, warm-up included
    context = getattr(state, "context", None)
    values["pipeline_scheduler.log_records_per_frame"] = \
        len(context.log) / attempted if context is not None else 0.0
    values["localization.degenerate"] = float(
        sum(tracer.frame_count.get("localization.degenerate", {}).values()))
    values["synth.inputs_s"] = synth_s
    values["trace.fps"] = fps
    values["trace.buffer_spans"] = len(tracer.buffer)
    return values, upper


# --- environment stamp ---------------------------------------------------------------

def stamp(seed: int) -> dict:
    revision = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not a parent repository's
            revision = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "fieldkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    import workloads
    return {
        "git_revision": revision,
        "src_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "max_workers": workloads.max_workers(),
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
    }


# --- output --------------------------------------------------------------------------

def result_line(result: dict) -> dict:
    """A run's last line: frame counts and the metrics of its mode."""
    if result["trace"]:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(result: dict) -> None:
    """Human-readable lines, then the full result as one JSON line."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}  frames {result['frames']}")
    if result["trace"]:
        rows = [(n, result["per_layer"][n], u, b) for n, u, b, *_ in PER_LAYER]
    else:
        rows = [(n, result["end_to_end"][n], u, b) for n, u, b in END_TO_END]
        rows += [(n, v, u, b) for n, (v, u, b) in result["workload_metrics"].items()]
    for name, value, unit, better in rows:
        note = " (upper bound)" if name in result.get("upper_bounds", ()) else ""
        print(f"  {name:40s} {value:14.4f} {unit:6s} {better}{note}")
    print(f"  error_rate base: {result['failed']} failed / {result['attempted']} attempted")
    print(f"  digest {result['digest']}  correct {result['correct']}")
    for line in result["failures"]:
        print(f"  failure: {line}")
    print("result " + json.dumps(result))


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload untraced and traced, each in its own process, as one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = [l for l in proc.stdout.splitlines() if l.startswith("result ")]
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            results[(name, trace)] = json.loads(lines[-1][len("result "):])
    names = WORKLOAD_NAMES
    print(f"{'metric':42s}" + "".join(f"{n:>16s}" for n in names) + "  unit   better")
    rows = [(n, u, b, lambda r, n=n: r["end_to_end"][n], 0) for n, u, b in END_TO_END]
    extra = {}
    for name in names:
        for metric, (_, unit, better) in results[(name, 0)]["workload_metrics"].items():
            extra.setdefault(metric, (unit, better))
    rows += [(m, u, b, lambda r, m=m: r["workload_metrics"][m][0], 0)
             for m, (u, b) in extra.items()]
    rows += [(n, u, b, lambda r, n=n: r["per_layer"][n], 1) for n, u, b, *_ in PER_LAYER]
    for metric, unit, better, get, trace in rows:
        cells = ""
        for name in names:
            try:
                cells += f"{get(results[(name, trace)]):16.4f}"
            except KeyError:
                cells += f"{'-':>16s}"
        print(f"{metric:42s}{cells}  {unit:6s} {better}")
    bases = [f"{results[(n, 0)]['failed']}/{results[(n, 0)]['attempted']}" for n in names]
    print(f"{'error_rate base (failed/attempted)':42s}" + "".join(f"{b:>16s}" for b in bases))
    overheads = [1 - results[(n, 1)]["per_layer"]["trace.fps"]
                 / results[(n, 0)]["end_to_end"]["fps"] for n in names]
    print(f"{'tracing overhead (1 - traced/untraced fps)':42s}"
          + "".join(f"{o:16.4f}" for o in overheads))
    for name in names:
        print(f"{name}: digest {results[(name, 0)]['digest']}")
    print("stamp " + json.dumps(results[(names[0], 0)]["stamp"]))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    if (argv if argv is not None else sys.argv[1:]) == ["--child"]:
        _import_program()
        return child_main()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few frames from small input pools, no time budget")
    args = parser.parse_args(argv)
    _import_program()
    if args.all:
        return run_all(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    report(result)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
