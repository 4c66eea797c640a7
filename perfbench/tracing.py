"""Spans and counts recorded from outside the program.

The traced run replaces public functions at the module attribute their
callers look up at call time (``fieldkit.line_vision.hough_segments`` is
what ``detect_lines`` calls), and the benchmark's own registry filters and
``run_frame`` the same way.  Each call becomes a span: name, start, end,
parent span and frame id.  Finished spans go into a bounded buffer that is
written out as JSON lines when the run ends; per-layer statistics are
accumulated as spans finish, so they cover the whole run even after the
buffer has dropped its oldest spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict, deque

import numpy as np

from fieldkit import ball_planner, birdview, errors, line_vision, localization
from fieldkit import pipeline_scheduler, stereo_obstacles

BUFFER_SPANS = 2048


class Tracer:
    def __init__(self, capacity: int = BUFFER_SPANS):
        self.buffer = deque(maxlen=capacity)
        self.recorded = 0
        self.frame = None
        self.root = None                 # open run_frame span: parent of pool-thread filters
        self.frame_time = defaultdict(lambda: defaultdict(float))  # name -> frame -> s
        self.frame_count = defaultdict(lambda: defaultdict(float))  # name -> frame -> sum
        self.samples = defaultdict(list)  # name -> (frame, value) per call
        self.peak_mb = {}                 # name -> (largest peak, measured during a batch)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self._memory_regions = 0
        self._filter_spans = {}

    # spans -------------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, memory=False):
        """Run fn as span `name`; returns (result, start, end)."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        base = self._memory_enter() if memory else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if memory:
                self._memory_exit(name, base)
            stack.pop()
            with self._lock:
                self.buffer.append((sid, parent, name, self.frame, start, end))
                self.recorded += 1
                self.frame_time[name][self.frame] += end - start
        return result, start, end

    def add(self, name, value) -> None:
        """Per-frame count: summed over the calls of one frame."""
        with self._lock:
            self.frame_count[name][self.frame] += value

    def sample(self, name, value) -> None:
        with self._lock:
            self.samples[name].append((self.frame, float(value)))

    # memory ------------------------------------------------------------------------
    def _memory_enter(self) -> int:
        # tracemalloc is process wide: it runs while any memory span is open,
        # and its peak is only reset when none is, so each reading is an
        # upper bound on the span's own peak
        with self._lock:
            if self._memory_regions == 0:
                tracemalloc.start()
            self._memory_regions += 1
            return tracemalloc.get_traced_memory()[0]

    def _memory_exit(self, name, base) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        with self._lock:
            self._memory_regions -= 1
            if self._memory_regions == 0:
                tracemalloc.stop()
            in_batch = self.root is not None
            old, old_batch = self.peak_mb.get(name, (0.0, False))
            self.peak_mb[name] = (max(old, (peak - base) / 1e6), old_batch or in_batch)

    # patching ----------------------------------------------------------------------
    def wrap(self, owner, attr, name, on_result=None, memory=False, on_error=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) with a traced call.

        on_result(tracer, args, result) records counts from the return value;
        on_error(tracer, exc) sees an exception before it propagates.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                result, _, _ = tracer.call(name, original, args, kwargs, memory)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        self._patch(owner, attr, traced, original)

    def _patch(self, owner, attr, new, original) -> None:
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # output ------------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """Retained spans as JSON lines, each with its self time: duration
        minus the part of its interval that its child spans cover."""
        spans = list(self.buffer)
        children = defaultdict(list)
        for sid, parent, _, _, start, end in spans:
            children[parent].append((start, end))
        with open(path, "w") as fh:
            for sid, parent, name, frame, start, end in spans:
                covered, reach = 0.0, start
                for cs, ce in sorted(children.get(sid, ())):
                    cs, ce = max(cs, reach), min(ce, end)
                    if ce > cs:
                        covered += ce - cs
                        reach = ce
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "frame": frame,
                                     "start": start, "end": end,
                                     "self_s": (end - start) - covered}) + "\n")


# --- what is traced --------------------------------------------------------------------

def _count_len(count):
    return lambda t, args, result: t.add(count, len(result))


def _lines_counts(t, args, result):
    lines, corners = result
    t.add("line_vision.lines", len(lines))
    t.add("line_vision.corners", len(corners))


def _update_counts(t, args, result):
    t.sample("localization.observations", len(args[1]))
    w = result.weights
    t.sample("localization.resample_rate", float(np.all(w == w[0])))  # uniform = resampled


def _degenerate(t, exc):
    if isinstance(exc, errors.Degenerate):
        t.add("localization.degenerate", 1)


def _plan_counts(t, args, plan):
    t.sample("ball_planner.expanded_nodes", plan.expanded_nodes)
    t.sample("ball_planner.kicks", plan.kicks)


def install(tracer: Tracer, registry: dict | None, batches) -> None:
    """Wrap every traced function of the program and the benchmark's filters."""
    t = tracer
    # share of birdview pixels that sample the camera image: the rendered
    # field has no black pixel, so a pixel is valid where its luma is not 0
    t.wrap(birdview, "birdview_transform", "birdview.transform",
           lambda t, a, r: t.sample("birdview.valid_frac", float((r.luma > 0).mean())))
    t.wrap(line_vision, "detect_lines", "line_vision.detect", _lines_counts)
    t.wrap(line_vision, "line_response_pass", "line_vision.response_pass")
    t.wrap(line_vision, "nms", "line_vision.nms", _count_len("line_vision.candidates"))
    t.wrap(line_vision, "hough_segments", "line_vision.hough",
           _count_len("line_vision.segments"))
    t.wrap(line_vision, "merge_segments", "line_vision.merge")
    t.wrap(line_vision, "detect_corners", "line_vision.corners")
    t.wrap(localization, "predict", "localization.predict")
    t.wrap(localization, "update_and_resample", "localization.update", _update_counts,
           on_error=_degenerate)
    t.wrap(localization, "estimate_dominant_pose", "localization.mode", memory=True)
    t.wrap(stereo_obstacles, "detect_obstacles", "stereo_obstacles.detect")
    t.wrap(stereo_obstacles, "block_match", "stereo_obstacles.block_match",
           lambda t, a, d: t.sample("stereo_obstacles.valid_disparity_frac",
                                    float((d >= 0).mean())), memory=True)
    t.wrap(stereo_obstacles, "disparity_to_points", "stereo_obstacles.cloud")
    t.wrap(stereo_obstacles, "voxel_bin", "stereo_obstacles.voxel")
    t.wrap(stereo_obstacles, "ransac_plane", "stereo_obstacles.ransac",
           lambda t, a, plane: t.sample("stereo_obstacles.ground_inlier_ratio",
                                        plane.inlier_count / len(a[0])))
    t.wrap(stereo_obstacles, "extract_clusters", "stereo_obstacles.cluster",
           lambda t, a, c: t.sample("stereo_obstacles.clusters", len(c)))
    t.wrap(ball_planner, "plan_ball_path", "ball_planner.plan", _plan_counts)
    if registry is not None:
        for name in list(registry):
            _wrap_filter(t, registry, name)
        _wrap_run_frame(t, batches)


def _wrap_filter(t: Tracer, registry: dict, name: str) -> None:
    original = registry[name]

    @functools.wraps(original)
    def traced(inputs):
        result, start, end = t.call("filter." + name, original, (inputs,), {})
        with t._lock:
            t._filter_spans[name] = (start, end)
        return result

    t._patch(registry, name, traced, original)


def _wrap_run_frame(t: Tracer, batches) -> None:
    """run_frame as a span; per frame, the scheduler's own overhead (wall time
    minus each batch's slowest filter) and each filter's dispatch wait (from
    its batch becoming ready to the filter starting)."""
    original = pipeline_scheduler.run_frame

    def body(*args):
        t.root = t._stack()[-1]
        try:
            return original(*args)
        finally:
            t.root = None

    @functools.wraps(original)
    def run_frame(plan, registry, frame_index, context):
        t._filter_spans = {}
        result, start, end = t.call("pipeline_scheduler.run_frame", body,
                                    (plan, registry, frame_index, context), {})
        ready, busy = start, 0.0
        for batch in batches:
            due = [t._filter_spans[name] for name in batch if name in t._filter_spans]
            if not due:
                continue
            for s, _ in due:
                t.sample("pipeline_scheduler.dispatch_ms", (s - ready) * 1e3)
            busy += max(e - s for s, e in due)
            ready = max(e for _, e in due)
        t.sample("pipeline_scheduler.overhead_ms", ((end - start) - busy) * 1e3)
        return result

    t._patch(pipeline_scheduler, "run_frame", run_frame, original)
