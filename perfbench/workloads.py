"""The benchmark's four workloads: seeded inputs, set-up, one frame, checks.

Every call into fieldkit goes through a module attribute (``birdview.
birdview_transform``, not a name imported from it), so that the traced run
can wrap the function where its caller looks it up.

A workload object holds no run state.  ``make_inputs`` and the ``render``
jobs it returns run in separate processes before timing starts; ``setup``
builds the program's objects from those inputs; ``run`` executes frame
``k``; ``check`` judges the frame's outputs and returns the bytes that go
into the run's digest.
"""

from __future__ import annotations

import copy
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from fieldkit import ball_planner, birdview, errors, field_model, line_vision, localization
from fieldkit import pipeline_scheduler, stereo_obstacles, synth
from fieldkit.raster import Raster

# head camera (fixed to the body on match_frames): 320x240, barrel distortion
HEAD_INTRINSICS = birdview.CameraIntrinsics(fx=260.0, fy=260.0, cx=159.5, cy=119.5,
                                            width=320, height=240, k1=-0.3, k2=0.1)
HEAD_HEIGHT = 0.7
HEAD_TILT = 0.75
BIRD_SIZE = (640, 480)
BIRD_MPP = 0.01
LINE_WIDTH_PX = 5                      # 5 cm field lines at 1 cm per pixel
VISION = line_vision.VisionConfig(decimation=2)
CAMERA_NOISE = 4.0

# stereo head: criterion 7's rig, pose and parameters
RIG = stereo_obstacles.StereoRig(baseline=0.062, focal=700.0, cx=159.5, cy=119.5,
                                 width=320, height=240)
STEREO_HEIGHT = 0.35
STEREO_TILT = 0.32
STEREO_PARAMS = stereo_obstacles.StereoParams(
    window=9, max_disparity=64, step=2, voxel=0.03, min_points_per_voxel=2,
    protrusion=0.08, link_dist=0.1, min_cluster_size=8, seed=0)
OPPONENT_TOLERANCE = 0.03              # criterion 7's centroid bound (m)

ODOM_NOISE = (0.01, 0.01, 0.01)        # criterion 4's trajectory noise
PREDICT_NOISE = (0.02, 0.02, 0.02)     # criterion 4's filter noise
CONVERGED = (0.2, math.radians(10.0))  # criterion 4's thresholds

DEFAULT_KICKS = (0.5, 1.0, 2.0)
LONG_KICKS = (0.5, 1.0, 1.5, 2.0, 3.0)

# a line counts toward recall under criterion 3's rule
RECALL_MIN_PX = 50.0
RECALL_INSET_PX = 8
RECALL_DIST_PX = 2.0
RECALL_ANGLE = math.radians(2.0)
RECALL_COVERAGE = 0.5

# frames are every third pose of the walk, so one pool of frames spreads
# over more of the field and a run's cost depends less on where the seed
# starts the robot
WALK_STRIDE = 3

# the ball is drawn per frame from its own list, not per pooled image: a
# plan's cost ranges from under 1 ms to over 20 ms with the ball's place, and
# a prime count pairs each image with many balls, so a run's frame times do
# not hinge on the few balls that a pool of images would carry
BALLS = 509

# head_scan's sweep is a stand-in: nothing in the project gives the robot's
# head-scan pattern or its head-joint limits.  It is sized from the head
# camera, whose half fields of view are 0.61 rad across and 0.46 rad up:
# the pan amplitude is 0.8 to 1.5 horizontal half-fields, so one sweep looks
# over three to four camera widths; the tilt stays at least 0.17 rad past the
# vertical half-field, so the top image row looks at the ground about 4 m out
# and the whole image lands on the field plane
PAN_AMPLITUDE = (0.5, 0.9)
PAN_JITTER = 0.02
TILT_SWING = 0.12
# the pan angle also drifts by this much per frame, so no two frames of a
# run share camera extrinsics even when the rendered pool repeats; after
# 10k frames the drift is 1 mrad, under 0.5 px anywhere in the birdview
PAN_DRIFT = 1e-7


# --- small shared helpers ------------------------------------------------------

def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(c) << (8 * i) for i, c in enumerate(tag))])


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _pack(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *(float(v) for v in values))


def symmetric_error(est, gt) -> tuple[float, float]:
    """Position and heading error against ground truth or its 180-degree twin
    (criterion 4: the layout is symmetric under that rotation)."""
    best = None
    for gx, gy, gth in ((gt[0], gt[1], gt[2]), (-gt[0], -gt[1], gt[2] + math.pi)):
        dp = math.hypot(est.x - gx, est.y - gy)
        dth = abs((est.theta - gth + math.pi) % (2 * math.pi) - math.pi)
        if best is None or (dp, dth) < best:
            best = (dp, dth)
    return best


def _relative_odometry(a, b) -> tuple[float, float, float]:
    """Robot-frame motion from pose a to pose b, both (x, y, theta)."""
    c, s = math.cos(-a[2]), math.sin(-a[2])
    dx, dy = b[0] - a[0], b[1] - a[1]
    return (c * dx - s * dy, s * dx + c * dy, b[2] - a[2])


def _compose(deltas) -> tuple[float, float, float]:
    """One robot-frame motion equal to a sequence of robot-frame motions."""
    x = y = th = 0.0
    for dx, dy, dth in deltas:
        x += math.cos(th) * dx - math.sin(th) * dy
        y += math.sin(th) * dx + math.cos(th) * dy
        th += dth
    return x, y, th


def _walk(field_spec, seed: int, tag: str, frames: int, stride: int, sensor):
    """Every stride-th pose of a seeded generate_trajectory walk, with the
    walk's noisy odometry composed between them and the observations there."""
    rng = _rng(seed, tag)
    start = field_model.FieldPose(rng.uniform(-3.0, 3.0), rng.uniform(-1.8, 1.8),
                                  rng.uniform(-math.pi, math.pi))
    steps = synth.generate_trajectory(synth.Scene(field=field_spec, robot=start),
                                      frames * stride, ODOM_NOISE, sensor,
                                      seed=_int_seed(rng))["steps"]
    taken = steps[stride - 1::stride]
    poses = [tuple(s["ground_truth"]) for s in taken]
    odometry = [_compose(s["odometry"] for s in steps[j * stride:(j + 1) * stride])
                for j in range(frames)]
    observations = [[localization.RobotObservation.from_dict(o) for o in s["observations"]]
                    for s in taken]
    return poses, odometry, observations


def _footprint(camera, spec) -> np.ndarray:
    """Birdview pixels the camera sees, shrunk by the recall inset."""
    white = Raster(np.full((HEAD_INTRINSICS.height, HEAD_INTRINSICS.width), 255, np.uint8),
                   np.zeros((HEAD_INTRINSICS.height, HEAD_INTRINSICS.width), np.uint8))
    seen = birdview.birdview_transform(white, camera, HEAD_INTRINSICS, spec).luma > 0
    # erode: keep pixels whose (2r+1)^2 neighbourhood is entirely seen
    r = RECALL_INSET_PX
    table = line_vision.integral_image(~seen)
    h, w = seen.shape
    ys, xs = np.mgrid[0:h, 0:w]
    y0, y1 = np.clip(ys - r, 0, h), np.clip(ys + r + 1, 0, h)
    x0, x1 = np.clip(xs - r, 0, w), np.clip(xs + r + 1, 0, w)
    inside = (ys >= r) & (ys < h - r) & (xs >= r) & (xs < w - r)
    return inside & (line_vision.rect_sum(table, y0, y1, x0, x1) == 0)


def visible_lines(field_spec, pose, spec, mask) -> list:
    """Layout lines seen by the camera, in birdview pixels of a robot-frame
    spec: each painted segment is sampled every pixel, and every run inside
    the footprint of at least RECALL_MIN_PX becomes one ground-truth line."""
    c, s = math.cos(-pose[2]), math.sin(-pose[2])
    h, w = mask.shape
    out = []
    for a, b in field_spec.line_segments:
        ends = []
        for px, py in (a, b):
            dx, dy = px - pose[0], py - pose[1]
            ends.append(spec.field_to_pixel(c * dx - s * dy, s * dx + c * dy))
        (u0, v0), (u1, v1) = ends
        length = math.hypot(u1 - u0, v1 - v0)
        n = int(length) + 1
        t = np.linspace(0.0, 1.0, n)
        us, vs = u0 + t * (u1 - u0), v0 + t * (v1 - v0)
        ui, vi = np.rint(us).astype(int), np.rint(vs).astype(int)
        ok = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
        ok[ok] = mask[vi[ok], ui[ok]]
        edges = np.flatnonzero(np.diff(np.concatenate([[0], ok.astype(np.int8), [0]])))
        for lo, hi in zip(edges[::2], edges[1::2] - 1):
            seg = ((us[lo], vs[lo]), (us[hi], vs[hi]))
            if math.hypot(us[hi] - us[lo], vs[hi] - vs[lo]) >= RECALL_MIN_PX:
                out.append(line_vision.LineSegment(*seg))
    return out


def _coverage(gt, det) -> float:
    ux, uy = gt.unit
    ta = (det.p0[0] - gt.p0[0]) * ux + (det.p0[1] - gt.p0[1]) * uy
    tb = (det.p1[0] - gt.p0[0]) * ux + (det.p1[1] - gt.p0[1]) * uy
    lo, hi = min(ta, tb), max(ta, tb)
    return max(0.0, min(hi, gt.length) - max(lo, 0.0)) / gt.length


def line_matched(gt, detections) -> bool:
    """Criterion 3's rule: within 2 px and 2 degrees, covering half the line."""
    for det in detections:
        d_ang = abs(det.direction - gt.direction)
        d_ang = min(d_ang, math.pi - d_ang)
        if (d_ang <= RECALL_ANGLE and gt.point_line_distance(det.midpoint) <= RECALL_DIST_PX
                and _coverage(gt, det) >= RECALL_COVERAGE):
            return True
    return False


def _plan_ok(plan_ctx, plan) -> bool:
    """Criterion 1's invariant: the cost equals its edge-by-edge recomputation."""
    return plan.total_cost == ball_planner.plan_cost_recomputed(plan_ctx, plan)


def _plan_bytes(plan) -> bytes:
    return _pack(plan.total_cost, *(c for p in plan.waypoints for c in p))


@dataclass
class Quality:
    """Per-frame quality samples over a run's quality window."""

    loc_err: list = field(default_factory=list)
    plan_cost: list = field(default_factory=list)
    lines_seen: int = 0
    lines_matched: int = 0
    obstacle_err: list = field(default_factory=list)
    converge: dict = field(default_factory=dict)      # episode -> frames to converge


# --- frame loop through the scheduler ---------------------------------------------

FRAME_PIPELINE = {
    "source_slots": ["camera_image", "camera", "bird_spec", "odometry", "observations",
                     "ball", "left_image", "right_image", "stereo_camera"],
    "filters": [
        {"name": "birdview", "inputs": ["camera_image", "camera", "bird_spec"],
         "outputs": ["bird_image"]},
        {"name": "lines", "inputs": ["bird_image"], "outputs": ["lines", "corners"]},
        {"name": "localize", "inputs": ["odometry", "observations"], "outputs": ["mode"]},
        {"name": "stereo", "inputs": ["left_image", "right_image", "stereo_camera"],
         "outputs": ["clusters", "opponents"], "divider": 2},
        {"name": "plan", "inputs": ["mode", "ball", "opponents"], "outputs": ["plan"]},
    ],
}


def _pipeline_document(stereo: bool) -> str:
    doc = copy.deepcopy(FRAME_PIPELINE)
    if not stereo:
        doc["source_slots"] = [s for s in doc["source_slots"]
                               if s not in ("left_image", "right_image", "stereo_camera")]
        doc["filters"] = [f for f in doc["filters"] if f["name"] != "stereo"]
        doc["filters"][-1]["inputs"] = ["mode", "ball"]
    return json.dumps(doc)


class Workload:
    """Defaults: one warm-up frame, no stereo, nothing to do after a failure."""

    warmup = 1

    def is_stereo(self, k: int) -> bool:
        return False

    def recover(self, state) -> None:
        pass


@dataclass
class FrameState:
    inputs: dict
    field: object
    plan: object
    context: object
    registry: dict
    mcl: object = None


class FrameLoop(Workload):
    """Shared frame loop of match_frames and head_scan: birdview, lines,
    localization and planning every frame, stereo on every second frame."""

    stereo = False
    n_particles = 500

    def __init__(self, pool: int, walks: int, quality_frames: int):
        self.pool = pool
        self.walks = walks
        self.quality_frames = quality_frames

    # inputs ----------------------------------------------------------------------
    def head_pose(self, seed: int, j: int, rng) -> tuple[float, float]:
        raise NotImplementedError

    def make_inputs(self, seed: int):
        """Every input but the images; returns (inputs, render jobs).

        The pool of frames joins several short walks, so that it samples
        more of the field.  Frames cycle over the pool; the odometry into the
        first frame of each walk (and around the cycle) is the exact motion
        from the frame before, so the filter keeps tracking across the joins.
        """
        spec = field_model.load_default_field()
        sensor = localization.SensorModel()
        poses, odometry, observations = [], [], []
        for w in range(self.walks):
            p, o, obs = _walk(spec, seed, f"{self.name}/{w}", self.pool // self.walks,
                              WALK_STRIDE, sensor)
            o[0] = None
            poses += p
            odometry += o
            observations += obs
        rng = _rng(seed, self.name + "/frames")
        frames, jobs = [], []
        for j, pose in enumerate(poses):
            pan, tilt = self.head_pose(seed, j, rng)
            frame = {"pose": pose, "pan": pan, "tilt": tilt,
                     "odometry": odometry[j] or _relative_odometry(poses[j - 1], pose),
                     "observations": observations[j]}
            jobs.append(("camera", j, pose, pan, tilt, _int_seed(rng)))
            if self.stereo and j % 2 == 0:
                frame.update(_stereo_head(pose, rng))
                jobs.append(("stereo", j, frame["stereo_camera"], frame["boxes"]))
            frames.append(frame)
        balls = [(float(rng.uniform(-4.4, 4.4)), float(rng.uniform(-2.9, 2.9)))
                 for _ in range(BALLS)]
        return {"frames": frames, "balls": balls, "mcl_seed": _int_seed(rng)}, jobs

    @staticmethod
    def render(job):
        """One render job: (frame index, the frame's rendered inputs)."""
        spec = field_model.load_default_field()
        if job[0] == "camera":
            _, j, pose, pan, tilt, noise_seed = job
            world = birdview.CameraExtrinsics(position=(pose[0], pose[1], HEAD_HEIGHT),
                                              rpy=(0.0, tilt, pose[2] + pan))
            image = synth.render_field(
                synth.Scene(field=spec, noise_sigma=CAMERA_NOISE, seed=noise_seed),
                HEAD_INTRINSICS, world)
            return j, {"image": image, "footprint": _footprint(*_head_camera(pan, tilt))}
        _, j, camera, boxes = job
        scene = synth.Scene(field=spec, obstacles=tuple(synth.Obstacle(x, y, 0.02, 0.3)
                                                        for x, y in boxes))
        left, right = synth.render_stereo(scene, RIG, camera)
        return j, {"left": left, "right": right}

    @staticmethod
    def attach(inputs: dict, rendered) -> dict:
        for j, parts in rendered:
            inputs["frames"][j].update(parts)
        return inputs

    # program -----------------------------------------------------------------------
    def setup(self, inputs: dict) -> FrameState:
        spec = field_model.load_default_field()
        plan = pipeline_scheduler.compute_batches(
            pipeline_scheduler.parse_pipeline(_pipeline_document(self.stereo)))
        state = FrameState(inputs=inputs, field=spec, plan=plan,
                           context=pipeline_scheduler.RunContext(max_workers=max_workers()),
                           registry={})
        state.mcl = self._new_filter(state)
        state.registry = self._registry(state)
        return state

    def _new_filter(self, state):
        return localization.MonteCarloFilter(state.field, self.n_particles,
                                             localization.SensorModel(),
                                             seed=state.inputs["mcl_seed"])

    def _registry(self, state) -> dict:
        spec = state.field

        def birdview_filter(inputs):
            return {"bird_image": birdview.birdview_transform(
                inputs["camera_image"], inputs["camera"], HEAD_INTRINSICS, inputs["bird_spec"])}

        def lines_filter(inputs):
            lines, corners = line_vision.detect_lines(inputs["bird_image"], LINE_WIDTH_PX, VISION)
            return {"lines": lines, "corners": corners}

        def localize_filter(inputs):
            try:
                state.mcl.step(inputs["odometry"], PREDICT_NOISE, inputs["observations"])
            except errors.Degenerate:
                state.mcl = self._new_filter(state)  # restart, and fail the frame
                raise
            return {"mode": state.mcl.dominant()}

        def stereo_filter(inputs):
            _, clusters = stereo_obstacles.detect_obstacles(
                inputs["left_image"], inputs["right_image"], RIG, STEREO_PARAMS)
            return {"clusters": clusters,
                    "opponents": stereo_obstacles.clusters_to_field(clusters,
                                                                    inputs["stereo_camera"])}

        def plan_filter(inputs):
            ctx = ball_planner.PlanContext(robot_pos=inputs["mode"], ball_pos=inputs["ball"],
                                           opponents=tuple(inputs.get("opponents", ())))
            return {"plan": (ctx, ball_planner.plan_ball_path(ctx, spec))}

        registry = {"birdview": birdview_filter, "lines": lines_filter,
                    "localize": localize_filter, "plan": plan_filter}
        if self.stereo:
            registry["stereo"] = stereo_filter
        return registry

    def is_stereo(self, k: int) -> bool:
        return self.stereo and k % 2 == 0

    def run(self, state: FrameState, k: int):
        frame = state.inputs["frames"][k % self.pool]
        pan = frame["pan"] + self.drift(k)
        camera, bird_spec = _head_camera(pan, frame["tilt"])
        sources = {"camera_image": frame["image"], "camera": camera, "bird_spec": bird_spec,
                   "odometry": frame["odometry"],
                   "observations": frame["observations"],
                   "ball": state.inputs["balls"][k % BALLS]}
        if self.is_stereo(k):
            sources.update(left_image=frame["left"], right_image=frame["right"],
                           stereo_camera=frame["stereo_camera"])
        state.context.sources = sources
        store = pipeline_scheduler.run_frame(state.plan, state.registry, k, state.context)
        out = {"lines": store["lines"], "corners": store["corners"], "mode": store["mode"],
               "plan": store["plan"], "bird_spec": bird_spec}
        if self.is_stereo(k):
            out["clusters"] = store["clusters"]
            out["opponents"] = store["opponents"]
        return out

    def drift(self, k: int) -> float:
        return 0.0

    def check(self, state: FrameState, k: int, out, quality: Quality | None):
        frame = state.inputs["frames"][k % self.pool]
        plan_ctx, plan = out["plan"]
        ok = _plan_ok(plan_ctx, plan)
        digest = [_pack(out["mode"].x, out["mode"].y, out["mode"].theta), _plan_bytes(plan)]
        digest += [_pack(*l.p0, *l.p1) for l in out["lines"]]
        errs = []
        if self.is_stereo(k):
            errs = _opponent_errors(out["opponents"], frame["boxes"])
            ok = ok and errs is not None
            digest += [_pack(*c.centroid) for c in out["clusters"]]
        if quality is not None:
            quality.loc_err.append(symmetric_error(out["mode"], frame["pose"])[0])
            quality.plan_cost.append(plan.total_cost)
            quality.obstacle_err.extend(errs or ())
            for gt in visible_lines(state.field, frame["pose"], out["bird_spec"],
                                    frame["footprint"]):
                quality.lines_seen += 1
                quality.lines_matched += line_matched(gt, out["lines"])
        return ok, b"".join(digest)

    def quality_metrics(self, q: Quality) -> dict:
        out = {"loc_err_m.p50": (float(np.median(q.loc_err)), "m", "lower"),
               "line_recall": (q.lines_matched / max(q.lines_seen, 1), "ratio", "higher"),
               "line_recall.base": (q.lines_seen, "count", "higher"),
               "plan_cost_s.mean": (float(np.mean(q.plan_cost)), "s", "lower")}
        if self.stereo:
            out["obstacle_err_m.p50"] = (float(np.median(q.obstacle_err)), "m", "lower")
        return out


def _head_camera(pan: float, tilt: float):
    """Robot-frame head extrinsics and the birdview centred on the gaze."""
    camera = birdview.CameraExtrinsics(position=(0.0, 0.0, HEAD_HEIGHT), rpy=(0.0, tilt, pan))
    reach = HEAD_HEIGHT / math.tan(tilt) + 0.85
    spec = birdview.BirdviewSpec(out_width=BIRD_SIZE[0], out_height=BIRD_SIZE[1],
                                 meters_per_pixel=BIRD_MPP,
                                 view_center=(reach * math.cos(pan), reach * math.sin(pan)),
                                 view_yaw=pan)
    return camera, spec


def _stereo_head(pose, rng) -> dict:
    """Stereo head with criterion 7's height and tilt, and two opponent boxes
    about 1 m ahead of it."""
    c, s = math.cos(pose[2]), math.sin(pose[2])
    boxes = []
    for side in (-1.0, 1.0):
        ahead = rng.uniform(0.9, 1.0)
        lateral = side * rng.uniform(0.10, 0.14)
        boxes.append((pose[0] + c * ahead - s * lateral, pose[1] + s * ahead + c * lateral))
    camera = birdview.CameraExtrinsics(position=(pose[0], pose[1], STEREO_HEIGHT),
                                       rpy=(0.0, STEREO_TILT, pose[2]))
    return {"stereo_camera": camera, "boxes": boxes}


def _opponent_errors(found, boxes):
    """Field errors of the two detected opponents, or None unless exactly the
    two boxes were found, each by a distinct cluster within tolerance."""
    if len(found) != len(boxes):
        return None
    errs, claimed = [], set()
    for fx, fy in found:
        dists = [math.hypot(fx - bx, fy - by) for bx, by in boxes]
        k = int(np.argmin(dists))
        claimed.add(k)
        errs.append(dists[k])
    if len(claimed) != len(boxes) or max(errs) > OPPONENT_TOLERANCE:
        return None
    return errs


class MatchFrames(FrameLoop):
    name = "match_frames"
    stereo = True

    def head_pose(self, seed, j, rng):
        return 0.0, HEAD_TILT


class HeadScan(FrameLoop):
    name = "head_scan"

    def head_pose(self, seed, j, rng):
        sweep = _rng(seed, "head_scan/sweep")
        amp, phase, tilt_phase = sweep.uniform(*PAN_AMPLITUDE), sweep.uniform(0, 2 * math.pi), \
            sweep.uniform(0, 2 * math.pi)
        turn = 2 * math.pi * j / self.pool
        return (amp * math.sin(turn + phase) + rng.normal(0.0, PAN_JITTER),
                HEAD_TILT + TILT_SWING * math.sin(2 * turn + tilt_phase))

    def drift(self, k):
        return k * PAN_DRIFT


# --- localization without vision ------------------------------------------------------

@dataclass
class RelocState:
    inputs: dict
    field: object
    sensor: object
    mcl: object = None
    starts: int = 0


class Relocalize(Workload):
    """Global localization: a fresh filter per episode, no vision."""

    name = "relocalize"
    n_particles = 2000
    max_range = 8.0

    def __init__(self, episodes: int, steps: int, quality_episodes: int):
        self.episodes = episodes
        self.steps = steps
        self.quality_frames = quality_episodes * steps

    def make_inputs(self, seed: int):
        spec = field_model.load_default_field()
        sensor = localization.SensorModel(max_range=self.max_range)
        rng = _rng(seed, self.name)
        episodes = []
        for _ in range(self.episodes):
            # criterion 4's start distribution
            start = field_model.FieldPose(rng.uniform(-3.5, 3.5), rng.uniform(-2.2, 2.2),
                                          rng.uniform(-math.pi, math.pi))
            traj = synth.generate_trajectory(synth.Scene(field=spec, robot=start), self.steps,
                                             ODOM_NOISE, sensor, seed=_int_seed(rng))
            episodes.append([(tuple(s["odometry"]),
                              [localization.RobotObservation.from_dict(o)
                               for o in s["observations"]],
                              tuple(s["ground_truth"])) for s in traj["steps"]])
        return {"episodes": episodes, "mcl_seed": _int_seed(rng)}, []

    def setup(self, inputs):
        return RelocState(inputs=inputs, field=field_model.load_default_field(),
                          sensor=localization.SensorModel(max_range=self.max_range))

    def run(self, state: RelocState, k: int):
        episode, step = divmod(k, self.steps)
        if step == 0 or state.mcl is None:
            state.starts += 1
            state.mcl = localization.MonteCarloFilter(
                state.field, self.n_particles, state.sensor,
                seed=state.inputs["mcl_seed"] + state.starts)
        odometry, observations, _ = state.inputs["episodes"][episode % self.episodes][step]
        state.mcl.step(odometry, PREDICT_NOISE, observations)
        return state.mcl.dominant()

    def recover(self, state: RelocState) -> None:
        state.mcl = None

    def check(self, state, k, mode, quality):
        episode, step = divmod(k, self.steps)
        truth = state.inputs["episodes"][episode % self.episodes][step][2]
        if quality is not None:
            dp, dth = symmetric_error(mode, truth)
            quality.loc_err.append(dp)
            if dp <= CONVERGED[0] and dth <= CONVERGED[1]:
                quality.converge.setdefault(episode, step + 1)
        return True, _pack(mode.x, mode.y, mode.theta)

    def quality_metrics(self, q: Quality) -> dict:
        # an episode that never converges counts as its length + 1
        converge = [q.converge.get(e, self.steps + 1)
                    for e in range(self.quality_frames // self.steps)]
        return {"loc_err_m.p50": (float(np.median(q.loc_err)), "m", "lower"),
                "converge_frames.p50": (float(np.median(converge)), "frames", "lower")}


# --- planner queries -------------------------------------------------------------------

@dataclass
class PlanState:
    inputs: dict
    field: object


class SetPieces(Workload):
    """One plan_ball_path query per frame on criterion 1's random scenes."""

    name = "set_pieces"
    warmup = 2            # one query per kick set fills both kick graphs

    def __init__(self, pool: int, quality_frames: int):
        self.pool = pool
        self.quality_frames = quality_frames

    def make_inputs(self, seed: int):
        rng = _rng(seed, self.name)
        scenes = []
        for j in range(self.pool):
            ball = (rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
            robot = field_model.FieldPose(rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9),
                                          rng.uniform(-np.pi, np.pi))
            opponents = tuple((rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
                              for _ in range(rng.integers(0, 4)))
            teammates = tuple(field_model.FieldPose(rng.uniform(-4.4, 4.4),
                                                    rng.uniform(-2.9, 2.9),
                                                    rng.uniform(-np.pi, np.pi))
                              for _ in range(rng.integers(0, 3)))
            scenes.append(ball_planner.PlanContext(
                robot_pos=robot, ball_pos=ball, teammates=teammates, opponents=opponents,
                kick_lengths=DEFAULT_KICKS if j % 2 == 0 else LONG_KICKS))
        return {"scenes": scenes}, []

    def setup(self, inputs):
        return PlanState(inputs=inputs, field=field_model.load_default_field())

    def run(self, state: PlanState, k: int):
        return ball_planner.plan_ball_path(state.inputs["scenes"][k % self.pool], state.field)

    def check(self, state, k, plan, quality):
        if quality is not None:
            quality.plan_cost.append(plan.total_cost)
        return _plan_ok(state.inputs["scenes"][k % self.pool], plan), _plan_bytes(plan)

    def quality_metrics(self, q: Quality) -> dict:
        return {"plan_cost_s.mean": (float(np.mean(q.plan_cost)), "s", "lower")}


def max_workers() -> int:
    return len(os.sched_getaffinity(0))


def build(name: str, smoke: bool = False):
    """The named workload; smoke mode shrinks pools to a few frames."""
    if name == "match_frames":
        return MatchFrames(pool=4, walks=2, quality_frames=4) if smoke else \
            MatchFrames(pool=24, walks=4, quality_frames=24)
    if name == "head_scan":
        return HeadScan(pool=4, walks=2, quality_frames=4) if smoke else \
            HeadScan(pool=24, walks=4, quality_frames=24)
    if name == "relocalize":
        return Relocalize(episodes=2, steps=2, quality_episodes=2) if smoke else \
            Relocalize(episodes=8, steps=6, quality_episodes=4)
    if name == "set_pieces":
        return SetPieces(pool=8, quality_frames=8) if smoke else \
            SetPieces(pool=4096, quality_frames=256)
    raise KeyError(name)

