"""fieldkit command line: plan, detect-lines, birdview, distort, mask,
localize, stereo, pipeline-bench, render, gen-trajectory.

Exit codes: 0 success, 2 input error, 3 algorithm error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import synth
from .ball_planner import PlanContext, plan_ball_path
from .birdview import (
    BirdviewSpec,
    CameraExtrinsics,
    CameraIntrinsics,
    apply_mask,
    birdview_transform,
    emulate_wide_angle,
    fov_mask,
)
from .errors import AlgorithmError, InputError
from .field_model import FieldPose, FieldSpec, pose_to_cell
from .line_vision import VisionConfig, detect_lines
from .localization import MonteCarloFilter, RobotObservation, SensorModel
from .pipeline_scheduler import RunContext, compute_batches, parse_pipeline, run_frames
from .raster import read_raster, write_pgm, write_ppm
from .stereo_obstacles import StereoParams, StereoRig, block_match, clusters_to_field
from .stereo_obstacles import disparity_to_points, obstacles_from_disparity


def _write_text(text, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(doc, out_path):
    _write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", out_path)


def _read_text(path):
    try:
        return Path(path).read_text()
    except (FileNotFoundError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json(path):
    """Read a JSON document; every command's documents are objects."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _number(kind, low=-math.inf, high=math.inf):
    """argparse type: a finite int or float (`kind`) between low and high."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and low <= value <= high):
            raise argparse.ArgumentTypeError(f"must be finite and in [{low}, {high}], got {text}")
        return value

    return parse


def _field_from_doc(doc, config):
    """The document's field, else the config's, else FieldSpec()."""
    doc = config.get("field") if doc is None else doc
    return FieldSpec() if doc is None else FieldSpec.from_dict(doc)


def _section(doc, what, **flags):
    """A JSON object section, an absent one (None) being empty, with the
    flags that were given (not None) laid over it."""
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return {**doc, **{k: v for k, v in flags.items() if v is not None}}


def _build(cls, doc, what, *taken, **given):
    """A frozen dataclass from a JSON object whose keys are its field names.

    float and int fields are converted by their annotation, and the class's
    own checks run as usual. `given` holds the values the command fills in
    itself; a document may not name them. `taken` names the keys the command
    already took out of the document, which the unknown-key message lists
    with the fields. An unknown key, or a value that conversion or the class
    rejects, is an InputError.
    """
    doc = _section(doc, what)
    types = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in given}
    convert = {"float": float, "int": int}  # annotations are strings in this package
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise InputError(f"{what}: unknown keys {unknown}; known: {sorted([*types, *taken])}")
    try:
        values = {k: convert.get(types[k], lambda v: v)(v) for k, v in doc.items()}
        return cls(**values, **given)
    except (TypeError, ValueError, IndexError, OverflowError, KeyError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _scene_from_doc(doc, seed, config):
    field = _field_from_doc(doc.get("field"), config)
    try:
        robot = FieldPose(*map(float, doc.get("robot", (0.0, 0.0, 0.0))))
        obstacles = tuple(synth.Obstacle(*map(float, ob)) for ob in doc.get("obstacles", ()))
        return synth.Scene(field=field, robot=robot, obstacles=obstacles,
                           noise_sigma=float(doc.get("noise_sigma", 0.0)),
                           seed=seed if seed is not None else int(doc.get("seed", 0)))
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InputError(f"bad scene: {exc}") from exc


def _noise_from_doc(doc, config):
    """Sensor model and odometry noise of a trajectory or scene document.

    Sigmas come from the config's "sigmas", overridden key by key by the
    document's, a null "sigmas" being an absent one; "odom_noise" must be
    three finite non-negative numbers.
    """
    sig = {**_section(config.get("sigmas"), "config sigmas"),
           **_section(doc.get("sigmas"), "sigmas")}
    raw = doc.get("odom_noise", (0.02, 0.02, 0.02))
    try:
        odo = tuple(float(v) for v in raw) if isinstance(raw, (list, tuple)) else ()
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad odom_noise: {exc}") from exc
    sm = _build(SensorModel, sig, "sigmas")
    if len(odo) != 3 or not all(math.isfinite(v) and v >= 0 for v in odo):
        raise InputError("odom_noise must be three finite non-negative numbers")
    return sm, odo


# --- subcommands --------------------------------------------------------------

def cmd_plan(args, config):
    doc = _load_json(args.scene)
    field = _field_from_doc(doc.pop("field", None), config)
    goal = doc.pop("goal", field.goal_center_right)
    try:
        robot, ball = FieldPose(*map(float, doc.pop("robot"))), doc.pop("ball")
        teammates = tuple(FieldPose(*map(float, t)) for t in doc.pop("teammates", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"missing or bad scene value: {exc}") from exc
    ctx = _build(PlanContext, doc, "scene", "ball", "field", "goal", "robot", "teammates",
                 robot_pos=robot, ball_pos=ball, teammates=teammates, goal_center=goal)
    plan = plan_ball_path(ctx, field, zero_heuristic=args.zero_heuristic)
    _dump_json({
        "waypoints": [[x, y] for x, y in plan.waypoints],
        "cells": [[c.row, c.col] for c in (pose_to_cell(w, field) for w in plan.waypoints)],
        "total_cost": plan.total_cost,
        "expanded_nodes": plan.expanded_nodes,
    }, args.out)
    if args.overlay:
        _write_plan_overlay(args.overlay, field, ctx, plan)
    return 0


def _write_plan_overlay(path, field, ctx, plan):
    """Top-down grid image with the planned kick path drawn over the field."""
    bspec = BirdviewSpec(out_width=int(field.n_cols * 8), out_height=int(field.n_rows * 8),
                         meters_per_pixel=field.cell_size / 8)
    rgb = synth.render_birdview(synth.Scene(field=field), bspec).to_rgb()
    for a, b in zip(plan.waypoints, plan.waypoints[1:]):
        pa, pb = bspec.field_to_pixel(*a), bspec.field_to_pixel(*b)
        n = int(max(abs(pb[0] - pa[0]), abs(pb[1] - pa[1]))) + 1
        _draw_segment(rgb, pa, pb, 2 * n, (255, 40, 40))
    for o in ctx.opponents:
        _draw_marker(rgb, *bspec.field_to_pixel(*o), (40, 40, 255))
    write_ppm(path, rgb)


def _draw_segment(rgb, p0, p1, samples, color):
    """Paint `samples` evenly spaced points from p0 to p1 (pixel coordinates)."""
    for t in np.linspace(0, 1, samples):
        u = round(float(p0[0] + t * (p1[0] - p0[0])))
        v = round(float(p0[1] + t * (p1[1] - p0[1])))
        if 0 <= v < rgb.shape[0] and 0 <= u < rgb.shape[1]:
            rgb[v, u] = color


def _draw_marker(rgb, u, v, color):
    """Paint a 5x5 square centered on pixel (u, v), clipped at the top-left edges."""
    u, v = round(u), round(v)
    rgb[max(0, v - 2):v + 3, max(0, u - 2):u + 3] = color


def cmd_detect_lines(args, config):
    raster = read_raster(args.image)
    vision = _section(config.get("vision"), "vision config", seed=args.seed,
                      decimation=args.decimation, min_length=args.min_length)
    cfg = _build(VisionConfig, vision, "vision config")
    lines, corners = detect_lines(raster, width_map=args.line_width_px, cfg=cfg)
    _dump_json({
        "lines": [{"p0": list(s.p0), "p1": list(s.p1), "length": s.length} for s in lines],
        "corners": [dataclasses.asdict(c) for c in corners],
    }, args.out)
    if args.overlay:
        rgb = raster.to_rgb()
        for s in lines:
            _draw_segment(rgb, s.p0, s.p1, 2 * (int(s.length) + 1), (255, 255, 0))
        for c in corners:
            _draw_marker(rgb, *c.position, (255, 80, 0))
        write_ppm(args.overlay, rgb)
    return 0


def cmd_birdview(args, config):
    doc = _load_json(args.camera)
    intr = _build(CameraIntrinsics, doc.get("intrinsics"), "intrinsics")
    ex = _build(CameraExtrinsics, doc.get("extrinsics"), "extrinsics")
    bspec = _build(BirdviewSpec, doc.get("birdview"), "birdview")
    raster = read_raster(args.image)
    out = birdview_transform(raster, ex, intr, bspec, bilinear=args.bilinear)
    write_ppm(args.out or "birdview.ppm", out.to_rgb())
    return 0


def cmd_distort(args, config):
    intr = _build(CameraIntrinsics, _load_json(args.camera).get("intrinsics"), "intrinsics")
    raster = read_raster(args.image)
    out = emulate_wide_angle(raster, intr, args.k1, args.k2)
    if args.mask_fov is not None:
        distorted = dataclasses.replace(intr, k1=args.k1, k2=args.k2)
        out = apply_mask(out, fov_mask(distorted, math.radians(args.mask_fov)))
    write_ppm(args.out or "distorted.ppm", out.to_rgb())
    return 0


def cmd_mask(args, config):
    intr = _build(CameraIntrinsics, _load_json(args.camera).get("intrinsics"), "intrinsics")
    write_pgm(args.out or "mask.pgm", fov_mask(intr, math.radians(args.fov_deg)))
    return 0


def cmd_localize(args, config):
    doc = _load_json(args.trajectory)
    field = _field_from_doc(doc.get("field"), config)
    sm, odo = _noise_from_doc(doc, config)
    f = MonteCarloFilter(field, n_particles=args.particles, sigmas=sm, seed=args.seed or 0)
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise InputError("'steps' must be a list")
    lines = []
    for k, step in enumerate(steps):
        try:
            odometry = [float(v) for v in step["odometry"]]
            obs = [RobotObservation.from_dict(o) for o in step["observations"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"step {k} needs 'odometry' and a list of 'observations'") from exc
        if len(odometry) != 3 or not all(map(math.isfinite, odometry)):
            raise InputError(f"step {k}: odometry must be finite [dx, dy, dtheta], got {odometry}")
        f.step(odometry, odo, obs)
        est, (sxy, sth) = f.estimate()
        mode = f.dominant()
        lines.append(json.dumps({
            "step": k,
            "estimate": [est.x, est.y, est.theta],
            "spread": [sxy, sth],
            "mode": [mode.x, mode.y, mode.theta],
        }, sort_keys=True))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_stereo(args, config):
    left, right = read_raster(args.left), read_raster(args.right)
    doc = _load_json(args.rig)
    params_doc, ex_doc = doc.pop("params", None), doc.pop("extrinsics", None)
    rig = _build(StereoRig, doc, "rig", "extrinsics", "params")
    params = _build(StereoParams, _section(params_doc, "stereo params", seed=args.seed),
                    "stereo params")
    disparity = block_match(left, right, params)
    plane, clusters = obstacles_from_disparity(disparity, rig, params)
    result = {"plane": dataclasses.asdict(plane),
              "clusters": [dataclasses.asdict(c) for c in clusters]}
    if ex_doc is not None:
        ex = _build(CameraExtrinsics, ex_doc, "extrinsics")
        result["clusters_field"] = [list(p) for p in clusters_to_field(clusters, ex)]
    _dump_json(result, args.out)
    if args.cloud:
        pc = disparity_to_points(disparity, rig, params)
        _write_text("".join(f"{x} {y} {z}\n" for x, y, z in pc.points), args.cloud)
    return 0


def cmd_pipeline_bench(args, config):
    spec = parse_pipeline(_read_text(args.pipeline))
    plan = compute_batches(spec)
    counts = {}

    def sleeper(f):
        def fn(inputs):
            counts[f.name] += 1
            time.sleep(args.sleep_ms / 1000.0)
            return {o: None for o in f.outputs}
        return fn

    registry = {f.name: sleeper(f) for f in spec.filters}

    def bench(workers):
        counts.update(dict.fromkeys(registry, 0))
        ctx = RunContext(max_workers=workers)
        try:
            return run_frames(plan, registry, args.frames, ctx,
                              frame_sources=lambda k: {s: k for s in spec.source_slots})
        finally:
            ctx.close()

    parallel_times = bench(args.workers)
    parallel_counts = dict(counts)
    serial_times = bench(1)
    speedup = sum(serial_times) / max(sum(parallel_times), 1e-12)
    for k, (tp, ts) in enumerate(zip(parallel_times, serial_times)):
        print(f"frame {k}: parallel {tp * 1000:.1f} ms, serial {ts * 1000:.1f} ms", file=sys.stderr)
    print(f"speedup vs forced-serial: {speedup:.2f}x", file=sys.stderr)
    # the JSON artifact carries only deterministic facts
    _dump_json({
        "batches": [list(b) for b in plan.batches],
        "frames": args.frames,
        "executions": parallel_counts,
    }, args.out)
    return 0


def cmd_render(args, config):
    doc = _load_json(args.scene)
    scene = _scene_from_doc(doc, args.seed, config)
    camera = doc.get("camera")
    if camera is not None and not isinstance(camera, dict):
        raise InputError("camera must be a JSON object")
    if args.stereo:
        rig = _build(StereoRig, doc.get("rig"), "rig")
        ex = _build(CameraExtrinsics, (camera or {}).get("extrinsics"), "extrinsics")
        left, right = synth.render_stereo(scene, rig, ex)
        stem = (args.out or "stereo.ppm").removesuffix(".ppm")
        write_ppm(stem + "_left.ppm", left.to_rgb())
        write_ppm(stem + "_right.ppm", right.to_rgb())
        return 0
    if camera is not None:
        intr = _build(CameraIntrinsics, camera.get("intrinsics"), "intrinsics")
        ex = _build(CameraExtrinsics, camera.get("extrinsics"), "extrinsics")
        img = synth.render_field(scene, intr, ex, textured=bool(doc.get("textured")))
    else:
        img = synth.render_birdview(scene, _build(BirdviewSpec, doc.get("birdview"), "birdview"))
    write_ppm(args.out or "render.ppm", img.to_rgb())
    return 0


def cmd_gen_trajectory(args, config):
    doc = _load_json(args.scene) if args.scene else {}
    scene = _scene_from_doc(doc, args.seed, config)
    sm, odo = _noise_from_doc(doc, config)
    traj = synth.generate_trajectory(scene, steps=args.steps, odom_noise=odo,
                                     obs_sigmas=sm, seed=args.seed or 0)
    traj["field"] = scene.field.to_dict()
    _dump_json(traj, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="fieldkit",
                                description="Desk-scale soccer-robot perception stack")
    # the same flags are accepted after the subcommand, where SUPPRESS keeps
    # the pre-subcommand value; the top level has its own copies, since a
    # parent parser shares its Action objects, defaults included.
    shared = argparse.ArgumentParser(add_help=False)
    for flag, kw in (("--seed", dict(type=_number(int, 0), help="seed for all randomness")),
                     ("--out", dict(help="output path (default: stdout/cwd)")),
                     ("--config", dict(help="JSON file with shared defaults (field, sigmas, vision)"))):
        p.add_argument(flag, default=None, **kw)
        shared.add_argument(flag, default=argparse.SUPPRESS, **kw)
    sub = p.add_subparsers(dest="command", required=True)

    def command(fn, summary, *positionals):
        """A subcommand named after fn (cmd_gen_trajectory: gen-trajectory)."""
        q = sub.add_parser(fn.__name__[4:].replace("_", "-"), help=summary, parents=[shared])
        q.set_defaults(fn=fn)
        for name in positionals:
            q.add_argument(name)
        return q

    q = command(cmd_plan, "A* kick plan for a JSON scene", "scene")
    q.add_argument("--zero-heuristic", action="store_true")
    q.add_argument("--overlay", default=None, help="write a PPM path overlay")

    q = command(cmd_detect_lines, "detect field lines in a PGM/PPM image", "image")
    q.add_argument("--line-width-px", type=_number(float, 0, 1e6), default=5.0)
    q.add_argument("--decimation", type=_number(int, 1, 10**6), help="beats vision.decimation")
    q.add_argument("--min-length", type=_number(float, 0), help="beats vision.min_length")
    q.add_argument("--overlay", default=None)

    q = command(cmd_birdview, "top-down resample of a camera image", "image")
    q.add_argument("camera", help="JSON with intrinsics/extrinsics/birdview")
    q.add_argument("--bilinear", action="store_true")

    q = command(cmd_distort, "emulate a wide-angle lens on a rectilinear image", "image", "camera")
    q.add_argument("--k1", type=_number(float), default=-0.3)
    q.add_argument("--k2", type=_number(float), default=0.1)
    q.add_argument("--mask-fov", type=_number(float, 0), default=None,
                   help="also apply the FoV mask at this angle (degrees)")

    q = command(cmd_mask, "procedural FoV mask for a camera", "camera")
    q.add_argument("--fov-deg", type=_number(float, 0), default=100.0)

    q = command(cmd_localize, "run the particle filter over a trajectory", "trajectory")
    q.add_argument("--particles", type=_number(int, 1), default=500)

    q = command(cmd_stereo, "obstacles from a rectified PGM/PPM pair", "left", "right")
    q.add_argument("rig", help="JSON rig description")
    q.add_argument("--cloud", default=None, help="dump the point cloud as ASCII XYZ")

    q = command(cmd_pipeline_bench, "run a pipeline of sleep filters", "pipeline")
    q.add_argument("--frames", type=_number(int, 1), default=8)
    q.add_argument("--sleep-ms", type=_number(float, 0), default=50.0)
    q.add_argument("--workers", type=_number(int, 1), default=None)

    q = command(cmd_render, "render a synthetic scene", "scene")
    q.add_argument("--stereo", action="store_true")

    q = command(cmd_gen_trajectory, "generate a localization trajectory")
    q.add_argument("scene", nargs="?", default=None)
    q.add_argument("--steps", type=_number(int, 1), default=50)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, _load_json(args.config) if args.config is not None else {})
    # OSError: a path that cannot be read or written; MemoryError: a count too large
    except (InputError, OSError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AlgorithmError as exc:
        print(f"algorithm error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
