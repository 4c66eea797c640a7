"""fieldkit command line: plan, detect-lines, birdview, distort, mask,
localize, stereo, pipeline-bench, render, gen-trajectory.

Exit codes: 0 success, 2 input error, 3 algorithm error.
"""

from __future__ import annotations

import argparse
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
from .field_model import FieldPose, FieldSpec, load_default_field, pose_to_cell
from .line_vision import VisionConfig, detect_lines
from .localization import MonteCarloFilter, RobotObservation, SensorModel
from .pipeline_scheduler import RunContext, compute_batches, parse_pipeline, run_frame
from .raster import read_raster, write_pgm, write_ppm
from .stereo_obstacles import StereoParams, StereoRig, detect_obstacles


def _dump_json(doc, out_path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _read_text(path):
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc


def _load_json(path):
    """Read a JSON document; every command's documents are objects."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _positive_int(text):
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config(args):
    cfg = getattr(args, "config", None)
    if cfg is None:
        return {}
    if not hasattr(args, "_config_doc"):
        args._config_doc = _load_json(cfg)
    return args._config_doc


def _field_from_doc(doc, args=None):
    if not doc and args is not None:
        doc = _config(args).get("field")
    if not doc or doc in ("default",):
        return load_default_field()
    return FieldSpec.from_dict(doc)


def _intrinsics_from_doc(doc):
    try:
        return CameraIntrinsics(
            fx=float(doc["fx"]), fy=float(doc["fy"]),
            cx=float(doc["cx"]), cy=float(doc["cy"]),
            width=int(doc["width"]), height=int(doc["height"]),
            k1=float(doc.get("k1", 0.0)), k2=float(doc.get("k2", 0.0)))
    except KeyError as exc:
        raise InputError(f"intrinsics missing {exc}") from exc


def _extrinsics_from_doc(doc):
    try:
        return CameraExtrinsics(position=tuple(doc["position"]),
                                rpy=tuple(doc.get("rpy", (0.0, 0.0, 0.0))))
    except KeyError as exc:
        raise InputError(f"extrinsics missing {exc}") from exc


def _birdview_from_doc(doc):
    doc = doc or {}
    return BirdviewSpec(
        out_width=int(doc.get("out_width", 640)),
        out_height=int(doc.get("out_height", 480)),
        meters_per_pixel=float(doc.get("meters_per_pixel", 0.01)),
        view_center=tuple(doc.get("view_center", (0.0, 0.0))),
        view_yaw=float(doc.get("view_yaw", 0.0)))


def _camera_from_doc(doc):
    if "intrinsics" not in doc or "extrinsics" not in doc:
        raise InputError("camera document needs 'intrinsics' and 'extrinsics'")
    return _intrinsics_from_doc(doc["intrinsics"]), _extrinsics_from_doc(doc["extrinsics"])


def _scene_from_doc(doc, seed, args=None):
    field = _field_from_doc(doc.get("field"), args)
    robot = FieldPose(*doc.get("robot", (0.0, 0.0, 0.0)))
    obstacles = tuple(synth.Obstacle(*ob) for ob in doc.get("obstacles", ()))
    return synth.Scene(field=field, robot=robot, obstacles=obstacles,
                       noise_sigma=float(doc.get("noise_sigma", 0.0)),
                       seed=seed if seed is not None else int(doc.get("seed", 0)))


# --- subcommands --------------------------------------------------------------

def cmd_plan(args):
    doc = _load_json(args.scene)
    field = _field_from_doc(doc.get("field"), args)
    try:
        ctx = PlanContext(
            robot_pos=FieldPose(*doc["robot"]),
            ball_pos=tuple(doc["ball"]),
            teammates=tuple(FieldPose(*t) for t in doc.get("teammates", ())),
            opponents=tuple(tuple(o) for o in doc.get("opponents", ())),
            ball_speed=float(doc.get("ball_speed", 2.0)),
            walk_speed=float(doc.get("walk_speed", 0.2)),
            turn_speed=float(doc.get("turn_speed", 1.0)),
            opponent_radius=float(doc.get("opponent_radius", 0.3)),
            kick_lengths=tuple(doc.get("kick_lengths", (0.5, 1.0, 2.0))),
            goal_center=tuple(doc.get("goal", field.goal_center_right)),
        )
    except KeyError as exc:
        raise InputError(f"scene missing {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise InputError(f"bad scene value: {exc}") from exc
    plan = plan_ball_path(ctx, field, zero_heuristic=args.zero_heuristic)
    cells = [[c.row, c.col] for c in (pose_to_cell(w, field) for w in plan.waypoints)]
    _dump_json({
        "waypoints": [[x, y] for x, y in plan.waypoints],
        "cells": cells,
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
    img = synth.render_birdview(synth.Scene(field=field), bspec)
    rgb = img.to_rgb()
    for a, b in zip(plan.waypoints, plan.waypoints[1:]):
        pa = bspec.field_to_pixel(*a)
        pb = bspec.field_to_pixel(*b)
        n = int(max(abs(pb[0] - pa[0]), abs(pb[1] - pa[1]))) + 1
        for t in np.linspace(0, 1, 2 * n):
            u = round(float(pa[0] + t * (pb[0] - pa[0])))
            v = round(float(pa[1] + t * (pb[1] - pa[1])))
            if 0 <= v < rgb.shape[0] and 0 <= u < rgb.shape[1]:
                rgb[v, u] = (255, 40, 40)
    for o in ctx.opponents:
        u, v = bspec.field_to_pixel(*o)
        rgb[max(0, round(v) - 2):round(v) + 3, max(0, round(u) - 2):round(u) + 3] = (40, 40, 255)
    write_ppm(path, rgb)


def cmd_detect_lines(args):
    raster = read_raster(args.image)
    overrides = dict(_config(args).get("vision", {}))
    overrides.update(seed=args.seed or 0, decimation=args.decimation,
                     min_length=args.min_length)
    try:
        cfg = VisionConfig(**overrides)
    except TypeError as exc:
        raise InputError(f"bad vision config: {exc}") from exc
    lines, corners = detect_lines(raster, width_map=args.line_width_px, cfg=cfg)
    _dump_json({
        "lines": [{"p0": list(s.p0), "p1": list(s.p1), "length": s.length}
                  for s in lines],
        "corners": [{"position": list(c.position), "dir_a": list(c.dir_a),
                     "dir_b": list(c.dir_b)} for c in corners],
    }, args.out)
    if args.overlay:
        rgb = raster.to_rgb()
        for s in lines:
            n = int(s.length) + 1
            for t in np.linspace(0, 1, 2 * n):
                u = round(s.p0[0] + t * (s.p1[0] - s.p0[0]))
                v = round(s.p0[1] + t * (s.p1[1] - s.p0[1]))
                if 0 <= v < rgb.shape[0] and 0 <= u < rgb.shape[1]:
                    rgb[v, u] = (255, 255, 0)
        for c in corners:
            u, v = round(c.position[0]), round(c.position[1])
            rgb[max(0, v - 2):v + 3, max(0, u - 2):u + 3] = (255, 80, 0)
        write_ppm(args.overlay, rgb)
    return 0


def cmd_birdview(args):
    doc = _load_json(args.camera)
    intr, ex = _camera_from_doc(doc)
    bspec = _birdview_from_doc(doc.get("birdview"))
    raster = read_raster(args.image)
    out = birdview_transform(raster, ex, intr, bspec, bilinear=args.bilinear)
    write_ppm(args.out or "birdview.ppm", out.to_rgb())
    return 0


def cmd_distort(args):
    doc = _load_json(args.camera)
    intr = _intrinsics_from_doc(doc["intrinsics"])
    raster = read_raster(args.image)
    out = emulate_wide_angle(raster, intr, args.k1, args.k2)
    if args.mask_fov is not None:
        distorted = CameraIntrinsics(intr.fx, intr.fy, intr.cx, intr.cy,
                                     intr.width, intr.height, args.k1, args.k2)
        out = apply_mask(out, fov_mask(distorted, math.radians(args.mask_fov)))
    write_ppm(args.out or "distorted.ppm", out.to_rgb())
    return 0


def cmd_mask(args):
    doc = _load_json(args.camera)
    intr = _intrinsics_from_doc(doc["intrinsics"])
    mask = fov_mask(intr, math.radians(args.fov_deg))
    write_pgm(args.out or "mask.pgm", mask)
    return 0


def cmd_localize(args):
    doc = _load_json(args.trajectory)
    field = _field_from_doc(doc.get("field"), args)
    sig = {**_config(args).get("sigmas", {}), **doc.get("sigmas", {})}
    sm = SensorModel(sigma_d=float(sig.get("sigma_d", 0.15)),
                     sigma_p=float(sig.get("sigma_p", 0.2)),
                     sigma_theta=float(sig.get("sigma_theta", 0.15)),
                     max_range=float(sig.get("max_range", 4.0)))
    odo = doc.get("odom_noise", (0.02, 0.02, 0.02))
    f = MonteCarloFilter(field, n_particles=args.particles, sigmas=sm,
                         seed=args.seed or 0)
    lines = []
    for k, step in enumerate(doc.get("steps", ())):
        obs = [RobotObservation.from_dict(o) for o in step["observations"]]
        f.step(step["odometry"], odo, obs)
        est, (sxy, sth) = f.estimate()
        mode = f.dominant()
        lines.append(json.dumps({
            "step": k,
            "estimate": [est.x, est.y, est.theta],
            "spread": [sxy, sth],
            "mode": [mode.x, mode.y, mode.theta],
        }, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_stereo(args):
    left = read_raster(args.left)
    right = read_raster(args.right)
    doc = _load_json(args.rig)
    rig = StereoRig(baseline=float(doc.get("baseline", 0.062)),
                    focal=float(doc["focal"]), cx=float(doc["cx"]), cy=float(doc["cy"]),
                    width=int(doc["width"]), height=int(doc["height"]))
    params = StereoParams(seed=args.seed or 0,
                          **{k: v for k, v in doc.get("params", {}).items()})
    plane, clusters = detect_obstacles(left, right, rig, params)
    result = {
        "plane": {"normal": list(plane.normal), "offset": plane.offset,
                  "inlier_count": plane.inlier_count},
        "clusters": [{
            "centroid": list(c.centroid),
            "extent": [list(e) for e in c.extent],
            "point_count": c.point_count,
            "max_protrusion": c.max_protrusion,
        } for c in clusters],
    }
    if "extrinsics" in doc:
        from .stereo_obstacles import clusters_to_field

        ex = _extrinsics_from_doc(doc["extrinsics"])
        result["clusters_field"] = [list(p) for p in clusters_to_field(clusters, ex)]
    _dump_json(result, args.out)
    if args.cloud:
        from .stereo_obstacles import block_match, disparity_to_points

        disparity = block_match(left, right, params.window, params.max_disparity)
        pc = disparity_to_points(disparity, rig, params.step)
        with open(args.cloud, "w") as fh:
            for x, y, z in pc.points:
                fh.write(f"{x} {y} {z}\n")
    return 0


def cmd_pipeline_bench(args):
    spec = parse_pipeline(_read_text(args.pipeline))
    plan = compute_batches(spec)
    sleep_s = args.sleep_ms / 1000.0

    def make_filter(f):
        def fn(inputs):
            time.sleep(sleep_s)
            return {o: None for o in f.outputs}
        return fn

    registry = {f.name: make_filter(f) for f in spec.filters}
    counts = {f.name: 0 for f in spec.filters}

    def counted(name, fn):
        def wrapper(inputs):
            counts[name] += 1
            return fn(inputs)
        return wrapper

    registry = {name: counted(name, fn) for name, fn in registry.items()}

    def bench(serial):
        ctx = RunContext(serial=serial, max_workers=args.workers)
        times = []
        for k in range(args.frames):
            ctx.sources = {s: k for s in spec.source_slots}
            t0 = time.perf_counter()
            run_frame(plan, registry, k, ctx)
            times.append(time.perf_counter() - t0)
        return times

    parallel_times = bench(serial=False)
    parallel_counts = dict(counts)
    for name in counts:
        counts[name] = 0
    serial_times = bench(serial=True)
    speedup = sum(serial_times) / max(sum(parallel_times), 1e-12)
    for k, (tp, ts) in enumerate(zip(parallel_times, serial_times)):
        print(f"frame {k}: parallel {tp * 1000:.1f} ms, serial {ts * 1000:.1f} ms",
              file=sys.stderr)
    print(f"speedup vs forced-serial: {speedup:.2f}x", file=sys.stderr)
    # the JSON artifact carries only deterministic facts
    _dump_json({
        "batches": [list(b) for b in plan.batches],
        "frames": args.frames,
        "executions": parallel_counts,
    }, args.out)
    return 0


def cmd_render(args):
    doc = _load_json(args.scene)
    scene = _scene_from_doc(doc, args.seed, args)
    if args.stereo:
        rig_doc = doc.get("rig", {})
        rig = StereoRig(baseline=float(rig_doc.get("baseline", 0.062)),
                        focal=float(rig_doc.get("focal", 700.0)),
                        cx=float(rig_doc.get("cx", 159.5)), cy=float(rig_doc.get("cy", 119.5)),
                        width=int(rig_doc.get("width", 320)), height=int(rig_doc.get("height", 240)))
        ex = _extrinsics_from_doc(doc["camera"]["extrinsics"])
        left, right = synth.render_stereo(scene, rig, ex)
        base = args.out or "stereo.ppm"
        stem = base[:-4] if base.endswith(".ppm") else base
        write_ppm(stem + "_left.ppm", left.to_rgb())
        write_ppm(stem + "_right.ppm", right.to_rgb())
        return 0
    if "camera" in doc:
        intr, ex = _camera_from_doc(doc["camera"])
        img = synth.render_field(scene, intr, ex, textured=bool(doc.get("textured")))
    else:
        bspec = _birdview_from_doc(doc.get("birdview"))
        img = synth.render_birdview(scene, bspec)
    write_ppm(args.out or "render.ppm", img.to_rgb())
    return 0


def cmd_gen_trajectory(args):
    doc = _load_json(args.scene) if args.scene else {}
    scene = _scene_from_doc(doc, args.seed, args)
    sig = {**_config(args).get("sigmas", {}), **doc.get("sigmas", {})}
    sm = SensorModel(sigma_d=float(sig.get("sigma_d", 0.15)),
                     sigma_p=float(sig.get("sigma_p", 0.2)),
                     sigma_theta=float(sig.get("sigma_theta", 0.15)),
                     max_range=float(sig.get("max_range", 4.0)))
    traj = synth.generate_trajectory(scene, steps=args.steps,
                                     odom_noise=tuple(doc.get("odom_noise", (0.02, 0.02, 0.02))),
                                     obs_sigmas=sm, seed=args.seed or 0)
    traj["field"] = scene.field.to_dict()
    _dump_json(traj, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="fieldkit",
                                description="Desk-scale soccer-robot perception stack")
    p.add_argument("--seed", type=int, default=None, help="seed for all randomness")
    p.add_argument("--out", default=None, help="output path (default: stdout/cwd)")
    p.add_argument("--config", default=None,
                   help="JSON file with shared defaults (field, sigmas, vision)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # pre-subcommand value when the post-subcommand copy is absent
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--out", default=argparse.SUPPRESS)
    shared.add_argument("--config", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("plan", help="A* kick plan for a JSON scene", parents=[shared])
    q.add_argument("scene")
    q.add_argument("--zero-heuristic", action="store_true")
    q.add_argument("--overlay", default=None, help="write a PPM path overlay")
    q.set_defaults(fn=cmd_plan)

    q = sub.add_parser("detect-lines", help="detect field lines in a PGM/PPM image", parents=[shared])
    q.add_argument("image")
    q.add_argument("--line-width-px", type=float, default=5.0)
    q.add_argument("--decimation", type=int, default=4)
    q.add_argument("--min-length", type=float, default=40.0)
    q.add_argument("--overlay", default=None)
    q.set_defaults(fn=cmd_detect_lines)

    q = sub.add_parser("birdview", help="top-down resample of a camera image", parents=[shared])
    q.add_argument("image")
    q.add_argument("camera", help="JSON with intrinsics/extrinsics/birdview")
    q.add_argument("--bilinear", action="store_true")
    q.set_defaults(fn=cmd_birdview)

    q = sub.add_parser("distort", help="emulate a wide-angle lens on a rectilinear image", parents=[shared])
    q.add_argument("image")
    q.add_argument("camera")
    q.add_argument("--k1", type=float, default=-0.3)
    q.add_argument("--k2", type=float, default=0.1)
    q.add_argument("--mask-fov", type=float, default=None,
                   help="also apply the FoV mask at this angle (degrees)")
    q.set_defaults(fn=cmd_distort)

    q = sub.add_parser("mask", help="procedural FoV mask for a camera", parents=[shared])
    q.add_argument("camera")
    q.add_argument("--fov-deg", type=float, default=100.0)
    q.set_defaults(fn=cmd_mask)

    q = sub.add_parser("localize", help="run the particle filter over a trajectory", parents=[shared])
    q.add_argument("trajectory")
    q.add_argument("--particles", type=_positive_int, default=500)
    q.set_defaults(fn=cmd_localize)

    q = sub.add_parser("stereo", help="obstacles from a rectified PGM/PPM pair", parents=[shared])
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("rig", help="JSON rig description")
    q.add_argument("--cloud", default=None, help="dump the point cloud as ASCII XYZ")
    q.set_defaults(fn=cmd_stereo)

    q = sub.add_parser("pipeline-bench", help="run a pipeline of sleep filters", parents=[shared])
    q.add_argument("pipeline")
    q.add_argument("--frames", type=_positive_int, default=8)
    q.add_argument("--sleep-ms", type=float, default=50.0)
    q.add_argument("--workers", type=int, default=None)
    q.set_defaults(fn=cmd_pipeline_bench)

    q = sub.add_parser("render", help="render a synthetic scene", parents=[shared])
    q.add_argument("scene")
    q.add_argument("--stereo", action="store_true")
    q.set_defaults(fn=cmd_render)

    q = sub.add_parser("gen-trajectory", help="generate a localization trajectory", parents=[shared])
    q.add_argument("scene", nargs="?", default=None)
    q.add_argument("--steps", type=_positive_int, default=50)
    q.set_defaults(fn=cmd_gen_trajectory)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AlgorithmError as exc:
        print(f"algorithm error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
