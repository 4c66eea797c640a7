"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` for the full checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from fieldkit.ball_planner import PlanContext, compute_cost, plan_ball_path, plan_cost_recomputed
from fieldkit.birdview import (
    BirdviewSpec,
    CameraExtrinsics,
    CameraIntrinsics,
    birdview_transform,
    emulate_wide_angle,
    project,
    unproject_to_ground,
)
from fieldkit.errors import BehindCamera
from fieldkit.field_model import FieldPose, FieldSpec
from fieldkit.line_vision import LineSegment, VisionConfig, detect_corners, detect_lines
from fieldkit.localization import (
    CORNER,
    LINE,
    POINT,
    MonteCarloFilter,
    ParticleSet,
    RobotObservation,
    SensorModel,
    expected_observations,
    posterior_support,
    update_and_resample,
)
from fieldkit.pipeline_scheduler import RunContext, compute_batches, parse_pipeline, run_frame
from fieldkit.raster import Raster
from fieldkit.stereo_obstacles import StereoParams, StereoRig, detect_obstacles, disparity_to_points
from fieldkit.synth import Obstacle, Scene, generate_trajectory, render_birdview, render_stereo


SPEC = FieldSpec()


def random_scene(rng):
    ball = (rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
    robot = FieldPose(rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9),
                      rng.uniform(-np.pi, np.pi))
    opps = tuple((rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9))
                 for _ in range(rng.integers(0, 4)))       # <= 3 opponents
    tms = tuple(FieldPose(rng.uniform(-4.4, 4.4), rng.uniform(-2.9, 2.9),
                          rng.uniform(-np.pi, np.pi))
                for _ in range(rng.integers(0, 3)))        # <= 2 teammates
    return PlanContext(robot_pos=robot, ball_pos=ball, teammates=tms, opponents=opps)


def test_criterion_1_planner_oracle_equivalence(reference_dijkstra_cost):
    rng = np.random.default_rng(20210704)
    t0 = time.perf_counter()
    for i in range(100):
        ctx = random_scene(rng)
        zero = plan_ball_path(ctx, SPEC, zero_heuristic=True)
        assert zero.total_cost == reference_dijkstra_cost(ctx, SPEC), f"scene {i}"
        guided = plan_ball_path(ctx, SPEC)
        assert guided.total_cost == plan_cost_recomputed(ctx, guided), f"scene {i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"planner acceptance took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: 100 scenes, A*(h=0) == Dijkstra exactly, "
          f"edge-sum exact, {elapsed:.1f}s < 10s")


def test_criterion_2_first_kick_threat_doubling():
    ctx = PlanContext(robot_pos=FieldPose(0.0, 0.0, 0.0), ball_pos=(0.0, 0.0),
                      opponents=((0.5, 0.0),))
    blocked = compute_cost(ctx, (0.0, 0.0), (1.0, 0.0), first_kick=True)
    assert blocked == 1.0
    clear_ctx = PlanContext(robot_pos=FieldPose(0.0, 0.0, 0.0), ball_pos=(0.0, 0.0))
    clear = compute_cost(clear_ctx, (0.0, 0.0), (1.0, 0.0), first_kick=True)
    assert clear == 0.5
    print("\nPASS criterion 2: opponent on segment doubles ball travel "
          "(1.0s vs 0.5s), removal restores 0.5s")


# --- criterion 3 helpers -----------------------------------------------------

def clip_segment(a, b, lo_x, lo_y, hi_x, hi_y):
    x0, y0 = a
    x1, y1 = b
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x0 - lo_x), (dx, hi_x - x0), (-dy, y0 - lo_y), (dy, hi_y - y0)):
        if p == 0:
            if q < 0:
                return None
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    if t0 > t1:
        return None
    return (x0 + t0 * dx, y0 + t0 * dy), (x0 + t1 * dx, y0 + t1 * dy)


def visible_ground_truth(bspec, min_len, inset):
    """Layout lines clipped to the scoreable image region, in pixels."""
    out = []
    for a, b in SPEC.line_segments:
        pa = bspec.field_to_pixel(*a)
        pb = bspec.field_to_pixel(*b)
        c = clip_segment(pa, pb, inset, inset,
                         bspec.out_width - 1 - inset, bspec.out_height - 1 - inset)
        if c is None:
            continue
        if math.hypot(c[1][0] - c[0][0], c[1][1] - c[0][1]) >= min_len:
            out.append(LineSegment(*c))
    return out


def gt_coverage(gt, det):
    ux, uy = gt.unit
    ta = (det.p0[0] - gt.p0[0]) * ux + (det.p0[1] - gt.p0[1]) * uy
    tb = (det.p1[0] - gt.p0[0]) * ux + (det.p1[1] - gt.p0[1]) * uy
    lo, hi = min(ta, tb), max(ta, tb)
    return max(0.0, min(hi, gt.length) - max(lo, 0.0)) / gt.length


def gt_matched(gt, detections):
    for det in detections:
        d_ang = abs(det.direction - gt.direction)
        d_ang = min(d_ang, math.pi - d_ang)
        if (d_ang <= math.radians(2.0)
                and gt.point_line_distance(det.midpoint) <= 2.0
                and gt_coverage(gt, det) >= 0.5):
            return True
    return False


def test_criterion_3_line_detection_recall():
    mpp = 0.015
    rng = np.random.default_rng(2024)
    total = matched = 0
    for i in range(100):
        center = (rng.uniform(-3.5, 3.5), rng.uniform(-2.2, 2.2))
        yaw = rng.uniform(0, 2 * math.pi)
        bspec = BirdviewSpec(out_width=320, out_height=240, meters_per_pixel=mpp,
                             view_center=center, view_yaw=yaw)
        img = render_birdview(Scene(field=SPEC, noise_sigma=8.0, seed=i), bspec)
        cfg = VisionConfig(seed=i, decimation=2, nms_threshold=25.0,
                           min_length=35.0, max_gap=10.0, hough_votes=8)
        lines, _ = detect_lines(img, width_map=3, cfg=cfg)
        for gt in visible_ground_truth(bspec, min_len=50.0, inset=8):
            total += 1
            matched += gt_matched(gt, lines)
    recall = matched / total
    assert total >= 300
    assert recall >= 0.9, f"recall {recall:.3f}"

    # L/T/X corner multiplicity on clean fixtures
    tols = (math.radians(10), 6.0, 6.0)  # angle; arm extent and end slack (px)
    l = detect_corners([LineSegment((0, 0), (40, 0)), LineSegment((0, 0), (0, 40))], *tols)
    t = detect_corners([LineSegment((-40, 0), (40, 0)), LineSegment((0, 0), (0, 40))], *tols)
    x = detect_corners([LineSegment((-40, 0), (40, 0)), LineSegment((0, -40), (0, 40))], *tols)
    assert (len(l), len(t), len(x)) == (1, 2, 4)
    print(f"\nPASS criterion 3: recall {matched}/{total} = {recall:.3f} >= 0.9 "
          f"at 2px/2deg, sigma=8; L/T/X corners = 1/2/4")


def symmetric_error(est, gt):
    """Error vs ground truth or its 180-degree twin (the layout is exactly
    symmetric under rotation, so the twin is observationally identical)."""
    best = None
    for gx, gy, gth in ((gt[0], gt[1], gt[2]), (-gt[0], -gt[1], gt[2] + math.pi)):
        dp = math.hypot(est.x - gx, est.y - gy)
        dth = abs((est.theta - gth + math.pi) % (2 * math.pi) - math.pi)
        if best is None or (dp, dth) < best:
            best = (dp, dth)
    return best


def test_criterion_4_localization_convergence_and_ambiguity():
    sm = SensorModel()
    # convergence from uniform initialization
    converge_at = []
    for seed in range(20):
        rng = np.random.default_rng(seed + 100)
        start = FieldPose(rng.uniform(-3.5, 3.5), rng.uniform(-2.2, 2.2),
                          rng.uniform(-math.pi, math.pi))
        traj = generate_trajectory(Scene(field=SPEC, robot=start), steps=40,
                                   odom_noise=(0.01, 0.01, 0.01),
                                   obs_sigmas=sm, seed=seed + 500)
        f = MonteCarloFilter(SPEC, n_particles=500, sigmas=sm, seed=seed)
        hit = 41
        for k, step in enumerate(traj["steps"]):
            obs = [RobotObservation.from_dict(o) for o in step["observations"]]
            f.step(step["odometry"], (0.02, 0.02, 0.02), obs)
            dp, dth = symmetric_error(f.dominant(), step["ground_truth"])
            if dp <= 0.2 and dth <= math.radians(10):
                hit = k + 1
                break
        converge_at.append(hit)
    median = int(np.median(converge_at))
    assert median <= 40, f"median updates {median}"

    # ambiguity ordering: corner < line on pose support volume, line < point
    # on orientation support width, per seed
    ordered = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        while True:
            gt = FieldPose(rng.uniform(-4.0, 4.0), rng.uniform(-2.5, 2.5),
                           rng.uniform(-math.pi, math.pi))
            obs = expected_observations(gt, SPEC, sm.max_range)
            if {LINE, CORNER, POINT} <= {o.kind for o in obs}:
                break
        nearest = {}
        for o in obs:
            d = abs(o.distance) if o.kind == LINE else math.hypot(*o.position)
            if o.kind not in nearest or d < nearest[o.kind][0]:
                nearest[o.kind] = (d, o)
        support = {}
        for kind in (CORNER, LINE, POINT):
            init = ParticleSet.uniform(SPEC, 4000, np.random.default_rng(seed * 7 + 1))
            post = update_and_resample(init, [nearest[kind][1]], SPEC, sm,
                                       np.random.default_rng(seed * 7 + 2))
            support[kind] = posterior_support(post, SPEC)
        cv = support[CORNER][0] * support[CORNER][1]
        lv = support[LINE][0] * support[LINE][1]
        if cv < lv and support[LINE][1] < support[POINT][1]:
            ordered += 1
    assert ordered >= 18, f"ordering held in {ordered}/20 seeds"
    print(f"\nPASS criterion 4: convergence median {median} updates <= 40; "
          f"ambiguity ordering held in {ordered}/20 seeds")


def test_criterion_5_birdview_geometry():
    # round trip
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=159.5, cy=119.5,
                            width=320, height=240, k1=-0.3, k2=0.1)
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.7), rpy=(0.0, 0.8, 0.0))
    rng = np.random.default_rng(55)
    worst = 0.0
    checked = 0
    while checked < 1000:
        p = (rng.uniform(0.5, 2.0), rng.uniform(-0.6, 0.6))
        try:
            u, v = project((p[0], p[1], 0.0), ex, intr)
        except BehindCamera:
            continue
        if not (0 <= u < intr.width and 0 <= v < intr.height):
            continue
        gx, gy = unproject_to_ground((u, v), ex, intr)
        worst = max(worst, math.hypot(gx - p[0], gy - p[1]))
        checked += 1
    assert worst <= 1e-6, f"round trip {worst:.2e} m"

    # world-straight lines stay straight in the birdview within 1 px
    from fieldkit.synth import render_field

    view_intr = CameraIntrinsics(fx=260.0, fy=260.0, cx=159.5, cy=119.5,
                                 width=320, height=240, k1=-0.3, k2=0.1)
    view_ex = CameraExtrinsics(position=(-1.0, 0.0, 0.7), rpy=(0.0, 0.75, 0.0))
    src = render_field(Scene(field=SPEC), view_intr, view_ex)
    bspec = BirdviewSpec(out_width=300, out_height=200, meters_per_pixel=0.01,
                         view_center=(0.35, 0.0))
    bird = birdview_transform(src, view_ex, view_intr, bspec)
    col0, _ = bspec.field_to_pixel(0.0, 0.0)
    cols = []
    for row in range(46, 155):
        lo, hi = int(col0) - 5, int(col0) + 6
        run = np.flatnonzero(bird.luma[row, lo:hi] > 200) + lo
        if len(run):
            cols.append(run.mean())
    straightness = max(cols) - min(cols)
    assert len(cols) > 100 and straightness <= 2.0

    # synthetic wide-angle distortion bends straight lines by > 2 px
    flat_intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=159.5, cy=119.5,
                                 width=320, height=240)
    luma = np.zeros((240, 320), np.uint8)
    luma[40, :] = 255
    bent = emulate_wide_angle(Raster(luma, np.zeros_like(luma)), flat_intr, -0.3, 0.1)
    pts = []
    for col in range(0, 320, 4):
        rows = np.flatnonzero(bent.luma[:, col] > 128)
        if len(rows):
            pts.append((col, rows.mean()))
    pts = np.array(pts)
    chord = pts[-1] - pts[0]
    chord = chord / np.hypot(*chord)
    bend = np.abs((pts - pts[0]) @ np.array([-chord[1], chord[0]])).max()
    assert bend > 2.0
    print(f"\nPASS criterion 5: round trip {worst:.1e} m <= 1e-6; birdview "
          f"straightness {straightness:.2f} px <= 2; distortion bend {bend:.1f} px > 2")


def test_criterion_6_scheduler():
    # diamond batches
    spec = parse_pipeline(json.dumps({
        "source_slots": ["frame"],
        "filters": [
            {"name": "A", "inputs": ["frame"], "outputs": ["a"]},
            {"name": "B", "inputs": ["a"], "outputs": ["b"]},
            {"name": "C", "inputs": ["a"], "outputs": ["c"]},
            {"name": "D", "inputs": ["b", "c"], "outputs": ["d"]},
        ]}))
    plan = compute_batches(spec)
    assert plan.batches == (("A",), ("B", "C"), ("D",))

    # divider-2 execution count over F frames
    for frames in (1, 5, 8, 11):
        spec2 = parse_pipeline(json.dumps({
            "source_slots": ["frame"],
            "filters": [{"name": "half", "inputs": ["frame"], "outputs": ["o"],
                         "divider": 2}]}))
        plan2 = compute_batches(spec2)
        ctx = RunContext(max_workers=1)
        count = [0]

        def fn(inputs, count=count):
            count[0] += 1
            return {"o": count[0]}

        for k in range(frames):
            ctx.sources = {"frame": k}
            run_frame(plan2, {"half": fn}, k, ctx)
        assert count[0] == math.ceil(frames / 2)

    # 4-wide sleep batch: parallel <= 0.6x forced-serial
    filters = [{"name": f"s{i}", "inputs": ["frame"], "outputs": [f"o{i}"]}
               for i in range(4)]
    spec3 = parse_pipeline(json.dumps({"source_slots": ["frame"], "filters": filters}))
    plan3 = compute_batches(spec3)

    def sleeper(out):
        def fn(inputs):
            time.sleep(0.05)
            return {out: 1}
        return fn

    registry = {f["name"]: sleeper(f["outputs"][0]) for f in filters}
    ctx = RunContext(max_workers=4)
    ctx.sources = {"frame": 0}
    try:
        t0 = time.perf_counter()
        run_frame(plan3, registry, 0, ctx)
        parallel = time.perf_counter() - t0
    finally:
        ctx.close()
    ctx_s = RunContext(max_workers=1)
    ctx_s.sources = {"frame": 0}
    t0 = time.perf_counter()
    run_frame(plan3, registry, 0, ctx_s)
    serial = time.perf_counter() - t0
    assert parallel <= 0.6 * serial, f"parallel {parallel:.3f}s vs serial {serial:.3f}s"

    # dependency timestamp audit over 100 random DAGs
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        fs = []
        produced = ["frame"]
        for i in range(n):
            k = int(rng.integers(1, min(3, len(produced)) + 1))
            ins = list(rng.choice(produced, size=k, replace=False))
            fs.append({"name": f"f{i:02d}", "inputs": ins, "outputs": [f"s{i}"]})
            produced.append(f"s{i}")
        rspec = parse_pipeline(json.dumps({"source_slots": ["frame"], "filters": fs}))
        rplan = compute_batches(rspec)
        rctx = RunContext(max_workers=4)
        rctx.sources = {"frame": 0}
        registry = {f.name: (lambda outs: lambda inputs: {o: 1 for o in outs})(f.outputs)
                    for f in rspec.filters}
        try:
            run_frame(rplan, registry, 0, rctx)
        finally:
            rctx.close()
        starts = {r.filter_name: r.start for r in rctx.log}
        ends = {r.filter_name: r.end for r in rctx.log}
        producer = rspec.producer_of()
        for f in rspec.filters:
            for slot in f.inputs:
                if slot in producer:
                    assert ends[producer[slot]] <= starts[f.name]
    print(f"\nPASS criterion 6: diamond batches [[A],[B,C],[D]]; divider-2 runs "
          f"ceil(F/2); parallel {parallel * 1000:.0f}ms <= 0.6x serial "
          f"{serial * 1000:.0f}ms; 100-DAG timestamp audit clean")


def test_criterion_7_stereo():
    # exact depth-disparity product
    rig = StereoRig(baseline=0.062, focal=700.0, cx=159.5, cy=119.5,
                    width=320, height=240)
    rng = np.random.default_rng(0)
    disp = rng.integers(1, 65, (240, 320)).astype(np.int32)
    pc = disparity_to_points(disp, rig, StereoParams(step=1))
    np.testing.assert_allclose(pc.points[:, 2] * disp.ravel().astype(float),
                               rig.focal * rig.baseline, rtol=1e-15)

    # RANSAC normal recovery on the noisy-plane fixture, 20 seeds
    from fieldkit.stereo_obstacles import PointCloud, ransac_plane

    angles = []
    for seed in range(20):
        srng = np.random.default_rng(seed)
        inl = np.column_stack([srng.uniform(-1, 1, 800), srng.uniform(-1, 1, 800),
                               srng.normal(0, 0.005, 800)])
        out = np.column_stack([srng.uniform(-1, 1, 200), srng.uniform(-1, 1, 200),
                               srng.uniform(0.2, 0.5, 200)])
        plane = ransac_plane(PointCloud(np.vstack([inl, out])),
                             StereoParams(ransac_iterations=100, inlier_dist=0.02, seed=seed))
        angles.append(math.degrees(math.acos(
            min(1.0, abs(np.asarray(plane.normal) @ np.array([0, 0, 1.0]))))))
    median_angle = float(np.median(angles))
    assert median_angle <= 2.0

    # two-robot synthetic scene, end to end
    posts_field = ((0.55, -0.12), (0.55, 0.12))
    scene = Scene(obstacles=tuple(Obstacle(x, y, 0.02, 0.3) for x, y in posts_field))
    ex = CameraExtrinsics(position=(-0.4, 0.0, 0.35), rpy=(0.0, 0.32, 0.0))
    left, right = render_stereo(scene, rig, ex)
    params = StereoParams(window=9, max_disparity=64, step=2, voxel=0.03,
                          min_points_per_voxel=2, protrusion=0.08,
                          link_dist=0.1, min_cluster_size=8, seed=0)
    _, clusters = detect_obstacles(left, right, rig, params)
    assert len(clusters) == 2
    r_wc = ex.rotation_world_from_camera()
    errs = []
    claimed = set()
    for cluster in clusters:
        world = np.asarray(ex.position) + r_wc @ np.asarray(cluster.centroid)
        dists = [math.hypot(world[0] - fx, world[1] - fy) for fx, fy in posts_field]
        k = int(np.argmin(dists))
        claimed.add(k)
        errs.append(dists[k])
    worst = max(errs)
    assert claimed == {0, 1}  # each cluster matches a distinct post
    assert worst <= 0.03, f"centroid errors {errs}"
    print(f"\nPASS criterion 7: Z*d == f*b exact; RANSAC median {median_angle:.2f} "
          f"deg <= 2; two clusters, centroid error {worst * 100:.1f} cm <= 3 cm")


def test_criterion_8_cli_determinism(tmp_path):
    from fieldkit.cli import main as cli_main

    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "ball": [0.5, 0.2], "robot": [0.0, 0.0, 0.2],
        "opponents": [[2.0, 0.1]], "teammates": [[3.0, 1.0, 0.0]],
    }))
    render_scene = tmp_path / "render_scene.json"
    render_scene.write_text(json.dumps({
        "birdview": {"out_width": 160, "out_height": 120, "meters_per_pixel": 0.03},
        "noise_sigma": 6.0,
    }))
    stereo_scene = tmp_path / "stereo_scene.json"
    stereo_scene.write_text(json.dumps({
        "camera": {"extrinsics": {"position": [-0.4, 0.0, 0.35], "rpy": [0.0, 0.32, 0.0]},
                   "intrinsics": {"fx": 700.0, "fy": 700.0, "cx": 159.5, "cy": 119.5,
                                  "width": 320, "height": 240}},
        "obstacles": [[0.55, 0.0, 0.02, 0.3]],
    }))
    camera = tmp_path / "camera.json"
    camera.write_text(json.dumps({
        "intrinsics": {"fx": 300.0, "fy": 300.0, "cx": 79.5, "cy": 59.5,
                       "width": 160, "height": 120},
        "extrinsics": {"position": [-1.0, 0.0, 0.7], "rpy": [0.0, 0.75, 0.0]},
        "birdview": {"out_width": 120, "out_height": 90, "meters_per_pixel": 0.02},
    }))
    rig = tmp_path / "rig.json"
    rig.write_text(json.dumps({"baseline": 0.062, "focal": 700.0, "cx": 159.5,
                               "cy": 119.5, "width": 320, "height": 240,
                               "params": {"voxel": 0.03, "protrusion": 0.08,
                                          "link_dist": 0.1, "min_cluster_size": 8}}))
    pipeline = tmp_path / "pipe.json"
    pipeline.write_text(json.dumps({
        "source_slots": ["frame"],
        "filters": [{"name": "a", "inputs": ["frame"], "outputs": ["x"]},
                    {"name": "b", "inputs": ["x"], "outputs": ["y"], "divider": 2}],
    }))

    # fixtures produced by earlier commands
    assert cli_main(["--seed", "3", "render", str(render_scene),
                     "--out", str(tmp_path / "bird.ppm")]) == 0
    assert cli_main(["--seed", "3", "render", str(stereo_scene), "--stereo",
                     "--out", str(tmp_path / "pair.ppm")]) == 0
    assert cli_main(["--seed", "3", "render", str(render_scene),
                     "--out", str(tmp_path / "view.ppm")]) == 0
    traj = tmp_path / "traj.json"
    traj_scene = tmp_path / "traj_scene.json"
    traj_scene.write_text(json.dumps({"robot": [-2.0, -1.0, 0.5]}))
    assert cli_main(["--seed", "5", "gen-trajectory", str(traj_scene),
                     "--steps", "8", "--out", str(traj)]) == 0

    perspective_scene = tmp_path / "persp.json"
    perspective_scene.write_text(json.dumps({
        "camera": json.loads(camera.read_text()), "noise_sigma": 4.0}))

    commands = {
        "plan": ["plan", str(scene)],
        "detect-lines": ["detect-lines", str(tmp_path / "bird.ppm"),
                         "--line-width-px", "2", "--decimation", "2",
                         "--min-length", "30"],
        "birdview": ["render", str(perspective_scene)],  # produces the source first
        "localize": ["localize", str(traj), "--particles", "200"],
        "stereo": ["stereo", str(tmp_path / "pair_left.ppm"),
                   str(tmp_path / "pair_right.ppm"), str(rig)],
        "pipeline-bench": ["pipeline-bench", str(pipeline), "--frames", "3",
                           "--sleep-ms", "1"],
        "gen-trajectory": ["gen-trajectory", str(traj_scene), "--steps", "6"],
        "render": ["render", str(render_scene)],
        "distort": ["distort", str(tmp_path / "view.ppm"), str(camera),
                    "--k1", "-0.2", "--k2", "0.05"],
        "mask": ["mask", str(camera), "--fov-deg", "30"],
    }
    # the birdview command proper (needs its source image deterministic too)
    assert cli_main(["--seed", "4", "render", str(perspective_scene),
                     "--out", str(tmp_path / "persp.ppm")]) == 0
    commands["birdview"] = ["birdview", str(tmp_path / "persp.ppm"), str(camera)]

    for name, argv in commands.items():
        outputs = []
        for run in ("a", "b"):
            suffix = ".pgm" if name == "mask" else (
                ".ppm" if name in ("birdview", "render", "distort") else ".json")
            out = tmp_path / f"{name}_{run}{suffix}"
            assert cli_main(["--seed", "9", *argv, "--out", str(out)]) == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output differs between runs"
    print("\nPASS criterion 8: all 10 subcommands byte-identical across two "
          "seeded runs")
