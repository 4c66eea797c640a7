import math
import warnings

import numpy as np
import pytest

from fieldkit.birdview import (
    BirdviewSpec,
    _pixel_grid_normalized,
    _project_arrays,
    CameraExtrinsics,
    CameraIntrinsics,
    apply_mask,
    birdview_transform,
    emulate_wide_angle,
    fov_mask,
    project,
    unproject_to_ground,
)
from fieldkit.errors import BehindCamera, HorizonRay, InputError
from fieldkit.raster import Raster


def make_intr(k1=0.0, k2=0.0, fx=300.0, w=320, h=240):
    return CameraIntrinsics(fx=fx, fy=fx, cx=(w - 1) / 2, cy=(h - 1) / 2,
                            width=w, height=h, k1=k1, k2=k2)


def tilted_cam(height=0.6, pitch=0.9):
    return CameraExtrinsics(position=(0.0, 0.0, height), rpy=(0.0, pitch, 0.0))


# --- projection --------------------------------------------------------------

def test_optical_axis_projects_to_principal_point():
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.5), rpy=(0.0, 0.0, 0.0))
    for k1, k2 in ((0.0, 0.0), (-0.3, 0.1), (0.2, 0.0)):
        intr = make_intr(k1, k2)
        # camera looks along +x at zero rpy; a point straight ahead is on-axis
        u, v = project((2.0, 0.0, 0.5), ex, intr)
        assert (u, v) == pytest.approx((intr.cx, intr.cy), abs=1e-9)


def test_pinhole_projects_lines_to_lines():
    intr = make_intr(0.0, 0.0)
    ex = tilted_cam()
    a = np.array([1.0, -0.4, 0.0])
    b = np.array([2.5, 0.6, 0.0])
    pix = np.array([project(a + t * (b - a), ex, intr) for t in np.linspace(0, 1, 11)])
    d = pix[-1] - pix[0]
    d = d / np.hypot(*d)
    residual = np.abs((pix - pix[0]) @ np.array([-d[1], d[0]]))
    assert residual.max() < 1e-9


def test_behind_camera_raises():
    intr = make_intr()
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.5), rpy=(0.0, 0.0, 0.0))
    with pytest.raises(BehindCamera):
        project((-1.0, 0.0, 0.5), ex, intr)


def test_point_past_the_lens_fold_raises():
    # r f(r) = r - 0.2 r^3 peaks at r^2 = 5/3 (52 degrees off the axis)
    intr = make_intr(k1=-0.2)
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.5), rpy=(0.0, 0.0, 0.0))
    u, _ = project((1.0, -1.25, 0.5), ex, intr)         # r^2 = 1.5625
    assert u > intr.cx
    with pytest.raises(BehindCamera):
        project((1.0, -1.3, 0.5), ex, intr)            # r^2 = 1.69


# --- unprojection ------------------------------------------------------------

def test_straight_down_center_pixel_hits_nadir():
    intr = make_intr()
    ex = CameraExtrinsics(position=(1.5, -2.0, 0.8), rpy=(0.0, math.pi / 2, 0.0))
    gx, gy = unproject_to_ground((intr.cx, intr.cy), ex, intr)
    assert (gx, gy) == pytest.approx((1.5, -2.0), abs=1e-9)


def test_pixel_above_horizon_raises():
    intr = make_intr()
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.5), rpy=(0.0, 0.0, 0.0))
    # camera level: the upper half of the image looks above the horizon
    with pytest.raises(HorizonRay):
        unproject_to_ground((intr.cx, 10.0), ex, intr)
    # r f(r) = r - 0.2 r^3 peaks at 0.861: no ray reaches a pixel beyond it
    intr = make_intr(k1=-0.2)
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.5), rpy=(0.0, math.pi / 2, 0.0))
    unproject_to_ground((intr.cx + 0.85 * intr.fx, intr.cy), ex, intr)
    with pytest.raises(HorizonRay):
        unproject_to_ground((intr.cx + 0.87 * intr.fx, intr.cy), ex, intr)


def _grid_reprojection_error(intr):
    """Largest pixel distance between each pixel center and the projection
    of its undistorted ray."""
    xn, yn = _pixel_grid_normalized(intr)
    ex = CameraExtrinsics(position=(0.0, 0.0, 1.0))
    ray = np.column_stack([xn, yn, np.ones(xn.size)])
    u, v, valid = _project_arrays(ray @ ex.rotation_world_from_camera().T + ex.position, ex, intr)
    rows, cols = np.divmod(np.arange(xn.size), intr.width)
    assert valid.all()
    return np.hypot(u - cols, v - rows).max()


def test_ground_round_trip_with_heavy_distortion():
    # r f(r) of the second lens bends over and rises again; it reaches the
    # image corner at r = 1.637, past the inflection of r f(r) at r = 1.04
    for k1, k2, fx in [(-0.3, 0.1, 300.0), (-0.4746, 0.1310, 182.0)]:
        intr = make_intr(k1=k1, k2=k2, fx=fx)
        ex = tilted_cam(height=0.7, pitch=0.8)
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(1000):
            p = (rng.uniform(0.5, 2.0), rng.uniform(-0.6, 0.6))
            try:
                u, v = project((p[0], p[1], 0.0), ex, intr)
            except BehindCamera:
                continue
            if not (0 <= u < intr.width and 0 <= v < intr.height):
                continue
            gx, gy = unproject_to_ground((u, v), ex, intr)
            assert math.hypot(gx - p[0], gy - p[1]) < 1e-6
            checked += 1
        assert checked > 400
        assert _grid_reprojection_error(intr) < 1e-6


def test_distortion_monotonicity_enforced():
    # strong barrel over a wide image bends r'(r) backwards: rejected
    with pytest.raises(InputError):
        CameraIntrinsics(fx=150.0, fy=150.0, cx=319.5, cy=239.5,
                         width=640, height=480, k1=-0.5, k2=0.0)
    # r f(r) peaks at 0.583, below the corner's distorted radius of 0.624,
    # so no ray reaches the corner: rejected
    with pytest.raises(InputError):
        make_intr(k1=-0.4815, k2=0.0578, fx=319.3)
    # same coefficients on a narrow-angle camera are fine
    CameraIntrinsics(fx=1500.0, fy=1500.0, cx=319.5, cy=239.5,
                     width=640, height=480, k1=-0.5, k2=0.0)


def _smallest_positive_root(coeffs):
    roots = np.roots(coeffs)
    real = roots.real[(np.abs(roots.imag) < 1e-9) & (roots.real > 0.0)]
    return real.min() if real.size else math.inf


def test_lens_rule_and_inversion_on_random_lenses():
    # a lens is accepted exactly when r f(r) = r + k1 r^3 + k2 r^5 rises
    # through 1.001 times the corner's undistorted radius; both radii come
    # from polynomial roots here, not from the lens code
    rng = np.random.default_rng(2021)
    w, h = 320, 240
    # the first has a 117.16 deg FoV; on the second, Newton steps that stay
    # in the bracket bounce between its ends unless slow steps bisect
    lenses = [(-0.4746, 0.1310, 182.0),
              (1.4471436418169707, -0.35580866017710333, 126.31424389701624)] + list(zip(
        rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40), rng.uniform(80.0, 600.0, 40)))
    accepted = 0
    for k1, k2, fx in lenses:
        rd = math.hypot((w - 1) / 2 / fx, (h - 1) / 2 / fx)
        corner = _smallest_positive_root([k2, 0.0, k1, 0.0, 1.0, -rd])
        fold = _smallest_positive_root([5.0 * k2, 0.0, 3.0 * k1, 0.0, 1.0])
        if not fold > 1.001 * corner:
            with pytest.raises(InputError):
                make_intr(k1=k1, k2=k2, fx=fx, w=w, h=h)
            continue
        intr = make_intr(k1=k1, k2=k2, fx=fx, w=w, h=h)
        accepted += 1
        assert _grid_reprojection_error(intr) < 1e-6
        # fov_mask allows 1e-9 rad over the full FoV; the four corners sit on it
        fov = 2.0 * math.atan(corner)
        assert fov_mask(intr, fov + 5e-10).all()
        assert np.flatnonzero(fov_mask(intr, fov - 1e-8) == 0).tolist() == [0, w - 1, w * h - w,
                                                                          w * h - 1]
        with pytest.raises(InputError):
            fov_mask(intr, fov + 1e-8)
    assert 10 <= accepted <= 37


# --- birdview transform ------------------------------------------------------

def test_birdview_straight_down_is_identity_crop():
    rng = np.random.default_rng(0)
    src = Raster(rng.integers(0, 256, (240, 320), dtype=np.uint8).astype(np.uint8),
                 rng.integers(0, 256, (240, 320), dtype=np.uint8).astype(np.uint8))
    h = 0.8
    f = 400.0
    intr = CameraIntrinsics(fx=f, fy=f, cx=(320 - 1) / 2, cy=(240 - 1) / 2,
                            width=320, height=240)
    ex = CameraExtrinsics(position=(0.0, 0.0, h), rpy=(0.0, math.pi / 2, 0.0))
    mpp = h / f  # one output pixel per input pixel
    bspec = BirdviewSpec(out_width=320, out_height=240, meters_per_pixel=mpp,
                         view_center=(0.0, 0.0), view_yaw=-math.pi / 2)
    out = birdview_transform(src, ex, intr, bspec)
    assert np.array_equal(out.luma, src.luma)
    assert np.array_equal(out.green, src.green)


def test_birdview_black_input_black_output():
    src = Raster(np.zeros((60, 80), np.uint8), np.zeros((60, 80), np.uint8))
    intr = make_intr(w=80, h=60, fx=80.0)
    ex = tilted_cam()
    bspec = BirdviewSpec(out_width=64, out_height=48, meters_per_pixel=0.02)
    out = birdview_transform(src, ex, intr, bspec)
    assert not out.luma.any() and not out.green.any()


def test_birdview_straightens_field_lines():
    # a tilted, distorted view of the field becomes a top-down image in which
    # a painted line's centerline is straight to within a pixel
    from fieldkit.synth import Scene, render_field

    scene = Scene()
    intr = make_intr(k1=-0.3, k2=0.1, fx=260.0)
    ex = CameraExtrinsics(position=(-1.0, 0.0, 0.7), rpy=(0.0, 0.75, 0.0))
    src = render_field(scene, intr, ex)
    bspec = BirdviewSpec(out_width=300, out_height=200, meters_per_pixel=0.01,
                         view_center=(0.35, 0.0))
    bird = birdview_transform(src, ex, intr, bspec)
    # the halfway line x=0 maps to a known output column; inside |y| < 0.55 a
    # +/-5 px window around it contains no other paint (circle is 45 px away)
    col0, _ = bspec.field_to_pixel(0.0, 0.0)
    white = bird.luma > 200
    cols = []
    for row in range(46, 155):
        lo, hi = int(col0) - 5, int(col0) + 6
        run = np.flatnonzero(white[row, lo:hi]) + lo
        if len(run) == 0:
            continue
        cols.append(run.mean())
    cols = np.array(cols)
    assert len(cols) > 100
    assert cols.max() - cols.min() <= 2.0  # straight within +/- 1 px


# --- wide-angle emulation ----------------------------------------------------

def test_emulate_identity_with_zero_coefficients():
    rng = np.random.default_rng(1)
    src = Raster(rng.integers(0, 256, (120, 160)).astype(np.uint8),
                 rng.integers(0, 256, (120, 160)).astype(np.uint8))
    intr = make_intr(w=160, h=120, fx=140.0)
    out = emulate_wide_angle(src, intr, 0.0, 0.0)
    assert np.array_equal(out.luma, src.luma)


def chord_deviation(points):
    p0, p1 = points[0], points[-1]
    d = p1 - p0
    d = d / np.hypot(*d)
    n = np.array([-d[1], d[0]])
    return np.abs((points - p0) @ n).max()


def test_emulation_bends_straight_lines():
    w, h = 320, 240
    intr = make_intr(w=w, h=h, fx=300.0)
    # paint one horizontal line near the top of a rectilinear image
    luma = np.zeros((h, w), np.uint8)
    luma[40, :] = 255
    src = Raster(luma, np.zeros_like(luma))
    out = emulate_wide_angle(src, intr, -0.3, 0.1)
    pts = []
    for col in range(0, w, 4):
        rows = np.flatnonzero(out.luma[:, col] > 128)
        if len(rows):
            pts.append((col, rows.mean()))
    pts = np.array(pts)
    assert len(pts) > 40
    assert chord_deviation(pts) > 2.0


def test_emulation_round_trip_restores_straightness():
    w, h = 320, 240
    intr = make_intr(w=w, h=h, fx=300.0)
    luma = np.zeros((h, w), np.uint8)
    luma[60, :] = 255
    luma[:, 220] = 255
    src = Raster(luma, np.zeros_like(luma))
    k1, k2 = -0.25, 0.05
    bent = emulate_wide_angle(src, intr, k1, k2)
    # undo: sample the bent image at the distorted position of each pixel
    distorted = CameraIntrinsics(fx=intr.fx, fy=intr.fy, cx=intr.cx, cy=intr.cy,
                                 width=w, height=h, k1=k1, k2=k2)
    rows, cols = np.mgrid[0:h, 0:w]
    xn = (cols.ravel() - intr.cx) / intr.fx
    yn = (rows.ravel() - intr.cy) / intr.fy
    r2 = xn**2 + yn**2
    f = 1.0 + k1 * r2 + k2 * r2**2
    u = np.rint(intr.fx * xn * f + intr.cx).astype(int)
    v = np.rint(intr.fy * yn * f + intr.cy).astype(int)
    ok = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    restored = np.zeros((h, w), np.uint8)
    restored.ravel()[ok.nonzero()[0]] = bent.luma[v[ok], u[ok]]
    row_pts = []
    for col in range(10, w - 10, 4):
        rr = np.flatnonzero(restored[:, col] > 128)
        if len(rr):
            row_pts.append((col, rr.mean()))
    row_pts = np.array(row_pts)
    assert chord_deviation(row_pts) <= 1.0


# --- FoV mask ----------------------------------------------------------------

def test_mask_full_fov_keeps_everything():
    intr = make_intr(fx=300.0)
    corner = math.hypot((intr.width - 1 - intr.cx) / intr.fx,
                        (intr.height - 1 - intr.cy) / intr.fy)
    mask = fov_mask(intr, 2 * math.atan(corner))
    assert mask.all()


def test_mask_100_degrees_on_wider_camera():
    # cameras wider than 100 degrees: center kept, corners cut; the first is
    # rectilinear (diagonal half-angle ~63 deg), the second a barrel lens
    # whose full FoV is 117.16 deg
    w, h = 320, 240
    for k1, k2, fx in [(0.0, 0.0, 100.0), (-0.4746, 0.1310, 182.0)]:
        intr = make_intr(k1=k1, k2=k2, fx=fx, w=w, h=h)
        mask = fov_mask(intr, math.radians(100.0))
        assert mask[h // 2, w // 2] == 255
        assert mask[0, 0] == 0
        assert 0 < int((mask > 0).sum()) < w * h


def test_mask_zero_limit_keeps_center_only():
    intr = make_intr(fx=300.0, w=321, h=241)  # odd size: cx,cy on a pixel
    mask = fov_mask(intr, 0.0)
    assert mask[120, 160] == 255
    assert int((mask > 0).sum()) == 1


def test_apply_mask_blacks_out():
    r = Raster(np.full((4, 4), 200, np.uint8), np.full((4, 4), 50, np.uint8))
    mask = np.zeros((4, 4), np.uint8)
    mask[1, 2] = 255
    out = apply_mask(r, mask)
    assert out.luma[1, 2] == 200 and out.luma.sum() == 200


def _reference_sample_nearest(channel, u, v, valid):
    # the sampler before rounding and masking were shared between channels;
    # it casts every rounded coordinate, in-image or not
    h, w = channel.shape
    ui = np.rint(u).astype(np.int64)
    vi = np.rint(v).astype(np.int64)
    ok = valid & (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
    out = np.zeros(u.shape, dtype=channel.dtype)
    out[ok] = channel[vi[ok], ui[ok]]
    return out


def test_birdview_far_points_sample_without_cast_warnings():
    # points near the camera's horizon project to huge or non-finite pixel
    # coordinates; nearest sampling must skip them silently, same output
    intr = make_intr(k1=-0.3, k2=0.1)
    ex = CameraExtrinsics(position=(0.0, 0.0, 0.7), rpy=(0.0, 0.55, 0.3))
    spec = BirdviewSpec()
    rng = np.random.default_rng(0)
    r = Raster(rng.integers(0, 256, (240, 320), dtype=np.uint8),
               rng.integers(0, 256, (240, 320), dtype=np.uint8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = birdview_transform(r, ex, intr, spec)
    rows, cols = np.mgrid[0:spec.out_height, 0:spec.out_width]
    fx, fy = spec.pixel_to_field(cols.ravel(), rows.ravel())
    u, v, valid = _project_arrays(np.column_stack([fx, fy, np.zeros(fx.size)]), ex, intr)
    with np.errstate(invalid="ignore"):
        want_luma = _reference_sample_nearest(r.luma, u, v, valid)
        want_green = _reference_sample_nearest(r.green, u, v, valid)
    assert not np.isfinite(u[valid]).all() or np.abs(u[valid]).max() > 2.0 ** 63
    assert np.array_equal(out.luma.ravel(), want_luma)
    assert np.array_equal(out.green.ravel(), want_green)
