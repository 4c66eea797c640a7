"""The cached birdview index map against the projection it replaced.

`_project_arrays`, `_sample_nearest`, `birdview_transform` and
`emulate_wide_angle` below are the earlier implementation, kept verbatim as
an independent oracle: every call projects all output points again and
gathers with two index arrays. The cached path projects the same points
with the same per-element arithmetic and reads the same source pixels, so
its outputs must match the oracle's bit for bit, on a cache miss and on a
hit alike.
"""

import math
import sys
import threading

import numpy as np
import pytest

from fieldkit import birdview
from fieldkit.birdview import (
    INDEX_CACHE_SIZE,
    BirdviewSpec,
    CameraExtrinsics,
    CameraIntrinsics,
    _footprint_spans,
    _nearest_index_map,
    _sample_bilinear,
    _undistort_normalized,
)
from fieldkit.errors import InputError
from fieldkit.raster import Raster


# --- oracle: per-call projection, verbatim -------------------------------------

def _project_arrays(pts: np.ndarray, ex: CameraExtrinsics, intr: CameraIntrinsics):
    """Project (N, 3) field points; returns (u, v, valid) with valid=False behind camera."""
    r_cw = ex.rotation_world_from_camera().T
    cam = (pts - np.asarray(ex.position)) @ r_cw.T
    valid = cam[:, 2] > 1e-12
    z = np.where(valid, cam[:, 2], 1.0)
    xn = cam[:, 0] / z
    yn = cam[:, 1] / z
    r2 = xn * xn + yn * yn
    f = 1.0 + intr.k1 * r2 + intr.k2 * r2 * r2
    u = intr.fx * (xn * f) + intr.cx
    v = intr.fy * (yn * f) + intr.cy
    return u, v, valid


def _sample_nearest(r: Raster, u, v, valid, shape) -> Raster:
    """Nearest-pixel lookup of both channels; points off the image read 0.

    Rounds and masks once for both channels, and casts only the in-image
    indices, so far-off or non-finite coordinates never reach the cast.
    """
    h, w = r.luma.shape
    ur = np.rint(u)
    vr = np.rint(v)
    ok = valid & (ur >= 0) & (ur < w) & (vr >= 0) & (vr < h)
    vi = vr[ok].astype(np.int64)
    ui = ur[ok].astype(np.int64)

    def gather(channel):
        out = np.zeros(u.shape, dtype=channel.dtype)
        out[ok] = channel[vi, ui]
        return out.reshape(shape)

    return Raster(gather(r.luma), gather(r.green))


def birdview_transform(r: Raster, ex: CameraExtrinsics, intr: CameraIntrinsics,
                       spec: BirdviewSpec, bilinear: bool = False) -> Raster:
    """Resample the camera image into a virtual top-down view of the ground.

    Each output pixel is a known field point; it is filled by projecting that
    point into the source image, so no intermediate rectified image is ever
    materialized and the work scales with the (small) output size.
    """
    rows, cols = np.mgrid[0:spec.out_height, 0:spec.out_width]
    fx, fy = spec.pixel_to_field(cols.ravel(), rows.ravel())
    pts = np.column_stack([fx, fy, np.zeros(fx.size)])
    u, v, valid = _project_arrays(pts, ex, intr)
    shape = (spec.out_height, spec.out_width)
    if not bilinear:
        return _sample_nearest(r, u, v, valid, shape)
    return Raster(_sample_bilinear(r.luma, u, v, valid).reshape(shape),
                  _sample_bilinear(r.green, u, v, valid).reshape(shape))


def emulate_wide_angle(r: Raster, intr: CameraIntrinsics, k1: float, k2: float) -> Raster:
    """Apply forward radial distortion to a rectilinear render by inverse sampling.

    Regions with no source data stay black; fov_mask covers them downstream.
    """
    if r.height != intr.height or r.width != intr.width:
        raise InputError("raster size must match the intrinsics")
    distorted = CameraIntrinsics(intr.fx, intr.fy, intr.cx, intr.cy,
                                 intr.width, intr.height, k1, k2)
    rows, cols = np.mgrid[0:r.height, 0:r.width]
    xd = (cols.ravel() - intr.cx) / intr.fx
    yd = (rows.ravel() - intr.cy) / intr.fy
    xn, yn = _undistort_normalized(xd, yd, distorted)
    u = intr.fx * xn + intr.cx
    v = intr.fy * yn + intr.cy
    valid = np.ones(u.shape, dtype=bool)
    return _sample_nearest(r, u, v, valid, (r.height, r.width))


# --- seeded geometries ------------------------------------------------------------

# the benchmark's head camera: 320x240 with barrel distortion, 0.7 m up
HEAD = CameraIntrinsics(fx=260.0, fy=260.0, cx=159.5, cy=119.5, width=320, height=240,
                        k1=-0.3, k2=0.1)
PINHOLE = CameraIntrinsics(fx=260.0, fy=260.0, cx=159.5, cy=119.5, width=320, height=240)
HEIGHT = 0.7


def _gaze_spec(pan, tilt, size=(640, 480), mpp=0.01, ahead=0.85):
    """A birdview centred on the gaze point, turned with the pan."""
    reach = HEIGHT / math.tan(tilt) + ahead
    return BirdviewSpec(out_width=size[0], out_height=size[1], meters_per_pixel=mpp,
                        view_center=(reach * math.cos(pan), reach * math.sin(pan)),
                        view_yaw=pan)


def _geometries():
    rng = np.random.default_rng(2021)
    cases = []

    def add(group, ex, intr, spec, shape=(240, 320)):
        cases.append(pytest.param(ex, intr, spec, shape, id=f"{group}-{len(cases)}"))

    # a head-scan sweep: pan and tilt change every frame
    for pan, tilt in zip(np.linspace(-1.2, 1.2, 14).tolist(), rng.uniform(0.55, 0.95, 14)):
        ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.0, tilt, pan))
        add("sweep", ex, HEAD, _gaze_spec(pan, tilt))
    # rolled heads, on and off the field origin
    for _ in range(6):
        roll, tilt, pan = rng.uniform(-0.3, 0.3), rng.uniform(0.6, 0.9), rng.uniform(-3.1, 3.1)
        x, y = rng.uniform(-4.0, 4.0), rng.uniform(-2.5, 2.5)
        ex = CameraExtrinsics(position=(x, y, HEIGHT), rpy=(roll, tilt, pan))
        add("roll", ex, HEAD, _gaze_spec(pan, tilt, ahead=0.5))
    # no distortion, and heavier distortion than the head camera
    for k, intr in enumerate([PINHOLE] * 4 + [
            CameraIntrinsics(fx=300.0, fy=300.0, cx=159.5, cy=119.5, width=320, height=240,
                             k1=-0.25, k2=0.05)] * 2):
        pan, tilt = rng.uniform(-1.0, 1.0), rng.uniform(0.6, 0.9)
        ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.0, tilt, pan))
        add("pinhole" if k < 4 else "distorted", ex, intr, _gaze_spec(pan, tilt))
    # views that straddle the horizon: part of the ground sits behind the
    # camera or projects far off the image
    for tilt in (0.02, 0.08, 0.15, 0.25, -0.1):
        pan = float(rng.uniform(-0.5, 0.5))
        ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.0, tilt, pan))
        spec = BirdviewSpec(out_width=400, out_height=300, meters_per_pixel=0.05,
                            view_center=(2.0 * math.cos(pan), 2.0 * math.sin(pan)),
                            view_yaw=pan)
        add("horizon", ex, HEAD if tilt != 0.08 else PINHOLE, spec)
    ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.2, 0.1, 0.0))
    add("horizon", ex, HEAD, BirdviewSpec(meters_per_pixel=0.04))
    # birdview sizes and scales other than the default
    for size, mpp in [((37, 53), 0.05), ((160, 120), 0.02), ((1, 1), 0.01), ((200, 150), 0.015),
                      ((53, 211), 0.007), ((320, 240), 0.03), ((640, 17), 0.01),
                      ((99, 101), 0.2)]:
        pan, tilt = rng.uniform(-0.8, 0.8), rng.uniform(0.6, 0.9)
        ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.0, tilt, pan))
        add("spec", ex, HEAD, _gaze_spec(pan, tilt, size=size, mpp=mpp))
    # source rasters whose shape differs from the intrinsics
    for shape in [(120, 160), (480, 640), (240, 200), (100, 320), (241, 321), (7, 9)]:
        pan, tilt = rng.uniform(-0.8, 0.8), rng.uniform(0.6, 0.9)
        ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.0, tilt, pan))
        add("shape", ex, HEAD, _gaze_spec(pan, tilt), shape)
    # the default view of the field from a camera behind the centre line
    for pitch in (0.5, 0.75, 1.0, 1.3):
        ex = CameraExtrinsics(position=(-1.0, 0.0, HEIGHT), rpy=(0.0, pitch, 0.0))
        add("default", ex, HEAD, BirdviewSpec())
    return cases


GEOMETRIES = _geometries()


def _raster(shape, seed):
    rng = np.random.default_rng(seed)
    return Raster(rng.integers(0, 256, shape, dtype=np.uint8),
                  rng.integers(0, 256, shape, dtype=np.uint8))


def _assert_rasters_equal(got, want):
    assert got.luma.dtype == np.uint8 and got.green.dtype == np.uint8
    assert np.array_equal(got.luma, want.luma)
    assert np.array_equal(got.green, want.green)


@pytest.fixture(autouse=True)
def empty_cache():
    _nearest_index_map.cache_clear()
    yield
    _nearest_index_map.cache_clear()


def test_geometry_groups_cover_the_cases():
    assert len(GEOMETRIES) >= 50
    for param in GEOMETRIES:
        ex, intr, spec, shape = param.values
        rows, cols = np.mgrid[0:spec.out_height, 0:spec.out_width]
        fx, fy = spec.pixel_to_field(cols.ravel(), rows.ravel())
        u, v, valid = _project_arrays(np.column_stack([fx, fy, np.zeros(fx.size)]), ex, intr)
        ur, vr = np.rint(u), np.rint(v)
        seen = valid & (ur >= 0) & (ur < shape[1]) & (vr >= 0) & (vr < shape[0])
        if param.id.startswith("horizon"):
            assert not valid.all()  # some ground points lie behind the camera
        if param.id.startswith(("sweep", "roll", "pinhole", "distorted", "shape")):
            assert 0 < seen.mean() < 1


@pytest.mark.parametrize("ex, intr, spec, shape", GEOMETRIES)
def test_nearest_matches_oracle_on_miss_and_hit(ex, intr, spec, shape):
    r = _raster(shape, seed=spec.out_width * 7 + shape[0])
    want = birdview_transform(r, ex, intr, spec)
    miss = birdview.birdview_transform(r, ex, intr, spec)
    assert _nearest_index_map.cache_info()[:2] == (0, 1)  # hits, misses
    hit = birdview.birdview_transform(r, ex, intr, spec)
    assert _nearest_index_map.cache_info()[:2] == (1, 1)
    _assert_rasters_equal(miss, want)
    _assert_rasters_equal(hit, want)


@pytest.mark.parametrize("ex, intr, spec, shape", GEOMETRIES[::5])
def test_bilinear_matches_oracle(ex, intr, spec, shape):
    r = _raster(shape, seed=3)
    _assert_rasters_equal(birdview.birdview_transform(r, ex, intr, spec, bilinear=True),
                          birdview_transform(r, ex, intr, spec, bilinear=True))
    assert _nearest_index_map.cache_info().currsize == 0


@pytest.mark.parametrize("size, fx, k1, k2", [
    ((240, 320), 300.0, 0.0, 0.0),
    ((240, 320), 300.0, -0.3, 0.1),
    ((240, 320), 260.0, -0.25, 0.05),
    ((120, 160), 140.0, -0.3, 0.1),
    ((120, 160), 140.0, 0.1, 0.0),
    ((31, 47), 40.0, -0.2, 0.02),
])
def test_emulate_wide_angle_matches_oracle(size, fx, k1, k2):
    h, w = size
    intr = CameraIntrinsics(fx=fx, fy=fx, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    r = _raster(size, seed=w)
    _assert_rasters_equal(birdview.emulate_wide_angle(r, intr, k1, k2),
                          emulate_wide_angle(r, intr, k1, k2))


# --- the footprint spans ----------------------------------------------------------

def _seen_and_spans(ex, intr, spec, shape):
    """Per birdview pixel: seen by the oracle's nearest and bilinear
    sampling, and inside _footprint_spans."""
    rows, cols = np.mgrid[0:spec.out_height, 0:spec.out_width]
    fx, fy = spec.pixel_to_field(cols.ravel(), rows.ravel())
    u, v, valid = _project_arrays(np.column_stack([fx, fy, np.zeros(fx.size)]), ex, intr)
    h, w = shape
    ur, vr = np.rint(u), np.rint(v)
    nearest = valid & (ur >= 0) & (ur < w) & (vr >= 0) & (vr < h)
    bilinear = valid & (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    first, count = _footprint_spans(ex, intr, spec, shape)
    assert first.shape == count.shape == (spec.out_height,)
    assert (count >= 0).all() and (first >= 0).all() and (first + count <= spec.out_width).all()
    in_span = (cols >= first[:, None]) & (cols < (first + count)[:, None])
    return nearest, bilinear, in_span.ravel()


@pytest.mark.parametrize("ex, intr, spec, shape", GEOMETRIES)
def test_spans_cover_every_seen_pixel(ex, intr, spec, shape):
    nearest, bilinear, in_span = _seen_and_spans(ex, intr, spec, shape)
    assert not (nearest & ~in_span).any()
    assert not (bilinear & ~in_span).any()


def test_spans_stay_close_to_the_footprint():
    # on the head sweep the spans held 1.03 to 1.55 times the seen pixels
    # when this bound was set, against 1.8 to 15 times for whole rows
    ratios = []
    for param in GEOMETRIES:
        if param.id.startswith("sweep"):
            nearest, _, in_span = _seen_and_spans(*param.values)
            ratios.append(in_span.sum() / nearest.sum())
    assert len(ratios) == 14
    assert max(ratios) <= 1.6


# the head camera with k1 = -0.2, k2 = 0: r f(r) = r - 0.2 r^3 peaks at
# r^2 = 5/3, past the image corner, and then falls back through 0, so ground
# rays far outside the image would land in it as a ghost ring
FOLDING = CameraIntrinsics(fx=260.0, fy=260.0, cx=159.5, cy=119.5, width=320, height=240,
                           k1=-0.2)


@pytest.mark.parametrize("pitch", [0.75, 1.3])
def test_folding_lens_drops_rays_past_the_fold(pitch):
    ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.0, pitch, 0.0))
    spec = BirdviewSpec(out_width=320, out_height=240, meters_per_pixel=0.02)
    rows, cols = np.mgrid[0:spec.out_height, 0:spec.out_width]
    fx, fy = spec.pixel_to_field(cols.ravel(), rows.ravel())
    pts = np.column_stack([fx, fy, np.zeros(fx.size)])
    u, v, valid = _project_arrays(pts, ex, FOLDING)
    cam = (pts - np.asarray(ex.position)) @ ex.rotation_world_from_camera()
    r2 = (cam[:, 0] ** 2 + cam[:, 1] ** 2) / np.where(valid, cam[:, 2], 1.0) ** 2
    past = r2 >= 5.0 / 3.0
    ur, vr = np.rint(u), np.rint(v)
    ghost = past & valid & (ur >= 0) & (ur < 320) & (vr >= 0) & (vr < 240)
    assert ghost.any()
    assert np.array_equal(birdview._project_arrays(pts, ex, FOLDING)[2], valid & ~past)
    # the oracle's view with the ghost ring blacked out
    r = _raster((240, 320), seed=4)
    want = birdview_transform(r, ex, FOLDING, spec)
    want.luma.ravel()[ghost] = 0
    want.green.ravel()[ghost] = 0
    _assert_rasters_equal(birdview.birdview_transform(r, ex, FOLDING, spec), want)
    # and the spans now bound the folding lens's footprint too
    nearest, bilinear, in_span = _seen_and_spans(ex, FOLDING, spec, (240, 320))
    assert (nearest & ~past).any()
    assert not (nearest & ~past & ~in_span).any() and not (bilinear & ~past & ~in_span).any()
    assert in_span.sum() < in_span.size


@pytest.mark.parametrize("k1, k2", [(-0.2, 0.0), (-0.5, 0.05), (0.1, -0.02), (-0.3, -0.01)])
def test_fold_radius_is_where_r_f_r_stops_increasing(k1, k2):
    intr = CameraIntrinsics(fx=900.0, fy=900.0, cx=159.5, cy=119.5, width=320, height=240,
                            k1=k1, k2=k2)
    s = birdview._fold_radius_sq(intr)
    slope = [1.0 + 3.0 * k1 * x + 5.0 * k2 * x * x for x in (0.999 * s, s, 1.001 * s)]
    assert slope[0] > 0.0 and abs(slope[1]) < 1e-12 and slope[2] < 0.0
    assert all(1.0 + 3.0 * k1 * x + 5.0 * k2 * x * x > 0.0 for x in np.linspace(0.0, s, 1000)[:-1])


@pytest.mark.parametrize("k1, k2", [(-0.3, 0.1), (0.0, 0.0), (-0.25, 0.05), (0.1, 0.0),
                                    (0.1, 0.02)])
def test_lenses_that_never_fold_have_no_fold_radius(k1, k2):
    # the benchmark's head lens (-0.3, 0.1) among them, so its projection is unchanged
    intr = CameraIntrinsics(fx=260.0, fy=260.0, cx=159.5, cy=119.5, width=320, height=240,
                            k1=k1, k2=k2)
    assert birdview._fold_radius_sq(intr) == math.inf


# --- the cache ---------------------------------------------------------------------

def _small_geometry(k):
    pan = -1.5 + 0.03 * k
    ex = CameraExtrinsics(position=(0.0, 0.0, HEIGHT), rpy=(0.0, 0.75, pan))
    return ex, HEAD, _gaze_spec(pan, 0.75, size=(48, 36), mpp=0.05)


def test_cache_stays_bounded():
    r = _raster((240, 320), seed=0)
    for k in range(100):
        birdview.birdview_transform(r, *_small_geometry(k))
        info = _nearest_index_map.cache_info()
        assert info.currsize <= info.maxsize == INDEX_CACHE_SIZE
    assert _nearest_index_map.cache_info()[:2] == (0, 100)


def test_cached_map_is_read_only_int32_with_sentinel():
    ex, intr, spec, shape = GEOMETRIES[0].values
    index = _nearest_index_map(ex, intr, spec, shape)
    assert index.dtype == np.int32 and index.shape == (spec.out_height, spec.out_width)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0
    assert index.min() >= 0 and index.max() == shape[0] * shape[1]  # the sentinel


def test_outputs_never_alias_the_cache():
    ex, intr, spec, shape = GEOMETRIES[1].values
    r = _raster(shape, seed=11)
    want = birdview_transform(r, ex, intr, spec)
    out = birdview.birdview_transform(r, ex, intr, spec)
    index = _nearest_index_map(ex, intr, spec, shape)
    assert not np.shares_memory(out.luma, index) and not np.shares_memory(out.green, index)
    out.luma[:] = 7
    out.green[:] = 9
    r.luma[:5] = 0  # the source too: the next call must read it afresh
    want_after = birdview_transform(r, ex, intr, spec)
    _assert_rasters_equal(birdview.birdview_transform(r, ex, intr, spec), want_after)
    assert _nearest_index_map.cache_info().hits >= 1
    assert not np.array_equal(want.luma, want_after.luma)


def test_same_geometry_two_source_shapes():
    ex, intr, spec, _ = GEOMETRIES[2].values
    for shape in [(240, 320), (120, 160), (240, 320)]:
        r = _raster(shape, seed=shape[0])
        _assert_rasters_equal(birdview.birdview_transform(r, ex, intr, spec),
                              birdview_transform(r, ex, intr, spec))
    assert _nearest_index_map.cache_info()[:2] == (1, 2)


def test_threads_share_the_cache_safely():
    # more threads than cores and more geometries than the cache holds, so
    # misses, hits and evictions interleave; every thread starts on the
    # same geometry
    geometries = [_small_geometry(k) for k in range(INDEX_CACHE_SIZE + 3)]
    r = _raster((240, 320), seed=5)
    wants = [birdview_transform(r, *g) for g in geometries]
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results = [[] for _ in range(n_threads)]
    errors = []

    def work(slot):
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                for k, g in enumerate(geometries):
                    results[slot].append((k, birdview.birdview_transform(r, *g)))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for slot_results in results:
        assert len(slot_results) == 3 * len(geometries)
        for k, out in slot_results:
            _assert_rasters_equal(out, wants[k])
    assert _nearest_index_map.cache_info().currsize <= INDEX_CACHE_SIZE
