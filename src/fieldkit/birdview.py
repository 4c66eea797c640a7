"""Camera geometry: pinhole + radial distortion, the top-down "birdview"
resampling, wide-angle emulation by synthetic distortion, and the
procedural field-of-view mask.

Conventions: camera frame is the usual computer-vision one (x right,
y down, z forward / optical axis). At zero roll/pitch/yaw the camera looks
along field +x with image up toward field +z; positive pitch tilts the
view downward. Pixel centers sit at integer coordinates.

Nearest-neighbour birdviews read through an index map: one flat source
pixel index per output pixel, a pure function of the extrinsics, the
intrinsics, the birdview spec and the source shape. A least-recently-used
cache keeps the last INDEX_CACHE_SIZE maps (read-only int32, 4 bytes per
output pixel), so a camera fixed on the body pays the projection once and
then one gather per channel each frame. A miss projects only the pixels of
each birdview row whose ground points can land in the source image, so its
cost scales with the camera's ground footprint, not with the output size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlgorithmError, BehindCamera, HorizonRay, InputError, check_fields
from .raster import Raster

# index maps kept by _nearest_index_map, 1.2 MB each at the default
# 640x480 birdview: a fixed camera plus one other geometry. On a moving head
# every map is a miss, and more held maps raised peak memory there.
INDEX_CACHE_SIZE = 2

# camera axes in the field frame at zero roll/pitch/yaw (columns: x, y, z)
_M0 = np.array([
    [0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
])


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self):
        check_fields(self, "intrinsics", (
            (("fx", "fy"), lambda v: 0 < v < math.inf, "positive and finite"),
            (("k1", "k2"), math.isfinite, "finite"),
        ))
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InputError("principal point must lie inside the image")
        # r f(r) increases up to the fold, so the fold lies beyond 1.001 times the
        # corner's undistorted radius when r f(r) at r_fold / 1.001 passes the corner
        r = math.sqrt(_fold_radius_sq(self)) / 1.001
        if r < math.inf and not self._corner_radius_distorted() < r * _radial_factor(self, r * r):
            raise InputError(f"distortion r f(r) folds at r={1.001 * r:.3f}, before 1.001 times "
                             f"the image corner's radius (k1={self.k1}, k2={self.k2})")

    def _corner_radius_distorted(self) -> float:
        """Distorted normalized radius of the corner farthest from the principal point."""
        return math.hypot(max(self.cx, self.width - 1.0 - self.cx) / self.fx,
                          max(self.cy, self.height - 1.0 - self.cy) / self.fy)


@dataclass(frozen=True)
class CameraExtrinsics:
    """Camera position (field frame, meters) and roll/pitch/yaw (radians)."""

    position: tuple[float, float, float]
    rpy: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "rpy", tuple(float(v) for v in self.rpy))
        check_fields(self, "extrinsics", ((("position", "rpy"),
                                           lambda p: len(p) == 3 and all(map(math.isfinite, p)),
                                           "three finite values"),))
        if self.position[2] <= 0:
            raise InputError("camera must sit above the field plane")

    def rotation_world_from_camera(self) -> np.ndarray:
        roll, pitch, yaw = self.rpy
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        return rz @ ry @ rx @ _M0


@dataclass(frozen=True)
class BirdviewSpec:
    """Virtual top-down view: output size, scale, view center and yaw."""

    out_width: int = 640
    out_height: int = 480
    meters_per_pixel: float = 0.01
    view_center: tuple[float, float] = (0.0, 0.0)
    view_yaw: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "view_center", tuple(float(v) for v in self.view_center))
        check_fields(self, "birdview", (
            (("out_width", "out_height"), lambda v: v > 0, "positive"),
            (("meters_per_pixel",), lambda v: 0 < v < math.inf, "positive and finite"),
            (("view_center",), lambda p: len(p) == 2 and all(map(math.isfinite, p)),
             "two finite values"),
            (("view_yaw",), math.isfinite, "finite"),
        ))

    def pixel_to_field(self, col, row):
        """Field coordinates of birdview pixel centers (vectorized)."""
        col = np.asarray(col, dtype=float)
        row = np.asarray(row, dtype=float)
        lu = (col + 0.5 - self.out_width / 2.0) * self.meters_per_pixel
        lv = (self.out_height / 2.0 - row - 0.5) * self.meters_per_pixel
        c, s = math.cos(self.view_yaw), math.sin(self.view_yaw)
        return (self.view_center[0] + c * lu - s * lv,
                self.view_center[1] + s * lu + c * lv)

    def field_to_pixel(self, x, y):
        """Inverse of pixel_to_field (continuous pixel coordinates)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = x - self.view_center[0]
        dy = y - self.view_center[1]
        c, s = math.cos(self.view_yaw), math.sin(self.view_yaw)
        lu = c * dx + s * dy
        lv = -s * dx + c * dy
        col = lu / self.meters_per_pixel + self.out_width / 2.0 - 0.5
        row = self.out_height / 2.0 - 0.5 - lv / self.meters_per_pixel
        return col, row


def _fold_radius_sq(intr: CameraIntrinsics) -> float:
    """Squared undistorted radius s where r f(r) stops increasing, inf for a
    lens where it never does.

    (r f(r))' = 1 + 3 k1 s + 5 k2 s^2 first reaches 0 at its least positive
    root, 2 / (sqrt(9 k1^2 - 20 k2) - 3 k1); there is one when k2 < 0, or
    when k1 < 0 and the discriminant is positive.
    """
    k1, k2 = intr.k1, intr.k2
    disc = 9.0 * k1 * k1 - 20.0 * k2
    if k2 < 0.0 or (k1 < 0.0 and disc > 0.0):
        return 2.0 / (math.sqrt(disc) - 3.0 * k1)
    return math.inf


def _radial_factor(intr: CameraIntrinsics, s):
    """f(s) = 1 + k1 s + k2 s^2, the distorted radius over the undistorted one
    at squared undistorted radius s (one value or an array)."""
    return 1.0 + intr.k1 * s + intr.k2 * s * s


def _undistorted_radius(rd, intr: CameraIntrinsics) -> np.ndarray:
    """The undistorted radius r in [0, fold) with r f(r^2) = rd, elementwise
    for one radius or an array; nan where rd is at or past the peak of
    r f(r), which no ray reaches.

    r f(r^2) increases on [0, fold), and f >= 4/9 there for every k1, k2, so
    the root lies in [0, min(fold, 9/4 rd)]. Newton steps keep to that
    bracket: a step that would leave it, or would not halve the move before
    last, is replaced by bisection, so Newton cannot bounce between the ends
    of a bracket that hardly shrinks (rtsafe, Press et al., Numerical
    Recipes, section 9.4).
    """
    rd = np.asarray(rd, dtype=float)
    s_fold = _fold_radius_sq(intr)
    if s_fold < math.inf:
        rd = np.where(rd < math.sqrt(s_fold) * _radial_factor(intr, s_fold), rd, math.nan)
    lo = np.zeros_like(rd)
    hi = np.minimum(2.25 * rd, math.sqrt(s_fold))
    r = np.where(rd < hi, rd, 0.5 * hi)  # in the bracket, off the fold's zero slope
    last = before = hi  # sizes of the last two moves, the bracket's to begin with
    for _ in range(100):
        s = r * r
        g = r * _radial_factor(intr, s) - rd
        lo = np.where(g < 0.0, r, lo)
        hi = np.where(g > 0.0, r, hi)
        step = g / (1.0 + 3.0 * intr.k1 * s + 5.0 * intr.k2 * s * s)
        newton = r - step
        take = (lo < newton) & (newton < hi) & (np.abs(step) <= 0.5 * before)
        r_next = np.where(take, newton, 0.5 * (lo + hi))
        before, last = last, np.abs(r_next - r)
        if not (last > 1e-12).any():  # nan radii are done
            return r_next
        r = r_next
    raise AlgorithmError(f"lens inversion did not converge (k1={intr.k1}, k2={intr.k2})")


def _project_arrays(pts: np.ndarray, ex: CameraExtrinsics, intr: CameraIntrinsics):
    """Project (N, 3) field points; returns (u, v, valid) with valid=False
    behind the camera or, on a lens whose r f(r) folds back, past the fold."""
    r_cw = ex.rotation_world_from_camera().T
    cam = (pts - np.asarray(ex.position)) @ r_cw.T
    valid = cam[:, 2] > 1e-12
    z = np.where(valid, cam[:, 2], 1.0)
    xn = cam[:, 0] / z
    yn = cam[:, 1] / z
    r2 = xn * xn + yn * yn
    s_fold = _fold_radius_sq(intr)
    if s_fold < math.inf:
        # past the fold, rays far outside the image would land back in it
        valid &= r2 < s_fold
    f = _radial_factor(intr, r2)
    u = intr.fx * (xn * f) + intr.cx
    v = intr.fy * (yn * f) + intr.cy
    return u, v, valid


def project(p, ex: CameraExtrinsics, intr: CameraIntrinsics) -> tuple[float, float]:
    """Project one 3D field point to pixel coordinates.

    Raises BehindCamera when the point is not in front of the image plane,
    or lies past the fold of a lens whose r f(r) turns back.
    """
    pts = np.asarray(p, dtype=float).reshape(1, 3)
    u, v, valid = _project_arrays(pts, ex, intr)
    if not valid[0]:
        raise BehindCamera(f"point {tuple(p)} behind camera or past the lens fold")
    return (float(u[0]), float(v[0]))


def _undistort_normalized(xd, yd, intr: CameraIntrinsics):
    """Undistorted normalized coordinates of distorted ones (vectorized)."""
    if intr.k1 == 0.0 and intr.k2 == 0.0:
        return xd, yd
    r = _undistorted_radius(np.hypot(xd, yd), intr)
    f = _radial_factor(intr, r * r)
    return xd / f, yd / f


def _pixel_grid_normalized(intr: CameraIntrinsics):
    """Undistorted normalized coordinates (xn, yn) of every pixel center, row-major."""
    rows, cols = np.mgrid[0:intr.height, 0:intr.width]
    xd = (cols.ravel() - intr.cx) / intr.fx
    yd = (rows.ravel() - intr.cy) / intr.fy
    return _undistort_normalized(xd, yd, intr)


def unproject_to_ground(px, ex: CameraExtrinsics, intr: CameraIntrinsics) -> tuple[float, float]:
    """Back-project a pixel onto the z=0 field plane.

    Raises HorizonRay when the pixel ray does not descend toward the ground.
    """
    xd = (px[0] - intr.cx) / intr.fx
    yd = (px[1] - intr.cy) / intr.fy
    xn, yn = _undistort_normalized(np.float64(xd), np.float64(yd), intr)
    ray_cam = np.array([float(xn), float(yn), 1.0])
    r_wc = ex.rotation_world_from_camera()
    d = r_wc @ ray_cam
    if not d[2] < -1e-12:  # nan past the lens's peak
        raise HorizonRay(f"pixel {tuple(px)} ray does not reach the ground")
    t = -ex.position[2] / d[2]
    return (ex.position[0] + t * d[0], ex.position[1] + t * d[1])


def _nearest_index(u, v, valid, src_shape) -> np.ndarray:
    """Flat index of each point's nearest source pixel, as int32; points off
    the image get h*w, one past the last pixel.

    Rounds and masks once, and casts only the in-image indices, so far-off
    or non-finite coordinates never reach the cast.
    """
    h, w = src_shape
    ur = np.rint(u)
    vr = np.rint(v)
    ok = valid & (ur >= 0) & (ur < w) & (vr >= 0) & (vr < h)
    index = np.full(u.shape, h * w, dtype=np.int32)
    index[ok] = (vr[ok] * w + ur[ok]).astype(np.int32)
    return index


def _gather_nearest(r: Raster, index: np.ndarray) -> Raster:
    """Both channels read through a flat index map; index h*w reads 0.

    np.take returns a new array, so the output never aliases the index map,
    and it gathers faster than fancy indexing with the same result.
    """
    def gather(channel):
        return np.take(np.concatenate([channel.ravel(), np.zeros(1, channel.dtype)]), index)

    return Raster(gather(r.luma), gather(r.green))


def _sample_bilinear(channel: np.ndarray, u, v, valid):
    h, w = channel.shape
    ok = valid & (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    u0 = np.floor(uc).astype(np.int64)
    v0 = np.floor(vc).astype(np.int64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = uc - u0
    fv = vc - v0
    c = channel.astype(np.float64)
    val = (c[v0, u0] * (1 - fu) * (1 - fv) + c[v0, u1] * fu * (1 - fv)
           + c[v1, u0] * (1 - fu) * fv + c[v1, u1] * fu * fv)
    out = np.zeros(u.shape, dtype=channel.dtype)
    out[ok] = np.rint(val[ok]).astype(channel.dtype)
    return out


@functools.lru_cache(maxsize=INDEX_CACHE_SIZE)
def _ray_slopes(intr: CameraIntrinsics, src_shape: tuple[int, int]) -> tuple[float, float]:
    """Half-slopes (X, Y) of the pyramid |x| <= X z, |y| <= Y z in camera
    coordinates that holds every ray whose projection rounds into a source
    image of src_shape.

    Cached, as a moving head misses the index map every frame but keeps its lens.

    The image's half-pixel edges bound the distorted coordinates; the
    undistorted ones are larger by at most 1 / min f(r) over the radii up to
    the corner's, where f(r) = 1 + k1 r^2 + k2 r^4. That bound holds because
    r f(r) increases up to the fold radius and _project_arrays rejects the
    rays past it.
    """
    h, w = src_shape
    xd = (max(intr.cx, w - 1.0 - intr.cx) + 0.5) / intr.fx
    yd = (max(intr.cy, h - 1.0 - intr.cy) + 0.5) / intr.fy
    k1, k2 = intr.k1, intr.k2
    # the corner's undistorted radius, or the fold's when r f(r) never reaches it
    r = float(_undistorted_radius(math.hypot(xd, yd), intr))
    s_max = _fold_radius_sq(intr) if math.isnan(r) else r * r
    # f is quadratic in s = r^2: its least value on [0, s_max] is at an end or the vertex
    vertex = min(max(-k1 / (2.0 * k2), 0.0), s_max) if k2 > 0.0 else 0.0
    # with a relative slack for rounding, far below a pixel
    scale = (1.0 + 1e-6) / min(1.0, _radial_factor(intr, s_max), _radial_factor(intr, vertex))
    return xd * scale, yd * scale


def _footprint_spans(ex: CameraExtrinsics, intr: CameraIntrinsics, spec: BirdviewSpec,
                     src_shape: tuple[int, int]):
    """Per birdview row, the first column and the column count of the span
    whose ground points can round into a source image of src_shape.

    Along a row, camera coordinates are affine in the column, cam = a + c b,
    so each face of _ray_slopes' pyramid bounds c on one side. Each span is
    widened by one pixel.
    """
    height, width = spec.out_height, spec.out_width
    slope_x, slope_y = _ray_slopes(intr, src_shape)
    r_cw = ex.rotation_world_from_camera().T
    gx, gy = spec.pixel_to_field(0.0, np.arange(height))
    a = np.column_stack([gx - ex.position[0], gy - ex.position[1],
                         np.full(height, -ex.position[2])]) @ r_cw.T
    m = spec.meters_per_pixel
    b = r_cw @ np.array([m * math.cos(spec.view_yaw), m * math.sin(spec.view_yaw), 0.0])
    lo = np.full(height, -math.inf)
    hi = np.full(height, math.inf)
    for axis, slope in ((0, slope_x), (1, slope_y)):
        for sign in (1.0, -1.0):
            # sign * cam[axis] - slope * cam[2] <= 0
            ak = sign * a[:, axis] - slope * a[:, 2]
            bk = sign * b[axis] - slope * b[2]
            if bk > 0.0:
                hi = np.minimum(hi, -ak / bk)
            elif bk < 0.0:
                lo = np.maximum(lo, -ak / bk)
            else:
                hi = np.where(ak <= 0.0, hi, -math.inf)
    first = np.clip(np.ceil(lo) - 1.0, 0, width)
    last = np.clip(np.floor(hi) + 1.0, -1, width - 1)
    return first.astype(np.int64), np.maximum(last - first + 1.0, 0).astype(np.int64)


def _birdview_projection(ex: CameraExtrinsics, intr: CameraIntrinsics, spec: BirdviewSpec,
                         src_shape: tuple[int, int]):
    """Project the field point under each birdview pixel center that can
    land in a source image of src_shape: returns (pixels, (u, v, valid)),
    with pixels the flat row-major birdview indices and the rest as from
    _project_arrays. Every other pixel sees nothing of the source."""
    first, count = _footprint_spans(ex, intr, spec, src_shape)
    rows = np.repeat(np.arange(spec.out_height), count)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(count) - count - first, count)
    fx, fy = spec.pixel_to_field(cols, rows)
    pts = np.empty((fx.size, 3))
    pts[:, 0] = fx
    pts[:, 1] = fy
    pts[:, 2] = 0.0
    return rows * spec.out_width + cols, _project_arrays(pts, ex, intr)


@functools.lru_cache(maxsize=INDEX_CACHE_SIZE)
def _nearest_index_map(ex: CameraExtrinsics, intr: CameraIntrinsics, spec: BirdviewSpec,
                       src_shape: tuple[int, int]) -> np.ndarray:
    """Read-only (out_height, out_width) int32 map from birdview pixel to the
    flat index of its nearest source pixel, h*w where it sees nothing.

    A pure function of the geometry and the source shape, so it is cached:
    every caller shares the one array, which is why it is not writeable.
    """
    pixels, (u, v, valid) = _birdview_projection(ex, intr, spec, src_shape)
    index = np.full(spec.out_height * spec.out_width, src_shape[0] * src_shape[1], np.int32)
    index[pixels] = _nearest_index(u, v, valid, src_shape)
    index = index.reshape(spec.out_height, spec.out_width)
    index.flags.writeable = False
    return index


def birdview_transform(r: Raster, ex: CameraExtrinsics, intr: CameraIntrinsics,
                       spec: BirdviewSpec, bilinear: bool = False) -> Raster:
    """Resample the camera image into a virtual top-down view of the ground.

    Each output pixel is a known field point; it is filled by projecting that
    point into the source image, so no intermediate rectified image is ever
    materialized. Only the points inside the camera's ground footprint are
    projected, so the work scales with that footprint, not with the output
    size. Nearest sampling reads through the cached index map of this geometry.
    """
    if not bilinear:
        return _gather_nearest(r, _nearest_index_map(ex, intr, spec, r.luma.shape))
    pixels, (u, v, valid) = _birdview_projection(ex, intr, spec, r.luma.shape)

    def sample(channel):
        out = np.zeros(spec.out_height * spec.out_width, channel.dtype)
        out[pixels] = _sample_bilinear(channel, u, v, valid)
        return out.reshape(spec.out_height, spec.out_width)

    return Raster(sample(r.luma), sample(r.green))


def emulate_wide_angle(r: Raster, intr: CameraIntrinsics, k1: float, k2: float) -> Raster:
    """Apply forward radial distortion to a rectilinear render by inverse sampling.

    Regions with no source data stay black; fov_mask covers them downstream.
    """
    if r.height != intr.height or r.width != intr.width:
        raise InputError("raster size must match the intrinsics")
    xn, yn = _pixel_grid_normalized(replace(intr, k1=k1, k2=k2))
    u = intr.fx * xn + intr.cx
    v = intr.fy * yn + intr.cy
    index = _nearest_index(u, v, True, r.luma.shape).reshape(r.luma.shape)
    return _gather_nearest(r, index)


def fov_mask(intr: CameraIntrinsics, fov_limit: float) -> np.ndarray:
    """Binary mask (uint8 255/0): pixels whose ray angle stays within fov_limit.

    The angle is measured from the optical axis after undistortion.
    """
    if fov_limit < 0:
        raise InputError("fov_limit must be non-negative")
    corner = float(_undistorted_radius(intr._corner_radius_distorted(), intr))
    full_fov = 2.0 * math.atan(corner)
    if fov_limit > full_fov + 1e-9:
        raise InputError(
            f"fov_limit {math.degrees(fov_limit):.1f} deg exceeds the rectilinear "
            f"FoV {math.degrees(full_fov):.1f} deg")
    xn, yn = _pixel_grid_normalized(intr)
    angle = np.arctan(np.hypot(xn, yn))
    mask = (angle <= fov_limit / 2.0 + 1e-12).astype(np.uint8) * 255
    return mask.reshape(intr.height, intr.width)


def apply_mask(r: Raster, mask: np.ndarray) -> Raster:
    """Black out raster pixels wherever the mask is zero."""
    if mask.shape != r.luma.shape:
        raise InputError("mask shape must match the raster")
    keep = mask > 0
    return Raster(np.where(keep, r.luma, 0).astype(np.uint8),
                  np.where(keep, r.green, 0).astype(np.uint8))
