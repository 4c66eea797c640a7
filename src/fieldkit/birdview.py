"""Camera geometry: pinhole + radial distortion, the top-down "birdview"
resampling, wide-angle emulation by synthetic distortion, and the
procedural field-of-view mask.

Conventions: camera frame is the usual computer-vision one (x right,
y down, z forward / optical axis). At zero roll/pitch/yaw the camera looks
along field +x with image up toward field +z; positive pitch tilts the
view downward. Pixel centers sit at integer coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, HorizonRay, InputError
from .raster import Raster

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
        if self.fx <= 0 or self.fy <= 0:
            raise InputError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InputError("principal point must lie inside the image")
        r_need = self._corner_radius_undistorted()
        if r_need is None:
            raise InputError("radial distortion not invertible over the image")
        # r'(r) = r (1 + k1 r^2 + k2 r^4) must be strictly increasing on the
        # radius range the image actually uses
        r = np.linspace(0.0, r_need * 1.001, 512)
        slope = 1.0 + 3.0 * self.k1 * r**2 + 5.0 * self.k2 * r**4
        if np.any(slope <= 0.0):
            raise InputError(
                f"distortion r'(r) not monotone up to r={r_need:.3f} (k1={self.k1}, k2={self.k2})")

    def _corner_radius_undistorted(self):
        """Undistorted normalized radius needed to cover the image corners."""
        corners = np.array([
            [0.0, 0.0], [self.width - 1.0, 0.0],
            [0.0, self.height - 1.0], [self.width - 1.0, self.height - 1.0],
        ])
        xd = (corners[:, 0] - self.cx) / self.fx
        yd = (corners[:, 1] - self.cy) / self.fy
        rd = float(np.hypot(xd, yd).max())
        if self.k1 == 0.0 and self.k2 == 0.0:
            return rd
        r = rd
        for _ in range(100):
            f = 1.0 + self.k1 * r * r + self.k2 * r**4
            if f <= 0.0 or not math.isfinite(f):
                return None
            r_new = rd / f
            if abs(r_new - r) < 1e-12:
                return r_new
            r = r_new
        return r if math.isfinite(r) else None

    def distort_factor(self, r2):
        return 1.0 + self.k1 * r2 + self.k2 * r2 * r2


@dataclass(frozen=True)
class CameraExtrinsics:
    """Camera position (field frame, meters) and roll/pitch/yaw (radians)."""

    position: tuple[float, float, float]
    rpy: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "rpy", tuple(float(v) for v in self.rpy))
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
        if self.out_width <= 0 or self.out_height <= 0:
            raise InputError("output dimensions must be positive")
        if self.meters_per_pixel <= 0:
            raise InputError("meters_per_pixel must be positive")

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


def project(p, ex: CameraExtrinsics, intr: CameraIntrinsics) -> tuple[float, float]:
    """Project one 3D field point to pixel coordinates.

    Raises BehindCamera when the point is not in front of the image plane.
    """
    pts = np.asarray(p, dtype=float).reshape(1, 3)
    u, v, valid = _project_arrays(pts, ex, intr)
    if not valid[0]:
        raise BehindCamera(f"point {tuple(p)} behind camera")
    return (float(u[0]), float(v[0]))


def _undistort_normalized(xd, yd, intr: CameraIntrinsics, iterations: int = 20, tol: float = 1e-8):
    """Invert the radial model by fixed-point iteration (vectorized)."""
    if intr.k1 == 0.0 and intr.k2 == 0.0:
        return xd, yd
    xn = np.array(xd, dtype=float, copy=True)
    yn = np.array(yd, dtype=float, copy=True)
    for _ in range(iterations):
        r2 = xn * xn + yn * yn
        f = 1.0 + intr.k1 * r2 + intr.k2 * r2 * r2
        x_new = xd / f
        y_new = yd / f
        if np.max(np.abs(x_new - xn)) < tol and np.max(np.abs(y_new - yn)) < tol:
            xn, yn = x_new, y_new
            break
        xn, yn = x_new, y_new
    return xn, yn


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
    if d[2] >= -1e-12:
        raise HorizonRay(f"pixel {tuple(px)} ray does not reach the ground")
    t = -ex.position[2] / d[2]
    return (ex.position[0] + t * d[0], ex.position[1] + t * d[1])


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


def fov_mask(intr: CameraIntrinsics, fov_limit: float) -> np.ndarray:
    """Binary mask (uint8 255/0): pixels whose ray angle stays within fov_limit.

    The angle is measured from the optical axis after undistortion.
    """
    if fov_limit < 0:
        raise InputError("fov_limit must be non-negative")
    corner = intr._corner_radius_undistorted()
    full_fov = 2.0 * math.atan(corner)
    if fov_limit > full_fov + 1e-9:
        raise InputError(
            f"fov_limit {math.degrees(fov_limit):.1f} deg exceeds the rectilinear "
            f"FoV {math.degrees(full_fov):.1f} deg")
    rows, cols = np.mgrid[0:intr.height, 0:intr.width]
    xd = (cols.ravel() - intr.cx) / intr.fx
    yd = (rows.ravel() - intr.cy) / intr.fy
    xn, yn = _undistort_normalized(xd, yd, intr)
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
