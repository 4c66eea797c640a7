"""Small shared 2D geometry helpers: angle wrapping, undirected-direction
difference, line intersection and the one point-to-segment distance."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = math.fmod(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    elif t > math.pi:
        t -= TWO_PI
    return t


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap into (-pi, pi]."""
    t = np.mod(np.asarray(theta, dtype=float) + math.pi, TWO_PI) - math.pi
    # np.mod puts exact -pi at the low end; the convention is (-pi, pi]
    return np.where(t == -math.pi, math.pi, t)


def axial_diff(a: float, b: float) -> float:
    """Absolute difference between two undirected (mod-pi) directions, in [0, pi/2]."""
    d = abs(math.fmod(a - b, math.pi))
    if d > math.pi / 2:
        d = math.pi - d
    return d


def points_segments_distance(points, starts, ends) -> np.ndarray:
    """Distances from N points to S closed segments [starts, ends], shape (N, S).

    Written as elementwise arithmetic in one fixed order (no BLAS dot
    products), so every caller gets the same bits for the same pair. A
    zero-length segment measures the distance to its start point.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    a = np.asarray(starts, dtype=float).reshape(-1, 2)
    b = np.asarray(ends, dtype=float).reshape(-1, 2)
    px, py = p[:, :1], p[:, 1:]
    ax, ay = a[:, 0], a[:, 1]
    dx = b[:, 0] - ax
    dy = b[:, 1] - ay
    len2 = dx * dx + dy * dy
    safe_len2 = np.where(len2 == 0.0, 1.0, len2)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / safe_len2, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def line_intersection(p0, d0, p1, d1):
    """Intersection of two infinite lines given as point + direction.

    Returns None when the lines are (near-)parallel.
    """
    cross = d0[0] * d1[1] - d0[1] * d1[0]
    if abs(cross) < 1e-12:
        return None
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    t = (dx * d1[1] - dy * d1[0]) / cross
    return (p0[0] + t * d0[0], p0[1] + t * d0[1])
