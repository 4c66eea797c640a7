"""Small shared geometry helpers: angle wrapping, undirected-direction
difference, line intersection, the one point-to-segment distance and the
one union-find, connected_components."""

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
    """Vectorized wrap into (-pi, pi], always as a float array (0-d for a scalar).

    When every |theta| < 3 pi, t = theta + pi lies in (-2 pi, 4 pi) and one
    shift by 2 pi, in place, gives what np.mod(t, 2 pi) gives: fmod is exact
    there, and t - 2 pi is exact by Sterbenz's lemma. Other inputs, NaN and
    infinities among them, take np.mod.
    """
    x = np.asarray(theta, dtype=float)
    if x.size and -3.0 * math.pi < x.min() and x.max() < 3.0 * math.pi:
        t = np.add(x, math.pi, out=np.empty_like(x))
        np.subtract(t, TWO_PI, out=t, where=t >= TWO_PI)
        np.add(t, TWO_PI, out=t, where=t < 0.0)
        t -= math.pi
    else:
        t = np.asarray(np.mod(x + math.pi, TWO_PI) - math.pi)
    # np.mod puts exact -pi at the low end; the convention is (-pi, pi]
    np.copyto(t, math.pi, where=t == -math.pi)
    return t


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
    return segment_distance(p[:, :1], p[:, 1:], *segment_terms(starts, ends))


def segment_terms(starts, ends) -> tuple:
    """S closed segments [starts, ends] as the (S,) arrays ax, ay, dx, dy and
    safe_len2 that segment_distance reads: start, end minus start, and the
    squared length, 1 for a zero-length segment."""
    a = np.asarray(starts, dtype=float).reshape(-1, 2)
    b = np.asarray(ends, dtype=float).reshape(-1, 2)
    ax, ay = a[:, 0], a[:, 1]
    dx = b[:, 0] - ax
    dy = b[:, 1] - ay
    len2 = dx * dx + dy * dy
    return ax, ay, dx, dy, np.where(len2 == 0.0, 1.0, len2)


def segment_distance(px, py, ax, ay, dx, dy, safe_len2) -> np.ndarray:
    """Elementwise distance from points (px, py) to the segments of
    segment_terms, on any shapes that broadcast: points_segments_distance's
    arithmetic, so a caller that pairs points and segments itself, say on
    flat contiguous arrays, gets the same bits for the same pair."""
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


def connected_components(n: int, pairs) -> list[list[int]]:
    """Components of the undirected graph on nodes 0..n-1 with edges `pairs`.

    Union-find with path halving (Tarjan 1975). Each component is an
    ascending list, and the components are ordered by their smallest node.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())
