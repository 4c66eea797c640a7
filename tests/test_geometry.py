import math
from collections import deque

import numpy as np
import pytest

from fieldkit.geometry import connected_components, normalize_angles, points_segments_distance


def test_shape_is_points_by_segments():
    pts = np.zeros((4, 2))
    starts = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, -4.0]])
    ends = starts + 1.0
    assert points_segments_distance(pts, starts, ends).shape == (4, 3)
    # one point and one segment given as bare pairs
    assert points_segments_distance((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)).shape == (1, 1)
    # one start shared by many ends
    assert points_segments_distance(pts, (0.0, 0.0), ends).shape == (4, 3)


def test_interior_endpoint_and_zero_length_cases():
    d = points_segments_distance([(1.0, 2.0), (-1.0, 0.0), (5.0, 3.0)],
                                 [(0.0, 0.0), (3.0, 3.0)], [(4.0, 0.0), (3.0, 3.0)])
    assert d[0, 0] == 2.0                       # foot inside the segment
    assert d[1, 0] == 1.0                       # clamped to the start
    assert d[2, 0] == math.hypot(1.0, 3.0)      # clamped to the end
    assert d[0, 1] == math.hypot(2.0, 1.0)      # zero-length: distance to the point


def test_batched_and_single_pair_calls_agree_bit_for_bit():
    # the planner's vectorized edge flags and its scalar cost function rely
    # on this: each (point, segment) pair gets the same bits in any batch
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, (30, 2))
    starts = rng.uniform(-5, 5, (20, 2))
    ends = rng.uniform(-5, 5, (20, 2))
    batch = points_segments_distance(pts, starts, ends)
    for i in range(len(pts)):
        for j in range(len(starts)):
            assert points_segments_distance(pts[i], starts[j], ends[j])[0, 0] == batch[i, j]


def _components_by_search(n, pairs):
    """Breadth-first search oracle: components discovered from node 0 upward."""
    adjacent = [set() for _ in range(n)]
    for i, j in pairs:
        adjacent[i].add(j)
        adjacent[j].add(i)
    seen = [False] * n
    components = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue, members = deque([root]), []
        while queue:
            u = queue.popleft()
            members.append(u)
            for v in adjacent[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        components.append(sorted(members))
    return components


@pytest.mark.parametrize("seed", range(12))
def test_connected_components_match_search_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    # sparse to dense, with self-pairs and repeats drawn like any other pair
    m = int(rng.integers(0, 2 * n + 1)) if n else 0
    pairs = [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(m)]
    pairs += pairs[:m // 3]
    got = connected_components(n, pairs)
    assert got == _components_by_search(n, pairs)
    # the order contract: ascending members, components by their smallest node
    assert all(c == sorted(c) for c in got)
    assert [c[0] for c in got] == sorted(c[0] for c in got)
    assert sorted(v for c in got for v in c) == list(range(n))


def test_connected_components_edge_cases():
    assert connected_components(0, []) == []
    assert connected_components(3, []) == [[0], [1], [2]]
    assert connected_components(3, [(1, 1), (2, 2)]) == [[0], [1], [2]]
    # the union direction does not change the grouping or its order
    assert connected_components(5, [(4, 1), (1, 4), (3, 0)]) == [[0, 3], [1, 4], [2]]
    assert connected_components(4, iter([(0, 3), (3, 2), (2, 1)])) == [[0, 1, 2, 3]]


# --- normalize_angles against the np.mod form ---------------------------------

def mod_wrap(theta):
    """The np.mod form normalize_angles shortcuts: wrap into (-pi, pi]."""
    t = np.mod(np.asarray(theta, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(t == -math.pi, math.pi, t)


def _edges():
    values = []
    for v in (math.pi, 2.0 * math.pi, 3.0 * math.pi, 0.0):
        for x in (v, -v):
            values += [x, np.nextafter(x, math.inf), np.nextafter(x, -math.inf)]
    # tiny angles vanish next to pi; just below -pi (the nextafter above),
    # theta + pi is a tiny negative whose shift by 2 pi rounds to 2 pi
    values += [-1e-300, -5e-17, 5e-17, -math.pi - 1e-15, math.pi + 1e-15]
    return values


def assert_same_wrap(theta):
    want = mod_wrap(theta)
    got = normalize_angles(theta)
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("theta", _edges())
def test_wrap_matches_mod_on_edges_and_scalars(theta):
    assert_same_wrap(theta)                 # a Python float
    assert_same_wrap(np.float64(theta))
    assert_same_wrap(np.array(theta))       # 0-d
    assert -math.pi < normalize_angles(theta) <= math.pi


def test_wrap_matches_mod_on_ints_and_shapes():
    for theta in (0, 3, -3, 9, -9, 10, [1, 2], np.arange(-12, 13)):
        assert_same_wrap(theta)
    assert_same_wrap(np.array(_edges()))
    assert_same_wrap(np.array(_edges()).reshape(-1, 1))
    assert_same_wrap(np.empty(0))
    assert_same_wrap(np.empty((0, 3)))
    rng = np.random.default_rng(7)
    for bound in (math.pi, 2.0 * math.pi, 3.0 * math.pi, 20.0):
        assert_same_wrap(rng.uniform(-bound, bound, 100_000))
        assert_same_wrap(rng.uniform(-bound, bound, (400, 32)))
        assert_same_wrap(rng.uniform(-bound, bound, (400, 32))[:, ::3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wrap_of_non_finite_takes_the_mod_path(bad):
    theta = np.array([0.5, bad, -2.0])
    with np.errstate(invalid="ignore"):
        assert_same_wrap(theta)
        assert_same_wrap(bad)
        got = normalize_angles(theta)
    assert np.isnan(got[1]) and got[0] == 0.5 and got[2] == -2.0
