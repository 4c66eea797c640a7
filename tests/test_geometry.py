import math

import numpy as np

from fieldkit.geometry import points_segments_distance


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

