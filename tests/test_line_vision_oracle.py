"""The whole-grid line response pass against the row loop it replaced.

`integral_image` and `line_response_pass` below are the earlier
implementation, kept verbatim as an independent oracle: one Python
iteration per site row, six rectangle sums gathered per iteration. The
vectorized pass evaluates the same int64 box sums and the same score
expression, so its heatmaps must match the oracle's bit for bit.
"""

import numpy as np
import pytest

from fieldkit import line_vision
from fieldkit.birdview import BirdviewSpec
from fieldkit.errors import InputError
from fieldkit.field_model import FieldSpec
from fieldkit.line_vision import (
    HORIZONTAL,
    VERTICAL,
    VisionConfig,
    _width_map_as_array,
    detect_lines,
    rect_sum,
)
from fieldkit.raster import Raster
from fieldkit.synth import Scene, render_birdview


# --- oracle: the row loop, verbatim --------------------------------------------

def integral_image(channel: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: table[y, x] = sum over [0,y) x [0,x)."""
    c = np.asarray(channel, dtype=np.int64)
    out = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(c, axis=0), axis=1, out=out[1:, 1:])
    return out


def line_response_pass(r: Raster, direction: str, width_map, decimation: int,
                       luma_weight: float = 1.0, green_weight: float = 1.0) -> np.ndarray:
    """Three-rectangle sliding-window score: bright middle, dark green sides.

    The middle rectangle width follows the expected line width for the image
    row; the side rectangles are the same size and adjacent. Scores clip at 0.
    """
    if direction not in (HORIZONTAL, VERTICAL):
        raise InputError(f"unknown pass direction {direction!r}")
    h, w = r.luma.shape
    wm = _width_map_as_array(width_map, h)
    it_l = integral_image(r.luma)
    it_g = integral_image(r.green)
    rows = np.arange(0, h, decimation)
    cols = np.arange(0, w, decimation)
    values = np.zeros((len(rows), len(cols)))
    for i, row in enumerate(rows):
        lw = int(wm[row])
        half = lw // 2
        if direction == HORIZONTAL:
            # window slides along x: [left][mid][right], each lw wide, lw tall
            y0, y1 = row - half, row - half + lw
            if y0 < 0 or y1 > h:
                continue
            x_mid0 = cols - half
            x_mid1 = x_mid0 + lw
            x_l0 = x_mid0 - lw
            x_r1 = x_mid1 + lw
            ok = (x_l0 >= 0) & (x_r1 <= w)
            if not ok.any():
                continue
            area = lw * lw
            mid_l = rect_sum(it_l, y0, y1, np.where(ok, x_mid0, 0), np.where(ok, x_mid1, 0))
            side_l = (rect_sum(it_l, y0, y1, np.where(ok, x_l0, 0), np.where(ok, x_mid0, 0))
                      + rect_sum(it_l, y0, y1, np.where(ok, x_mid1, 0), np.where(ok, x_r1, 0)))
            mid_g = rect_sum(it_g, y0, y1, np.where(ok, x_mid0, 0), np.where(ok, x_mid1, 0))
            side_g = (rect_sum(it_g, y0, y1, np.where(ok, x_l0, 0), np.where(ok, x_mid0, 0))
                      + rect_sum(it_g, y0, y1, np.where(ok, x_mid1, 0), np.where(ok, x_r1, 0)))
        else:
            # window slides along y: [above][mid][below] stacked, lw tall, lw wide
            y_mid0 = row - half
            y_mid1 = y_mid0 + lw
            y_a0 = y_mid0 - lw
            y_b1 = y_mid1 + lw
            if y_a0 < 0 or y_b1 > h:
                continue
            x0 = cols - half
            x1 = x0 + lw
            ok = (x0 >= 0) & (x1 <= w)
            if not ok.any():
                continue
            area = lw * lw
            xs0 = np.where(ok, x0, 0)
            xs1 = np.where(ok, x1, 0)
            mid_l = rect_sum(it_l, y_mid0, y_mid1, xs0, xs1)
            side_l = (rect_sum(it_l, y_a0, y_mid0, xs0, xs1)
                      + rect_sum(it_l, y_mid1, y_b1, xs0, xs1))
            mid_g = rect_sum(it_g, y_mid0, y_mid1, xs0, xs1)
            side_g = (rect_sum(it_g, y_a0, y_mid0, xs0, xs1)
                      + rect_sum(it_g, y_mid1, y_b1, xs0, xs1))
        score = (luma_weight * (mid_l / area - side_l / (2 * area))
                 + green_weight * (side_g / (2 * area) - mid_g / area))
        values[i] = np.where(ok, np.maximum(score, 0.0), 0.0)
    return values


# --- bit identity ----------------------------------------------------------------

SIZES = [(480, 640), (240, 320), (37, 53)]
WIDTHS = [1, 2, 4, 5, 30, "linspace"]


def random_raster(shape, seed):
    rng = np.random.default_rng(seed)
    return Raster(rng.integers(0, 256, shape, dtype=np.uint8),
                  rng.integers(0, 256, shape, dtype=np.uint8))


@pytest.mark.parametrize("shape", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_pass_equals_row_loop(shape, width, direction):
    r = random_raster(shape, seed=shape[0] + shape[1])
    tables = (line_vision.integral_image(r.luma), line_vision.integral_image(r.green))
    width_map = np.linspace(2, 9, shape[0]) if width == "linspace" else width
    for decimation in (1, 2, 3, 4):
        for weights in ((1.0, 1.0), (1.3, 0.7)):
            want = line_response_pass(r, direction, width_map, decimation, *weights)
            cfg = VisionConfig(decimation=decimation, luma_weight=weights[0],
                               green_weight=weights[1])
            got = line_vision.line_response_pass(tables, direction, width_map, cfg)
            assert got.shape == want.shape
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (decimation, weights)
            if width == 30 and shape == (37, 53):
                assert not got.any()  # no window fits the raster
            else:
                assert got.any()


def test_unknown_direction_rejected():
    with pytest.raises(InputError):
        r = random_raster((8, 8), 0)
        tables = (line_vision.integral_image(r.luma), line_vision.integral_image(r.green))
        line_vision.line_response_pass(tables, "diagonal", 2, VisionConfig(decimation=1))


def test_integral_image_matches_oracle():
    rng = np.random.default_rng(3)
    for channel in (rng.integers(0, 256, (37, 53), dtype=np.uint8),
                    rng.integers(0, 2, (48, 31)).astype(bool),
                    np.full((480, 640), 255, np.uint8)):
        got = line_vision.integral_image(channel)
        want = integral_image(channel)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_detect_lines_per_row_width_map_matches_row_loop(monkeypatch):
    spec = FieldSpec()
    bspec = BirdviewSpec(out_width=320, out_height=240, meters_per_pixel=0.015,
                         view_center=(0.0, 2.0))
    cfg = VisionConfig(decimation=2, min_length=35.0, max_gap=10.0, hough_votes=8)
    width_px = spec.line_width / bspec.meters_per_pixel
    img = render_birdview(Scene(field=spec, noise_sigma=6.0, seed=2), bspec)
    # wider lines toward the bottom of the image, as a perspective birdview has
    width_map = np.linspace(width_px - 1.5, width_px + 2.5, img.height)
    assert len(np.unique(_width_map_as_array(width_map, img.height))) > 2
    got = detect_lines(img, width_map, cfg)
    # the oracle builds its own integral images from the raster and ignores
    # the tables detect_lines shares between the two passes
    monkeypatch.setattr(line_vision, "line_response_pass",
                        lambda tables, direction, width_map, cfg: line_response_pass(
                            img, direction, width_map, cfg.decimation,
                            cfg.luma_weight, cfg.green_weight))
    want = detect_lines(img, width_map, cfg)
    assert len(want[0]) >= 2 and len(want[1]) >= 1
    assert got == want
