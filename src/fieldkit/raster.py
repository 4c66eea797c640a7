"""Two-channel raster (luma + greenness) and binary PGM/PPM image I/O."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Raster:
    """Row-major image with a luma and a greenness channel, 8 bits each.

    Greenness measures how much the source pixel's green component exceeds
    the red/blue average; it is zero on white, gray and black content.
    """

    luma: np.ndarray
    green: np.ndarray

    def __post_init__(self):
        if self.luma.ndim != 2 or self.luma.shape != self.green.shape:
            raise InputError("luma and green channels must be 2D with equal shapes")
        if self.luma.shape[0] < 1 or self.luma.shape[1] < 1:
            raise InputError("raster dimensions must be positive")
        if self.luma.dtype != np.uint8 or self.green.dtype != np.uint8:
            raise InputError("raster channels must be uint8")

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def width(self) -> int:
        return self.luma.shape[1]

    @classmethod
    def from_rgb(cls, rgb: np.ndarray) -> "Raster":
        rgb = np.asarray(rgb)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise InputError("expected an (H, W, 3) array")
        r = rgb[:, :, 0].astype(np.int32)
        g = rgb[:, :, 1].astype(np.int32)
        b = rgb[:, :, 2].astype(np.int32)
        luma = np.clip(np.rint(0.299 * r + 0.587 * g + 0.114 * b), 0, 255)
        green = np.clip(g - (r + b) // 2, 0, 255)
        return cls(luma.astype(np.uint8), green.astype(np.uint8))

    @classmethod
    def from_gray(cls, gray: np.ndarray) -> "Raster":
        gray = np.asarray(gray, dtype=np.uint8)
        return cls(gray, np.zeros_like(gray))

    def to_rgb(self) -> np.ndarray:
        """Approximate RGB for overlays: luma gray plus the green excess."""
        l = self.luma.astype(np.int32)
        g = np.clip(l + self.green.astype(np.int32), 0, 255)
        return np.stack([self.luma, g.astype(np.uint8), self.luma], axis=2)


def add_noise(raster: Raster, sigma: float, rng: np.random.Generator) -> Raster:
    """Additive Gaussian pixel noise, clipped to the 8-bit range."""
    if sigma <= 0:
        return raster

    def noisy(channel):
        v = channel.astype(np.float64) + rng.normal(0.0, sigma, channel.shape)
        return np.clip(np.rint(v), 0, 255).astype(np.uint8)

    return Raster(noisy(raster.luma), noisy(raster.green))


def _read_pnm_header(data: bytes, offset: int, count: int):
    """Read `count` whitespace-separated ASCII tokens, skipping # comments."""
    tokens = []
    i = offset
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise InputError("truncated PNM header")
        tokens.append(data[start:i])
    return tokens, i + 1  # skip the single whitespace after the last token


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file.

    Returns (H, W) uint8 for PGM, (H, W, 3) uint8 for PPM.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise InputError(f"no such image: {path}") from exc
    if data[:2] == b"P5":
        channels = 1
    elif data[:2] == b"P6":
        channels = 3
    else:
        raise InputError(f"unsupported PNM magic {data[:2]!r} in {path}")
    tokens, body = _read_pnm_header(data, 2, 3)
    if not all(t.isdigit() and int(t) > 0 for t in tokens):
        raise InputError(f"PNM width, height and maxval must be positive integers in {path}")
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise InputError("only maxval 255 PNM files are supported")
    n = w * h * channels
    pixels = np.frombuffer(data[body : body + n], dtype=np.uint8)
    if pixels.size != n:
        raise InputError(f"truncated PNM payload in {path}")
    if channels == 1:
        return pixels.reshape(h, w).copy()
    return pixels.reshape(h, w, 3).copy()


def read_raster(path) -> Raster:
    arr = read_pnm(path)
    if arr.ndim == 2:
        return Raster.from_gray(arr)
    return Raster.from_rgb(arr)


def write_pgm(path, gray: np.ndarray) -> None:
    gray = np.asarray(gray, dtype=np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(gray.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(rgb.tobytes())
