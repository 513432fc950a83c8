"""Edge-preserving bilateral smoothing applied to frames before graph construction."""

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BilateralParams:
    sigma_spatial: float = 3.0
    sigma_range: float = 25.0
    radius: int = 6

    def __post_init__(self):
        if not (self.sigma_spatial > 0 and self.sigma_range > 0):
            raise ValueError("bilateral sigmas must be strictly positive")
        if self.radius < 1:
            raise ValueError("bilateral radius must be >= 1")


# Weight tables are built with scalar math.exp so that a per-pixel reference
# evaluation reproduces the filter bit-exactly (numpy's vectorized exp is not
# ulp-identical to libm).


def _spatial_table(sigma: float, radius: int) -> np.ndarray:
    inv = 1.0 / (2.0 * sigma * sigma)
    size = 2 * radius + 1
    table = np.empty((size, size), dtype=np.float64)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            table[dy + radius, dx + radius] = math.exp(-(dx * dx + dy * dy) * inv)
    return table


@functools.cache
def _range_table(sigma: float) -> np.ndarray:
    inv = 1.0 / (2.0 * sigma * sigma)
    return np.array([math.exp(-d2 * inv) for d2 in range(3 * 255 * 255 + 1)])


def bilateral_filter(frame: np.ndarray, params: BilateralParams) -> np.ndarray:
    """Range-and-space weighted Gaussian average over a (2r+1)^2 window.

    The range kernel uses the joint RGB Euclidean distance to the window
    center, the window is clipped at the borders with weights renormalized,
    and each channel is rounded half-up to an integer in [0, 255].
    """
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError("frame must be (H, W, 3)")
    h, w = frame.shape[:2]
    # an offset past the frame has no in-frame neighbour, so it adds nothing
    r = min(params.radius, max(h, w) - 1)
    # one contiguous plane per channel
    planes = frame.transpose(2, 0, 1)
    src_i = np.ascontiguousarray(planes, dtype=np.int32)
    src_f = np.ascontiguousarray(planes, dtype=np.float64)

    spatial = _spatial_table(params.sigma_spatial, r)
    range_lut = _range_table(params.sigma_range)

    num = np.zeros((3, h, w), dtype=np.float64)
    den = np.zeros((h, w), dtype=np.float64)
    # buffers for the largest window, cut to each offset's window
    d2_buf = np.empty(h * w, dtype=np.int32)
    sq_buf = np.empty(h * w, dtype=np.int32)
    wgt_buf = np.empty(h * w, dtype=np.float64)
    prod_buf = np.empty(h * w, dtype=np.float64)
    for dy in range(-r, r + 1):
        ys0, ys1 = max(0, -dy), min(h, h - dy)      # destination rows
        if ys0 >= ys1:
            continue
        for dx in range(-r, r + 1):
            xs0, xs1 = max(0, -dx), min(w, w - dx)  # destination cols
            if xs0 >= xs1:
                continue
            shape = (ys1 - ys0, xs1 - xs0)
            size = shape[0] * shape[1]
            d2, sq = d2_buf[:size].reshape(shape), sq_buf[:size].reshape(shape)
            wgt, prod = wgt_buf[:size].reshape(shape), prod_buf[:size].reshape(shape)
            for c in range(3):
                diff = sq if c else d2
                np.subtract(src_i[c, ys0:ys1, xs0:xs1],
                            src_i[c, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx], out=diff)
                diff *= diff
                if c:
                    d2 += sq
            np.take(range_lut, d2, out=wgt)
            wgt *= spatial[dy + r, dx + r]
            for c in range(3):
                np.multiply(wgt, src_f[c, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx], out=prod)
                num[c, ys0:ys1, xs0:xs1] += prod
            den[ys0:ys1, xs0:xs1] += wgt
    out = np.floor(num / den + 0.5)
    return np.ascontiguousarray(np.clip(out, 0, 255).astype(np.uint8).transpose(1, 2, 0))


def filter_sequence(seq: np.ndarray, params: BilateralParams, run=map) -> np.ndarray:
    """Filter each frame of a (T, H, W, 3) sequence through run, a map-like callable."""
    return np.stack(list(run(lambda f: bilateral_filter(f, params), seq)))
