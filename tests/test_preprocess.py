"""Bilateral prefilter vs a per-pixel reference implementation."""
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from svstream.preprocess import BilateralParams, bilateral_filter, filter_sequence
from svstream.rng import SplitMix64


def _reference_bilateral(frame, params):
    """Direct per-pixel evaluation in the same dy-major accumulation order."""
    h, w = frame.shape[:2]
    r = params.radius
    inv_s = 1.0 / (2.0 * params.sigma_spatial * params.sigma_spatial)
    inv_r = 1.0 / (2.0 * params.sigma_range * params.sigma_range)
    src = frame.astype(np.int32)
    srcf = frame.astype(np.float64)
    out = np.zeros_like(frame)
    for y in range(h):
        for x in range(w):
            num = np.zeros(3)
            den = 0.0
            for dy in range(-r, r + 1):
                ny = y + dy
                if not 0 <= ny < h:
                    continue
                for dx in range(-r, r + 1):
                    nx = x + dx
                    if not 0 <= nx < w:
                        continue
                    d = src[y, x] - src[ny, nx]
                    d2 = int(d[0]) ** 2 + int(d[1]) ** 2 + int(d[2]) ** 2
                    wgt = math.exp(-(dx * dx + dy * dy) * inv_s) * \
                        math.exp(-d2 * inv_r)
                    num += wgt * srcf[ny, nx]
                    den += wgt
            out[y, x] = np.clip(np.floor(num / den + 0.5), 0, 255)
    return out


def _rand_frame(seed, h, w):
    r = SplitMix64(seed)
    return np.array([r.next_below(256) for _ in range(h * w * 3)],
                    dtype=np.uint8).reshape(h, w, 3)


def test_bilateral_matches_reference_exactly():
    frame = _rand_frame(31, 9, 8)
    params = BilateralParams(sigma_spatial=1.7, sigma_range=30.0, radius=3)
    assert np.array_equal(bilateral_filter(frame, params),
                          _reference_bilateral(frame, params))


def test_bilateral_constant_image_fixed_point():
    frame = np.full((6, 6, 3), 137, dtype=np.uint8)
    out = bilateral_filter(frame, BilateralParams())
    assert np.array_equal(out, frame)


def test_bilateral_preserves_strong_edge():
    frame = np.zeros((8, 8, 3), dtype=np.uint8)
    frame[:, 4:] = 200
    out = bilateral_filter(frame, BilateralParams(sigma_spatial=2.0,
                                                  sigma_range=10.0, radius=2))
    # a step of 200 is far outside sigma_range 10, so it must survive
    assert out[:, :4].max() <= 5
    assert out[:, 4:].min() >= 195


@pytest.mark.parametrize("h, w", [(7, 11), (12, 5), (1, 9)])
def test_radius_past_the_frame_is_clamped(h, w):
    frame = _rand_frame(h * 100 + w, h, w)
    clamped = BilateralParams(sigma_spatial=4.0, sigma_range=30.0, radius=max(h, w) - 1)
    huge = BilateralParams(sigma_spatial=4.0, sigma_range=30.0, radius=10**6)
    assert np.array_equal(bilateral_filter(frame, huge), bilateral_filter(frame, clamped))


@pytest.mark.parametrize("h, w", [(4, 3), (1, 1)])
def test_radius_past_the_frame_matches_reference(h, w):
    # the reference visits every offset of the full window, in frame or not
    frame = _rand_frame(5, h, w)
    params = BilateralParams(sigma_spatial=4.0, sigma_range=30.0, radius=6)
    assert np.array_equal(bilateral_filter(frame, params),
                          _reference_bilateral(frame, params))


def test_bilateral_param_validation():
    with pytest.raises(ValueError):
        BilateralParams(sigma_spatial=0.0)
    with pytest.raises(ValueError):
        BilateralParams(sigma_range=-1.0)
    with pytest.raises(ValueError):
        BilateralParams(radius=0)
    with pytest.raises(ValueError):
        bilateral_filter(np.zeros((4, 4), dtype=np.uint8), BilateralParams())


def test_filter_sequence_pool_is_bit_identical():
    seq = np.stack([_rand_frame(s, 7, 7) for s in range(4)])
    params = BilateralParams(sigma_spatial=2.0, sigma_range=20.0, radius=2)
    serial = filter_sequence(seq, params)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = filter_sequence(seq, params, pool.map)
    assert np.array_equal(serial, threaded)
    assert serial.shape == seq.shape
