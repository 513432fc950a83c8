"""Optical flow tests: recovery accuracy, conventions, external .flo loading."""

import struct

import numpy as np
import pytest
from scipy import ndimage

from svstream.errors import DataError, FormatError
from svstream.imageops import bilinear_sample
from svstream.optflow import (_HS_KERNEL, FlowParams, _hs_averager, _padded, _pyramid,
                              compute_backward_flow, check_external_flow,
                              external_flow_path, flow_for_sequence, read_external_flows)
from svstream.mediaio import write_flo
from svstream.rng import SplitMix64
from svstream.synth import value_noise

from oracles import oracle_compute_backward_flow


def _textured(seed: int, h: int, w: int) -> np.ndarray:
    gy, gx = np.mgrid[0:h, 0:w]
    n = value_noise(seed, 0, gx.astype(np.float64), gy.astype(np.float64), 6.0)
    return 60.0 + 140.0 * n


def test_recovers_planted_translation():
    h = w = 64
    prev = _textured(3, h, w)
    # backward convention: current(x, y) = previous(x + u, y + v)
    true_u, true_v = 1.3, -0.8
    gy, gx = np.mgrid[0:h, 0:w]
    cur = bilinear_sample(prev, gx + true_u, gy + true_v)
    flow = compute_backward_flow(cur, prev)
    inner = flow[8:-8, 8:-8]
    err_u = np.abs(inner[..., 0] - true_u).mean()
    err_v = np.abs(inner[..., 1] - true_v).mean()
    assert err_u < 0.1 and err_v < 0.1


def test_identical_frames_give_zero_flow():
    frame = _textured(5, 48, 40)
    flow = compute_backward_flow(frame, frame)
    # it = 0 everywhere and the zero field is a fixed point of the update
    assert np.allclose(flow, 0.0, atol=1e-12)


def test_rgb_frames_accepted():
    prev = np.repeat(_textured(7, 32, 32)[..., None], 3, axis=2).astype(np.uint8)
    flow = compute_backward_flow(prev, prev)
    assert flow.shape == (32, 32, 2)
    assert np.allclose(flow, 0.0, atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_backward_flow(np.zeros((8, 8)), np.zeros((8, 9)))


@pytest.mark.parametrize("shape, size", [((1, 8), "8x1"), ((8, 1), "1x8"),
                                         ((1, 1, 3), "1x1")])
def test_one_pixel_wide_frames_rejected(shape, size):
    frame = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ValueError, match=f"at least 2x2 pixels, got {size}"):
        compute_backward_flow(frame, frame)


def _hs_average_of(x: np.ndarray) -> np.ndarray:
    # a NaN frame shows up in the result unless it is refilled first
    pad = _padded(x, np.nan)
    out = np.zeros_like(pad)
    _hs_averager(pad, out)()
    return out[..., 1:-1, 1:-1]


def test_slice_sum_equals_correlate_bit_for_bit():
    rng = np.random.default_rng(5)
    tiny = np.finfo(np.float64).smallest_subnormal
    specials = np.array([0.0, -0.0, tiny, -tiny, 12 * tiny, -6 * tiny,
                         np.finfo(np.float64).tiny, -1e-300, 1.0, -2.5, 1e300])
    shapes = [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (2, 2), (3, 5), (7, 4), (16, 16),
              (33, 70)]
    for shape in shapes:
        for draw in range(12):
            if draw == 0:
                x = np.full(shape, -0.0)
            elif draw % 3 == 0:
                x = rng.choice(specials, shape)
            elif draw % 3 == 1:
                x = rng.normal(0.0, 10.0 ** rng.integers(-310, 5), shape)
            else:
                x = np.where(rng.random(shape) < 0.5, -0.0, rng.choice(specials, shape))
            want = ndimage.correlate(x, _HS_KERNEL, mode="nearest")
            assert _hs_average_of(x).tobytes() == want.tobytes(), (shape, draw)
        # both flow components at once, as the solver holds them
        pair = np.stack([x, rng.normal(size=shape)])
        got = _hs_average_of(pair)
        for comp in range(2):
            want = ndimage.correlate(pair[comp], _HS_KERNEL, mode="nearest")
            assert got[comp].tobytes() == want.tobytes(), shape
    # the sign of zero is the one place where a sum without the leading 0.0
    # would differ: an all -0.0 neighborhood averages to +0.0
    assert np.signbit(_hs_average_of(np.full((3, 3), -0.0))).sum() == 0


def _flow_case(rng, case: int):
    """Seeded frame pairs and parameters: gray or RGB, 2x2 to 70x70 with odd
    sizes, one or several pyramid levels, identical frames, warps."""
    h, w = (int(v) for v in rng.integers(2, 71, 2))
    if case % 10 == 0:
        h, w = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    params = FlowParams(alpha=float(rng.choice([0.3, 2.0, 15.0, 120.0])),
                        pyramid_scale=float(rng.choice([0.3, 0.5, 0.71, 0.9])),
                        min_size=int(rng.choice([1, 2, 5, 12, 100])),
                        iters_per_level=int(rng.integers(1, 9)),
                        warp_steps=int(rng.integers(1, 4)))
    if case % 2:
        prev = _textured(case, h, w)
        cur = bilinear_sample(prev, *np.meshgrid(np.arange(w) + rng.normal(0, 1.5),
                                                 np.arange(h) + rng.normal(0, 1.5)))
    else:
        prev = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        cur = np.roll(prev, (int(rng.integers(-2, 3)), int(rng.integers(-2, 3))), (0, 1))
    if case % 7 == 0:
        cur = prev
    return cur, prev, params


def test_flow_equals_correlate_oracle_bit_for_bit():
    rng = np.random.default_rng(19)
    levels = set()
    for case in range(120):
        cur, prev, params = _flow_case(rng, case)
        got = compute_backward_flow(cur, prev, params)
        want = oracle_compute_backward_flow(cur, prev, params)
        assert got.tobytes() == want.tobytes(), (case, cur.shape, params)
        levels.add(min(len(_pyramid(np.zeros(cur.shape[:2]), params)), 3))
    assert levels == {1, 2, 3}


def test_pyramid_stops_above_one_pixel():
    # a level one pixel wide has no gradient; min_size 1 stops where 2 does
    prev = _textured(9, 9, 14)
    cur = np.roll(prev, 1, axis=1)
    for min_size in (1, 2):
        assert min(_pyramid(prev, FlowParams(min_size=min_size))[-1].shape) >= 2
    one = compute_backward_flow(cur, prev, FlowParams(min_size=1, iters_per_level=5))
    two = compute_backward_flow(cur, prev, FlowParams(min_size=2, iters_per_level=5))
    assert one.tobytes() == two.tobytes()


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(alpha=0.0)
    with pytest.raises(ValueError):
        FlowParams(pyramid_scale=1.0)
    with pytest.raises(ValueError):
        FlowParams(pyramid_scale=0.0)
    with pytest.raises(ValueError):
        FlowParams(min_size=0)
    with pytest.raises(ValueError):
        FlowParams(iters_per_level=0)
    with pytest.raises(ValueError):
        FlowParams(warp_steps=0)


def test_sequence_returns_one_field_per_pair():
    seq = np.stack([_textured(i, 24, 24) for i in range(4)])
    fields = flow_for_sequence(seq, FlowParams(min_size=12, iters_per_level=10))
    assert len(fields) == 3
    assert all(f.shape == (24, 24, 2) for f in fields)
    assert flow_for_sequence(seq[:1]) == []


def test_external_flow_files_loaded(tmp_path):
    r = SplitMix64(11)
    fields = []
    for t in (1, 2):
        f = np.array([[[r.next_float(), r.next_float()] for _ in range(12)]
                      for _ in range(10)], dtype=np.float32)
        write_flo(external_flow_path(str(tmp_path), t), f)
        fields.append(f)
    # the pairs (0, 1) and (1, 2) of a three-frame 12x10 video
    loaded = read_external_flows(str(tmp_path), 1, 3, 10, 12)
    assert len(loaded) == 2
    for got, want in zip(loaded, fields):
        assert np.array_equal(got, want)


def test_external_flow_of_a_later_run_of_frames(tmp_path):
    # a run of frames 2 to 4 needs the fields of pairs 3 and 4
    fields = {t: np.full((4, 5, 2), t, dtype=np.float32) for t in (1, 2, 3, 4)}
    for t, f in fields.items():
        write_flo(external_flow_path(str(tmp_path), t), f)
    loaded = read_external_flows(str(tmp_path), 3, 5, 4, 5)
    assert [int(f[0, 0, 0]) for f in loaded] == [3, 4]
    check_external_flow(str(tmp_path), 5, 4, 5)
    with pytest.raises(DataError, match=r"missing external flow for pair \(4, 5\)"):
        check_external_flow(str(tmp_path), 6, 4, 5)
    with pytest.raises(FormatError, match="is 5x4, frames are 6x4"):
        check_external_flow(str(tmp_path), 5, 4, 6)


def test_external_flow_missing_file(tmp_path):
    write_flo(external_flow_path(str(tmp_path), 1), np.zeros((10, 12, 2), dtype=np.float32))
    # flow_0002.flo absent
    with pytest.raises(DataError):
        read_external_flows(str(tmp_path), 1, 3, 10, 12)


def test_external_flow_dimension_mismatch(tmp_path):
    write_flo(external_flow_path(str(tmp_path), 1), np.zeros((9, 12, 2), dtype=np.float32))
    with pytest.raises(FormatError):
        read_external_flows(str(tmp_path), 1, 2, 10, 12)


def test_external_flow_bad_magic(tmp_path):
    path = external_flow_path(str(tmp_path), 1)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fii", 1.0, 4, 4))
        fh.write(b"\x00" * (4 * 4 * 2 * 4))
    with pytest.raises(FormatError):
        read_external_flows(str(tmp_path), 1, 2, 4, 4)


def test_pool_matches_serial():
    from concurrent.futures import ThreadPoolExecutor
    seq = np.stack([_textured(i + 20, 20, 20) for i in range(3)])
    params = FlowParams(min_size=10, iters_per_level=8)
    serial = flow_for_sequence(seq, params)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = flow_for_sequence(seq, params, run=pool.map)
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
