"""Optical flow tests: recovery accuracy, conventions, external .flo loading."""

import struct

import numpy as np
import pytest

from svstream.errors import DataError, FormatError
from svstream.imageops import bilinear_sample
from svstream.optflow import (FlowParams, compute_backward_flow,
                              check_external_flow, external_flow_path,
                              flow_for_sequence)
from svstream.mediaio import write_flo
from svstream.rng import SplitMix64
from svstream.synth import value_noise


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
    seq = np.zeros((3, 10, 12, 3), dtype=np.uint8)
    r = SplitMix64(11)
    fields = []
    for t in (1, 2):
        f = np.array([[[r.next_float(), r.next_float()] for _ in range(12)]
                      for _ in range(10)], dtype=np.float32)
        write_flo(external_flow_path(str(tmp_path), t), f)
        fields.append(f)
    loaded = flow_for_sequence(seq, external_dir=str(tmp_path))
    assert len(loaded) == 2
    for got, want in zip(loaded, fields):
        assert np.array_equal(got, want)


def test_external_flow_of_a_later_run_of_frames(tmp_path):
    # seq[0] is frame 2, so the fields read are those of pairs 3 and 4
    seq = np.zeros((3, 4, 5, 3), dtype=np.uint8)
    fields = {t: np.full((4, 5, 2), t, dtype=np.float32) for t in (1, 2, 3, 4)}
    for t, f in fields.items():
        write_flo(external_flow_path(str(tmp_path), t), f)
    loaded = flow_for_sequence(seq, external_dir=str(tmp_path), start=2)
    assert [int(f[0, 0, 0]) for f in loaded] == [3, 4]
    check_external_flow(str(tmp_path), 5, 4, 5)
    with pytest.raises(DataError, match=r"missing external flow for pair \(4, 5\)"):
        check_external_flow(str(tmp_path), 6, 4, 5)
    with pytest.raises(FormatError, match="is 5x4, frames are 6x4"):
        check_external_flow(str(tmp_path), 5, 4, 6)


def test_external_flow_missing_file(tmp_path):
    seq = np.zeros((3, 10, 12, 3), dtype=np.uint8)
    write_flo(external_flow_path(str(tmp_path), 1), np.zeros((10, 12, 2), dtype=np.float32))
    # flow_0002.flo absent
    with pytest.raises(DataError):
        flow_for_sequence(seq, external_dir=str(tmp_path))


def test_external_flow_dimension_mismatch(tmp_path):
    seq = np.zeros((2, 10, 12, 3), dtype=np.uint8)
    write_flo(external_flow_path(str(tmp_path), 1), np.zeros((9, 12, 2), dtype=np.float32))
    with pytest.raises(FormatError):
        flow_for_sequence(seq, external_dir=str(tmp_path))


def test_external_flow_bad_magic(tmp_path):
    seq = np.zeros((2, 4, 4, 3), dtype=np.uint8)
    path = external_flow_path(str(tmp_path), 1)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fii", 1.0, 4, 4))
        fh.write(b"\x00" * (4 * 4 * 2 * 4))
    with pytest.raises(FormatError):
        flow_for_sequence(seq, external_dir=str(tmp_path))


def test_pool_matches_serial():
    from concurrent.futures import ThreadPoolExecutor
    seq = np.stack([_textured(i + 20, 20, 20) for i in range(3)])
    params = FlowParams(min_size=10, iters_per_level=8)
    serial = flow_for_sequence(seq, params)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = flow_for_sequence(seq, params, pool=pool)
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
