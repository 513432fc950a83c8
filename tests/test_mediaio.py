"""File-format round-trips and frame-sequence discovery."""
import os

import numpy as np
import pytest

from svstream.errors import DataError, FormatError
from svstream.mediaio import (colorize_labels, find_frame_indices, load_frame_sequence,
                              read_flo, read_label_volume, read_pgm16,
                              read_ppm, write_flo, write_frame_sequence,
                              write_label_volume, write_pgm16, write_ppm)
from svstream.rng import SplitMix64


def _rand_frame(seed, h, w):
    r = SplitMix64(seed)
    return np.array([r.next_below(256) for _ in range(h * w * 3)],
                    dtype=np.uint8).reshape(h, w, 3)


def test_ppm_round_trip(tmp_path):
    frame = _rand_frame(1, 5, 7)
    p = str(tmp_path / "f.ppm")
    write_ppm(p, frame)
    assert np.array_equal(read_ppm(p), frame)


def test_ppm_header_with_comments(tmp_path):
    p = str(tmp_path / "c.ppm")
    body = bytes(range(12))
    with open(p, "wb") as f:
        f.write(b"P6 # comment\n2 # width\n2\n255\n" + body)
    assert read_ppm(p).shape == (2, 2, 3)


def test_ppm_errors(tmp_path):
    p = str(tmp_path / "bad.ppm")
    with open(p, "wb") as f:
        f.write(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        read_ppm(p)
    with open(p, "wb") as f:
        f.write(b"P6\n2 2\n255\n" + bytes(5))  # 12 bytes needed
    with pytest.raises(FormatError):
        read_ppm(p)
    with open(p, "wb") as f:
        f.write(b"P6\n2 2\n1023\n" + bytes(12))
    with pytest.raises(FormatError):
        read_ppm(p)
    with pytest.raises(ValueError):
        write_ppm(p, np.zeros((2, 2), dtype=np.uint8))


def test_pgm16_round_trip_and_range(tmp_path):
    labels = np.array([[0, 1], [65535, 300]], dtype=np.int64)
    p = str(tmp_path / "l.pgm")
    write_pgm16(p, labels)
    assert np.array_equal(read_pgm16(p), labels)
    with pytest.raises(DataError):
        write_pgm16(p, np.array([[-1, 0]]))
    with pytest.raises(DataError):
        write_pgm16(p, np.array([[70000, 0]]))


def test_pgm16_reads_8bit(tmp_path):
    p = str(tmp_path / "g8.pgm")
    with open(p, "wb") as f:
        f.write(b"P5\n3 1\n255\n" + bytes([7, 8, 9]))
    assert read_pgm16(p).tolist() == [[7, 8, 9]]


def test_flo_round_trip(tmp_path):
    r = SplitMix64(2)
    flow = np.array([[r.next_float() * 8 - 4 for _ in range(10)]
                     for _ in range(4)], dtype=np.float32).reshape(4, 5, 2)
    p = str(tmp_path / "a.flo")
    write_flo(p, flow)
    assert np.array_equal(read_flo(p), flow)


def test_flo_errors(tmp_path):
    p = str(tmp_path / "bad.flo")
    with open(p, "wb") as f:
        f.write(b"\0" * 8)
    with pytest.raises(FormatError):
        read_flo(p)
    flow = np.full((2, 2, 2), np.nan, dtype=np.float32)
    import struct
    with open(p, "wb") as f:
        f.write(struct.pack("<fii", 202021.25, 2, 2) + flow.tobytes())
    with pytest.raises(DataError):
        read_flo(p)


def test_frame_sequence_discovery(tmp_path):
    for i in (3, 4, 5):
        write_ppm(str(tmp_path / ("frame_%04d.ppm" % i)), _rand_frame(i, 2, 2))
    pat = str(tmp_path / "frame_%04d.ppm")
    assert find_frame_indices(pat) == [3, 4, 5]
    seq = load_frame_sequence(pat)
    assert seq.shape == (3, 2, 2, 3)
    assert np.array_equal(seq[0], _rand_frame(3, 2, 2))


def test_frame_sequence_gap_rejected(tmp_path):
    for i in (0, 2):
        write_ppm(str(tmp_path / ("f%03d.ppm" % i)), _rand_frame(i, 2, 2))
    with pytest.raises(DataError):
        load_frame_sequence(str(tmp_path / "f%03d.ppm"))


def test_frame_sequence_empty_rejected(tmp_path):
    with pytest.raises(DataError):
        load_frame_sequence(str(tmp_path / "nope_%d.ppm"))


def test_write_frame_sequence_names(tmp_path):
    seq = np.stack([_rand_frame(i, 3, 3) for i in range(2)])
    write_frame_sequence(seq, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["00000.ppm", "00001.ppm"]
    assert np.array_equal(read_ppm(str(tmp_path / "00001.ppm")), seq[1])


def test_label_volume_round_trip(tmp_path):
    vol = np.array([[[0, 5], [2, 2]], [[1, 1], [9, 0]]], dtype=np.int32)
    d = str(tmp_path / "lv")
    os.mkdir(d)
    write_label_volume(vol, d)
    assert np.array_equal(read_label_volume(d), vol)


def test_label_volume_overflow_writes_nothing(tmp_path):
    vol = np.zeros((3, 2, 2), dtype=np.int64)
    vol[-1, 1, 1] = 65536
    d = tmp_path / "lv"
    with pytest.raises(DataError):
        write_label_volume(vol, str(d))
    assert not d.exists()


def test_colorize_labels_distinct_and_deterministic():
    vol = np.arange(12).reshape(1, 3, 4)
    rgb = colorize_labels(vol, seed=5)
    assert rgb.shape == (1, 3, 4, 3)
    colors = {tuple(c) for c in rgb.reshape(-1, 3).tolist()}
    assert len(colors) == 12
    assert np.array_equal(rgb, colorize_labels(vol, seed=5))
    assert not np.array_equal(rgb, colorize_labels(vol, seed=6))
