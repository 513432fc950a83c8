"""File-format round-trips and frame-sequence discovery."""
import os

import numpy as np
import pytest

from svstream.errors import DataError, FormatError
from svstream.mediaio import (LabelPalette, check_frame_shapes, colorize_labels,
                              find_frame_indices, frame_paths, load_frame_sequence,
                              label_paths, read_flo, read_flo_shape, read_frames,
                              read_label_volume, read_netpbm_shape, read_pgm16, read_ppm,
                              write_flo, write_frame_sequence, write_label_volume,
                              write_pgm16, write_ppm)
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


@pytest.mark.parametrize("read, magic, channels", [(read_ppm, b"P6", 3), (read_pgm16, b"P5", 1)],
                         ids=["P6", "P5"])
@pytest.mark.parametrize("header, pixels", [
    (b"P3\n2 2\n255\n", 4),
    (b"MAGIC\n2 two\n255\n", 4),
    (b"MAGIC\n0 2\n255\n", 4),
    (b"MAGIC\n2 2\n1023\n", 4),
    (b"MAGIC\n2 2\n255\n", 3),
    (b"MAGIC\n2 2\n255#", 4),
    (b"MAGIC\n2 2", 0),
], ids=["wrong-magic", "non-numeric", "zero-dimension", "unsupported-maxval",
        "truncated-payload", "header-not-ended-by-whitespace", "truncated-header"])
def test_malformed_netpbm_rejected(tmp_path, read, magic, channels, header, pixels):
    p = tmp_path / "bad.pnm"
    p.write_bytes(header.replace(b"MAGIC", magic) + bytes(channels * pixels))
    with pytest.raises(FormatError):
        read(str(p))


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


def test_frame_of_another_size_rejected(tmp_path):
    write_ppm(str(tmp_path / "f0.ppm"), _rand_frame(0, 2, 2))
    write_ppm(str(tmp_path / "f1.ppm"), _rand_frame(1, 2, 3))
    with pytest.raises(FormatError, match=r"f1\.ppm is 3x2 but .*f0\.ppm is 2x2"):
        load_frame_sequence(str(tmp_path / "f%d.ppm"))
    d = tmp_path / "lv"
    d.mkdir()
    write_pgm16(str(d / "00000.pgm"), np.zeros((2, 2), dtype=np.int32))
    write_pgm16(str(d / "00001.pgm"), np.zeros((3, 2), dtype=np.int32))
    with pytest.raises(FormatError, match=r"00001\.pgm is 2x3 but .*00000\.pgm is 2x2"):
        read_label_volume(str(d))


def test_frame_shapes_come_from_headers_alone(tmp_path):
    # a payload cut short does not matter, and a comment may be longer than
    # the first prefix read
    (tmp_path / "f0.ppm").write_bytes(b"P6\n# " + b"c" * 5000 + b"\n5 3\n255\n" + b"\0" * 7)
    write_ppm(str(tmp_path / "f1.ppm"), _rand_frame(1, 3, 5))
    paths = frame_paths(str(tmp_path / "f%d.ppm"))
    assert paths == [str(tmp_path / "f0.ppm"), str(tmp_path / "f1.ppm")]
    assert read_netpbm_shape(paths[0]) == (3, 5, 3)
    assert check_frame_shapes(paths) == (3, 5, 3)
    with pytest.raises(FormatError, match="payload truncated"):
        read_frames(paths)
    assert np.array_equal(read_frames(paths[1:]), _rand_frame(1, 3, 5)[None])
    write_ppm(str(tmp_path / "f2.ppm"), _rand_frame(2, 3, 4))
    with pytest.raises(FormatError, match=r"f2\.ppm is 4x3 but .*f0\.ppm is 5x3"):
        check_frame_shapes(frame_paths(str(tmp_path / "f%d.ppm")))


def test_label_frame_shapes_come_from_headers_alone(tmp_path):
    # a 16-bit PGM whose payload is cut short still gives its shape
    (tmp_path / "00000.pgm").write_bytes(b"P5\n5 3\n65535\n" + b"\0" * 7)
    write_pgm16(str(tmp_path / "00001.pgm"), np.zeros((3, 5), dtype=np.int32))
    paths = label_paths(str(tmp_path))
    assert read_netpbm_shape(paths[0], b"P5") == (3, 5, 1)
    assert check_frame_shapes(paths, b"P5") == (3, 5, 1)
    with pytest.raises(FormatError, match="missing P6 magic"):
        check_frame_shapes(paths)
    write_pgm16(str(tmp_path / "00002.pgm"), np.zeros((3, 4), dtype=np.int32))
    with pytest.raises(FormatError, match=r"00002\.pgm is 4x3 but .*00000\.pgm is 5x3"):
        check_frame_shapes(label_paths(str(tmp_path)), b"P5")


@pytest.mark.parametrize("data, message", [
    (b"P5\n2 2\n255\n", "missing P6 magic"),
    (b"P6\n2 2", "truncated PPM header"),
    (b"P6\n2 2\n255", "not terminated by whitespace"),
    (b"P6\n0 2\n255\n", "invalid PPM dimensions"),
])
def test_ppm_shape_header_errors(tmp_path, data, message):
    p = tmp_path / "bad.ppm"
    p.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        read_netpbm_shape(str(p))


def test_flo_shape_from_header(tmp_path):
    p = str(tmp_path / "f.flo")
    write_flo(p, np.zeros((3, 5, 2), dtype=np.float32))
    assert read_flo_shape(p) == (3, 5, 2)
    with open(p, "r+b") as fh:
        fh.truncate(12)
    assert read_flo_shape(p) == (3, 5, 2)
    with open(p, "r+b") as fh:
        fh.truncate(8)
    with pytest.raises(FormatError, match="truncated .flo header"):
        read_flo_shape(p)


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


def test_volume_written_in_blocks_names_frames_from_start(tmp_path):
    vol = np.arange(5 * 2 * 2).reshape(5, 2, 2)
    for s in (0, 2, 4):
        write_label_volume(vol[s:s + 2], str(tmp_path / "lv"), s)
        write_frame_sequence(colorize_labels(vol[s:s + 2], 3), str(tmp_path / "vis"), s)
    assert np.array_equal(read_label_volume(str(tmp_path / "lv")), vol)
    assert np.array_equal(load_frame_sequence(str(tmp_path / "vis" / "%05d.ppm")),
                          colorize_labels(vol, 3))


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


@pytest.mark.parametrize("labels, named", [
    ([[0, 1, -1]], -1), ([[-3, -2]], -3), ([[5, -7, 2]], -7)])
def test_palette_refuses_negative_labels_before_drawing(labels, named):
    # a negative label used to take a color from the end of the table, and an
    # all-negative volume raised IndexError
    palette = LabelPalette(3)
    with pytest.raises(ValueError, match=f"label {named} is negative"):
        palette(np.array(labels))
    assert len(palette.colors) == 0
    with pytest.raises(ValueError, match=f"label {named} is negative"):
        colorize_labels(np.array(labels)[None], 3)


def test_palette_grown_block_by_block_equals_whole_volume_colors():
    rng = np.random.default_rng(4)
    vol = np.sort(rng.integers(0, 300, size=(6, 4, 5)), axis=None).reshape(6, 4, 5)
    palette = LabelPalette(9)
    blocks = [palette(vol[s:s + 2]) for s in range(0, 6, 2)]
    assert np.array_equal(np.concatenate(blocks), colorize_labels(vol, 9))
    assert len(palette.colors) == vol.max() + 1
    # colors already drawn are kept when a block brings only smaller labels
    assert np.array_equal(palette(vol[:1]), colorize_labels(vol, 9)[:1])
