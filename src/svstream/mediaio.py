"""Bit-exact readers and writers for the interchange formats.

Frames travel as binary PPM (P6, maxval 255), label volumes as one 16-bit
big-endian PGM (P5, maxval 65535) per frame, and flow fields as Middlebury
.flo (little-endian float32 payload behind the magic float 202021.25).

In-memory conventions:
    frame         (H, W, 3) uint8
    sequence      (T, H, W, 3) uint8
    flow field    (H, W, 2) float32, [..., 0] = u (horizontal), [..., 1] = v
    label volume  (T, H, W) int32 from the readers; the writers take any
                  integer array with labels in 0..65535
"""

import os
import re
import struct

import numpy as np

from .errors import DataError, FormatError
from .rng import SplitMix64

FLO_MAGIC = 202021.25


# ---------------------------------------------------------------------------
# PNM header parsing

def _read_pnm_tokens(data: bytes, n_tokens: int):
    """Return the first n_tokens whitespace/comment-separated header tokens
    and the offset of the byte after the single whitespace that ends the last one."""
    tokens = []
    i = 0
    while len(tokens) < n_tokens:
        if i >= len(data):
            raise FormatError("truncated PNM header")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
            if len(tokens) == n_tokens:
                if i >= len(data) or not data[i:i + 1].isspace():
                    raise FormatError("PNM header not terminated by whitespace")
                i += 1
    return tokens, i


def read_ppm(path: str) -> np.ndarray:
    """Read a binary P6 PPM into an (H, W, 3) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise FormatError(f"{path}: not a binary PPM (missing P6 magic)")
    tokens, offset = _read_pnm_tokens(data, 4)
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise FormatError(f"{path}: unsupported PPM maxval {maxval}")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: invalid PPM dimensions {w}x{h}")
    body = data[offset:offset + 3 * w * h]
    if len(body) != 3 * w * h:
        raise FormatError(f"{path}: PPM payload truncated")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).copy()


def write_ppm(path: str, frame: np.ndarray) -> None:
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise ValueError("frame must be (H, W, 3) uint8")
    h, w = frame.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(frame.tobytes())


def read_pgm16(path: str) -> np.ndarray:
    """Read a binary P5 PGM (8- or 16-bit) into an (H, W) int32 array."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (missing P5 magic)")
    tokens, offset = _read_pnm_tokens(data, 4)
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError(f"{path}: malformed PGM header") from None
    if w < 1 or h < 1:
        raise FormatError(f"{path}: invalid PGM dimensions {w}x{h}")
    if maxval == 255:
        dtype, nbytes = np.dtype(np.uint8), w * h
    elif maxval == 65535:
        dtype, nbytes = np.dtype(">u2"), 2 * w * h
    else:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval}")
    body = data[offset:offset + nbytes]
    if len(body) != nbytes:
        raise FormatError(f"{path}: PGM payload truncated")
    return np.frombuffer(body, dtype=dtype).reshape(h, w).astype(np.int32)


def check_pgm16_labels(labels: np.ndarray) -> None:
    """Raise DataError unless every label fits a 16-bit PGM (0..65535)."""
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0:
        raise DataError("negative label cannot be written to a PGM")
    if labels.max(initial=0) > 65535:
        raise DataError(f"label {int(labels.max())} exceeds the 16-bit PGM range")


def write_pgm16(path: str, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2D array")
    check_pgm16_labels(labels)
    h, w = labels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n65535\n" % (w, h))
        f.write(labels.astype(">u2").tobytes())


# ---------------------------------------------------------------------------
# Middlebury .flo

def read_flo(path: str) -> np.ndarray:
    """Read a Middlebury .flo file into an (H, W, 2) float32 flow field."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12:
        raise FormatError(f"{path}: truncated .flo header")
    magic, w, h = struct.unpack("<fii", data[:12])
    if magic != FLO_MAGIC:
        raise FormatError(f"{path}: bad .flo magic {magic!r}")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: invalid .flo dimensions {w}x{h}")
    payload = data[12:12 + 8 * w * h]
    if len(payload) != 8 * w * h:
        raise FormatError(f"{path}: .flo payload truncated")
    flow = np.frombuffer(payload, dtype="<f4").reshape(h, w, 2).copy()
    bad = ~np.isfinite(flow)
    if bad.any():
        y, x, _ = np.argwhere(bad)[0]
        raise DataError(f"{path}: non-finite flow at pixel (x={x}, y={y})")
    return flow


def write_flo(path: str, flow: np.ndarray) -> None:
    flow = np.asarray(flow, dtype=np.float32)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError("flow must be (H, W, 2)")
    h, w = flow.shape[:2]
    with open(path, "wb") as f:
        f.write(struct.pack("<fii", FLO_MAGIC, w, h))
        f.write(flow.astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# Frame sequences

def _pattern_regex(pattern: str):
    """Split a printf-style %d / %0Nd pattern into (directory, filename regex)."""
    m = re.search(r"%0?\d*d", pattern)
    if m is None:
        raise ValueError(f"path pattern {pattern!r} has no %d directive")
    directory, name = os.path.split(pattern)
    m = re.search(r"%0?\d*d", name)
    if m is None:
        raise ValueError(f"the %d directive in {pattern!r} must be in the file name")
    rx = re.escape(name[:m.start()]) + r"(\d+)" + re.escape(name[m.end():])
    return directory or ".", re.compile(rx + r"\Z")


def find_frame_indices(pattern: str):
    """All frame indices present on disk for a printf-style pattern, sorted."""
    directory, rx = _pattern_regex(pattern)
    indices = set()
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in entries:
        m = rx.match(name)
        if m:
            indices.add(int(m.group(1)))
    return sorted(indices)


def load_frame_sequence(pattern: str) -> np.ndarray:
    """Load PPM frames matching a printf-style pattern into a (T, H, W, 3) array.

    Frames must form a contiguous index range from the smallest index found;
    a gap raises naming the missing index.
    """
    indices = find_frame_indices(pattern)
    if not indices:
        raise DataError(f"no frames found matching {pattern!r}")
    start = indices[0]
    for expected, i in enumerate(indices, start):
        if i != expected:
            raise DataError(f"missing frame index {expected} for pattern {pattern!r}")
    frames = []
    for i in indices:
        frame = read_ppm(pattern % i)
        if frames and frame.shape != frames[0].shape:
            raise FormatError(
                f"frame {i} is {frame.shape[1]}x{frame.shape[0]} but frame {start} "
                f"is {frames[0].shape[1]}x{frames[0].shape[0]}")
        frames.append(frame)
    return np.stack(frames)


def write_frame_sequence(seq: np.ndarray, directory: str) -> None:
    """Write frames as zero-padded PPMs (00000.ppm, ...)."""
    os.makedirs(directory, exist_ok=True)
    for t, frame in enumerate(seq):
        write_ppm(os.path.join(directory, f"{t:05d}.ppm"), frame)


# ---------------------------------------------------------------------------
# Label volumes

def write_label_volume(volume: np.ndarray, directory: str) -> None:
    """Write one 16-bit PGM per frame, named by frame index (00000.pgm, ...).
    A label out of the 16-bit range is reported before anything is written."""
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError("label volume must be (T, H, W)")
    check_pgm16_labels(volume)
    os.makedirs(directory, exist_ok=True)
    for t, labels in enumerate(volume):
        write_pgm16(os.path.join(directory, f"{t:05d}.pgm"), labels)


def read_label_volume(directory: str) -> np.ndarray:
    """Read all .pgm frames of a directory (sorted by numeric name) into (T, H, W)."""
    names = [n for n in os.listdir(directory) if n.endswith(".pgm")]
    if not names:
        raise DataError(f"no .pgm frames in {directory!r}")

    def key(name):
        stem = os.path.splitext(name)[0]
        return (0, int(stem)) if stem.isdigit() else (1, stem)

    frames = [read_pgm16(os.path.join(directory, n)) for n in sorted(names, key=key)]
    shapes = {f.shape for f in frames}
    if len(shapes) > 1:
        raise FormatError(f"label frames in {directory!r} differ in size: {sorted(shapes)}")
    return np.stack(frames)


def colorize_labels(volume: np.ndarray, seed: int) -> np.ndarray:
    """Deterministically map labels to distinct RGB colors; returns (T, H, W, 3) uint8."""
    volume = np.asarray(volume)
    n = int(volume.max()) + 1 if volume.size else 0
    rng = SplitMix64(seed)
    seen = set()
    colors = np.empty((n, 3), dtype=np.uint8)
    for i in range(n):
        while True:
            c = (rng.next_below(256), rng.next_below(256), rng.next_below(256))
            if c not in seen:
                seen.add(c)
                colors[i] = c
                break
    return colors[volume]
