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
# Netpbm (PPM, PGM)

# magic -> (format name, channels, maxval -> payload sample type)
_NETPBM = {
    b"P6": ("PPM", 3, {255: np.dtype(np.uint8)}),
    b"P5": ("PGM", 1, {255: np.dtype(np.uint8), 65535: np.dtype(">u2")}),
}
# magic, width, height and maxval; each field may be preceded by whitespace
# and by comments running to the end of their line, and matches empty only
# where the data ends
_NETPBM_HEADER = re.compile(rb"([^\s#]*)" + rb"(?:\s|#[^\n\r]*)*([^\s#]*)" * 3)


def _netpbm_header(data: bytes, path: str, magic: bytes):
    """(width, height, payload sample type, payload offset) of a binary netpbm
    file of the given magic whose bytes start with data."""
    kind, _, dtypes = _NETPBM[magic]
    if not data.startswith(magic):
        raise FormatError(f"{path}: not a binary {kind} (missing {magic.decode()} magic)")
    header = _NETPBM_HEADER.match(data)
    if not all(header.groups()):
        raise FormatError(f"{path}: truncated {kind} header")
    offset = header.end() + 1   # past the one whitespace byte that ends the header
    if not data[offset - 1:offset].isspace():
        raise FormatError(f"{path}: {kind} header not terminated by whitespace")
    try:
        w, h, maxval = map(int, header.groups()[1:])
    except ValueError:
        raise FormatError(f"{path}: malformed {kind} header") from None
    if w < 1 or h < 1:
        raise FormatError(f"{path}: invalid {kind} dimensions {w}x{h}")
    if maxval not in dtypes:
        raise FormatError(f"{path}: unsupported {kind} maxval {maxval}")
    return w, h, dtypes[maxval], offset


def _read_netpbm(path: str, magic: bytes) -> np.ndarray:
    """Read a binary netpbm file of the given magic into a read-only
    (H, W, channels) array of its payload sample type."""
    kind, channels, _ = _NETPBM[magic]
    with open(path, "rb") as f:
        data = f.read()
    w, h, dtype, offset = _netpbm_header(data, path, magic)
    nbytes = dtype.itemsize * channels * w * h
    body = data[offset:offset + nbytes]
    if len(body) != nbytes:
        raise FormatError(f"{path}: {kind} payload truncated")
    return np.frombuffer(body, dtype=dtype).reshape(h, w, channels)


def read_netpbm_shape(path: str, magic: bytes = b"P6") -> tuple:
    """The (H, W, channels) shape of a binary netpbm file of the given magic
    (P6 PPM by default, or P5 PGM), from its header alone (the whole file
    only when comments push the header past its first 4 KiB)."""
    with open(path, "rb") as f:
        data = f.read(4096)
        header = _NETPBM_HEADER.match(data)
        if not (all(header.groups()) and header.end() < len(data)):
            data += f.read()
    w, h, _, _ = _netpbm_header(data, path, magic)
    return h, w, _NETPBM[magic][1]


def read_ppm(path: str) -> np.ndarray:
    """Read a binary P6 PPM into an (H, W, 3) uint8 array."""
    return _read_netpbm(path, b"P6").copy()


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
    return _read_netpbm(path, b"P5")[..., 0].astype(np.int32)


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

def _flo_size(data: bytes, path: str):
    """(width, height) from the 12-byte header at the start of data."""
    if len(data) < 12:
        raise FormatError(f"{path}: truncated .flo header")
    magic, w, h = struct.unpack("<fii", data[:12])
    if magic != FLO_MAGIC:
        raise FormatError(f"{path}: bad .flo magic {magic!r}")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: invalid .flo dimensions {w}x{h}")
    return w, h


def read_flo_shape(path: str) -> tuple:
    """The (H, W, 2) shape of a Middlebury .flo file, from its header alone."""
    with open(path, "rb") as f:
        w, h = _flo_size(f.read(12), path)
    return h, w, 2


def read_flo(path: str) -> np.ndarray:
    """Read a Middlebury .flo file into an (H, W, 2) float32 flow field."""
    with open(path, "rb") as f:
        data = f.read()
    w, h = _flo_size(data, path)
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


def _check_shapes(paths, shape_of) -> tuple:
    """The first path's frame shape; the first path whose frame shape differs
    raises, naming both paths.  shape_of(path) gives a path's (H, W, ...)."""
    first = None
    for path in paths:
        shape = shape_of(path)
        if first is None:
            first = shape
        elif shape != first:
            raise FormatError(f"{path} is {shape[1]}x{shape[0]} but {paths[0]} "
                              f"is {first[1]}x{first[0]}")
    return first


def _stack_frames(read, paths) -> np.ndarray:
    """Read every path with `read` and stack the frames; the first frame
    whose size differs from the first path's raises, naming both paths."""
    frames = []

    def shape_of(path):
        frames.append(read(path))
        return frames[-1].shape

    _check_shapes(paths, shape_of)
    return np.stack(frames)


def frame_paths(pattern: str) -> list:
    """Paths of the PPM frames matching a printf-style pattern, in order.

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
    return [pattern % i for i in indices]


def check_frame_shapes(paths, magic: bytes = b"P6") -> tuple:
    """The common (H, W, channels) shape of netpbm frames of the given magic
    (P6 PPM by default, P5 for label frames), read from their headers only;
    the first frame of another size raises, naming it and the first."""
    return _check_shapes(paths, lambda path: read_netpbm_shape(path, magic))


def read_frames(paths) -> np.ndarray:
    """Read PPM frames of one size into a (T, H, W, 3) array."""
    return _stack_frames(read_ppm, paths)


def load_frame_sequence(pattern: str) -> np.ndarray:
    """Load PPM frames matching a printf-style pattern (see frame_paths)
    into a (T, H, W, 3) array."""
    return read_frames(frame_paths(pattern))


def write_frame_sequence(seq: np.ndarray, directory: str, start: int = 0) -> None:
    """Write frames as zero-padded PPMs named by frame index, the first one
    start (00000.ppm, ... by default)."""
    os.makedirs(directory, exist_ok=True)
    for t, frame in enumerate(seq, start):
        write_ppm(os.path.join(directory, f"{t:05d}.ppm"), frame)


# ---------------------------------------------------------------------------
# Label volumes

def write_label_volume(volume: np.ndarray, directory: str, start: int = 0) -> None:
    """Write one 16-bit PGM per frame, named by frame index, the first one
    start (00000.pgm, ... by default).  A label out of the 16-bit range is
    reported before anything is written."""
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError("label volume must be (T, H, W)")
    check_pgm16_labels(volume)
    os.makedirs(directory, exist_ok=True)
    for t, labels in enumerate(volume, start):
        write_pgm16(os.path.join(directory, f"{t:05d}.pgm"), labels)


def label_paths(directory: str) -> list:
    """Paths of the .pgm frames of a directory, sorted by numeric name."""
    names = [n for n in os.listdir(directory) if n.endswith(".pgm")]
    if not names:
        raise DataError(f"no .pgm frames in {directory!r}")

    def key(name):
        stem = os.path.splitext(name)[0]
        return (0, int(stem)) if stem.isdigit() else (1, stem)

    return [os.path.join(directory, n) for n in sorted(names, key=key)]


def read_label_volume(directory: str) -> np.ndarray:
    """Read all .pgm frames of a directory (sorted by numeric name) into (T, H, W)."""
    return _stack_frames(read_pgm16, label_paths(directory))


class LabelPalette:
    """Distinct RGB colors for labels 0, 1, ..., drawn from one seeded stream
    and grown as larger labels appear, so a volume colored block by block
    gets the colors colorize_labels gives it whole."""

    def __init__(self, seed: int):
        self._rng = SplitMix64(seed)
        self._seen = set()
        self.colors = np.empty((0, 3), dtype=np.uint8)

    def __call__(self, labels: np.ndarray) -> np.ndarray:
        """(..., 3) uint8 colors of an integer label array; a negative label
        is refused before any color is drawn."""
        labels = np.asarray(labels)
        if labels.size and labels.min() < 0:
            raise ValueError(f"label {int(labels.min())} is negative: labels are 0, 1, ...")
        n = int(labels.max()) + 1 if labels.size else 0
        if n > len(self.colors):
            rng, seen = self._rng, self._seen
            colors = np.empty((n, 3), dtype=np.uint8)
            colors[:len(self.colors)] = self.colors
            for i in range(len(self.colors), n):
                while True:
                    c = (rng.next_below(256), rng.next_below(256), rng.next_below(256))
                    if c not in seen:
                        seen.add(c)
                        colors[i] = c
                        break
            self.colors = colors
        return self.colors[labels]


def colorize_labels(volume: np.ndarray, seed: int) -> np.ndarray:
    """Deterministically map labels to distinct RGB colors; returns (T, H, W, 3) uint8."""
    return LabelPalette(seed)(volume)
