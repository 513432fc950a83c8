"""Dense backward optical flow (coarse-to-fine Horn-Schunck).

Flow convention throughout the package: the field (u, v) attached to frame t
is backward, current(x, y) ~ previous(x + u, y + v).  Estimation runs on a
Gaussian pyramid; at each level the linearized brightness-constancy plus
quadratic smoothness system is solved by Jacobi fixed-point sweeps, with the
previous frame re-warped toward the current one between sweeps of sweeps
(incremental warping).  Externally computed .flo fields are read instead by
`read_external_flows`, with the same convention.

Each Jacobi sweep averages (u, v) with the 3x3 Horn-Schunck kernel, with
borders extended as ndimage's mode="nearest" does, and gives the bits of
scipy.ndimage.correlate: per pixel, 0.0 plus the products x * w of the eight
nonzero taps, added one at a time in row-major kernel order (top-left, top,
top-right, left, right, bottom-left, bottom, bottom-right).  The products
come from two weighted copies of the padded field, one per weight, and the
sums from shifted slices of them.  The update that follows runs in the
order of ((ix*(u_avg-u0) + iy*(v_avg-v0)) + it) / denom.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError
from .imageops import bilinear_resize, bilinear_sample, gaussian_blur, luma_u8, pixel_grid
from .mediaio import read_flo, read_flo_shape

# Horn-Schunck neighborhood averaging kernel
_HS_KERNEL = np.array([
    [1.0 / 12, 1.0 / 6, 1.0 / 12],
    [1.0 / 6, 0.0, 1.0 / 6],
    [1.0 / 12, 1.0 / 6, 1.0 / 12],
])
# its two distinct weights, and its nonzero taps in ndimage's row-major order
# as (index into _HS_WEIGHTS, row offset, column offset)
_HS_WEIGHTS = np.unique(_HS_KERNEL[_HS_KERNEL != 0.0])
_HS_TAPS = [(int(np.searchsorted(_HS_WEIGHTS, _HS_KERNEL[dy, dx])), dy - 1, dx - 1)
            for dy in range(3) for dx in range(3) if _HS_KERNEL[dy, dx] != 0.0]


@dataclass(frozen=True)
class FlowParams:
    alpha: float = 15.0
    pyramid_scale: float = 0.5
    min_size: int = 16
    iters_per_level: int = 100
    warp_steps: int = 3

    def __post_init__(self):
        # the solver divides by alpha**2, which must neither overflow nor vanish
        if not (self.alpha > 0 and 0.0 < self.alpha * self.alpha < np.inf):
            raise ValueError("alpha must be > 0 and alpha**2 positive and finite")
        if not 0.0 < self.pyramid_scale < 1.0:
            raise ValueError("pyramid_scale must be in (0, 1)")
        if self.min_size < 1 or self.iters_per_level < 1 or self.warp_steps < 1:
            raise ValueError("min_size, iters_per_level, warp_steps must be >= 1")


def _to_gray(frame: np.ndarray) -> np.ndarray:
    if frame.ndim == 2:
        return frame.astype(np.float64)
    return luma_u8(frame).astype(np.float64)


def _pyramid(img: np.ndarray, params: FlowParams):
    """Finest-first list of progressively blurred and downscaled images."""
    # anti-aliasing blur strength for the chosen decimation factor
    sigma = 0.6 * np.sqrt(1.0 / params.pyramid_scale ** 2 - 1.0)
    levels = [img]
    while True:
        h, w = levels[-1].shape
        nh = int(round(h * params.pyramid_scale))
        nw = int(round(w * params.pyramid_scale))
        # the gradients need two pixels along each axis
        if min(nh, nw) < max(params.min_size, 2) or (nh, nw) == (h, w):
            break
        levels.append(bilinear_resize(gaussian_blur(levels[-1], sigma), nh, nw))
    return levels


def _padded(a: np.ndarray, fill: float) -> np.ndarray:
    """a (..., H, W) inside a one-pixel frame of fill."""
    out = np.full(a.shape[:-2] + (a.shape[-2] + 2, a.shape[-1] + 2), fill)
    out[..., 1:-1, 1:-1] = a
    return out


def _hs_averager(pad: np.ndarray, out: np.ndarray):
    """A function that sets out at every interior pixel to correlate(field,
    _HS_KERNEL, mode="nearest"), bit for bit, for the field in pad's
    interior.  pad and out are C-contiguous of shape (..., H+2, W+2).  The
    function first refills pad's one-pixel frame from the field's edges, as
    mode="nearest" extends it, and leaves values that mean nothing in out's
    frame.  Read flat, each tap is one contiguous slice of one of two
    weighted copies of pad; the taps are added in correlate's order to a
    leading 0.0, correlate's own, which turns a -0.0 first tap into +0.0."""
    row = pad.shape[-1]
    lo, hi = row + 1, pad.size - row - 1
    frame = [(pad[..., 0, 1:-1], pad[..., 1, 1:-1]), (pad[..., -1, 1:-1], pad[..., -2, 1:-1]),
             (pad[..., :, 0], pad[..., :, 1]), (pad[..., :, -1], pad[..., :, -2])]
    weighted = np.empty((2, pad.size))
    taps = [weighted[i, lo + dy * row + dx:hi + dy * row + dx] for i, dy, dx in _HS_TAPS]
    flat, dst, weights = pad.reshape(-1), out.reshape(-1)[lo:hi], _HS_WEIGHTS[:, None]

    def average():
        for border, edge in frame:
            np.copyto(border, edge)
        np.multiply(flat, weights, out=weighted)
        np.add(0.0, taps[0], out=dst)
        for tap in taps[1:]:
            np.add(dst, tap, out=dst)
    return average


def _solve_level(cur: np.ndarray, prev: np.ndarray, field: np.ndarray,
                 params: FlowParams) -> np.ndarray:
    """Refine the (2, H, W) flow (u, v) at one pyramid level with warp_steps
    outer linearizations; returns the refined field."""
    h, w = cur.shape
    xs, ys = pixel_grid(h, w)
    alpha2 = params.alpha ** 2
    gy_c, gx_c = np.gradient(cur)
    # Every array of the sweep carries a one-pixel frame and is updated
    # whole: the flow's frame is refilled from its edges before each average,
    # the other frames keep the update there finite, and only interior
    # pixels are read back.
    pad = _padded(field, 0.0)
    avg = np.zeros_like(pad)
    average = _hs_averager(pad, avg)
    step = np.empty_like(pad)
    shared = np.empty(pad.shape[1:])
    for _ in range(params.warp_steps):
        flow0 = pad.copy()
        prev_w = bilinear_sample(prev, xs + flow0[0, 1:-1, 1:-1], ys + flow0[1, 1:-1, 1:-1])
        gy_p, gx_p = np.gradient(prev_w)
        ix = 0.5 * (gx_c + gx_p)
        iy = 0.5 * (gy_c + gy_p)
        grad = _padded(np.stack([ix, iy]), 0.0)
        it = _padded(prev_w - cur, 0.0)
        denom = _padded(alpha2 + ix * ix + iy * iy, 1.0)
        for _ in range(params.iters_per_level):
            average()
            # shared = (ix * (u_avg - u0) + iy * (v_avg - v0) + it) / denom
            np.subtract(avg, flow0, out=step)
            np.multiply(grad, step, out=step)
            np.add(step[0], step[1], out=shared)
            np.add(shared, it, out=shared)
            np.divide(shared, denom, out=shared)
            # (u, v) = (u_avg - ix * shared, v_avg - iy * shared)
            np.multiply(grad, shared, out=step)
            np.subtract(avg, step, out=pad)
    return pad[:, 1:-1, 1:-1].copy()


def check_flow_size(h: int, w: int) -> None:
    """Refuse frames too small for Horn-Schunck's image gradients."""
    if h < 2 or w < 2:
        raise ValueError(f"optical flow needs frames of at least 2x2 pixels, "
                         f"got {w}x{h}")


def compute_backward_flow(current: np.ndarray, previous: np.ndarray,
                          params: FlowParams = FlowParams()) -> np.ndarray:
    """Estimate backward flow so that current(x, y) ~ previous(x+u, y+v).

    Returns an (H, W, 2) float64 field with u in [..., 0] and v in [..., 1].
    """
    if current.shape[:2] != previous.shape[:2]:
        raise ValueError("frames must have equal dimensions")
    check_flow_size(*current.shape[:2])
    cur_pyr = _pyramid(_to_gray(current), params)
    prev_pyr = _pyramid(_to_gray(previous), params)
    field = np.zeros((2,) + cur_pyr[-1].shape, dtype=np.float64)
    for level in range(len(cur_pyr) - 1, -1, -1):
        if level < len(cur_pyr) - 1:
            nh, nw = cur_pyr[level].shape
            oh, ow = cur_pyr[level + 1].shape
            field = np.stack([bilinear_resize(field[0], nh, nw) * (nw / ow),
                              bilinear_resize(field[1], nh, nw) * (nh / oh)])
        field = _solve_level(cur_pyr[level], prev_pyr[level], field, params)
    return np.stack([field[0], field[1]], axis=-1)


def external_flow_path(directory: str, t: int) -> str:
    """Path of the stored backward field for the pair (t-1, t)."""
    return os.path.join(directory, f"flow_{t:04d}.flo")


def _external_path(directory: str, t: int) -> str:
    path = external_flow_path(directory, t)
    if not os.path.exists(path):
        raise DataError(f"missing external flow for pair ({t - 1}, {t}): {path}")
    return path


def _check_field_shape(path: str, shape, h: int, w: int) -> None:
    if tuple(shape[:2]) != (h, w):
        raise FormatError(f"external flow {path} is {shape[1]}x{shape[0]}, "
                          f"frames are {w}x{h}")


def check_external_flow(directory: str, num: int, h: int, w: int) -> None:
    """Check, from the .flo headers alone, that the field of every pair
    (t-1, t), t in [1, num-1], of a num-frame video of w x h frames is
    stored in directory with the frames' dimensions."""
    for t in range(1, num):
        path = _external_path(directory, t)
        _check_field_shape(path, read_flo_shape(path), h, w)


def read_external_flows(directory: str, first: int, stop: int, h: int, w: int) -> list:
    """The stored backward fields of the pairs (t-1, t), t in [first, stop),
    from directory's flow_NNNN.flo files (NNNN = t, zero padded), each
    checked against the frames' w x h."""
    fields = []
    for t in range(first, stop):
        path = _external_path(directory, t)
        field = read_flo(path)
        _check_field_shape(path, field.shape, h, w)
        fields.append(field)
    return fields


def flow_for_sequence(seq: np.ndarray, params: FlowParams = FlowParams(), run=map) -> list:
    """The backward field of every consecutive frame pair of seq, each pair
    computed through run, any map-like callable (a thread pool's map)."""
    def one(t: int) -> np.ndarray:
        return compute_backward_flow(seq[t], seq[t - 1], params)

    return list(run(one, range(1, len(seq))))
