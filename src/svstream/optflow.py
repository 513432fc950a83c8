"""Dense backward optical flow (coarse-to-fine Horn-Schunck).

Flow convention throughout the package: the field (u, v) attached to frame t
is backward, current(x, y) ~ previous(x + u, y + v).  Estimation runs on a
Gaussian pyramid; at each level the linearized brightness-constancy plus
quadratic smoothness system is solved by Jacobi fixed-point sweeps, with the
previous frame re-warped toward the current one between sweeps of sweeps
(incremental warping).  Externally computed .flo fields can be substituted
for the whole module via `flow_for_sequence`.
"""

import os
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate

from .errors import DataError, FormatError
from .imageops import bilinear_resize, bilinear_sample, gaussian_blur, luma_u8
from .mediaio import read_flo, read_flo_shape

# Horn-Schunck neighborhood averaging kernel
_HS_KERNEL = np.array([
    [1.0 / 12, 1.0 / 6, 1.0 / 12],
    [1.0 / 6, 0.0, 1.0 / 6],
    [1.0 / 12, 1.0 / 6, 1.0 / 12],
])


@dataclass(frozen=True)
class FlowParams:
    alpha: float = 15.0
    pyramid_scale: float = 0.5
    min_size: int = 16
    iters_per_level: int = 100
    warp_steps: int = 3

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
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
        if min(nh, nw) < params.min_size or (nh, nw) == (h, w):
            break
        levels.append(bilinear_resize(gaussian_blur(levels[-1], sigma), nh, nw))
    return levels


def _solve_level(cur: np.ndarray, prev: np.ndarray, u: np.ndarray, v: np.ndarray,
                 params: FlowParams):
    """Refine flow at one pyramid level with warp_steps outer linearizations."""
    h, w = cur.shape
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    alpha2 = params.alpha ** 2
    gy_c, gx_c = np.gradient(cur)
    for _ in range(params.warp_steps):
        u0 = u.copy()
        v0 = v.copy()
        prev_w = bilinear_sample(prev, xs + u0, ys + v0)
        gy_p, gx_p = np.gradient(prev_w)
        ix = 0.5 * (gx_c + gx_p)
        iy = 0.5 * (gy_c + gy_p)
        it = prev_w - cur
        denom = alpha2 + ix * ix + iy * iy
        for _ in range(params.iters_per_level):
            u_avg = correlate(u, _HS_KERNEL, mode="nearest")
            v_avg = correlate(v, _HS_KERNEL, mode="nearest")
            shared = (ix * (u_avg - u0) + iy * (v_avg - v0) + it) / denom
            u = u_avg - ix * shared
            v = v_avg - iy * shared
    return u, v


def compute_backward_flow(current: np.ndarray, previous: np.ndarray,
                          params: FlowParams = FlowParams()) -> np.ndarray:
    """Estimate backward flow so that current(x, y) ~ previous(x+u, y+v).

    Returns an (H, W, 2) float64 field with u in [..., 0] and v in [..., 1].
    """
    if current.shape[:2] != previous.shape[:2]:
        raise ValueError("frames must have equal dimensions")
    cur_pyr = _pyramid(_to_gray(current), params)
    prev_pyr = _pyramid(_to_gray(previous), params)
    u = np.zeros(cur_pyr[-1].shape, dtype=np.float64)
    v = np.zeros(cur_pyr[-1].shape, dtype=np.float64)
    for level in range(len(cur_pyr) - 1, -1, -1):
        if level < len(cur_pyr) - 1:
            nh, nw = cur_pyr[level].shape
            oh, ow = cur_pyr[level + 1].shape
            u = bilinear_resize(u, nh, nw) * (nw / ow)
            v = bilinear_resize(v, nh, nw) * (nh / oh)
        u, v = _solve_level(cur_pyr[level], prev_pyr[level], u, v, params)
    return np.stack([u, v], axis=-1)


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


def flow_for_sequence(seq: np.ndarray, params: FlowParams = FlowParams(),
                      external_dir: str | None = None, pool=None, start: int = 0):
    """One backward FlowField per consecutive frame pair of seq.

    seq[0] is frame `start` of the video, so the fields are those of the
    pairs (t-1, t), t in [start+1, start+T-1].  When external_dir is given,
    fields are loaded from flow_NNNN.flo files (NNNN = t, zero padded)
    instead of being computed; dimensions are checked against the sequence.
    """
    num = seq.shape[0]
    if num < 2:
        return []
    h, w = seq.shape[1], seq.shape[2]
    if external_dir is not None:
        fields = []
        for t in range(start + 1, start + num):
            path = _external_path(external_dir, t)
            field = read_flo(path)
            _check_field_shape(path, field.shape, h, w)
            fields.append(field)
        return fields

    def one(t: int) -> np.ndarray:
        return compute_backward_flow(seq[t], seq[t - 1], params)

    if pool is None:
        return [one(t) for t in range(1, num)]
    return list(pool.map(one, range(1, num)))
