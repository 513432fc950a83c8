"""Shared low-level image numerics: grayscale conversion, resampling,
4-neighbor pairs and first-occurrence relabeling."""

import numpy as np
from scipy.ndimage import correlate1d


def round_half_up(x):
    """Round to nearest integer with ties going up; the project-wide rounding rule."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


def luma_u8(frame: np.ndarray) -> np.ndarray:
    """Integer BT.601 luma of an (H, W, 3) uint8 frame, rounded half-up."""
    return round_half_up(luma_f64(frame)).astype(np.uint8)


def luma_f64(frame: np.ndarray) -> np.ndarray:
    """Unrounded BT.601 luma as float64."""
    f = frame.astype(np.float64)
    return 0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]


def bilinear_sample(img: np.ndarray, xs, ys):
    """Sample a (H, W) float image at real coordinates, clamping to the border."""
    h, w = img.shape
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, float(w - 1))
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, float(h - 1))
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    v00 = img[y0, x0]
    v01 = img[y0, x1]
    v10 = img[y1, x0]
    v11 = img[y1, x1]
    top = v00 + (v01 - v00) * fx
    bot = v10 + (v11 - v10) * fx
    return top + (bot - top) * fy


def bilinear_resize(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Resize a (H, W) float image with center-aligned bilinear sampling."""
    h, w = img.shape
    if (new_h, new_w) == (h, w):
        return img.astype(np.float64, copy=True)
    xs = (np.arange(new_w, dtype=np.float64) + 0.5) * (w / new_w) - 0.5
    ys = (np.arange(new_h, dtype=np.float64) + 0.5) * (h / new_h) - 0.5
    gx, gy = np.meshgrid(xs, ys)
    return bilinear_sample(img.astype(np.float64), gx, gy)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflected borders, kernel truncated at 3 sigma."""
    img = img.astype(np.float64)
    if sigma <= 0:
        return img.copy()
    r = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k /= k.sum()
    out = correlate1d(img, k, axis=0, mode="reflect")
    return correlate1d(out, k, axis=1, mode="reflect")


def grid_pairs4(h: int, w: int):
    """(p, q) flat index arrays of every 4-adjacent pixel pair of an (h, w)
    grid: the horizontal pairs row by row, then the vertical ones."""
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    p = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    q = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return p, q


def relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Renumber the values of a label array 0, 1, ... in the order in which
    they first occur in a row-major (C-order) scan; returns int64 of the same
    shape."""
    labels = np.asarray(labels)
    _, first, inv = np.unique(labels.ravel(), return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inv].reshape(labels.shape).astype(np.int64)
