"""Supervoxel benchmark metrics.

2D/3D boundary recall, explained variation, 2D/3D segmentation accuracy, and
2D/3D under-segmentation error, plus per-hierarchy-level evaluation with CSV
output.  Every metric is a ratio of integer quantities (boundary counts,
overlap counts, scaled-integer luma sums), so the implementation carries
exact rationals via fractions.Fraction and converts to float only on return.
That makes results independent of summation order and bit-identical to naive
reference implementations.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import ndimage

CSV_HEADER = ["level", "num_supervoxels", "br2d", "br3d", "ev",
              "acc2d", "acc3d", "ue2d", "ue3d"]


def _check_volumes(pred: np.ndarray, gt: np.ndarray):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.ndim != 3 or gt.ndim != 3:
        raise ValueError("label volumes must be (frames, height, width)")
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return pred, gt


# ---------------------------------------------------------------- boundaries

def _within_frame_boundaries(labels: np.ndarray) -> np.ndarray:
    """Per-frame mask of boundary element anchors.

    An element sits between 4-adjacent pixels with different labels and is
    anchored at the lower-coordinate pixel; x- and y-oriented elements share
    one within-frame class.
    """
    t, h, w = labels.shape
    out = np.zeros((t, h, w), dtype=bool)
    out[:, :, :-1] |= labels[:, :, :-1] != labels[:, :, 1:]
    out[:, :-1, :] |= labels[:, :-1, :] != labels[:, 1:, :]
    return out

def _between_frame_boundaries(labels: np.ndarray) -> np.ndarray:
    """Per-frame-pair mask of temporal boundary anchors (t vs t+1)."""
    return labels[:-1] != labels[1:]


def _recalled(gt_mask: np.ndarray, pred_mask: np.ndarray, tol: int) -> int:
    """GT anchors with a predicted anchor within Chebyshev distance tol,
    evaluated frame by frame (axis 0 never dilates)."""
    if tol == 0:
        hit = pred_mask
    else:
        ball = np.ones((1, 2 * tol + 1, 2 * tol + 1), dtype=bool)
        hit = ndimage.binary_dilation(pred_mask, structure=ball)
    return int(np.count_nonzero(gt_mask & hit))


def boundary_recall_3d(pred: np.ndarray, gt: np.ndarray, tol: int = 1) -> float:
    """Fraction of GT boundary elements (within-frame and between-frame
    classes pooled) matched by a predicted element of the same class within
    Chebyshev distance tol inside the same frame or frame pair.  A GT volume
    without boundaries scores 1."""
    pred, gt = _check_volumes(pred, gt)
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    gt_w = _within_frame_boundaries(gt)
    gt_b = _between_frame_boundaries(gt)
    total = int(np.count_nonzero(gt_w)) + int(np.count_nonzero(gt_b))
    if total == 0:
        return 1.0
    rec = _recalled(gt_w, _within_frame_boundaries(pred), tol)
    rec += _recalled(gt_b, _between_frame_boundaries(pred), tol)
    return float(Fraction(rec, total))


def boundary_recall_2d(pred: np.ndarray, gt: np.ndarray, tol: int = 1) -> float:
    """Within-frame boundary recall averaged over frames that have GT
    boundaries; 1 when no frame does."""
    pred, gt = _check_volumes(pred, gt)
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    gt_w = _within_frame_boundaries(gt)
    pr_w = _within_frame_boundaries(pred)
    acc = Fraction(0)
    frames = 0
    for t in range(gt.shape[0]):
        total = int(np.count_nonzero(gt_w[t]))
        if total == 0:
            continue
        rec = _recalled(gt_w[t:t + 1], pr_w[t:t + 1], tol)
        acc += Fraction(rec, total)
        frames += 1
    if frames == 0:
        return 1.0
    return float(acc / frames)


# ---------------------------------------------------------------- variation

def _integer_luma(video: np.ndarray) -> np.ndarray:
    """Per-voxel intensity as exact integers.

    RGB becomes 299 R + 587 G + 114 B (BT.601 luma times 1000); grayscale is
    used as-is.  Explained variation is scale invariant, so the factor drops
    out of the ratio.
    """
    video = np.asarray(video)
    if not np.issubdtype(video.dtype, np.integer):
        raise ValueError("video must have an integer dtype")
    if video.ndim == 4 and video.shape[-1] == 3:
        v = video.astype(np.int64)
        return 299 * v[..., 0] + 587 * v[..., 1] + 114 * v[..., 2]
    if video.ndim == 3:
        return video.astype(np.int64)
    raise ValueError("video must be (t, h, w) or (t, h, w, 3)")


def _r_squared(values: np.ndarray, inv: np.ndarray) -> Fraction:
    """Exact R-squared of the groupwise-mean reconstruction of integer values.

    inv assigns each element a dense group index.  A constant signal gives 1.
    """
    flat = values.ravel().astype(np.int64)
    # partial sums stay integral in float64 well below 2^53 per group
    group_sum = np.bincount(inv, weights=flat.astype(np.float64))
    group_n = np.bincount(inv)
    n = flat.size
    sx = int(np.sum(flat, dtype=np.int64))
    sxx = int(np.sum(flat ** 2, dtype=np.int64))
    den = Fraction(sxx) - Fraction(sx * sx, n)
    if den == 0:
        return Fraction(1)
    num = -Fraction(sx * sx, n)
    for s, c in zip(group_sum.tolist(), group_n.tolist()):
        num += Fraction(int(s) ** 2, int(c))
    return num / den


def explained_variation(pred: np.ndarray, video: np.ndarray) -> float:
    """R-squared of the per-supervoxel-mean reconstruction of the video's
    luma: sum_i (mu_i - mu)^2 / sum_i (x_i - mu)^2 over voxels i, where mu_i
    is the mean of voxel i's supervoxel.  A constant video scores 1.
    """
    pred = np.asarray(pred)
    x = _integer_luma(video)
    if pred.shape != x.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {x.shape}")
    _, inv = np.unique(pred.ravel(), return_inverse=True)
    return float(_r_squared(x, inv))


# ---------------------------------------------------------------- accuracy

def _overlap_counts(pred_flat: np.ndarray, gt_flat: np.ndarray):
    """Dense overlap matrix (pred regions x gt segments) and both size
    vectors; row/column order follows ascending original labels."""
    _, pi = np.unique(pred_flat, return_inverse=True)
    _, gi = np.unique(gt_flat, return_inverse=True)
    np_, ng = pi.max() + 1, gi.max() + 1
    counts = np.bincount(pi * ng + gi, minlength=np_ * ng).reshape(np_, ng)
    return counts, np.bincount(pi), np.bincount(gi)


def _accuracy_flat(pred_flat: np.ndarray, gt_flat: np.ndarray) -> Fraction:
    counts, _, gt_sizes = _overlap_counts(pred_flat, gt_flat)
    # ties go to the lower gt label; argmax picks the first maximum
    assign = np.argmax(counts, axis=1)
    ng = counts.shape[1]
    covered = np.zeros(ng, dtype=np.int64)
    np.add.at(covered, assign, counts[np.arange(counts.shape[0]), assign])
    acc = Fraction(0)
    for g in range(ng):
        acc += Fraction(int(covered[g]), int(gt_sizes[g]))
    return acc / ng


def accuracy_3d(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean over GT segments of the fraction of the segment covered by the
    supervoxels assigned to it; each supervoxel goes to the GT segment it
    overlaps most (ties to the lower GT label)."""
    pred, gt = _check_volumes(pred, gt)
    return float(_accuracy_flat(pred.ravel(), gt.ravel()))


def accuracy_2d(pred: np.ndarray, gt: np.ndarray) -> float:
    """accuracy_3d applied independently per frame, averaged over frames."""
    pred, gt = _check_volumes(pred, gt)
    acc = Fraction(0)
    for t in range(gt.shape[0]):
        acc += _accuracy_flat(pred[t].ravel(), gt[t].ravel())
    return float(acc / gt.shape[0])


def _undersegmentation_flat(pred_flat: np.ndarray, gt_flat: np.ndarray) -> Fraction:
    counts, pred_sizes, gt_sizes = _overlap_counts(pred_flat, gt_flat)
    touches = counts > 0
    err = Fraction(0)
    for g in range(counts.shape[1]):
        leak = int(pred_sizes[touches[:, g]].sum())
        err += Fraction(leak - int(gt_sizes[g]), int(gt_sizes[g]))
    return err / counts.shape[1]


def undersegmentation_error_3d(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean over GT segments g of (sum of sizes of supervoxels intersecting
    g minus |g|) / |g|; 0 iff supervoxels nest inside GT segments."""
    pred, gt = _check_volumes(pred, gt)
    return float(_undersegmentation_flat(pred.ravel(), gt.ravel()))


def undersegmentation_error_2d(pred: np.ndarray, gt: np.ndarray) -> float:
    """undersegmentation_error_3d per frame, averaged over frames."""
    pred, gt = _check_volumes(pred, gt)
    err = Fraction(0)
    for t in range(gt.shape[0]):
        err += _undersegmentation_flat(pred[t].ravel(), gt[t].ravel())
    return float(err / gt.shape[0])


# ---------------------------------------------------------------- reports

@dataclass(frozen=True)
class MetricsReport:
    num_supervoxels: int
    br2d: float
    br3d: float
    ev: float
    acc2d: float
    acc3d: float
    ue2d: float
    ue3d: float


def compute_report(pred: np.ndarray, gt: np.ndarray, video: np.ndarray,
                   tol: int = 1) -> MetricsReport:
    return MetricsReport(
        num_supervoxels=int(len(np.unique(pred))),
        br2d=boundary_recall_2d(pred, gt, tol),
        br3d=boundary_recall_3d(pred, gt, tol),
        ev=explained_variation(pred, video),
        acc2d=accuracy_2d(pred, gt),
        acc3d=accuracy_3d(pred, gt),
        ue2d=undersegmentation_error_2d(pred, gt),
        ue3d=undersegmentation_error_3d(pred, gt),
    )


def evaluate(pred_levels, gt: np.ndarray, video: np.ndarray,
             tol: int = 1) -> list:
    """One MetricsReport per hierarchy level.

    Accepts a SegmentationHierarchy or any sequence of label volumes.
    """
    levels = getattr(pred_levels, "levels", pred_levels)
    return [compute_report(np.asarray(vol), gt, video, tol) for vol in levels]


def write_metrics_csv(reports, path: str) -> None:
    """Write per-level reports as CSV (floats via repr, so they round-trip)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CSV_HEADER)
        for level, r in enumerate(reports):
            wr.writerow([level, r.num_supervoxels,
                         repr(r.br2d), repr(r.br3d), repr(r.ev),
                         repr(r.acc2d), repr(r.acc3d),
                         repr(r.ue2d), repr(r.ue3d)])


def read_metrics_csv(path: str) -> list:
    """Parse write_metrics_csv output back to (level, MetricsReport) pairs."""
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("unrecognized metrics CSV header")
    out = []
    for row in rows[1:]:
        level = int(row[0])
        rep = MetricsReport(num_supervoxels=int(row[1]),
                            br2d=float(row[2]), br3d=float(row[3]),
                            ev=float(row[4]), acc2d=float(row[5]),
                            acc3d=float(row[6]), ue2d=float(row[7]),
                            ue3d=float(row[8]))
        out.append((level, rep))
    return out
