"""Supervoxel benchmark metrics.

2D/3D boundary recall, explained variation, 2D/3D segmentation accuracy, and
2D/3D under-segmentation error, plus per-hierarchy-level evaluation with CSV
output.  Every metric is a ratio of integer quantities (boundary counts,
overlap counts, scaled-integer luma sums), so the implementation carries
exact rationals via fractions.Fraction and converts to float only on return.
That makes results independent of summation order and bit-identical to naive
reference implementations.  One boundary pass gives both boundary recalls and
one overlap count gives accuracy and under-segmentation in 2D and 3D.
"""

import csv
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
from scipy import ndimage


def _checked(pred: np.ndarray, gt: np.ndarray, tol: int = 0):
    """Label volumes of one shape, as arrays."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.ndim != 3 or gt.ndim != 3:
        raise ValueError("label volumes must be (frames, height, width)")
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    return pred, gt


def _dense(labels: np.ndarray) -> np.ndarray:
    """A label volume as indices 0..n-1 in ascending label order."""
    return np.unique(labels, return_inverse=True)[1].reshape(labels.shape)


def _indexed(pred: np.ndarray, gt: np.ndarray, tol: int = 0):
    """Checked label volumes, each as indices 0..n-1 in ascending label
    order."""
    return tuple(_dense(v) for v in _checked(pred, gt, tol))


# ---------------------------------------------------------------- boundaries

def _anchors(labels: np.ndarray) -> np.ndarray:
    """Boundary element anchors of both classes, stacked along axis 0.

    Slice t < T holds frame t's within-frame elements: an element sits
    between 4-adjacent pixels with different labels and is anchored at the
    lower-coordinate pixel; x- and y-oriented elements share the class.
    Slice T + t holds the between-frame elements of frames t and t+1.
    """
    t = labels.shape[0]
    out = np.zeros((2 * t - 1,) + labels.shape[1:], dtype=bool)
    out[:t, :, :-1] = labels[:, :, :-1] != labels[:, :, 1:]
    out[:t, :-1, :] |= labels[:, :-1, :] != labels[:, 1:, :]
    out[t:] = labels[:-1] != labels[1:]
    return out


def _boundary_recalls(pred: np.ndarray, gt_mask: np.ndarray, tol: int):
    """(br2d, br3d) of pred against the GT anchors gt_mask.  A GT anchor is
    recalled when a predicted anchor of its class lies within Chebyshev
    distance tol in the same slice (axis 0 never dilates); any
    tol >= max(H, W) - 1 reaches the whole frame."""
    r = min(tol, max(pred.shape[1:]) - 1)
    hit = ndimage.maximum_filter(_anchors(pred), size=(1, 2 * r + 1, 2 * r + 1),
                                 mode="constant")
    total = np.count_nonzero(gt_mask, axis=(1, 2)).tolist()
    hits = np.count_nonzero(gt_mask & hit, axis=(1, 2)).tolist()
    t = pred.shape[0]
    frames = [Fraction(k, n) for k, n in zip(hits[:t], total[:t]) if n]
    br2d = float(sum(frames) / len(frames)) if frames else 1.0
    br3d = float(Fraction(sum(hits), sum(total))) if sum(total) else 1.0
    return br2d, br3d


def boundary_recall_3d(pred: np.ndarray, gt: np.ndarray, tol: int = 1) -> float:
    """Fraction of GT boundary elements (within-frame and between-frame
    classes pooled) matched by a predicted element of the same class within
    Chebyshev distance tol inside the same frame or frame pair.  A GT volume
    without boundaries scores 1."""
    pred, gt = _indexed(pred, gt, tol)
    return _boundary_recalls(pred, _anchors(gt), tol)[1]


def boundary_recall_2d(pred: np.ndarray, gt: np.ndarray, tol: int = 1) -> float:
    """Within-frame boundary recall averaged over frames that have GT
    boundaries; 1 when no frame does."""
    pred, gt = _indexed(pred, gt, tol)
    return _boundary_recalls(pred, _anchors(gt), tol)[0]


# ---------------------------------------------------------------- variation

def _integer_luma(video: np.ndarray, shape) -> np.ndarray:
    """Per-voxel intensity as exact integers, checked against the label shape.

    RGB becomes 299 R + 587 G + 114 B (BT.601 luma times 1000); grayscale is
    used as-is.  Explained variation is scale invariant, so the factor drops
    out of the ratio.
    """
    video = np.asarray(video)
    if not np.issubdtype(video.dtype, np.integer):
        raise ValueError("video must have an integer dtype")
    if video.ndim == 4 and video.shape[-1] == 3:
        v = video.astype(np.int64)
        x = 299 * v[..., 0] + 587 * v[..., 1] + 114 * v[..., 2]
    elif video.ndim == 3:
        x = video.astype(np.int64)
    else:
        raise ValueError("video must be (t, h, w) or (t, h, w, 3)")
    if x.shape != shape:
        raise ValueError(f"shape mismatch: {shape} vs {x.shape}")
    return x


def _r_squared(x: np.ndarray, inv: np.ndarray) -> float:
    """Exact R-squared of the groupwise-mean reconstruction of a (t, h, w)
    int64 volume, which is shifted in place; inv gives each voxel a dense
    group index.  A constant signal gives 1.  The shift to a minimum of 0
    leaves R-squared unchanged and bounds every partial sum by its total, so
    per-frame sums stay exact in int64 and group sums in float64; values too
    spread for that raise ValueError."""
    lo, hi = int(x.min()), int(x.max())
    n = x.size
    if (hi - lo) ** 2 * (n // x.shape[0]) >= 2 ** 63 or (hi - lo) * n >= 2 ** 53:
        raise ValueError("video values too large for exact explained variation")
    x -= lo
    frames = x.reshape(x.shape[0], -1)
    sx = sum(frames.sum(axis=1).tolist())
    sxx = sum(np.einsum("ij,ij->i", frames, frames).tolist())
    den = Fraction(sxx) - Fraction(sx * sx, n)
    if den == 0:
        return 1.0
    group_sum = np.bincount(inv.ravel(), weights=x.ravel())
    num = -Fraction(sx * sx, n)
    for s, c in zip(group_sum.tolist(), np.bincount(inv.ravel()).tolist()):
        num += Fraction(int(s) ** 2, c)
    return float(num / den)


def explained_variation(pred: np.ndarray, video: np.ndarray) -> float:
    """R-squared of the per-supervoxel-mean reconstruction of the video's
    luma: sum_i (mu_i - mu)^2 / sum_i (x_i - mu)^2 over voxels i, where mu_i
    is the mean of voxel i's supervoxel.  A constant video scores 1.
    """
    pred = np.asarray(pred)
    return _r_squared(_integer_luma(video, pred.shape),
                      np.unique(pred, return_inverse=True)[1])


# ---------------------------------------------------------------- overlaps

def _scope_means(scope, p, g, n):
    """Accuracy and under-segmentation error averaged over scopes 0..k-1.

    (scope, p, g) are the distinct (scope, pred, gt) cells in lexicographic
    order and n their voxel counts.  Within a scope a supervoxel goes to the
    GT segment it overlaps most, ties to the lower GT index: the first of its
    cells at the maximum.
    """
    first = np.r_[True, (scope[1:] != scope[:-1]) | (p[1:] != p[:-1])]
    start, sv = np.flatnonzero(first), np.cumsum(first) - 1   # each cell's supervoxel
    best = np.flatnonzero(n == np.maximum.reduceat(n, start)[sv])
    best = best[np.r_[True, sv[best[1:]] != sv[best[:-1]]]]   # first maximum per supervoxel
    n_g = int(g.max()) + 1
    seg, cell_seg = np.unique(scope * n_g + g, return_inverse=True)
    size = np.bincount(cell_seg, weights=n).tolist()
    covered = np.bincount(cell_seg[best], weights=n[best], minlength=len(seg)).tolist()
    # sizes of the supervoxels touching each segment
    leak = np.bincount(cell_seg, weights=np.add.reduceat(n, start)[sv]).tolist()
    seg_scope = (seg // n_g).tolist()
    count = np.bincount(seg_scope).tolist()
    acc = err = Fraction(0)
    for s, m, c, k in zip(seg_scope, size, covered, leak):
        weight = int(m) * count[s] * len(count)   # mean over segments, then over scopes
        acc += Fraction(int(c), weight)
        err += Fraction(int(k - m), weight)
    return float(acc), float(err)


def _overlap_scores(pred: np.ndarray, gt: np.ndarray):
    """(acc2d, acc3d, ue2d, ue3d) of dense label volumes from one sparse
    count of (frame, pred, gt) cells; the 3D cells are its sums over frames."""
    t, h, w = pred.shape
    n_p, n_g = int(pred.max()) + 1, int(gt.max()) + 1
    if t * n_p * n_g >= 2 ** 63:
        raise ValueError("too many labels for an exact overlap count")
    key = np.repeat(np.arange(t, dtype=np.int64) * n_p, h * w) + pred.ravel()
    key *= n_g
    key += gt.ravel()
    cells, n = np.unique(key, return_counts=True)
    frame_pred, g = np.divmod(cells, n_g)
    frame, p = np.divmod(frame_pred, n_p)
    acc2d, ue2d = _scope_means(frame, p, g, n)
    pairs, cell_pair = np.unique(p * n_g + g, return_inverse=True)
    n3 = np.bincount(cell_pair, weights=n).astype(np.int64)
    acc3d, ue3d = _scope_means(np.zeros_like(pairs), pairs // n_g, pairs % n_g, n3)
    return acc2d, acc3d, ue2d, ue3d


def accuracy_3d(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean over GT segments of the fraction of the segment covered by the
    supervoxels assigned to it; each supervoxel goes to the GT segment it
    overlaps most (ties to the lower GT label)."""
    return _overlap_scores(*_indexed(pred, gt))[1]


def accuracy_2d(pred: np.ndarray, gt: np.ndarray) -> float:
    """accuracy_3d applied independently per frame, averaged over frames."""
    return _overlap_scores(*_indexed(pred, gt))[0]


def undersegmentation_error_3d(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean over GT segments g of (sum of sizes of supervoxels intersecting
    g minus |g|) / |g|; 0 iff supervoxels nest inside GT segments."""
    return _overlap_scores(*_indexed(pred, gt))[3]


def undersegmentation_error_2d(pred: np.ndarray, gt: np.ndarray) -> float:
    """undersegmentation_error_3d per frame, averaged over frames."""
    return _overlap_scores(*_indexed(pred, gt))[2]


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


CSV_HEADER = ["level"] + [f.name for f in fields(MetricsReport)]


def compute_report(pred: np.ndarray, gt: np.ndarray, video: np.ndarray,
                   tol: int = 1) -> MetricsReport:
    """Every metric of one level from one indexing of each label volume."""
    return evaluate([pred], gt, video, tol)[0]


def evaluate(pred_levels, gt: np.ndarray, video: np.ndarray, tol: int = 1) -> list:
    """One MetricsReport per level of a SegmentationHierarchy or of any
    iterable of label volumes, taken one level at a time.  The work that
    depends only on gt and the video (gt's indexing and boundary anchors,
    the luma) is done once, at the first level."""
    reports, dense_gt = [], None
    for volume in getattr(pred_levels, "levels", pred_levels):
        pred, gt = _checked(volume, gt, tol)
        if dense_gt is None:
            dense_gt = _dense(gt)
            gt_mask = _anchors(dense_gt)
            # _r_squared shifts the luma to a minimum of 0, so a later level
            # finds it shifted already and shifts it by 0
            luma = _integer_luma(video, gt.shape)
        pred = _dense(pred)
        reports.append(MetricsReport(int(pred.max()) + 1, *_boundary_recalls(pred, gt_mask, tol),
                                     _r_squared(luma, pred), *_overlap_scores(pred, dense_gt)))
    return reports


def write_metrics_csv(reports, path: str) -> None:
    """Write per-level reports as CSV (floats via repr, so they round-trip)."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_HEADER] + [
            [level] + [repr(f.type(getattr(r, f.name))) for f in fields(r)]
            for level, r in enumerate(reports)])


def read_metrics_csv(path: str) -> list:
    """Parse write_metrics_csv output back to (level, MetricsReport) pairs."""
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("unrecognized metrics CSV header")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"{path}: row {lineno} has {len(row)} fields, not {len(CSV_HEADER)}")
        values = (f.type(v) for f, v in zip(fields(MetricsReport), row[1:]))
        out.append((int(row[0]), MetricsReport(*values)))
    return out
