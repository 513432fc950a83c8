"""Supervoxel benchmark metrics.

2D/3D boundary recall, explained variation, 2D/3D segmentation accuracy, and
2D/3D under-segmentation error, plus per-hierarchy-level evaluation with CSV
output.  Every metric is a ratio of integer quantities (boundary counts,
overlap counts, integer luma sums), so the implementation carries exact
rationals via fractions.Fraction and converts to float only on return.  That
makes results independent of summation order and bit-identical to naive
reference implementations.

Every metric is also a sum over frames or frame pairs, so one pass reads
frame t of the ground truth, the video and every level together and keeps,
per level, only running totals: boundary hits, each frame's overlap terms,
the (pred, gt) overlap cells and per-label luma sums.  A volume may be any
iterable of frames, and memory is bounded by the levels times one frame plus
the distinct labels and cells, not by the video's length.
"""

import csv
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
from scipy import ndimage


def _frames(volume):
    """The frames of a volume (an array along its first axis, or any
    iterable of frames), each as an array."""
    try:
        return map(np.asarray, iter(volume))
    except TypeError:
        raise ValueError("volumes must be (frames, height, width)") from None


def _zip_frames(volumes):
    """Frame t of every volume together, for t = 0, 1, ...; volumes of
    different lengths raise ValueError."""
    end = object()
    for frames in itertools.zip_longest(*map(_frames, volumes), fillvalue=end):
        if any(frame is end for frame in frames):
            raise ValueError("volumes differ in frame count")
        yield frames


def _check_labels(frame: np.ndarray, shape) -> None:
    if frame.ndim != 2:
        raise ValueError("label volumes must be (frames, height, width)")
    if frame.shape != shape:
        raise ValueError(f"shape mismatch: {frame.shape} vs {shape}")
    if frame.size == 0:
        raise ValueError("label frames must not be empty")


def _first_of_runs(*keys) -> np.ndarray:
    """True where a run of equal rows of the key columns begins."""
    first = np.empty(len(keys[0]), dtype=bool)
    first[:1] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=first[1:])
    for k in keys[1:]:
        first[1:] |= k[1:] != k[:-1]
    return first


def _mean_ratio(nums, dens) -> Fraction:
    """The exact mean of nums[i] / dens[i] over lists of ints."""
    d = math.lcm(*dens)
    return Fraction(sum(a * (d // b) for a, b in zip(nums, dens)), d * len(dens))


class _Cells:
    """Voxel counts, and sums such as luma, of (pred, gt) label pairs that
    arrive a frame at a time, merged into lexicographic order.

    Rows wait until they outnumber the merged rows, so the rows held stay
    below twice the distinct pairs plus one frame's rows, and a merge costs
    at most twice the rows added since the one before."""

    def __init__(self):
        self.parts = []      # the merged rows, then the waiting ones, as column tuples
        self.merged = self.waiting = 0

    def add(self, p, g, *sums) -> None:
        self.parts.append((p, g, *sums))
        self.waiting += len(p)
        if self.waiting > self.merged:
            self._merge()

    def columns(self) -> tuple:
        """The distinct pairs' pred and gt labels, in lexicographic order,
        then their sums."""
        if self.waiting:
            self._merge()
        return self.parts[0]

    def _merge(self) -> None:
        p, g, *sums = (np.concatenate(c) for c in zip(*self.parts))
        order = np.lexsort((g, p))
        p, g = p[order], g[order]
        start = np.flatnonzero(_first_of_runs(p, g))
        self.parts = [(p[start], g[start], *(np.add.reduceat(s[order], start) for s in sums))]
        self.merged, self.waiting = len(start), 0


# ---------------------------------------------------------------- boundaries

def _anchors(labels: np.ndarray, prev, out: np.ndarray) -> None:
    """Write the boundary element anchors of one label frame into the
    zeroed out[0] and, when prev (the frame before) is given, those between
    the two frames into out[1].

    A within-frame element sits between 4-adjacent pixels with different
    labels and is anchored at the lower-coordinate pixel; x- and y-oriented
    elements share the class.  A between-frame element sits between a pixel
    of prev and the same pixel of labels.
    """
    np.not_equal(labels[:, :-1], labels[:, 1:], out=out[0, :, :-1])
    out[0, :-1] |= labels[:-1] != labels[1:]
    if prev is not None:
        np.not_equal(prev, labels, out=out[1])


def _frame_hits(preds, gt: np.ndarray, prev, tol: int):
    """The boundary hits of one frame: per level, how many of the GT's
    within-frame and between-frame anchors it recalls, then the GT's counts
    of each.  prev holds the frame before of every level and then of gt, or
    is None at the first frame.

    A GT anchor is recalled when a predicted anchor of its class lies within
    Chebyshev distance tol in the same frame or frame pair; any
    tol >= max(H, W) - 1 reaches the whole frame.  The GT's anchors are found
    once, and one maximum filter dilates every level's."""
    r = min(tol, max(gt.shape) - 1)
    gt_marks = np.zeros((2,) + gt.shape, dtype=bool)
    _anchors(gt, prev and prev[-1], gt_marks)
    marks = np.zeros((len(preds), 2) + gt.shape, dtype=bool)
    for labels, before, out in zip(preds, prev or itertools.repeat(None), marks):
        _anchors(labels, before, out)
    hit = ndimage.maximum_filter(marks, size=(1, 1, 2 * r + 1, 2 * r + 1), mode="constant")
    hit &= gt_marks
    return (np.count_nonzero(hit, axis=(2, 3)).tolist(),
            np.count_nonzero(gt_marks, axis=(1, 2)).tolist())


def boundary_recall_3d(pred: np.ndarray, gt: np.ndarray, tol: int = 1) -> float:
    """Fraction of GT boundary elements (within-frame and between-frame
    classes pooled) matched by a predicted element of the same class within
    Chebyshev distance tol inside the same frame or frame pair.  A GT volume
    without boundaries scores 1."""
    return _scan([pred], gt, None, tol, overlaps=False)[0]["br3d"]


def boundary_recall_2d(pred: np.ndarray, gt: np.ndarray, tol: int = 1) -> float:
    """Within-frame boundary recall averaged over frames that have GT
    boundaries; 1 when no frame does."""
    return _scan([pred], gt, None, tol, overlaps=False)[0]["br2d"]


# ---------------------------------------------------------------- variation

def _integer_luma(frame: np.ndarray, shape) -> np.ndarray:
    """A video frame's per-pixel intensity as exact integers, checked against
    the label frames' shape.

    RGB becomes 299 R + 587 G + 114 B (BT.601 luma times 1000); grayscale is
    used as-is.  Explained variation is scale invariant, so the factor drops
    out of the ratio.
    """
    if not np.issubdtype(frame.dtype, np.integer):
        raise ValueError("video must have an integer dtype")
    if frame.ndim == 3 and frame.shape[-1] == 3:
        v = frame.astype(np.int64)
        x = 299 * v[..., 0] + 587 * v[..., 1] + 114 * v[..., 2]
    elif frame.ndim == 2:
        x = frame.astype(np.int64)
    else:
        raise ValueError("video must be (t, h, w) or (t, h, w, 3)")
    if x.shape != shape:
        raise ValueError(f"shape mismatch: {shape} vs {x.shape}")
    return x


class _Luma:
    """Exact sums of a video's luma, frame by frame.

    Each frame is shifted by the first frame's minimum, which leaves
    R-squared unchanged.  While the spread of the values so far stays within
    the bounds checked in add, a frame's sum of squares stays below 2**63
    and every other partial sum below 2**53 in magnitude, so int64 sums are
    exact; a wider spread raises ValueError."""

    def __init__(self):
        self.offset = self.lo = self.hi = None
        self.n = self.sx = self.sxx = 0

    def add(self, frame: np.ndarray, shape) -> np.ndarray:
        """Add one frame; returns its shifted luma, flattened."""
        x = _integer_luma(frame, shape).ravel()
        lo, hi = int(x.min()), int(x.max())
        if self.offset is None:
            self.offset = self.lo = self.hi = lo
        self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
        self.n += x.size
        spread = self.hi - self.lo
        if spread ** 2 * x.size >= 2 ** 63 or spread * self.n >= 2 ** 53:
            raise ValueError("video values too large for exact explained variation")
        x -= self.offset
        self.sx += int(x.sum())
        self.sxx += int(np.dot(x, x))
        return x

    def r_squared(self, sums, counts) -> float:
        """Exact R-squared of the per-label-mean reconstruction, given each
        label's luma sum and voxel count.  A constant video gives 1."""
        den = Fraction(self.sxx) - Fraction(self.sx * self.sx, self.n)
        if den == 0:
            return 1.0
        num = -Fraction(self.sx * self.sx, self.n)
        for s, c in zip(sums, counts):
            num += Fraction(s * s, c)
        return float(num / den)


def explained_variation(pred: np.ndarray, video: np.ndarray) -> float:
    """R-squared of the per-supervoxel-mean reconstruction of the video's
    luma: sum_i (mu_i - mu)^2 / sum_i (x_i - mu)^2 over voxels i, where mu_i
    is the mean of voxel i's supervoxel.  A constant video scores 1.
    """
    return _scan([pred], None, video, None)[0]["ev"]


# ---------------------------------------------------------------- overlaps

def _overlap_terms(p, g, n, num_segments: int):
    """Accuracy and under-segmentation error, as Fractions, of the (pred, gt)
    cells (p, g) in lexicographic order with voxel counts n; g indexes the
    GT segments 0..num_segments-1 in label order.

    A supervoxel goes to the GT segment it overlaps most, ties to the lower
    GT label: the first of its cells at the maximum.
    """
    first = _first_of_runs(p)
    start, sv = np.flatnonzero(first), np.cumsum(first) - 1   # each cell's supervoxel
    best = np.flatnonzero(n == np.maximum.reduceat(n, start)[sv])
    best = best[_first_of_runs(sv[best])]                      # first maximum per supervoxel
    size = np.bincount(g, weights=n).astype(np.int64)
    covered = np.bincount(g[best], weights=n[best], minlength=num_segments).astype(np.int64)
    # sizes of the supervoxels touching each segment
    leak = np.bincount(g, weights=np.add.reduceat(n, start)[sv]).astype(np.int64)
    size_list = size.tolist()
    return (_mean_ratio(covered.tolist(), size_list),
            _mean_ratio((leak - size).tolist(), size_list))


def accuracy_3d(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean over GT segments of the fraction of the segment covered by the
    supervoxels assigned to it; each supervoxel goes to the GT segment it
    overlaps most (ties to the lower GT label)."""
    return _scan([pred], gt, None, None)[0]["acc3d"]


def accuracy_2d(pred: np.ndarray, gt: np.ndarray) -> float:
    """accuracy_3d applied independently per frame, averaged over frames."""
    return _scan([pred], gt, None, None)[0]["acc2d"]


def undersegmentation_error_3d(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean over GT segments g of (sum of sizes of supervoxels intersecting
    g minus |g|) / |g|; 0 iff supervoxels nest inside GT segments."""
    return _scan([pred], gt, None, None)[0]["ue3d"]


def undersegmentation_error_2d(pred: np.ndarray, gt: np.ndarray) -> float:
    """undersegmentation_error_3d per frame, averaged over frames."""
    return _scan([pred], gt, None, None)[0]["ue2d"]


# ---------------------------------------------------------------- one pass

class _Level:
    """One level's running totals: boundary hits, the br2d sum, the sums of
    each frame's overlap terms, and the (pred, gt) cells' voxel counts and
    luma sums."""

    def __init__(self):
        self.hits = 0
        self.br2d = self.acc2d = self.ue2d = Fraction(0)
        self.cells = _Cells()


def _scan(levels: list, gt, video, tol, overlaps: bool = True) -> list:
    """Per level, a dict of the metrics its inputs give, named as in
    MetricsReport, from one pass that reads frame t of every level, of gt
    and of the video together: both boundary recalls when tol is given, the
    overlap scores when gt is given and overlaps is set, explained variation
    and the supervoxel count when video is given.

    Labels are ranked by value, so ties go to the lower GT label; without gt
    every voxel lies in one GT segment.  A volume's frames are held only
    until the next frame is read.
    """
    if tol is not None and tol < 0:
        raise ValueError("tolerance must be >= 0")
    overlaps = overlaps and gt is not None
    k = len(levels)
    totals, luma, prev = [_Level() for _ in range(k)], _Luma(), None
    gt_anchors = gt_frames = t = 0       # GT anchors, frames with within-frame ones
    g_index = np.zeros(1, dtype=np.int64)   # without gt, one segment
    for t, frames in enumerate(_zip_frames([*levels, *(v for v in (gt, video) if v is not None)]),
                               start=1):
        preds, shape = frames[:k], frames[0].shape
        for labels in preds if gt is None else (*preds, frames[k]):
            _check_labels(labels, shape)
        if tol is not None:
            hits, (within, between) = _frame_hits(preds, frames[k], prev, tol)
            gt_anchors += within + between
            gt_frames += within > 0
            for level, (hit_within, hit_between) in zip(totals, hits):
                level.hits += hit_within + hit_between
                if within:
                    level.br2d += Fraction(hit_within, within)
            prev = frames[:k + 1]
        if not (overlaps or video is not None):
            continue
        # one stable sort by gt per frame, then one per level by pred, puts
        # each level's pixels in (pred, gt) order
        if gt is None:
            by_gt, g_dense = slice(None), np.zeros(frames[0].size, dtype=np.intp)
        else:
            g_index, g_dense = np.unique(frames[k].ravel(), return_inverse=True)
            by_gt = np.argsort(g_dense, kind="stable")
            g_dense = g_dense[by_gt]
        if video is not None:
            x = luma.add(frames[-1], shape)[by_gt]
        for level, labels in zip(totals, preds):
            p = labels.ravel()[by_gt]
            order = np.argsort(p, kind="stable")
            p, g = p[order], g_dense[order]
            start = np.flatnonzero(_first_of_runs(p, g))
            n = np.append(start[1:], len(p)) - start
            p, g = p[start], g[start]
            if overlaps:
                acc, err = _overlap_terms(p, g, n, len(g_index))
                level.acc2d += acc
                level.ue2d += err
            luma_sums = () if video is None else (np.add.reduceat(x[order], start),)
            level.cells.add(p, g_index[g], n, *luma_sums)
    if t == 0:
        raise ValueError("volumes must hold at least one frame")
    out = []
    for level in totals:
        scores = {}
        if tol is not None:
            scores["br2d"] = float(level.br2d / gt_frames) if gt_frames else 1.0
            scores["br3d"] = float(Fraction(level.hits, gt_anchors)) if gt_anchors else 1.0
        if overlaps:
            scores["acc2d"], scores["ue2d"] = float(level.acc2d / t), float(level.ue2d / t)
            p, g, n, *_ = level.cells.columns()
            segments, g = np.unique(g, return_inverse=True)
            scores["acc3d"], scores["ue3d"] = map(float, _overlap_terms(p, g, n, len(segments)))
        if video is not None:
            p, _, n, luma_sums = level.cells.columns()
            start = np.flatnonzero(_first_of_runs(p))
            scores["num_supervoxels"] = len(start)
            scores["ev"] = luma.r_squared(np.add.reduceat(luma_sums, start).tolist(),
                                          np.add.reduceat(n, start).tolist())
        out.append(scores)
    return out


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
    """Every metric of one level from one pass over its frames."""
    return evaluate([pred], gt, video, tol)[0]


def evaluate(pred_levels, gt, video, tol: int = 1) -> list:
    """One MetricsReport per level of a SegmentationHierarchy or of any
    iterable of label volumes, from one pass that reads frame t of gt, of
    the video and of every level together.  Each volume may be an array or
    any iterable of frames, such as a reader over frame files; memory is then
    bounded by the levels times one frame plus the distinct labels and
    (pred, gt) cells, whatever the video's length.  The GT's boundary
    anchors and label indexing are computed once per frame for every
    level."""
    levels = list(getattr(pred_levels, "levels", pred_levels))
    if not levels:
        return []
    return [MetricsReport(**scores) for scores in _scan(levels, gt, video, tol)]


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
