"""Hierarchical affine motion-layer segmentation over supervoxel regions.

Per frame pair, regions seeded from the supervoxel segmentation get affine
models fitted to the backward flow by RANSAC.  Regions merge bottom-up when
their models explain each other's appearance: region i is warped into a fixed
p x q canonical patch once under its own model and once under the other
region's, and the directed divergence compares the two patches.  The merge
distance is the max of the two directions, so it is symmetric even though the
directed divergences generally are not.  A merge test decides each direction
on the warp geometry first: when the two patches' valid pixels overlap too
little for the divergence to be within tau, no pixel is sampled.  An
optional Potts-model smoothing of the final labeling and forward-warp label
association across frame pairs complete the streaming driver.
"""

import heapq
import itertools
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .affine import AffineModel, apply_point_matrix, invert_point_map
from .graphcut import alpha_expansion, labeling_energy
from .imageops import (bilinear_sample, grid_pairs4, luma_f64, pixel_grid,
                       relabel_first_occurrence, round_half_up)
from .rng import derive_seed, splitmix64_block

log = logging.getLogger(__name__)

DIVERGENCE_KAPPA = 64.0
_SCORE_BLOCK = 1 << 16      # hypotheses x pixels scored at once by RANSAC
_FIRST_DRAWS = 6            # RANSAC draws converted before sample 0 is scored
MIN_REGION = 12             # smaller components of a pair's initial labeling are absorbed
OVERLAP_FRAC = 0.3          # share of a region's area that must overlap to keep a label


@dataclass(frozen=True)
class RansacParams:
    inlier_tol: float = 0.5
    iterations: int = 200
    min_pixels: int = 12

    def __post_init__(self):
        if not self.inlier_tol > 0 or self.iterations < 1 or self.min_pixels < 3:
            raise ValueError("invalid RANSAC parameters")


@dataclass
class MotionRegion:
    id: int
    pixels: np.ndarray        # (n, 2) int columns (x, y)
    model: AffineModel

    @property
    def n(self) -> int:
        return len(self.pixels)


@dataclass
class CanonicalPatch:
    values: np.ndarray        # (height, width) grayscale
    valid_mask: np.ndarray    # (height, width) bool


@dataclass
class CanonicalGeometry:
    sx: np.ndarray            # (height, width) preimage x of each canonical pixel
    sy: np.ndarray            # (height, width) preimage y
    valid_mask: np.ndarray    # (height, width) bool


@dataclass
class MotionHierarchy:
    levels: list              # per level: (labels (H, W), {label: AffineModel})


@dataclass
class MotionPairResult:
    pair: int                 # labeling lives on the grid of frame `pair`
    hierarchy: MotionHierarchy
    tracked_labels: np.ndarray
    tracked_models: dict


def check_motion_params(schedule, p: int, q: int, mrf_lambda: float = 0.0):
    """Reject a canonical patch under 2x2, a tau schedule that is not strictly
    increasing or holds a NaN, and a negative, NaN or infinite MRF lambda with
    ValueError, before any work."""
    if p < 2 or q < 2:
        raise ValueError("canonical size must be at least 2x2")
    schedule = list(schedule)
    if not all(b > a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("tau schedule must be strictly increasing")
    if any(tau != tau for tau in schedule):
        raise ValueError("tau must not be NaN")
    if not 0 <= mrf_lambda < np.inf:
        raise ValueError("lambda must be >= 0 and finite")


# ---------------------------------------------------------------- fitting

def fit_affine_ransac(pixels: np.ndarray, flow: np.ndarray, seed: int,
                      params: RansacParams = RansacParams()) -> AffineModel:
    """Fit u = a1+a2 x+a3 y, v = a4+a5 x+a6 y to the flow at the given pixels.

    Samples 3-pixel exact solutions from a seeded splitmix64 stream, keeps the
    largest inlier set (residual norm <= inlier_tol; ties go to the earlier
    sample), and refits it by least squares.  Regions smaller than min_pixels
    get the translation-only model (mean flow); if every sample is collinear
    the whole region is fit directly.

    Sample 0 is drawn, solved and scored on every pixel alone, and its
    inliers (none if it is collinear) are the first best; if they are every
    pixel, nothing more is drawn.  Otherwise the other iterations - 1 triples
    are drawn, the collinear ones dropped and the rest solved in one batch.
    They are scored in blocks of max(1, _SCORE_BLOCK // (n - best)) samples,
    for n pixels and a best with `best` inliers.  A sample replaces the best
    only with strictly more inliers, so it must be an inlier somewhere the
    best misses: each block is scored on the best's missed pixels first, and
    only the samples that hit one are scored on the best's inlier pixels,
    max(1, _SCORE_BLOCK // best) samples at a time.  The missed and inlier
    pixels are gathered once per change of best, and a new best's inliers are
    put together from its two scored rows, so no sample is scored twice.  The
    result is bit-identical to drawing and scoring the samples one at a time.
    """
    pixels = np.asarray(pixels)
    if len(pixels) == 0:
        raise ValueError("cannot fit a model to an empty region")
    xs = pixels[:, 0].astype(np.float64)
    ys = pixels[:, 1].astype(np.float64)
    us = np.asarray(flow[pixels[:, 1], pixels[:, 0], 0], dtype=np.float64)
    vs = np.asarray(flow[pixels[:, 1], pixels[:, 0], 1], dtype=np.float64)
    n = len(pixels)
    if n < params.min_pixels:
        return AffineModel(a1=float(us.mean()), a4=float(vs.mean()))

    pts = (xs, ys, us, vs)

    def solve(triples):     # exact models of the non-collinear triples
        tri = np.array(triples, dtype=np.int64).reshape(-1, 3)
        i, j, k = tri.T
        # twice the signed triangle area; zero means collinear
        area = ((xs[j] - xs[i]) * (ys[k] - ys[i])
                - (xs[k] - xs[i]) * (ys[j] - ys[i]))
        tri = tri[area != 0.0]
        return np.linalg.solve(np.stack([np.ones(tri.shape), xs[tri], ys[tri]], axis=-1),
                               np.stack([us[tri], vs[tri]], axis=-1))[:, :, :, None]

    def inliers(c, at):     # one row per sample, rounded as in the scalar order
        x, y, u, v = at
        sq, sq_v, tmp = (np.empty((len(c), len(x))) for _ in range(3))
        for col, w, out in ((0, u, sq), (1, v, sq_v)):  # (a1 + a2 x + a3 y - u)^2
            np.multiply(c[:, 1, col], x, out=out)
            out += c[:, 0, col]
            out += np.multiply(c[:, 2, col], y, out=tmp)
            out -= w
            out *= out
        sq += sq_v
        return sq <= params.inlier_tol ** 2

    draws = _hypothesis_triples(n, seed, 4 * params.iterations)
    sel = inliers(solve([next(draws)]), pts).any(axis=0)   # the best's inliers
    best = int(np.count_nonzero(sel))
    rest = solve(list(itertools.islice(draws, params.iterations - 1))) if best < n else ()
    start, missed = 0, None
    while best < n and start < len(rest):
        if missed is None:
            old = sel
            missed, kept = (tuple(a[m] for a in pts) for m in (~old, old))
        block = rest[start:start + max(1, _SCORE_BLOCK // (n - best))]
        start += len(block)
        miss_rows = inliers(block, missed)
        hits = np.count_nonzero(miss_rows, axis=1)
        live = np.nonzero(hits)[0]
        step = max(1, _SCORE_BLOCK // max(len(kept[0]), 1))
        for rows in (live[at:at + step] for at in range(0, len(live), step)):
            kept_rows = inliers(block[rows], kept)
            counts = hits[rows] + np.count_nonzero(kept_rows, axis=1)
            top = int(np.argmax(counts))
            if counts[top] > best:
                best = int(counts[top])
                sel = np.empty(n, dtype=bool)
                sel[~old] = miss_rows[rows[top]]
                sel[old] = kept_rows[top]
                missed = None
    # a non-collinear sample fits its own three pixels, so no inliers means
    # that every draw was collinear
    if best == 0:
        return AffineModel.fit_lstsq(xs, ys, us, vs)
    return AffineModel.fit_lstsq(xs[sel], ys[sel], us[sel], vs[sel])


def _hypothesis_triples(n: int, seed: int, block: int):
    """Endless triples of distinct SplitMix64(seed).next_below(n) draws in
    stream order, skipping a draw that repeats one of its triple's.  The
    first _FIRST_DRAWS draws, enough for sample 0 unless more than three of
    them repeat, form a block of their own, so a fit that ends after sample
    0 converts no more; then block draws at a time."""
    bounds = itertools.pairwise(itertools.chain([0], itertools.count(_FIRST_DRAWS, block)))
    stream = (d for start, stop in bounds
              for d in (splitmix64_block(seed, start, stop - start) % np.uint64(n)).tolist())
    while True:
        triple = []
        while len(triple) < 3:
            d = next(stream)
            if d not in triple:
                triple.append(d)
        yield triple


# ---------------------------------------------------------------- canonical

def warp_to_canonical(frame_gray: np.ndarray, region: MotionRegion,
                      transform: AffineModel, p: int, q: int) -> CanonicalPatch:
    """Warp a region into the p x q canonical grid under `transform`.

    The region's pixels displaced by the transform define a bounding box that
    is mapped affinely onto the grid; every canonical pixel is bilinearly
    sampled at its preimage in the source frame.  Valid canonical pixels are
    those whose preimage falls inside the frame and (after rounding) inside
    the region; invalid ones hold 0.  A singular transform yields an
    all-invalid patch; a degenerate bounding box axis is treated as 1 px
    wide.  The geometry (_canonical_geometry) and the samples are separate
    steps, so a caller can decide on the valid masks alone.
    """
    check_motion_params((), p, q)
    geom = _canonical_geometry(region, _member_box(region), transform, p, q,
                               frame_gray.shape)
    valid = geom.valid_mask
    values = np.zeros((q, p))
    values[valid] = bilinear_sample(frame_gray, geom.sx[valid], geom.sy[valid])
    return CanonicalPatch(values, valid)


def _member_box(region: MotionRegion):
    """(x0, y0, mask) of the region's bounding box: mask[y - y0, x - x0] is
    True at the region's pixels."""
    if region.n == 0:
        raise ValueError("empty region")
    x0, y0 = (int(c) for c in region.pixels.min(axis=0))
    x1, y1 = (int(c) for c in region.pixels.max(axis=0))
    mask = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    mask[region.pixels[:, 1] - y0, region.pixels[:, 0] - x0] = True
    return x0, y0, mask


def _canonical_geometry(region: MotionRegion, box, transform: AffineModel,
                        p: int, q: int, shape) -> CanonicalGeometry:
    """Preimages and valid mask of warp_to_canonical, without sampling; box
    is the region's _member_box and shape the frame's (H, W)."""
    try:
        inv = invert_point_map(transform)
    except ValueError:
        zeros = np.zeros((q, p))
        return CanonicalGeometry(zeros, zeros, np.zeros((q, p), dtype=bool))
    h, w = shape
    xs = region.pixels[:, 0].astype(np.float64)
    ys = region.pixels[:, 1].astype(np.float64)
    u, v = transform.uv(xs, ys)
    x_lo, span_x = _box_extent(xs + u)
    y_lo, span_y = _box_extent(ys + v)
    # grid x depends only on the column and y only on the row
    gx = x_lo + np.arange(p, dtype=np.float64) * (span_x / (p - 1))
    gy = y_lo + np.arange(q, dtype=np.float64)[:, None] * (span_y / (q - 1))
    sx, sy = apply_point_matrix(inv, gx, gy)
    valid = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    # membership of the in-frame preimages, rounded, in the region's box
    x0, y0, member = box
    bh, bw = member.shape
    rx = round_half_up(sx[valid]).astype(np.int64) - x0
    ry = round_half_up(sy[valid]).astype(np.int64) - y0
    hit = (rx >= 0) & (rx < bw) & (ry >= 0) & (ry < bh)
    hit &= member.ravel().take(ry * bw + rx, mode="clip")   # clips only where hit is False
    valid[valid] = hit
    return CanonicalGeometry(sx, sy, valid)


def _box_extent(d: np.ndarray):
    """(start, span) of one box axis.  A span under one pixel, degenerate or
    not, widens to one pixel centered on the box: thin regions then warp
    consistently under nearby models, and a frame-edge pixel lands mid-strip
    instead of exactly on the validity boundary."""
    lo, hi = float(d.min()), float(d.max())
    if hi - lo < 1.0:
        return 0.5 * (lo + hi) - 0.5, 1.0
    return lo, hi - lo


def _divergence(frame_gray: np.ndarray, own: CanonicalGeometry,
                other: CanonicalGeometry, tau: float = float("inf")) -> float:
    """Directed divergence of a region from its geometry under its own model
    and under another model (see directed_divergence), exact whenever it is
    <= tau.  Above tau it may return the overlap penalty instead, which is
    then > tau already: the mean difference is >= 0, so the divergence is >=
    the penalty, and the frame is sampled only when the penalty is <= tau."""
    joint = own.valid_mask & other.valid_mask
    n_joint = int(np.count_nonzero(joint))
    if n_joint == 0:
        return float("inf")
    n_union = int(np.count_nonzero(own.valid_mask | other.valid_mask))
    penalty = DIVERGENCE_KAPPA * (1.0 - n_joint / n_union)
    if penalty > tau:
        return penalty
    diff = float(np.abs(bilinear_sample(frame_gray, own.sx[joint], own.sy[joint])
                        - bilinear_sample(frame_gray, other.sx[joint], other.sy[joint])).sum())
    return diff / n_joint + penalty


def directed_divergence(region_i: MotionRegion, region_k: MotionRegion,
                        frame_gray: np.ndarray, p: int, q: int) -> float:
    """How badly region k's model explains region i's content.

    Region i is warped to canonical coordinates under both models; the
    divergence is the mean absolute patch difference over jointly valid
    pixels plus DIVERGENCE_KAPPA * (1 - joint/union), so identical models
    give exactly 0 and barely-overlapping warps are penalized.  No jointly
    valid pixel gives +inf.
    """
    check_motion_params((), p, q)
    box = _member_box(region_i)
    return _divergence(frame_gray, *(
        _canonical_geometry(region_i, box, model, p, q, frame_gray.shape)
        for model in (region_i.model, region_k.model)))


def region_distance(region_i: MotionRegion, region_k: MotionRegion,
                    frame_gray: np.ndarray, p: int, q: int) -> float:
    """Symmetric merge distance: max of the two directed divergences."""
    return max(directed_divergence(region_i, region_k, frame_gray, p, q),
               directed_divergence(region_k, region_i, frame_gray, p, q))


# ---------------------------------------------------------------- merging

def _label_adjacency(labels: np.ndarray):
    """4-connected adjacency pairs between distinct labels."""
    p, q = grid_pairs4(*labels.shape)
    a, b = labels.ravel()[p], labels.ravel()[q]
    differ = a != b
    return set(zip(np.minimum(a, b)[differ].tolist(), np.maximum(a, b)[differ].tolist()))


def merge_pass(regions: list, adjacency, tau: float, frame_gray: np.ndarray,
               flow: np.ndarray, p: int, q: int, seed: int,
               ransac: RansacParams = RansacParams()) -> list:
    """First-fit merging: scan regions ascending by id, merge the first
    adjacent region within tau, refit the merged model, and rescan; sweeps
    repeat until stable.  Returns the surviving regions, ascending by id.

    A pair's decision, region_distance <= tau, is max(d_ik, d_ki) <= tau, so
    the second direction is tested only when the first is within tau.  A
    direction is tested on geometry first: region i's valid canonical pixels
    under its own and under k's model give the overlap penalty
    DIVERGENCE_KAPPA * (1 - joint/union).  No joint pixel (divergence +inf)
    or a penalty above tau decides it without sampling the frame; only
    otherwise are the jointly valid pixels sampled and the divergence
    finished.  Each region's member box and own-model geometry and each
    pair's decision are memoized for the call; merging drop into keep
    invalidates every entry that involves keep or drop.  A geometry under a
    neighbor's model serves only its pair's decision and is not kept.
    """
    by_id = {r.id: r for r in regions}
    neigh = {r.id: set() for r in regions}
    for a, b in adjacency:
        if a in neigh and b in neigh and a != b:
            neigh[a].add(b)
            neigh[b].add(a)
    own, within_tau = {}, {}    # own: region id -> (member box, own-model geometry)

    def within(ri: MotionRegion, rk: MotionRegion) -> bool:
        if ri.id not in own:
            box = _member_box(ri)
            own[ri.id] = box, _canonical_geometry(ri, box, ri.model, p, q, frame_gray.shape)
        box, geom = own[ri.id]
        cross = _canonical_geometry(ri, box, rk.model, p, q, frame_gray.shape)
        return _divergence(frame_gray, geom, cross, tau) <= tau

    def first_within_tau(rid: int):
        for other in sorted(neigh[rid]):
            pair = (min(rid, other), max(rid, other))
            if pair not in within_tau:
                within_tau[pair] = (within(by_id[rid], by_id[other])
                                    and within(by_id[other], by_id[rid]))
            if within_tau[pair]:
                return pair
        return None

    merges = 0
    changed = True
    while changed:
        changed = False
        for rid in sorted(by_id):
            while rid in by_id and (pair := first_within_tau(rid)) is not None:
                keep, drop = pair
                pixels = np.concatenate([by_id[keep].pixels, by_id.pop(drop).pixels])
                by_id[keep] = MotionRegion(keep, pixels, fit_affine_ransac(
                    pixels, flow, derive_seed(seed, 3, merges), ransac))
                merges += 1
                merged = (neigh[keep] | neigh.pop(drop)) - {keep, drop}
                for nb in merged:
                    neigh[nb].discard(drop)
                    neigh[nb].add(keep)
                neigh[keep] = merged
                own.pop(keep, None)
                own.pop(drop, None)
                for stale in [pr for pr in within_tau if keep in pr or drop in pr]:
                    del within_tau[stale]
                rid = keep
                changed = True
    return [by_id[rid] for rid in sorted(by_id)]


def _components(labels: np.ndarray):
    """4-connected components of every label value: (ids (H, W), count), ids
    ordered by label value, then by first pixel in row-major scan order."""
    h, w = labels.shape
    p, q = grid_pairs4(h, w)
    flat = labels.ravel()
    same = flat[p] == flat[q]
    graph = csr_matrix((np.ones(int(same.sum()), dtype=np.int8), (p[same], q[same])),
                       shape=(h * w, h * w))
    count, cc = connected_components(graph, directed=False)
    _, first = np.unique(cc, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.lexsort((first, flat[first]))] = np.arange(count)
    return rank[cc].reshape(h, w), count


def _regions_from_labels(labels: np.ndarray, flow: np.ndarray, seed: int,
                         ransac: RansacParams):
    """Connected components of the labeling, each with a fitted model; ids
    follow first occurrence in row-major scan order."""
    comp = relabel_first_occurrence(_components(labels)[0])
    regions = []
    # row-major pixel order within a region, which RANSAC's index draws read
    for rid, (ys, xs) in ndimage.value_indices(comp).items():
        pixels = np.column_stack([xs, ys]).astype(np.int64)
        model = fit_affine_ransac(pixels, flow, derive_seed(seed, 1, int(rid)), ransac)
        regions.append(MotionRegion(int(rid), pixels, model))
    return regions


def _level(regions: list, shape):
    """(label map, {id: model}) of a list of regions tiling the frame."""
    labels = np.full(shape, -1, dtype=np.int64)
    for r in regions:
        labels[r.pixels[:, 1], r.pixels[:, 0]] = r.id
    return labels, {r.id: r.model for r in regions}


def clean_small_components(labels: np.ndarray, min_region: int,
                           affinity: np.ndarray = None) -> np.ndarray:
    """Absorb connected components smaller than min_region into a 4-adjacent
    component, preferring neighbors that agree with `affinity` (an auxiliary
    labeling of labels' shape: fragments sliced off a cell of it rejoin that
    cell first), then longest shared boundary, then lower component id.

    Slicing a volumetric segmentation by one frame leaves fragments far below
    any minimum size the segmentation itself guarantees; those fragments are
    too small to carry a meaningful motion model, so they are merged by shape
    before any model is fitted.  Smallest component first, ties to the lower
    id, until one component is left; ids follow first occurrence in row-major
    scan order.

    The small components wait in a heap keyed by (size, id).  A component
    that grows is pushed again with its new size, and an entry whose size is
    no longer its component's is skipped: sizes only grow, and an absorbed
    component's size is 0.  An absorbed fragment's boundary is read from its
    own pixels' in-frame 4-neighbors, so each step costs time in proportion
    to the fragment, not to the frame.
    """
    h, w = labels.shape
    if affinity is not None and np.shape(affinity) != labels.shape:
        raise ValueError(f"affinity of shape {np.shape(affinity)} does not match "
                         f"labels of shape {labels.shape}")
    # a frame of -1 around the components: a pixel's four neighbors are then
    # at fixed offsets in the flat array, and the frame is no component
    comp = np.full((h + 2, w + 2), -1, dtype=np.int64)
    comp[1:-1, 1:-1], count = _components(labels)
    comp = comp.ravel()
    aff = None if affinity is None else np.pad(affinity, 1).ravel()
    near = np.array([-1, 1, -(w + 2), w + 2])
    pieces = {c: [idx] for c, (idx,) in ndimage.value_indices(comp, ignore_value=-1).items()}
    size = [len(idx) for (idx,) in pieces.values()]
    heap = [(s, c) for c, s in enumerate(size) if s < min_region]
    heapq.heapify(heap)
    live = count
    while heap and live > 1:
        s, tgt = heapq.heappop(heap)
        if size[tgt] != s:
            continue
        idx = np.concatenate(pieces.pop(tgt))
        outer = (idx[:, None] + near).ravel()
        # the component on the far side of each pixel pair crossing the border
        across = comp[outer]
        cross = (across != tgt) & (across >= 0)
        across = across[cross]
        if aff is not None:
            agree = aff[np.repeat(idx, 4)[cross]] == aff[outer[cross]]
            if agree.any():
                across = across[agree]
        votes = Counter(across.tolist())
        into = min(votes, key=lambda c: (-votes[c], c))
        comp[idx] = into
        pieces[into].append(idx)
        size[into] += s
        size[tgt] = 0
        live -= 1
        if size[into] < min_region:
            heapq.heappush(heap, (size[into], into))
    return relabel_first_occurrence(comp.reshape(h + 2, w + 2)[1:-1, 1:-1])


def _gray(frame: np.ndarray) -> np.ndarray:
    """An RGB frame's float64 luma; a (H, W) grayscale frame as float64."""
    return luma_f64(frame) if frame.ndim == 3 else frame.astype(np.float64)


def motion_hierarchy(init_labels: np.ndarray, frame: np.ndarray,
                     flow: np.ndarray, schedule, p: int = 64, q: int = 64,
                     seed: int = 0,
                     ransac: RansacParams = RansacParams()) -> MotionHierarchy:
    """Level 0 = connected components of init_labels with RANSAC models;
    level l+1 = merge_pass of level l at tau = schedule[l]."""
    schedule = list(schedule)
    check_motion_params(schedule, p, q)
    frame_gray = _gray(frame)
    regions = _regions_from_labels(init_labels, flow, seed, ransac)
    levels = [_level(regions, init_labels.shape)]
    for li, tau in enumerate(schedule):
        regions = merge_pass(regions, _label_adjacency(levels[-1][0]), tau,
                             frame_gray, flow, p, q, derive_seed(seed, 2, li),
                             ransac)
        levels.append(_level(regions, init_labels.shape))
    return MotionHierarchy(levels=levels)


# ---------------------------------------------------------------- MRF

def _residual_costs(labels: np.ndarray, models: dict, frame_pair):
    """(model ids ascending, mrf_smooth's data cost of each id per pixel,
    labels as indices into the ids)."""
    prev, cur = frame_pair
    prev_gray, cur_gray = _gray(prev), _gray(cur)
    h, w = labels.shape
    ids = sorted(models)
    missing = set(np.unique(labels).tolist()) - set(ids)
    if missing:
        raise ValueError(f"labels without a model: {sorted(missing)}")
    xs, ys = pixel_grid(h, w)
    costs = np.empty((len(ids), h, w))
    for i, lab in enumerate(ids):
        u, v = models[lab].uv(xs, ys)
        px = xs + u
        py = ys + v
        inside = (px >= 0) & (px <= w - 1) & (py >= 0) & (py <= h - 1)
        costs[i] = np.where(inside, np.abs(cur_gray - bilinear_sample(prev_gray, px, py)),
                            255.0)
    return ids, costs, np.searchsorted(ids, labels)


def mrf_smooth(labels: np.ndarray, models: dict, frame_pair, lam: float) -> np.ndarray:
    """Potts smoothing of a motion labeling.

    frame_pair is (previous, current) in time order; the data cost of label l
    at pixel x is |current(x) - previous(x + uv_l(x))| on grayscale with
    bilinear sampling, 255 where the sample leaves the frame.  lambda weights
    the 4-neighbor boundary penalty.  Returns the relabeled frame; label ids
    are preserved.
    """
    ids, costs, init = _residual_costs(labels, models, frame_pair)
    out = alpha_expansion(costs, lam, init)
    return np.array(ids, dtype=np.int64)[out]


def motion_energy(labels: np.ndarray, models: dict, frame_pair, lam: float) -> float:
    """Energy of a labeling under mrf_smooth's objective (for assertions)."""
    _, costs, index = _residual_costs(labels, models, frame_pair)
    return labeling_energy(index, costs, lam)


# ---------------------------------------------------------------- tracking

def _forward_rasterize(labels: np.ndarray, models: dict, shape) -> np.ndarray:
    """Push every region one frame forward through its model's inverse point
    map; first write wins.  Smaller regions write first so that a moving
    object keeps its leading edge when it collides with the background's
    rasterization (foreground occludes).  Unclaimed pixels get -1."""
    out = np.full(shape, -1, dtype=np.int64)
    h, w = shape
    at = ndimage.value_indices(labels)
    for lab in sorted((l for l in models if l in at), key=lambda l: (len(at[l][0]), l)):
        try:
            fwd = invert_point_map(models[lab])
        except ValueError:
            log.warning("label %d has a singular model; not warped", lab)
            continue
        ys, xs = at[lab]
        px, py = apply_point_matrix(fwd, xs.astype(np.float64), ys.astype(np.float64))
        ix = round_half_up(px).astype(np.int64)
        iy = round_half_up(py).astype(np.int64)
        ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        ix, iy = ix[ok], iy[ok]
        empty = out[iy, ix] == -1
        out[iy[empty], ix[empty]] = lab
    return out


def associate_temporal(warped: np.ndarray, cur_labels: np.ndarray, next_fresh: int):
    """Map current-pair region labels onto the previous pair's labels.

    `warped` is the previous pair's labeling pushed forward by
    _forward_rasterize (-1 where nothing lands); each current region
    adopts the previous label with maximal overlap if that overlap is at
    least OVERLAP_FRAC of the region's area.  The mapping is injective: a
    previous label contested by several regions goes to the largest overlap
    (ties to the lower current label), everyone else gets fresh labels from
    next_fresh upward.  Returns (mapping dict, advanced next_fresh).
    """
    at = {int(c): idx for c, idx in ndimage.value_indices(cur_labels).items()}
    claims = {}
    for cid, idx in at.items():
        hit = warped[idx]
        hit = hit[hit >= 0]
        if hit.size:
            vals, counts = np.unique(hit, return_counts=True)
            best = int(np.argmax(counts))   # ties: np.unique sorts, so lower label
            if counts[best] >= OVERLAP_FRAC * len(idx[0]):
                claims[cid] = (int(vals[best]), int(counts[best]))
    winner = {}
    for cid in sorted(claims, key=lambda c: (-claims[c][1], c)):
        winner.setdefault(claims[cid][0], cid)
    mapping = {cid: prev_lab for prev_lab, cid in winner.items()}
    for cid in at:
        if cid not in mapping:
            mapping[cid] = next_fresh
            next_fresh += 1
    return mapping, next_fresh


def run_motion_stream(inputs, schedule, p: int = 64, q: int = 64,
                      mrf_lambda: float = 8.0, use_mrf: bool = False, seed: int = 0):
    """Motion-layer segmentation per frame pair with consistent labels.

    inputs yields (frame, backward flow of pair (t-1, t), supervoxel slice)
    for each frame t in order, the flow None at t = 0.  Each pair's result
    is yielded as soon as it is done; between pairs only the previous frame
    and the previous pair's tracked labels and models are kept.

    Pair t (grid of frame t, t in [1, T-1]) is initialized from the
    supervoxel slice at frame 1 for the first pair; afterwards from the
    forward-warped previous result (holes filled from the nearest labeled
    pixel) refined by the supervoxel slice at frame t, so region boundaries
    are re-derived from appearance every pair instead of accumulating
    rasterization error.  The top hierarchy level, optionally MRF-smoothed,
    is associated with the previous pair's output to keep object labels
    stable.
    """
    schedule = list(schedule)
    check_motion_params(schedule, p, q, mrf_lambda if use_mrf else 0.0)
    prev_frame = prev_tracked = prev_models = None
    for t, (frame, flow, sv_slice) in enumerate(inputs):
        if (flow is None) != (t == 0):
            raise ValueError("need one flow field per consecutive frame pair")
        if t == 0:
            prev_frame = frame
            continue
        flow = np.asarray(flow, dtype=np.float64)
        sv_slice = np.asarray(sv_slice).astype(np.int64)
        size = np.shape(prev_frame)
        if (np.shape(frame), flow.shape, sv_slice.shape) != (size, size[:2] + (2,), size[:2]):
            raise ValueError(f"frame {t}: frame, flow or supervoxel slice not of frame 0's size")
        if prev_tracked is None:
            init = sv_slice
        else:
            warped = _forward_rasterize(prev_tracked, prev_models,
                                        prev_tracked.shape)
            filled = warped
            if (warped < 0).any():
                _, (iy, ix) = ndimage.distance_transform_edt(
                    warped < 0, return_indices=True)
                filled = warped[iy, ix]
            # refine the warped labeling with the current supervoxel slice:
            # cells of the intersection keep the warp's motion identity but
            # their boundaries come from the frame's own segmentation
            init = filled * (int(sv_slice.max()) + 1) + sv_slice
        init = clean_small_components(init, MIN_REGION, affinity=sv_slice)
        hier = motion_hierarchy(init, frame, flow, schedule, p, q,
                                derive_seed(seed, 4, t))
        top_labels, top_models = hier.levels[-1]
        if use_mrf and len(top_models) > 1:
            top_labels = mrf_smooth(top_labels, top_models,
                                    (prev_frame, frame), mrf_lambda)
            top_models = {lab: top_models[lab]
                          for lab in np.unique(top_labels).tolist()}
        if prev_tracked is None:
            mapping = {lab: lab for lab in top_models}
            next_fresh = max(top_models, default=-1) + 1
        else:
            mapping, next_fresh = associate_temporal(warped, top_labels, next_fresh)
        src = sorted(mapping)
        tracked = np.array([mapping[k] for k in src],
                           dtype=np.int64)[np.searchsorted(src, top_labels)]
        tracked_models = {mapping[k]: m for k, m in top_models.items()}
        yield MotionPairResult(pair=t, hierarchy=hier, tracked_labels=tracked,
                               tracked_models=tracked_models)
        prev_frame, prev_tracked, prev_models = frame, tracked, tracked_models
    if prev_tracked is None:
        raise ValueError("need at least two frames")
