"""Hierarchical affine motion-layer segmentation over supervoxel regions.

Per frame pair, regions seeded from the supervoxel segmentation get affine
models fitted to the backward flow by RANSAC.  Regions merge bottom-up when
their models explain each other's appearance: region i is warped into a fixed
p x q canonical patch once under its own model and once under the other
region's, and the directed divergence compares the two patches.  The merge
distance is the max of the two directions, so it is symmetric even though the
directed divergences generally are not.  An optional Potts-model smoothing
of the final labeling and forward-warp label association across frame pairs
complete the streaming driver.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .affine import AffineModel, apply_point_matrix, invert_point_map
from .graphcut import alpha_expansion, labeling_energy
from .imageops import (bilinear_sample, grid_pairs4, luma_f64, relabel_first_occurrence,
                       round_half_up)
from .rng import derive_seed, splitmix64_block

log = logging.getLogger(__name__)

DIVERGENCE_KAPPA = 64.0
_SCORE_BLOCK = 1 << 16      # hypotheses x pixels scored at once by RANSAC
MIN_REGION = 12             # smaller components of a pair's initial labeling are absorbed
OVERLAP_FRAC = 0.3          # share of a region's area that must overlap to keep a label


@dataclass(frozen=True)
class RansacParams:
    inlier_tol: float = 0.5
    iterations: int = 200
    min_pixels: int = 12

    def __post_init__(self):
        if self.inlier_tol <= 0 or self.iterations < 1 or self.min_pixels < 3:
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
    increasing and a negative MRF lambda with ValueError, before any work."""
    if p < 2 or q < 2:
        raise ValueError("canonical size must be at least 2x2")
    schedule = list(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("tau schedule must be strictly increasing")
    if mrf_lambda < 0:
        raise ValueError("lambda must be >= 0")


# ---------------------------------------------------------------- fitting

def fit_affine_ransac(pixels: np.ndarray, flow: np.ndarray, seed: int,
                      params: RansacParams = RansacParams()) -> AffineModel:
    """Fit u = a1+a2 x+a3 y, v = a4+a5 x+a6 y to the flow at the given pixels.

    Samples 3-pixel exact solutions from a seeded splitmix64 stream, keeps the
    largest inlier set (residual norm <= inlier_tol; ties go to the earlier
    sample), and refits it by least squares.  Regions smaller than min_pixels
    get the translation-only model (mean flow); if every sample is collinear
    the whole region is fit directly.  The stream is drawn in blocks
    (rng.splitmix64_block) and one batched solve gives the models of every
    sample after the first.

    Only samples that can still win are drawn and scored.  Sample 0 is drawn,
    solved and scored on every pixel first; it is the first best, and when
    it explains every pixel no other sample is drawn.  A later sample
    replaces the best only with strictly more inliers, so it must be an
    inlier somewhere the best misses.  Each block of later samples is
    therefore scored on the best's missed pixels first, and only the samples
    that hit one are scored on the best's inlier pixels.  Once the best
    explains every pixel, nothing after it is scored.  A sample costs at most
    n pixel tests and a block at most _SCORE_BLOCK (samples x pixels)
    elements; the result is bit-identical to drawing and scoring the samples
    one at a time.
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

    draws = _hypothesis_triples(n, seed, 4 * params.iterations)

    def samples(count):     # models of the next count draws, collinear ones dropped
        tri = np.array(list(itertools.islice(draws, count)), dtype=np.int64).reshape(-1, 3)
        i, j, k = tri.T
        # twice the signed triangle area; zero means collinear
        area = ((xs[j] - xs[i]) * (ys[k] - ys[i])
                - (xs[k] - xs[i]) * (ys[j] - ys[i]))
        tri = tri[area != 0.0]
        return np.linalg.solve(np.stack([np.ones(tri.shape), xs[tri], ys[tri]], axis=-1),
                               np.stack([us[tri], vs[tri]], axis=-1))[:, :, :, None]

    pts = (xs, ys, us, vs)

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

    coef = samples(1)
    sel = inliers(coef, pts)[0] if len(coef) else np.zeros(n, dtype=bool)
    if not sel.all():   # the other samples are drawn only if they can win
        first_scored = len(coef) > 0
        coef = np.concatenate([coef, samples(params.iterations - 1)])
        if len(coef) == 0:
            return AffineModel.fit_lstsq(xs, ys, us, vs)
        if not first_scored:    # sample 0 was collinear; score the first model
            sel = inliers(coef[:1], pts)[0]
    best = int(np.count_nonzero(sel))
    subsets = None
    rows = max(1, _SCORE_BLOCK // n)
    for start in range(1, len(coef), rows):
        if best == n:
            break
        block = coef[start:start + rows]
        if subsets is None:     # the best's missed and inlier pixels
            subsets = (tuple(a[~sel] for a in pts), tuple(a[sel] for a in pts))
        missed, kept = subsets
        hits = np.count_nonzero(inliers(block, missed), axis=1)
        live = np.nonzero(hits)[0]
        if live.size == 0:
            continue
        counts = hits[live] + np.count_nonzero(inliers(block[live], kept), axis=1)
        if counts.max() > best:
            top = int(np.argmax(counts))
            best = int(counts[top])
            sel = inliers(block[live[top]][None], pts)[0]
            subsets = None
    return AffineModel.fit_lstsq(xs[sel], ys[sel], us[sel], vs[sel])


def _hypothesis_triples(n: int, seed: int, block: int):
    """Endless triples of distinct SplitMix64(seed).next_below(n) draws in
    stream order, skipping a draw that repeats one of its triple's; block
    draws at a time."""
    stream = (d for start in itertools.count(0, block)
              for d in (splitmix64_block(seed, start, block) % np.uint64(n)).tolist())
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
    the region.  A singular transform yields an all-invalid patch; a
    degenerate bounding box axis is treated as 1 px wide.
    """
    check_motion_params((), p, q)
    if region.n == 0:
        raise ValueError("empty region")
    h, w = frame_gray.shape
    xs = region.pixels[:, 0].astype(np.float64)
    ys = region.pixels[:, 1].astype(np.float64)
    u, v = transform.uv(xs, ys)
    x_lo, span_x = _box_extent(xs + u)
    y_lo, span_y = _box_extent(ys + v)
    cx, cy = np.meshgrid(np.arange(p, dtype=np.float64),
                         np.arange(q, dtype=np.float64))
    gx = x_lo + cx * (span_x / (p - 1))
    gy = y_lo + cy * (span_y / (q - 1))
    try:
        inv = invert_point_map(transform)
    except ValueError:
        return CanonicalPatch(np.zeros((q, p)), np.zeros((q, p), dtype=bool))
    sx, sy = apply_point_matrix(inv, gx, gy)

    in_frame = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    member = np.zeros((h, w), dtype=bool)
    member[region.pixels[:, 1], region.pixels[:, 0]] = True
    rx = np.clip(round_half_up(sx).astype(np.int64), 0, w - 1)
    ry = np.clip(round_half_up(sy).astype(np.int64), 0, h - 1)
    valid = in_frame & member[ry, rx]
    values = np.where(valid, bilinear_sample(frame_gray, sx, sy), 0.0)
    return CanonicalPatch(values, valid)


def _box_extent(d: np.ndarray):
    """(start, span) of one box axis.  A span under one pixel, degenerate or
    not, widens to one pixel centered on the box: thin regions then warp
    consistently under nearby models, and a frame-edge pixel lands mid-strip
    instead of exactly on the validity boundary."""
    lo, hi = float(d.min()), float(d.max())
    if hi - lo < 1.0:
        return 0.5 * (lo + hi) - 0.5, 1.0
    return lo, hi - lo


def _patch_divergence(own, other) -> float:
    """Divergence between a region's canonical patch under its own model and
    under another model (see directed_divergence)."""
    joint = own.valid_mask & other.valid_mask
    n_joint = int(np.count_nonzero(joint))
    if n_joint == 0:
        return float("inf")
    diff = float(np.abs(own.values[joint] - other.values[joint]).sum())
    n_union = int(np.count_nonzero(own.valid_mask | other.valid_mask))
    return diff / n_joint + DIVERGENCE_KAPPA * (1.0 - n_joint / n_union)


def directed_divergence(region_i: MotionRegion, region_k: MotionRegion,
                        frame_gray: np.ndarray, p: int, q: int) -> float:
    """How badly region k's model explains region i's content.

    Region i is warped to canonical coordinates under both models; the
    divergence is the mean absolute patch difference over jointly valid
    pixels plus DIVERGENCE_KAPPA * (1 - joint/union), so identical models
    give exactly 0 and barely-overlapping warps are penalized.  No jointly
    valid pixel gives +inf.
    """
    return _patch_divergence(
        warp_to_canonical(frame_gray, region_i, region_i.model, p, q),
        warp_to_canonical(frame_gray, region_i, region_k.model, p, q))


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

    Each region's canonical patch under its own model and each pair's tau
    decision, region_distance <= tau, are memoized for the call; merging drop
    into keep invalidates every entry that involves keep or drop.  A decision
    is max(d_ik, d_ki) <= tau, so the second directed divergence is computed
    only when the first is within tau.  A warp under a neighbor's model serves
    only its pair's decision and is not kept.
    """
    by_id = {r.id: r for r in regions}
    neigh = {r.id: set() for r in regions}
    for a, b in adjacency:
        if a in neigh and b in neigh and a != b:
            neigh[a].add(b)
            neigh[b].add(a)
    own_patch, within_tau = {}, {}

    def directed(ri: MotionRegion, rk: MotionRegion) -> float:
        if ri.id not in own_patch:
            own_patch[ri.id] = warp_to_canonical(frame_gray, ri, ri.model, p, q)
        return _patch_divergence(own_patch[ri.id],
                                 warp_to_canonical(frame_gray, ri, rk.model, p, q))

    def first_within_tau(rid: int):
        for other in sorted(neigh[rid]):
            pair = (min(rid, other), max(rid, other))
            if pair not in within_tau:
                within_tau[pair] = (directed(by_id[rid], by_id[other]) <= tau
                                    and directed(by_id[other], by_id[rid]) <= tau)
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
                own_patch.pop(keep, None)
                own_patch.pop(drop, None)
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
    for rid in range(comp.max() + 1):
        ys, xs = np.nonzero(comp == rid)
        pixels = np.column_stack([xs, ys]).astype(np.int64)
        model = fit_affine_ransac(pixels, flow, derive_seed(seed, 1, rid), ransac)
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
    labeling: fragments sliced off a cell of it rejoin that cell first), then
    longest shared boundary, then lower component id.

    Slicing a volumetric segmentation by one frame leaves fragments far below
    any minimum size the segmentation itself guarantees; those fragments are
    too small to carry a meaningful motion model, so they are merged by shape
    before any model is fitted.  Smallest component first; ids follow
    first occurrence in row-major scan order.
    """
    p, q = grid_pairs4(*labels.shape)
    agree = (np.ones(len(p), dtype=bool) if affinity is None   # every neighbor agrees
             else affinity.ravel()[p] == affinity.ravel()[q])
    comp, next_id = _components(labels)
    comp = comp.ravel()
    while True:
        sizes = np.bincount(comp, minlength=next_id)
        live = np.nonzero(sizes)[0]
        small = live[sizes[live] < min_region]
        if small.size == 0 or live.size == 1:
            break
        tgt = int(small[np.argsort(sizes[small], kind="stable")[0]])
        inside = comp == tgt
        cross = inside[p] != inside[q]
        if not cross.any():
            break
        # the component on the far side of each pair crossing the border
        across = np.where(inside[p[cross]], comp[q[cross]], comp[p[cross]])
        border = np.bincount(across[agree[cross]], minlength=next_id)
        if not border.any():
            border = np.bincount(across, minlength=next_id)
        comp[inside] = int(np.argmax(border))
    return relabel_first_occurrence(comp.reshape(labels.shape))


def motion_hierarchy(init_labels: np.ndarray, frame: np.ndarray,
                     flow: np.ndarray, schedule, p: int = 64, q: int = 64,
                     seed: int = 0,
                     ransac: RansacParams = RansacParams()) -> MotionHierarchy:
    """Level 0 = connected components of init_labels with RANSAC models;
    level l+1 = merge_pass of level l at tau = schedule[l]."""
    schedule = list(schedule)
    check_motion_params(schedule, p, q)
    frame_gray = luma_f64(frame) if frame.ndim == 3 else frame.astype(np.float64)
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
    prev_gray = luma_f64(prev) if prev.ndim == 3 else prev.astype(np.float64)
    cur_gray = luma_f64(cur) if cur.ndim == 3 else cur.astype(np.float64)
    h, w = labels.shape
    ids = sorted(models)
    missing = set(np.unique(labels).tolist()) - set(ids)
    if missing:
        raise ValueError(f"labels without a model: {sorted(missing)}")
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
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
    sizes = {lab: int(np.count_nonzero(labels == lab)) for lab in models}
    for lab in sorted(models, key=lambda l: (sizes[l], l)):
        if sizes[lab] == 0:
            continue
        try:
            fwd = invert_point_map(models[lab])
        except ValueError:
            log.warning("label %d has a singular model; not warped", lab)
            continue
        ys, xs = np.nonzero(labels == lab)
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
    cur_ids = [int(c) for c in np.unique(cur_labels)]
    claims = {}
    for cid in cur_ids:
        mask = cur_labels == cid
        area = int(np.count_nonzero(mask))
        hit = warped[mask]
        hit = hit[hit >= 0]
        if hit.size:
            vals, counts = np.unique(hit, return_counts=True)
            best = int(np.argmax(counts))   # ties: np.unique sorts, so lower label
            if counts[best] >= OVERLAP_FRAC * area:
                claims[cid] = (int(vals[best]), int(counts[best]))
    winner = {}
    for cid in sorted(claims, key=lambda c: (-claims[c][1], c)):
        winner.setdefault(claims[cid][0], cid)
    mapping = {cid: prev_lab for prev_lab, cid in winner.items()}
    for cid in cur_ids:
        if cid not in mapping:
            mapping[cid] = next_fresh
            next_fresh += 1
    return mapping, next_fresh


def run_motion_stream(seq: np.ndarray, flows, supervoxels, level_pick: int,
                      schedule, p: int = 64, q: int = 64,
                      mrf_lambda: float = 8.0, use_mrf: bool = False,
                      seed: int = 0) -> list:
    """Motion-layer segmentation per frame pair with consistent labels.

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
    seq = np.asarray(seq)
    if seq.shape[0] < 2:
        raise ValueError("need at least two frames")
    if len(flows) != seq.shape[0] - 1:
        raise ValueError("need one flow field per consecutive frame pair")
    results = []
    prev_tracked = prev_models = None
    for t in range(1, seq.shape[0]):
        flow = np.asarray(flows[t - 1], dtype=np.float64)
        sv_slice = np.asarray(supervoxels.levels[level_pick][t]).astype(np.int64)
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
        hier = motion_hierarchy(init, seq[t], flow, schedule, p, q,
                                derive_seed(seed, 4, t))
        top_labels, top_models = hier.levels[-1]
        if use_mrf and len(top_models) > 1:
            top_labels = mrf_smooth(top_labels, top_models,
                                    (seq[t - 1], seq[t]), mrf_lambda)
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
        results.append(MotionPairResult(pair=t, hierarchy=hier,
                                        tracked_labels=tracked,
                                        tracked_models=tracked_models))
        prev_tracked = tracked
        prev_models = tracked_models
    return results
