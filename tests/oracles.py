"""Brute-force reference implementations.

The metric references are written as plain loops over voxels with exact
rational arithmetic, independent of the vectorized code under test.  The
motion references keep the one-hypothesis-at-a-time RANSAC loop and the
merge pass that computes every pair distance afresh; the batched and
memoized code in svstream.motionlayers must reproduce them bit for bit, and
the per-label-value component loop must match its one-graph components.
The supervoxel reference is the batch build: one level-0 sweep over the
whole video, then every higher level regrouped from scratch, each with the
edge-by-edge grouping sweep, which svstream.streamseg.stream_segment and its
blockwise sweep must reproduce for a video no longer than one window.  Slow
on purpose.
"""
from fractions import Fraction

import numpy as np
from scipy import ndimage

from svstream.affine import AffineModel
from svstream.imageops import relabel_first_occurrence
from svstream.motionlayers import (MotionRegion, RansacParams,
                                   region_distance)
from svstream.rng import SplitMix64, derive_seed
from svstream.streamseg import (SegmentationHierarchy, _close_level, _NodeFeatures,
                                _pair_weights, _region_pairs, _StreamState,
                                build_spatial_edges, build_temporal_edges,
                                make_edges)
from svstream.unionfind import Forest


def _luma_int(video):
    video = np.asarray(video)
    if video.ndim == 4:
        return (299 * video[..., 0].astype(np.int64)
                + 587 * video[..., 1].astype(np.int64)
                + 114 * video[..., 2].astype(np.int64))
    return video.astype(np.int64)


def _boundary_elements(vol):
    """Anchors of label changes: within-frame (x/y) and between-frame (t)."""
    t_n, h, w = vol.shape
    within = set()
    between = set()
    for t in range(t_n):
        for y in range(h):
            for x in range(w):
                if x + 1 < w and vol[t, y, x] != vol[t, y, x + 1]:
                    within.add((t, y, x))
                if y + 1 < h and vol[t, y, x] != vol[t, y + 1, x]:
                    within.add((t, y, x))
                if t + 1 < t_n and vol[t, y, x] != vol[t + 1, y, x]:
                    between.add((t, y, x))
    return within, between


def _recalled(gt_elems, pred_elems, tol):
    hits = 0
    for (t, y, x) in gt_elems:
        for (pt, py, px) in pred_elems:
            if pt == t and max(abs(py - y), abs(px - x)) <= tol:
                hits += 1
                break
    return hits


def oracle_br3d(pred, gt, tol):
    gw, gb = _boundary_elements(np.asarray(gt))
    pw, pb = _boundary_elements(np.asarray(pred))
    total = len(gw) + len(gb)
    if total == 0:
        return 1.0
    hits = _recalled(gw, pw, tol) + _recalled(gb, pb, tol)
    return float(Fraction(hits, total))


def oracle_br2d(pred, gt, tol):
    gw, _ = _boundary_elements(np.asarray(gt))
    pw, _ = _boundary_elements(np.asarray(pred))
    per_frame = []
    for t in range(np.asarray(gt).shape[0]):
        gf = {e for e in gw if e[0] == t}
        if not gf:
            continue
        pf = {e for e in pw if e[0] == t}
        per_frame.append(Fraction(_recalled(gf, pf, tol), len(gf)))
    if not per_frame:
        return 1.0
    return float(sum(per_frame) / len(per_frame))


def oracle_ev(pred, video):
    pred = np.asarray(pred)
    x = _luma_int(video)
    vals = [int(v) for v in x.ravel()]
    labs = [int(v) for v in pred.ravel()]
    n = len(vals)
    mu = Fraction(sum(vals), n)
    sums = {}
    counts = {}
    for lab, v in zip(labs, vals):
        sums[lab] = sums.get(lab, 0) + v
        counts[lab] = counts.get(lab, 0) + 1
    means = {lab: Fraction(sums[lab], counts[lab]) for lab in sums}
    num = sum((means[lab] - mu) ** 2 for lab in labs)
    den = sum((Fraction(v) - mu) ** 2 for v in vals)
    if den == 0:
        return 1.0
    return float(num / den)


def _acc_flat(pred, gt):
    """Mean covered fraction over gt segments; ties assign to lower gt label."""
    pred = [int(v) for v in np.asarray(pred).ravel()]
    gt = [int(v) for v in np.asarray(gt).ravel()]
    overlap = {}
    for p, g in zip(pred, gt):
        overlap.setdefault(p, {}).setdefault(g, 0)
        overlap[p][g] += 1
    assign = {}
    for p, per_g in overlap.items():
        best_g, best_n = None, -1
        for g in sorted(per_g):
            if per_g[g] > best_n:
                best_g, best_n = g, per_g[g]
        assign[p] = best_g
    segs = sorted(set(gt))
    fracs = []
    for g in segs:
        size = sum(1 for v in gt if v == g)
        covered = sum(1 for p, v in zip(pred, gt) if v == g and assign[p] == g)
        fracs.append(Fraction(covered, size))
    return sum(fracs) / len(fracs)


def oracle_acc3d(pred, gt):
    return float(_acc_flat(pred, gt))


def oracle_acc2d(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    per_frame = [_acc_flat(pred[t], gt[t]) for t in range(gt.shape[0])]
    return float(sum(per_frame) / len(per_frame))


def _ue_flat(pred, gt):
    pred = [int(v) for v in np.asarray(pred).ravel()]
    gt = [int(v) for v in np.asarray(gt).ravel()]
    sizes = {}
    for p in pred:
        sizes[p] = sizes.get(p, 0) + 1
    errs = []
    for g in sorted(set(gt)):
        touching = {p for p, v in zip(pred, gt) if v == g}
        g_size = sum(1 for v in gt if v == g)
        leak = sum(sizes[p] for p in touching)
        errs.append(Fraction(leak - g_size, g_size))
    return sum(errs) / len(errs)


def oracle_ue3d(pred, gt):
    return float(_ue_flat(pred, gt))


def oracle_ue2d(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    per_frame = [_ue_flat(pred[t], gt[t]) for t in range(gt.shape[0])]
    return float(sum(per_frame) / len(per_frame))


# ---------------------------------------------------------------- motion

def _ransac_inputs(pixels, flow):
    """(xs, ys, us, vs) of a region's pixels as float64."""
    pixels = np.asarray(pixels)
    if len(pixels) == 0:
        raise ValueError("cannot fit a model to an empty region")
    return (pixels[:, 0].astype(np.float64), pixels[:, 1].astype(np.float64),
            np.asarray(flow[pixels[:, 1], pixels[:, 0], 0], dtype=np.float64),
            np.asarray(flow[pixels[:, 1], pixels[:, 0], 1], dtype=np.float64))


def oracle_ransac_samples(pixels, flow, seed, params=RansacParams()):
    """Inlier mask of every non-collinear RANSAC sample in draw order: one
    splitmix64 draw and one hypothesis at a time, each scored on every pixel."""
    xs, ys, us, vs = _ransac_inputs(pixels, flow)
    n = len(xs)
    rng = SplitMix64(seed)
    tol2 = params.inlier_tol ** 2
    masks = []
    for _ in range(params.iterations):
        i = rng.next_below(n)
        j = rng.next_below(n)
        while j == i:
            j = rng.next_below(n)
        k = rng.next_below(n)
        while k == i or k == j:
            k = rng.next_below(n)
        # twice the signed triangle area; zero means collinear
        area = ((xs[j] - xs[i]) * (ys[k] - ys[i])
                - (xs[k] - xs[i]) * (ys[j] - ys[i]))
        if area == 0.0:
            continue
        design = np.array([[1.0, xs[i], ys[i]],
                           [1.0, xs[j], ys[j]],
                           [1.0, xs[k], ys[k]]])
        rhs = np.array([[us[i], vs[i]], [us[j], vs[j]], [us[k], vs[k]]])
        coef = np.linalg.solve(design, rhs)
        mu = coef[0, 0] + coef[1, 0] * xs + coef[2, 0] * ys
        mv = coef[0, 1] + coef[1, 1] * xs + coef[2, 1] * ys
        masks.append((mu - us) ** 2 + (mv - vs) ** 2 <= tol2)
    return masks


def oracle_fit_affine_ransac(pixels, flow, seed, params=RansacParams()):
    """Sequential RANSAC: the first sample of oracle_ransac_samples with the
    most inliers, refit by least squares."""
    xs, ys, us, vs = _ransac_inputs(pixels, flow)
    if len(xs) < params.min_pixels:
        return AffineModel(a1=float(us.mean()), a4=float(vs.mean()))
    best_count = -1
    best_inliers = None
    for mask in oracle_ransac_samples(pixels, flow, seed, params):
        count = int(np.count_nonzero(mask))
        if count > best_count:
            best_count = count
            best_inliers = mask
    if best_inliers is None:
        return AffineModel.fit_lstsq(xs, ys, us, vs)
    sel = best_inliers
    return AffineModel.fit_lstsq(xs[sel], ys[sel], us[sel], vs[sel])


def oracle_merge_pass(regions, adjacency, tau, frame_gray, flow, p, q, seed,
                      ransac=RansacParams()):
    """First-fit merging that calls region_distance for every pair it scans
    and refits merged regions with oracle_fit_affine_ransac."""
    by_id = {r.id: r for r in regions}
    neigh = {r.id: set() for r in regions}
    for a, b in adjacency:
        if a in neigh and b in neigh and a != b:
            neigh[a].add(b)
            neigh[b].add(a)
    merges = 0
    changed = True
    while changed:
        changed = False
        for rid in sorted(by_id):
            if rid not in by_id:
                continue
            rescan = True
            while rescan:
                rescan = False
                region = by_id[rid]
                for other_id in sorted(neigh[rid]):
                    other = by_id[other_id]
                    dist = region_distance(region, other, frame_gray, p, q)
                    if dist <= tau:
                        keep, drop = min(rid, other_id), max(rid, other_id)
                        pixels = np.concatenate([by_id[keep].pixels,
                                                 by_id[drop].pixels])
                        model = oracle_fit_affine_ransac(
                            pixels, flow, derive_seed(seed, 3, merges), ransac)
                        merges += 1
                        merged_neigh = (neigh[keep] | neigh[drop]) - {keep, drop}
                        for nb in neigh[drop]:
                            neigh[nb].discard(drop)
                            if nb != keep:
                                neigh[nb].add(keep)
                        for nb in neigh[keep] - merged_neigh:
                            neigh[nb].discard(keep)
                        del by_id[drop], neigh[drop]
                        by_id[keep] = MotionRegion(keep, pixels, model)
                        neigh[keep] = merged_neigh
                        rid = keep
                        changed = True
                        rescan = True
                        break
    return [by_id[rid] for rid in sorted(by_id)]


def oracle_components(labels):
    """4-connected components of every label value, one ndimage.label call per
    value: (ids (H, W), count), ids ordered by label value, then by scipy's
    scan order within one value."""
    comp = np.full(labels.shape, -1, dtype=np.int64)
    count = 0
    for lab in np.unique(labels):
        cc, num = ndimage.label(labels == lab)
        inside = cc > 0
        comp[inside] = cc[inside] + (count - 1)
        count += num
    return comp, count


# ---------------------------------------------------------------- supervoxels

def oracle_fh_sweep(forest, edges, k, min_size):
    """Edge-by-edge merge sweep plus the small-component cleanup pass, in
    (w, min id, max id) order; two marked components never merge."""
    ea, eb, ew = edges["a"], edges["b"], edges["w"]
    order = np.lexsort((np.maximum(ea, eb), np.minimum(ea, eb), ew)).tolist()
    ea, eb, ew = ea.tolist(), eb.tolist(), ew.tolist()
    find = forest.find
    size = forest.size
    internal = forest.internal
    mark = forest.mark
    for i in order:
        a = find(ea[i])
        b = find(eb[i])
        if a == b or (mark[a] >= 0 and mark[b] >= 0):
            continue
        w = ew[i]
        lim_a = internal[a] + k / size[a]
        lim_b = internal[b] + k / size[b]
        if w <= (lim_a if lim_a < lim_b else lim_b):
            r = forest.union(a, b)
            if w > internal[r]:
                internal[r] = w
    for i in order:
        a = find(ea[i])
        b = find(eb[i])
        if a == b or (mark[a] >= 0 and mark[b] >= 0):
            continue
        if size[a] < min_size or size[b] < min_size:
            r = forest.union(a, b)
            w = ew[i]
            if w > internal[r]:
                internal[r] = w


def _oracle_close(forest, first_occ, state, level):
    roots = np.array([forest.find(i) for i in range(len(first_occ))], dtype=np.int64)
    return _close_level(forest, roots, first_occ, state, level)


def oracle_segment_level0(edges, num_voxels, k0, min_size):
    """Group voxels; returns dense labels (first-occurrence order) per voxel id."""
    forest = Forest(num_voxels)
    oracle_fh_sweep(forest, edges, k0, min_size)
    return _oracle_close(forest, np.arange(num_voxels, dtype=np.int64), _StreamState(1), 0)


def oracle_build_hierarchy(level0, frames, flows, config):
    """Grow the full hierarchy above a given finest segmentation of the whole
    video: level0 compacted to first-occurrence order, then each higher level
    regrouping the one below with threshold constant k0 * k_growth^level."""
    frames = np.asarray(frames)
    t_len, h, w = frames.shape[:3]
    colors_u8 = frames.reshape(-1, 3)
    edges = np.concatenate([build_spatial_edges(frames),
                            build_temporal_edges(frames, flows, config.use_flow_edges)])
    state = _StreamState(config.levels)
    levels = [relabel_first_occurrence(level0).ravel()]
    for level in range(1, config.levels):
        _, node_first, node_index = np.unique(levels[-1], return_index=True,
                                              return_inverse=True)
        nn = len(node_first)
        feats = _NodeFeatures(node_index, nn, colors_u8,
                              flows if config.use_flow_feature else None,
                              (t_len, h, w), config)
        pa, pb = _region_pairs(edges, node_index, nn)
        forest = Forest(nn, sizes=np.bincount(node_index).tolist())
        oracle_fh_sweep(forest, make_edges(pa, pb, _pair_weights(feats, pa, pb)),
                        config.k0 * config.k_growth ** level, config.min_size)
        levels.append(_oracle_close(forest, node_first, state, level)[node_index])
    return SegmentationHierarchy([lv.reshape(t_len, h, w) for lv in levels])
