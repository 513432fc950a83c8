"""Brute-force reference implementations.

The metric references are written as plain loops over voxels with exact
rational arithmetic, independent of the vectorized code under test.  The
motion references keep the one-hypothesis-at-a-time RANSAC loop, the
canonical warp that samples every pixel and the merge pass that computes
every pair distance afresh; the batched, geometry-first and memoized code in
svstream.motionlayers must reproduce them bit for bit, and
the per-label-value component loop must match its one-graph components,
the small-fragment cleanup that recounts the whole frame per fragment must
match the heap that reads only the fragment's pixels,
and the forward rasterization and temporal association that scan the frame
once per label must match the grouped ones.
The window's voxel edges have a reference that builds each direction and
frame pair as its own array and concatenates them; the count-first,
in-place build must give the same rows in the same order.
The supervoxel reference is the batch build: one level-0 sweep over the
whole video, then every higher level regrouped from scratch, each with the
edge-by-edge grouping sweep, which svstream.streamseg.stream_segment and its
blockwise sweep must reproduce for a video no longer than one window; its
region-graph weights have their own reference, which counts each region's
voxels into histograms and compares the regions pair by pair.  The
alpha-expansion reference runs each max flow forward, from the source over
the graph built from pair index lists, and sweeps every label until a whole
sweep is rejected; svstream.graphcut must give the same labels.  Slow on
purpose.
"""
import math
from fractions import Fraction

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from svstream.affine import AffineModel, apply_point_matrix, invert_point_map
from svstream.graphcut import _CAP_MAX, _SCALE, labeling_energy
from svstream.imageops import (bilinear_resize, bilinear_sample, grid_pairs4, pixel_grid,
                               relabel_first_occurrence, round_half_up)
from svstream.motionlayers import (DIVERGENCE_KAPPA, OVERLAP_FRAC, MotionRegion,
                                   RansacParams, _box_extent, region_distance)
from svstream.optflow import _HS_KERNEL, FlowParams, _pyramid, _to_gray
from svstream.rng import SplitMix64, derive_seed
from svstream.streamseg import (CHI2_EPS, VOXEL_EDGE_DTYPE, SegmentationHierarchy, _graph_edges,
                                _region_graph, build_spatial_edges, build_temporal_edges,
                                make_edges)


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


def oracle_warp_to_canonical(frame_gray, region, transform, p, q):
    """(values, valid) of the canonical patch: every canonical pixel is
    sampled, its preimage found on a full meshgrid, its membership looked up
    in a full-frame mask after clipping, and the invalid pixels zeroed."""
    h, w = frame_gray.shape
    xs = region.pixels[:, 0].astype(np.float64)
    ys = region.pixels[:, 1].astype(np.float64)
    u, v = transform.uv(xs, ys)
    x_lo, span_x = _box_extent(xs + u)
    y_lo, span_y = _box_extent(ys + v)
    cx, cy = np.meshgrid(np.arange(p, dtype=np.float64), np.arange(q, dtype=np.float64))
    gx = x_lo + cx * (span_x / (p - 1))
    gy = y_lo + cy * (span_y / (q - 1))
    try:
        inv = invert_point_map(transform)
    except ValueError:
        return np.zeros((q, p)), np.zeros((q, p), dtype=bool)
    sx, sy = apply_point_matrix(inv, gx, gy)
    in_frame = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    member = np.zeros((h, w), dtype=bool)
    member[region.pixels[:, 1], region.pixels[:, 0]] = True
    rx = np.clip(round_half_up(sx).astype(np.int64), 0, w - 1)
    ry = np.clip(round_half_up(sy).astype(np.int64), 0, h - 1)
    valid = in_frame & member[ry, rx]
    return np.where(valid, bilinear_sample(frame_gray, sx, sy), 0.0), valid


def oracle_directed_divergence(region_i, region_k, frame_gray, p, q):
    """(divergence, overlap penalty) from two fully sampled patches; the
    penalty is None when no pixel is jointly valid."""
    own_values, own_valid = oracle_warp_to_canonical(frame_gray, region_i,
                                                     region_i.model, p, q)
    values, valid = oracle_warp_to_canonical(frame_gray, region_i, region_k.model, p, q)
    joint = own_valid & valid
    n_joint = int(np.count_nonzero(joint))
    if n_joint == 0:
        return float("inf"), None
    diff = float(np.abs(own_values[joint] - values[joint]).sum())
    penalty = DIVERGENCE_KAPPA * (1.0 - n_joint / int(np.count_nonzero(own_valid | valid)))
    return diff / n_joint + penalty, penalty


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


def oracle_clean_small_components(labels, min_region, affinity=None):
    """Small-fragment cleanup read frame-wide: every step recounts every
    component's size, picks the smallest small one (ties to the lower id),
    and counts its border over all 4-neighbor pairs of the frame."""
    p, q = grid_pairs4(*labels.shape)
    agree = (np.ones(len(p), dtype=bool) if affinity is None   # every neighbor agrees
             else affinity.ravel()[p] == affinity.ravel()[q])
    comp, next_id = oracle_components(labels)
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


def oracle_forward_rasterize(labels, models, shape):
    """_forward_rasterize with one full-frame scan per model to size its
    label and another to find its pixels."""
    out = np.full(shape, -1, dtype=np.int64)
    h, w = shape
    sizes = {lab: int(np.count_nonzero(labels == lab)) for lab in models}
    for lab in sorted(models, key=lambda l: (sizes[l], l)):
        if sizes[lab] == 0:
            continue
        try:
            fwd = invert_point_map(models[lab])
        except ValueError:
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


def oracle_associate_temporal(warped, cur_labels, next_fresh):
    """associate_temporal with one full-frame mask per current region."""
    cur_ids = [int(c) for c in np.unique(cur_labels)]
    claims = {}
    for cid in cur_ids:
        mask = cur_labels == cid
        area = int(np.count_nonzero(mask))
        hit = warped[mask]
        hit = hit[hit >= 0]
        if hit.size:
            vals, counts = np.unique(hit, return_counts=True)
            best = int(np.argmax(counts))
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


# ---------------------------------------------------------------- supervoxels

class Forest:
    """Disjoint-set forest with the per-component bookkeeping grouping needs.

    Each component tracks its voxel size, its internal difference (the largest
    edge weight merged inside it so far), and an optional frozen mark.  Marks
    identify components whose label is already emitted by the streaming driver:
    two marked components must never merge, and a merge between a marked and an
    unmarked component keeps the mark (the emitted label absorbs the new one).
    """
    __slots__ = ("parent", "size", "internal", "mark")

    def __init__(self, num_nodes: int, sizes=None):
        self.parent = list(range(num_nodes))
        self.size = list(sizes) if sizes is not None else [1] * num_nodes
        self.internal = [0.0] * num_nodes
        self.mark = [-1] * num_nodes

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the components of roots a and b; the root of the larger one
        survives (a on a tie) and is returned."""
        if self.size[a] < self.size[b]:
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size[b]
        if self.internal[b] > self.internal[a]:
            self.internal[a] = self.internal[b]
        if self.mark[b] >= 0:
            self.mark[a] = self.mark[b]
        return a


def _oracle_voxel_edges(colors, a, b):
    ssd = sum((c[a] - c[b]) ** 2 for c in colors.T)
    return make_edges(a, b, ssd, VOXEL_EDGE_DTYPE)


def _oracle_spatial_edges(window):
    t_len, h, w = window.shape[:3]
    colors = window.reshape(-1, 3).astype(np.int32)
    base = np.arange(h * w, dtype=np.int32).reshape(h, w)
    frame_off = np.arange(t_len, dtype=np.int32) * (h * w)
    chunks = []
    for src, dst in ((base[:, :-1], base[:, 1:]), (base[:-1, :], base[1:, :]),
                     (base[:-1, :-1], base[1:, 1:]), (base[:-1, 1:], base[1:, :-1])):
        a = (src.ravel()[None, :] + frame_off[:, None]).ravel()
        b = (dst.ravel()[None, :] + frame_off[:, None]).ravel()
        chunks.append(_oracle_voxel_edges(colors, a, b))
    return np.concatenate(chunks)


def _oracle_temporal_edges(window, flows, use_flow_edges):
    t_len, h, w = window.shape[:3]
    if t_len < 2:
        return np.empty(0, dtype=VOXEL_EDGE_DTYPE)
    colors = window.reshape(-1, 3).astype(np.int32)
    xs, ys = pixel_grid(h, w)
    src_base = np.arange(h * w, dtype=np.int32).reshape(h, w)
    chunks = []
    for t in range(1, t_len):
        if use_flow_edges and flows is not None:
            u = np.asarray(flows[t - 1][..., 0], dtype=np.float64)
            v = np.asarray(flows[t - 1][..., 1], dtype=np.float64)
        else:
            u = np.zeros((h, w))
            v = np.zeros((h, w))
        bx = round_half_up(xs + u).astype(np.int64)
        by = round_half_up(ys + v).astype(np.int64)
        src = src_base + t * h * w
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                tx = bx + m
                ty = by + n
                ok = (tx >= 0) & (tx < w) & (ty >= 0) & (ty < h)
                chunks.append(_oracle_voxel_edges(colors, src[ok],
                                                  tx[ok] + ty[ok] * w + (t - 1) * h * w))
    return np.concatenate(chunks)


def oracle_window_edges(frames_w, flows_w, config, frozen):
    """A window's voxel edges in the program's row order, each direction
    (spatial) and each frame and target offset (temporal) built as its own
    array: spatial edges of the frames from `frozen` on, then temporal edges
    from frame max(frozen - 1, 0) on, ids counted from the window's first
    frame."""
    h, w = frames_w.shape[1:3]
    first = max(frozen - 1, 0)
    spatial = _oracle_spatial_edges(frames_w[frozen:])
    temporal = _oracle_temporal_edges(frames_w[first:],
                                      None if flows_w is None else flows_w[first:],
                                      config.use_flow_edges)
    for edges, t0 in ((spatial, frozen), (temporal, first)):
        edges["a"] += t0 * h * w
        edges["b"] += t0 * h * w
    return np.concatenate([spatial, temporal])


def oracle_voxel_weights(edges):
    """The voxel edges as EDGE_DTYPE rows with the float weight
    w = sqrt(ssd) / (255*sqrt(3))."""
    ssd = edges["ssd"].astype(np.float64)
    return make_edges(edges["a"], edges["b"], np.sqrt(ssd) / (255.0 * np.sqrt(3.0)))


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


def _forest_roots(forest) -> np.ndarray:
    return np.array([forest.find(i) for i in range(len(forest.parent))], dtype=np.int64)


def oracle_segment_level0(edges, num_voxels, k0, min_size):
    """Group voxels; returns dense labels (first-occurrence order) per voxel id.
    The sweep sorts float weights, not the edges' integer ssd."""
    forest = Forest(num_voxels)
    oracle_fh_sweep(forest, oracle_voxel_weights(edges), k0, min_size)
    return relabel_first_occurrence(_forest_roots(forest))


def oracle_region_weights(frames, flows, edges, node_index, config) -> dict:
    """{(a, b): weight} for every node pair a < b that a voxel edge joins,
    from each node's list of voxels: histograms by counting, the chi-squared
    distance summed term by term, the color distance averaged over the three
    channels, and, when config.use_flow_feature is on, flows are given and
    there are two frames or more, the flow distance averaged over the frames
    t >= 1 that hold voxels of both nodes (0 if none), fused with the color
    distance as 1 - (1 - d_c)(1 - d_f), squared."""
    frames = np.asarray(frames)
    t_len, h, w = frames.shape[:3]
    colors = frames.reshape(-1, 3).tolist()
    node_of = np.asarray(node_index).tolist()
    members = {}
    for voxel, node in enumerate(node_of):
        members.setdefault(node, []).append(voxel)
    cb, fb, r = config.color_bins, config.flow_bins, config.flow_range

    def histogram(bins, count):
        counts = [0] * count
        for b in bins:
            counts[b] += 1
        return [c / len(bins) for c in counts]

    def chi2(p, q):
        return 0.5 * sum((x - y) ** 2 / (x + y + CHI2_EPS) for x, y in zip(p, q))

    def flow_bin(x):
        return min(math.floor((min(max(x, -r), r) + r) * fb / (2.0 * r)), fb - 1)

    def flow_hists(voxels, t):
        field = np.asarray(flows[t - 1], dtype=np.float64)
        return [histogram([flow_bin(float(field[v % (h * w) // w, v % w, comp]))
                           for v in voxels], fb) for comp in range(2)]

    use_flow = config.use_flow_feature and flows is not None and t_len >= 2
    pairs = {(min(node_of[a], node_of[b]), max(node_of[a], node_of[b]))
             for a, b in zip(edges["a"].tolist(), edges["b"].tolist())
             if node_of[a] != node_of[b]}
    weights = {}
    for a, b in sorted(pairs):
        d_c = sum(chi2(histogram([colors[v][c] * cb // 256 for v in members[a]], cb),
                       histogram([colors[v][c] * cb // 256 for v in members[b]], cb))
                  for c in range(3)) / 3.0
        if not use_flow:
            weights[a, b] = d_c
            continue
        terms = []
        for t in range(1, t_len):
            in_a = [v for v in members[a] if v // (h * w) == t]
            in_b = [v for v in members[b] if v // (h * w) == t]
            if in_a and in_b:
                (ua, va), (ub, vb) = flow_hists(in_a, t), flow_hists(in_b, t)
                terms.append((chi2(ua, ub) + chi2(va, vb)) / 2.0)
        d_f = sum(terms) / len(terms) if terms else 0.0
        weights[a, b] = (1.0 - (1.0 - d_c) * (1.0 - d_f)) ** 2
    return weights


def voxel_region_edges(frames, flows, edges, node_index, nn, config) -> np.ndarray:
    """One hierarchy level's weighted region edges, built from the voxels
    rather than coarsened from the level below."""
    return _graph_edges(_region_graph(frames, flows, edges, node_index, nn, config), config)


def oracle_build_hierarchy(level0, frames, flows, config):
    """Grow the full hierarchy above a given finest segmentation of the whole
    video: level0 compacted to first-occurrence order, then each higher level
    regrouping the one below with threshold constant k0 * k_growth^level,
    each level numbered by first occurrence over the voxels."""
    frames = np.asarray(frames)
    t_len, h, w = frames.shape[:3]
    edges = np.concatenate([build_spatial_edges(frames),
                            build_temporal_edges(frames, flows, config.use_flow_edges)])
    levels = [relabel_first_occurrence(level0).ravel()]
    for level in range(1, config.levels):
        node_index = levels[-1]
        nn = int(node_index.max()) + 1
        forest = Forest(nn, sizes=np.bincount(node_index).tolist())
        oracle_fh_sweep(forest, voxel_region_edges(frames, flows, edges, node_index, nn, config),
                        config.k0 * config.k_growth ** level, config.min_size)
        levels.append(relabel_first_occurrence(_forest_roots(forest)[node_index]))
    return SegmentationHierarchy([lv.reshape(t_len, h, w) for lv in levels])


def oracle_expand(labels: np.ndarray, alpha: int, data_costs: np.ndarray, lam: float) -> np.ndarray:
    """Best labeling reachable by switching any pixel subset to alpha."""
    h, w = labels.shape
    n = h * w
    flat = labels.ravel()
    c0 = np.take_along_axis(data_costs, labels[None], axis=0)[0].ravel().astype(np.float64)
    c1 = data_costs[alpha].ravel().astype(np.float64)

    p_idx, q_idx = grid_pairs4(h, w)
    fp = flat[p_idx]
    fq = flat[q_idx]
    e00 = lam * (fp != fq)
    e01 = lam * (fp != alpha)
    e10 = lam * (fq != alpha)
    # E(xp, xq) = e00 + (e11-e01) xp + (e01-e00) xq + (e01+e10-e00-e11) xp (1-xq)
    pair_w = e01 + e10 - e00
    adj1 = np.zeros(n)
    np.add.at(adj1, p_idx, -e01)
    np.add.at(adj1, q_idx, e01 - e00)
    d = (c1 + adj1) - c0

    di = np.clip(round_half_up(d * _SCALE), -_CAP_MAX, _CAP_MAX).astype(np.int64)
    wi = np.clip(round_half_up(pair_w * _SCALE), 0, _CAP_MAX).astype(np.int64)

    src, snk = n, n + 1
    rows, cols, caps = [], [], []
    pos = di > 0
    rows.append(np.full(int(pos.sum()), src, dtype=np.int64))
    cols.append(np.flatnonzero(pos).astype(np.int64))
    caps.append(di[pos])
    neg = di < 0
    rows.append(np.flatnonzero(neg).astype(np.int64))
    cols.append(np.full(int(neg.sum()), snk, dtype=np.int64))
    caps.append(-di[neg])
    wpos = wi > 0
    rows.append(q_idx[wpos])
    cols.append(p_idx[wpos])
    caps.append(wi[wpos])

    graph = csr_matrix((np.concatenate(caps),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n + 2, n + 2), dtype=np.int64)
    result = maximum_flow(graph, src, snk)
    residual = graph - result.flow
    residual.data = np.where(residual.data > 0, residual.data, 0)
    residual.eliminate_zeros()
    reachable = breadth_first_order(residual, src, directed=True,
                                    return_predecessors=False)
    take = np.ones(n + 2, dtype=bool)
    take[reachable] = False
    out = flat.copy()
    out[take[:n]] = alpha
    return out.reshape(h, w)


def oracle_alpha_expansion(data_costs: np.ndarray, lam: float,
                           init_labels: np.ndarray) -> np.ndarray:
    """Minimize the Potts energy from init_labels; never increases energy.

    data_costs has shape (L, H, W); labels take values in [0, L).  Candidate
    labels are visited in ascending order, sweeping until no move is accepted.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    num_labels = data_costs.shape[0]
    if lam == 0:
        return np.argmin(data_costs, axis=0).astype(init_labels.dtype)
    labels = init_labels.copy()
    energy = labeling_energy(labels, data_costs, lam)
    improved = True
    while improved:
        improved = False
        for alpha in range(num_labels):
            candidate = oracle_expand(labels, alpha, data_costs, lam)
            cand_energy = labeling_energy(candidate, data_costs, lam)
            if cand_energy < energy - 1e-9:
                labels = candidate
                energy = cand_energy
                improved = True
    return labels


# ---------------------------------------------------------------- optical flow

def _oracle_solve_level(cur: np.ndarray, prev: np.ndarray, u: np.ndarray, v: np.ndarray,
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
            u_avg = ndimage.correlate(u, _HS_KERNEL, mode="nearest")
            v_avg = ndimage.correlate(v, _HS_KERNEL, mode="nearest")
            shared = (ix * (u_avg - u0) + iy * (v_avg - v0) + it) / denom
            u = u_avg - ix * shared
            v = v_avg - iy * shared
    return u, v


def oracle_compute_backward_flow(current: np.ndarray, previous: np.ndarray,
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
        u, v = _oracle_solve_level(cur_pyr[level], prev_pyr[level], u, v, params)
    return np.stack([u, v], axis=-1)
