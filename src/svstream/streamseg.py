"""Flow-guided spatio-temporal grouping with a streaming hierarchy.

The voxel graph connects each voxel to its 8 in-frame neighbors and, for
t > 0, to the 9 voxels around its backward-flow target in the previous frame.
Level 0 groups voxels by the minimum-internal-difference criterion; higher
levels rebuild the graph over regions, weighting edges by color histogram
distance optionally fused with per-frame flow histogram distance, and regroup
with a geometrically growing threshold constant.

Streaming processes the video in subsequences of `subseq_len` frames.  Each
window spans the previous and the current subsequence; voxels of the previous
one enter pre-grouped into their already-emitted regions at every level, those
regions never merge with each other, and a region extended by new voxels keeps
its label.  Emitted labels are therefore final the moment a window closes, and
a video no longer than one subsequence reduces exactly to the non-streaming
build.

Voxel ids within a window are x + y*W + t*W*H, t counted from the window's
first frame.  Edges live in structured arrays of EDGE_DTYPE with fields
(a, b, w); ties in the grouping sweep break by (w, min id, max id).  A
window builds no edge between two frozen voxels: such an edge could only
join one emitted region to itself or to another, which never merge.

The grouping sweep is exact but blockwise: numpy drops, one block of sorted
edges at a time, every edge that can no longer merge anything (same root,
two marked roots, or in the cleanup pass two roots already large enough),
and the merge rule runs in Python over the remaining edges only.
"""

from dataclasses import dataclass

import numpy as np

from .imageops import round_half_up
from .unionfind import Forest

EDGE_DTYPE = np.dtype([("a", np.int64), ("b", np.int64), ("w", np.float64)])
CHI2_EPS = 1e-12
_COLOR_NORM = 255.0 * np.sqrt(3.0)


@dataclass(frozen=True)
class StreamConfig:
    subseq_len: int = 3
    levels: int = 6
    k0: float = 5.0
    k_growth: float = 2.0
    min_size: int = 10
    color_bins: int = 8
    flow_bins: int = 9
    flow_range: float = 16.0
    use_flow_edges: bool = True
    use_flow_feature: bool = True

    def __post_init__(self):
        if self.subseq_len < 1 or self.levels < 1 or self.min_size < 1:
            raise ValueError("subseq_len, levels, min_size must be >= 1")
        if self.k0 <= 0 or self.flow_range <= 0:
            raise ValueError("k0 and flow_range must be > 0")
        if self.k_growth <= 1:
            raise ValueError("k_growth must be > 1")
        if self.color_bins < 2 or self.flow_bins < 2:
            raise ValueError("histogram bin counts must be >= 2")


@dataclass
class SegmentationHierarchy:
    """Label volumes only: one (T, H, W) int64 array per level, finest first."""
    levels: list


# ---------------------------------------------------------------- edges

def make_edges(a, b, w) -> np.ndarray:
    e = np.empty(len(a), dtype=EDGE_DTYPE)
    e["a"] = a
    e["b"] = b
    e["w"] = w
    return e


def _color_weights(colors: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = colors[a] - colors[b]
    return np.sqrt(np.sum(d * d, axis=1)) / _COLOR_NORM


def build_spatial_edges(window: np.ndarray) -> np.ndarray:
    """8-neighborhood edges inside every frame of the window.

    Weight is Euclidean RGB distance normalized to [0, 1].
    """
    t_len, h, w = window.shape[:3]
    colors = window.reshape(-1, 3).astype(np.float64)
    base = np.arange(h * w, dtype=np.int64).reshape(h, w)
    frame_off = np.arange(t_len, dtype=np.int64) * (h * w)
    chunks = []
    for src, dst in (
        (base[:, :-1], base[:, 1:]),      # east
        (base[:-1, :], base[1:, :]),      # south
        (base[:-1, :-1], base[1:, 1:]),   # south-east
        (base[:-1, 1:], base[1:, :-1]),   # south-west
    ):
        a = (src.ravel()[None, :] + frame_off[:, None]).ravel()
        b = (dst.ravel()[None, :] + frame_off[:, None]).ravel()
        chunks.append(make_edges(a, b, _color_weights(colors, a, b)))
    return np.concatenate(chunks)


def build_temporal_edges(window: np.ndarray, flows, use_flow_edges: bool) -> np.ndarray:
    """Backward temporal edges: voxel (x, y, t) to the 9 voxels around
    (round(x+u), round(y+v)) in frame t-1, targets outside the frame dropped.

    With use_flow_edges off (or flows None) u = v = 0 and the set reduces to
    the grid 26-neighborhood's temporal part.  No (a, b) pair repeats: a is
    the voxel the edge starts from, and its nine targets are distinct.
    """
    t_len, h, w = window.shape[:3]
    if t_len < 2:
        return np.empty(0, dtype=EDGE_DTYPE)
    colors = window.reshape(-1, 3).astype(np.float64)
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    src_base = (xs + ys * w).astype(np.int64)
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
                a = src[ok]
                b = (tx[ok] + ty[ok] * w + (t - 1) * h * w)
                chunks.append(make_edges(a, b, _color_weights(colors, a, b)))
    return np.concatenate(chunks)


# ---------------------------------------------------------------- grouping

def _fh_sweep(forest: Forest, edges: np.ndarray, k: float, min_size: int) -> np.ndarray:
    """Ascending-weight merge sweep plus the small-component cleanup pass;
    returns the final root of every item.

    Ties break by (w, min id, max id).  Components whose marks are both set
    never merge (streaming freeze).  The forest must be flat on entry (every
    parent a root), as Forest() and _pre_union leave it.

    The sorted edges are visited in blocks.  numpy first drops each edge that
    stays a no-op for the rest of both passes, judged by the roots at the
    start of the block: its endpoints share a root (unions only merge), both
    roots are marked (marks survive unions and two marked roots never merge),
    or, in the cleanup pass, both roots already hold min_size items (sizes
    only grow).  The merge rule then runs in Python over the surviving edges
    in sweep order, so every union, size, internal difference and mark equals
    the edge-by-edge sweep's.  After a block that merged, one gather moves the
    absorbed roots' items to their new roots.
    """
    n = len(forest.parent)
    ea, eb, ew = edges["a"], edges["b"], edges["w"]
    order = np.lexsort((np.maximum(ea, eb), np.minimum(ea, eb), ew))
    ea, eb, ew = ea[order], eb[order], ew[order]
    root = np.array(forest.parent, dtype=np.int64)
    root_marked = np.array(forest.mark) >= 0
    root_size = np.array(forest.size, dtype=np.int64)
    find = forest.find
    union = forest.union
    size = forest.size
    internal = forest.internal
    mark = forest.mark
    block = max(1024, n // 4)
    for cleanup in (False, True):
        for s in range(0, len(ew), block):
            ra = root[ea[s:s + block]]
            rb = root[eb[s:s + block]]
            live = (ra != rb) & ~(root_marked[ra] & root_marked[rb])
            if cleanup:
                live &= (root_size[ra] < min_size) | (root_size[rb] < min_size)
            absorbed = []
            for a, b, w in zip(ra[live].tolist(), rb[live].tolist(),
                               ew[s:s + block][live].tolist()):
                a = find(a)
                b = find(b)
                if a == b or (mark[a] >= 0 and mark[b] >= 0):
                    continue
                if cleanup:
                    if size[a] >= min_size and size[b] >= min_size:
                        continue
                else:
                    lim_a = internal[a] + k / size[a]
                    lim_b = internal[b] + k / size[b]
                    if w > (lim_a if lim_a < lim_b else lim_b):
                        continue
                r = union(a, b)
                absorbed.append(a + b - r)
                if w > internal[r]:
                    internal[r] = w
            if absorbed:
                # a root's mark and size only grow, so a stale entry would
                # only keep more edges; refreshing them keeps the filter sharp
                now = [find(x) for x in absorbed]
                remap = np.arange(n, dtype=np.int64)
                remap[absorbed] = now
                root = remap[root]
                root_marked[now] = [mark[r] >= 0 for r in now]
                root_size[now] = [size[r] for r in now]
    return root


# ---------------------------------------------------------------- distances

def _chi2_rows(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """0.5 * sum((h-g)^2 / (h+g+eps)) over the last axis, for normalized
    histograms h, g stacked in rows; each value lies in [0, 1]."""
    d = ha - hb
    return 0.5 * np.sum(d * d / (ha + hb + CHI2_EPS), axis=-1)


def _fuse(d_c, d_f):
    return (1.0 - (1.0 - d_c) * (1.0 - d_f)) ** 2


def combine_distance(d_c: float, d_f: float) -> float:
    """Fuse color and flow distances: (1 - (1-d_c)(1-d_f))^2."""
    if not (0.0 <= d_c <= 1.0 and 0.0 <= d_f <= 1.0):
        raise ValueError("distances must be in [0, 1]")
    return _fuse(d_c, d_f)


# ---------------------------------------------------------------- features

def _color_bin(channel: np.ndarray, bins: int) -> np.ndarray:
    return (channel.astype(np.int64) * bins) // 256


def _flow_bin(component: np.ndarray, bins: int, radius: float) -> np.ndarray:
    clamped = np.clip(np.asarray(component, dtype=np.float64), -radius, radius)
    b = np.floor((clamped + radius) * bins / (2.0 * radius)).astype(np.int64)
    return np.clip(b, 0, bins - 1)


class _NodeFeatures:
    """Window-local histograms for the dense nodes of one hierarchy level."""

    def __init__(self, node_index: np.ndarray, num_nodes: int, colors_u8: np.ndarray,
                 flows, dims, config: StreamConfig):
        t_len, h, w = dims
        cb = config.color_bins
        self.color = np.zeros((num_nodes, 3, cb), dtype=np.float64)
        for c in range(3):
            bins = _color_bin(colors_u8[:, c], cb)
            counts = np.bincount(node_index * cb + bins, minlength=num_nodes * cb)
            self.color[:, c, :] = counts.reshape(num_nodes, cb)
        self.color /= self.color.sum(axis=-1, keepdims=True)
        self.flow = []       # per frame t >= 1: (u_hist, v_hist, present)
        if flows is None or t_len < 2:
            return
        fb = config.flow_bins
        for t in range(1, t_len):
            nodes_t = node_index[t * h * w:(t + 1) * h * w]
            field = np.asarray(flows[t - 1], dtype=np.float64)
            hists = []
            for comp in range(2):
                bins = _flow_bin(field[..., comp].ravel(), fb, config.flow_range)
                counts = np.bincount(nodes_t * fb + bins, minlength=num_nodes * fb)
                hist = counts.reshape(num_nodes, fb).astype(np.float64)
                mass = hist.sum(axis=-1, keepdims=True)
                hists.append(np.divide(hist, mass, out=np.zeros_like(hist),
                                       where=mass > 0))
            present = np.bincount(nodes_t, minlength=num_nodes) > 0
            self.flow.append((hists[0], hists[1], present))


# ---------------------------------------------------------------- hierarchy

def _region_pairs(edges: np.ndarray, node_index: np.ndarray, num_nodes: int):
    """Unique adjacent node pairs (pa < pb) inherited from the voxel edges."""
    if edges.size == 0:
        return (np.empty(0, dtype=np.int64),) * 2
    na = node_index[edges["a"]]
    nb = node_index[edges["b"]]
    differ = na != nb
    pmin = np.minimum(na[differ], nb[differ]).astype(np.int64)
    pmax = np.maximum(na[differ], nb[differ]).astype(np.int64)
    keys = np.unique(pmin * num_nodes + pmax)
    return keys // num_nodes, keys % num_nodes


def _pair_weights(feats: _NodeFeatures, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Weight of each region pair: color distance, fused with the flow distance
    (mean over the frames both occupy; 0 if none) when the features have flow."""
    dc = np.mean(_chi2_rows(feats.color[pa], feats.color[pb]), axis=-1)
    if not feats.flow:
        return dc
    df = np.zeros(len(pa))
    cnt = np.zeros(len(pa))
    for uh, vh, present in feats.flow:
        both = present[pa] & present[pb]
        if not both.any():
            continue
        cu = _chi2_rows(uh[pa[both]], uh[pb[both]])
        cv = _chi2_rows(vh[pa[both]], vh[pb[both]])
        df[both] += (cu + cv) / 2.0
        cnt[both] += 1.0
    df = np.divide(df, cnt, out=np.zeros_like(df), where=cnt > 0)
    return _fuse(dc, df)


class _StreamState:
    """Per-level label counters plus cumulative size / internal-difference
    tables for every label still alive in the newest subsequence."""

    def __init__(self, levels: int):
        self.counters = [0] * levels
        self.sizes = [dict() for _ in range(levels)]
        self.ints = [dict() for _ in range(levels)]


def _pre_union(forest: Forest, keys: np.ndarray, grown: np.ndarray,
               state: _StreamState, level: int) -> None:
    """On a fresh forest, link the items sharing a key (an emitted label; -1
    for a new item) straight to one root marked with it, so the forest stays
    flat for _fh_sweep.  Its size is the label's cumulative size plus grown,
    its members' voxels in the window's new frames; its internal difference
    is the label's recorded one."""
    members = np.flatnonzero(keys >= 0)
    ukeys, first, group = np.unique(keys[members], return_index=True,
                                    return_inverse=True)
    roots = members[first]
    parent = np.arange(len(keys), dtype=np.int64)
    parent[members] = roots[group]
    forest.parent[:len(keys)] = parent.tolist()
    group_grown = np.bincount(group, weights=grown[members], minlength=len(ukeys))
    for key, r, g in zip(ukeys.tolist(), roots.tolist(),
                         group_grown.astype(np.int64).tolist()):
        forest.size[r] = state.sizes[level][key] + g
        forest.internal[r] = state.ints[level][key]
        forest.mark[r] = key


def _close_level(forest: Forest, roots: np.ndarray, first_occ: np.ndarray,
                 state: _StreamState, level: int) -> np.ndarray:
    """Label a level's forest, given every item's root: marked roots keep
    their mark, fresh roots get the level's next labels ordered by first
    occurrence (first_occ[i] is the first-voxel key of item i).  Advances the
    level's counter, records every label's cumulative size and internal
    difference, and returns the label of each item."""
    uroots, inv = np.unique(roots, return_inverse=True)
    root_first = np.full(len(uroots), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(root_first, inv, first_occ)
    labels_u = np.array([forest.mark[r] for r in uroots], dtype=np.int64)
    fresh = labels_u < 0
    fresh_rank = np.argsort(np.argsort(root_first[fresh], kind="stable"), kind="stable")
    labels_u[fresh] = state.counters[level] + fresh_rank
    state.counters[level] += int(fresh.sum())
    for lab, r in zip(labels_u.tolist(), uroots.tolist()):
        state.sizes[level][lab] = forest.size[r]
        state.ints[level][lab] = forest.internal[r]
    return labels_u[inv]


def _group_level(prev_flat: np.ndarray, old_level: np.ndarray, edges: np.ndarray,
                 colors_u8: np.ndarray, flows, dims, config: StreamConfig, level: int,
                 state: _StreamState) -> np.ndarray:
    """One hierarchy level: regroup the regions of prev_flat and close the
    level in state; returns the label per voxel.

    old_level holds this level's emitted labels of the window's first
    len(old_level) voxels, the frozen ones.  A region grows in this window
    by exactly its voxels in the new frames: its frozen voxels were counted
    when the earlier window closed, and a fresh region has none.
    """
    node_labels, node_first, node_index = np.unique(
        prev_flat, return_index=True, return_inverse=True)
    nn = len(node_labels)
    feats = _NodeFeatures(node_index, nn, colors_u8, flows if config.use_flow_feature else None,
                          dims, config)
    pa, pb = _region_pairs(edges, node_index, nn)
    weights = _pair_weights(feats, pa, pb)

    parent = np.full(nn, -1, dtype=np.int64)
    parent[node_index[:len(old_level)]] = old_level
    grown = np.bincount(node_index[len(old_level):], minlength=nn)
    # a fresh node's size is its new voxels; _pre_union sizes the frozen ones
    forest = Forest(nn, sizes=grown.tolist())
    _pre_union(forest, parent, grown, state, level)

    # node ids rank like their labels, so ties break by (w, label a, label b)
    roots = _fh_sweep(forest, make_edges(pa, pb, weights),
                      config.k0 * config.k_growth ** level, config.min_size)
    return _close_level(forest, roots, node_first, state, level)[node_index]


def _window_edges(frames_w: np.ndarray, flows_w, config: StreamConfig,
                  frozen: int) -> np.ndarray:
    """The window's voxel edges except those joining two voxels of its first
    `frozen` frames: spatial edges of the new frames, temporal edges from the
    first new frame on.  Each left-out edge joins two voxels of one emitted
    label or of two, so it could only ever link two marked components."""
    h, w = frames_w.shape[1:3]
    spatial = build_spatial_edges(frames_w[frozen:])
    first = max(frozen - 1, 0)
    temporal = build_temporal_edges(frames_w[first:],
                                    None if flows_w is None else flows_w[first:],
                                    config.use_flow_edges)
    for edges, t0 in ((spatial, frozen), (temporal, first)):
        edges["a"] += t0 * h * w
        edges["b"] += t0 * h * w
    return np.concatenate([spatial, temporal])


def _window_pass(frames_w: np.ndarray, flows_w, config: StreamConfig,
                 old_labels: list, state: _StreamState):
    """Segment one window; old_labels (per level, covering the window's first
    frames, empty in the first window) carry the frozen result of the
    previous subsequence."""
    t_len, h, w = frames_w.shape[:3]
    n = t_len * h * w
    colors_u8 = frames_w.reshape(-1, 3)
    edges = _window_edges(frames_w, flows_w, config, len(old_labels[0]))

    forest = Forest(n)
    frozen = old_labels[0].ravel()
    _pre_union(forest, frozen, np.zeros_like(frozen), state, 0)
    roots = _fh_sweep(forest, edges, config.k0, config.min_size)
    levels_flat = [_close_level(forest, roots, np.arange(n, dtype=np.int64), state, 0)]
    for level in range(1, config.levels):
        levels_flat.append(_group_level(
            levels_flat[-1], old_labels[level].ravel(), edges, colors_u8, flows_w,
            (t_len, h, w), config, level, state))
    return [lf.reshape(t_len, h, w) for lf in levels_flat]


def _check_video(seq: np.ndarray, flows) -> None:
    if seq.ndim != 4 or seq.shape[3] != 3:
        raise ValueError("video must have shape (T, H, W, 3)")
    if flows is not None:
        if len(flows) != seq.shape[0] - 1:
            raise ValueError("need one flow field per consecutive frame pair")
        for f in flows:
            if np.asarray(f).shape != (seq.shape[1], seq.shape[2], 2):
                raise ValueError("flow field dimensions disagree with frames")


def stream_segment(seq: np.ndarray, flows,
                   config: StreamConfig = StreamConfig()) -> SegmentationHierarchy:
    """Segment a video in streaming windows of subseq_len frames.

    Window i spans subsequences v_{i-1} and v_i; the previous subsequence
    enters pre-grouped into its emitted regions at every level and those
    labels are never rewritten, so output for a prefix of the stream does not
    depend on later frames.  A video of at most subseq_len frames gives the
    single-window batch result exactly.
    """
    seq = np.asarray(seq)
    _check_video(seq, flows)
    t_total = seq.shape[0]
    h, w = seq.shape[1], seq.shape[2]
    state = _StreamState(config.levels)
    out = [np.empty((t_total, h, w), dtype=np.int64) for _ in range(config.levels)]
    starts = list(range(0, t_total, config.subseq_len))
    for wi, s in enumerate(starts):
        end = min(s + config.subseq_len, t_total)
        f0 = s if wi == 0 else starts[wi - 1]
        frames_w = seq[f0:end]
        flows_w = None
        if flows is not None and end - f0 >= 2:
            flows_w = [flows[j] for j in range(f0, end - 1)]
        old = [out[l][f0:s] for l in range(config.levels)]
        volumes = _window_pass(frames_w, flows_w, config, old, state)
        for l in range(config.levels):
            out[l][s:end] = volumes[l][s - f0:]
        # drop bookkeeping for labels that left the stream
        for l in range(config.levels):
            alive = set(np.unique(out[l][s:end]).tolist())
            state.sizes[l] = {k: v for k, v in state.sizes[l].items() if k in alive}
            state.ints[l] = {k: v for k, v in state.ints[l].items() if k in alive}
    return SegmentationHierarchy(out)
