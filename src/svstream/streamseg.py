"""Flow-guided spatio-temporal grouping with a streaming hierarchy.

The voxel graph connects each voxel to its 8 in-frame neighbors and, for
t > 0, to the 9 voxels around its backward-flow target in the previous frame.
Level 0 groups voxels by the minimum-internal-difference criterion; higher
levels group the regions of the level below, weighting edges by color
histogram distance optionally fused with per-frame flow histogram distance,
with a geometrically growing threshold constant.  A window builds level 1's
region graph from its voxels: the node pairs its voxel edges join and each
node's color and per-frame flow bin counts.  Each higher level's graph is
coarsened from the one below: pairs mapped to their parents, counts summed.
The counts are whole numbers, so the weights equal a build from the voxels.

Streaming processes the video in subsequences of `subseq_len` frames.  Each
window spans the previous and the current subsequence; voxels of the previous
one enter pre-grouped into their already-emitted regions at every level, those
regions never merge with each other, and a region extended by new voxels keeps
its label.  Emitted labels are therefore final the moment a window closes, and
a video no longer than one subsequence reduces exactly to the non-streaming
build.  stream_blocks takes the video one subsequence at a time and yields
each one's labels as its window closes; stream_segment collects them for a
video held in memory.

Voxel ids within a window are x + y*W + t*W*H, t counted from the window's
first frame; a window must hold fewer than 2**31 voxels, and stream_blocks
refuses a window that would not.  A voxel edge carries the integer squared
RGB distance ssd of two uint8 voxels, a region edge (EDGE_DTYPE) a float64
weight w.  Ties in the grouping sweep break by (w, min id, max id).  A
window holds each voxel edge as one int64 key, ssd << (b + c) | min << c |
(max - min), whose order is the sweep order; _key_layout gives b and c, or
None for a window whose keys would need more than 63 bits, which holds 12 B
VOXEL_EDGE_DTYPE rows (int32 a, b and ssd) instead.  A window builds no
edge between two frozen voxels: such an edge could only join one emitted
region to itself or to another, which never merge.  Its edge count and
the builders' fill read one enumeration per family, so one array of exactly
that size is filled in place; the sweep's endpoints and level 1's node
pairs decode it one chunk of _CHUNK edges at a time.

The grouping sweep is exact but blockwise.  A level's state goes in and
comes out as numpy arrays: each item's root and each root's size, internal
difference and mark.  The sweep sorts the edges it is given into sweep order
in place, so a window keeps one edge array; level 1's region graph reads
only its endpoints, in any order.  numpy drops, one block of sorted edges
at a time, every edge that can no longer merge anything (same root, two
marked roots, or in the cleanup pass two roots already large enough), and
the merge rule runs in Python over the remaining edges only, on lists of
the block's roots alone, built at the block's start and dropped at its end.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .imageops import pixel_grid, round_half_up

EDGE_DTYPE = np.dtype([("a", np.int32), ("b", np.int32), ("w", np.float64)])
VOXEL_EDGE_DTYPE = np.dtype([("a", np.int32), ("b", np.int32), ("ssd", np.int32)])
CHI2_EPS = 1e-12
_COLOR_NORM = 255.0 * np.sqrt(3.0)
# edges per chunk of a window's per-edge temporaries: each stays below 128 KB
_CHUNK = 1 << 14


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
        if not (self.k0 > 0 and self.flow_range > 0
                and 2.0 * self.flow_range * self.flow_bins < np.inf):
            raise ValueError("k0 and flow_range must be > 0, 2*flow_range*flow_bins finite")
        if not self.k_growth > 1:
            raise ValueError("k_growth must be > 1")
        try:
            top_k = self.k0 * float(self.k_growth) ** (self.levels - 1)
        except OverflowError:
            top_k = np.inf
        if not top_k < np.inf:
            raise ValueError("k0 * k_growth ** (levels - 1) must be finite")
        if self.color_bins < 2 or self.flow_bins < 2:
            raise ValueError("histogram bin counts must be >= 2")
        if self.color_bins > 256:
            raise ValueError("color_bins must be <= 256: a channel has 256 values")
        if self.flow_bins > 2 ** 32:
            # node ids are below 2**31, so node * flow_bins + bin fits an int64
            raise ValueError("flow_bins must be <= 2**32")


@dataclass
class SegmentationHierarchy:
    """Label volumes only: one (T, H, W) int64 array per level, finest first."""
    levels: list


# ---------------------------------------------------------------- edges

def make_edges(a, b, w, dtype=EDGE_DTYPE) -> np.ndarray:
    e = np.empty(len(a), dtype=dtype)
    e["a"] = a
    e["b"] = b
    e[dtype.names[2]] = w
    return e


def _color_weight(ssd) -> np.ndarray:
    """Euclidean RGB distance over 255 * sqrt(3), from the squared one: 0 at
    ssd 0, strictly increasing, 1.0000000000000002 at 3 * 255**2; exact, as
    a float64 holds every ssd and sqrt is correctly rounded."""
    return np.sqrt(np.asarray(ssd, dtype=np.float64)) / _COLOR_NORM


def _chunks(n: int) -> list:
    """Slices of at most _CHUNK rows that cover range(n); one empty slice
    when n is 0, so a per-chunk result list is never empty."""
    return [slice(s, s + _CHUNK) for s in range(0, max(n, 1), _CHUNK)]


def _key_layout(n: int, h: int, w: int):
    """The layout (b, c) of the one int64 key per voxel edge of a window of
    n voxels in h x w frames, or None when a key needs more than 63 bits.

    An edge's key is ssd << (b + c) | min << c | (max - min), with
    b = bit_length(n - 1) bits for the min id and c = bit_length(2hw - 1)
    for max - min: every voxel edge joins two voxels of one frame or of two
    consecutive ones, so max - min < 2hw.  ssd <= 3 * 255**2 < 2**18, so the
    keys rank like (ssd, min id, max id).  _voxel_edges writes keys, and
    _edge_ends and _edge_weights read them."""
    b, c = (n - 1).bit_length(), (2 * h * w - 1).bit_length()
    return (b, c) if 18 + b + c <= 63 else None


def _voxel_edges(colors: np.ndarray, a: np.ndarray, b: np.ndarray, out: np.ndarray,
                 offset: int, layout) -> None:
    """Write the voxel edges (a + offset, b + offset) into out: as rows, or
    as keys in the given layout."""
    ssd = sum((c[a] - c[b]) ** 2 for c in colors.T)
    if layout is None:
        out["ssd"] = ssd
        for field, ends in (("a", a), ("b", b)):
            out[field] = ends
            out[field] += offset
        return
    out[:] = ssd
    del ssd
    out <<= layout[0]
    out |= np.minimum(a, b) + offset
    out <<= layout[1]
    out |= np.abs(a - b)


def _fill(window: np.ndarray, pairs, out: np.ndarray, offset: int, layout) -> np.ndarray:
    """Write the voxel edges of the uint8 window's (a, b) id-array pairs into
    out in turn; returns out, refused unless they filled all of it."""
    colors = window.reshape(-1, 3).astype(np.int32)
    pos = 0
    for a, b in pairs:
        _voxel_edges(colors, a, b, out[pos:pos + len(a)], offset, layout)
        pos += len(a)
    if pos != len(out):
        raise ValueError(f"out holds {len(out)} edges, not the {pos} built")
    return out


def _spatial_directions(h: int, w: int) -> tuple:
    """(source, target) pixel-id views of the four forward 8-neighborhood
    directions of an h x w frame."""
    base = np.arange(h * w, dtype=np.int32).reshape(h, w)
    return ((base[:, :-1], base[:, 1:]),      # east
            (base[:-1, :], base[1:, :]),      # south
            (base[:-1, :-1], base[1:, 1:]),   # south-east
            (base[:-1, 1:], base[1:, :-1]))   # south-west


def _spatial_edge_count(t_len: int, h: int, w: int) -> int:
    """The number of edges build_spatial_edges builds for t_len h x w frames."""
    return t_len * sum(src.size for src, _ in _spatial_directions(h, w))


def build_spatial_edges(window: np.ndarray, out=None, offset: int = 0,
                        layout=None) -> np.ndarray:
    """8-neighborhood edges inside every frame of the uint8 window, ids
    counted from offset, written into out (_spatial_edge_count edges) when
    it is given, as int64 keys when layout is (see _key_layout); returns
    them."""
    t_len, h, w = window.shape[:3]
    if out is None:
        out = np.empty(_spatial_edge_count(t_len, h, w), dtype=VOXEL_EDGE_DTYPE)
    frame_off = np.arange(t_len, dtype=np.int32) * (h * w)
    return _fill(window, ((np.add.outer(frame_off, src).ravel(),
                           np.add.outer(frame_off, dst).ravel())
                          for src, dst in _spatial_directions(h, w)), out, offset, layout)


def _temporal_targets(flows, t: int, h: int, w: int, use_flow_edges: bool) -> tuple:
    """Each pixel's backward target (round(x+u), round(y+v)) in frame t-1 as
    an int64 (h, w) id bx + by*w, and for m = -1, 0, 1 where column bx + m
    and where row by + m lie in the frame; u = v = 0 with use_flow_edges off
    or flows None.  The ids are read only where both masks hold."""
    xs, ys = pixel_grid(h, w)
    u = v = 0.0
    if use_flow_edges and flows is not None:
        u, v = np.moveaxis(np.asarray(flows[t - 1], dtype=np.float64), -1, 0)
    bx = round_half_up(xs + u).astype(np.int64)
    by = round_half_up(ys + v).astype(np.int64)
    cols = [(bx + m >= 0) & (bx + m < w) for m in (-1, 0, 1)]
    rows = [(by + m >= 0) & (by + m < h) for m in (-1, 0, 1)]
    return bx + by * w, cols, rows


def _temporal_edge_count(t_len: int, h: int, w: int, flows, use_flow_edges: bool) -> int:
    """The number of edges build_temporal_edges builds for t_len h x w
    frames: each voxel of frame t >= 1 has one per in-frame target around
    its flow target, as many as in-frame columns times in-frame rows."""
    total = 0
    for t in range(1, t_len):
        _, cols, rows = _temporal_targets(flows, t, h, w, use_flow_edges)
        total += int(np.dot(sum(cols).ravel(), sum(rows).ravel()))
    return total


def build_temporal_edges(window: np.ndarray, flows, use_flow_edges: bool,
                         out=None, offset: int = 0, layout=None) -> np.ndarray:
    """Backward temporal edges: voxel (x, y, t) to the 9 voxels around
    (round(x+u), round(y+v)) in frame t-1, targets outside the frame dropped,
    ids counted from offset; written into out (_temporal_edge_count edges)
    when it is given, as int64 keys when layout is (see _key_layout), and
    returned.

    With use_flow_edges off (or flows None) u = v = 0 and the set reduces to
    the grid 26-neighborhood's temporal part.  No (a, b) pair repeats: a is
    the voxel the edge starts from, and its nine targets are distinct.
    """
    t_len, h, w = window.shape[:3]
    if out is None:
        out = np.empty(_temporal_edge_count(t_len, h, w, flows, use_flow_edges),
                       dtype=VOXEL_EDGE_DTYPE)
    src = np.arange(h * w, dtype=np.int32).reshape(h, w)

    def pairs():
        for t in range(1, t_len):
            target, cols, rows = _temporal_targets(flows, t, h, w, use_flow_edges)
            for m, col in zip((-1, 0, 1), cols):
                for n, row in zip((-1, 0, 1), rows):
                    ok = col & row
                    yield src[ok] + t * h * w, target[ok] + (m + n * w + (t - 1) * h * w)
    return _fill(window, pairs(), out, offset, layout)


# ---------------------------------------------------------------- grouping

def _edge_ends(edges: np.ndarray, layout) -> tuple:
    """The endpoints of edges: the a and b of rows, or with a layout the
    (min id, max id) of keys."""
    if layout is None:
        return edges["a"], edges["b"]
    lo = edges >> layout[1] & (1 << layout[0]) - 1
    return lo, (edges & (1 << layout[1]) - 1) + lo


def _edge_weights(edges: np.ndarray, layout) -> np.ndarray:
    """The float weights of edges: a region row's w, or _color_weight of a
    voxel edge's ssd, read from its row or, with a layout, its key."""
    if layout is not None:
        return _color_weight(edges >> sum(layout))
    return _color_weight(edges["ssd"]) if "ssd" in edges.dtype.names else edges["w"]


def _end_roots(root: np.ndarray, edges: np.ndarray, layout) -> tuple:
    """root[a] and root[b] of every edge, its endpoints read _CHUNK edges
    at a time."""
    ra = np.empty(len(edges), dtype=root.dtype)
    rb = np.empty_like(ra)
    for c in _chunks(len(edges)):
        for out, ends in zip((ra, rb), _edge_ends(edges[c], layout)):
            out[c] = root[ends]
    return ra, rb


def _limits(roots: np.ndarray, size: np.ndarray, internal: np.ndarray, k: float) -> np.ndarray:
    """Each given root's merge limit internal + k/size, by the merge rule's
    own expression."""
    return internal[roots] + k / size[roots]


def _fh_sweep(edges: np.ndarray, root: np.ndarray, size: np.ndarray, internal: np.ndarray,
              marked: np.ndarray, k: float, min_size: int, layout=None) -> np.ndarray:
    """Ascending-weight merge sweep plus the small-component cleanup pass
    over one level's pre-grouped items; returns root, updated in place to
    every item's final root.

    On entry root[i] is item i's root, and every root is its own (the level
    is flat, as _pre_union leaves it).  size, internal and marked hold each
    root's item count, internal difference (the largest weight merged inside
    it) and frozen mark, and are updated in place for every final root;
    other items' entries are never read.  A union keeps the larger root (the
    first on a tie), adds the sizes, keeps the largest internal difference
    and carries the mark; two marked roots never merge (streaming freeze).
    Ties break by (w, min id, max id); edges is put into that order in
    place.  Voxel edges rank by ssd, ordered like w = _color_weight(ssd),
    computed only where a weight is read.  With a layout (see _key_layout)
    edges holds one int64 key per voxel edge, and sorting the keys is the
    sweep order; region edges and voxel rows, which come only from windows
    whose keys would need more than 63 bits, are ordered by np.lexsort.

    The sorted edges are visited in blocks of max(1024, n // 8), each
    block's endpoints read _CHUNK edges at a time.  numpy first drops each
    edge that stays a no-op for the rest of its pass, judged by the roots at
    the start of the block: its endpoints share a root (unions only merge),
    both roots are marked (marks survive unions and two marked roots never
    merge), in the merge pass one root's limit internal + k/size lies below
    the block's first weight (a limit changes only when its root merges and
    weights only grow, so that root merges with nothing any more), or, in
    the cleanup pass, both roots already hold min_size items (sizes only
    grow).  The merge rule then runs in Python over the surviving edges in
    sweep order, so every union, size, internal difference and mark equals
    the edge-by-edge sweep's.  Its union-find covers only the roots those
    edges touch, renumbered from 0: lists of their sizes, internal
    differences, limits and marks, filled at the block's start (every
    item's root is current then) and dropped at its end, so the sweep holds
    no per-item state of its own.  After a block that merged, the lists are
    written back and one gather, in place, moves the absorbed roots' items
    to their final roots.
    """
    n = len(root)
    if layout is not None:
        edges.sort()
    else:
        ea, eb = edges["a"], edges["b"]
        ew = edges[edges.dtype.names[2]]
        # ids are below n, so min*n + max ranks like (min, max) and n*n < 2**63;
        # lexsort copies every key when one is strided, so w goes in contiguous
        order = np.lexsort((np.minimum(ea, eb, dtype=np.int64) * n + np.maximum(ea, eb),
                            ew.copy()))
        ea[:] = ea[order]
        eb[:] = eb[order]
        ew[:] = ew[order]
        del order

    def find(x):
        while parent[x] is not None:
            x = parent[x]
        return x

    block = max(1024, n // 8)
    for cleanup in (False, True):
        for s in range(0, len(edges), block):
            part = edges[s:s + block]
            ra, rb = _end_roots(root, part, layout)
            live = (ra != rb) & ~(marked[ra] & marked[rb])
            if cleanup:
                live &= (size[ra] < min_size) | (size[rb] < min_size)
            else:
                # a root whose limit is below the block's first weight merges
                # with nothing for the rest of the pass
                first = _edge_weights(part[:1], layout)[0]
                live &= _limits(ra, size, internal, k) >= first
                live &= _limits(rb, size, internal, k) >= first
            m = int(np.count_nonzero(live))
            if not m:
                continue
            # the block's roots, and each live edge's ends among them
            ids, ends = np.unique(np.concatenate((ra[live], rb[live])), return_inverse=True)
            del ra, rb
            # parent[r] is None while r is a root
            parent = [None] * len(ids)
            size_l = size[ids].tolist()
            internal_l = internal[ids].tolist()
            lim_l = _limits(ids, size, internal, k).tolist()
            mark = marked[ids].tolist()
            absorbed = []
            for a, b, w in zip(ends[:m].tolist(), ends[m:].tolist(),
                               _edge_weights(part[live], layout).tolist()):
                if parent[a] is not None:
                    a = find(a)
                if parent[b] is not None:
                    b = find(b)
                if a == b or (mark[a] and mark[b]):
                    continue
                if cleanup:
                    if size_l[a] >= min_size and size_l[b] >= min_size:
                        continue
                elif w > (lim_l[a] if lim_l[a] < lim_l[b] else lim_l[b]):
                    continue
                if size_l[a] < size_l[b]:
                    a, b = b, a
                parent[b] = a
                size_l[a] += size_l[b]
                # the largest of both internal differences and w
                if w < internal_l[b]:
                    w = internal_l[b]
                if internal_l[a] < w:
                    internal_l[a] = w
                lim_l[a] = internal_l[a] + k / size_l[a]
                if mark[b]:
                    mark[a] = True
                absorbed.append(b)
            if not absorbed:
                continue
            # latest first, so each absorbed root's parent is final when read
            for x in reversed(absorbed):
                p = parent[parent[x]]
                if p is not None:
                    parent[x] = p
            # absorbed roots' entries go stale and are never read again
            size[ids] = size_l
            internal[ids] = internal_l
            marked[ids] = mark
            # point each absorbed root at its final root, then every item at
            # its root's root: that changes only absorbed roots' items, and
            # roots' own entries stay put, so root is overwritten in chunks
            root[ids[absorbed]] = ids[[parent[x] for x in absorbed]]
            for c in _chunks(n):
                root[c] = root[root[c]]
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


# ---------------------------------------------------------------- hierarchy

def _flow_bin(component: np.ndarray, bins: int, radius: float) -> np.ndarray:
    clamped = np.clip(np.asarray(component, dtype=np.float64), -radius, radius)
    b = np.floor((clamped + radius) * bins / (2.0 * radius)).astype(np.int64)
    return np.clip(b, 0, bins - 1)


class _RegionGraph(NamedTuple):
    """A hierarchy level's region graph: the sorted node pairs pa < pb that a
    voxel edge joins, and each node's voxel counts per histogram bin, whole
    numbers, from which every weight is computed: color (nn, 3, color_bins)
    and, when the flow feature is used, flow (nn, T-1, 2, flow_bins), the u
    and v bins of the node's voxels in each frame t >= 1 (else None)."""
    pa: np.ndarray
    pb: np.ndarray
    color: np.ndarray
    flow: np.ndarray | None


def _pair_keys(na: np.ndarray, nb: np.ndarray, nn: int) -> np.ndarray:
    """The distinct keys min*nn + max of the node pairs (na, nb) whose ends
    differ, sorted; ids are below nn."""
    differ = na != nb
    na, nb = na[differ], nb[differ]
    return np.unique(np.minimum(na, nb, dtype=np.int64) * nn + np.maximum(na, nb, dtype=np.int64))


def _region_graph(frames_w: np.ndarray, flows_w, edges: np.ndarray, node_index: np.ndarray,
                  nn: int, config: StreamConfig, layout=None) -> _RegionGraph:
    """The region graph of nodes given per voxel, from the window's voxels:
    the pairs from the voxel edges (rows, or with a layout keys, whose
    endpoints alone are read), then the color counts, then, with
    config.use_flow_feature on, flows_w given and two frames or more, the
    flow counts.  A window reads its voxels here once; higher levels are
    _coarsen-ed from this graph."""
    # int32 node ids keep the per-edge gathers at 4 B; nn is below 2**31.
    # The pairs are gathered and made distinct one chunk of edges at a time,
    # and each chunk's endpoints are dropped once its node ids are gathered
    node32 = node_index.astype(np.int32)
    keys = [_pair_keys(*(node32[ends] for ends in _edge_ends(edges[c], layout)), nn)
            for c in _chunks(len(edges))]
    del node32
    pa, pb = np.divmod(np.unique(np.concatenate(keys)), nn)
    del keys
    cb = config.color_bins
    color = np.empty((nn, 3, cb), dtype=np.int32)
    for c, channel in enumerate(frames_w.reshape(-1, 3).T):
        bins = (channel.astype(np.int64) * cb) // 256
        color[:, c] = np.bincount(node_index * cb + bins, minlength=nn * cb).reshape(nn, cb)
    t_len, h, w = frames_w.shape[:3]
    if not (config.use_flow_feature and flows_w is not None and t_len >= 2):
        return _RegionGraph(pa, pb, color, None)
    fb = config.flow_bins
    flow = np.empty((nn, t_len - 1, 2, fb), dtype=np.int32)
    for t in range(1, t_len):
        nodes_t = node_index[t * h * w:(t + 1) * h * w] * fb
        field = np.asarray(flows_w[t - 1], dtype=np.float64)
        for comp in range(2):
            bins = _flow_bin(field[..., comp].ravel(), fb, config.flow_range)
            flow[:, t - 1, comp] = np.bincount(nodes_t + bins,
                                               minlength=nn * fb).reshape(nn, fb)
    return _RegionGraph(pa, pb, color, flow)


def _sum_children(values: np.ndarray, parent: np.ndarray, nn: int) -> np.ndarray:
    """Row i of the result sums the rows j of values whose parent[j] is i;
    every i below nn has one."""
    order = np.argsort(parent, kind="stable")
    return np.add.reduceat(values[order], np.searchsorted(parent[order], np.arange(nn)), axis=0)


def _coarsen(graph: _RegionGraph, parent: np.ndarray, nn: int) -> _RegionGraph:
    """The region graph one level up, whose node i holds the nodes j with
    parent[j] == i: the distinct mapped pairs whose ends differ, which are
    the pairs its voxel edges join, and the children's summed counts.  The
    counts are whole numbers below 2**31, so every histogram and weight
    equals that of _region_graph on the voxels."""
    pa, pb = np.divmod(_pair_keys(parent[graph.pa], parent[graph.pb], nn), nn)
    flow = None if graph.flow is None else _sum_children(graph.flow, parent, nn)
    return _RegionGraph(pa, pb, _sum_children(graph.color, parent, nn), flow)


def _graph_edges(graph: _RegionGraph, config: StreamConfig) -> np.ndarray:
    """An edge for every pair of the region graph, weighted by the mean over
    the color channels of the chi-squared distance of the two nodes' color
    histograms.  With flow counts, that weight is fused with the flow
    distance: the mean, over the frames t >= 1 both nodes occupy (0 if
    none), of the mean chi-squared distance of their frame-t u and v
    histograms.  Each frame's flow histograms are built and dropped in
    turn."""
    pa, pb = graph.pa, graph.pb
    color = graph.color.astype(np.float64)
    color /= color.sum(axis=-1, keepdims=True)
    dc = np.mean(_chi2_rows(color[pa], color[pb]), axis=-1)
    if graph.flow is None:
        return make_edges(pa, pb, dc)
    df = np.zeros(len(pa))
    cnt = np.zeros(len(pa))
    for frame in graph.flow.transpose(1, 2, 0, 3):
        # every voxel of a node in the frame falls into one u bin
        present = frame[0].sum(axis=-1) > 0
        both = present[pa] & present[pb]
        if not both.any():
            continue
        cuv = []
        for counts in frame:
            hist = counts.astype(np.float64)
            mass = hist.sum(axis=-1, keepdims=True)
            hist = np.divide(hist, mass, out=np.zeros_like(hist), where=mass > 0)
            cuv.append(_chi2_rows(hist[pa[both]], hist[pb[both]]))
        df[both] += (cuv[0] + cuv[1]) / 2.0
        cnt[both] += 1.0
    df = np.divide(df, cnt, out=np.zeros_like(df), where=cnt > 0)
    return make_edges(pa, pb, _fuse(dc, df))


class _StreamState:
    """Per-level label counters plus cumulative size / internal-difference
    arrays for the labels in the newest subsequence, kept by _close_level in
    ascending label order: those labels are the next window's frozen ones,
    so the arrays line up with _pre_union's np.unique of them."""

    def __init__(self, levels: int):
        self.counters = [0] * levels
        self.sizes = [np.zeros(0, dtype=np.int64)] * levels
        self.ints = [np.zeros(0)] * levels


def _pre_union(keys: np.ndarray, size: np.ndarray, grown: np.ndarray,
               state: _StreamState, level: int) -> tuple:
    """Pre-group a level's items for _fh_sweep: link the items sharing a key
    (an emitted label; -1 for a new item) straight to one root marked with
    it, so the level is flat.  size holds each item's own size and is
    updated in place: the root's becomes the label's cumulative size plus
    grown, its members' voxels in the window's new frames.  Its internal
    difference is the label's recorded one, every other item's 0.  Returns
    each item's root, size, internal difference and mark."""
    members = np.flatnonzero(keys >= 0)
    _, first, group = np.unique(keys[members], return_index=True, return_inverse=True)
    roots = members[first]
    root = np.arange(len(size), dtype=np.int64)
    root[members] = roots[group]
    # the distinct keys ascend, as the state's tables do
    group_grown = np.bincount(group, weights=grown[members], minlength=len(roots))
    size[roots] = group_grown.astype(np.int64) + state.sizes[level]
    internal = np.zeros(len(size))
    internal[roots] = state.ints[level]
    marked = np.zeros(len(size), dtype=bool)
    marked[roots] = True
    return root, size, internal, marked


def _close_level(keys: np.ndarray, roots: np.ndarray, size: np.ndarray, internal: np.ndarray,
                 grown: np.ndarray, state: _StreamState, level: int) -> tuple:
    """Label a level's items, given every item's root and each root's size
    and internal difference: a component keeps the key of its one keyed item
    (keys as for _group_level, below the level's counter), fresh components
    get the level's next labels in the order of their least items.  That is
    first-voxel order: items are voxels at level 0, and above it a fresh
    component holds only fresh nodes of the close below (an item holding a
    frozen voxel is keyed), whose ids rank like their first voxels.
    Advances the level's counter, keeps the cumulative size and internal
    difference of every label that reaches the window's new frames (one of
    its items has grown > 0) and drops the rest.  Returns the components as
    the nodes of the level above, ranked by label: each item's node, and each
    node's label and grown voxels (the sum over its items)."""
    # roots are item ids: the sorted distinct roots and each item's rank
    # among them, without the sort and temporaries of np.unique
    uroots = np.flatnonzero(np.bincount(roots, minlength=len(roots)))
    inv = np.searchsorted(uroots, roots)
    # each component's sort key: its label if kept, else counter + least item
    counter = state.counters[level]
    rank = np.full(len(uroots), counter + len(roots), dtype=np.int64)
    np.minimum.at(rank, inv, np.arange(counter, counter + len(roots)))
    members = np.flatnonzero(keys >= 0)
    rank[inv[members]] = keys[members]
    order = np.argsort(rank)
    labels = rank[order]
    kept = int(np.searchsorted(labels, counter))
    state.counters[level] += len(labels) - kept
    labels[kept:] = np.arange(counter, state.counters[level])
    node_grown = np.bincount(inv, weights=grown, minlength=len(uroots))[order]
    reach = order[node_grown > 0]
    state.sizes[level] = size[uroots[reach]]
    state.ints[level] = internal[uroots[reach]]
    node = np.empty_like(order)
    node[order] = np.arange(len(order))
    return node[inv], labels, node_grown


def _group_level(keys: np.ndarray, grown: np.ndarray, edges: np.ndarray,
                 config: StreamConfig, level: int, state: _StreamState, layout=None) -> tuple:
    """Group one level's items and close the level in state; returns what
    _close_level does.  keys[i] is item i's emitted label (-1, or past the
    end of keys, for a new item) and grown[i] its voxels in the window's new
    frames; edges are rows, or with a layout voxel edge keys, as for
    _fh_sweep.  Frozen voxels were counted when an earlier window closed, so
    an item starts at its grown voxels and _pre_union adds its label's
    recorded size."""
    root, size, internal, marked = _pre_union(keys, grown.astype(np.int64), grown, state, level)
    _fh_sweep(edges, root, size, internal, marked,
              config.k0 * config.k_growth ** level, config.min_size, layout)
    return _close_level(keys, root, size, internal, grown, state, level)


def _window_edges(frames_w: np.ndarray, flows_w, config: StreamConfig,
                  frozen: int) -> tuple:
    """The window's voxel edges except those joining two voxels of its first
    `frozen` frames: spatial edges of the new frames, temporal edges from the
    first new frame on.  Each left-out edge joins two voxels of one emitted
    label or of two, so it could only ever link two marked components.
    Returns them with their layout: one int64 key per edge (see
    _key_layout), or VOXEL_EDGE_DTYPE rows where the layout is None."""
    t_len, h, w = frames_w.shape[:3]
    first = max(frozen - 1, 0)
    flows_t = None if flows_w is None else flows_w[first:]
    layout = _key_layout(t_len * h * w, h, w)
    # one array of exactly the window's edges, filled part by part in place
    split = _spatial_edge_count(t_len - frozen, h, w)
    edges = np.empty(split + _temporal_edge_count(t_len - first, h, w, flows_t,
                                                  config.use_flow_edges),
                     dtype=VOXEL_EDGE_DTYPE if layout is None else np.int64)
    build_spatial_edges(frames_w[frozen:], out=edges[:split], offset=frozen * h * w,
                        layout=layout)
    build_temporal_edges(frames_w[first:], flows_t, config.use_flow_edges, out=edges[split:],
                         offset=first * h * w, layout=layout)
    return edges, layout


def _window_pass(frames_w: np.ndarray, flows_w, config: StreamConfig,
                 old_labels: list, state: _StreamState) -> list:
    """Segment one window; old_labels (per level, covering the window's first
    frames, empty in the first window) carry the frozen result of the
    previous subsequence.  Level 0 groups voxels; each higher level groups
    the nodes that the close below hands it, whose ids rank like its labels:
    ties break by (w, label a, label b), fresh nodes rank by first voxel.
    Level 1's region graph is built from the voxels, every higher one
    coarsened from the one below.  Returns, per level, the labels of the
    window's new frames only."""
    t_len, h, w = frames_w.shape[:3]
    frozen = old_labels[0].size
    edges, layout = _window_edges(frames_w, flows_w, config, len(old_labels[0]))
    grown = np.ones(t_len * h * w, dtype=np.int8)
    grown[:frozen] = 0
    node_index, labels, grown = _group_level(old_labels[0].ravel(), grown, edges, config, 0,
                                             state, layout)
    new = [labels[node_index[frozen:]]]
    graph = (_region_graph(frames_w, flows_w, edges, node_index, len(labels), config, layout)
             if config.levels > 1 else None)
    del edges
    for level in range(1, config.levels):
        keys = np.full(len(labels), -1, dtype=np.int64)
        keys[node_index[:frozen]] = old_labels[level].ravel()
        parent, labels, grown = _group_level(keys, grown, _graph_edges(graph, config), config,
                                             level, state)
        node_index = parent[node_index]
        new.append(labels[node_index[frozen:]])
        if level + 1 < config.levels:
            graph = _coarsen(graph, parent, len(labels))
    return [v.reshape(-1, h, w) for v in new]


def check_window_size(shape, config: StreamConfig) -> None:
    """Refuse a (T, H, W, ...) video whose streaming window would hold 2**31
    voxels or more: voxel ids are int32 edge endpoints."""
    frames = min(2 * config.subseq_len, shape[0])
    if frames * shape[1] * shape[2] >= 2 ** 31:
        raise ValueError(f"a streaming window of {frames} {shape[2]}x{shape[1]} "
                         "frames holds 2**31 voxels or more")


def _check_frames(frames: np.ndarray) -> None:
    if frames.ndim != 4 or frames.shape[3] != 3 or frames.dtype != np.uint8:
        raise ValueError("frames must be uint8 of shape (T, H, W, 3)")


def _check_flows(flows, pairs: int, h: int, w: int) -> None:
    """Refuse flows unless it holds `pairs` finite (h, w, 2) fields (or is
    None): a NaN or infinite vector has no target voxel and no flow bin."""
    if flows is None:
        return
    if len(flows) != pairs:
        raise ValueError("need one flow field per consecutive frame pair")
    for f in flows:
        f = np.asarray(f)
        if f.shape != (h, w, 2):
            raise ValueError("flow field dimensions disagree with frames")
        if not np.isfinite(f).all():
            raise ValueError("flow fields must be finite")


def stream_blocks(blocks, config: StreamConfig = StreamConfig()):
    """Segment a video given as subsequences and yield each one's labels
    as soon as its window closes.

    blocks yields, for each subsequence v_i in order, (frames, flows): its
    (n, H, W, 3) uint8 frames, n = subseq_len except for the last one, and
    the backward flow field of every frame pair (t-1, t) whose t lies in it
    (n-1 fields for the first, n after; None for all when no flow is used).
    Window i spans v_{i-1} and v_i.  Each yielded item is (s, labels, frames,
    flows): v_i's first frame index, one (n, H, W) int64 array per level,
    and v_i's frames and flows as taken from blocks.  Those labels are
    final: v_{i-1} enters the next window pre-grouped into its emitted
    regions at every level, and those labels are never rewritten.  Between
    windows only v_i's frames, flows and labels and the per-level tables
    are kept, so memory does not grow with the length of the video.
    """
    state = _StreamState(config.levels)
    s = 0
    for frames, flows in blocks:
        frames = np.asarray(frames)
        _check_frames(frames)
        if not 0 < len(frames) <= config.subseq_len:
            raise ValueError(f"a subsequence holds 1 to {config.subseq_len} frames")
        if s == 0:
            # the previous subsequence's frames, inner flows and labels
            old_frames, old_flows = frames[:0], []
            old = [np.empty((0,) + frames.shape[1:3], dtype=np.int64)] * config.levels
        elif len(old_frames) < config.subseq_len:
            raise ValueError("only the last subsequence may be short")
        elif frames.shape[1:] != old_frames.shape[1:]:
            raise ValueError("frame dimensions differ between subsequences")
        elif (flows is None) != (old_flows is None):
            raise ValueError("flows given for some subsequences and not others")
        _check_flows(flows, len(frames) - (s == 0), *frames.shape[1:3])
        check_window_size((len(old_frames) + len(frames),) + frames.shape[1:], config)
        old = _window_pass(np.concatenate([old_frames, frames]) if s else frames,
                           None if flows is None else old_flows + list(flows),
                           config, old, state)
        yield s, old, frames, flows
        # the next window reads only the pairs inside this subsequence
        old_frames = frames
        old_flows = None if flows is None else list(flows[len(flows) - len(frames) + 1:])
        s += len(frames)


def _subsequences(seq: np.ndarray, flows, subseq_len: int):
    for s in range(0, len(seq), subseq_len):
        end = min(s + subseq_len, len(seq))
        yield seq[s:end], None if flows is None else flows[max(s - 1, 0):end - 1]


def stream_segment(seq: np.ndarray, flows,
                   config: StreamConfig = StreamConfig()) -> SegmentationHierarchy:
    """Segment a whole (T, H, W, 3) uint8 video held in memory: collect
    stream_blocks over its subsequences into one (T, H, W) volume per level.

    The labels for a prefix of the video do not depend on later frames, and
    a video of at most subseq_len frames gives the single-window batch
    result exactly.
    """
    seq = np.asarray(seq)
    _check_frames(seq)
    check_window_size(seq.shape, config)
    _check_flows(flows, len(seq) - 1, *seq.shape[1:3])
    out = [np.empty(seq.shape[:3], dtype=np.int64) for _ in range(config.levels)]
    for s, labels, _, _ in stream_blocks(_subsequences(seq, flows, config.subseq_len), config):
        for volume, block in zip(out, labels):
            volume[s:s + len(block)] = block
    return SegmentationHierarchy(out)
