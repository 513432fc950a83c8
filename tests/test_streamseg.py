"""Graph construction, grouping, distances, hierarchy, and streaming tests."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from svstream import streamseg
from svstream.affine import AffineModel
from svstream.imageops import relabel_first_occurrence
from svstream.streamseg import (StreamConfig, _chi2_rows, _close_level, _color_weight,
                                _fh_sweep, _pre_union, _StreamState, _window_edges,
                                build_spatial_edges, build_temporal_edges, check_window_size,
                                combine_distance, make_edges, stream_segment)
from svstream.synth import ObjectSpec, SceneSpec, generate

from oracles import (Forest, oracle_build_hierarchy, oracle_fh_sweep, oracle_region_weights,
                     oracle_segment_level0, oracle_voxel_weights, oracle_window_edges,
                     voxel_region_edges)


def _undirected_pairs(edges) -> set:
    return {(min(int(a), int(b)), max(int(a), int(b)))
            for a, b in zip(edges["a"], edges["b"])}


def _grid26_pairs(t_len: int, h: int, w: int) -> set:
    """Brute-force 26-neighborhood of the (t, y, x) grid as undirected pairs."""
    pairs = set()
    for t in range(t_len):
        for y in range(h):
            for x in range(w):
                vid = x + y * w + t * h * w
                for dt in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            if dt == dy == dx == 0:
                                continue
                            tt, ty, tx = t + dt, y + dy, x + dx
                            if 0 <= tt < t_len and 0 <= ty < h and 0 <= tx < w:
                                nid = tx + ty * w + tt * h * w
                                pairs.add((min(vid, nid), max(vid, nid)))
    return pairs


def _rand_video(seed: int, t: int, h: int, w: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8)


# ---------------------------------------------------------------- edges

def test_spatial_edges_match_bruteforce():
    window = _rand_video(0, 2, 3, 4)
    got = _undirected_pairs(build_spatial_edges(window))
    want = set()
    hw = 3 * 4
    for t in range(2):
        for y in range(3):
            for x in range(4):
                vid = x + y * 4 + t * hw
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dy == dx == 0:
                            continue
                        ty, tx = y + dy, x + dx
                        if 0 <= ty < 3 and 0 <= tx < 4:
                            nid = tx + ty * 4 + t * hw
                            want.add((min(vid, nid), max(vid, nid)))
    assert got == want


def test_spatial_edge_weights():
    window = np.zeros((1, 1, 2, 3), dtype=np.uint8)
    window[0, 0, 1] = 255
    edges = build_spatial_edges(window)
    assert len(edges) == 1
    # black to white is the maximum RGB distance, normalized to 1
    assert edges["ssd"][0] == 3 * 255 ** 2
    assert abs(_color_weight(edges["ssd"][0]) - 1.0) < 1e-12


def test_color_weight_strictly_increasing_over_every_ssd():
    # the one-key sort and the rows' lexsort rank voxel edges by ssd, which
    # is the sweep order only if w = _color_weight(ssd) is strictly
    # increasing over every ssd two uint8 colors can give
    w = _color_weight(np.arange(3 * 255 ** 2 + 1))
    assert len(w) == 195076 and w[0] == 0.0
    assert np.all(np.diff(w) > 0)
    # rounding puts the largest ssd just above 1
    assert w[-1] == 1.0000000000000002


def _float_weights(window, edges) -> np.ndarray:
    """Normalized RGB distance of each edge, from float64 colors."""
    colors = window.reshape(-1, 3).astype(np.float64)
    d = colors[edges["a"]] - colors[edges["b"]]
    return np.sqrt(np.sum(d * d, axis=1)) / (255.0 * np.sqrt(3.0))


def test_voxel_edge_weights_equal_float_formula():
    rng = np.random.default_rng(13)
    for case in range(20):
        t, h, w = (int(v) for v in rng.integers(2, [4, 9, 9], endpoint=True))
        window = _rand_video(2000 + case, t, h, w)
        # pin a share of the channels to 0 and 255: the largest distances
        window[rng.random(window.shape) < 0.3] = 0
        window[rng.random(window.shape) < 0.3] = 255
        flows = [rng.uniform(-3.0, 3.0, (h, w, 2)) for _ in range(t - 1)]
        for edges in (build_spatial_edges(window), build_temporal_edges(window, flows, True)):
            assert edges.dtype.itemsize == 12
            want = _float_weights(window, edges)
            assert _color_weight(edges["ssd"]).tobytes() == want.tobytes()


def test_zero_flow_edges_equal_grid_26_neighborhood():
    for t, h, w in ((3, 4, 5), (2, 3, 3), (4, 2, 6)):
        window = _rand_video(t * 100 + h * 10 + w, t, h, w)
        spatial = build_spatial_edges(window)
        for flows in (None, [np.zeros((h, w, 2)) for _ in range(t - 1)]):
            temporal = build_temporal_edges(window, flows, use_flow_edges=True)
            got = _undirected_pairs(spatial) | _undirected_pairs(temporal)
            assert got == _grid26_pairs(t, h, w)


def test_flow_edges_follow_displaced_target():
    window = _rand_video(9, 2, 5, 5)
    flow = np.zeros((5, 5, 2))
    flow[..., 0] = 2.0   # u: previous position is 2 px to the right
    flow[..., 1] = -1.0  # v: and 1 px up
    edges = build_temporal_edges(window, [flow], use_flow_edges=True)
    src = 2 + 2 * 5 + 1 * 25   # (t=1, y=2, x=2)
    targets = {int(b) for a, b in zip(edges["a"], edges["b"]) if a == src}
    want = set()
    for ty in (0, 1, 2):           # around y + v = 1
        for tx in (3, 4, 5):       # around x + u = 4; x=5 falls outside
            if tx < 5:
                want.add(tx + ty * 5)
    assert targets == want


def test_flow_edges_disabled_ignores_field():
    window = _rand_video(10, 2, 4, 4)
    flow = np.full((4, 4, 2), 3.0)
    with_field = build_temporal_edges(window, [flow], use_flow_edges=False)
    plain = build_temporal_edges(window, None, use_flow_edges=True)
    assert _undirected_pairs(with_field) == _undirected_pairs(plain)


def test_single_frame_has_no_temporal_edges():
    window = _rand_video(11, 1, 4, 4)
    assert build_temporal_edges(window, None, True).size == 0


@pytest.mark.parametrize("use_flow_edges", [True, False])
def test_temporal_edges_are_unique_pairs(use_flow_edges):
    rng = np.random.default_rng(12)
    for case in range(60):
        t, h, w = (int(v) for v in rng.integers(2, [5, 8, 8], endpoint=True))
        window = _rand_video(1000 + case, t, h, w)
        # half-integer flows hit the rounding ties; large ones leave the frame
        flows = [np.where(rng.random((h, w, 2)) < 0.3,
                          rng.integers(-6, 7, (h, w, 2)) / 2.0,
                          rng.uniform(-4.0, 4.0, (h, w, 2))) for _ in range(t - 1)]
        edges = build_temporal_edges(window, flows, use_flow_edges)
        pairs = list(zip(edges["a"].tolist(), edges["b"].tolist()))
        assert len(set(pairs)) == len(pairs)
        want = 0
        for tt in range(1, t):
            for y in range(h):
                for x in range(w):
                    u, v = flows[tt - 1][y, x] if use_flow_edges else (0.0, 0.0)
                    bx, by = math.floor(x + u + 0.5), math.floor(y + v + 0.5)
                    want += sum(0 <= bx + m < w and 0 <= by + n < h
                                for m in (-1, 0, 1) for n in (-1, 0, 1))
        assert len(pairs) == want


def _edge_rows(edges) -> list:
    """Every (a, b, weight) row, for voxel (ssd) and region (w) edges alike."""
    return sorted(edges.tolist())


def _pack_keys(rows, layout) -> np.ndarray:
    """Voxel rows as the keys ssd << (b + c) | min << c | (max - min)."""
    b, c = layout
    lo, hi, ssd = (np.asarray(x, dtype=np.int64) for x in _undirected_rows(rows))
    return ssd << (b + c) | lo << c | (hi - lo)


def _unpack_keys(keys, layout) -> list:
    """Keys as (min id, max id, ssd) rows, in key order."""
    b, c = layout
    lo = keys >> c & (1 << b) - 1
    return list(zip(lo.tolist(), (lo + (keys & (1 << c) - 1)).tolist(),
                    (keys >> (b + c)).tolist()))


def _undirected_list(rows) -> list:
    """Voxel rows as (min id, max id, ssd) rows, in row order."""
    return list(zip(*map(np.ndarray.tolist, _undirected_rows(rows))))


def _edge_forms(monkeypatch):
    """Run the body once with voxel edges as keys, and once more as rows,
    the layout helper patched to refuse every window."""
    for form in ("keys", "rows"):
        with monkeypatch.context() as m:
            if form == "rows":
                m.setattr(streamseg, "_key_layout", lambda n, h, w: None)
            yield form


def _window_edge_list(frames, flows, config, frozen, form) -> list:
    """_window_edges' edges as (min id, max id, ssd) rows in build order."""
    t_len, h, w = frames.shape[:3]
    edges, layout = _window_edges(frames, flows, config, frozen)
    if form == "rows":
        assert layout is None and edges.dtype == streamseg.VOXEL_EDGE_DTYPE
        return _undirected_list(edges)
    assert layout == streamseg._key_layout(t_len * h * w, h, w) and edges.dtype == np.int64
    return _unpack_keys(edges, layout)


@pytest.mark.parametrize("use_flow_edges", [True, False])
def test_window_edges_leave_out_only_frozen_pairs(monkeypatch, use_flow_edges):
    frames, _, flows = _scene(8, t=5)
    config = StreamConfig(use_flow_edges=use_flow_edges)
    h, w = frames.shape[1:3]
    full = np.concatenate([build_spatial_edges(frames),
                           build_temporal_edges(frames, flows, use_flow_edges)])
    for form in _edge_forms(monkeypatch):
        for frozen in range(5):
            got = _window_edge_list(frames, flows, config, frozen, form)
            both = (full["a"] < frozen * h * w) & (full["b"] < frozen * h * w)
            assert sorted(got) == sorted(_undirected_list(full[~both])), form
            assert len(got) < len(full) or frozen == 0


@pytest.mark.parametrize("flow", ["none", "given", "out-of-frame"])
@pytest.mark.parametrize("use_flow_edges", [True, False])
@pytest.mark.parametrize("frozen", range(4))
def test_window_edges_equal_oracle(monkeypatch, frozen, use_flow_edges, flow):
    # the window counts its edges and fills one array in place, as keys or,
    # where the layout helper refuses the window, as rows; the reference
    # builds every direction and target offset as its own array of rows
    rng = np.random.default_rng(frozen)
    t, h, w = 5, 7, 9
    frames = _rand_video(40 + frozen, t, h, w)
    spread = 12.0 if flow == "out-of-frame" else 1.5
    flows = None if flow == "none" else [
        np.where(rng.random((h, w, 2)) < 0.3, rng.integers(-6, 7, (h, w, 2)) / 2.0,
                 rng.uniform(-spread, spread, (h, w, 2))) for _ in range(t - 1)]
    config = StreamConfig(use_flow_edges=use_flow_edges)
    want = oracle_window_edges(frames, flows, config, frozen)
    for form in _edge_forms(monkeypatch):
        if form == "rows":
            got, layout = _window_edges(frames, flows, config, frozen)
            assert layout is None
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert (_window_edge_list(frames, flows, config, frozen, form)
                == _undirected_list(want)), form
    if flow == "out-of-frame" and use_flow_edges:
        # targets leave the frame, so voxels of frame 1 on have fewer than 9
        assert len(want) < len(oracle_window_edges(frames, None, config, frozen))


@pytest.mark.parametrize("flow", ["none", "zero", "out-of-frame"])
@pytest.mark.parametrize("frozen", [0, 1])
@pytest.mark.parametrize("h, w", [(1, 6), (5, 1), (1, 1)])
def test_degenerate_window_edges_equal_oracle(monkeypatch, h, w, frozen, flow):
    # frames one pixel wide or high: every pixel's flow target misses a
    # target column or row, and a 1x1 frame has no spatial edge at all
    rng = np.random.default_rng(10 * h + w)
    t = 4
    frames = _rand_video(70 + h + w, t, h, w)
    flows = {"none": None,
             "zero": [np.zeros((h, w, 2)) for _ in range(t - 1)],
             "out-of-frame": [np.where(rng.random((h, w, 2)) < 0.5,
                                       rng.integers(-6, 7, (h, w, 2)) / 2.0,
                                       rng.uniform(-4.0, 4.0, (h, w, 2)))
                              for _ in range(t - 1)]}[flow]
    for use_flow_edges in (True, False):
        config = StreamConfig(use_flow_edges=use_flow_edges)
        want = oracle_window_edges(frames, flows, config, frozen)
        for form in _edge_forms(monkeypatch):
            if form == "rows":
                got, layout = _window_edges(frames, flows, config, frozen)
                assert layout is None
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert (_window_edge_list(frames, flows, config, frozen, form)
                    == _undirected_list(want)), (form, use_flow_edges)


def test_edge_builders_fill_exactly_the_given_rows():
    window = _rand_video(13, 3, 4, 5)
    for build in (build_spatial_edges,
                  lambda v, out=None: build_temporal_edges(v, None, False, out=out)):
        want = build(window)
        out = np.empty(len(want), dtype=streamseg.VOXEL_EDGE_DTYPE)
        assert build(window, out=out) is out and out.tolist() == want.tolist()
        with pytest.raises(ValueError):
            build(window, out=np.empty(len(want) + 1, dtype=streamseg.VOXEL_EDGE_DTYPE))


# ---------------------------------------------------------------- sweep

def _sweep_case(seed: int):
    """Random items and tied-weight edges, some items pre-grouped into
    marked components with preset sizes and internal differences.

    From seed 400 on, components die early in the merge pass: k is small,
    weights spread over up to ten octaves, and k, the weights, the sizes and
    the internal differences are dyadic, so each limit internal + k/size is
    exact and often equals a block's first weight.  A marked component's
    members other than its root have size 0, as items under a root do at
    levels above 0."""
    rng = np.random.default_rng(seed)
    early = seed >= 400
    n = int(rng.integers(2, 9000 if seed % 10 == 0 else 1500))
    m = int(rng.integers(1, 4 * n + 2))
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    if early:
        steps = 16 * 2 ** int(rng.integers(0, 10))
        edges = make_edges(a, b, rng.integers(0, steps, m) / 16)
    else:
        edges = make_edges(a, b, rng.integers(0, 6, m) * 0.2)
    base = 2 ** rng.integers(0, 3, n) if early else rng.integers(1, 4, n)
    keys = np.full(int(rng.integers(0, n + 1)), -1, dtype=np.int64)
    recorded = {}
    for key in rng.choice(1000, int(rng.integers(0, 6)), replace=False).tolist():
        if len(keys):
            keys[rng.integers(0, len(keys), int(rng.integers(1, 30)))] = key
        recorded[key] = (int(2 ** rng.integers(0, 6) if early else rng.integers(1, 40)),
                         float(rng.integers(0, 6) * (0.25 if early else 0.2)))
    state = _recorded_state(keys, recorded)
    if early:
        members = np.flatnonzero(keys >= 0)
        _, first = np.unique(keys[members], return_index=True)
        base[np.setdiff1d(members, members[first])] = 0
    grown = rng.integers(0, 3, len(keys))
    k = 2.0 ** -int(rng.integers(0, 6)) if early else float(rng.choice([0.1, 0.5, 2.0]))
    min_size = int(rng.choice([1, 2, 5, 20]))
    return n, edges, base, keys, grown, state, k, min_size


def _recorded_state(keys, recorded) -> _StreamState:
    """A one-level state whose tables hold the recorded (size, internal
    difference) of the keys that occur in keys, in ascending key order."""
    state = _StreamState(1)
    table = [recorded[key] for key in np.unique(keys[keys >= 0]).tolist()]
    state.sizes[0] = np.array([size for size, _ in table], dtype=np.int64)
    state.ints[0] = np.array([internal for _, internal in table], dtype=np.float64)
    return state


def _limit_case(second_weight: float):
    """Four singletons with limit k = 1/4 behind 1024 self-loops, so the
    second block starts with edges (0, 3) and (1, 2) at second_weight, then
    holds (0, 1) at 0.3."""
    loops = np.zeros(1024, dtype=np.int64)
    edges = make_edges(np.concatenate([loops, [1, 0, 1]]), np.concatenate([loops, [2, 3, 0]]),
                       np.concatenate([np.zeros(1024), [second_weight, second_weight, 0.3]]))
    return (4, edges, np.ones(4, dtype=np.int64), np.full(0, -1, dtype=np.int64),
            np.zeros(0, dtype=np.int64), _StreamState(1), 0.25, 1)


def _union_case(base, keys, recorded, pairs, k, min_size=1):
    """Items of the given sizes, the keyed ones pre-grouped into marked
    components with recorded (size, internal difference) per key, and one
    edge per (a, b, w) of pairs, all in one block unless there are more
    than 1024."""
    a, b, w = zip(*pairs)
    keys = np.array(keys, dtype=np.int64)
    return (len(base), make_edges(a, b, w), np.array(base, dtype=np.int64), keys,
            np.zeros(len(keys), dtype=np.int64), _recorded_state(keys, recorded), k, min_size)


def _blocks_case(base, keys, recorded, blocks, k, min_size=1):
    """_union_case with the edges in blocks of 1024, the least block size
    of the sweep: block j holds the (a, b, w) of blocks[j] and self-loops of
    one more item at its largest weight, and each block's weights lie above
    the last one's, so sweep order keeps every block together."""
    pad = len(base)
    pairs, top = [], -1.0
    for block in blocks:
        assert min(w for _, _, w in block) > top and len(block) <= 1024
        top = max(w for _, _, w in block)
        pairs += block + [(pad, pad, top)] * (1024 - len(block))
    return _union_case(list(base) + [1], keys, recorded, pairs, k, min_size)


def _sweep_cases():
    for seed in range(600):
        yield seed, _sweep_case(seed)
    # the limits 1/4 equal the second block's first weight, and the first
    # two merges of that block raise both limits to 3/8, above the edge at 0.3
    yield "limit equal to first weight", _limit_case(0.25)
    # the limits 1/4 lie below that weight: no edge merges
    yield "limit below first weight", _limit_case(0.26)
    # marked item 0 (size 1) joins unmarked item 1 (size 3), whose root
    # survives: the mark and the key's label must pass to it, or item 1 would
    # then join item 2, marked with another key
    yield "marked smaller side", _union_case(
        [1, 3, 1, 1], [5, -1, 6], {5: (1, 0.0), 6: (1, 0.0)},
        [(0, 1, 0.1), (1, 2, 0.2)], 10.0)
    # two components of size 2, the second marked: the first survives and
    # takes the mark, so it must not join marked item 2 next
    yield "equal sizes", _union_case(
        [2, 2, 1], [-1, 7, 8], {7: (2, 0.0), 8: (1, 0.0)},
        [(0, 1, 0.1), (0, 2, 0.2)], 10.0)
    # marked item 0 brings its recorded internal difference 0.8 into the
    # larger item 1 at weight 0.1; with it the merged limit 0.8 + 1/5 lets
    # item 3 join at 0.5, with the survivor's own 0.1 it would not
    yield "absorbed internal difference", _union_case(
        [1, 4, 1, 1], [9], {9: (1, 0.8)},
        [(0, 1, 0.1), (1, 3, 0.5)], 1.0)
    # the keyed item 1 joins item 2, past the end of keys and larger, so
    # the component's root holds no key and its label sits on item 1
    yield "label off the root", _union_case(
        [1, 1, 5], [-1, 4], {4: (1, 0.0)}, [(1, 2, 0.1)], 10.0)
    # one block at a time, each filled by self-loops to 1024 edges: a chain
    # of unions whose sizes and internal differences carry across blocks.
    # With k = 1: {0, 1} and {2, 3} form in block 0, join in block 1 (limits
    # 0.1 + 1/2), take item 4 in block 2 (0.3 + 1/4 >= 0.5) and refuse item
    # 5 in block 3 (0.5 + 1/5 < 0.75); stale sizes or internal differences
    # would let it in, and items left on an absorbed root would join wrongly
    yield "chain across blocks", _blocks_case(
        [1] * 6, [], {},
        [[(0, 1, 0.1), (2, 3, 0.1)], [(1, 2, 0.3)], [(3, 4, 0.5)], [(5, 0, 0.75)]], 1.0)
    # hub item 600 of one block, a min id to later items and a max id to
    # earlier ones, its root hit from both ends again and again as it grows
    yield "hub hit from both ends", _blocks_case(
        [1] * 1200, [], {},
        [[(1, 0, 0.01)],
         [(600, j, 0.1 + 1e-4 * i) for i, j in enumerate(range(590, 1000))]
         + [(i, 600, 0.2 + 1e-4 * i) for i in range(100, 590)]
         + [(100, 1000 + i, 0.3 + 1e-4 * i) for i in range(100)],
         [(0, 600, 0.5)]], 50.0)
    # block 1 holds edges inside block 0's components only, so no edge of
    # it is live; block 2 then merges over roots that block 0 moved
    yield "block with no live edge", _blocks_case(
        [1] * 8, [], {},
        [[(0, 1, 0.1), (2, 3, 0.1), (4, 5, 0.1), (1, 2, 0.15)],
         [(0, 3, 0.2), (3, 2, 0.2), (4, 5, 0.2)],
         [(3, 4, 0.3), (5, 6, 0.3), (7, 7, 0.3)]], 2.0)
    # two marked roots in one block: item 2 joins marked item 0 first, and
    # so must not join marked item 1 next, though its root was unmarked at
    # the block's start; item 3 then joins item 1 alone
    yield "two marked roots in one block", _blocks_case(
        [1, 1, 1, 1, 1], [5, 6], {5: (2, 0.0), 6: (2, 0.0)},
        [[(4, 4, 0.05)], [(0, 2, 0.1), (1, 2, 0.2), (0, 1, 0.25), (1, 3, 0.3)],
         [(3, 2, 0.4)]], 10.0)
    # k is too small for any merge, so the cleanup pass joins everything:
    # {0, 1, 2} reaches min_size 3 by block 1, takes item 3 in block 2 and
    # then refuses {4, 5, 6}, which reached min_size in blocks 1 and 2
    yield "cleanup across blocks", _blocks_case(
        [1] * 7, [], {},
        [[(0, 1, 0.1), (4, 5, 0.1)], [(1, 2, 0.2), (5, 6, 0.2)], [(2, 3, 0.3)],
         [(6, 0, 0.4)]], 1e-3, min_size=3)


def _undirected_rows(e) -> tuple:
    """A voxel edge array's (min id, max id, ssd) columns."""
    return np.minimum(e["a"], e["b"]), np.maximum(e["a"], e["b"]), e["ssd"]


def _component_table(roots, size, internal, marked):
    return (relabel_first_occurrence(roots), size[roots].tolist(),
            internal[roots].tolist(), marked[roots].tolist())


def _voxel_case_edges(edges) -> np.ndarray:
    """A sweep case's edges as voxel rows, with integer ssd weights ranked
    like its float ones."""
    rank = np.unique(edges["w"], return_inverse=True)[1]
    ssd = rank * (3 * 255 ** 2 // (rank.max() + 1))
    return make_edges(edges["a"], edges["b"], ssd, streamseg.VOXEL_EDGE_DTYPE)


def _check_sweep(seed, n, edges, base, keys, grown, state, k, min_size, layouts=(None,)):
    """_fh_sweep and _close_level on one case against the edge-by-edge
    oracle, for region (w) and voxel (ssd) rows alike; a layout in layouts
    runs the voxel rows packed into keys, None the rows themselves."""
    # the reference pre-groups by one union per member; the state's tables
    # hold the keys' records in ascending key order
    ref = Forest(n, sizes=base.tolist())
    for j, key in enumerate(np.unique(keys[keys >= 0]).tolist()):
        members = np.flatnonzero(keys == key).tolist()
        root = members[0]
        for i in members[1:]:
            root = ref.union(root, ref.find(i))
        ref.size[root] = int(state.sizes[0][j]) + int(grown[members].sum())
        ref.internal[root] = float(state.ints[0][j])
        ref.mark[root] = key
    oracle_fh_sweep(ref, oracle_voxel_weights(edges) if "ssd" in edges.dtype.names
                    else edges, k, min_size)
    ref_roots = np.array([ref.find(i) for i in range(n)], dtype=np.int64)
    ref_mark = np.array(ref.mark)
    want = _component_table(ref_roots, np.array(ref.size), np.array(ref.internal),
                            ref_mark >= 0)
    want_labels = ref_mark[ref_roots]
    fresh = want_labels < 0
    want_labels[fresh] = 1000 + relabel_first_occurrence(ref_roots[fresh])

    for layout in layouts:
        case = (seed, layout)
        st = copy.deepcopy(state)
        root, size, internal, marked = _pre_union(keys, base.copy(), grown, st, 0)
        if layout is None:
            swept = edges.copy()
            roots = _fh_sweep(swept, root, size, internal, marked, k, min_size)
            # the sweep reorders the rows in place, keeping every (a, b, w) row
            assert _edge_rows(swept) == _edge_rows(edges), case
        else:
            swept = _pack_keys(edges, layout)
            roots = _fh_sweep(swept, root, size, internal, marked, k, min_size, layout)
            # the sweep sorts the keys in place
            assert np.array_equal(swept, np.sort(_pack_keys(edges, layout))), case
        # every item's root is a root
        assert np.array_equal(roots[roots], roots), case
        got = _component_table(roots, size, internal, marked)
        assert np.array_equal(got[0], want[0]), case
        assert got[1:] == want[1:], case

        # a marked component keeps its key as label, wherever its root lies;
        # fresh ones are numbered past every key in first-occurrence order
        st.counters[0] = 1000
        item_grown = 1 + np.arange(n) % 3
        node, labels, node_grown = _close_level(keys, roots, size, internal, item_grown, st, 0)
        assert np.array_equal(labels[node], want_labels), case
        assert st.counters[0] == 1000 + len(np.unique(want_labels[fresh])), case
        # the components are the nodes of the level above, ranked by label,
        # each with its items' summed grown voxels
        assert (np.diff(labels) > 0).all(), case
        want_grown = [0] * len(labels)
        for nd, g in zip(node.tolist(), item_grown.tolist()):
            want_grown[nd] += g
        assert node_grown.tolist() == want_grown, case
        # every label grew, so the tables hold each one's record in label order
        table = dict(zip(want_labels.tolist(), zip(want[1], want[2])))
        assert st.sizes[0].tolist() == [table[lab][0] for lab in labels.tolist()], case
        assert st.ints[0].tolist() == [table[lab][1] for lab in labels.tolist()], case


def test_fh_sweep_equals_oracle():
    # every case on its region edges, then with integer ssd weights ranked
    # like its float ones as voxel rows (np.lexsort) and as keys
    for seed, (n, edges, *rest) in _sweep_cases():
        _check_sweep(seed, n, edges, *rest)
        _check_sweep(seed, n, _voxel_case_edges(edges), *rest,
                     layouts=(None, streamseg._key_layout(n, 1, n)))


@pytest.mark.parametrize("chunk", [1, 7])
def test_fh_sweep_builds_its_key_in_chunks(monkeypatch, chunk):
    # the key sweep reads each block's endpoints _CHUNK keys at a time: every
    # twelfth random sweep case and each named one again, as keys, plus edge
    # counts of 0 and _CHUNK
    monkeypatch.setattr(streamseg, "_CHUNK", chunk)
    for seed, (n, edges, *rest) in _sweep_cases():
        if isinstance(seed, int) and seed % 12:
            continue
        _check_sweep(seed, n, _voxel_case_edges(edges), *rest,
                     layouts=[streamseg._key_layout(n, 1, n)])
    rng = np.random.default_rng(chunk)
    for m in (0, chunk):
        edges = make_edges(rng.integers(0, 6, m), rng.integers(0, 6, m),
                           rng.integers(0, 3 * 255 ** 2 + 1, m), streamseg.VOXEL_EDGE_DTYPE)
        _check_sweep(("edges", m), 6, edges, np.ones(6, dtype=np.int64),
                     np.full(0, -1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                     _StreamState(1), 0.5, 2, layouts=[streamseg._key_layout(6, 1, 6)])


@pytest.mark.parametrize("n", [2 ** 22, 2 ** 22 + 1])
def test_fh_sweep_ranks_voxel_edges_at_the_one_key_limit(n):
    # in 2048x2048 frames max - min takes c = 23 bits beside 18 for ssd:
    # 2**22 items leave b = 22 bits for the min id, one int64 key of 63
    # bits; one more item needs 64 bits and takes np.lexsort over the rows.
    # Few edges near the top ids, with tied ssd values, so memory stays
    # modest.  By arithmetic alone, nothing built: a 1280x720x6 window
    # needs 18 + 23 + 21 = 62 bits, a 1920x1080x6 one 18 + 24 + 22 = 64
    assert streamseg._key_layout(1280 * 720 * 6, 720, 1280) == (23, 21)
    assert streamseg._key_layout(1920 * 1080 * 6, 1080, 1920) is None
    layout = streamseg._key_layout(n, 2048, 2048)
    assert layout == (None if n > 2 ** 22 else (22, 23))
    rng = np.random.default_rng(n)
    m = 3000
    ids = np.concatenate([n - 1 - np.arange(600), np.arange(20)])
    edges = np.empty(m, dtype=streamseg.VOXEL_EDGE_DTYPE)
    edges["a"] = rng.choice(ids, m)
    edges["b"] = rng.choice(ids, m)
    edges["ssd"] = rng.choice([0, 1, 2, 3, 4800, 4801, 3 * 255 ** 2], m)
    unsorted = edges.copy()
    size = np.ones(n, dtype=np.int64)
    internal = np.zeros(n)
    if layout is None:
        roots = _fh_sweep(edges, np.arange(n), size, internal, np.zeros(n, dtype=bool), 0.05, 3)
        assert _edge_rows(edges) == _edge_rows(unsorted)
        swept = _undirected_list(edges)
    else:
        keys = _pack_keys(edges, layout)
        # the largest ssd sets bit 62, the top bit of a non-negative int64
        assert keys.max() >= 2 ** 62
        roots = _fh_sweep(keys, np.arange(n), size, internal, np.zeros(n, dtype=bool), 0.05, 3,
                          layout)
        swept = _unpack_keys(keys, layout)
        assert sorted(swept) == sorted(_undirected_list(unsorted))
    # in sweep order: by (ssd, min id, max id)
    assert swept == sorted(swept, key=lambda row: (row[2], row[0], row[1]))
    touched = np.unique(ids)
    got = (relabel_first_occurrence(roots[touched]), size[roots[touched]].tolist(),
           internal[roots[touched]].tolist())
    assert np.array_equal(roots[~np.isin(np.arange(n), touched)],
                          np.setdiff1d(np.arange(n), touched))
    del size, internal, roots
    # the oracle sweeps the touched items under ids ranked as before: the
    # sweep order and every merge decision stay the same
    ref = Forest(len(touched))
    small = oracle_voxel_weights(unsorted)
    small["a"] = np.searchsorted(touched, small["a"])
    small["b"] = np.searchsorted(touched, small["b"])
    oracle_fh_sweep(ref, small, 0.05, 3)
    ref_roots = [ref.find(i) for i in range(len(touched))]
    want = (relabel_first_occurrence(np.array(ref_roots)),
            [ref.size[r] for r in ref_roots], [ref.internal[r] for r in ref_roots])
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    # both passes merged, into more than one component
    assert 3 <= min(want[1]) and len(np.unique(want[0])) > 1


def _traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_fh_sweep_holds_no_per_item_state():
    # 2**18 items, the first half frozen under 64 labels, their edges all
    # dead, and 3000 live edges among the new items: the sweep's union-find
    # spans one block's live roots, so beyond its inputs it holds only
    # block-sized arrays, about 9 B per item.  With n-sized merge lists
    # (32 B per item), a per-item limit and a remap array it took 58
    n = 1 << 18
    rng = np.random.default_rng(3)
    frozen = np.arange(n // 2 - 1)
    a = np.concatenate([frozen, rng.integers(n // 2, n, 3000)])
    b = np.concatenate([frozen + 1, rng.integers(n // 2, n, 3000)])
    ssd = np.concatenate([np.zeros(len(frozen)), rng.integers(0, 3 * 255 ** 2 // 4, 3000)])
    layout = streamseg._key_layout(n, 1, n)
    keys = _pack_keys(make_edges(a, b, ssd, streamseg.VOXEL_EDGE_DTYPE), layout)
    labels = frozen // (n // 128)
    state = _StreamState(1)
    state.sizes[0] = np.full(64, n // 128, dtype=np.int64)
    state.ints[0] = np.zeros(64)
    grown = np.ones(n, dtype=np.int64)
    grown[:len(frozen)] = 0
    root, size, internal, marked = _pre_union(labels, grown.copy(), grown, state, 0)
    roots, extra = _traced_peak(_fh_sweep, keys, root, size, internal, marked, 0.5, 4, layout)
    assert extra / n < 16
    # the frozen labels stayed apart and the new items merged
    assert len(np.unique(roots[:len(frozen)])) == 64
    assert len(np.unique(roots[n // 2:])) < n // 2 - 1000


def test_close_level_peak_bytes_per_item():
    # a third of the items keyed: the peak beyond the close's inputs, its
    # results included, is about 20 B per item, without n Python ints or
    # np.unique's sort and temporaries (about 41 B per item)
    n = 1 << 18
    rng = np.random.default_rng(4)
    comp = np.sort(rng.integers(0, n // 40, n))
    ends = np.flatnonzero(np.diff(comp, append=comp[-1] + 1))
    roots = ends[np.searchsorted(comp[ends], comp)]
    keys = comp[:n // 3]
    size = np.bincount(roots, minlength=n)
    internal = rng.random(n)
    grown = (np.arange(n) >= n // 3).astype(np.int8)
    state = _StreamState(1)
    state.counters[0] = n
    (node, labels, node_grown), extra = _traced_peak(_close_level, keys, roots, size, internal,
                                                     grown, state, 0)
    assert extra / n <= 24
    # a keyed component keeps its key, the fresh ones follow the counter in
    # the order of their least items, which is the order of comp
    kept = np.unique(keys)
    fresh = np.setdiff1d(comp, kept)
    want = np.where(np.isin(comp, kept), comp, n + np.searchsorted(fresh, comp))
    assert np.array_equal(labels[node], want)
    assert state.counters[0] == n + len(fresh)
    assert node_grown.tolist() == np.bincount(node, weights=grown).tolist()
    # the tables hold the grown labels' sizes in label order
    alive, counts = np.unique(want, return_counts=True)
    assert np.array_equal(state.sizes[0], counts[np.isin(alive, want[n // 3:])])


# ---------------------------------------------------------------- level 0

def _level0(video: np.ndarray, k0: float, min_size: int) -> np.ndarray:
    """Level 0 of the one-window stream over video, without flow."""
    config = StreamConfig(subseq_len=video.shape[0], levels=1, k0=k0, min_size=min_size)
    return stream_segment(video, None, config).levels[0]


def test_constant_color_collapses_to_one_region():
    window = np.full((2, 4, 4, 3), 77, dtype=np.uint8)
    labels = _level0(window, k0=0.5, min_size=1)
    assert np.array_equal(labels, np.zeros((2, 4, 4), dtype=np.int64))


def test_distinct_color_blocks_stay_separate():
    window = np.zeros((1, 4, 8, 3), dtype=np.uint8)
    window[..., :4, :] = (200, 30, 30)
    window[..., 4:, :] = (30, 30, 200)
    labels = _level0(window, k0=0.01, min_size=1)[0]
    assert np.all(labels[:, :4] == 0)
    assert np.all(labels[:, 4:] == 1)


def test_no_edges_leaves_singletons():
    labels = _level0(np.zeros((1, 1, 1, 3), dtype=np.uint8), k0=1.0, min_size=1)
    assert np.array_equal(labels, np.zeros((1, 1, 1), dtype=np.int64))


def test_min_size_cleanup_absorbs_small_components():
    # one bright pixel inside a dark frame; k0 tiny so it survives the sweep,
    # min_size 2 forces the cleanup pass to merge it into its surroundings
    window = np.zeros((1, 3, 3, 3), dtype=np.uint8)
    window[0, 1, 1] = 255
    labels = _level0(window, k0=1e-6, min_size=2)
    assert len(np.unique(labels)) == 1


# ---------------------------------------------------------------- distances

def test_chi2_identical_is_zero():
    h = np.array([0.25, 0.5, 0.25])
    assert _chi2_rows(h, h) == 0.0


def test_chi2_disjoint_is_one():
    # non-overlapping unit masses: 0.5 * (1/1 + 1/1) = 1 up to the epsilon
    d = _chi2_rows(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(d - 1.0) < 1e-9


def test_combine_distance_boundary_values():
    assert combine_distance(0.0, 0.0) == 0.0
    for x in np.linspace(0.0, 1.0, 101):
        assert combine_distance(1.0, float(x)) == 1.0
        assert combine_distance(float(x), 1.0) == 1.0
    # (1 - 0.5*0.5)^2 = 0.75^2
    assert abs(combine_distance(0.5, 0.5) - 0.5625) <= 1e-12


def test_combine_distance_monotone_grid():
    grid = np.linspace(0.0, 1.0, 101)
    m = np.array([[combine_distance(float(a), float(b)) for b in grid]
                  for a in grid])
    assert np.all(np.diff(m, axis=0) >= 0.0)
    assert np.all(np.diff(m, axis=1) >= 0.0)


def test_combine_distance_domain():
    with pytest.raises(ValueError):
        combine_distance(-0.1, 0.5)
    with pytest.raises(ValueError):
        combine_distance(0.5, 1.1)


# ---------------------------------------------------------------- region graph

def _voxel_graph(frames) -> np.ndarray:
    """The grid 26-neighborhood's voxel edges."""
    return np.concatenate([build_spatial_edges(frames), build_temporal_edges(frames, None, False)])


def _one_pair_weight(frames, flows, node_index, config=StreamConfig()) -> float:
    """The weight of the one region pair of a window of two nodes."""
    (a, b, weight), = voxel_region_edges(frames, flows, _voxel_graph(frames),
                                         np.asarray(node_index), 2, config).tolist()
    assert (a, b) == (0, 1)
    return weight


def test_region_features_hand_check():
    config = StreamConfig(color_bins=8, flow_bins=9, flow_range=16.0)
    # value v lands in bin v*8 // 256, which holds 32k..32k+31: 10->0,
    # 100->3, 200->6, 255->7.  Two one-voxel nodes of gray values are at
    # distance 0 when they share a bin and near 1 when they do not
    frames = np.zeros((1, 1, 2, 3), dtype=np.uint8)
    for value, k in ((10, 0), (100, 3), (200, 6), (255, 7)):
        frames[0, 0, 0] = value
        for other, same in ((32 * k, True), (32 * k + 31, True),
                            (32 * k - 1 if k else 32, False)):
            frames[0, 0, 1] = other
            weight = _one_pair_weight(frames, None, [0, 1], config)
            assert weight == 0.0 if same else weight > 0.99, (value, other)
    # equal colors and two nodes in frame 1, one moving by (0, +flow_range):
    # a flow component that shares no bin with the other node's halves the
    # flow similarity, so the weight is (1 - 1/2)**2; bin k's center is
    # -16 + (k + 1/2) * 32/9, so u = 0 falls into the center bin 4 and
    # v = +flow_range into the last bin 8
    frames = np.full((2, 1, 2, 3), 90, dtype=np.uint8)
    center = [-16.0 + (k + 0.5) * 32.0 / 9.0 for k in range(9)]
    for k in range(9):
        for comp, own in ((0, 4), (1, 8)):
            flow = np.zeros((1, 2, 2))
            flow[0, 0] = 0.0, 16.0
            flow[0, 1] = center[4], center[8]
            flow[0, 1, comp] = center[k]
            weight = _one_pair_weight(frames, [flow], [0, 1, 0, 1], config)
            assert weight == 0.0 if k == own else abs(weight - 0.25) < 1e-9, (comp, k)


def test_flow_distance_without_common_frames():
    # region 0 fills frames 0-1 moving right, region 1 fills frame 2 moving
    # left, so the two never share a flow frame: the flow distance is 0, and
    # the color distance d_c is still fused with it, as (1 - (1 - d_c))**2
    frames = np.full((3, 2, 2, 3), 90, dtype=np.uint8)
    flows = [np.zeros((2, 2, 2)), np.zeros((2, 2, 2))]
    flows[0][..., 0] = 16.0
    flows[1][..., 0] = -16.0
    node_index = np.repeat([0, 0, 1], 4)
    assert _one_pair_weight(frames, flows, node_index) == 0.0   # no motion evidence
    frames[2, 0] = 200
    d_c = _one_pair_weight(frames, None, node_index)
    assert 0.3 < d_c < 0.4
    assert _one_pair_weight(frames, flows, node_index) == (1.0 - (1.0 - d_c)) ** 2


@pytest.mark.parametrize("flow", ["feature", "feature-off", "none", "one-frame"])
@pytest.mark.parametrize("seed", range(3))
def test_region_edges_equal_oracle(seed, flow):
    # random nodes over random voxels; frame 0 holds nodes of its own, so
    # every pair across frames 0 and 1 shares no flow frame
    rng = np.random.default_rng(seed)
    t_len, h, w = (1 if flow == "one-frame" else 3), 5, 6
    frames = _rand_video(seed, t_len, h, w)
    flows = [rng.uniform(-20.0, 20.0, (h, w, 2)).astype(np.float32) for _ in range(t_len - 1)]
    labels = rng.integers(0, 4, (t_len, h, w))
    labels[1:] += 4
    _, node_index = np.unique(labels.ravel(), return_inverse=True)
    config = StreamConfig(color_bins=int(rng.integers(2, 257)), flow_bins=int(rng.integers(2, 12)),
                          flow_range=float(rng.uniform(4.0, 24.0)),
                          use_flow_feature=flow != "feature-off")
    flows = None if flow == "none" else flows
    edges = _voxel_graph(frames)
    got = voxel_region_edges(frames, flows, edges, node_index, int(node_index.max()) + 1, config)
    want = oracle_region_weights(frames, flows, edges, node_index, config)
    assert [(a, b) for a, b, _ in got.tolist()] == sorted(want)
    assert np.allclose(got["w"], [want[p] for p in sorted(want)], rtol=0.0, atol=1e-12)
    if t_len > 1:
        assert any(a < 4 <= b for a, b in want) and any(a >= 4 for a, _ in want)


@pytest.mark.parametrize("case", ["feature", "feature-off", "none", "one-frame", "no-pairs"])
@pytest.mark.parametrize("seed", range(4))
def test_coarsened_region_graph_equals_voxel_build(seed, case):
    # random nested groupings of a random window, coarsest last: one node.
    # Level 1's graph is built from the voxels and each higher one from the
    # level below; every level must give the voxel build's edges exactly.
    # Frame 0 holds nodes of its own at level 1, so some pairs share no
    # flow frame.  "no-pairs" keeps only the spatial edges and groups each
    # frame into one node, a level of several nodes and no pair.
    rng = np.random.default_rng(seed)
    t_len, h, w = (1 if case == "one-frame" else 3), 5, 6
    frames = _rand_video(seed, t_len, h, w)
    flows = [rng.uniform(-20.0, 20.0, (h, w, 2)).astype(np.float32) for _ in range(t_len - 1)]
    config = StreamConfig(color_bins=int(rng.integers(2, 257)), flow_bins=int(rng.integers(2, 12)),
                          flow_range=float(rng.uniform(4.0, 24.0)),
                          use_flow_feature=case != "feature-off")
    flows = None if case == "none" else flows
    if case == "no-pairs":
        edges = build_spatial_edges(frames)
        labels = [np.arange(t_len)[:, None, None] * 8 + rng.integers(0, 8, (t_len, h, w))]
        labels.append(labels[0] // 8)
    else:
        edges = _voxel_graph(frames)
        labels = [rng.integers(0, 12, (t_len, h, w))]
        labels[0][1:] += 12
        for _ in range(int(rng.integers(1, 3))):
            labels.append(rng.integers(0, 6, labels[-1].max() + 1)[labels[-1]])
    labels.append(np.zeros_like(labels[0]))
    graph = None
    shapes = []
    for level, lab in enumerate(labels):
        _, first, node_index = np.unique(lab.ravel(), return_index=True, return_inverse=True)
        nn = len(first)
        if graph is None:
            graph = streamseg._region_graph(frames, flows, edges, node_index, nn, config)
        else:
            # each node of the level below goes to the node of its first voxel
            graph = streamseg._coarsen(graph, node_index[below_first], nn)
        got = streamseg._graph_edges(graph, config)
        want = voxel_region_edges(frames, flows, edges, node_index, nn, config)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), level
        # and the voxel build against the independent per-pair reference
        ref = oracle_region_weights(frames, flows, edges, node_index, config)
        assert [(a, b) for a, b, _ in want.tolist()] == sorted(ref)
        assert np.allclose(want["w"], [ref[p] for p in sorted(ref)], rtol=0.0, atol=1e-12)
        below_first = first
        shapes.append((nn, len(got)))
    assert shapes[-1] == (1, 0)
    if case == "no-pairs":
        assert shapes[1] == (t_len, 0)
    else:
        assert all(pairs > 0 for _, pairs in shapes[:-1])


@pytest.mark.parametrize("chunk", [1, 7])
def test_region_graph_pairs_in_chunks(monkeypatch, chunk):
    # level 1's pairs are made distinct per chunk of _CHUNK voxel edges, rows
    # or keys, and then across chunks: they must equal one np.unique over
    # all the pairs, also with no edge, one full chunk and repeats across
    # chunk boundaries
    monkeypatch.setattr(streamseg, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    frames = _rand_video(chunk, 2, 4, 5)
    for m in (0, 1, chunk, chunk + 1, 3 * chunk - 1, 200):
        nn = int(rng.integers(1, 7))
        node_index = rng.integers(0, nn, frames[..., 0].size)
        edges = make_edges(rng.integers(0, 40, m), rng.integers(0, 40, m),
                           rng.integers(0, 3 * 255 ** 2 + 1, m), streamseg.VOXEL_EDGE_DTYPE)
        na, nb = node_index[edges["a"]], node_index[edges["b"]]
        differ = na != nb
        pa, pb = np.divmod(np.unique(np.minimum(na, nb)[differ] * nn
                                     + np.maximum(na, nb)[differ]), nn)
        # the window's voxel edges as rows, and as keys
        key_layout = streamseg._key_layout(40, 4, 5)
        for given, layout in ((edges, None), (_pack_keys(edges, key_layout), key_layout)):
            graph = streamseg._region_graph(frames, None, given, node_index, nn, StreamConfig(),
                                            layout)
            assert graph.pa.dtype == graph.pb.dtype == np.int64, m
            assert graph.pa.tolist() == pa.tolist() and graph.pb.tolist() == pb.tolist(), m


@pytest.mark.parametrize("levels", [2, 3, 6])
def test_window_reads_its_voxels_once(monkeypatch, levels):
    # level 1's region graph comes from the voxels, every higher level's from
    # the level below, so a window bins its voxels once whatever the depth
    reads = []
    region_graph = streamseg._region_graph

    def counted(frames_w, *args):
        reads.append(len(frames_w))
        return region_graph(frames_w, *args)

    monkeypatch.setattr(streamseg, "_region_graph", counted)
    frames, _, flows = _scene(7, t=8)
    config = StreamConfig(subseq_len=3, levels=levels, k0=0.5, min_size=4)
    hier = stream_segment(frames, flows, config)
    assert reads == [3, 6, 5]
    assert len(np.unique(hier.levels[-1])) < len(np.unique(hier.levels[0]))


# ---------------------------------------------------------------- hierarchy

def _scene(seed: int, t: int = 6) -> tuple:
    spec = SceneSpec(
        width=20, height=20, num_frames=t, seed=seed,
        background_color=(70, 80, 100), noise_sigma=0.0, texture_amplitude=35.0,
        objects=(ObjectSpec("rect", (8.0, 4.0, 7.0, 6.0), color=(190, 70, 50),
                            motion=AffineModel(a1=0.5, a4=-0.3)),),
    )
    return generate(spec)


def _assert_nested(fine: np.ndarray, coarse: np.ndarray):
    pairs = np.unique(np.stack([fine.ravel(), coarse.ravel()], axis=1), axis=0)
    assert len(np.unique(pairs[:, 0])) == len(pairs), "a fine region spans two coarse regions"


def test_hierarchy_nesting_and_counts():
    frames, _, flows = _scene(3)
    config = StreamConfig(subseq_len=6, levels=4, k0=0.5, min_size=4)
    hier = stream_segment(frames, flows, config)
    counts = [len(np.unique(lv)) for lv in hier.levels]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    for fine, coarse in zip(hier.levels, hier.levels[1:]):
        _assert_nested(fine, coarse)


def test_stream_one_window_equals_whole_build():
    frames, _, flows = _scene(4, t=3)
    config = StreamConfig(subseq_len=3, levels=4, k0=0.5, min_size=4)
    streamed = stream_segment(frames, flows, config)
    spatial = build_spatial_edges(frames)
    temporal = build_temporal_edges(frames, flows, config.use_flow_edges)
    edges = np.concatenate([spatial, temporal])
    level0 = oracle_segment_level0(edges, frames[..., 0].size, config.k0,
                                   config.min_size).reshape(frames.shape[:3])
    whole = oracle_build_hierarchy(level0, frames, flows, config)
    for lv_s, lv_w in zip(streamed.levels, whole.levels):
        assert np.array_equal(lv_s, lv_w)


def test_stream_prefix_stability():
    frames, _, flows = _scene(5, t=9)
    config = StreamConfig(subseq_len=3, levels=3, k0=0.5, min_size=4)
    full = stream_segment(frames, flows, config)
    prefix = stream_segment(frames[:6], flows[:5], config)
    for lv_f, lv_p in zip(full.levels, prefix.levels):
        assert np.array_equal(lv_f[:6], lv_p)


def test_stream_labels_finalized_per_window():
    frames, _, flows = _scene(6, t=9)
    config = StreamConfig(subseq_len=3, levels=3, k0=0.5, min_size=4)
    hier = stream_segment(frames, flows, config)
    # a region never loses voxels to a later window: every label present in a
    # finished subsequence keeps the same footprint when the stream continues
    prefix = stream_segment(frames[:3], flows[:2], config)
    for lv_f, lv_p in zip(hier.levels, prefix.levels):
        assert np.array_equal(lv_f[:3], lv_p)


@pytest.mark.parametrize("t, with_flow", [(10, True), (9, False)])
def test_stream_blocks_yield_final_labels_as_each_window_closes(t, with_flow):
    frames, _, flows = _scene(7, t=t)
    flows = flows if with_flow else None
    config = StreamConfig(subseq_len=3, levels=3, k0=0.5, min_size=4)
    whole = stream_segment(frames, flows, config).levels
    read = []

    def subsequences():
        for s in range(0, t, 3):
            block = frames[s:s + 3], None if flows is None else flows[max(s - 1, 0):s + 2]
            read.append((s, block))
            yield block

    yielded = []
    for s, labels, *block in streamseg.stream_blocks(subsequences(), config):
        # yielded as its own window closes, before the next subsequence is
        # read, with that subsequence's frames and flows as they were taken
        assert read[-1][0] == s
        assert block[0] is read[-1][1][0] and block[1] is read[-1][1][1]
        assert [block.shape for block in labels] == [(min(3, t - s), 20, 20)] * 3
        for level, block in enumerate(labels):
            assert block.dtype == np.int64
            assert np.array_equal(block, whole[level][s:s + len(block)])
        yielded.append((labels, [block.copy() for block in labels]))
    assert [s for s, _ in read] == list(range(0, t, 3)) and len(yielded) == len(read)
    # no later window rewrites a block it was handed
    for labels, copies in yielded:
        assert all(np.array_equal(b, c) for b, c in zip(labels, copies))


@pytest.mark.parametrize("blocks, message", [
    ([(2, 8, 8), (3, 8, 8)], "only the last subsequence may be short"),
    ([(3, 8, 8), (3, 8, 9)], "frame dimensions differ between subsequences"),
    ([(4, 8, 8)], "a subsequence holds 1 to 3 frames"),
    ([(0, 8, 8)], "a subsequence holds 1 to 3 frames"),
])
def test_stream_blocks_refuses_malformed_subsequences(blocks, message):
    config = StreamConfig(subseq_len=3, levels=2)
    feed = ((np.zeros(shape + (3,), np.uint8), None) for shape in blocks)
    with pytest.raises(ValueError, match=message):
        list(streamseg.stream_blocks(feed, config))


@pytest.mark.parametrize("pairs", [1, 3])
def test_stream_blocks_refuses_a_wrong_flow_count(pairs):
    # the first subsequence of 3 frames holds 2 pairs, every later one 3
    config = StreamConfig(subseq_len=3, levels=2)
    frames = np.zeros((3, 8, 8, 3), np.uint8)
    with pytest.raises(ValueError, match="one flow field per consecutive frame pair"):
        list(streamseg.stream_blocks([(frames, [np.zeros((8, 8, 2))] * pairs)], config))


@pytest.mark.parametrize("first_has_flows", [True, False])
def test_stream_blocks_refuses_flows_for_some_subsequences_only(monkeypatch, first_has_flows):
    # flows come with every subsequence or with none: a change is refused
    # before the window it would open
    passes = []
    window_pass = streamseg._window_pass
    monkeypatch.setattr(streamseg, "_window_pass",
                        lambda *args: passes.append(args) or window_pass(*args))
    frames = np.zeros((3, 8, 8, 3), np.uint8)
    flow = np.zeros((8, 8, 2))
    feed = [(frames, [flow] * 2), (frames, None)] if first_has_flows else \
        [(frames, None), (frames, [flow] * 3)]
    blocks = streamseg.stream_blocks(iter(feed), StreamConfig(subseq_len=3, levels=2))
    next(blocks)
    with pytest.raises(ValueError, match="flows given for some subsequences and not others"):
        next(blocks)
    assert len(passes) == 1


@pytest.mark.parametrize("with_flow", [True, False])
def test_stream_state_sizes_count_every_emitted_voxel(monkeypatch, with_flow):
    # a frozen region's size is rebuilt from its recorded size plus its voxels
    # in each new window, so the record must equal its footprint in the output
    states = []

    class RecordedState(streamseg._StreamState):
        def __init__(self, levels):
            super().__init__(levels)
            states.append(self)

    # at the start of every window the tables line up with np.unique of the
    # frozen labels, each sized by its voxels in the frames emitted so far
    emitted = [np.zeros(0, dtype=np.int64)] * 3
    window_pass = streamseg._window_pass
    windows = []

    def checked_window_pass(frames_w, flows_w, config, old_labels, state):
        for level, old in enumerate(old_labels):
            frozen = np.unique(old)
            assert len(state.sizes[level]) == len(state.ints[level]) == len(frozen)
            assert np.array_equal(state.sizes[level], np.bincount(emitted[level])[frozen])
        volumes = window_pass(frames_w, flows_w, config, old_labels, state)
        for level, vol in enumerate(volumes):
            emitted[level] = np.concatenate([emitted[level], vol.ravel()])
        windows.append(len(frames_w))
        return volumes

    monkeypatch.setattr(streamseg, "_StreamState", RecordedState)
    monkeypatch.setattr(streamseg, "_window_pass", checked_window_pass)
    frames, _, flows = _scene(7, t=9)
    config = StreamConfig(subseq_len=2, levels=3, k0=0.5, min_size=4)
    hier = stream_segment(frames, flows if with_flow else None, config)
    assert windows == [2, 4, 4, 4, 3]
    state, = states
    for level, vol in enumerate(hier.levels):
        alive = np.unique(vol[8:])
        assert len(state.ints[level]) == len(alive)
        assert np.array_equal(state.sizes[level], np.bincount(vol.ravel())[alive])
        # labels alive since the first window: sizes carried across four closes
        assert np.intersect1d(alive, vol[0]).size > 0


def test_stream_numbers_fresh_labels_by_first_voxel():
    # a mosaic whose tiles change every two frames, so each of four windows
    # opens new regions at each of four levels, merged from several nodes
    # above level 0: in every emitted block the labels not emitted before
    # are the level's next counter values, first occurring in increasing
    # order in voxel (t, y, x) order
    rng = np.random.default_rng(9)
    tiles = rng.choice([40, 130, 220], (6, 4, 4, 3)) + rng.integers(0, 24, (6, 4, 4, 3))
    frames = tiles.repeat(2, axis=0).repeat(5, axis=1).repeat(5, axis=2)
    frames = np.clip(frames + rng.integers(-3, 4, frames.shape), 0, 255).astype(np.uint8)
    config = StreamConfig(subseq_len=3, levels=4, k0=0.2, k_growth=4.0, min_size=4)
    emitted = [np.zeros(0, dtype=np.int64)] * config.levels
    windows = 0
    for _, labels, _, _ in streamseg.stream_blocks(
            ((frames[s:s + 3], None) for s in range(0, 12, 3)), config):
        windows += 1
        for level, block in enumerate(labels):
            flat = block.ravel()
            seen = flat[np.sort(np.unique(flat, return_index=True)[1])]
            fresh = seen[~np.isin(seen, emitted[level])].tolist()
            # a label is emitted by the window that makes it: the counter
            # equals the number of labels emitted so far
            counter = len(emitted[level])
            assert len(fresh) > 1 and fresh == list(range(counter, counter + len(fresh)))
            emitted[level] = np.union1d(emitted[level], seen)
    assert windows == 4
    # the coarsest level merged nodes: it holds fewer labels than level 0
    assert len(emitted[-1]) < len(emitted[0])


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16])
def test_frames_other_than_uint8_refused_before_any_work(monkeypatch, dtype):
    def no_work(*args):
        raise AssertionError("a window was segmented")

    monkeypatch.setattr(streamseg, "_window_pass", no_work)
    frames = np.zeros((3, 8, 8, 3), dtype=dtype)
    with pytest.raises(ValueError, match="frames must be uint8"):
        stream_segment(frames, None, StreamConfig())
    with pytest.raises(ValueError, match="frames must be uint8"):
        next(streamseg.stream_blocks([(frames, None)], StreamConfig()))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_flow_refused_before_its_window(monkeypatch, bad):
    # a NaN or infinite vector has no target voxel and no flow bin; a held
    # video is checked before its first window, a streamed subsequence
    # before its own window
    windows = []
    window_pass = streamseg._window_pass

    def counted(*args):
        windows.append(len(args[0]))
        return window_pass(*args)

    monkeypatch.setattr(streamseg, "_window_pass", counted)
    frames = _rand_video(0, 6, 8, 8)
    flows = [np.zeros((8, 8, 2), np.float32) for _ in range(5)]
    flows[4][3, 2, 1] = bad
    config = StreamConfig(subseq_len=3, levels=2)
    with pytest.raises(ValueError, match="flow fields must be finite"):
        stream_segment(frames, flows, config)
    assert windows == []
    blocks = streamseg.stream_blocks([(frames[:3], flows[:2]), (frames[3:], flows[2:])], config)
    assert next(blocks)[0] == 0
    with pytest.raises(ValueError, match="flow fields must be finite"):
        next(blocks)
    assert windows == [3]


def test_video_shape_validation():
    config = StreamConfig()
    with pytest.raises(ValueError):
        stream_segment(np.zeros((2, 4, 4), dtype=np.uint8), None, config)
    with pytest.raises(ValueError):
        stream_segment(np.zeros((2, 4, 4, 3), dtype=np.uint8),
                       [np.zeros((4, 4, 2))] * 3, config)
    with pytest.raises(ValueError):
        stream_segment(np.zeros((2, 4, 4, 3), dtype=np.uint8),
                       [np.zeros((4, 5, 2))], config)


def test_window_of_2_31_voxels_refused():
    # a broadcast view allocates nothing: two 32768x32768 frames, 2**31 voxels
    huge = np.broadcast_to(np.zeros((1, 1, 1, 3), np.uint8), (2, 32768, 32768, 3))
    with pytest.raises(ValueError, match=r"2\*\*31 voxels"):
        stream_segment(huge, None, StreamConfig())


@pytest.mark.parametrize("shape, subseq_len, refused", [
    ((2, 32768, 32767, 3), 3, False),
    ((2, 32768, 32768, 3), 3, True),
    ((1, 32768, 32768, 3), 3, False),     # one frame: 2**30 voxels
    ((100, 16384, 32768, 3), 1, False),   # windows of two frames: 2**30
    ((100, 16384, 32768, 3), 2, True),    # windows of four frames: 2**31
])
def test_window_size_guard(shape, subseq_len, refused):
    config = StreamConfig(subseq_len=subseq_len)
    if refused:
        with pytest.raises(ValueError):
            check_window_size(shape, config)
    else:
        check_window_size(shape, config)
    # every admitted window keeps the sweep's packed key min*n + max in int64
    n = 2 ** 31 - 1
    assert n * n <= np.iinfo(np.int64).max


def test_one_window_peak_bytes_per_voxel(monkeypatch):
    # fixed textured scenes with flow, each in one window: 64x48x4 and
    # 320x240x6 with the voxel edges as one int64 key each, built in place
    # and sorted in place, endpoints decoded _CHUNK keys at a time, and the
    # sweep's union-find kept per block, measure about 213 and 220 B/voxel.
    # The 320x240x6 window forced through the rows and np.lexsort, the form
    # of windows whose keys need more than 63 bits, measures about 440, set
    # by its sort, and both forms give the same labels
    labels = {}
    for w, h, t, form, bound in ((64, 48, 4, "keys", 240), (320, 240, 6, "keys", 240),
                                 (320, 240, 6, "rows", 450)):
        spec = SceneSpec(
            width=w, height=h, num_frames=t, seed=5,
            background_color=(70, 80, 100), noise_sigma=2.0, texture_amplitude=35.0,
            background_motion=AffineModel(a1=0.4, a4=0.2),
            objects=(ObjectSpec("rect", (20 * w / 64, 12 * h / 48, 18 * w / 64, 14 * h / 48),
                                color=(190, 70, 50), motion=AffineModel(a1=1.5, a4=-0.8)),),
        )
        frames, _, flows = generate(spec)
        config = StreamConfig(subseq_len=t, k0=0.5, min_size=8)
        with monkeypatch.context() as m:
            if form == "rows":
                m.setattr(streamseg, "_key_layout", lambda n, h, w: None)
            hier, extra = _traced_peak(stream_segment, frames, flows, config)
        assert extra / (t * h * w) < bound, (w, h, t, form)
        want = labels.setdefault((w, h, t), hier.levels)
        assert all(np.array_equal(a, b) for a, b in zip(hier.levels, want)), (w, h, t, form)


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(subseq_len=0)
    with pytest.raises(ValueError):
        StreamConfig(levels=0)
    with pytest.raises(ValueError):
        StreamConfig(k0=0.0)
    with pytest.raises(ValueError):
        StreamConfig(k_growth=1.0)
    with pytest.raises(ValueError):
        StreamConfig(min_size=0)
    with pytest.raises(ValueError):
        StreamConfig(color_bins=1)
    with pytest.raises(ValueError):
        StreamConfig(flow_bins=1)
    with pytest.raises(ValueError):
        StreamConfig(flow_range=0.0)
