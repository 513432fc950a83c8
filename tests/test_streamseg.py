"""Graph construction, grouping, distances, hierarchy, and streaming tests."""

import math

import numpy as np
import pytest

from svstream import streamseg
from svstream.affine import AffineModel
from svstream.imageops import relabel_first_occurrence
from svstream.streamseg import (StreamConfig, _chi2_rows, _fh_sweep, _NodeFeatures,
                                _pair_weights, _pre_union, _StreamState, _window_edges,
                                build_spatial_edges, build_temporal_edges,
                                combine_distance, make_edges, stream_segment)
from svstream.synth import ObjectSpec, SceneSpec, generate
from svstream.unionfind import Forest

from oracles import oracle_build_hierarchy, oracle_fh_sweep, oracle_segment_level0


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
    assert abs(edges["w"][0] - 1.0) < 1e-12


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
    return sorted(zip(edges["a"].tolist(), edges["b"].tolist(), edges["w"].tolist()))


@pytest.mark.parametrize("use_flow_edges", [True, False])
def test_window_edges_leave_out_only_frozen_pairs(use_flow_edges):
    frames, _, flows = _scene(8, t=5)
    config = StreamConfig(use_flow_edges=use_flow_edges)
    h, w = frames.shape[1:3]
    full = np.concatenate([build_spatial_edges(frames),
                           build_temporal_edges(frames, flows, use_flow_edges)])
    for frozen in range(5):
        got = _window_edges(frames, flows, config, frozen)
        both = (full["a"] < frozen * h * w) & (full["b"] < frozen * h * w)
        assert _edge_rows(got) == _edge_rows(full[~both])
        assert len(got) < len(full) or frozen == 0


# ---------------------------------------------------------------- sweep

def _sweep_case(seed: int):
    """Random items and tied-weight edges, some items pre-grouped into
    marked components with preset sizes and internal differences."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9000 if seed % 10 == 0 else 1500))
    m = int(rng.integers(1, 4 * n + 2))
    edges = make_edges(rng.integers(0, n, m), rng.integers(0, n, m),
                       rng.integers(0, 6, m) * 0.2)
    base = rng.integers(1, 4, n)
    keys = np.full(int(rng.integers(0, n + 1)), -1, dtype=np.int64)
    state = _StreamState(1)
    for key in rng.choice(1000, int(rng.integers(0, 6)), replace=False).tolist():
        if len(keys):
            keys[rng.integers(0, len(keys), int(rng.integers(1, 30)))] = key
        state.sizes[0][key] = int(rng.integers(1, 40))
        state.ints[0][key] = float(rng.integers(0, 6) * 0.2)
    grown = rng.integers(0, 3, len(keys))
    k = float(rng.choice([0.1, 0.5, 2.0]))
    min_size = int(rng.choice([1, 2, 5, 20]))
    return n, edges, base, keys, grown, state, k, min_size


def _component_table(forest, roots):
    return (relabel_first_occurrence(roots),
            [forest.size[r] for r in roots.tolist()],
            [forest.internal[r] for r in roots.tolist()],
            [forest.mark[r] for r in roots.tolist()])


def test_fh_sweep_equals_oracle():
    for seed in range(400):
        n, edges, base, keys, grown, state, k, min_size = _sweep_case(seed)
        forest = Forest(n, sizes=base.tolist())
        _pre_union(forest, keys, grown, state, 0)
        roots = _fh_sweep(forest, edges, k, min_size)
        assert roots.tolist() == [forest.find(i) for i in range(n)]

        # the reference pre-groups by one union per member
        ref = Forest(n, sizes=base.tolist())
        for key in np.unique(keys[keys >= 0]).tolist():
            members = np.flatnonzero(keys == key).tolist()
            root = members[0]
            for i in members[1:]:
                root = ref.union(root, ref.find(i))
            ref.size[root] = state.sizes[0][key] + int(grown[members].sum())
            ref.internal[root] = state.ints[0][key]
            ref.mark[root] = key
        oracle_fh_sweep(ref, edges, k, min_size)
        ref_roots = np.array([ref.find(i) for i in range(n)], dtype=np.int64)

        got, want = _component_table(forest, roots), _component_table(ref, ref_roots)
        assert np.array_equal(got[0], want[0]), seed
        assert got[1:] == want[1:], seed


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


# ---------------------------------------------------------------- features

def test_region_features_hand_check():
    frames = np.zeros((2, 2, 2, 3), dtype=np.uint8)
    vals = [10, 100, 200, 255]
    for i, v in enumerate(vals):
        frames[:, i // 2, i % 2, :] = v
    flow = np.zeros((2, 2, 2))
    flow[..., 1] = 16.0
    config = StreamConfig(color_bins=8, flow_bins=9, flow_range=16.0)
    feats = _NodeFeatures(np.zeros(8, dtype=np.int64), 1, frames.reshape(-1, 3),
                          [flow], (2, 2, 2), config)
    # value v lands in bin v*8 // 256: 10->0, 100->3, 200->6, 255->7
    want = np.zeros(8)
    want[[0, 3, 6, 7]] = 0.25
    for c in range(3):
        assert np.allclose(feats.color[0, c], want, atol=0.0)
    (uh, vh, present), = feats.flow      # one histogram set, for frame 1
    assert present.tolist() == [True]
    wu = np.zeros(9)
    wu[4] = 1.0           # u = 0 is the center bin
    wv = np.zeros(9)
    wv[8] = 1.0           # v = +flow_range clips into the last bin
    assert np.array_equal(uh[0], wu)
    assert np.array_equal(vh[0], wv)


def test_flow_distance_without_common_frames():
    # equal colors; region 0 fills frames 0-1 moving right, region 1 fills
    # frame 2 moving left, so the two never share a flow frame
    frames = np.full((3, 2, 2, 3), 90, dtype=np.uint8)
    flows = [np.zeros((2, 2, 2)), np.zeros((2, 2, 2))]
    flows[0][..., 0] = 16.0
    flows[1][..., 0] = -16.0
    node_index = np.repeat([0, 0, 1], 4)
    feats = _NodeFeatures(node_index, 2, frames.reshape(-1, 3), flows, (3, 2, 2),
                          StreamConfig())
    weight, = _pair_weights(feats, np.array([0]), np.array([1]))
    assert weight == 0.0    # the color distance; no motion evidence


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


@pytest.mark.parametrize("with_flow", [True, False])
def test_stream_state_sizes_count_every_emitted_voxel(monkeypatch, with_flow):
    # a frozen region's size is rebuilt from its recorded size plus its voxels
    # in each new window, so the record must equal its footprint in the output
    states = []

    class RecordedState(streamseg._StreamState):
        def __init__(self, levels):
            super().__init__(levels)
            states.append(self)

    monkeypatch.setattr(streamseg, "_StreamState", RecordedState)
    frames, _, flows = _scene(7, t=9)
    config = StreamConfig(subseq_len=2, levels=3, k0=0.5, min_size=4)
    hier = stream_segment(frames, flows if with_flow else None, config)
    state, = states
    for level, vol in enumerate(hier.levels):
        alive = np.unique(vol[8:]).tolist()
        assert sorted(state.sizes[level]) == alive
        counts = np.bincount(vol.ravel())
        assert {lab: state.sizes[level][lab] for lab in alive} == \
            {lab: int(counts[lab]) for lab in alive}
        # labels alive since the first window: sizes carried across four closes
        assert np.intersect1d(alive, vol[0]).size > 0


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
