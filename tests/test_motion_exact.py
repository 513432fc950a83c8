"""Exactness of the batched RANSAC, the geometry-first canonical warp, the
memoized merge pass, the one-graph connected components and the heap-driven
small-fragment cleanup.

They must reproduce the one-hypothesis-at-a-time, sample-every-pixel,
recompute-every-pair, per-label-value and frame-wide references in
tests/oracles.py bit for bit: the same splitmix64 draws, the same fitted
parameters, the same patches and divergences, the same surviving regions, the
same component ids and the same cleaned labels.
"""

import itertools

import numpy as np
import pytest
from scipy import ndimage

from svstream import motionlayers
from svstream.affine import AffineModel
from svstream.imageops import bilinear_sample
from svstream.motionlayers import (MotionRegion, RansacParams, directed_divergence,
                                   fit_affine_ransac, merge_pass, motion_hierarchy,
                                   run_motion_stream, warp_to_canonical)
from svstream.rng import MASK64, SplitMix64, splitmix64_block
from svstream.streamseg import StreamConfig, stream_segment
from svstream.synth import ObjectSpec, SceneSpec, generate

import oracles
from test_motionlayers import _flow_of, _grid_pixels, _rot_about, _texture


def _random_affine(rng) -> AffineModel:
    lin = rng.uniform(-0.08, 0.08, size=4)
    return AffineModel(a1=rng.uniform(-1.5, 1.5), a2=lin[0], a3=lin[1],
                       a4=rng.uniform(-1.5, 1.5), a5=lin[2], a6=lin[3])


def _scatter(rng, n, h, w) -> np.ndarray:
    idx = rng.choice(h * w, size=n, replace=False)
    return np.column_stack([idx % w, idx // w]).astype(np.int64)


# ---------------------------------------------------------------- splitmix64

@pytest.mark.parametrize("seed", [0, 1, 0x9E3779B97F4A7C15, 12345678901234567,
                                  MASK64, MASK64 - 1, MASK64 - 2,
                                  (1 << 64) - 0x9E3779B97F4A7C15,
                                  (1 << 64) - 2 * 0x9E3779B97F4A7C15 + 1])
def test_block_draws_equal_sequential_draws(seed):
    # seeds a few increments below 2**64 wrap around within the first draws
    rng = SplitMix64(seed)
    sequential = [rng.next_u64() for _ in range(40)]
    assert splitmix64_block(seed, 0, 40).tolist() == sequential
    assert splitmix64_block(seed, 13, 27).tolist() == sequential[13:]
    assert splitmix64_block(seed, 5, 0).tolist() == []


@pytest.mark.parametrize("block", [5, 4 * RansacParams().iterations])
@pytest.mark.parametrize("n", [3, 4, 5, 1000])
def test_hypothesis_triples_equal_sequential_draws(n, block):
    # the draws come in a short first block and then blocks of `block`; the
    # triples must not depend on where those blocks start
    rng = SplitMix64(77)
    want = []
    for _ in range(50):
        triple = []
        while len(triple) < 3:
            d = rng.next_below(n)
            if d not in triple:
                triple.append(d)
        want.append(triple)
    got = list(itertools.islice(motionlayers._hypothesis_triples(n, 77, block), 50))
    assert got == want


# ---------------------------------------------------------------- RANSAC

def _fit_cases():
    """(label, pixels, flow, seed, params) over the cases batching could break."""
    rng = np.random.default_rng(20240)
    cases = []
    # tiny regions: index rejections (j == i, k in {i, j}) are frequent
    for s in range(150):
        n = int(rng.integers(12, 17))
        flow = _flow_of(_random_affine(rng), 16, 16) + rng.normal(0, 0.4, (16, 16, 2))
        cases.append(("tiny", _scatter(rng, n, 16, 16), flow, s, RansacParams()))
    # every sample collinear: all pixels on one row or one column
    for s in range(40):
        n = int(rng.integers(12, 30))
        line = rng.choice(30, size=n, replace=False)
        fixed = np.full(n, int(rng.integers(0, 30)))
        cols = (line, fixed) if s % 2 else (fixed, line)
        pix = np.column_stack(cols).astype(np.int64)
        flow = _flow_of(_random_affine(rng), 30, 30) + rng.normal(0, 0.3, (30, 30, 2))
        cases.append(("collinear", pix, flow, 1000 + s, RansacParams()))
    # 30% outliers on a 20 x 20 block
    gy, gx = np.mgrid[0:20, 0:20]
    block = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.int64)
    for s in range(120):
        flow = _flow_of(_random_affine(rng), 20, 20)
        hit = rng.choice(400, size=120, replace=False)
        flow.reshape(-1, 2)[hit] += rng.uniform(3.0, 13.0, size=(120, 2))
        cases.append(("outliers", block, flow, 2000 + s, RansacParams()))
    # flow quantized to half a pixel: many hypotheses tie in inlier count
    for s in range(150):
        n = int(rng.integers(12, 200))
        flow = _flow_of(_random_affine(rng), 24, 24) + rng.normal(0, 0.5, (24, 24, 2))
        flow = np.round(flow * 2.0) / 2.0
        tol = (0.5, 0.75, 1.0)[s % 3]
        cases.append(("quantized", _scatter(rng, n, 24, 24), flow, 3000 + s,
                      RansacParams(inlier_tol=tol)))
    # regions whose hypotheses x pixels span several scoring blocks, one of
    # them larger than a whole block by itself
    for s in range(39):
        n = int(rng.integers(400, 2500))
        flow = _flow_of(_random_affine(rng), 60, 60) + rng.normal(0, 0.6, (60, 60, 2))
        cases.append(("large", _scatter(rng, n, 60, 60), flow, 4000 + s, RansacParams()))
    h, w = 240, 300
    gy, gx = np.mgrid[0:h, 0:w]
    huge = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.int64)
    assert len(huge) > motionlayers._SCORE_BLOCK
    flow = _flow_of(_random_affine(rng), h, w) + rng.normal(0, 0.6, (h, w, 2))
    cases.append(("huge", huge, flow, 5000, RansacParams(iterations=20)))
    # noiseless affine flow: sample 0 explains every pixel
    for s in range(30):
        n = int(rng.integers(12, 2500))
        flow = _flow_of(_random_affine(rng), 60, 60)
        cases.append(("exact", _scatter(rng, n, 60, 60), flow, 6000 + s, RansacParams()))
    # noiseless flow with 1-12 displaced pixels: the best misses exactly
    # those, and most samples tie with it
    for s in range(40):
        n = int(rng.integers(200, 2500))
        pix = _scatter(rng, n, 60, 60)
        flow = _flow_of(_random_affine(rng), 60, 60)
        k = 1 + s % 12
        flow[pix[:k, 1], pix[:k, 0]] += rng.uniform(3.0, 13.0, size=(k, 2))
        cases.append(("displaced", pix, flow, 7000 + s, RansacParams()))
    # two motions split about 60/40 with light noise: the best usually changes
    # in several scoring blocks
    cols = np.mgrid[0:60, 0:60][1]
    for s in range(20):
        n = int(rng.integers(1500, 3000))
        flow = np.where((cols < 36)[..., None], _flow_of(_random_affine(rng), 60, 60),
                        _flow_of(_random_affine(rng), 60, 60))
        flow += rng.normal(0, 0.25, (60, 60, 2))
        cases.append(("two-motion", _scatter(rng, n, 60, 60), flow, 8000 + s,
                      RansacParams()))
    # nearly affine flow: the best misses a few pixels, and a later sample
    # that hits some of them replaces it
    for s in range(20):
        n = int(rng.integers(40, 2500))
        flow = _flow_of(_random_affine(rng), 60, 60) + rng.normal(0, 0.12, (60, 60, 2))
        cases.append(("near-affine", _scatter(rng, n, 60, 60), flow, 9000 + s,
                      RansacParams()))
    return cases


def _replacements(counts):
    """(sample index, inlier count of the best it replaces) of every sample
    that replaces the best."""
    out, best = [], counts[0]
    for i, count in enumerate(counts[1:], start=1):
        if count > best:
            out.append((i, best))
            best = count
    return out


def test_batched_ransac_equals_sequential_oracle():
    cases = _fit_cases()
    assert len(cases) >= 500
    mismatched = []
    for label, pix, flow, seed, params in cases:
        got = fit_affine_ransac(pix, flow, seed, params)
        want = oracles.oracle_fit_affine_ransac(pix, flow, seed, params)
        if got.params != want.params:
            mismatched.append((label, seed))
    assert mismatched == []
    # the regimes reach the paths that skip samples
    reached = {"near-affine": [], "two-motion": []}
    for label, pix, flow, seed, params in cases:
        if label not in ("exact", "displaced", "near-affine", "two-motion"):
            continue
        n = len(pix)
        counts = [int(np.count_nonzero(m))
                  for m in oracles.oracle_ransac_samples(pix, flow, seed, params)]
        if label == "exact":
            assert counts[0] == n
        elif label == "displaced":
            assert n - 12 <= max(counts) < n
            assert 2 * counts.count(max(counts)) > len(counts)
        elif label == "near-affine":
            # a sample replaces a best that misses at most n/32 pixels
            reached[label].append(any(32 * (n - best) <= n
                                      for _, best in _replacements(counts)))
        else:
            rows = max(1, motionlayers._SCORE_BLOCK // n)
            reached[label].append(
                len({(i - 1) // rows for i, _ in _replacements(counts)}) >= 2)
    for label, hits in reached.items():
        assert 4 * sum(hits) >= 3 * len(hits), label


@pytest.mark.parametrize("region, taken", [("exact", 1),
                                           ("collinear", RansacParams().iterations)])
def test_ransac_draws_only_triples_that_can_win(monkeypatch, region, taken):
    # an exact fit explains every pixel with sample 0, so nothing else is
    # drawn; a collinear region has no sample to score, so all are drawn
    drawn = []
    real = motionlayers._hypothesis_triples

    def counted(*args):
        for triple in real(*args):
            drawn.append(triple)
            yield triple

    monkeypatch.setattr(motionlayers, "_hypothesis_triples", counted)
    if region == "exact":
        pix = _scatter(np.random.default_rng(5), 400, 30, 30)
        flow = _flow_of(_random_affine(np.random.default_rng(6)), 30, 30)
    else:
        pix = np.column_stack([np.arange(20), np.full(20, 3)]).astype(np.int64)
        flow = _flow_of(AffineModel(a1=0.4, a2=0.01), 8, 20)
    fit_affine_ransac(pix, flow, seed=5)
    assert len(drawn) == taken


def test_collinear_region_takes_least_squares_fallback():
    pix = np.column_stack([np.arange(20), np.full(20, 3)]).astype(np.int64)
    flow = _flow_of(AffineModel(a1=0.4, a2=0.01), 8, 20)
    xs, ys = pix[:, 0].astype(np.float64), pix[:, 1].astype(np.float64)
    want = AffineModel.fit_lstsq(xs, ys, flow[3, :, 0], flow[3, :, 1])
    assert fit_affine_ransac(pix, flow, seed=5) == want


def _score_blocks(counts, n):
    """Sample indices of fit_affine_ransac's scoring blocks after sample 0,
    from the inlier counts of the non-collinear samples of a fit whose
    sample 0 is not collinear."""
    best, start, blocks = counts[0], 1, []
    while start < len(counts) and best < n:
        rows = max(1, motionlayers._SCORE_BLOCK // (n - best))
        block = range(start, min(len(counts), start + rows))
        blocks.append(block)
        best = max(best, *(counts[i] for i in block))
        start = block.stop
    return blocks


def test_ransac_blocks_follow_the_best_s_missed_pixels():
    # a region larger than a scoring block whose sample 0 misses under 1% of
    # it, so one block holds every later sample; and regions whose best
    # changes at least twice within one block
    rng = np.random.default_rng(1)
    h, w = 240, 300
    gy, gx = np.mgrid[0:h, 0:w]
    huge = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.int64)
    flow = _flow_of(_random_affine(rng), h, w) + rng.normal(0, 0.045, (h, w, 2))
    hit = rng.choice(len(huge), size=250, replace=False)
    flow.reshape(-1, 2)[hit] += rng.uniform(3.0, 13.0, size=(250, 2))
    cases = [("huge", huge, flow, 1)]
    rng = np.random.default_rng(99)
    for s in range(5):
        n = int(rng.integers(300, 2500))
        pix = _scatter(rng, n, 60, 60)
        flow = _flow_of(_random_affine(rng), 60, 60) + rng.normal(0, 0.12, (60, 60, 2))
        cases.append(("twice", pix, flow, 100 + s))
    for label, pix, flow, seed in cases:
        want = oracles.oracle_fit_affine_ransac(pix, flow, seed)
        assert fit_affine_ransac(pix, flow, seed) == want
        n = len(pix)
        counts = [int(np.count_nonzero(m)) for m in oracles.oracle_ransac_samples(pix, flow, seed)]
        a, b, c = pix[next(motionlayers._hypothesis_triples(n, seed, 5))]
        assert (b - a)[0] * (c - a)[1] != (c - a)[0] * (b - a)[1]   # counts[0] is sample 0
        blocks = _score_blocks(counts, n)
        replaced = {i for i, _ in _replacements(counts)}
        if label == "huge":
            assert n > motionlayers._SCORE_BLOCK and 100 * (n - counts[0]) < n
            assert len(blocks) == 1 and replaced
        else:
            assert max(len(replaced.intersection(block)) for block in blocks) >= 2


# ---------------------------------------------------------------- canonical warp

def _warp_cases():
    """(frame, region, other model, p, q) over the shapes a geometry-first
    warp could get wrong: thin strips, frame-edge regions, single pixels,
    scattered pixels, singular and near-singular models, tiny and
    non-square canonical grids."""
    rng = np.random.default_rng(4242)
    h, w = 20, 28
    frame = _texture(8, h, w)
    shapes = [_grid_pixels(3, 20, 7, 8),            # one-row strip
              _grid_pixels(9, 10, 2, 18),           # one-column strip
              _grid_pixels(0, w, 0, 3),             # top rows
              _grid_pixels(w - 4, w, 0, h),         # right edge
              _grid_pixels(w - 6, w, h - 5, h),     # corner
              _grid_pixels(5, 6, 5, 6),             # one pixel
              _grid_pixels(4, 16, 3, 15)]
    for _ in range(3):
        x0, y0 = int(rng.integers(0, w - 6)), int(rng.integers(0, h - 6))
        shapes.append(_grid_pixels(x0, x0 + int(rng.integers(2, 8)),
                                   y0, y0 + int(rng.integers(2, 8))))
        shapes.append(_scatter(rng, int(rng.integers(1, 40)), h, w))
    singular = AffineModel(a2=-1.0)                 # x' = 0: no inverse
    models = [AffineModel(), singular, AffineModel(a2=-0.999, a6=0.4),
              _rot_about(14.0, 10.0, 30.0), _rot_about(0.0, 0.0, -12.0, (3.0, 1.0)),
              AffineModel(a1=40.0, a2=0.5, a3=-0.7, a5=0.9)]
    models += [_random_affine(rng) for _ in range(4)]
    sizes = [(2, 2), (8, 6), (5, 9), (32, 32)]
    cases = []
    for si, pixels in enumerate(shapes):
        for mi, own in enumerate(models):
            if (si + mi) % 3:       # a seeded third of the (shape, own model) grid
                continue
            region = MotionRegion(0, pixels, own)
            for other in models:
                p, q = sizes[int(rng.integers(len(sizes)))]
                cases.append((frame, region, other, p, q))
    return cases


def test_warp_to_canonical_equals_full_sampling_oracle():
    for frame, region, model, p, q in _warp_cases():
        patch = warp_to_canonical(frame, region, model, p, q)
        values, valid = oracles.oracle_warp_to_canonical(frame, region, model, p, q)
        assert patch.values.tobytes() == values.tobytes()
        assert np.array_equal(patch.valid_mask, valid)
        # the patch is the geometry plus the samples at its valid pixels
        geom = motionlayers._canonical_geometry(region, motionlayers._member_box(region),
                                                model, p, q, frame.shape)
        assert np.array_equal(geom.valid_mask, valid)
        assert (bilinear_sample(frame, geom.sx[valid], geom.sy[valid]).tobytes()
                == values[valid].tobytes())


def test_geometry_first_decision_equals_full_divergence():
    seen = {"zero overlap": 0, "penalty above tau": 0, "sampled": 0}
    for frame, region, model, p, q in _warp_cases():
        other = MotionRegion(1, region.pixels[:1], model)
        want, penalty = oracles.oracle_directed_divergence(region, other, frame, p, q)
        assert directed_divergence(region, other, frame, p, q) == want
        box = motionlayers._member_box(region)
        own, cross = (motionlayers._canonical_geometry(region, box, m, p, q, frame.shape)
                      for m in (region.model, model))
        taus = [0.0, np.inf, want, np.nextafter(want, -np.inf), np.nextafter(want, np.inf)]
        if penalty is None:
            seen["zero overlap"] += 1
        else:
            taus += [penalty, np.nextafter(penalty, -np.inf), np.nextafter(penalty, np.inf)]
        for tau in taus:
            got = motionlayers._divergence(frame, own, cross, tau)
            assert (got <= tau) == (want <= tau)
            if got <= tau:
                assert got == want
            if penalty is not None:
                seen["penalty above tau" if penalty > tau else "sampled"] += 1
    assert min(seen.values()) > 0, seen


def test_pair_decided_on_penalty_samples_nothing(monkeypatch):
    tex = _texture(11, 32, 32)
    a = MotionRegion(0, _grid_pixels(0, 16, 0, 32), AffineModel())
    b = MotionRegion(1, _grid_pixels(16, 32, 0, 32), _rot_about(24.0, 16.0, 30.0))
    tau = 1.0
    _, penalty = oracles.oracle_directed_divergence(a, b, tex, 32, 32)
    assert penalty > tau
    calls = []

    def counted(*args):
        calls.append(args)
        return bilinear_sample(*args)

    monkeypatch.setattr(motionlayers, "bilinear_sample", counted)
    out = merge_pass([a, b], {(0, 1)}, tau, tex, np.zeros((32, 32, 2)), 32, 32, seed=0)
    assert [r.id for r in out] == [0, 1]
    assert len(calls) == 0


# ---------------------------------------------------------------- merging

@pytest.fixture
def merge_checker(monkeypatch):
    """Run every merge_pass that motion_hierarchy makes through the oracle
    too and require identical survivors; returns the (in, out) region counts."""
    real = motionlayers.merge_pass
    passes = []

    def checked(regions, adjacency, tau, frame_gray, flow, p, q, seed,
                ransac=RansacParams()):
        got = real(regions, adjacency, tau, frame_gray, flow, p, q, seed, ransac)
        want = oracles.oracle_merge_pass(regions, adjacency, tau, frame_gray,
                                         flow, p, q, seed, ransac)
        assert [r.id for r in got] == [r.id for r in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.model.params == b.model.params
        passes.append((len(regions), len(got)))
        return got

    monkeypatch.setattr(motionlayers, "merge_pass", checked)
    return passes


def test_merge_test_stops_at_first_direction_above_tau(monkeypatch):
    # the models differ in their linear part: a translation alone would leave
    # the canonical patch unchanged
    tex = _texture(11, 32, 32)
    a = MotionRegion(0, _grid_pixels(0, 16, 0, 32), AffineModel())
    b = MotionRegion(1, _grid_pixels(16, 32, 0, 32), _rot_about(24.0, 16.0, 10.0))
    tau = 0.5 * min(directed_divergence(a, b, tex, 32, 32),
                    directed_divergence(b, a, tex, 32, 32))
    assert 0 < tau < float("inf")
    real = motionlayers._canonical_geometry
    warps = []

    def counted(*args):
        warps.append(args[0].id)
        return real(*args)

    monkeypatch.setattr(motionlayers, "_canonical_geometry", counted)
    flow = np.zeros((32, 32, 2))
    out = merge_pass([a, b], {(0, 1)}, tau, tex, flow, 32, 32, seed=0)
    assert [r.id for r in out] == [0, 1]
    # region 0's own and cross warps; d_01 > tau decides the pair, whose
    # memoized decision serves region 1's scan
    assert warps == [0, 0]


def test_memoized_merges_equal_oracle_on_c09_scene(merge_checker):
    spec = SceneSpec(
        width=64, height=64, num_frames=4, seed=21,
        background_color=(70, 80, 100), noise_sigma=0.0, texture_amplitude=45.0,
        background_motion=AffineModel(a1=0.6, a4=0.3),
        objects=(ObjectSpec("rect", (8.0, 8.0, 16.0, 14.0), color=(190, 70, 50),
                            motion=_rot_about(16.0, 15.0, 7.0, (-0.3, 0.2))),
                 ObjectSpec("ellipse", (46.0, 44.0, 9.0, 8.0), color=(60, 170, 200),
                            motion=_rot_about(46.0, 44.0, -7.0, (0.2, -0.3)))),
    )
    frames, _, flows = generate(spec)
    sv = stream_segment(frames, flows,
                        StreamConfig(subseq_len=3, levels=4, k0=0.5, min_size=20))
    list(run_motion_stream(zip(frames, [None, *flows], sv.levels[2]),
                           schedule=(2.0, 8.0, 24.0), seed=7))
    assert len(merge_checker) == 9
    assert sum(n_in - n_out for n_in, n_out in merge_checker) > 0


def _random_scene(seed: int, h: int = 32, w: int = 32):
    """Blocky random labels over a texture whose flow follows three affine
    motions laid out in vertical bands."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 6, size=(h // 4, w // 4))
    labels = np.kron(cells, np.ones((4, 4), dtype=np.int64))
    gy, gx = np.mgrid[0:h, 0:w]
    band = np.minimum(3 * gx // w, 2)
    flow = np.zeros((h, w, 2))
    for b in range(3):
        flow[band == b] = _flow_of(_random_affine(rng), h, w)[band == b]
    return labels, _texture(seed, h, w), flow


def test_memoized_merges_equal_oracle_on_random_labels(merge_checker):
    schedule = (1.0, 4.0, 16.0, 64.0)
    for seed in range(4):
        labels, tex, flow = _random_scene(seed)
        motion_hierarchy(labels, tex, flow, schedule, p=24, q=24, seed=seed,
                         ransac=RansacParams(min_pixels=6))
    merged = [n_in - n_out for n_in, n_out in merge_checker]
    assert len(merged) == 4 * len(schedule)
    # the schedule really merges, at more than one level
    assert sum(1 for m in merged if m > 0) >= 4


# ---------------------------------------------------------------- components

def test_components_equal_oracle_on_random_maps():
    # the ids break clean_small_components' ties, so they must match exactly
    rng = np.random.default_rng(77)
    for s in range(200):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        labels = rng.integers(-2, int(rng.integers(1, 6)), size=(h, w))
        if s % 2:       # blocky maps: larger components with holes and nesting
            labels = np.kron(labels[:(h + 1) // 2, :(w + 1) // 2],
                             np.ones((2, 2), dtype=np.int64))[:h, :w] * 7
        got, got_n = motionlayers._components(labels)
        want, want_n = oracles.oracle_components(labels)
        assert got_n == want_n
        assert np.array_equal(got, want)


def _cleanup_cases(rng):
    """(labels, min_region, affinity) over random maps: many one-pixel
    fragments (size ties), blocky maps whose fragments touch two neighbors
    along equal borders (border ties), affinities that agree with one side,
    with none or with every neighbor, and views that are not contiguous."""
    for s in range(420):
        h, w = int(rng.integers(1, 14)), int(rng.integers(1, 14))
        labels = rng.integers(0, int(rng.integers(1, 7)), size=(h, w))
        if s % 3 == 1:
            labels = np.kron(labels[:(h + 1) // 2, :(w + 1) // 2],
                             np.ones((2, 2), dtype=np.int64))[:h, :w]
        elif s % 3 == 2:
            labels = labels.T
        kind = s % 4
        if kind == 0:
            affinity = None
        elif kind == 1:
            affinity = labels // 2
        elif kind == 2:
            affinity = rng.integers(0, 3, size=labels.shape)[::-1]
        else:
            affinity = np.arange(labels.size).reshape(labels.shape)  # no neighbor agrees
        yield labels, 1 + s % 15, affinity


def test_cleanup_equals_frame_wide_oracle():
    rng = np.random.default_rng(2718)
    checked = merged = 0
    for labels, min_region, affinity in _cleanup_cases(rng):
        got = motionlayers.clean_small_components(labels, min_region, affinity)
        want = oracles.oracle_clean_small_components(labels, min_region, affinity)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        checked += 1
        merged += int(got.max()) + 1 < motionlayers._components(labels)[1]
    assert checked >= 400 and merged >= 250


# ---------------------------------------------------------------- label grouping

def _labelings(rng):
    """Seeded C-contiguous int64 labelings: negative values, a single value,
    1 x N and N x 1 frames, and blocky maps."""
    yield np.full((5, 7), -3, dtype=np.int64)
    yield rng.integers(-4, 4, size=(1, 17))
    yield rng.integers(-4, 4, size=(17, 1))
    for s in range(40):
        h, w = int(rng.integers(1, 24)), int(rng.integers(1, 24))
        labels = rng.integers(int(rng.integers(-9, 1)), int(rng.integers(1, 9)), size=(h, w))
        if s % 2:
            labels = np.kron(labels, np.ones((3, 2), dtype=np.int64))
        yield labels


def test_value_indices_lists_each_value_in_row_major_order():
    # _regions_from_labels feeds each region's pixel order to RANSAC's index
    # draws and its value order to the region ids, so both must be those of
    # np.unique and np.nonzero(x == v), which scipy does not document
    for labels in _labelings(np.random.default_rng(5)):
        groups = ndimage.value_indices(labels)
        assert [int(v) for v in groups] == np.unique(labels).tolist()
        for v, idx in groups.items():
            want = np.nonzero(labels == v)
            assert len(idx) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(idx, want))


def _views(labels):
    """The labeling, its transpose and a reversed view (neither contiguous)."""
    return [labels, labels.T, labels[::-1, ::-1]]


def _random_models(rng, ids) -> dict:
    """Models for some of the ids and for absent ones: small motions,
    contractions that pile pixels onto one another, and a singular map."""
    models = {}
    for lab in ids:
        kind = rng.integers(0, 5)
        if kind == 0:
            continue                                    # a label without a model
        if kind == 1:
            models[lab] = AffineModel(a2=-1.0, a3=0.5)  # singular point map
        elif kind == 2:
            models[lab] = AffineModel(a1=rng.uniform(-3, 3), a2=-0.6, a4=rng.uniform(-3, 3),
                                      a6=-0.6)
        else:
            models[lab] = _random_affine(rng)
    return models


def test_forward_rasterize_equals_per_label_scan_oracle():
    rng = np.random.default_rng(31)
    checked = collided = 0
    for labels in _labelings(rng):
        ids = np.unique(labels).tolist()
        # absent labels join the models, next to the present ones
        models = _random_models(rng, ids + [max(ids) + 1, min(ids) - 5])
        for view in _views(labels):
            got = motionlayers._forward_rasterize(view, models, view.shape)
            want = oracles.oracle_forward_rasterize(view, models, view.shape)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            checked += 1
            # each label pushed alone: their footprints overlap when a later
            # label lost pixels to an earlier one
            alone = sum(int(np.count_nonzero(oracles.oracle_forward_rasterize(
                view, {lab: models[lab]}, view.shape) >= 0)) for lab in models)
            collided += alone > np.count_nonzero(got >= 0)
    # first-write-wins ties were exercised, not only disjoint pushes
    assert checked == 3 * 43 and collided > 20


def test_associate_temporal_equals_per_region_mask_oracle():
    rng = np.random.default_rng(47)
    for s, cur in enumerate(_labelings(rng)):
        h, w = cur.shape
        if s == 0:
            warped = np.full((h, w), -1, dtype=np.int64)   # nothing landed
        elif s % 3 == 1:
            # few previous labels over big blocks: overlap ties between regions
            warped = np.kron(rng.integers(-1, 3, size=((h + 1) // 2, (w + 1) // 2)),
                             np.ones((2, 2), dtype=np.int64))[:h, :w]
        else:
            warped = rng.integers(-1, 6, size=(h, w))
        for cur_view, warped_view in zip(_views(cur), _views(warped)):
            got = motionlayers.associate_temporal(warped_view, cur_view, next_fresh=100)
            want = oracles.oracle_associate_temporal(warped_view, cur_view, next_fresh=100)
            assert got == want
            assert all(type(k) is int for k in got[0])
