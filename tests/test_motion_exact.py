"""Exactness of the batched RANSAC and the memoized merge pass.

Both must reproduce the one-hypothesis-at-a-time and recompute-every-pair
references in tests/oracles.py bit for bit: the same splitmix64 draws, the
same fitted parameters, the same surviving regions.
"""

import numpy as np
import pytest

from svstream import motionlayers
from svstream.affine import AffineModel
from svstream.motionlayers import (MotionRegion, RansacParams,
                                   directed_divergence, fit_affine_ransac,
                                   motion_hierarchy, run_motion_stream)
from svstream.rng import MASK64, SplitMix64, splitmix64_block
from svstream.streamseg import StreamConfig, stream_segment
from svstream.synth import ObjectSpec, SceneSpec, generate

import oracles
from test_motionlayers import _flow_of, _rot_about, _texture


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
    return cases


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


def test_collinear_region_takes_least_squares_fallback():
    pix = np.column_stack([np.arange(20), np.full(20, 3)]).astype(np.int64)
    flow = _flow_of(AffineModel(a1=0.4, a2=0.01), 8, 20)
    xs, ys = pix[:, 0].astype(np.float64), pix[:, 1].astype(np.float64)
    want = AffineModel.fit_lstsq(xs, ys, flow[3, :, 0], flow[3, :, 1])
    assert fit_affine_ransac(pix, flow, seed=5) == want


# ---------------------------------------------------------------- merging

@pytest.fixture
def merge_checker(monkeypatch):
    """Run every merge_pass that motion_hierarchy makes through the oracle
    too and require identical survivors; returns the (in, out) region counts."""
    real = motionlayers.merge_pass
    passes = []

    def checked(regions, adjacency, tau, frame_gray, flow, p, q, seed,
                ransac=RansacParams(), mode="penalized"):
        got = real(regions, adjacency, tau, frame_gray, flow, p, q, seed, ransac, mode)
        want = oracles.oracle_merge_pass(regions, adjacency, tau, frame_gray,
                                         flow, p, q, seed, ransac, mode)
        assert [r.id for r in got] == [r.id for r in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.model.params == b.model.params
        passes.append((len(regions), len(got)))
        return got

    monkeypatch.setattr(motionlayers, "merge_pass", checked)
    return passes


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
    run_motion_stream(frames, flows, sv, level_pick=2, schedule=(2.0, 8.0, 24.0),
                      seed=7)
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


@pytest.mark.parametrize("mode", ["penalized", "literal"])
def test_memoized_merges_equal_oracle_on_random_labels(merge_checker, mode):
    schedule = (1.0, 4.0, 16.0, 64.0) if mode == "penalized" else (0.05, 0.5, 5.0)
    for seed in range(4):
        labels, tex, flow = _random_scene(seed)
        motion_hierarchy(labels, tex, flow, schedule, p=24, q=24, seed=seed,
                         ransac=RansacParams(min_pixels=6), mode=mode)
    merged = [n_in - n_out for n_in, n_out in merge_checker]
    assert len(merged) == 4 * len(schedule)
    # the schedule really merges, at more than one level
    assert sum(1 for m in merged if m > 0) >= 4


# ---------------------------------------------------------------- modes

def _fail(*args, **kwargs):
    raise AssertionError("reached before the mode was checked")


def test_directed_divergence_rejects_unknown_mode_before_warping(monkeypatch):
    tex = _texture(5, 32, 32)
    gy, gx = np.mgrid[0:8, 0:8]
    a = MotionRegion(0, np.column_stack([gx.ravel(), gy.ravel()]), AffineModel())
    # a singular other model leaves no jointly valid pixel, which used to
    # return +inf without looking at the mode
    sing = MotionRegion(1, a.pixels, AffineModel(a2=-1.0))
    with pytest.raises(ValueError, match="unknown divergence mode"):
        directed_divergence(a, sing, tex, 32, 32, mode="bogus")
    monkeypatch.setattr(motionlayers, "warp_to_canonical", _fail)
    with pytest.raises(ValueError, match="unknown divergence mode"):
        directed_divergence(a, a, tex, 32, 32, mode="bogus")


def test_motion_hierarchy_rejects_unknown_mode_before_fitting(monkeypatch):
    # one region has no neighbor, so no distance is ever computed
    tex = _texture(5, 16, 16)
    labels = np.zeros((16, 16), dtype=np.int64)
    flow = np.zeros((16, 16, 2))
    with pytest.raises(ValueError, match="unknown divergence mode"):
        motion_hierarchy(labels, tex, flow, (1.0,), p=8, q=8, mode="bogus")
    monkeypatch.setattr(motionlayers, "fit_affine_ransac", _fail)
    with pytest.raises(ValueError, match="unknown divergence mode"):
        motion_hierarchy(labels, tex, flow, (1.0,), p=8, q=8, mode="bogus")
