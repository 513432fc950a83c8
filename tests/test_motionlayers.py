"""Motion-layer tests: RANSAC fitting, canonical warps, divergence properties,
merging, MRF smoothing, and the per-pair streaming driver."""

from types import SimpleNamespace

import numpy as np
import pytest

from svstream import motionlayers
from svstream.affine import AffineModel
from svstream.imageops import bilinear_sample
from svstream.motionlayers import (DIVERGENCE_KAPPA, MotionRegion, RansacParams,
                                   _forward_rasterize, associate_temporal,
                                   clean_small_components, directed_divergence,
                                   fit_affine_ransac, motion_energy,
                                   motion_hierarchy, mrf_smooth,
                                   region_distance, run_motion_stream,
                                   warp_to_canonical)
from svstream.rng import SplitMix64
from svstream.streamseg import StreamConfig, stream_segment
from svstream.synth import ObjectSpec, SceneSpec, generate, value_noise


def _rot_about(cx, cy, deg, drift=(0.0, 0.0)) -> AffineModel:
    """Displacement model of a rotation by deg about (cx, cy) plus a drift."""
    th = np.deg2rad(deg)
    a2, a3 = np.cos(th) - 1.0, -np.sin(th)
    a5, a6 = np.sin(th), np.cos(th) - 1.0
    return AffineModel(a1=-(a2 * cx + a3 * cy) + drift[0], a2=a2, a3=a3,
                       a4=-(a5 * cx + a6 * cy) + drift[1], a5=a5, a6=a6)


def _texture(seed: int, h: int, w: int) -> np.ndarray:
    gy, gx = np.mgrid[0:h, 0:w]
    return 60.0 + 150.0 * value_noise(seed, 0, gx.astype(np.float64),
                                      gy.astype(np.float64), 5.0)


def _grid_pixels(x0, x1, y0, y1) -> np.ndarray:
    gy, gx = np.mgrid[y0:y1, x0:x1]
    return np.column_stack([gx.ravel(), gy.ravel()]).astype(np.int64)


def _flow_of(model: AffineModel, h: int, w: int) -> np.ndarray:
    gy, gx = np.mgrid[0:h, 0:w]
    u, v = model.uv(gx.astype(np.float64), gy.astype(np.float64))
    return np.stack([u, v], axis=-1)


# ---------------------------------------------------------------- RANSAC

def test_ransac_recovers_exact_model():
    true = AffineModel(a1=0.8, a2=-0.03, a3=0.05, a4=-0.4, a5=0.02, a6=0.06)
    pix = _grid_pixels(0, 20, 0, 20)
    flow = _flow_of(true, 20, 20)
    got = fit_affine_ransac(pix, flow, seed=1)
    assert max(abs(a - b) for a, b in zip(got.params, true.params)) < 1e-6


def test_ransac_survives_thirty_percent_outliers():
    true = AffineModel(a1=0.8, a2=-0.03, a3=0.05, a4=-0.4, a5=0.02, a6=0.06)
    pix = _grid_pixels(0, 20, 0, 20)
    flow = _flow_of(true, 20, 20)
    r = SplitMix64(2)
    hit = set()
    while len(hit) < 120:   # 30% of 400
        hit.add(r.next_below(400))
    for i in hit:
        y, x = divmod(i, 20)
        flow[y, x, 0] += 5.0 + 10.0 * r.next_float()
        flow[y, x, 1] -= 3.0 + 10.0 * r.next_float()
    got = fit_affine_ransac(pix, flow, seed=3)
    assert max(abs(a - b) for a, b in zip(got.params, true.params)) < 1e-3


def test_tiny_region_gets_mean_translation():
    true = AffineModel(a1=0.8, a2=-0.03, a3=0.05, a4=-0.4, a5=0.02, a6=0.06)
    flow = _flow_of(true, 20, 20)
    pix = np.array([[2, 3], [4, 3], [6, 7], [1, 9]], dtype=np.int64)
    got = fit_affine_ransac(pix, flow, seed=0, params=RansacParams(min_pixels=12))
    us = flow[pix[:, 1], pix[:, 0], 0]
    vs = flow[pix[:, 1], pix[:, 0], 1]
    assert got == AffineModel(a1=float(us.mean()), a4=float(vs.mean()))


def test_ransac_empty_region_rejected():
    with pytest.raises(ValueError):
        fit_affine_ransac(np.empty((0, 2), dtype=np.int64),
                          np.zeros((4, 4, 2)), seed=0)


def test_ransac_determinism():
    true = AffineModel(a1=1.0, a2=0.02)
    pix = _grid_pixels(0, 15, 0, 15)
    flow = _flow_of(true, 15, 15)
    flow[3:6, 3:6] += 4.0
    a = fit_affine_ransac(pix, flow, seed=7)
    b = fit_affine_ransac(pix, flow, seed=7)
    assert a == b


def test_ransac_params_validation():
    with pytest.raises(ValueError):
        RansacParams(inlier_tol=0.0)
    with pytest.raises(ValueError):
        RansacParams(iterations=0)
    with pytest.raises(ValueError):
        RansacParams(min_pixels=2)


# ---------------------------------------------------------------- canonical

def test_canonical_identity_full_rect():
    tex = _texture(1, 16, 16)
    region = MotionRegion(0, _grid_pixels(2, 10, 3, 9), AffineModel())
    patch = warp_to_canonical(tex, region, AffineModel(), p=8, q=6)
    assert patch.valid_mask.all()
    # identity transform maps the canonical grid onto the region's own bbox
    gx = 2.0 + np.arange(8) * (7.0 / 7.0)
    gy = 3.0 + np.arange(6) * (5.0 / 5.0)
    want = bilinear_sample(tex, *np.meshgrid(gx, gy))
    assert np.allclose(patch.values, want, atol=0.0)


def test_canonical_singular_transform_all_invalid():
    tex = _texture(2, 8, 8)
    region = MotionRegion(0, _grid_pixels(0, 8, 0, 8), AffineModel())
    patch = warp_to_canonical(tex, region, AffineModel(a2=-1.0), p=4, q=4)
    assert not patch.valid_mask.any()


def test_canonical_argument_errors():
    tex = _texture(3, 8, 8)
    region = MotionRegion(0, _grid_pixels(0, 4, 0, 4), AffineModel())
    with pytest.raises(ValueError):
        warp_to_canonical(tex, region, AffineModel(), p=1, q=4)
    with pytest.raises(ValueError):
        warp_to_canonical(tex, MotionRegion(0, np.empty((0, 2), dtype=np.int64),
                                            AffineModel()), AffineModel(), 4, 4)


def test_single_pixel_region_has_valid_patch():
    # a 1-px region's bounding box is degenerate in both axes; the widened
    # span must keep the pixel strictly inside the valid band even at the
    # frame border
    tex = _texture(4, 8, 8)
    for x, y in ((0, 0), (7, 7), (3, 0), (7, 2)):
        region = MotionRegion(0, np.array([[x, y]], dtype=np.int64), AffineModel())
        patch = warp_to_canonical(tex, region, AffineModel(), p=4, q=4)
        assert patch.valid_mask.any(), f"pixel ({x},{y}) lost its patch"


# ---------------------------------------------------------------- divergence

def test_self_divergence_is_exactly_zero():
    tex = _texture(5, 32, 32)
    region = MotionRegion(0, _grid_pixels(4, 20, 4, 20),
                          _rot_about(12.0, 12.0, 5.0))
    assert directed_divergence(region, region, tex, 32, 32) == 0.0


def test_identical_models_give_zero_distance():
    tex = _texture(5, 32, 32)
    a = MotionRegion(0, _grid_pixels(0, 8, 0, 8), AffineModel())
    b = MotionRegion(1, _grid_pixels(0, 32, 0, 32), AffineModel())
    assert region_distance(a, b, tex, 32, 32) == 0.0


def test_distance_is_symmetric():
    tex = _texture(5, 32, 32)
    a = MotionRegion(0, _grid_pixels(0, 8, 0, 8), AffineModel())
    b = MotionRegion(1, _grid_pixels(0, 32, 0, 32),
                     AffineModel(a2=0.12, a6=0.08, a3=0.05))
    assert region_distance(a, b, tex, 32, 32) == region_distance(b, a, tex, 32, 32)


def test_directed_divergence_is_asymmetric():
    # a small patch explained by a near-identity scale differs from a whole
    # frame explained by the identity: the two directions disagree
    tex = _texture(5, 32, 32)
    a = MotionRegion(0, _grid_pixels(0, 8, 0, 8), AffineModel())
    b = MotionRegion(1, _grid_pixels(0, 32, 0, 32),
                     AffineModel(a2=0.12, a6=0.08, a3=0.05))
    d_ab = directed_divergence(a, b, tex, 32, 32)
    d_ba = directed_divergence(b, a, tex, 32, 32)
    assert d_ab != d_ba


def test_pure_translations_cancel_in_canonical_frame():
    # the canonical box is built from displaced pixels, so a translation
    # shifts box and sampling grid together and the patch never changes
    tex = _texture(5, 32, 32)
    a = MotionRegion(0, _grid_pixels(0, 16, 0, 32), AffineModel(a1=1.0))
    b = MotionRegion(1, _grid_pixels(16, 32, 0, 32), AffineModel(a1=-3.0, a4=2.0))
    assert region_distance(a, b, tex, 32, 32) < 1e-9


def test_singular_other_model_diverges_to_infinity():
    tex = _texture(5, 32, 32)
    a = MotionRegion(0, _grid_pixels(0, 8, 0, 8), AffineModel())
    sing = MotionRegion(1, _grid_pixels(0, 32, 0, 32), AffineModel(a2=-1.0))
    assert directed_divergence(a, sing, tex, 32, 32) == float("inf")


def test_divergence_is_mean_difference_plus_overlap_penalty():
    tex = _texture(6, 32, 32)
    a = MotionRegion(0, _grid_pixels(2, 14, 2, 14), AffineModel())
    b = MotionRegion(1, _grid_pixels(14, 30, 2, 30),
                     _rot_about(22.0, 16.0, 6.0))
    pa = warp_to_canonical(tex, a, a.model, 32, 32)
    pb = warp_to_canonical(tex, a, b.model, 32, 32)
    both = pa.valid_mask & pb.valid_mask
    joint = int(np.count_nonzero(both))
    union = int(np.count_nonzero(pa.valid_mask | pb.valid_mask))
    assert 0 < joint < union            # both terms contribute
    diff = float(np.abs(pa.values[both] - pb.values[both]).sum())
    want = diff / joint + DIVERGENCE_KAPPA * (1 - joint / union)
    assert directed_divergence(a, b, tex, 32, 32) == want


# ---------------------------------------------------------------- hierarchy

def _two_motion_setup():
    h = w = 32
    tex = _texture(5, h, w)
    gy, gx = np.mgrid[0:h, 0:w]
    ml = _rot_about(8.0, 16.0, 8.0)
    mr = _rot_about(24.0, 16.0, -8.0)
    flow = np.zeros((h, w, 2))
    ul, vl = ml.uv(gx.astype(np.float64), gy.astype(np.float64))
    ur, vr = mr.uv(gx.astype(np.float64), gy.astype(np.float64))
    left = gx < 16
    flow[..., 0] = np.where(left, ul, ur)
    flow[..., 1] = np.where(left, vl, vr)
    init = (gx // 8).astype(np.int64)   # four vertical strips, two per motion
    return tex, flow, init


def test_hierarchy_merges_strips_of_equal_motion():
    tex, flow, init = _two_motion_setup()
    hier = motion_hierarchy(init, tex, flow, (2.0,), p=32, q=32, seed=3)
    labs0, models0 = hier.levels[0]
    labs1, models1 = hier.levels[1]
    assert len(models0) == 4
    assert len(models1) == 2
    # each half collapses to one region
    assert len(np.unique(labs1[:, :16])) == 1
    assert len(np.unique(labs1[:, 16:])) == 1
    # labels of the merged level exist in its model table
    assert set(np.unique(labs1).tolist()) == set(models1)


def test_hierarchy_levels_are_nested():
    tex, flow, init = _two_motion_setup()
    hier = motion_hierarchy(init, tex, flow, (0.5, 2.0, 50.0), p=32, q=32, seed=3)
    counts = [len(m) for _, m in hier.levels]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    for (fine, _), (coarse, _) in zip(hier.levels, hier.levels[1:]):
        pairs = np.unique(np.stack([fine.ravel(), coarse.ravel()], axis=1), axis=0)
        assert len(np.unique(pairs[:, 0])) == len(pairs)
    # at tau = 50 the strips exceed their merge distance (about 40) and fuse
    assert counts[-1] == 1


def test_hierarchy_rejects_bad_schedule():
    tex, flow, init = _two_motion_setup()
    with pytest.raises(ValueError):
        motion_hierarchy(init, tex, flow, (2.0, 2.0), p=32, q=32)


def test_region_distance_separates_the_two_motions():
    tex, flow, init = _two_motion_setup()
    hier = motion_hierarchy(init, tex, flow, (2.0,), p=32, q=32, seed=3)
    _, models = hier.levels[1]
    (la, ma), (lb, mb) = sorted(models.items())
    labs = hier.levels[1][0]
    ra = MotionRegion(la, np.column_stack(np.nonzero(labs == la)[::-1]), ma)
    rb = MotionRegion(lb, np.column_stack(np.nonzero(labs == lb)[::-1]), mb)
    assert region_distance(ra, rb, tex, 32, 32) > 10.0


# ---------------------------------------------------------------- cleanup

def test_small_component_joins_longest_border():
    lab = np.array([[5, 5, 5, 5],
                    [5, 9, 9, 5],
                    [5, 9, 7, 7],
                    [7, 7, 7, 7]], dtype=np.int64)
    got = clean_small_components(lab, 4)
    want = np.array([[0, 0, 0, 0],
                     [0, 0, 0, 0],
                     [0, 0, 1, 1],
                     [1, 1, 1, 1]], dtype=np.int64)
    assert np.array_equal(got, want)


def test_small_component_prefers_matching_affinity():
    lab = np.array([[5, 5, 5, 5],
                    [5, 9, 9, 5],
                    [5, 9, 7, 7],
                    [7, 7, 7, 7]], dtype=np.int64)
    aff = np.array([[0, 0, 0, 0],
                    [0, 1, 1, 0],
                    [0, 1, 1, 1],
                    [1, 1, 1, 1]], dtype=np.int64)
    got = clean_small_components(lab, 4, affinity=aff)
    # the fragment was sliced off affinity cell 1, so it rejoins the 7 side
    assert np.array_equal(got, aff)


def test_cleanup_noop_when_everything_is_big():
    lab = np.array([[3, 3], [3, 3]], dtype=np.int64)
    assert np.array_equal(clean_small_components(lab, 2),
                          np.zeros((2, 2), dtype=np.int64))


def test_cleanup_splits_disconnected_same_label():
    # one label value in two disconnected blobs is two components
    lab = np.zeros((3, 5), dtype=np.int64)
    lab[:, 4] = 0
    lab[:, 2] = 1
    got = clean_small_components(lab, 1)
    assert len(np.unique(got)) == 3


# ---------------------------------------------------------------- tracking

def test_forward_rasterize_foreground_keeps_leading_edge():
    labels = np.zeros((6, 10), dtype=np.int64)
    labels[2:4, 4:6] = 1
    # backward u = -2 means the object moves +2 per frame going forward
    out = _forward_rasterize(labels, {0: AffineModel(), 1: AffineModel(a1=-2.0)},
                             (6, 10))
    assert np.all(out[2:4, 6:8] == 1)      # leading edge won from background
    assert np.all(out[2:4, 4:6] == -1)     # trailing gap is unclaimed
    assert np.all(out[0:2] == 0) and np.all(out[4:] == 0)
    assert np.all(out[2:4, :4] == 0) and np.all(out[2:4, 8:] == 0)


def test_associate_temporal_is_injective():
    prev = np.full((4, 10), 3, dtype=np.int64)
    cur = np.zeros((4, 10), dtype=np.int64)
    cur[:, 7:] = 1
    # both current regions overlap previous region 3; the larger one keeps it
    warped = _forward_rasterize(prev, {3: AffineModel()}, cur.shape)
    mapping, next_fresh = associate_temporal(warped, cur, next_fresh=10)
    assert mapping == {0: 3, 1: 10}
    assert next_fresh == 11
    assert len(set(mapping.values())) == len(mapping)


def test_associate_temporal_low_overlap_gets_fresh_label():
    prev = np.zeros((4, 10), dtype=np.int64)
    cur = np.zeros((4, 10), dtype=np.int64)
    cur[:, 5:] = 1
    # previous region warps far off to the right, overlap below the threshold
    warped = _forward_rasterize(prev, {0: AffineModel(a1=-50.0)}, cur.shape)
    mapping, _ = associate_temporal(warped, cur, next_fresh=4)
    assert mapping == {0: 4, 1: 5}


# ---------------------------------------------------------------- MRF

def _planted_pair(cut: int = 11, h: int = 24, w: int = 24):
    gy, gx = np.mgrid[0:h, 0:w]
    tex = 80.0 + 120.0 * value_noise(11, 1, gx.astype(np.float64),
                                     gy.astype(np.float64), 5.0)
    ma = AffineModel(a1=1.2)
    mb = AffineModel(a1=-0.8, a4=0.6)
    ua, va = ma.uv(gx.astype(np.float64), gy.astype(np.float64))
    ub, vb = mb.uv(gx.astype(np.float64), gy.astype(np.float64))
    cur = np.where(gx < cut,
                   bilinear_sample(tex, gx + ua, gy + va),
                   bilinear_sample(tex, gx + ub, gy + vb))
    return tex, cur, ma, mb


def test_mrf_recovers_planted_boundary():
    cut = 11
    tex, cur, ma, mb = _planted_pair(cut)
    r = SplitMix64(99)
    init = np.empty((24, 24), dtype=np.int64)
    for y in range(24):
        jit = cut + int(r.next_below(7)) - 3
        init[y] = np.where(np.arange(24) < jit, 0, 1)
    out = mrf_smooth(init, {0: ma, 1: mb}, (tex, cur), 8.0)
    rows_ok = sum(1 for y in range(24)
                  if abs(int(np.sum(out[y] == 0)) - cut) <= 1)
    assert rows_ok >= 22   # observed 23/24; jittered rows pulled back to the cut


def test_mrf_never_increases_energy():
    tex, cur, ma, mb = _planted_pair()
    rng = np.random.default_rng(5)
    models = {0: ma, 1: mb}
    for _ in range(5):
        init = rng.integers(0, 2, size=(24, 24)).astype(np.int64)
        out = mrf_smooth(init, models, (tex, cur), 8.0)
        assert (motion_energy(out, models, (tex, cur), 8.0)
                <= motion_energy(init, models, (tex, cur), 8.0))


def test_mrf_preserves_label_ids():
    tex, cur, ma, mb = _planted_pair()
    init = np.full((24, 24), 7, dtype=np.int64)
    init[:, 12:] = 42
    out = mrf_smooth(init, {7: ma, 42: mb}, (tex, cur), 4.0)
    assert set(np.unique(out).tolist()) <= {7, 42}


def test_mrf_rejects_unmodeled_labels():
    tex, cur, ma, _ = _planted_pair()
    with pytest.raises(ValueError):
        mrf_smooth(np.ones((24, 24), dtype=np.int64), {0: ma}, (tex, cur), 1.0)


# ---------------------------------------------------------------- stream

def test_motion_stream_tracks_planted_objects():
    spec = SceneSpec(
        width=40, height=40, num_frames=4, seed=21,
        background_color=(70, 80, 100), noise_sigma=0.0, texture_amplitude=45.0,
        background_motion=AffineModel(a1=0.6, a4=0.3),
        objects=(ObjectSpec("rect", (8.0, 8.0, 12.0, 10.0), color=(190, 70, 50),
                            motion=_rot_about(14.0, 13.0, 7.0, (-0.3, 0.2))),),
    )
    frames, gt, flows = generate(spec)
    sv = stream_segment(frames, flows,
                        StreamConfig(subseq_len=3, levels=4, k0=0.5, min_size=20))
    results = run_motion_stream(frames, flows, sv, level_pick=2,
                                schedule=(2.0, 8.0, 24.0), seed=7)
    assert len(results) == 3
    assert [r.pair for r in results] == [1, 2, 3]
    label_sets = [tuple(sorted(np.unique(r.tracked_labels).tolist()))
                  for r in results]
    assert len(set(label_sets)) == 1          # identities persist across pairs
    assert len(label_sets[0]) == 2
    for r in results:
        g = gt[r.pair]
        for lab in np.unique(r.tracked_labels):
            mask = r.tracked_labels == lab
            iou = max(np.count_nonzero(mask & (g == s))
                      / np.count_nonzero(mask | (g == s))
                      for s in np.unique(g))
            assert iou > 0.9


def test_motion_stream_warps_each_previous_pair_once(monkeypatch):
    # the pushed map seeds the next pair's labeling and is reused for
    # label association, so pairs 2..T-1 each rasterize exactly once
    calls = []
    real = motionlayers._forward_rasterize

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(motionlayers, "_forward_rasterize", counted)
    t_len = 5
    tex = _texture(3, 16, 16)
    frames = np.repeat(tex[None, :, :, None], 3, axis=3).astype(np.uint8)
    frames = np.repeat(frames, t_len, axis=0)
    labels = np.zeros((t_len, 16, 16), dtype=np.int64)
    labels[:, :, 8:] = 1
    flows = [np.zeros((16, 16, 2)) for _ in range(t_len - 1)]
    sv = SimpleNamespace(levels=[labels])
    results = run_motion_stream(frames, flows, sv, level_pick=0, schedule=(1.0,),
                                p=8, q=8)
    assert len(results) == t_len - 1
    assert len(calls) == t_len - 2


def test_motion_stream_input_validation():
    frames = np.zeros((1, 8, 8, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        run_motion_stream(frames, [], None, 0, (1.0,))
    frames = np.zeros((3, 8, 8, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        run_motion_stream(frames, [np.zeros((8, 8, 2))], None, 0, (1.0,))
