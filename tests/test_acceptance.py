"""Acceptance suite: twelve end-to-end checks, one visible verdict line each.

Each test prints its own "[criterion NN] PASS/FAIL" line past pytest's output
capture, so a plain `pytest tests/test_acceptance.py` run shows the verdicts.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from svstream.affine import AffineModel
from svstream.cli import main as cli_main
from svstream.graphcut import alpha_expansion, labeling_energy
from svstream.imageops import bilinear_sample
from svstream.metrics import (accuracy_2d, accuracy_3d, boundary_recall_2d,
                              boundary_recall_3d, explained_variation,
                              undersegmentation_error_2d,
                              undersegmentation_error_3d)
from svstream.motionlayers import (MotionRegion, RansacParams,
                                   directed_divergence, fit_affine_ransac,
                                   mrf_smooth, region_distance,
                                   run_motion_stream)
from svstream.preprocess import BilateralParams, filter_sequence
from svstream.rng import SplitMix64
from svstream.streamseg import (StreamConfig, build_spatial_edges,
                                build_temporal_edges, combine_distance,
                                stream_segment)
from svstream.synth import ObjectSpec, SceneSpec, generate, value_noise

import oracles


@pytest.fixture
def announce(request):
    """Print a line to the real terminal even while capture is active."""
    cap = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        if cap is None:
            print(line, flush=True)
        else:
            with cap.global_and_fixture_disabled():
                print(line, flush=True)
    return emit


def _verdict(emit, num: int, label: str, ok: bool, detail: str = ""):
    emit(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}{detail}")
    assert ok, f"criterion {num:02d}: {label}{detail}"


def _rot_about(cx, cy, deg, drift=(0.0, 0.0)) -> AffineModel:
    th = math.radians(deg)
    a2, a3 = math.cos(th) - 1.0, -math.sin(th)
    a5, a6 = math.sin(th), math.cos(th) - 1.0
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


# ------------------------------------------------------------- criterion 1

def test_c01_metrics_match_bruteforce_oracle(announce):
    r = SplitMix64(20260819)
    t0 = time.monotonic()
    bad = 0
    first = ""
    for case in range(10000):
        t_n = 1 + int(r.next_below(2))
        h = 1 + int(r.next_below(3))
        w = 1 + int(r.next_below(3))
        n = t_n * h * w
        pred = np.array([int(r.next_below(3)) for _ in range(n)],
                        dtype=np.int64).reshape(t_n, h, w)
        gt = np.array([int(r.next_below(3)) for _ in range(n)],
                      dtype=np.int64).reshape(t_n, h, w)
        video = np.array([int(r.next_below(256)) for _ in range(n)],
                         dtype=np.uint8).reshape(t_n, h, w)
        tol = int(r.next_below(2))
        got = (boundary_recall_2d(pred, gt, tol),
               boundary_recall_3d(pred, gt, tol),
               accuracy_2d(pred, gt), accuracy_3d(pred, gt),
               undersegmentation_error_2d(pred, gt),
               undersegmentation_error_3d(pred, gt),
               explained_variation(pred, video))
        want = (oracles.oracle_br2d(pred, gt, tol),
                oracles.oracle_br3d(pred, gt, tol),
                oracles.oracle_acc2d(pred, gt), oracles.oracle_acc3d(pred, gt),
                oracles.oracle_ue2d(pred, gt), oracles.oracle_ue3d(pred, gt),
                oracles.oracle_ev(pred, video))
        if got != want:
            bad += 1
            if not first:
                first = f"; first mismatch at case {case}: {got} != {want}"
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 60.0
    _verdict(announce, 1, "metrics equal the brute-force oracle", ok,
             f" (10000 volumes, {bad} mismatches, {elapsed:.1f}s){first}")


# ------------------------------------------------------------- criterion 2

def test_c02_perfect_segmentations_are_fixed_points(announce):
    r = SplitMix64(77)
    ok = True
    for _ in range(12):
        t_n, h, w = 2 + int(r.next_below(2)), 3 + int(r.next_below(3)), 3 + int(r.next_below(2))
        n = t_n * h * w
        gt = np.array([int(r.next_below(5)) for _ in range(n)],
                      dtype=np.int64).reshape(t_n, h, w)
        pred = (gt * 7 + 3) % 11          # relabeling, still the same partition
        video = np.array([int(r.next_below(256)) for _ in range(n)],
                         dtype=np.uint8).reshape(t_n, h, w)
        for tol in (0, 1):
            ok &= boundary_recall_2d(pred, gt, tol) == 1.0
            ok &= boundary_recall_3d(pred, gt, tol) == 1.0
        ok &= accuracy_2d(pred, gt) == 1.0 and accuracy_3d(pred, gt) == 1.0
        ok &= undersegmentation_error_2d(pred, gt) == 0.0
        ok &= undersegmentation_error_3d(pred, gt) == 0.0
        voxelwise = np.arange(n, dtype=np.int64).reshape(t_n, h, w)
        ok &= explained_variation(voxelwise, video) == 1.0
        rgb = np.stack([video, video // 2, 255 - video], axis=-1)
        ok &= explained_variation(voxelwise, rgb) == 1.0
    _verdict(announce, 2,
             "relabelings score perfectly and voxel-wise labels explain all variance", ok)


# ------------------------------------------------------------- criterion 3

def test_c03_combined_distance_boundary_and_monotonicity(announce):
    grid = np.linspace(0.0, 1.0, 101)
    ok = combine_distance(0.0, 0.0) == 0.0
    ok &= all(combine_distance(1.0, float(x)) == 1.0 for x in grid)
    ok &= abs(combine_distance(0.5, 0.5) - 0.5625) <= 1e-12
    m = np.array([[combine_distance(float(a), float(b)) for b in grid]
                  for a in grid])
    ok &= bool(np.all(np.diff(m, axis=0) >= 0.0))
    ok &= bool(np.all(np.diff(m, axis=1) >= 0.0))
    _verdict(announce, 3, "combined distance boundary values and monotonicity", bool(ok))


# ------------------------------------------------------------- criterion 4

def _grid26_pairs(t_len: int, h: int, w: int) -> set:
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


def _undirected_pairs(edges) -> set:
    return {(min(int(a), int(b)), max(int(a), int(b)))
            for a, b in zip(edges["a"], edges["b"])}


def test_c04_zero_flow_reduces_to_grid_neighborhood(announce):
    ok = True
    for t, h, w in ((3, 4, 5), (2, 3, 3), (4, 2, 6)):
        rng = np.random.default_rng(t * 100 + h * 10 + w)
        window = rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8)
        spatial = build_spatial_edges(window)
        for flows in (None, [np.zeros((h, w, 2)) for _ in range(t - 1)]):
            temporal = build_temporal_edges(window, flows, use_flow_edges=True)
            got = _undirected_pairs(spatial) | _undirected_pairs(temporal)
            ok &= got == _grid26_pairs(t, h, w)
    _verdict(announce, 4, "zero flow gives exactly the 26-connected grid", ok)


# ------------------------------------------------------------- criterion 5

def _scene(seed: int, t: int = 6):
    motion = (AffineModel(a1=0.5, a4=-0.3) if seed % 2 == 0
              else AffineModel(a1=-0.3, a4=0.35))
    spec = SceneSpec(
        width=20, height=20, num_frames=t, seed=seed,
        background_color=(70, 80, 100), noise_sigma=0.0, texture_amplitude=35.0,
        objects=(ObjectSpec("rect", (8.0, 4.0, 7.0, 6.0), color=(190, 70, 50),
                            motion=motion),),
    )
    return generate(spec)


def _nested(fine: np.ndarray, coarse: np.ndarray) -> bool:
    pairs = np.unique(np.stack([fine.ravel(), coarse.ravel()], axis=1), axis=0)
    return len(np.unique(pairs[:, 0])) == len(pairs)


def test_c05_hierarchies_nest_over_random_scenes(announce):
    config = StreamConfig(subseq_len=3, levels=3, k0=0.5, min_size=4)
    ok = True
    for seed in range(20):
        frames, _, flows = _scene(seed, t=9)
        full = stream_segment(frames, flows, config)
        counts = [len(np.unique(v)) for v in full.levels]
        ok &= all(a >= b for a, b in zip(counts, counts[1:]))
        ok &= all(_nested(full.levels[l], full.levels[l + 1])
                  for l in range(len(full.levels) - 1))
        prefix = stream_segment(frames[:6], flows[:5], config)
        ok &= all(np.array_equal(f[:6], p)
                  for f, p in zip(full.levels, prefix.levels))
    _verdict(announce, 5,
             "20 scenes: nesting, non-increasing counts, prefix stability", ok)


# ------------------------------------------------------------- criterion 6

def test_c06_short_stream_equals_batch_build(announce):
    config = StreamConfig(subseq_len=3, levels=4, k0=0.5, min_size=4)
    ok = True
    for seed, t in ((4, 3), (11, 2)):
        frames, _, flows = _scene(seed, t=t)
        streamed = stream_segment(frames, flows, config)
        edges = np.concatenate([build_spatial_edges(frames),
                                build_temporal_edges(frames, flows,
                                                     config.use_flow_edges)])
        level0 = oracles.oracle_segment_level0(
            edges, frames[..., 0].size, config.k0,
            config.min_size).reshape(frames.shape[:3])
        whole = oracles.oracle_build_hierarchy(level0, frames, flows, config)
        for lv_s, lv_w in zip(streamed.levels, whole.levels):
            ok &= lv_s.dtype == lv_w.dtype and np.array_equal(lv_s, lv_w)
    _verdict(announce, 6,
             "videos no longer than one window reproduce the batch result bit for bit", ok)


# ------------------------------------------------------------- criterion 7

def test_c07_affine_ransac_accuracy_and_speed(announce):
    t0 = time.monotonic()
    worst_clean, worst_dirty = 0.0, 0.0
    for i in range(100):
        r = SplitMix64(3000 + i)
        f = lambda lo, hi: lo + (hi - lo) * r.next_float()
        true = AffineModel(a1=f(-1.5, 1.5), a2=f(-0.08, 0.08), a3=f(-0.08, 0.08),
                           a4=f(-1.5, 1.5), a5=f(-0.08, 0.08), a6=f(-0.08, 0.08))
        pix = _grid_pixels(0, 20, 0, 20)
        flow = _flow_of(true, 20, 20)
        if i % 2 == 1:
            hit = set()
            while len(hit) < 120:       # corrupt 30% of the 400 pixels
                hit.add(r.next_below(400))
            for j in hit:
                y, x = divmod(j, 20)
                flow[y, x, 0] += 5.0 + 10.0 * r.next_float()
                flow[y, x, 1] -= 3.0 + 10.0 * r.next_float()
        got = fit_affine_ransac(pix, flow, seed=i)
        err = max(abs(a - b) for a, b in zip(got.params, true.params))
        if i % 2 == 1:
            worst_dirty = max(worst_dirty, err)
        else:
            worst_clean = max(worst_clean, err)
    elapsed = time.monotonic() - t0
    ok = worst_clean < 1e-6 and worst_dirty < 1e-3 and elapsed < 30.0
    _verdict(announce, 7, "RANSAC accuracy over 100 fits", ok,
             f" (clean {worst_clean:.2e}, 30% outliers {worst_dirty:.2e}, {elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 8

def test_c08_motion_distance_properties(announce):
    tex = _texture(5, 32, 32)
    regions = [MotionRegion(0, _grid_pixels(4, 20, 4, 20), _rot_about(12.0, 12.0, 5.0)),
               MotionRegion(1, _grid_pixels(0, 8, 0, 8), AffineModel()),
               MotionRegion(2, _grid_pixels(10, 30, 2, 14), AffineModel(a1=1.5, a4=-0.5))]
    ok = all(directed_divergence(rg, rg, tex, 32, 32) == 0.0 for rg in regions)

    small = MotionRegion(0, _grid_pixels(0, 8, 0, 8), AffineModel())
    whole = MotionRegion(1, _grid_pixels(0, 32, 0, 32),
                         AffineModel(a2=0.12, a6=0.08, a3=0.05))
    ok &= (region_distance(small, whole, tex, 32, 32)
           == region_distance(whole, small, tex, 32, 32))
    ok &= (directed_divergence(small, whole, tex, 32, 32)
           != directed_divergence(whole, small, tex, 32, 32))

    same_a = MotionRegion(0, _grid_pixels(0, 8, 0, 8), AffineModel())
    same_b = MotionRegion(1, _grid_pixels(0, 32, 0, 32), AffineModel())
    ok &= region_distance(same_a, same_b, tex, 32, 32) == 0.0
    _verdict(announce, 8,
             "zero self-divergence, symmetric distance, an asymmetry witness", ok)


# ------------------------------------------------------------- criterion 9

def test_c09_motion_stream_recovers_planted_layers(announce):
    spec = SceneSpec(
        width=64, height=64, num_frames=10, seed=21,
        background_color=(70, 80, 100), noise_sigma=0.0, texture_amplitude=45.0,
        background_motion=AffineModel(a1=0.6, a4=0.3),
        objects=(ObjectSpec("rect", (8.0, 8.0, 16.0, 14.0), color=(190, 70, 50),
                            motion=_rot_about(16.0, 15.0, 7.0, (-0.3, 0.2))),
                 ObjectSpec("ellipse", (46.0, 44.0, 9.0, 8.0), color=(60, 170, 200),
                            motion=_rot_about(46.0, 44.0, -7.0, (0.2, -0.3)))),
    )
    frames, gt, flows = generate(spec)
    t0 = time.monotonic()
    sv = stream_segment(frames, flows,
                        StreamConfig(subseq_len=3, levels=4, k0=0.5, min_size=20))
    results = list(run_motion_stream(zip(frames, [None, *flows], sv.levels[2]),
                                     schedule=(2.0, 8.0, 24.0), seed=7))
    elapsed = time.monotonic() - t0

    ok = len(results) == 9 and [r.pair for r in results] == list(range(1, 10))
    num_levels = len(results[0].hierarchy.levels)
    three_level = -1
    for li in range(num_levels):
        hits = sum(len(np.unique(r.hierarchy.levels[li][0])) == 3 for r in results)
        if hits >= 8:
            three_level = li
    ok &= three_level >= 0

    label_sets = {tuple(sorted(np.unique(r.tracked_labels).tolist()))
                  for r in results}
    ok &= len(label_sets) == 1 and len(next(iter(label_sets))) == 3

    worst = 1.0
    for r in results:
        g = gt[r.pair]
        labs = np.unique(r.tracked_labels)
        for gid in (0, 1, 2):
            gm = g == gid
            best = max(np.count_nonzero((r.tracked_labels == L) & gm)
                       / np.count_nonzero((r.tracked_labels == L) | gm)
                       for L in labs)
            worst = min(worst, best)
    ok &= worst >= 0.85 and elapsed < 120.0
    _verdict(announce, 9, "planted motion layers recovered and tracked", ok,
             f" (3-region level {three_level}, worst IoU {worst:.3f}, {elapsed:.1f}s)")


# ------------------------------------------------------------ criterion 10

def test_c10_expansion_energy_and_planted_boundary(announce):
    rng = np.random.default_rng(10)
    ok = True
    for i in range(50):
        nl = 2 + i % 3
        h, w = 4 + i % 5, 5 + i % 4
        costs = rng.uniform(0.0, 10.0, size=(nl, h, w))
        lam = (1.0, 3.0, 8.0)[i % 3]
        init = rng.integers(0, nl, size=(h, w)).astype(np.int64)
        out = alpha_expansion(costs, lam, init)
        ok &= (labeling_energy(out, costs, lam)
               <= labeling_energy(init, costs, lam))
    for i in range(5):
        costs = rng.uniform(0.0, 10.0, size=(3, 6, 7))
        init = rng.integers(0, 3, size=(6, 7)).astype(np.int64)
        ok &= np.array_equal(alpha_expansion(costs, 0.0, init),
                             np.argmin(costs, axis=0))

    cut, h, w = 23, 48, 48
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
    r = SplitMix64(99)
    init = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        jit = cut + int(r.next_below(7)) - 3
        init[y] = np.where(np.arange(w) < jit, 0, 1)
    out = mrf_smooth(init, {0: ma, 1: mb}, (tex, cur), 8.0)
    rows_ok = sum(1 for y in range(h)
                  if abs(int(np.sum(out[y] == 0)) - cut) <= 1)
    ok &= rows_ok >= math.ceil(0.9 * h)
    _verdict(announce, 10, "expansion moves never raise energy; boundary recovered", ok,
             f" ({rows_ok}/{h} rows within 1 px)")


# ------------------------------------------------------------ criterion 11

def test_c11_flow_and_filtering_do_not_hurt(announce):
    def scene(seed):
        r = SplitMix64(seed)
        f = lambda lo, hi: lo + (hi - lo) * r.next_float()
        bg = AffineModel(a1=f(1.2, 1.8), a4=f(-1.8, -1.2))
        o1 = ObjectSpec("rect", (f(7, 10), f(7, 10), f(10, 14), f(9, 13)),
                        (200, 80, 60),
                        _rot_about(f(13, 16), f(12, 15), f(3, 6),
                                   (f(0.2, 0.5), f(0.2, 0.5))))
        o2 = ObjectSpec("ellipse", (f(30, 33), f(30, 33), f(5, 7), f(5, 7)),
                        (60, 170, 210),
                        _rot_about(f(30, 33), f(30, 33), f(-6, -3),
                                   (f(-0.5, -0.2), f(-0.5, -0.2))))
        return SceneSpec(width=48, height=48, num_frames=6,
                         background_color=(80, 90, 110), background_motion=bg,
                         objects=(o1, o2), noise_sigma=5.0,
                         texture_amplitude=40.0, seed=seed)

    plus_cfg = StreamConfig(subseq_len=3, levels=7, k0=0.2, k_growth=2.0,
                            min_size=10, use_flow_edges=True,
                            use_flow_feature=True)
    col_cfg = StreamConfig(subseq_len=3, levels=7, k0=0.2, k_growth=2.0,
                           min_size=10, use_flow_edges=False,
                           use_flow_feature=False)
    t0 = time.monotonic()
    rows = []
    matched = 0
    for i in range(10):
        frames, gt, flows = generate(scene(1000 + i))
        filt = filter_sequence(frames, BilateralParams(sigma_spatial=3.0,
                                                       sigma_range=25.0,
                                                       radius=6))
        hp = stream_segment(filt, flows, plus_cfg)
        hc = stream_segment(frames, None, col_cfg)
        na = [len(np.unique(v)) for v in hp.levels]
        nb = [len(np.unique(v)) for v in hc.levels]
        # compare at supervoxel counts within 10%, as close to 20 as possible
        best = None
        for la, a in enumerate(na):
            for lb, b in enumerate(nb):
                if abs(a - b) <= 0.1 * max(a, b):
                    key = abs(a - 20) + abs(b - 20)
                    if best is None or key < best[0]:
                        best = (key, la, lb)
        if best is None:
            continue
        matched += 1
        _, la, lb = best
        rows.append((boundary_recall_3d(hp.levels[la], gt, 1),
                     boundary_recall_3d(hc.levels[lb], gt, 1),
                     explained_variation(hp.levels[la], frames),
                     explained_variation(hc.levels[lb], frames)))
    elapsed = time.monotonic() - t0
    med = [statistics.median(r[k] for r in rows) for k in range(4)] if rows else [0] * 4
    ok = matched == 10 and med[0] >= med[1] and med[2] >= med[3]
    _verdict(announce, 11, "flow+filtering at least matches color-only", ok,
             f" (matched {matched}/10, median br3d {med[0]:.3f} vs {med[1]:.3f},"
             f" ev {med[2]:.3f} vs {med[3]:.3f}, {elapsed:.1f}s)")


# ------------------------------------------------------------ criterion 12

def _tree_bytes(root) -> dict:
    data = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            with open(p, "rb") as fh:
                data[os.path.relpath(p, root)] = fh.read()
    return data


def test_c12_end_to_end_determinism(announce, tmp_path):
    frames, _, flows = _scene(3, t=6)
    config = StreamConfig(subseq_len=3, levels=3, k0=0.5, min_size=4)
    a = stream_segment(frames, flows, config)
    b = stream_segment(frames, flows, config)
    ok = all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))

    spec = tmp_path / "scene.txt"
    spec.write_text(
        "width = 24\nheight = 24\nframes = 4\nseed = 9\n"
        "texture_amplitude = 40\nbackground_color = 70 80 100\n"
        "background_motion = 0.4 0 0 0.2 0 0\n"
        "object = rect 6 6 9 8 color 200 70 50 motion 0.1 0 0 0.1 0 0\n")
    rendered = tmp_path / "rendered"
    ok &= cli_main(["synth", "--spec", str(spec), "--out", str(rendered)]) == 0
    pattern = os.path.join(str(rendered), "frames", "%05d.ppm")
    trees = {}
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"seg_{name}"
        rc = cli_main(["segment", "--input", pattern, "--out", str(out),
                       "--levels", "3", "--k0", "0.5", "--min-size", "8",
                       "--subseq", "3", "--flow-iters", "20",
                       "--flow-min-size", "12", "--threads", threads])
        ok &= rc == 0
        trees[name] = _tree_bytes(out)
    ok &= set(trees["a"]) == set(trees["b"]) == set(trees["c"])
    ok &= all(trees["a"][k] == trees["b"][k] == trees["c"][k] for k in trees["a"])
    _verdict(announce, 12,
             "repeat runs and thread counts reproduce identical output", ok)
