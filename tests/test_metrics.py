"""Metric suite tests: pinned examples, invariances, oracle equivalence, CSV."""

import numpy as np
import pytest

from svstream import metrics
from svstream.metrics import (MetricsReport, accuracy_2d, accuracy_3d,
                              boundary_recall_2d, boundary_recall_3d,
                              compute_report, evaluate, explained_variation,
                              read_metrics_csv, undersegmentation_error_2d,
                              undersegmentation_error_3d, write_metrics_csv)

from oracles import (oracle_acc2d, oracle_acc3d, oracle_br2d, oracle_br3d,
                     oracle_ev, oracle_ue2d, oracle_ue3d)


def _rand_case(rng, max_labels=3):
    t = int(rng.integers(1, 3))
    h = int(rng.integers(1, 4))
    w = int(rng.integers(1, 4))
    pred = rng.integers(0, max_labels, size=(t, h, w)).astype(np.int64)
    gt = rng.integers(0, max_labels, size=(t, h, w)).astype(np.int64)
    video = rng.integers(0, 256, size=(t, h, w, 3)).astype(np.uint8)
    return pred, gt, video


# ---------------------------------------------------------------- fixed points

def test_perfect_prediction_fixed_points():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred, _, video = _rand_case(rng)
        # a permutation of the same volume is still a perfect segmentation
        perm = (pred * 7 + 3) % 11
        assert boundary_recall_3d(perm, pred) == 1.0
        assert boundary_recall_2d(perm, pred) == 1.0
        assert accuracy_3d(perm, pred) == 1.0
        assert accuracy_2d(perm, pred) == 1.0
        assert undersegmentation_error_3d(perm, pred) == 0.0
        assert undersegmentation_error_2d(perm, pred) == 0.0
        # per-voxel singletons reconstruct the video exactly
        singles = np.arange(pred.size).reshape(pred.shape)
        assert explained_variation(singles, video) == 1.0


def test_single_region_extremes():
    gt = np.zeros((2, 4, 4), dtype=np.int64)
    gt[:, :, 2:] = 1
    pred = np.zeros((2, 4, 4), dtype=np.int64)
    assert boundary_recall_3d(pred, gt) == 0.0
    # one supervoxel across two equal halves: assigned to the lower gt label,
    # covering all of segment 0 and none of segment 1
    assert accuracy_3d(pred, gt) == 0.5
    assert accuracy_2d(pred, gt) == 0.5
    # each half leaks by the size of the other half
    assert undersegmentation_error_3d(pred, gt) == 1.0
    assert undersegmentation_error_2d(pred, gt) == 1.0
    video = np.zeros((2, 4, 4), dtype=np.int64)
    video[..., 2:] = 10
    assert explained_variation(pred, video) == 0.0


def test_explained_variation_two_voxel_cases():
    video = np.array([0, 10], dtype=np.int64).reshape(2, 1, 1)
    assert explained_variation(np.array([0, 1]).reshape(2, 1, 1), video) == 1.0
    assert explained_variation(np.zeros((2, 1, 1), dtype=np.int64), video) == 0.0


def test_constant_video_scores_one():
    video = np.full((2, 3, 3), 42, dtype=np.int64)
    pred = np.zeros((2, 3, 3), dtype=np.int64)
    assert explained_variation(pred, video) == 1.0


def test_shifted_boundary_within_tolerance():
    gt = np.zeros((2, 4, 4), dtype=np.int64)
    gt[:, :, 2:] = 1
    pred = np.zeros((2, 4, 4), dtype=np.int64)
    pred[:, :, 3:] = 1   # boundary one column to the right
    assert boundary_recall_3d(pred, gt, tol=1) == 1.0
    assert boundary_recall_2d(pred, gt, tol=1) == 1.0
    assert boundary_recall_3d(pred, gt, tol=0) == oracle_br3d(pred, gt, 0)


def test_temporal_only_gt_is_vacuous_in_2d():
    gt = np.zeros((3, 2, 2), dtype=np.int64)
    gt[1] = 1
    gt[2] = 2
    pred = np.zeros((3, 2, 2), dtype=np.int64)
    assert boundary_recall_2d(pred, gt) == 1.0   # no within-frame gt boundary
    assert boundary_recall_3d(pred, gt) == 0.0   # between-frame ones missed


# ---------------------------------------------------------------- invariances

def test_label_permutation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pred, gt, video = _rand_case(rng)
        pp = pred * 13 + 5
        gg = gt * 9 + 2
        assert boundary_recall_3d(pp, gg) == boundary_recall_3d(pred, gt)
        assert boundary_recall_2d(pp, gg) == boundary_recall_2d(pred, gt)
        assert accuracy_3d(pp, gt) == accuracy_3d(pred, gt)
        assert undersegmentation_error_3d(pp, gg) == undersegmentation_error_3d(pred, gt)
        assert explained_variation(pp, video) == explained_variation(pred, video)
    # accuracy tie-breaking references gt label order, so only order-preserving
    # relabelings of gt are guaranteed invariant (13g + 5 is monotone)
    # while pred relabeling is always free.


def test_merging_supervoxels_never_decreases_ue3d():
    rng = np.random.default_rng(3)
    for _ in range(40):
        pred, gt, _ = _rand_case(rng, max_labels=4)
        labs = np.unique(pred)
        if len(labs) < 2:
            continue
        a, b = rng.choice(labs, size=2, replace=False)
        merged = np.where(pred == b, a, pred)
        assert undersegmentation_error_3d(merged, gt) >= undersegmentation_error_3d(pred, gt)


def test_metric_ranges():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pred, gt, video = _rand_case(rng, max_labels=4)
        rep = compute_report(pred, gt, video)
        for v in (rep.br2d, rep.br3d, rep.ev, rep.acc2d, rep.acc3d):
            assert 0.0 <= v <= 1.0
        assert rep.ue2d >= 0.0 and rep.ue3d >= 0.0


# ---------------------------------------------------------------- oracles

def test_oracle_equivalence_sample():
    # exact (not approximate) agreement with the loop-based oracles; the
    # large randomized sweep lives in the acceptance suite
    rng = np.random.default_rng(5)
    for i in range(300):
        pred, gt, video = _rand_case(rng)
        tol = int(rng.integers(0, 2))
        assert boundary_recall_3d(pred, gt, tol) == oracle_br3d(pred, gt, tol)
        assert boundary_recall_2d(pred, gt, tol) == oracle_br2d(pred, gt, tol)
        assert explained_variation(pred, video) == oracle_ev(pred, video)
        assert accuracy_3d(pred, gt) == oracle_acc3d(pred, gt)
        assert accuracy_2d(pred, gt) == oracle_acc2d(pred, gt)
        assert undersegmentation_error_3d(pred, gt) == oracle_ue3d(pred, gt)
        assert undersegmentation_error_2d(pred, gt) == oracle_ue2d(pred, gt)
        _assert_report_matches_oracles(pred, gt, video, tol)


def _assert_report_matches_oracles(pred, gt, video, tol):
    rep = compute_report(pred, gt, video, tol)
    assert rep.num_supervoxels == len(np.unique(pred))
    assert rep.br2d == oracle_br2d(pred, gt, tol)
    assert rep.br3d == oracle_br3d(pred, gt, tol)
    assert rep.ev == oracle_ev(pred, video)
    assert rep.acc2d == oracle_acc2d(pred, gt)
    assert rep.acc3d == oracle_acc3d(pred, gt)
    assert rep.ue2d == oracle_ue2d(pred, gt)
    assert rep.ue3d == oracle_ue3d(pred, gt)


def test_oracle_equivalence_segments_missing_from_frames():
    # 3-4 frames and up to 5 labels; each gt frame draws from its own subset
    # of the labels, so segments come and go between frames
    rng = np.random.default_rng(9)
    for _ in range(60):
        t = int(rng.integers(3, 5))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        pred = rng.integers(0, int(rng.integers(1, 6)), size=(t, h, w)) * 3 - 4
        gt = np.stack([rng.choice(rng.choice(5, size=int(rng.integers(1, 4)), replace=False),
                                  size=(h, w)) for _ in range(t)])
        video = rng.integers(0, 256, size=(t, h, w, 3)).astype(np.uint8)
        tol = int(rng.integers(0, 3))
        assert accuracy_2d(pred, gt) == oracle_acc2d(pred, gt)
        assert undersegmentation_error_2d(pred, gt) == oracle_ue2d(pred, gt)
        assert boundary_recall_2d(pred, gt, tol) == oracle_br2d(pred, gt, tol)
        _assert_report_matches_oracles(pred, gt, video, tol)


def test_boundary_recall_tolerance_beyond_the_frame():
    # any tolerance reaching across the frame recalls the same elements
    rng = np.random.default_rng(10)
    pred = rng.integers(0, 3, size=(3, 5, 6))
    gt = rng.integers(0, 3, size=(3, 5, 6))
    assert boundary_recall_2d(pred, gt, 10 ** 6) == oracle_br2d(pred, gt, 10 ** 6)
    assert boundary_recall_3d(pred, gt, 10 ** 6) == oracle_br3d(pred, gt, 10 ** 6)


def test_explained_variation_sums_stay_exact():
    # sum of squares 1.2e19 exceeds int64 over the volume but not per frame
    video = np.array([0, 2 * 10 ** 9, 2 * 10 ** 9, 2 * 10 ** 9, 1],
                     dtype=np.int64).reshape(5, 1, 1)
    pred = np.array([0, 0, 1, 1, 1]).reshape(5, 1, 1)
    assert explained_variation(pred, video) == oracle_ev(pred, video)
    # a large offset with a small spread: the sums only fit after the shift
    video = 10 ** 15 + np.array([3, 0, 9, 4, 4], dtype=np.int64).reshape(5, 1, 1)
    assert explained_variation(pred, video) == oracle_ev(pred, video)
    # one frame's squares exceed int64: refused rather than wrapped
    video = np.array([[[3 * 10 ** 9, 0], [3 * 10 ** 9, 1]]], dtype=np.int64)
    with pytest.raises(ValueError):
        explained_variation(np.array([[[0, 1], [0, 1]]]), video)


# ---------------------------------------------------------------- validation

def test_dimension_and_argument_errors():
    with pytest.raises(ValueError):
        boundary_recall_3d(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))
    with pytest.raises(ValueError):
        boundary_recall_3d(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        boundary_recall_3d(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), tol=-1)
    with pytest.raises(ValueError):
        explained_variation(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))  # float video
    with pytest.raises(ValueError):
        explained_variation(np.zeros((1, 2, 2)), np.zeros((1, 2, 3), dtype=np.int64))


# ---------------------------------------------------------------- reports

def test_evaluate_hierarchy_level_equal_to_gt():
    rng = np.random.default_rng(7)
    gt = rng.integers(0, 3, size=(2, 4, 4)).astype(np.int64)
    video = rng.integers(0, 256, size=(2, 4, 4, 3)).astype(np.uint8)
    fine = np.arange(gt.size).reshape(gt.shape)
    levels = [fine, gt.copy(), np.zeros_like(gt)]
    reports = evaluate(levels, gt, video)
    assert len(reports) == 3
    assert reports[1].br3d == 1.0
    assert reports[1].acc3d == 1.0
    assert reports[1].ue3d == 0.0
    assert reports[0].num_supervoxels == gt.size


def test_evaluate_shares_ground_truth_work_across_levels():
    # a luma offset makes the in-place shift of the first level matter to later ones
    rng = np.random.default_rng(11)
    for _ in range(20):
        pred, gt, _ = _rand_case(rng, max_labels=4)
        video = rng.integers(1000, 1100, size=gt.shape).astype(np.int64)
        levels = [pred, gt, rng.integers(0, 4, size=gt.shape), np.zeros_like(gt)]
        kept = video.copy()
        reports = evaluate((level for level in levels), gt, video, tol=1)
        assert reports == [compute_report(level, gt, video, 1) for level in levels]
        assert np.array_equal(video, kept)
        for level, rep in zip(levels, reports):
            assert rep.br3d == oracle_br3d(level, gt, 1)
            assert rep.ev == oracle_ev(level, video)
            assert rep.acc3d == oracle_acc3d(level, gt)


def _per_frame_case(rng, t):
    """t frames and 1 to 3 levels; each gt frame and each level's frame
    draws from its own subset of the labels, so labels come and go."""
    h = int(rng.integers(1, 5))
    w = int(rng.integers(1, 5))

    def volume(labels):
        return np.stack([rng.choice(rng.choice(labels, size=int(rng.integers(1, 4)),
                                               replace=False), size=(h, w))
                         for _ in range(t)])

    levels = [volume(np.arange(6) * 5 - 7) for _ in range(int(rng.integers(1, 4)))]
    return levels, volume(np.arange(5)), rng.integers(0, 256, size=(t, h, w, 3)).astype(np.uint8)


def test_per_frame_pass_equals_oracles():
    rng = np.random.default_rng(12)
    for case in range(64):
        levels, gt, video = _per_frame_case(rng, 1 + case % 8)
        # a tolerance past the frame on every third case
        tol = 10 if case % 3 == 0 else int(rng.integers(0, 3))
        reports = evaluate(levels, gt, video, tol)
        # any iterable of frames is read the same as the array
        assert evaluate([iter(level) for level in levels], iter(gt), iter(video), tol) == reports
        for pred, rep in zip(levels, reports):
            assert rep == compute_report(pred, gt, video, tol)
            _assert_report_matches_oracles(pred, gt, video, tol)
            assert boundary_recall_2d(pred, gt, tol) == oracle_br2d(pred, gt, tol)
            assert boundary_recall_3d(pred, gt, tol) == oracle_br3d(pred, gt, tol)
            assert explained_variation(pred, video) == oracle_ev(pred, video)
            assert accuracy_2d(pred, gt) == oracle_acc2d(pred, gt)
            assert accuracy_3d(pred, gt) == oracle_acc3d(pred, gt)
            assert undersegmentation_error_2d(pred, gt) == oracle_ue2d(pred, gt)
            assert undersegmentation_error_3d(pred, gt) == oracle_ue3d(pred, gt)


@pytest.mark.parametrize("num_levels", [1, 5])
def test_gt_anchors_are_found_once_per_frame(monkeypatch, num_levels):
    rng = np.random.default_rng(13)
    gt = rng.integers(0, 3, size=(6, 4, 5))
    video = rng.integers(0, 256, size=(6, 4, 5, 3)).astype(np.uint8)
    levels = [rng.integers(0, 4, size=gt.shape) for _ in range(num_levels)]
    passes = []

    def counted(labels, prev, out):
        passes.append(np.shares_memory(labels, gt))
        return anchors(labels, prev, out)

    anchors = metrics._anchors
    monkeypatch.setattr(metrics, "_anchors", counted)
    evaluate(levels, gt, video)
    assert passes.count(True) == len(gt)
    assert passes.count(False) == num_levels * len(gt)


def test_volumes_of_another_frame_count_are_refused():
    rng = np.random.default_rng(14)
    pred, gt, video = (rng.integers(0, 3, size=(3, 2, 2)) for _ in range(3))
    with pytest.raises(ValueError):
        evaluate([pred[:2]], gt, video)
    with pytest.raises(ValueError):
        evaluate([iter(pred)], iter(gt), iter(video[:2]))
    with pytest.raises(ValueError):
        compute_report(pred[:0], gt[:0], video[:0])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    pred, gt, video = _rand_case(rng)
    reports = [compute_report(pred, gt, video),
               compute_report(gt, gt, video)]
    path = str(tmp_path / "m.csv")
    write_metrics_csv(reports, path)
    back = read_metrics_csv(path)
    assert [lv for lv, _ in back] == [0, 1]
    # repr-formatted floats round-trip bit-exactly
    assert [r for _, r in back] == reports
    with open(path) as fh:
        assert fh.readline().strip() == "level,num_supervoxels,br2d,br3d,ev,acc2d,acc3d,ue2d,ue3d"


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("level,whatever\n0,1\n")
    with pytest.raises(ValueError):
        read_metrics_csv(str(path))


@pytest.mark.parametrize("edit", [lambda f: f[:-1], lambda f: f + ["0.5"], lambda f: []],
                         ids=["short", "long", "blank"])
def test_csv_rejects_a_row_of_another_length(tmp_path, edit):
    path = tmp_path / "m.csv"
    write_metrics_csv([MetricsReport(3, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0)] * 3, str(path))
    lines = path.read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="row 3 has"):
        read_metrics_csv(str(path))
