"""Metric suite tests: pinned examples, invariances, oracle equivalence, CSV."""

import numpy as np
import pytest

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
