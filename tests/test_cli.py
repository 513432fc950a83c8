"""CLI tests: exit codes, config precedence, and the subcommand round trips."""

import math
import os

import numpy as np
import pytest

from svstream import cli
from svstream.cli import main
from svstream.mediaio import read_flo, read_label_volume, write_label_volume
from svstream.metrics import read_metrics_csv
from svstream.streamseg import SegmentationHierarchy


def _rot_line(cx, cy, deg, dx, dy) -> str:
    th = math.radians(deg)
    a2, a3 = math.cos(th) - 1.0, -math.sin(th)
    a5, a6 = math.sin(th), math.cos(th) - 1.0
    a1 = -(a2 * cx + a3 * cy) + dx
    a4 = -(a5 * cx + a6 * cy) + dy
    return f"{a1} {a2} {a3} {a4} {a5} {a6}"


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """A small rendered scene: frames/, gt/, flow/ and its scene text."""
    root = tmp_path_factory.mktemp("scene")
    spec = root / "scene.txt"
    spec.write_text(
        "width = 24\n"
        "height = 24\n"
        "frames = 4\n"
        "seed = 9\n"
        "texture_amplitude = 40\n"
        "background_color = 70 80 100\n"
        "background_motion = 0.4 0 0 0.2 0 0\n"
        f"object = rect 6 6 9 8 color 200 70 50 motion {_rot_line(10.5, 10.0, 6.0, -0.2, 0.15)}\n")
    out = root / "rendered"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def _frames_pattern(scene_dir) -> str:
    return os.path.join(str(scene_dir), "frames", "%05d.ppm")


# ---------------------------------------------------------------- exit codes

def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("svstream ")


def test_unknown_flag_is_usage_error():
    assert main(["segment", "--input", "x", "--out", "y", "--frobnicate"]) == 1


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_missing_required_flag_is_usage_error(tmp_path):
    assert main(["segment", "--out", str(tmp_path / "o")]) == 1


def test_bad_flag_value_is_usage_error(tmp_path):
    assert main(["motion", "--input", "x", "--out", "y",
                 "--canonical", "not-a-size"]) == 1


def test_missing_input_data_is_data_error(tmp_path):
    rc = main(["segment", "--input", str(tmp_path / "none" / "%05d.ppm"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_config_key_is_data_error(tmp_path, scene_dir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("levels = 2\nwibble = 3\n")
    rc = main(["segment", "--config", str(cfg),
               "--input", _frames_pattern(scene_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_malformed_config_line_is_data_error(tmp_path, scene_dir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    rc = main(["segment", "--config", str(cfg),
               "--input", _frames_pattern(scene_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_config_value_is_data_error(tmp_path, scene_dir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("levels = many\n")
    rc = main(["segment", "--config", str(cfg),
               "--input", _frames_pattern(scene_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_eval_dimension_mismatch_is_data_error(tmp_path, scene_dir):
    wrong = tmp_path / "wrong_gt"
    write_label_volume(np.zeros((4, 10, 10), dtype=np.int64), str(wrong))
    pred = tmp_path / "pred"
    write_label_volume(np.zeros((4, 24, 24), dtype=np.int64), str(pred))
    rc = main(["eval", "--pred", str(pred), "--gt", str(wrong),
               "--video", _frames_pattern(scene_dir),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2


# ---------------------------------------------------------------- config

def test_config_precedence_defaults_file_flags(tmp_path, scene_dir):
    cfg = tmp_path / "seg.cfg"
    # keys may use underscores; `# comments` are stripped
    cfg.write_text("levels = 2   # hierarchy depth\n"
                   "k0 = 0.5\nmin_size = 8\nbilateral = off\n")
    common = ["--input", _frames_pattern(scene_dir),
              "--external-flow", os.path.join(str(scene_dir), "flow"),
              "--subseq", "3"]

    out_file = tmp_path / "from_file"
    assert main(["segment", "--config", str(cfg), *common,
                 "--out", str(out_file)]) == 0
    levels = [n for n in os.listdir(out_file) if n.startswith("level_")
              and not n.endswith("_vis")]
    assert len(levels) == 2            # file overrides the default of 6

    out_flag = tmp_path / "from_flag"
    assert main(["segment", "--config", str(cfg), *common,
                 "--levels", "3", "--out", str(out_flag)]) == 0
    levels = [n for n in os.listdir(out_flag) if n.startswith("level_")
              and not n.endswith("_vis")]
    assert len(levels) == 3            # flag overrides the file


# ---------------------------------------------------------------- pipelines

def test_synth_segment_eval_round_trip(tmp_path, scene_dir):
    seg_out = tmp_path / "seg"
    rc = main(["segment", "--input", _frames_pattern(scene_dir),
               "--out", str(seg_out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--levels", "4", "--k0", "0.5", "--min-size", "8",
               "--bilateral", "off", "--subseq", "3"])
    assert rc == 0

    csv_out = tmp_path / "metrics.csv"
    rc = main(["eval", "--pred", str(seg_out),
               "--gt", os.path.join(str(scene_dir), "gt"),
               "--video", _frames_pattern(scene_dir),
               "--out", str(csv_out)])
    assert rc == 0
    reports = read_metrics_csv(str(csv_out))
    assert len(reports) == 4
    # clean scene, strong contrast: the fine levels nest inside ground truth
    assert reports[0][1].acc3d == 1.0
    assert reports[0][1].ue3d == 0.0
    assert reports[0][1].br3d == 1.0
    counts = [rep.num_supervoxels for _, rep in reports]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_segment_label_overflow_writes_nothing(tmp_path, scene_dir, monkeypatch):
    # level 1 overflows the 16-bit range: no level may be written, not even level 0
    fine = np.zeros((4, 24, 24), dtype=np.int64)
    coarse = fine.copy()
    coarse[-1] = 65536
    monkeypatch.setattr("svstream.cli.stream_segment",
                        lambda seq, flows, config: SegmentationHierarchy([fine, coarse]))
    out = tmp_path / "seg"
    rc = main(["segment", "--input", _frames_pattern(scene_dir), "--out", str(out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--bilateral", "off"])
    assert rc == 2
    assert not (out / "level_00").exists()


def test_motion_label_overflow_writes_nothing(tmp_path, scene_dir, monkeypatch):
    # pair 2's tracked labels overflow the 16-bit range: no pair may be
    # written, not even pair 1
    run_motion_stream = cli.run_motion_stream

    def overflowing(*args, **kwargs):
        results = run_motion_stream(*args, **kwargs)
        results[1].tracked_labels[-1, -1] = 65536
        return results

    monkeypatch.setattr("svstream.cli.run_motion_stream", overflowing)
    out = tmp_path / "motion"
    rc = main(["motion", "--input", _frames_pattern(scene_dir), "--out", str(out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--bilateral", "off", "--levels", "2", "--canonical", "32x32"])
    assert rc == 2
    assert not list(tmp_path.glob("motion/pair_*"))


@pytest.mark.parametrize("flags, message", [
    (["--canonical", "1x8"], "canonical size must be at least 2x2"),
    (["--tau0", "-1"], "tau schedule must be strictly increasing"),
    (["--mrf", "on", "--mrf-lambda", "-1"], "lambda must be >= 0"),
], ids=["canonical", "tau", "lambda"])
def test_bad_motion_parameters_rejected_before_any_work(tmp_path, scene_dir, monkeypatch,
                                                         capsys, flags, message):
    def segment(*args, **kwargs):
        pytest.fail("stream_segment ran before the motion parameters were checked")

    monkeypatch.setattr("svstream.cli.stream_segment", segment)
    out = tmp_path / "motion"
    rc = main(["motion", "--input", _frames_pattern(scene_dir), "--out", str(out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--bilateral", "off", *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_eval_accepts_single_volume_directory(tmp_path, scene_dir):
    csv_out = tmp_path / "m.csv"
    rc = main(["eval", "--pred", os.path.join(str(scene_dir), "gt"),
               "--gt", os.path.join(str(scene_dir), "gt"),
               "--video", _frames_pattern(scene_dir),
               "--out", str(csv_out)])
    assert rc == 0
    (_, rep), = read_metrics_csv(str(csv_out))
    assert rep.acc3d == 1.0 and rep.br3d == 1.0 and rep.ue3d == 0.0


def _tree_bytes(root) -> dict:
    data = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            with open(p, "rb") as fh:
                data[os.path.relpath(p, root)] = fh.read()
    return data


def test_thread_count_does_not_change_output(tmp_path, scene_dir):
    outs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"seg_t{threads}"
        # bilateral on and computed flow so the worker pool actually runs
        rc = main(["segment", "--input", _frames_pattern(scene_dir),
                   "--out", str(out), "--levels", "3", "--k0", "0.5",
                   "--min-size", "8", "--subseq", "3",
                   "--flow-iters", "20", "--flow-min-size", "12",
                   "--threads", threads])
        assert rc == 0
        outs[threads] = _tree_bytes(out)
    assert set(outs["1"]) == set(outs["4"])
    assert all(outs["1"][k] == outs["4"][k] for k in outs["1"])


def test_flow_subcommand_writes_fields(tmp_path, scene_dir):
    out = tmp_path / "flowfields"
    rc = main(["flow", "--input", _frames_pattern(scene_dir),
               "--out", str(out), "--flow-iters", "10", "--flow-min-size", "12"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == ["flow_0001.flo", "flow_0002.flo", "flow_0003.flo"]
    field = read_flo(os.path.join(str(out), names[0]))
    assert field.shape == (24, 24, 2)


def test_motion_subcommand_outputs(tmp_path, scene_dir):
    out = tmp_path / "motion"
    rc = main(["motion", "--input", _frames_pattern(scene_dir),
               "--out", str(out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--bilateral", "off", "--supervoxel-level", "2",
               "--levels", "3", "--k0", "0.5", "--min-size", "8",
               "--tau0", "2.0", "--canonical", "32x32", "--subseq", "3"])
    assert rc == 0
    pairs = sorted(os.listdir(out))
    assert pairs == ["pair_0001", "pair_0002", "pair_0003"]
    for pair in pairs:
        pdir = os.path.join(str(out), pair)
        files = set(os.listdir(pdir))
        assert {"tracked.pgm", "tracked.ppm", "models.txt"} <= files
        assert "level_00.pgm" in files and "level_03.pgm" in files
        tracked = read_label_volume(pdir)   # reads every .pgm in the dir
        assert tracked.shape[1:] == (24, 24)
        with open(os.path.join(pdir, "models.txt")) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        assert any(ln.startswith("tracked region ") for ln in lines)
        for ln in lines:
            params = [float(tok) for tok in ln.split()[-6:]]
            assert len(params) == 6
