"""CLI tests: exit codes, config precedence, and the subcommand round trips."""

import gc
import math
import os
import shutil
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from svstream import cli, streamseg
from svstream.cli import main
from svstream.mediaio import (colorize_labels, load_frame_sequence, read_flo, read_label_volume,
                              write_flo, write_frame_sequence, write_label_volume, write_ppm)
from svstream.metrics import evaluate, read_metrics_csv
from svstream.optflow import FlowParams
from svstream.rng import derive_seed

from oracles import oracle_compute_backward_flow


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


def _render_long_scene(root, frames: int):
    """A 32x24 clip of `frames` frames with one rotating object, rendered
    under root; returns the scene directory."""
    spec = root / f"long{frames}.txt"
    spec.write_text(
        "width = 32\n"
        "height = 24\n"
        f"frames = {frames}\n"
        "seed = 3\n"
        "noise_sigma = 6\n"
        "texture_amplitude = 30\n"
        "background_color = 70 80 100\n"
        "background_motion = 0.3 0 0 0.1 0 0\n"
        f"object = rect 8 6 10 8 color 200 70 50 motion {_rot_line(13.0, 10.0, 3.0, 0, 0)}\n")
    out = root / f"long{frames}"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def long_scene_dir(tmp_path_factory):
    """A 12-frame clip: four streaming windows at --subseq 3."""
    return _render_long_scene(tmp_path_factory.mktemp("long"), 12)


def _frames_pattern(scene_dir) -> str:
    return os.path.join(str(scene_dir), "frames", "%05d.ppm")


# ---------------------------------------------------------------- exit codes

def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("svstream ")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_prints_its_help(capsys, command):
    # argparse %-formats each help text, so a bare "%05d" made --help raise
    assert main([command, "--help"]) == 0
    assert "--out" in capsys.readouterr().out


def test_unknown_flag_is_usage_error():
    assert main(["segment", "--input", "x", "--out", "y", "--frobnicate"]) == 1


@pytest.mark.parametrize("command", ["eval", "synth"])
def test_threads_on_a_one_thread_command_is_usage_error(tmp_path, scene_dir, capsys, command):
    # eval and synth use no pool, so --threads would set nothing
    rc = main([*_command_argv(command, scene_dir), "--threads", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def test_eval_checks_every_volume_before_scoring_any(tmp_path, scene_dir, monkeypatch, capsys):
    # level_02 lacks its last frame: no level is scored, not even level_00
    seg = tmp_path / "seg"
    assert main([*_command_argv("segment", scene_dir), "--levels", "3", "--out", str(seg)]) == 0
    (seg / "level_02" / "00003.pgm").unlink()

    def score(*args, **kwargs):
        pytest.fail("a level was scored before every volume was checked")

    monkeypatch.setattr("svstream.cli.evaluate", score)
    out = tmp_path / "m.csv"
    assert main(["eval", "--pred", str(seg), "--gt", os.path.join(str(scene_dir), "gt"),
                 "--video", _frames_pattern(scene_dir), "--out", str(out)]) == 2
    assert (f"{seg / 'level_02'} holds 3 frames of 24x24, the video 4 frames of 24x24"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_gt_of_another_size_refused_before_any_payload(tmp_path, scene_dir, monkeypatch,
                                                             capsys):
    gt = tmp_path / "gt"
    write_label_volume(np.zeros((4, 10, 12), dtype=np.int64), str(gt))

    def read(*args, **kwargs):
        pytest.fail("a payload was read before every volume's size was checked")

    monkeypatch.setattr("svstream.mediaio._read_netpbm", read)
    out = tmp_path / "m.csv"
    assert main(["eval", "--pred", os.path.join(str(scene_dir), "gt"), "--gt", str(gt),
                 "--video", _frames_pattern(scene_dir), "--out", str(out)]) == 2
    assert f"{gt} holds 4 frames of 12x10, the video 4 frames of 24x24" in capsys.readouterr().err
    assert not out.exists()


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
    monkeypatch.setattr("svstream.cli.stream_blocks",
                        lambda blocks, config: iter([(0, [fine, coarse])]))
    out = tmp_path / "seg"
    rc = main(["segment", "--input", _frames_pattern(scene_dir), "--out", str(out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--bilateral", "off"])
    assert rc == 2
    assert not (out / "level_00").exists()


def test_segment_label_overflow_exits_at_the_window_that_crosses(tmp_path, monkeypatch,
                                                                  capsys):
    # 128x128 noise grouped voxel by voxel gives 16384 labels a frame: frames
    # 0-3 use labels 0..65535, so the fifth of eight windows is the first
    # whose labels pass the 16-bit range
    frames = np.random.default_rng(0).integers(0, 256, (8, 128, 128, 3), dtype=np.uint8)
    write_frame_sequence(frames, str(tmp_path / "noise"))
    window_pass = streamseg._window_pass
    windows = []

    def counted(*args, **kwargs):
        windows.append(len(windows))
        return window_pass(*args, **kwargs)

    monkeypatch.setattr(streamseg, "_window_pass", counted)
    out = tmp_path / "seg"
    rc = main(["segment", "--input", str(tmp_path / "noise" / "%05d.ppm"), "--out", str(out),
               "--subseq", "1", "--levels", "1", "--k0", "1e-9", "--min-size", "1",
               "--bilateral", "off", "--flow-edges", "off", "--flow-feature", "off"])
    assert rc == 2
    assert "label 81919 exceeds the 16-bit PGM range" in capsys.readouterr().err
    assert len(windows) == 5
    assert sorted(os.listdir(tmp_path)) == ["noise"]


@pytest.mark.parametrize("command", ["segment", "motion", "flow"])
def test_frame_of_another_size_refused_before_any_read(tmp_path, scene_dir, monkeypatch,
                                                       capsys, command):
    # only headers are read before the check: a frame's payload is not
    frames = tmp_path / "frames"
    shutil.copytree(scene_dir / "frames", frames)
    write_ppm(str(frames / "00003.ppm"), np.zeros((24, 23, 3), np.uint8))

    def read(*args, **kwargs):
        pytest.fail("a frame was read before every frame's size was checked")

    monkeypatch.setattr("svstream.cli.read_frames", read)
    out = tmp_path / "out"
    argv = _command_argv(command, scene_dir)
    argv[argv.index("--input") + 1] = str(frames / "%05d.ppm")
    assert main([*argv, "--out", str(out)]) == 2
    assert (f"{frames / '00003.ppm'} is 23x24 but {frames / '00000.ppm'} is 24x24"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("damage, message", [
    ("missing", "missing external flow for pair (2, 3)"),
    ("resized", "is 3x2, frames are 24x24"),
])
def test_bad_external_flow_refused_before_any_read(tmp_path, scene_dir, monkeypatch, capsys,
                                                   damage, message):
    flow = tmp_path / "flow"
    shutil.copytree(scene_dir / "flow", flow)
    if damage == "missing":
        (flow / "flow_0003.flo").unlink()
    else:
        write_flo(str(flow / "flow_0003.flo"), np.zeros((2, 3, 2)))

    def read(*args, **kwargs):
        pytest.fail("a frame was read before the external flow was checked")

    monkeypatch.setattr("svstream.cli.read_frames", read)
    out = tmp_path / "out"
    argv = _command_argv("segment", scene_dir)
    argv[argv.index("--external-flow") + 1] = str(flow)
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _peaks_on_long_scenes(tmp_path, command, flags) -> list:
    """tracemalloc peaks of `command` on the 12- and 48-frame long scenes,
    with external flow and the filter off."""
    peaks = []
    for frames in (12, 48):
        scene = _render_long_scene(tmp_path, frames)
        argv = [command, "--input", str(scene / "frames" / "%05d.ppm"),
                "--external-flow", str(scene / "flow"), "--bilateral", "off",
                "--subseq", "3", *flags, "--out", str(tmp_path / f"{command}{frames}")]
        # garbage and free-list blocks left by earlier work do not count
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_segment_memory_does_not_grow_with_video_length(tmp_path):
    # between windows segment keeps one subsequence's frames, flows and
    # labels, so a clip four times as long peaks within 5% of the short one
    peaks = _peaks_on_long_scenes(tmp_path, "segment", ["--levels", "6"])
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_motion_memory_does_not_grow_with_video_length(tmp_path):
    # motion keeps one subsequence and, between pairs, one frame and the
    # previous pair's tracked labels and models.  Its peak is that of its
    # costliest single pair, and the longer clip has more pairs to draw it
    # from, so the bound leaves room above the 1.16x measured here; a motion
    # stage that holds the whole video peaks 1.83x higher on the longer clip
    peaks = _peaks_on_long_scenes(tmp_path, "motion", [
        "--supervoxel-level", "2", "--levels", "3", "--mrf", "on", "--canonical", "32x32"])
    assert peaks[1] <= 1.3 * peaks[0], peaks


def test_flow_memory_does_not_grow_with_video_length(tmp_path):
    # flow reads one frame per thread at a time and writes each field once
    # it is computed, so a clip four times as long peaks within 5% of the
    # short one; the fields are those of every pair computed on its own
    peaks = []
    for frames in (12, 48):
        scene = _render_long_scene(tmp_path, frames)
        out = tmp_path / f"flow{frames}"
        argv = ["flow", "--input", str(scene / "frames" / "%05d.ppm"), "--flow-iters", "5",
                "--flow-min-size", "12", "--out", str(out)]
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        video = load_frame_sequence(str(scene / "frames" / "%05d.ppm"))
        params = FlowParams(iters_per_level=5, min_size=12)
        assert sorted(os.listdir(out)) == [f"flow_{t:04d}.flo" for t in range(1, frames)]
        for t in range(1, frames):
            want = tmp_path / "want.flo"
            write_flo(str(want), oracle_compute_backward_flow(video[t], video[t - 1], params))
            assert (out / f"flow_{t:04d}.flo").read_bytes() == want.read_bytes(), t
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_eval_memory_does_not_grow_with_video_length(tmp_path):
    # eval reads frame t of the GT, the video and every level together and
    # keeps per-level totals, so a clip four times as long peaks within 10%
    # of the short one; an eval that holds the video whole peaks 3.6x higher.
    # The peak is about 0.2 MB here, and what is left of the interpreter's
    # and numpy's small-block caches by reading four times the frame files
    # adds 4-7% on its own, so the 5% of the other commands' tests would
    # judge those caches
    peaks = []
    for frames in (12, 48):
        scene = _render_long_scene(tmp_path, frames)
        seg, out = tmp_path / f"seg{frames}", tmp_path / f"eval{frames}.csv"
        assert main(["segment", "--input", str(scene / "frames" / "%05d.ppm"),
                     "--external-flow", str(scene / "flow"), "--bilateral", "off",
                     "--subseq", "3", "--levels", "6", "--out", str(seg)]) == 0
        argv = ["eval", "--pred", str(seg), "--gt", str(scene / "gt"),
                "--video", str(scene / "frames" / "%05d.ppm"), "--out", str(out)]
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        levels = [read_label_volume(str(seg / f"level_{i:02d}")) for i in range(6)]
        want = evaluate(levels, read_label_volume(str(scene / "gt")),
                        load_frame_sequence(str(scene / "frames" / "%05d.ppm")))
        assert [rep for _, rep in read_metrics_csv(str(out))] == want
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_flow_output_does_not_depend_on_thread_count(tmp_path, long_scene_dir):
    outs = {}
    for threads in ("1", "2", "5"):
        out = tmp_path / f"flow_t{threads}"
        assert main(["flow", "--input", _frames_pattern(long_scene_dir), "--flow-iters", "5",
                     "--flow-min-size", "12", "--threads", threads, "--out", str(out)]) == 0
        outs[threads] = _tree_bytes(out)
    assert len(outs["1"]) == 11
    assert outs["1"] == outs["2"] == outs["5"]


def test_flow_reads_at_most_one_frame_per_cpu_at_a_time(tmp_path, monkeypatch):
    # a --threads far past the CPU count neither widens the runs of frames
    # read nor changes a field; the pool starts a thread only for a pair it
    # is given, so no more start than the clip has pairs
    scene = _render_long_scene(tmp_path, 6)
    argv = ["flow", "--input", _frames_pattern(scene), "--flow-iters", "5",
            "--flow-min-size", "12"]
    assert main([*argv, "--threads", "1", "--out", str(tmp_path / "t1")]) == 0
    read_frames, blocks = cli.read_frames, []

    def recording(paths):
        blocks.append(len(paths))
        return read_frames(paths)

    monkeypatch.setattr("svstream.cli.read_frames", recording)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert main([*argv, "--threads", "1000000", "--out", str(tmp_path / "wide")]) == 0
    assert blocks == [2, 2, 2]
    assert _tree_bytes(tmp_path / "wide") == _tree_bytes(tmp_path / "t1")


def _one_pixel_clip(root, h: int, w: int):
    """A 4-frame h x w clip under root, with zero external flow fields."""
    frames = np.random.default_rng(h * 10 + w).integers(0, 256, (4, h, w, 3), dtype=np.uint8)
    write_frame_sequence(frames, str(root / "frames"))
    (root / "flow").mkdir()
    for t in range(1, 4):
        write_flo(str(root / "flow" / f"flow_{t:04d}.flo"), np.zeros((h, w, 2)))
    return str(root / "frames" / "%05d.ppm")


@pytest.mark.parametrize("h, w", [(1, 8), (8, 1)])
@pytest.mark.parametrize("command", ["flow", "segment", "motion"])
def test_computed_flow_on_one_pixel_wide_frames_refused_before_any_read(
        tmp_path, monkeypatch, capsys, command, h, w):
    pattern = _one_pixel_clip(tmp_path, h, w)

    def read(*args, **kwargs):
        pytest.fail("a frame was read before the frame size was checked")

    monkeypatch.setattr("svstream.cli.read_frames", read)
    out = tmp_path / "out"
    extra = {"flow": [], "segment": ["--levels", "2"],
             "motion": ["--levels", "2", "--supervoxel-level", "1"]}[command]
    assert main([command, "--input", pattern, "--out", str(out), *extra]) == 2
    assert f"at least 2x2 pixels, got {w}x{h}" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == ["flow", "frames"]


@pytest.mark.parametrize("h, w", [(1, 8), (8, 1)])
def test_one_pixel_wide_frames_without_computed_flow(tmp_path, h, w):
    pattern = _one_pixel_clip(tmp_path, h, w)
    flow = str(tmp_path / "flow")
    runs = {
        "seg_external": ["segment", "--external-flow", flow, "--levels", "2"],
        "seg_nocues": ["segment", "--flow-edges", "off", "--flow-feature", "off",
                       "--levels", "2"],
        "motion_external": ["motion", "--external-flow", flow, "--levels", "2",
                            "--supervoxel-level", "1"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--input", pattern, "--out", str(tmp_path / name)]) == 0, name
    assert read_label_volume(str(tmp_path / "seg_nocues" / "level_01")).shape == (4, h, w)


def test_segment_vis_equals_colorize_of_whole_volume(tmp_path, long_scene_dir):
    out = tmp_path / "seg"
    assert main(["segment", "--input", _frames_pattern(long_scene_dir),
                 "--external-flow", str(long_scene_dir / "flow"), "--bilateral", "off",
                 "--subseq", "3", "--levels", "3", "--k0", "0.02", "--min-size", "8",
                 "--seed", "5", "--out", str(out)]) == 0
    for level in range(3):
        volume = read_label_volume(str(out / f"level_{level:02d}"))
        assert volume.shape == (12, 24, 32)
        # later windows bring labels the first one had not seen
        assert volume.max() > volume[:3].max()
        vis = load_frame_sequence(str(out / f"level_{level:02d}_vis" / "%05d.ppm"))
        assert np.array_equal(vis, colorize_labels(volume, derive_seed(5, 7, level)))


def test_thread_count_does_not_change_multi_window_output(tmp_path, long_scene_dir):
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"seg_t{threads}"
        # bilateral on and computed flow so the worker pool runs in every window
        assert main(["segment", "--input", _frames_pattern(long_scene_dir),
                     "--out", str(out), "--levels", "3", "--k0", "0.5",
                     "--min-size", "8", "--subseq", "3",
                     "--flow-iters", "20", "--flow-min-size", "12",
                     "--threads", threads]) == 0
        outs[threads] = _tree_bytes(out)
    assert len(outs["1"]) == 2 * 3 * 12
    assert outs["1"] == outs["2"]


def test_motion_label_overflow_writes_nothing(tmp_path, scene_dir, monkeypatch):
    # pair 2's tracked labels overflow the 16-bit range: no pair may reach
    # --out, not even pair 1, which went to the stage before pair 2 was done
    run_motion_stream = cli.run_motion_stream

    def overflowing(*args, **kwargs):
        for res in run_motion_stream(*args, **kwargs):
            if res.pair == 2:
                res.tracked_labels[-1, -1] = 65536
            yield res

    monkeypatch.setattr("svstream.cli.run_motion_stream", overflowing)
    out = tmp_path / "motion"
    rc = main(["motion", "--input", _frames_pattern(scene_dir), "--out", str(out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--bilateral", "off", "--levels", "2", "--canonical", "32x32"])
    assert rc == 2
    assert not list(tmp_path.glob("motion/pair_*"))


def _scene_spec(scene_dir) -> str:
    return os.path.join(os.path.dirname(str(scene_dir)), "scene.txt")


def _command_argv(command, scene_dir) -> list:
    """A small, successful invocation of each subcommand, without --out."""
    flow = os.path.join(str(scene_dir), "flow")
    gt = os.path.join(str(scene_dir), "gt")
    return {
        "segment": ["segment", "--input", _frames_pattern(scene_dir), "--external-flow", flow,
                    "--bilateral", "off", "--levels", "2", "--k0", "0.5", "--min-size", "8"],
        "motion": ["motion", "--input", _frames_pattern(scene_dir), "--external-flow", flow,
                   "--bilateral", "off", "--supervoxel-level", "1", "--levels", "2",
                   "--k0", "0.5", "--min-size", "8", "--canonical", "32x32"],
        "flow": ["flow", "--input", _frames_pattern(scene_dir),
                 "--flow-iters", "10", "--flow-min-size", "12"],
        "eval": ["eval", "--pred", gt, "--gt", gt, "--video", _frames_pattern(scene_dir)],
        "synth": ["synth", "--spec", _scene_spec(scene_dir)],
    }[command]


@pytest.mark.parametrize("command, writer", [
    ("segment", "write_label_volume"),
    ("motion", "write_pgm16"),
    ("flow", "write_flo"),
    ("eval", "write_metrics_csv"),
    ("synth", "write_flo"),
])
def test_failure_after_first_write_leaves_nothing(tmp_path, scene_dir, monkeypatch, capsys,
                                                  command, writer):
    # the first write completes and then fails, as a full disk would
    real = getattr(cli, writer)

    def write_then_fail(*args, **kwargs):
        real(*args, **kwargs)
        raise OSError("injected write failure")

    monkeypatch.setattr(f"svstream.cli.{writer}", write_then_fail)
    out = tmp_path / "results" / "out"
    out.parent.mkdir()
    rc = main([*_command_argv(command, scene_dir), "--out", str(out)])
    assert rc == 2
    assert "injected write failure" in capsys.readouterr().err
    assert not out.exists()
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("command", ["segment", "motion"])
def test_allocation_failure_exits_2_and_leaves_nothing(tmp_path, scene_dir, monkeypatch, capsys,
                                                       command):
    # numpy's _ArrayMemoryError is a MemoryError; one raised once the work
    # has started is a data error like any other
    def segment(*args, **kwargs):
        raise MemoryError("Unable to allocate 53.6 GiB for an array")

    monkeypatch.setattr("svstream.cli.stream_blocks", segment)
    out = tmp_path / "results" / "out"
    out.parent.mkdir()
    assert main([*_command_argv(command, scene_dir), "--out", str(out)]) == 2
    assert "Unable to allocate 53.6 GiB for an array" in capsys.readouterr().err
    assert os.listdir(out.parent) == []


def test_motion_refuses_one_frame_before_segmenting(tmp_path, scene_dir, monkeypatch, capsys):
    def segment(*args, **kwargs):
        pytest.fail("stream_blocks ran on a one-frame input")

    monkeypatch.setattr("svstream.cli.stream_blocks", segment)
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "00000.ppm").write_bytes((scene_dir / "frames" / "00000.ppm").read_bytes())
    out = tmp_path / "motion"
    rc = main(["motion", "--input", str(frames / "%05d.ppm"), "--out", str(out)])
    assert rc == 2
    assert "need at least two frames" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "motion"])
def test_window_of_2_31_voxels_refused_before_filter_or_flow(tmp_path, monkeypatch, capsys,
                                                              command):
    # two frames whose headers say 32768x32768: 2**31 voxels
    monkeypatch.setattr("svstream.cli.frame_paths", lambda pattern: ["f00000.ppm", "f00001.ppm"])
    monkeypatch.setattr("svstream.cli.check_frame_shapes", lambda paths: (32768, 32768, 3))

    def work(*args, **kwargs):
        pytest.fail("the filter or flow ran on a window past 2**31 voxels")

    for name in ("read_frames", "filter_sequence", "flow_for_sequence", "stream_blocks"):
        monkeypatch.setattr(f"svstream.cli.{name}", work)
    out = tmp_path / "out"
    assert main([command, "--input", "f%05d.ppm", "--out", str(out)]) == 2
    assert "2**31 voxels" in capsys.readouterr().err
    assert not out.exists()


def test_filled_out_is_refused_before_any_read(tmp_path, scene_dir, monkeypatch, capsys):
    # a second run with fewer levels must not leave the first run's extra levels
    out = tmp_path / "seg"
    argv = _command_argv("segment", scene_dir)
    assert main([*argv, "--levels", "3", "--out", str(out)]) == 0
    before = _tree_bytes(out)

    def read(*args, **kwargs):
        pytest.fail("input was read before --out was checked")

    monkeypatch.setattr("svstream.cli.read_frames", read)
    monkeypatch.setattr("svstream.cli.frame_paths", read)
    capsys.readouterr()
    assert main([*argv, "--levels", "2", "--out", str(out)]) == 2
    assert "not empty" in capsys.readouterr().err
    assert _tree_bytes(out) == before
    assert os.listdir(tmp_path) == ["seg"]


@pytest.mark.parametrize("command, kind, message", [
    ("segment", "file", "is not a directory"),
    ("motion", "file", "is not a directory"),
    ("flow", "file", "is not a directory"),
    ("synth", "file", "is not a directory"),
    ("eval", "empty-dir", "is a directory"),
    ("eval", "filled-dir", "is a directory"),
    ("segment", "under-a-file", "lies under"),
    ("eval", "trailing-separator", "does not name a file"),
], ids=["segment-file", "motion-file", "flow-file", "synth-file", "eval-empty-dir",
        "eval-filled-dir", "segment-under-a-file", "eval-trailing-separator"])
def test_out_of_the_wrong_kind_is_refused_before_any_read(tmp_path, scene_dir, monkeypatch,
                                                          capsys, command, kind, message):
    def read(*args, **kwargs):
        pytest.fail("input was read before --out was checked")

    for name in ("read_frames", "read_ppm", "frame_paths", "label_paths", "read_pgm16",
                 "parse_scene_spec"):
        monkeypatch.setattr(f"svstream.cli.{name}", read)
    out = tmp_path / "out"
    if kind.endswith("-dir"):
        out.mkdir()
        if kind == "filled-dir":
            (out / "old.csv").write_text("kept\n")
    else:
        out.write_text("kept\n")
    target = {"under-a-file": out / "seg",
              "trailing-separator": f"{out}{os.sep}"}.get(kind, out)
    before = _tree_bytes(tmp_path)
    rc = main([*_command_argv(command, scene_dir), "--out", str(target)])
    assert rc == 2
    assert f"--out {target} {message}" in capsys.readouterr().err
    assert _tree_bytes(tmp_path) == before
    assert os.listdir(tmp_path) == ["out"]


def test_refused_run_leaves_no_out_parents(tmp_path, capsys):
    out = tmp_path / "a" / "b" / "c"
    rc = main(["segment", "--input", str(tmp_path / "x%05d.ppm"), "--k0", "0",
               "--out", str(out)])
    assert rc == 2
    assert "k0 and flow_range must be > 0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_out_parents_are_made_on_success(tmp_path, scene_dir):
    out = tmp_path / "a" / "b" / "scene"
    assert main([*_command_argv("synth", scene_dir), "--out", str(out)]) == 0
    assert _tree_bytes(out) == _tree_bytes(scene_dir)
    assert os.listdir(tmp_path / "a" / "b") == ["scene"]


def test_out_may_be_an_empty_directory(tmp_path, scene_dir):
    out = tmp_path / "flowfields"
    out.mkdir()
    assert main([*_command_argv("flow", scene_dir), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["flow_0001.flo", "flow_0002.flo", "flow_0003.flo"]
    assert os.listdir(tmp_path) == ["flowfields"]


def test_eval_replaces_an_existing_csv(tmp_path, scene_dir):
    csv_out = tmp_path / "m.csv"
    csv_out.write_text("stale\n")
    assert main([*_command_argv("eval", scene_dir), "--out", str(csv_out)]) == 0
    (_, rep), = read_metrics_csv(str(csv_out))
    assert rep.acc3d == 1.0
    assert os.listdir(tmp_path) == ["m.csv"]


def test_synth_out_with_trailing_slash(tmp_path, scene_dir):
    out = str(tmp_path / "scene") + os.sep
    assert main(["synth", "--spec", _scene_spec(scene_dir), "--out", out]) == 0
    assert os.listdir(tmp_path) == ["scene"]
    assert _tree_bytes(out) == _tree_bytes(scene_dir)


def test_synth_refuses_a_non_finite_spec_value(tmp_path, capsys):
    spec = tmp_path / "scene.txt"
    spec.write_text("width = 24\nheight = 24\nframes = 2\nnoise_sigma = nan\n"
                    "object = rect 6 6 9 8 color 200 70 50\n")
    out = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    assert "noise_sigma must be finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scene.txt"]


def test_synth_refuses_a_color_out_of_range_without_objects(tmp_path, capsys):
    spec = tmp_path / "scene.txt"
    spec.write_text("width = 24\nheight = 24\nframes = 2\nbackground_color = 300 0 0\n")
    out = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    assert "background: a color needs 3 components in 0..255" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scene.txt"]


@pytest.mark.parametrize("flags, message", [
    (["--canonical", "1x8"], "canonical size must be at least 2x2"),
    (["--tau0", "-1"], "tau schedule must be strictly increasing"),
    (["--mrf", "on", "--mrf-lambda", "-1"], "lambda must be >= 0"),
    (["--tau0", "nan"], "tau schedule must be strictly increasing"),
    (["--tau-growth", "nan"], "tau schedule must be strictly increasing"),
    (["--mrf", "on", "--mrf-lambda", "nan"], "lambda must be >= 0"),
    (["--mrf", "on", "--mrf-lambda", "inf"], "lambda must be >= 0"),
], ids=["canonical", "tau", "lambda", "tau-nan", "tau-growth-nan", "lambda-nan",
        "lambda-inf"])
def test_bad_motion_parameters_rejected_before_any_work(tmp_path, scene_dir, monkeypatch,
                                                         capsys, flags, message):
    def segment(*args, **kwargs):
        pytest.fail("stream_blocks ran before the motion parameters were checked")

    monkeypatch.setattr("svstream.cli.stream_blocks", segment)
    out = tmp_path / "motion"
    rc = main(["motion", "--input", _frames_pattern(scene_dir), "--out", str(out),
               "--external-flow", os.path.join(str(scene_dir), "flow"),
               "--bilateral", "off", *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("segment", ["--k0", "0"], "k0 and flow_range must be > 0"),
    ("segment", ["--levels", "0"], "subseq_len, levels, min_size must be >= 1"),
    ("segment", ["--k-growth", "1"], "k_growth must be > 1"),
    ("segment", ["--min-size", "0"], "subseq_len, levels, min_size must be >= 1"),
    ("segment", ["--subseq", "0"], "subseq_len, levels, min_size must be >= 1"),
    ("segment", ["--alpha", "0"], "alpha must be > 0"),
    ("segment", ["--radius", "0"], "bilateral radius must be >= 1"),
    ("segment", ["--threads", "-3"], "threads must be >= 1"),
    ("motion", ["--k0", "0"], "k0 and flow_range must be > 0"),
    ("motion", ["--subseq", "0"], "subseq_len, levels, min_size must be >= 1"),
    ("motion", ["--alpha", "0"], "alpha must be > 0"),
    ("motion", ["--supervoxel-level", "-1"], "supervoxel-level must be >= 0"),
    ("flow", ["--alpha", "0"], "alpha must be > 0"),
    ("eval", ["--tol", "-1"], "tolerance must be >= 0"),
    ("segment", ["--k0", "nan"], "k0 and flow_range must be > 0"),
    ("segment", ["--k-growth", "nan"], "k_growth must be > 1"),
    ("segment", ["--flow-range", "nan"], "k0 and flow_range must be > 0"),
    ("segment", ["--alpha", "nan"], "alpha must be > 0"),
    ("segment", ["--sigma-s", "nan"], "bilateral sigmas must be strictly positive"),
    ("motion", ["--levels", "1", "--tau0", "nan"], "tau must not be NaN"),
    ("segment", ["--flow-range", "inf"], "k0 and flow_range must be > 0"),
    ("segment", ["--flow-range", "1e308"], "k0 and flow_range must be > 0"),
    ("segment", ["--k-growth", "1e308", "--levels", "3"],
     "k0 * k_growth ** (levels - 1) must be finite"),
    ("motion", ["--tau-growth", "1e308", "--levels", "3"],
     "tau0 * tau-growth ** (levels - 1) must be finite"),
    ("motion", ["--levels", "-3"], "levels must be >= 0"),
    ("segment", ["--color-bins", "257"], "color_bins must be <= 256"),
    ("motion", ["--color-bins", "257"], "color_bins must be <= 256"),
    ("segment", ["--flow-bins", str(2 ** 62)], "flow_bins must be <= 2**32"),
    ("motion", ["--flow-bins", str(2 ** 63)], "flow_bins must be <= 2**32"),
    ("flow", ["--alpha", "1e308"], "alpha**2 positive and finite"),
    ("segment", ["--alpha", "1e-300"], "alpha**2 positive and finite"),
    ("motion", ["--alpha", "inf"], "alpha**2 positive and finite"),
], ids=["segment-k0", "segment-levels", "segment-k-growth", "segment-min-size",
        "segment-subseq", "segment-alpha", "segment-radius", "segment-threads",
        "motion-k0", "motion-subseq", "motion-alpha", "motion-supervoxel-level",
        "flow-alpha", "eval-tol", "segment-k0-nan", "segment-k-growth-nan",
        "segment-flow-range-nan", "segment-alpha-nan", "segment-sigma-s-nan",
        "motion-single-tau-nan", "segment-flow-range-inf", "segment-flow-range-1e308",
        "segment-k-growth-overflow", "motion-tau-growth-overflow", "motion-levels-negative",
        "segment-color-bins-257", "motion-color-bins-257", "segment-flow-bins-2-62",
        "motion-flow-bins-2-63", "flow-alpha-square-overflows", "segment-alpha-square-vanishes",
        "motion-alpha-inf"])
def test_bad_options_rejected_before_any_read(tmp_path, scene_dir, monkeypatch, capsys,
                                              command, flags, message):
    def read(*args, **kwargs):
        pytest.fail("input was read before the options were checked")

    for name in ("read_frames", "read_ppm", "frame_paths", "label_paths", "read_pgm16"):
        monkeypatch.setattr(f"svstream.cli.{name}", read)
    out = tmp_path / "out"
    if command == "eval":
        gt = os.path.join(str(scene_dir), "gt")
        argv = ["eval", "--pred", gt, "--gt", gt, "--video", _frames_pattern(scene_dir)]
    else:
        argv = [command, "--input", _frames_pattern(scene_dir)]
    rc = main([*argv, "--out", str(out), *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    """A 4-frame 16x16 scene: frames/, gt/, flow/ and its scene text."""
    root = tmp_path_factory.mktemp("tiny")
    spec = root / "scene.txt"
    spec.write_text("width = 16\nheight = 16\nframes = 4\nseed = 9\ntexture_amplitude = 40\n"
                    "background_color = 70 80 100\nbackground_motion = 0.4 0 0 0.2 0 0\n"
                    "object = rect 4 4 6 6 color 200 70 50 motion 0.3 0 0 0.2 0 0\n")
    assert main(["synth", "--spec", str(spec), "--out", str(root / "scene")]) == 0
    return root


def _extreme_values(key) -> list:
    """0, -1 and 2**63 for every option, nan, inf and 1e308 where the
    converter takes a float, and the extreme sizes a size converter takes."""
    conv = cli._OPTIONS[key][0]
    values = ["0", "-1", str(2 ** 63)]
    if conv is float:
        values += ["nan", "inf", "1e308"]
    if conv is cli._canonical:
        values += ["0x0", f"{2 ** 63}x{2 ** 63}"]
    return values


@pytest.mark.parametrize("command, key", [(command, key) for command, (*_, keys)
                                          in cli._COMMANDS.items() for key in keys])
def test_extreme_option_values_end_in_an_exit_code(tmp_path, tiny_scene, monkeypatch, command,
                                                   key):
    # one option at a time, the others at their defaults, on a clip of four
    # frames: a pool starts a thread only for a task it is given, so no
    # --threads starts more than the clip's frames
    monkeypatch.chdir(tmp_path)
    if key in ("flow-iters", "flow-warps"):
        # legal but slow: 2**63 iterations would simply run
        monkeypatch.setattr("svstream.optflow.compute_backward_flow",
                            lambda cur, prev, params: np.zeros(cur.shape[:2] + (2,), np.float32))
    scene = tiny_scene / "scene"
    frames = str(scene / "frames" / "%05d.ppm")
    required = {"input": frames, "out": None, "spec": str(tiny_scene / "scene.txt"),
                "pred": str(scene / "gt"), "gt": str(scene / "gt"), "video": frames}
    for i, value in enumerate(_extreme_values(key)):
        options = {k: v for k, v in required.items() if k in cli._COMMANDS[command][3]}
        options["out"] = f"out{i}"
        options[key] = value
        argv = [command, *(arg for k, v in options.items() for arg in (f"--{k}", v))]
        assert main(argv) in (0, 1, 2), argv


def test_motion_schedule_that_does_not_increase_is_refused_before_it_is_built(tmp_path, capsys):
    # a million levels of a constant tau: the list would hold a million floats
    gc.collect()
    tracemalloc.start()
    try:
        rc = main(["motion", "--input", str(tmp_path / "x%05d.ppm"), "--levels", "1000000",
                   "--tau-growth", "1", "--out", str(tmp_path / "motion")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "tau schedule must be strictly increasing" in capsys.readouterr().err
    assert peak < 2 ** 20, peak
    assert os.listdir(tmp_path) == []


def test_eval_accepts_single_volume_directory(tmp_path, scene_dir):
    csv_out = tmp_path / "m.csv"
    rc = main(["eval", "--pred", os.path.join(str(scene_dir), "gt"),
               "--gt", os.path.join(str(scene_dir), "gt"),
               "--video", _frames_pattern(scene_dir),
               "--out", str(csv_out)])
    assert rc == 0
    (_, rep), = read_metrics_csv(str(csv_out))
    assert rep.acc3d == 1.0 and rep.br3d == 1.0 and rep.ue3d == 0.0


def test_eval_scores_level_dirs_in_numeric_order(tmp_path, scene_dir):
    # as strings both level_10 and level_100 sort before level_2
    ys, xs = np.mgrid[0:24, 0:24]
    blocks = np.broadcast_to((ys // 3) * 8 + xs // 3, (4, 24, 24))
    pred = tmp_path / "pred"
    for name, volume in (("level_10", blocks), ("level_2", np.zeros((4, 24, 24), int)),
                         ("level_100", blocks % 2)):
        write_label_volume(volume, str(pred / name))
    csv_out = tmp_path / "m.csv"
    rc = main(["eval", "--pred", str(pred), "--gt", os.path.join(str(scene_dir), "gt"),
               "--video", _frames_pattern(scene_dir), "--out", str(csv_out)])
    assert rc == 0
    reports = read_metrics_csv(str(csv_out))
    assert [level for level, _ in reports] == [0, 1, 2]
    assert [rep.num_supervoxels for _, rep in reports] == [1, 64, 2]


@pytest.mark.parametrize("command, rc", [("segment", 0), ("motion", 2)])
def test_flow_is_computed_only_for_a_command_that_uses_it(tmp_path, scene_dir, monkeypatch,
                                                        capsys, command, rc):
    # with both flow cues off segment never looks at flow; motion fits its
    # affine models to the flow whatever the supervoxel cues are
    def no_flow(*args, **kwargs):
        raise ValueError("flow was computed")

    monkeypatch.setattr("svstream.cli.flow_for_sequence", no_flow)
    out = tmp_path / command
    argv = [command, "--input", _frames_pattern(scene_dir), "--out", str(out),
            "--flow-edges", "off", "--flow-feature", "off", "--levels", "2",
            "--k0", "0.5", "--min-size", "8"]
    if command == "motion":
        argv += ["--supervoxel-level", "1"]
    assert main(argv) == rc
    assert ("flow was computed" in capsys.readouterr().err) == (rc != 0)
    assert out.exists() == (rc == 0)


@pytest.mark.parametrize("command", ["segment", "motion"])
def test_stored_flow_is_read_not_computed(tmp_path, scene_dir, monkeypatch, command):
    argv = _command_argv(command, scene_dir)
    assert main([*argv, "--out", str(tmp_path / "want")]) == 0

    def no_flow(*args, **kwargs):
        raise ValueError("flow was computed")

    monkeypatch.setattr("svstream.cli.flow_for_sequence", no_flow)
    assert main([*argv, "--out", str(tmp_path / "got")]) == 0
    assert _tree_bytes(tmp_path / "got") == _tree_bytes(tmp_path / "want")


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


def test_thread_count_does_not_change_motion_output(tmp_path, scene_dir):
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"motion_t{threads}"
        # bilateral on and computed flow so the worker pool actually runs
        rc = main(["motion", "--input", _frames_pattern(scene_dir),
                   "--out", str(out), "--supervoxel-level", "2", "--levels", "2",
                   "--k0", "0.5", "--min-size", "8", "--subseq", "3",
                   "--tau0", "2.0", "--canonical", "32x32", "--mrf", "on",
                   "--flow-iters", "20", "--flow-min-size", "12",
                   "--threads", threads])
        assert rc == 0
        outs[threads] = _tree_bytes(out)
    assert sorted(outs["1"]) == sorted(outs["2"])
    assert all(outs["1"][k] == outs["2"][k] for k in outs["1"])


@pytest.mark.parametrize("threads", [1, 2])
def test_per_frame_work_runs_through_the_map_main_picks(tmp_path, scene_dir, monkeypatch,
                                                         threads):
    # one thread maps in the calling thread, more map on one pool
    runs = []
    for name in ("filter_sequence", "flow_for_sequence"):
        monkeypatch.setattr(cli, name, lambda *args, real=getattr(cli, name):
                            runs.append(args[2]) or real(*args))
    assert main(["segment", "--input", _frames_pattern(scene_dir), "--out", str(tmp_path / "seg"),
                 "--levels", "2", "--flow-iters", "5", "--flow-min-size", "12",
                 "--threads", str(threads)]) == 0
    # two subsequences, each filtered and then given its flows
    assert len(runs) == 4
    if threads == 1:
        assert all(run is map for run in runs)
    else:
        assert len({id(run.__self__) for run in runs}) == 1
        assert isinstance(runs[0].__self__, ThreadPoolExecutor)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # parsing keeps no state in the parser, so every call after the first
    # reuses it
    assert main(["--version"]) == 0
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    assert main(["--version"]) == 0
    assert main(["segment", "--levels", "x"]) == 1
    assert built == []
    assert "invalid int value: 'x'" in capsys.readouterr().err


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
