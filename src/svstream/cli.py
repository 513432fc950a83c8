"""Command-line interface.

One executable with `segment`, `motion`, `flow`, `eval`, and `synth`
subcommands.  Options resolve as defaults < config file < command-line flags;
the config file is flat `key = value` lines with `#` comments, keys matching
the long flag names with underscores.  Every effective value is logged at
startup.  Exit codes: 0 success, 1 usage error, 2 data or format error.
`--out` is checked before any input is read: an `--out` of the wrong kind
(`eval` writes a file, the others a directory) or a non-empty directory exits
2.  Each command writes into a stage that replaces `--out` in one rename on
success, so a failing command leaves nothing behind, not even parents.
"""

import argparse
import functools
import logging
import os
import re
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import DataError, ToolError
from .mediaio import (LabelPalette, check_frame_shapes, colorize_labels, frame_paths,
                      label_paths, read_frames, read_pgm16, read_ppm, write_flo,
                      write_frame_sequence, write_label_volume, write_pgm16, write_ppm)
from .metrics import evaluate, write_metrics_csv
from .motionlayers import check_motion_params, run_motion_stream
from .optflow import (FlowParams, check_external_flow, check_flow_size, external_flow_path,
                      flow_for_sequence, read_external_flows)
from .preprocess import BilateralParams, filter_sequence
from .rng import derive_seed
from .streamseg import StreamConfig, check_window_size, stream_blocks
from .synth import generate, parse_scene_spec

log = logging.getLogger("svstream")


class UsageError(Exception):
    pass


def _onoff(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {text!r}")
    return text == "on"


def _canonical(text: str):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if m is None:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")
    return int(m.group(1)), int(m.group(2))


# key -> (converter, default, help); None default means "must be provided".
# argparse %-formats help texts, so a literal % is written %%.
_OPTIONS = {
    "input": (str, None, "input frame pattern, printf style (frames %%05d.ppm)"),
    "out": (str, None, "output directory or file"),
    "spec": (str, None, "scene description file"),
    "pred": (str, None, "directory of predicted label volumes (level_NN subdirs)"),
    "gt": (str, None, "directory of ground-truth label frames"),
    "video": (str, None, "video frame pattern for appearance metrics"),
    "external-flow": (str, "", "directory of precomputed flow_NNNN.flo fields"),
    "levels": (int, 6, "number of hierarchy levels"),
    "subseq": (int, 3, "frames per streaming subsequence"),
    "k0": (float, 5.0, "grouping threshold constant at level 0"),
    "k-growth": (float, 2.0, "per-level multiplier of the threshold constant"),
    "min-size": (int, 10, "minimum region size in voxels"),
    "color-bins": (int, 8, "histogram bins per color channel"),
    "flow-bins": (int, 9, "histogram bins per flow component"),
    "flow-range": (float, 16.0, "flow histogram clamp, +/- pixels"),
    "flow-edges": (_onoff, True, "route temporal edges along the flow"),
    "flow-feature": (_onoff, True, "use flow histograms in region merging"),
    "bilateral": (_onoff, True, "bilateral-filter frames before segmenting"),
    "sigma-s": (float, 3.0, "bilateral spatial sigma"),
    "sigma-r": (float, 25.0, "bilateral range sigma"),
    "radius": (int, 6, "bilateral window radius"),
    "alpha": (float, 15.0, "optical-flow smoothness weight"),
    "pyramid-scale": (float, 0.5, "optical-flow pyramid downscale factor"),
    "flow-min-size": (int, 16, "optical-flow coarsest pyramid side"),
    "flow-iters": (int, 100, "optical-flow iterations per level"),
    "flow-warps": (int, 3, "optical-flow warp steps per level"),
    "supervoxel-level": (int, 3, "supervoxel hierarchy level seeding motion layers"),
    "tau0": (float, 4.0, "motion merge threshold at level 0"),
    "tau-growth": (float, 2.0, "per-level multiplier of the motion threshold"),
    "canonical": (_canonical, (64, 64), "canonical patch size WIDTHxHEIGHT"),
    "mrf-lambda": (float, 8.0, "boundary-smoothness weight"),
    "mrf": (_onoff, False, "smooth the final motion labeling"),
    "tol": (int, 1, "boundary recall tolerance in pixels"),
    "seed": (int, 0, "seed for all randomized steps"),
    "threads": (int, 1, "worker threads (outputs independent of the count)"),
}

_FLOW_KEYS = ["alpha", "pyramid-scale", "flow-min-size", "flow-iters", "flow-warps"]
_BILATERAL_KEYS = ["bilateral", "sigma-s", "sigma-r", "radius"]
_STREAM_KEYS = ["levels", "subseq", "k0", "k-growth", "min-size", "color-bins",
                "flow-bins", "flow-range", "flow-edges", "flow-feature"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage problems; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once: parsing keeps no state in it, and a build leaves reference cycles."""
    parser = _Parser(prog="svstream", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"svstream {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    for name, (_, description, _, keys) in _COMMANDS.items():
        sp = subs.add_parser(name, description=description)
        sp.add_argument("--config", default=None,
                        help="flat key = value config file")
        for key in keys:
            conv, default, help_text = _OPTIONS[key]
            sp.add_argument(f"--{key}", type=conv, default=None,
                            dest=key.replace("-", "_"),
                            help=f"{help_text} (default {default})")
    return parser


def _parse_config_text(text: str, path: str, allowed) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ToolError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("_", "-")
        raw = raw.strip()
        if key not in allowed:
            raise ToolError(f"{path}:{lineno}: unknown config key {key!r}")
        conv = _OPTIONS[key][0]
        try:
            values[key] = conv(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ToolError(f"{path}:{lineno}: {exc}") from exc
    return values


def _effective_config(command: str, args: argparse.Namespace) -> dict:
    keys = _COMMANDS[command][3]
    eff = {k: _OPTIONS[k][1] for k in keys}
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
        eff.update(_parse_config_text(text, args.config, set(keys)))
    for key in keys:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            eff[key] = value
    for key in keys:
        if _OPTIONS[key][1] is None and not eff[key]:
            raise UsageError(f"{command} requires --{key}")
    for key in keys:
        log.info("config %s = %s", key, eff[key])
    return eff


def _stream_config(eff: dict, levels: int) -> StreamConfig:
    return StreamConfig(subseq_len=eff["subseq"], levels=levels,
                        k0=eff["k0"], k_growth=eff["k-growth"],
                        min_size=eff["min-size"], color_bins=eff["color-bins"],
                        flow_bins=eff["flow-bins"], flow_range=eff["flow-range"],
                        use_flow_edges=eff["flow-edges"],
                        use_flow_feature=eff["flow-feature"])


def _input(eff: dict, block_len: int, run, config: StreamConfig | None, use_flow: bool):
    """The input's frame count and its (frames, flows) blocks, one per
    block_len frames.  Checked here, before any frame is read: the bilateral
    and flow parameters, every frame's size from its header, the window size
    (unless config is None) and, if flow is used, every --external-flow
    field's header or, for computed flow, the frame size Horn-Schunck needs.
    A block's frames are bilateral-filtered through run, a map-like callable,
    if the filter is on; its flows are None without use_flow, else the
    backward flow of every pair (t-1, t) whose t lies in the block, read from
    --external-flow or computed from the filtered frames through run."""
    bilateral = None
    if eff.get("bilateral"):
        bilateral = BilateralParams(sigma_spatial=eff["sigma-s"],
                                    sigma_range=eff["sigma-r"],
                                    radius=eff["radius"])
    flow_params = FlowParams(alpha=eff["alpha"], pyramid_scale=eff["pyramid-scale"],
                             min_size=eff["flow-min-size"], iters_per_level=eff["flow-iters"],
                             warp_steps=eff["flow-warps"])
    external = eff.get("external-flow")
    paths = frame_paths(eff["input"])
    h, w, _ = check_frame_shapes(paths)
    if config is not None:
        check_window_size((len(paths), h, w), config)
    if use_flow and external:
        check_external_flow(external, len(paths), h, w)
    elif use_flow:
        check_flow_size(h, w)

    def blocks():
        last = None     # the previous block's last frame, which the first pair needs
        for s in range(0, len(paths), block_len):
            frames = read_frames(paths[s:s + block_len])
            if bilateral is not None:
                frames = filter_sequence(frames, bilateral, run)
            flows = None
            if use_flow and external:
                flows = read_external_flows(external, max(s, 1), s + len(frames), h, w)
            elif use_flow:
                pairs = frames if last is None else np.concatenate([last, frames])
                flows = flow_for_sequence(pairs, flow_params, run)
                last = frames[-1:]
            yield frames, flows
    return len(paths), blocks()


def _cmd_segment(eff: dict, run) -> None:
    config = _stream_config(eff, eff["levels"])
    _, blocks = _input(eff, config.subseq_len, run, config,
                       config.use_flow_edges or config.use_flow_feature)
    palettes = [LabelPalette(derive_seed(eff["seed"], 7, level))
                for level in range(config.levels)]
    # each block is final when it is yielded, so it goes to the stage at once
    for s, labels, _, _ in stream_blocks(blocks, config):
        for level, (block, palette) in enumerate(zip(labels, palettes)):
            stem = os.path.join(eff["out"], f"level_{level:02d}")
            write_label_volume(block, stem, s)
            write_frame_sequence(palette(block), stem + "_vis", s)
    for level, palette in enumerate(palettes):
        # labels are numbered from 0 and every one is emitted
        log.info("level %d: %d regions", level, len(palette.colors))


def _motion_schedule(eff: dict) -> list:
    """tau0 * tau-growth**i for each of --levels merge levels, refused before
    the list is built when --levels is negative, the first two taus do not
    increase or the top tau is not finite (a lower one can only overflow if
    the top one does)."""
    levels, tau0, growth = eff["levels"], eff["tau0"], eff["tau-growth"]
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if levels >= 2 and not tau0 < tau0 * growth:
        raise ValueError("tau schedule must be strictly increasing")
    try:
        top = tau0 * growth ** (levels - 1) if levels else 0.0
    except OverflowError:
        top = np.inf
    if abs(top) == np.inf:
        raise ValueError("tau0 * tau-growth ** (levels - 1) must be finite")
    return [tau0 * growth ** i for i in range(levels)]


def _cmd_motion(eff: dict, run) -> None:
    schedule = _motion_schedule(eff)
    p, q = eff["canonical"]
    check_motion_params(schedule, p, q, eff["mrf-lambda"] if eff["mrf"] else 0.0)
    sv_level = eff["supervoxel-level"]
    if sv_level < 0:
        raise ValueError("supervoxel-level must be >= 0")
    config = _stream_config(eff, sv_level + 1)
    num, blocks = _input(eff, config.subseq_len, run, config, use_flow=True)
    if num < 2:
        raise ValueError("need at least two frames")
    # one (frame, backward flow or None, supervoxel slice) per frame, and each
    # pair goes to the stage as soon as it is done
    inputs = (item for s, labels, frames, flows in stream_blocks(blocks, config)
              for item in zip(frames, flows if s else [None, *flows], labels[sv_level]))
    for res in run_motion_stream(inputs, schedule, p=p, q=q, mrf_lambda=eff["mrf-lambda"],
                                 use_mrf=eff["mrf"], seed=eff["seed"]):
        pair_dir = os.path.join(eff["out"], f"pair_{res.pair:04d}")
        os.makedirs(pair_dir)
        labelings = [(f"level_{level:02d}", f"level {level}", labels, models, (8, level))
                     for level, (labels, models) in enumerate(res.hierarchy.levels)]
        labelings.append(("tracked", "tracked", res.tracked_labels, res.tracked_models, (9,)))
        lines = []
        for stem, prefix, labels, models, salt in labelings:
            write_pgm16(os.path.join(pair_dir, f"{stem}.pgm"), labels)
            vis = colorize_labels(labels, derive_seed(eff["seed"], *salt))
            write_ppm(os.path.join(pair_dir, f"{stem}.ppm"), vis)
            for lab in sorted(models):
                params = " ".join(repr(v) for v in models[lab].params)
                lines.append(f"{prefix} region {lab} {params}")
        with open(os.path.join(pair_dir, "models.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        log.info("pair %d: %d tracked regions", res.pair,
                 len(res.tracked_models))


def _cmd_flow(eff: dict, run) -> None:
    # one frame per worker at a time, and no more workers than CPUs; each
    # field is written once it is computed
    _, blocks = _input(eff, min(eff["threads"], os.cpu_count() or 1), run, None,
                       use_flow=True)
    os.makedirs(eff["out"])
    fields = 0
    for _, flows in blocks:
        for field in flows:
            fields += 1
            write_flo(external_flow_path(eff["out"], fields), field)
    log.info("wrote %d flow fields", fields)


def _frame_reader(read, paths):
    """read over paths, one frame at a time.  The paths share a directory
    and are held as one array of file-name bytes: a few bytes per frame,
    not a string each."""
    directory = os.path.dirname(paths[0])
    names = np.array([os.fsencode(os.path.basename(path)) for path in paths])
    return map(read, (os.path.join(directory, os.fsdecode(name)) for name in names))


def _eval_readers(video: str, directories) -> tuple:
    """Per-frame readers of the video and of each label directory, made
    after refusing a label volume whose frame count or frame size differs
    from the video's, from the file headers alone, before any payload is
    read."""
    paths = frame_paths(video)
    h, w, _ = check_frame_shapes(paths)
    volumes = []
    for directory in directories:
        labels = label_paths(directory)
        lh, lw, _ = check_frame_shapes(labels, b"P5")
        if (len(labels), lh, lw) != (len(paths), h, w):
            raise DataError(f"{directory} holds {len(labels)} frames of {lw}x{lh}, "
                            f"the video {len(paths)} frames of {w}x{h}")
        volumes.append(_frame_reader(read_pgm16, labels))
    return _frame_reader(read_ppm, paths), volumes


def _cmd_eval(eff: dict, run) -> None:
    if eff["tol"] < 0:
        raise ValueError("tolerance must be >= 0")
    level_dirs = sorted(
        (os.path.join(eff["pred"], name) for name in os.listdir(eff["pred"])
         if re.fullmatch(r"level_\d+", name)
         and os.path.isdir(os.path.join(eff["pred"], name))),
        key=lambda d: (int(d.rsplit("_", 1)[1]), d)) or [eff["pred"]]
    video, (gt, *levels) = _eval_readers(eff["video"], [eff["gt"], *level_dirs])
    # one pass reads frame t of every volume together
    reports = evaluate(levels, gt, video, eff["tol"])
    write_metrics_csv(reports, eff["out"])
    for level, rep in enumerate(reports):
        log.info("level %d: %d supervoxels br3d %.4f ev %.4f acc3d %.4f",
                 level, rep.num_supervoxels, rep.br3d, rep.ev, rep.acc3d)


def _cmd_synth(eff: dict, run) -> None:
    with open(eff["spec"]) as fh:
        scene = parse_scene_spec(fh.read())
    frames, labels, flows = generate(scene)
    write_frame_sequence(frames, os.path.join(eff["out"], "frames"))
    write_label_volume(labels, os.path.join(eff["out"], "gt"))
    flow_dir = os.path.join(eff["out"], "flow")
    os.makedirs(flow_dir)
    for i, field in enumerate(flows):
        write_flo(external_flow_path(flow_dir, i + 1), field)
    log.info("wrote %d frames, %d objects", scene.num_frames, len(scene.objects))


# name -> (handler, description, whether --out is a directory, option keys)
_COMMANDS = {
    "segment": (_cmd_segment, "streaming hierarchical supervoxel segmentation", True,
                ["input", "out", "external-flow", *_STREAM_KEYS, *_BILATERAL_KEYS,
                 *_FLOW_KEYS, "seed", "threads"]),
    "motion": (_cmd_motion, "hierarchical affine motion-layer segmentation", True,
               ["input", "out", "external-flow", "supervoxel-level", "tau0", "tau-growth",
                "canonical", "mrf-lambda", "mrf", *_STREAM_KEYS, *_BILATERAL_KEYS,
                *_FLOW_KEYS, "seed", "threads"]),
    "flow": (_cmd_flow, "backward optical flow as .flo files", True,
             ["input", "out", *_FLOW_KEYS, "threads"]),
    "eval": (_cmd_eval, "benchmark metrics against ground truth", False,
             ["pred", "gt", "video", "tol", "out"]),
    "synth": (_cmd_synth, "synthetic scene with ground-truth labels and flow", True,
              ["spec", "out"]),
}


def _stage_parent(out: str, out_is_dir: bool) -> str:
    """Refuse an --out of the wrong kind or a filled one; return its nearest
    existing ancestor, where a stage stays on --out's filesystem."""
    if not out_is_dir and os.path.basename(out) in ("", os.curdir, os.pardir):
        raise DataError(f"--out {out} does not name a file")
    if os.path.exists(out) and os.path.isdir(out) != out_is_dir:
        raise DataError(f"--out {out} is {'not ' if out_is_dir else ''}a directory")
    if out_is_dir and os.path.isdir(out) and os.listdir(out):
        raise DataError(f"--out {out} is a directory that is not empty")
    parent = os.path.dirname(os.path.abspath(out))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise DataError(f"--out {out} lies under {parent}, which is not a directory")
    return parent


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    stage = None
    try:
        eff = _effective_config(args.command, args)
        threads = eff.get("threads", 1)     # eval and synth run on one thread
        if threads < 1:
            raise ValueError("threads must be >= 1")
        handler, _, out_is_dir, _ = _COMMANDS[args.command]
        out = eff["out"]
        stage = tempfile.mkdtemp(prefix=".svstream-", dir=_stage_parent(out, out_is_dir))
        eff["out"] = os.path.join(stage, "out")
        # a pool starts a thread only for a task it is given
        with ThreadPoolExecutor(max_workers=threads) as pool:
            handler(eff, pool.map if threads > 1 else map)
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        os.replace(eff["out"], out)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"svstream: error: {exc}\n")
        return 1
    except (ToolError, OSError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"svstream: error: {exc}\n")
        return 2
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
