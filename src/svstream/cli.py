"""Command-line interface.

One executable with `segment`, `motion`, `flow`, `eval`, and `synth`
subcommands.  Options resolve as defaults < config file < command-line flags;
the config file is flat `key = value` lines with `#` comments, keys matching
the long flag names with underscores.  Every effective value is logged at
startup.  Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

import argparse
import logging
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import ToolError
from .mediaio import (check_pgm16_labels, colorize_labels, load_frame_sequence,
                      read_label_volume, write_flo, write_frame_sequence,
                      write_label_volume, write_pgm16, write_ppm)
from .metrics import evaluate, write_metrics_csv
from .motionlayers import check_motion_params, run_motion_stream
from .optflow import FlowParams, external_flow_path, flow_for_sequence
from .preprocess import BilateralParams, filter_sequence
from .rng import derive_seed
from .streamseg import StreamConfig, stream_segment
from .synth import generate, parse_scene_spec

log = logging.getLogger("svstream")


class UsageError(Exception):
    pass


def _onoff(text: str) -> bool:
    if text == "on":
        return True
    if text == "off":
        return False
    raise argparse.ArgumentTypeError(f"expected on|off, got {text!r}")


def _canonical(text: str):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if m is None:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")
    return int(m.group(1)), int(m.group(2))


# key -> (converter, default, help); None default means "must be provided"
_OPTIONS = {
    "input": (str, None, "input frame pattern, printf style (frames %05d.ppm)"),
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

_SUBCOMMAND_KEYS = {
    "segment": ["input", "out", "external-flow", *_STREAM_KEYS,
                *_BILATERAL_KEYS, *_FLOW_KEYS, "seed", "threads"],
    "motion": ["input", "out", "external-flow", "supervoxel-level", "tau0",
               "tau-growth", "levels", "canonical", "mrf-lambda", "mrf",
               "subseq", "k0", "k-growth", "min-size", "color-bins",
               "flow-bins", "flow-range", "flow-edges", "flow-feature",
               *_BILATERAL_KEYS, *_FLOW_KEYS, "seed", "threads"],
    "flow": ["input", "out", *_FLOW_KEYS, "threads"],
    "eval": ["pred", "gt", "video", "tol", "out", "threads"],
    "synth": ["spec", "out", "threads"],
}

_REQUIRED = {
    "segment": ["input", "out"],
    "motion": ["input", "out"],
    "flow": ["input", "out"],
    "eval": ["pred", "gt", "video", "out"],
    "synth": ["spec", "out"],
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage problems; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svstream", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"svstream {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    descriptions = {
        "segment": "streaming hierarchical supervoxel segmentation",
        "motion": "hierarchical affine motion-layer segmentation",
        "flow": "backward optical flow as .flo files",
        "eval": "benchmark metrics against ground truth",
        "synth": "synthetic scene with ground-truth labels and flow",
    }
    for name, keys in _SUBCOMMAND_KEYS.items():
        sp = subs.add_parser(name, description=descriptions[name])
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
    keys = _SUBCOMMAND_KEYS[command]
    eff = {k: _OPTIONS[k][1] for k in keys}
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
        eff.update(_parse_config_text(text, args.config, set(keys)))
    for key in keys:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            eff[key] = value
    for key in _REQUIRED[command]:
        if not eff[key]:
            raise UsageError(f"{command} requires --{key}")
    for key in keys:
        log.info("config %s = %s", key, eff[key])
    return eff


def _flow_params(eff: dict) -> FlowParams:
    return FlowParams(alpha=eff["alpha"], pyramid_scale=eff["pyramid-scale"],
                      min_size=eff["flow-min-size"],
                      iters_per_level=eff["flow-iters"],
                      warp_steps=eff["flow-warps"])


def _stream_config(eff: dict, levels: int) -> StreamConfig:
    return StreamConfig(subseq_len=eff["subseq"], levels=levels,
                        k0=eff["k0"], k_growth=eff["k-growth"],
                        min_size=eff["min-size"], color_bins=eff["color-bins"],
                        flow_bins=eff["flow-bins"], flow_range=eff["flow-range"],
                        use_flow_edges=eff["flow-edges"],
                        use_flow_feature=eff["flow-feature"])


def _prepared_input(eff: dict, pool):
    """Load frames, optionally bilateral-filter them, and attach flow."""
    seq = load_frame_sequence(eff["input"])
    if eff["bilateral"]:
        params = BilateralParams(sigma_spatial=eff["sigma-s"],
                                 sigma_range=eff["sigma-r"],
                                 radius=eff["radius"])
        seq = filter_sequence(seq, params, pool)
    external = eff["external-flow"] or None
    flows = flow_for_sequence(seq, _flow_params(eff), external_dir=external,
                              pool=pool)
    return seq, flows


def _cmd_segment(eff: dict, pool) -> int:
    seq, flows = _prepared_input(eff, pool)
    config = _stream_config(eff, eff["levels"])
    hierarchy = stream_segment(seq, flows, config)
    for volume in hierarchy.levels:
        check_pgm16_labels(volume)
    for level, volume in enumerate(hierarchy.levels):
        write_label_volume(volume, os.path.join(eff["out"], f"level_{level:02d}"))
        vis = colorize_labels(volume, derive_seed(eff["seed"], 7, level))
        write_frame_sequence(vis, os.path.join(eff["out"], f"level_{level:02d}_vis"))
        log.info("level %d: %d regions", level, len(np.unique(volume)))
    return 0


def _cmd_motion(eff: dict, pool) -> int:
    schedule = [eff["tau0"] * eff["tau-growth"] ** i for i in range(eff["levels"])]
    p, q = eff["canonical"]
    check_motion_params(schedule, p, q, eff["mrf-lambda"] if eff["mrf"] else 0.0)
    seq, flows = _prepared_input(eff, pool)
    sv_level = eff["supervoxel-level"]
    config = _stream_config(eff, sv_level + 1)
    supervoxels = stream_segment(seq, flows, config)
    results = run_motion_stream(seq, flows, supervoxels, sv_level, schedule,
                                p=p, q=q, mrf_lambda=eff["mrf-lambda"],
                                use_mrf=eff["mrf"], seed=eff["seed"])
    for res in results:
        for labels, _ in res.hierarchy.levels:
            check_pgm16_labels(labels)
        check_pgm16_labels(res.tracked_labels)
    for res in results:
        pair_dir = os.path.join(eff["out"], f"pair_{res.pair:04d}")
        os.makedirs(pair_dir, exist_ok=True)
        lines = []
        for level, (labels, models) in enumerate(res.hierarchy.levels):
            write_pgm16(os.path.join(pair_dir, f"level_{level:02d}.pgm"), labels)
            vis = colorize_labels(labels, derive_seed(eff["seed"], 8, level))
            write_ppm(os.path.join(pair_dir, f"level_{level:02d}.ppm"), vis)
            for lab in sorted(models):
                params = " ".join(repr(v) for v in models[lab].params)
                lines.append(f"level {level} region {lab} {params}")
        write_pgm16(os.path.join(pair_dir, "tracked.pgm"), res.tracked_labels)
        vis = colorize_labels(res.tracked_labels, derive_seed(eff["seed"], 9))
        write_ppm(os.path.join(pair_dir, "tracked.ppm"), vis)
        for lab in sorted(res.tracked_models):
            params = " ".join(repr(v) for v in res.tracked_models[lab].params)
            lines.append(f"tracked region {lab} {params}")
        with open(os.path.join(pair_dir, "models.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        log.info("pair %d: %d tracked regions", res.pair,
                 len(res.tracked_models))
    return 0


def _cmd_flow(eff: dict, pool) -> int:
    seq = load_frame_sequence(eff["input"])
    flows = flow_for_sequence(seq, _flow_params(eff), pool=pool)
    os.makedirs(eff["out"], exist_ok=True)
    for i, field in enumerate(flows):
        write_flo(external_flow_path(eff["out"], i + 1), field)
    log.info("wrote %d flow fields", len(flows))
    return 0


def _cmd_eval(eff: dict, pool) -> int:
    gt = read_label_volume(eff["gt"])
    video = load_frame_sequence(eff["video"])
    level_dirs = sorted(
        os.path.join(eff["pred"], name) for name in os.listdir(eff["pred"])
        if re.fullmatch(r"level_\d+", name)
        and os.path.isdir(os.path.join(eff["pred"], name)))
    if level_dirs:
        levels = [read_label_volume(d) for d in level_dirs]
    else:
        levels = [read_label_volume(eff["pred"])]
    reports = evaluate(levels, gt, video, eff["tol"])
    write_metrics_csv(reports, eff["out"])
    for level, rep in enumerate(reports):
        log.info("level %d: %d supervoxels br3d %.4f ev %.4f acc3d %.4f",
                 level, rep.num_supervoxels, rep.br3d, rep.ev, rep.acc3d)
    return 0


def _cmd_synth(eff: dict, pool) -> int:
    with open(eff["spec"]) as fh:
        scene = parse_scene_spec(fh.read())
    frames, labels, flows = generate(scene)
    write_frame_sequence(frames, os.path.join(eff["out"], "frames"))
    write_label_volume(labels, os.path.join(eff["out"], "gt"))
    flow_dir = os.path.join(eff["out"], "flow")
    os.makedirs(flow_dir, exist_ok=True)
    for i, field in enumerate(flows):
        write_flo(external_flow_path(flow_dir, i + 1), field)
    log.info("wrote %d frames, %d objects", scene.num_frames, len(scene.objects))
    return 0


_DISPATCH = {
    "segment": _cmd_segment,
    "motion": _cmd_motion,
    "flow": _cmd_flow,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    pool = None
    try:
        eff = _effective_config(args.command, args)
        if eff.get("threads", 1) > 1:
            pool = ThreadPoolExecutor(max_workers=eff["threads"])
        return _DISPATCH[args.command](eff, pool)
    except UsageError as exc:
        sys.stderr.write(f"svstream: error: {exc}\n")
        return 1
    except (ToolError, OSError, ValueError) as exc:
        sys.stderr.write(f"svstream: error: {exc}\n")
        return 2
    finally:
        if pool is not None:
            pool.shutdown()


if __name__ == "__main__":
    sys.exit(main())
