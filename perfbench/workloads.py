"""Workload recipes: seeded scenes, CLI argv, output digests and quality.

Recipes live in workloads.json next to this file.  A recipe fixes the
scene: geometry, colors, motion and textures (its own scene_seed).  The seed
given to the benchmark draws the pixel noise added to every frame, so each
seed is a new input while the work per run stays comparable across seeds.
A recipe may ask for several clips: the same scene under independent noise,
each run through the workload's commands, so that one execution averages
over noise draws whose work differs.  The CLI only ever sees the files
written here.
"""

import hashlib
import importlib
import json
import math
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

RECIPES = json.loads((Path(__file__).parent / "workloads.json").read_text())
REFERENCE_SEED = RECIPES["reference_seed"]
BILATERAL_PROBE = np.zeros((2, 2, 3), dtype=np.uint8)


def _affine(spec: dict, AffineModel):
    """Backward per-pair model: rotation by rotate_deg about a fixed point,
    plus a translation (drift)."""
    th = math.radians(spec.get("rotate_deg", 0.0))
    cx, cy = spec.get("about", (0.0, 0.0))
    tx, ty = spec.get("translate", (0.0, 0.0))
    a2, a3 = math.cos(th) - 1.0, -math.sin(th)
    a5, a6 = math.sin(th), math.cos(th) - 1.0
    return AffineModel(a1=-(a2 * cx + a3 * cy) + tx, a2=a2, a3=a3,
                       a4=-(a5 * cx + a6 * cy) + ty, a5=a5, a6=a6)


def _bilateral_on(args) -> bool:
    return not ("--bilateral" in args and args[args.index("--bilateral") + 1] == "off")


def import_svstream(src: Path) -> dict:
    """Import svstream from the checkout's src/ afresh and return its modules.

    Previously imported svstream modules are dropped first, so every call
    pays the package's own import cost (numpy and scipy stay loaded).
    """
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "svstream" or n.startswith("svstream.")]:
        del sys.modules[name]
    names = ("cli", "synth", "affine", "mediaio", "metrics", "optflow", "preprocess")
    mods = {n: importlib.import_module(f"svstream.{n}") for n in names}
    pkg = Path(sys.modules["svstream"].__file__).resolve().parent
    if pkg != (src / "svstream").resolve():
        raise RuntimeError(f"imported svstream from {pkg}, expected {src / 'svstream'}")
    return mods


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.recipe = RECIPES["workloads"][name]
        scene = self.recipe["scene"]
        self.shape = (scene["frames"], scene["height"], scene["width"])
        self.clips = self.recipe.get("clips", 1)
        self.voxels = self.clips * int(np.prod(self.shape))
        self.scene_dir = work / "scene"
        self.out = work / "out"
        self.sv = None   # svstream modules of the latest set_up

    @property
    def threads(self) -> int:
        """Worker threads the workload's commands ask for (1 without --threads)."""
        return max(int(a[a.index("--threads") + 1]) if "--threads" in a else 1
                   for a in self.recipe["argv"])

    @property
    def reference_digests(self) -> list:
        """Per-clip output digests recorded at the reference seed, else None each."""
        if self.seed != REFERENCE_SEED:
            return [None] * self.clips
        return list(self.recipe["reference_digests"])

    def scene(self, clip: int) -> Path:
        return self.scene_dir / f"clip{clip}"

    def output(self, clip: int) -> Path:
        return self.out / f"clip{clip}"

    def scene_spec(self):
        s = self.recipe["scene"]
        synth, AffineModel = self.sv["synth"], self.sv["affine"].AffineModel
        objects = tuple(
            synth.ObjectSpec(o["shape"], tuple(float(v) for v in o["geometry"]),
                             color=tuple(o["color"]),
                             motion=_affine(o["motion"], AffineModel))
            for o in s["objects"])
        return synth.SceneSpec(
            width=s["width"], height=s["height"], num_frames=s["frames"],
            background_color=tuple(s["background_color"]),
            background_motion=_affine(s["background_motion"], AffineModel),
            objects=objects, texture_amplitude=s["texture_amplitude"],
            seed=s["scene_seed"])

    def add_noise(self, frames: np.ndarray, clip: int) -> np.ndarray:
        """Uniform integer noise in [-a, a] per pixel and channel, drawn with
        synth.value_noise at integer lattice points (one salt per clip, frame
        and channel, keyed by the benchmark seed)."""
        amp = self.recipe["scene"]["noise_amplitude"]
        t_len, h, w = self.shape
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        noisy = frames.astype(np.float64)
        for t in range(t_len):
            for c in range(3):
                salt = 3 * (clip * t_len + t) + c
                u = self.sv["synth"].value_noise(self.seed, salt, xs, ys, 1.0)
                noisy[t, :, :, c] += np.floor((2.0 * u - 1.0) * amp + 0.5)
        return np.clip(noisy, 0, 255).astype(np.uint8)

    def set_up(self, src: Path) -> float:
        """Import svstream, render and write the scene, and fill first-use
        tables; returns the seconds taken."""
        shutil.rmtree(self.scene_dir, ignore_errors=True)
        t0 = time.perf_counter()
        self.sv = import_svstream(src)
        mediaio, optflow = self.sv["mediaio"], self.sv["optflow"]
        frames, labels, flows = self.sv["synth"].generate(self.scene_spec())
        for clip in range(self.clips):
            scene = self.scene(clip)
            mediaio.write_frame_sequence(self.add_noise(frames, clip), str(scene / "frames"))
            mediaio.write_label_volume(labels, str(scene / "gt"))
            if self.recipe["flow"] == "exact":
                flow_dir = scene / "flow"
                flow_dir.mkdir()
                for t, field in enumerate(flows, start=1):
                    mediaio.write_flo(optflow.external_flow_path(str(flow_dir), t), field)
        if _bilateral_on(self.recipe["argv"][0]):
            # the CLI's default range sigma; its lookup table is built on first use
            preprocess = self.sv["preprocess"]
            preprocess.bilateral_filter(BILATERAL_PROBE, preprocess.BilateralParams())
        return time.perf_counter() - t0

    def argv(self, threads: str = None, clips=None) -> list:
        """The CLI invocations of one execution: every command of the recipe
        on each clip in turn (all clips unless given)."""
        out = []
        for clip in range(self.clips) if clips is None else clips:
            scene = self.scene(clip)
            fill = {"frames": str(scene / "frames" / "%05d.ppm"),
                    "flow": str(scene / "flow"),
                    "gt": str(scene / "gt"),
                    "out": str(self.output(clip))}
            for template in self.recipe["argv"]:
                args = [a.format(**fill) for a in template]
                if threads is not None and "--threads" in args:
                    args[args.index("--threads") + 1] = threads
                out.append(args)
        return out

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        for clip in range(self.clips):
            self.output(clip).mkdir(parents=True)

    def invoke(self, argvs) -> bool:
        """Run each CLI invocation in turn; True when every one exits 0.  A
        crash counts as a failed invocation and is reported, not raised."""
        main = self.sv["cli"].main
        try:
            return all(main(args) == 0 for args in argvs)
        except Exception:
            traceback.print_exc()
            return False

    def digest(self, clip: int) -> str:
        """sha256 over every output file's path (relative to the clip's
        output directory) and bytes."""
        h = hashlib.sha256()
        out = self.output(clip)
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for fname in sorted(filenames):
                path = Path(dirpath) / fname
                h.update(str(path.relative_to(out)).encode() + b"\0")
                h.update(path.read_bytes())
        return h.hexdigest()

    def quality(self) -> dict:
        """Exact quality metrics from svstream.metrics over the written
        files, averaged over the clips."""
        per_clip = [self.clip_quality(clip) for clip in range(self.clips)]
        return {k: sum(q[k] for q in per_clip) / self.clips for k in per_clip[0]}

    def clip_quality(self, clip: int) -> dict:
        metrics, mediaio = self.sv["metrics"], self.sv["mediaio"]
        out, scene = self.output(clip), self.scene(clip)
        if self.recipe["quality"] == "coarsest_eval_row":
            _, rep = max(metrics.read_metrics_csv(str(out / "eval.csv")),
                         key=lambda row: row[0])
            return {"br3d": rep.br3d, "acc3d": rep.acc3d, "ue3d": rep.ue3d, "ev": rep.ev}
        # motion: stacked tracked labels of pairs 1..T-1 against GT frames 1..T-1
        t_len = self.shape[0]
        pred = np.stack([mediaio.read_pgm16(str(out / "motion" / f"pair_{t:04d}" / "tracked.pgm"))
                         for t in range(1, t_len)])
        gt = mediaio.read_label_volume(str(scene / "gt"))[1:]
        video = mediaio.load_frame_sequence(str(scene / "frames" / "%05d.ppm"))[1:]
        return {"br3d": metrics.boundary_recall_3d(pred, gt, 1),
                "acc3d": metrics.accuracy_3d(pred, gt),
                "ue3d": metrics.undersegmentation_error_3d(pred, gt),
                "ev": metrics.explained_variation(pred, video)}
