"""Per-layer tracing from outside the program.

Spans are recorded by replacing public functions of svstream's modules with
timing wrappers (module attributes only; no source file is touched).  Every
module attribute bound to a wrapped function is replaced, so calls through
`from .x import f` names are caught too.  Spans stay in memory as
[name, start, end, parent, run] and are written out once the run ends.

A span's parent is the innermost open span of its own thread or, in a worker
thread with nothing open, the innermost open span of the thread that
installed the tracer (the one waiting on the pool).  Self time is a span's
duration minus the union of its children's intervals.
"""

import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# layer -> public functions wrapped in that module
BOUNDARIES = {
    "cli": ["main"],
    "mediaio": ["load_frame_sequence", "read_label_volume", "read_ppm", "read_pgm16",
                "read_flo", "write_frame_sequence", "write_label_volume", "write_ppm",
                "write_pgm16", "write_flo", "colorize_labels"],
    "preprocess": ["filter_sequence", "bilateral_filter"],
    "optflow": ["flow_for_sequence", "compute_backward_flow"],
    "streamseg": ["stream_segment", "build_spatial_edges", "build_temporal_edges",
                  "extract_region_features"],
    "motionlayers": ["run_motion_stream", "motion_hierarchy", "fit_affine_ransac",
                     "region_distance", "clean_small_components", "mrf_smooth",
                     "associate_temporal"],
    "graphcut": ["alpha_expansion"],
    "metrics": ["evaluate", "write_metrics_csv"],
}

# (metric, unit) in report order; every one is reported for every workload
PER_LAYER = [
    ("streamseg.busy_s", "s"), ("streamseg.self_s", "s"),
    ("streamseg.voxels_per_s", "voxel/s"), ("streamseg.windows", "count"),
    ("streamseg.edges", "count"), ("streamseg.frozen_edge_share", "ratio"),
    ("streamseg.edge_build_s", "s"), ("streamseg.features_s", "s"),
    ("streamseg.regions_l0", "count"), ("streamseg.regions_top", "count"),
    ("motionlayers.busy_s", "s"), ("motionlayers.ransac_s", "s"),
    ("motionlayers.ransac_fits", "count"), ("motionlayers.ransac_px", "count"),
    ("motionlayers.distance_s", "s"), ("motionlayers.distance_evals", "count"),
    ("motionlayers.merges", "count"), ("motionlayers.merge_yield", "ratio"),
    ("motionlayers.cleanup_s", "s"), ("motionlayers.mrf_s", "s"),
    ("motionlayers.assoc_s", "s"),
    ("graphcut.busy_s", "s"), ("graphcut.calls", "count"),
    ("optflow.busy_s", "s"), ("optflow.pairs", "count"), ("optflow.px_per_s", "px/s"),
    ("preprocess.busy_s", "s"), ("preprocess.px_per_s", "px/s"),
    ("metrics.busy_s", "s"), ("metrics.levels", "count"),
    ("mediaio.read_s", "s"), ("mediaio.write_s", "s"), ("mediaio.colorize_s", "s"),
    ("mediaio.bytes_written", "B"),
    ("cli.other_s", "s"), ("trace.overhead", "ratio"),
]


class Tracer:
    """Install wrappers with `with Tracer(run_id) as tracer:`; they are
    removed again on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.broken = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = []
        self._window = {"subseq": 0, "next": 0, "frozen_voxels": 0}
        self._patches = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, name: str, fn, before=None, after=None):
        sig = inspect.signature(fn) if before or after else None

        def arguments(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def wrapper(*args, **kwargs):
            if before is not None:
                self._run_hook(name, lambda: before(arguments(args, kwargs)))
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.run_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                self._run_hook(name, lambda: after(arguments(args, kwargs), result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_hook(self, name: str, call) -> None:
        """A counter whose function changed shape is reported, not fatal."""
        try:
            call()
        except (KeyError, AttributeError, TypeError, IndexError, ValueError):
            with self._lock:
                if name not in self.broken:
                    self.broken.append(name)

    # ---------------------------------------------------------------- hooks

    def _on_stream_segment(self, a, result):
        t_len, h, w = a["seq"].shape[:3]
        self.count("streamseg.voxels", t_len * h * w)
        self.count("streamseg.regions_l0", len(np.unique(result.levels[0])))
        self.count("streamseg.regions_top", len(np.unique(result.levels[-1])))

    def _before_stream_segment(self, a):
        # windows start every subseq_len frames; every window after the first
        # begins with the previous subsequence, whose labels are frozen
        self._window.update(subseq=a["config"].subseq_len, next=0, frozen_voxels=0)

    def _count_edges(self, edges, frozen_voxels: int) -> None:
        self.count("streamseg.edges", len(edges))
        if frozen_voxels and len(edges):
            frozen = (edges["a"] < frozen_voxels) & (edges["b"] < frozen_voxels)
            self.count("streamseg.frozen_edges", int(frozen.sum()))

    def _on_spatial_edges(self, a, result):
        t_len, h, w = a["window"].shape[:3]
        win = self._window
        frozen_frames = win["subseq"] if win["next"] > 0 else 0
        win["frozen_voxels"] = min(frozen_frames, t_len) * h * w
        win["next"] += 1
        self.count("streamseg.windows")
        self._count_edges(result, win["frozen_voxels"])

    def _on_temporal_edges(self, a, result):
        self._count_edges(result, self._window["frozen_voxels"])

    def _on_ransac(self, a, result):
        self.count("motionlayers.ransac_fits")
        self.count("motionlayers.ransac_px", len(a["pixels"]))

    def _on_motion_hierarchy(self, a, result):
        sizes = [len(models) for _, models in result.levels]
        self.count("motionlayers.merges", sum(p - c for p, c in zip(sizes, sizes[1:])))

    def _on_flow(self, a, result):
        self.count("optflow.pairs")
        self.count("optflow.px", a["current"].shape[0] * a["current"].shape[1])

    def _on_bilateral(self, a, result):
        self.count("preprocess.px", a["frame"].shape[0] * a["frame"].shape[1])

    def _on_evaluate(self, a, result):
        self.count("metrics.levels", len(result))

    def _on_write(self, a, result):
        self.count("mediaio.bytes_written", os.path.getsize(a["path"]))

    def _hooks(self):
        """name -> hook run after the call with (arguments, result)."""
        return {
            "streamseg.stream_segment": self._on_stream_segment,
            "streamseg.build_spatial_edges": self._on_spatial_edges,
            "streamseg.build_temporal_edges": self._on_temporal_edges,
            "motionlayers.fit_affine_ransac": self._on_ransac,
            "motionlayers.region_distance": lambda a, r: self.count("motionlayers.distance_evals"),
            "motionlayers.motion_hierarchy": self._on_motion_hierarchy,
            "graphcut.alpha_expansion": lambda a, r: self.count("graphcut.calls"),
            "optflow.compute_backward_flow": self._on_flow,
            "preprocess.bilateral_filter": self._on_bilateral,
            "metrics.evaluate": self._on_evaluate,
            "mediaio.write_ppm": self._on_write,
            "mediaio.write_pgm16": self._on_write,
            "mediaio.write_flo": self._on_write,
        }

    # ------------------------------------------------------------ install

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "svstream" or n.startswith("svstream.")) and m is not None]
        hooks = self._hooks()
        befores = {"streamseg.stream_segment": self._before_stream_segment}
        for layer, names in BOUNDARIES.items():
            mod = sys.modules.get(f"svstream.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                fn = getattr(mod, fname, None) if mod is not None else None
                if not callable(fn):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn, befores.get(name), hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        self._owner_stack = self._stack()
        return self

    def __exit__(self, *exc):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()
        return False

    # ------------------------------------------------------------ reporting

    def write(self, path) -> None:
        """Write spans (one JSON object per line, times relative to the first
        span), then the counters and absent or broken boundaries as one line."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "run": run}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts), "absent": self.absent,
                                 "broken": self.broken}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics (name -> value) derived from spans and counters,
        all of PER_LAYER except trace.overhead, which needs the untraced run."""
        spans = self.spans
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] is not None:
                children[s[3]].append(i)

        def duration(i):
            return spans[i][2] - spans[i][1]

        def self_time(i):
            lo, hi = spans[i][1], spans[i][2]
            covered, reach = 0.0, lo
            for c in sorted(children[i], key=lambda c: spans[c][1]):
                a, b = max(spans[c][1], reach), min(spans[c][2], hi)
                if b > a:
                    covered += b - a
                    reach = b
            return duration(i) - covered

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        def is_outermost(i):
            # no ancestor in the same layer
            p = spans[i][3]
            while p is not None:
                if layer(p) == layer(i):
                    return False
                p = spans[p][3]
            return True

        outer = [i for i in range(len(spans)) if is_outermost(i)]

        def busy(lay, prefixes=("",)):
            return sum(duration(i) for i in outer if layer(i) == lay
                       and spans[i][0].split(".", 1)[1].startswith(prefixes))

        def total(*names):
            return sum(duration(i) for i, s in enumerate(spans) if s[0] in names)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        stream_busy = busy("streamseg")
        flow_busy = busy("optflow")
        pre_busy = busy("preprocess")
        return {
            "streamseg.busy_s": stream_busy,
            "streamseg.self_s": sum(self_time(i) for i, s in enumerate(spans)
                                    if s[0] == "streamseg.stream_segment"),
            "streamseg.voxels_per_s": ratio(c["streamseg.voxels"], stream_busy),
            "streamseg.windows": c["streamseg.windows"],
            "streamseg.edges": c["streamseg.edges"],
            "streamseg.frozen_edge_share": ratio(c["streamseg.frozen_edges"],
                                                 c["streamseg.edges"]),
            "streamseg.edge_build_s": total("streamseg.build_spatial_edges",
                                            "streamseg.build_temporal_edges"),
            "streamseg.features_s": total("streamseg.extract_region_features"),
            "streamseg.regions_l0": c["streamseg.regions_l0"],
            "streamseg.regions_top": c["streamseg.regions_top"],
            "motionlayers.busy_s": busy("motionlayers"),
            "motionlayers.ransac_s": total("motionlayers.fit_affine_ransac"),
            "motionlayers.ransac_fits": c["motionlayers.ransac_fits"],
            "motionlayers.ransac_px": c["motionlayers.ransac_px"],
            "motionlayers.distance_s": total("motionlayers.region_distance"),
            "motionlayers.distance_evals": c["motionlayers.distance_evals"],
            "motionlayers.merges": c["motionlayers.merges"],
            "motionlayers.merge_yield": ratio(c["motionlayers.merges"],
                                              c["motionlayers.distance_evals"]),
            "motionlayers.cleanup_s": total("motionlayers.clean_small_components"),
            "motionlayers.mrf_s": total("motionlayers.mrf_smooth"),
            "motionlayers.assoc_s": total("motionlayers.associate_temporal"),
            "graphcut.busy_s": busy("graphcut"),
            "graphcut.calls": c["graphcut.calls"],
            "optflow.busy_s": flow_busy,
            "optflow.pairs": c["optflow.pairs"],
            "optflow.px_per_s": ratio(c["optflow.px"], flow_busy),
            "preprocess.busy_s": pre_busy,
            "preprocess.px_per_s": ratio(c["preprocess.px"], pre_busy),
            "metrics.busy_s": busy("metrics"),
            "metrics.levels": c["metrics.levels"],
            "mediaio.read_s": busy("mediaio", ("read_", "load_")),
            "mediaio.write_s": busy("mediaio", ("write_",)),
            "mediaio.colorize_s": busy("mediaio", ("colorize_",)),
            "mediaio.bytes_written": c["mediaio.bytes_written"],
            "cli.other_s": sum(self_time(i) for i, s in enumerate(spans)
                               if s[0] == "cli.main"),
        }
