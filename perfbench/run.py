"""svstream benchmark: seeded synthetic scenes through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; svstream is imported from its src/.
One process, closed loop: the workload's CLI invocations (svstream.cli.main)
run one at a time, again and again, for S seconds.  Set-up (importing
svstream, rendering and writing the scene, first-use tables) is timed apart,
several times.  One execution runs the workload's commands on each of its
clips.  Every execution's output files are digested per clip and must agree
with each other and, at the reference seed, with the digests recorded in
workloads.json; a mismatch or a non-zero exit counts as a failed execution.

--trace 0 reports the end-to-end metrics: the timed loop, the quality
metrics of the written outputs, then one untimed run of the first clip
under tracemalloc for peak memory.  --trace 1 runs the same timed loop and
then one run with every layer boundary wrapped (see spans.py), and reports
per-layer metrics.
The last line of standard output is one JSON object with the result.
"""

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
SET_UPS = 11     # set-up repetitions; setup_s is their median
MIN_REPS = 2     # timed repetitions even when --seconds is already spent
CALS_PER_CLIP = 2  # calibrations before each clip's timed invocations
CALIBRATION_REF_S = 0.11  # calibrate() seconds at the reference speed
_SORT_INPUT = (np.arange(300_000, dtype=np.int64) * 2654435761 % 1_000_003).astype(np.float64)

QUALITY_KEYS = ("br3d", "acc3d", "ue3d", "ev")
END_TO_END_UNITS = {
    "wall_s": "s", "voxels_per_s": "voxel/s", "setup_s": "s", "peak_mem_mb": "MB",
    "quality.br3d": "ratio", "quality.acc3d": "ratio", "quality.ev": "ratio",
}


class Gate:
    """Counts executions and checks each clip's output digest against one
    expected digest per clip: the recorded reference, else the first
    successful execution's."""

    def __init__(self, reference: list):
        self.expected = reference
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, wl, label: str, clips=None) -> None:
        self.attempted += 1
        wrong = []
        for clip in (range(wl.clips) if clips is None else clips) if ok else ():
            digest = wl.digest(clip)
            if self.expected[clip] is None:
                self.expected[clip] = digest
            if digest != self.expected[clip]:
                wrong.append(f"clip {clip} digest {digest} != expected {self.expected[clip]}")
        if not ok or wrong:
            self.failed += 1
            print(f"FAIL {label}: " + ("; ".join(wrong) if ok else "non-zero exit"))


def _sort_rounds(_=None) -> None:
    for _ in range(4):
        np.sort(_SORT_INPUT)


def calibrate(threads: int = 1) -> float:
    """Seconds for a fixed mix of interpreted union-find steps and numpy
    sorting, the two kinds of work the workloads spend their time in.  With
    threads > 1 every thread sorts at once, as a thread pool would compute."""
    t0 = time.perf_counter()
    n = 20_000
    parent = list(range(n))
    for i in range(300_000):
        a, b = i * 7919 % n, i * 104729 % n
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
    if threads == 1:
        _sort_rounds()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_sort_rounds, range(threads)))
    return time.perf_counter() - t0


def timed_loop(wl, gate: Gate, seconds: float):
    """Closed loop over executions of the workload; returns per-execution
    wall seconds and the calibration times taken before each clip's
    invocations (several, as one calibration is as noisy as a clip).  Output clearing, calibration and digesting stay outside
    the timing."""
    walls, cals = [], []
    deadline = time.perf_counter() + seconds
    clip_argvs = [wl.argv(clips=[clip]) for clip in range(wl.clips)]
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        wl.clear_outputs()
        wall, ok = 0.0, True
        for argvs in clip_argvs:
            cals += [calibrate(wl.threads) for _ in range(CALS_PER_CLIP)]
            t0 = time.perf_counter()
            ok = wl.invoke(argvs) and ok
            wall += time.perf_counter() - t0
        walls.append(wall)
        gate.record(ok, wl, f"timed repetition {len(walls)}")
    return walls, cals


def tail_percentile(values: list):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def memory_pass(wl, gate: Gate) -> float:
    """Peak traced allocation (MB) of one untimed run of the workload's first
    clip (clips differ only in their noise)."""
    wl.clear_outputs()
    tracemalloc.start()
    try:
        ok = wl.invoke(wl.argv(clips=[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.record(ok, wl, "memory pass", clips=[0])
    return peak / 1e6


def thread_check(wl, gate: Gate) -> None:
    """One untimed run with a single worker thread; output must not change."""
    if wl.threads > 1:
        wl.clear_outputs()
        gate.record(wl.invoke(wl.argv(threads="1")), wl, "--threads 1 run")


def traced_run(wl, gate: Gate, untraced_wall: float, factor: float, run_id: str) -> dict:
    """One execution with every boundary wrapped.  Times and rates are scaled
    to reference speed by the run's factor, like wall_s; untraced_wall is the
    timed loop's median."""
    wl.clear_outputs()
    with spans.Tracer(run_id) as tracer:
        t0 = time.perf_counter()
        ok = wl.invoke(wl.argv())
        traced_wall = (time.perf_counter() - t0) * factor
    gate.record(ok, wl, "traced run")
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"spans-{run_id}.jsonl")
    for name in tracer.absent:
        print(f"absent boundary {name}: its metrics read 0")
    for name in tracer.broken:
        print(f"counter at {name} failed: its counts are incomplete")
    values = tracer.layer_metrics()
    for name, unit in spans.PER_LAYER:
        if unit == "s":
            values[name] *= factor
        elif unit.endswith("/s"):
            values[name] /= factor
    values["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.RECIPES["workloads"]))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "svstream" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no svstream sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    # the CLI's INFO lines would flood the output; warnings still show
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, workloads.Workload(args.workload, args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, wl) -> int:
    workloads.import_svstream(SRC)   # numpy/scipy load once, outside set-up
    setups, setup_cals = [], []
    for _ in range(SET_UPS):
        # set-up runs before the loop, so it is scaled by calibrations of its own
        setup_cals.append(calibrate())
        setups.append(wl.set_up(SRC))
    setup_factor = CALIBRATION_REF_S / statistics.median(setup_cals)
    gate = Gate(wl.reference_digests)
    t_len, h, w = wl.shape
    print(f"workload {wl.name} seed {wl.seed}: {wl.clips} clip(s) of a {w}x{h}x{t_len} scene, "
          f"{wl.voxels} voxels; closed loop, 1 invocation in flight")
    raw, cals = timed_loop(wl, gate, args.seconds)
    factor = CALIBRATION_REF_S / statistics.median(cals)
    walls = [w * factor for w in raw]
    wall = statistics.median(walls)
    tail = tail_percentile(walls)
    print(f"wall_s median {wall:.4f} s (reference speed) over n={len(walls)} repetitions; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
             "no tail percentile (needs >= 10 samples beyond it, n >= 40 for p75)"))
    print(f"measured wall median {statistics.median(raw):.4f} s at speed factor {factor:.3f} "
          f"(median of {len(cals)} calibrations)")
    print(f"set-up median {statistics.median(setups):.4f} s measured over {SET_UPS} set-ups "
          f"at speed factor {setup_factor:.3f}")
    thread_check(wl, gate)

    if args.trace:
        values = traced_run(wl, gate, wall, factor, f"{wl.name}-seed{wl.seed}")
        units = dict(spans.PER_LAYER)
    else:
        # outputs of a failed run are not scored; the result is marked incorrect
        quality = wl.quality() if gate.failed == 0 else dict.fromkeys(QUALITY_KEYS, 0.0)
        peak = memory_pass(wl, gate)
        print(f"quality.ue3d {quality['ue3d']:.6g} ratio (printed, not gated: "
              "one leaking voxel adds a whole supervoxel's volume)")
        values = {"wall_s": wall, "voxels_per_s": wl.voxels / wall,
                  "setup_s": statistics.median(setups) * setup_factor, "peak_mem_mb": peak}
        values.update({f"quality.{k}": quality[k] for k in ("br3d", "acc3d", "ev")})
        units = END_TO_END_UNITS

    fail_rate = gate.failed / gate.attempted
    print(f"fail_rate {fail_rate:.4f} ({gate.failed} of {gate.attempted} executions); "
          "digests " + " ".join(map(str, gate.expected)))
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
