"""One fresh interpreter: time the set-up, then run the workload's experiments.

``run.py`` starts this script once per set-up sample with ``--probe`` (time
the import and config validation, then exit) and once more without it, to
measure the workload itself.  It prints one JSON object on stdout.

Each experiment run goes config -> ``experiments.run_experiment`` ->
``experiments.write_result`` and is then held to the published ``--check``
bounds; its CSV and summary bytes are hashed.  Every run in the process
must reproduce the digest of the first serial, untraced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_RUNS = 3      # timed experiment runs per process, however short --seconds is
MIN_ROUNDS = 4    # traced rounds: untraced serial, traced serial, parallel
REFERENCE_REPS = 6  # about 0.35 s of reference kernel between experiment runs


def set_up(workload: workloads.Workload, seed: int):
    """Import the program and validate the configs; returns modules, configs, times."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from irissim import (calibration, cli, config, experiments, iriscode,
                         quality, renderer, scheduler)
    t1 = time.perf_counter()
    cfgs = [config.validate_config(c) for c in workloads.configs_for(workload, seed)]
    t2 = time.perf_counter()
    if SRC not in Path(experiments.__file__).resolve().parents:
        raise SystemExit(f"imported {experiments.__file__}, not the checkout's {SRC}")
    modules = {"calibration": calibration, "cli": cli, "experiments": experiments,
               "iriscode": iriscode, "quality": quality, "renderer": renderer,
               "scheduler": scheduler}
    return modules, cfgs, {"import_s": t1 - t0, "validate_ms": (t2 - t1) * 1000.0}


class Runs:
    """Experiment runs of one process, with the correctness gate applied to each."""

    def __init__(self, modules: dict, cfgs: list[dict], out_dir: Path):
        self.mods = modules
        self.cfgs = cfgs
        self.out_dir = out_dir
        self.digest: str | None = None  # of the first run; every later run must match
        self.attempted = 0
        self.failures: list[str] = []
        self.csv_bytes = 0

    def once(self, parallel: bool, label: str) -> tuple[float, float] | None:
        """One pass over the workload's configs.

        Returns wall seconds and CPU seconds of this process and the pool
        workers it reaped, or None if the pass failed.
        """
        experiments = self.mods["experiments"]
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            t, c = time.perf_counter(), _cpu_s()
            results = []
            for cfg in self.cfgs:
                result = experiments.run_experiment(cfg, parallel=parallel)
                experiments.write_result(result, self.out_dir / cfg["experiment"]["kind"])
                results.append(result)
            times = time.perf_counter() - t, _cpu_s() - c
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        problems = []
        digest = hashlib.sha256()
        csv_bytes = 0
        for cfg, result in zip(self.cfgs, results):
            kind = cfg["experiment"]["kind"]
            problems += [f"{kind}: {msg}"
                         for msg in self.mods["cli"]._check_failures(kind, result)]
            csv = (self.out_dir / kind / f"{result.name}.csv").read_bytes()
            summary = (self.out_dir / kind / "summary.txt").read_bytes()
            csv_bytes += len(csv)
            for blob in (csv, summary):
                digest.update(len(blob).to_bytes(8, "little"))
                digest.update(blob)
        if self.digest is None:
            self.digest = digest.hexdigest()
            self.csv_bytes = csv_bytes
        elif digest.hexdigest() != self.digest:
            problems.append(f"digest {digest.hexdigest()} != first run's {self.digest}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return None
        return times


def live_children() -> list[int]:
    """Pids of this process's children that have not been reaped yet.

    ``getrusage(RUSAGE_CHILDREN)`` only counts reaped children, so a pool
    that outlives the measurement would otherwise be invisible to it.
    """
    pids = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in path.read_text().split()]
        except OSError:  # the thread ended while it was read
            pass
    return pids


def _proc(pid: int, name: str) -> str | None:
    try:
        return (Path("/proc") / str(pid) / name).read_text()
    except OSError:  # the child ended while it was read
        return None


def _cpu_s() -> float:
    """CPU seconds of this process and its children, reaped or still running."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    ticks = 0
    for pid in live_children():
        stat = _proc(pid, "stat")
        if stat:
            fields = stat.rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return (own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
            + ticks / os.sysconf("SC_CLK_TCK"))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, live or reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in live_children():
        for line in (_proc(pid, "status") or "").splitlines():
            if line.startswith("VmHWM:"):
                child = max(child, int(line.split()[1]))
    return (own + child) / 1024.0


def reference_s() -> float:
    """Wall time of a fixed numpy/scipy kernel shaped like one rendered frame.

    The host's speed drifts by tens of percent over seconds (time stolen by
    other tenants, a busy sibling hyperthread); timing this kernel next to
    every experiment run lets the run's time be stated in units of it.
    """
    # imported here, not at the top, so the set-up timing sees a cold import
    import numpy as np
    from scipy.ndimage import gaussian_filter
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(0)
    image = rng.random((480, 640))
    kernel = rng.random((9, 9))
    t = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        blurred = fftconvolve(image, kernel, mode="same")
        banded = gaussian_filter(blurred, 2.0) - gaussian_filter(blurred, 5.0)
        float(np.hypot(banded, image).sum())
    return time.perf_counter() - t


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def measure(runs: Runs, parallel: bool, seconds: float) -> dict:
    """Timed runs with tracing off; a parallel workload is first run serially once."""
    if parallel:
        runs.once(False, "serial twin")
    walls, cpus, refs = [], [], [reference_s()]
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
        times = runs.once(parallel, f"run {runs.attempted}")
        if times is None:
            break
        refs.append(reference_s())
        walls.append(times[0])
        cpus.append(times[1])
    # each run against the mean of the reference timings on either side of it
    ratios = [w / ((a + b) / 2.0) for w, a, b in zip(walls, refs, refs[1:])]
    return {"wall_s": walls, "cpu_s": cpus, "reference_s": refs, "wall_ref": ratios}


def measure_traced(runs: Runs, seconds: float, workers: int, spans_path: Path) -> dict:
    """Rounds of untraced serial, traced serial and untraced parallel runs."""
    tracer = tracing.Tracer()
    rounds: list[tuple] = []  # (serial, traced, parallel) (wall, cpu) pairs
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        serial = runs.once(False, f"serial {len(rounds)}")
        tracer.run = len(rounds)
        with tracing.installed(tracer, runs.mods):
            traced = runs.once(False, f"traced {len(rounds)}")
        parallel = runs.once(True, f"parallel {len(rounds)}")
        if None in (serial, traced, parallel):
            break
        rounds.append((serial, traced, parallel))
    spans_path.write_text(json.dumps(tracer.to_json()))
    if not rounds:
        return {"layers": {}}
    serial, traced, parallel = ([r[k] for r in rounds] for k in range(3))
    layers = tracing.layer_table(tracer.spans)
    # the speedup is a latency ratio.  The overhead compares CPU time, which
    # time stolen by other tenants of the host inflates far less than wall
    # time, and pairs each traced run with the untraced run just before it
    speedup = _median([w for w, _ in serial]) / _median([w for w, _ in parallel])
    overhead = _median([t / s - 1.0 for (_, s), (_, t) in zip(serial, traced)])
    layers.update({
        "experiments.csv_bytes": runs.csv_bytes,
        "experiments.parallel_speedup": speedup,
        "experiments.parallel_efficiency": speedup / workers,
        "trace.overhead_frac": overhead,
    })
    return {"layers": layers,
            "rounds": {"serial": serial, "traced": traced, "parallel": parallel}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="time the set-up only")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="pool workers, for the parallel efficiency")
    parser.add_argument("--out", type=Path, help="scratch directory for outputs")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    modules, cfgs, setup = set_up(workload, args.seed)
    record: dict = {"setup": setup}
    if not args.probe:
        runs = Runs(modules, cfgs, args.out / "work")
        try:
            if args.trace:
                record.update(measure_traced(runs, args.seconds, args.workers,
                                             args.out / "spans.json"))
            else:
                record.update(measure(runs, workload.parallel, args.seconds))
        finally:
            shutil.rmtree(runs.out_dir, ignore_errors=True)
        record.update({
            "attempted": runs.attempted,
            "failures": runs.failures,
            "digest": runs.digest,
            "peak_rss_mb": peak_rss_mb(),
        })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
