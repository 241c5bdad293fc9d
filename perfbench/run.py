"""The irissim benchmark: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is timed in fresh interpreters (import ``irissim`` and validate the
workload's configs), then one more interpreter runs the workload's
experiments for ``--seconds``, checks every output against the published
``--check`` bounds and the run's own digest, and reports:

* ``--trace 0``, the end-to-end metrics:
  ``wall_ref``, the median over the process's experiment runs of each run's
  wall time (validated config to written CSV and summary) divided by the
  mean wall time of a fixed numpy/scipy reference kernel timed just before
  and just after it.  This host's speed drifts by tens of percent within
  seconds, and the ratio cancels most of that drift; the raw ``wall_s`` and
  ``cpu_s`` samples are printed and recorded beside it.
  ``setup_s``, the median set-up time of the fresh interpreters.
  ``peak_rss_mb``, the peak RSS of the measuring process plus that of its
  largest pool worker, whether the worker has been reaped or still runs.
* ``--trace 1``, the per-layer table from traced serial runs, with the
  tracing overhead and the serial / parallel speedup.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, samples, quartiles, digest) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3   # fresh interpreters timed per run, the measuring one included
DEADLINE_S = 170.0  # whole run, set-up included

END_TO_END = {m["name"]: m["unit"] for m in workloads.BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in workloads.BENCHMARK["per_layer"]}
# units of the declared metrics and of the raw samples printed beside them
UNITS = {**END_TO_END, **PER_LAYER, "wall_s": "s", "cpu_s": "s", "reference_s": "s"}
# per-run samples printed with their quartiles (the reference is in runner.py)
SAMPLES = ("wall_s", "cpu_s", "reference_s", "wall_ref")


def _command(args: list[str]) -> str | None:
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=10,
                              cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def pool_workers() -> int:
    """Workers a bare ``ProcessPoolExecutor()`` would start; none are started here."""
    pool = ProcessPoolExecutor()
    try:
        return pool._max_workers
    finally:
        pool.shutdown()


def machine_record(workers: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    nproc = _command(["nproc"])
    return {
        "nproc": int(nproc) if nproc else None,
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pool_workers": workers,
        "python": platform.python_version(),
        **versions,
        "git_commit": _command(["git", "rev-parse", "HEAD"]),
    }


def _child(argv: list[str], deadline: float) -> dict:
    """Run runner.py in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen([sys.executable, str(HERE / "runner.py"), *argv],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: runner passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: runner exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles (statistics' exclusive method) and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(record: dict, setup_s: list[float]) -> dict:
    """The end-to-end metrics of an untraced run; empty if no experiment run finished."""
    if not record["wall_ref"]:
        return {}
    return {"wall_ref": statistics.median(record["wall_ref"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": record["peak_rss_mb"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "irissim" / "__init__.py").is_file():
        print(f"perfbench: no irissim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # the schema takes non-negative seeds; any integer maps onto one
    seed = args.seed % 2 ** 31
    workers = pool_workers()
    machine = machine_record(workers)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    print(f"perfbench {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print("machine " + json.dumps(machine))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").unlink(missing_ok=True)
    meta = {"workload": workload.name, "seed": args.seed, "config_seed": seed,
            "trace": args.trace, "seconds": args.seconds, "machine": machine}

    # the pool starts cpu_count workers; never ask for more than may run at once
    uses_pool = workload.parallel or args.trace
    if uses_pool and workers > machine["affinity"]:
        refusal = (f"refused: the pool would start {workers} workers on "
                   f"{machine['affinity']} usable CPUs")
        print(refusal)
        (OUT / f"{tag}.json").write_text(json.dumps({
            **meta, "digest": None, "attempted": 1, "failed": 1,
            "failures": [refusal], "samples": {}, "metrics": {}}, indent=1))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    scratch = OUT / tag
    scratch.mkdir(exist_ok=True)
    common = ["--workload", workload.name, "--seed", str(seed)]
    setups = [_child(common + ["--probe"], deadline)["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    record = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--workers", str(workers), "--out", str(scratch)],
                    deadline)
    setups.append(record["setup"])

    samples = {
        "setup_s": [s["import_s"] + s["validate_ms"] / 1000.0 for s in setups],
        "setup.import_s": [s["import_s"] for s in setups],
        "config.validate_ms": [s["validate_ms"] for s in setups],
    }
    if args.trace:
        units = PER_LAYER
        metrics = dict(record["layers"])
        if metrics:
            for name in ("setup.import_s", "config.validate_ms"):
                metrics[name] = statistics.median(samples[name])
    else:
        units = END_TO_END
        samples.update({name: record[name] for name in SAMPLES})
        metrics = end_to_end(record, samples["setup_s"])
    failed = len(record["failures"])
    spreads = {name: {**spread(values), "values": values}
               for name, values in samples.items() if values}

    for name, s in spreads.items():
        print(f"{name:<34} median {s['median']:.6g} {UNITS[name]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for name, value in metrics.items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    print(f"{'failed_frac':<34} {failed}/{record['attempted']}")
    print(f"digest {workload.name} seed {args.seed}: {record['digest']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    (OUT / f"{tag}.json").write_text(json.dumps({
        **meta, "digest": record["digest"], "attempted": record["attempted"],
        "failed": failed, "failures": record["failures"],
        "samples": spreads, "metrics": metrics, "rounds": record.get("rounds"),
    }, indent=1))

    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
