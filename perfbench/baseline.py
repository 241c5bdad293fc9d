"""Run the benchmark over several seeds and write the numbers to a baseline file.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload: one ``run.py --trace 0`` per seed 0-9, then one
``run.py --trace 1`` per seed 0 and 1, each for ``run_seconds`` from
``BENCHMARK.json``.  The file holds, per workload and end-to-end metric, the
median, quartiles, count and spread (quartile distance over median) across
seeds, the digests, the traced per-layer tables and every run's own record
(samples, within-run quartiles).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
SEEDS = range(10)
TRACE_SEEDS = (0, 1)
SECONDS = workloads.BENCHMARK["run_seconds"]


def bench(workload: str, seed: int, trace: int) -> dict:
    """Run run.py once and return the record it wrote for this run."""
    record = run.OUT / f"{workload}-s{seed}-t{trace}.json"
    record.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if not record.is_file():
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run.py exited with "
                         f"{done.returncode} and wrote no record\n{done.stderr}")
    out = json.loads(record.read_text())
    # a run whose outputs failed the gate exits 1 too; anything else is a fault
    if done.returncode != 0 and out["failed"] == 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run.py exited with "
                         f"{done.returncode}\n{done.stderr}")
    return out


def across(values: list[float]) -> dict:
    s = run.spread(values)
    s["spread"] = (s["q3"] - s["q1"]) / s["median"]
    return s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    out: dict = {"seconds": SECONDS, "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        runs = [bench(name, seed, 0) for seed in SEEDS]
        traced = [bench(name, seed, 1) for seed in TRACE_SEEDS]
        out["machine"] = runs[0]["machine"]
        metrics = {}
        for metric, unit in run.END_TO_END.items():
            values = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
            if not values:  # every run failed or was refused
                ok = False
                continue
            metrics[metric] = {"unit": unit, **across(values)}
            print(f"{name:<15} {metric:<12} median {metrics[metric]['median']:.4f} "
                  f"spread {metrics[metric]['spread']:.4f} n={len(values)}")
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        print(f"{name:<15} failed {failed}/{attempted}")
        digests = {str(r["seed"]): r["digest"] for r in runs}
        # a traced run must reproduce its untraced twin
        twins = all(digests.get(str(r["seed"]), r["digest"]) == r["digest"] for r in traced)
        print(f"{name:<15} traced digests equal untraced: {'yes' if twins else 'NO'}")
        ok = ok and twins and failed == 0
        out["workloads"][name] = {
            "end_to_end": metrics,
            "attempted": attempted,
            "failed": failed,
            "digests": digests,
            "per_layer": {str(r["seed"]): r["metrics"] for r in traced},
            "runs": [{k: v for k, v in r.items() if k != "machine"}
                     for r in runs + traced],
        }
    # workloads with the same inputs (sweep, sweep_parallel) must agree byte for byte
    by_inputs: dict[str, list[str]] = {}
    for name in workloads.WORKLOADS:
        inputs = json.dumps(workloads.configs_for(workloads.WORKLOADS[name], 0))
        by_inputs.setdefault(inputs, []).append(name)
    for names in by_inputs.values():
        if len(names) > 1:
            agree = all(out["workloads"][n]["digests"] == out["workloads"][names[0]]["digests"]
                        for n in names)
            ok = ok and agree
            print(f"digests {' == '.join(names)}: {'yes' if agree else 'NO'}")
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
