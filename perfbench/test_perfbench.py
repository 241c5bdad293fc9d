"""Tests of the benchmark harness itself (not of the simulator)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import runner
import tracing
import workloads
from tracing import Span

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_is_span_minus_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
        # children that overlap each other count their union once
        Span("c", 20.0, 30.0, None, 0),
        Span("c.x", 21.0, 25.0, 4, 0),
        Span("c.y", 23.0, 27.0, 4, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 4.0, 4.0, 4.0]


def test_layer_table_takes_the_median_over_runs():
    spans = []
    for run_id, (render, texture) in enumerate([(3.0, 1.0), (5.0, 2.0), (4.0, 1.5)]):
        base = 10.0 * run_id
        spans.append(Span("renderer.render_eye", base, base + render, None, run_id,
                          {"px": 100}))
        spans.append(Span("texture", base, base + texture, len(spans) - 1, run_id,
                          {"seed": 7}))
    table = tracing.layer_table(spans)
    assert table["renderer.render_eye.calls"] == 1
    assert table["renderer.render_eye.ms_p50"] == pytest.approx(4000.0)
    assert table["renderer.render_eye.self_s"] == pytest.approx(2.5)
    assert table["texture.self_s"] == pytest.approx(1.5)
    assert table["texture.unique_ratio"] == 1.0
    assert table["quality.evaluate.calls"] == 0


@pytest.fixture(scope="module")
def traced_multiperson(tmp_path_factory):
    """The canonical multiperson scenario, traced and untraced."""
    out = tmp_path_factory.mktemp("perfbench")
    modules, _, setup = runner.set_up(workloads.WORKLOADS["capture"], 0)
    from irissim import config
    runs = runner.Runs(modules, [config.default_config("multiperson")], out / "work")
    record = runner.measure_traced(runs, 0.0, 2, out / "spans.json")
    return modules, runs, record, setup


def test_wrapping_leaves_the_digest_unchanged(traced_multiperson):
    modules, runs, record, _ = traced_multiperson
    # every traced and parallel run is held to the first untraced digest
    assert runs.failures == []
    assert runs.attempted == 3 * runner.MIN_ROUNDS
    assert len(record["rounds"]["traced"]) == runner.MIN_ROUNDS
    assert record["layers"]["scheduler.frames"] > 0
    for mod_name, attr, _, _ in tracing.BINDINGS:
        assert not hasattr(getattr(modules[mod_name], attr), "__wrapped__")


def test_gate_fails_a_run_whose_bytes_differ(traced_multiperson, monkeypatch):
    modules, runs, _, _ = traced_multiperson
    experiments = modules["experiments"]
    write = experiments.write_result

    def write_and_touch(result, out_dir, dump_frames=False):
        write(result, out_dir, dump_frames)
        with open(Path(out_dir) / "summary.txt", "a") as fh:
            fh.write("changed\n")

    monkeypatch.setattr(experiments, "write_result", write_and_touch)
    before = len(runs.failures)
    assert runs.once(False, "changed") is None
    assert len(runs.failures) == before + 1
    assert "digest" in runs.failures[-1]


def test_harness_prints_the_names_benchmark_json_declares(traced_multiperson):
    _, _, record, setup = traced_multiperson
    printed = set(record["layers"]) | {"setup.import_s", "config.validate_ms"}
    assert printed == {m["name"] for m in BENCHMARK["per_layer"]}
    untraced = run.end_to_end({"wall_ref": [1.0], "peak_rss_mb": 1.0}, [1.0])
    assert set(untraced) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert list(workloads.WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert set(setup) == {"import_s", "validate_ms"}


_KEEP_A_WORKER = """
import resource, sys
from concurrent.futures import ProcessPoolExecutor
import runner

def hold(size):
    block = b"\\x01" * size  # written, so the pages are resident
    return len(block)

if __name__ == "__main__":
    size = int(sys.argv[1])
    with ProcessPoolExecutor(1) as pool:
        assert pool.submit(hold, size).result() == size
        assert runner.live_children()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              runner.peak_rss_mb())
"""


def test_peak_rss_counts_a_pool_worker_that_is_still_running():
    # a fresh interpreter has reaped no child, so only the live worker can
    # raise the figure above the process's own peak
    size_mb = 64
    done = subprocess.run([sys.executable, "-c", _KEEP_A_WORKER, str(size_mb << 20)],
                          cwd=HERE, env={**os.environ, "PYTHONPATH": str(HERE)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    own_mb, peak_mb = map(float, done.stdout.split())
    assert peak_mb >= own_mb + size_mb


def test_refusing_an_oversubscribed_pool_records_a_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "pool_workers", lambda: len(os.sched_getaffinity(0)) + 1)
    argv = ["--workload", "sweep_parallel", "--seed", "3", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 1
    record = json.loads((tmp_path / "sweep_parallel-s3-t0.json").read_text())
    assert (record["attempted"], record["failed"]) == (1, 1)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (False, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
