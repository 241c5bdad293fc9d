"""The benchmark's workloads: configs generated from a seed, nothing else.

Each experiment section is spelled out here rather than taken from the
program's canonical defaults, so a later change to those defaults cannot
silently change what the benchmark measures.  The workload seed reaches the
program only as the config's ``seed`` field; identity seeds stay at their
canonical values.  Grids and repeat counts are coarser than the canonical
scenarios so one experiment fits several times into a run; each workload
still passes the published ``--check`` bounds.

``BENCHMARK.json`` at the checkout root is the one place the workload and
metric names, units and descriptions are written down; the harness reads
them from there.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

SCHEMA_VERSION = 1
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parallel: bool
    configs: tuple[dict, ...]  # templates; ``seed`` is filled in per run


def _sweep() -> dict:
    # 5 m base, the published 3.9 m / 37x anchor; 100 mm grid, 2 repeats
    return {
        "version": SCHEMA_VERSION,
        "experiment": {
            "kind": "dof_extension",
            "base_distances_mm": [5000.0],
            "grid_mm": 100.0,
            "repeats": 2,
            "identity_seed": 9000,
        },
    }


def _match() -> dict:
    # canonical span and identities; 200 mm grid, 2 repeats, 10 impostor pairs
    return {
        "version": SCHEMA_VERSION,
        "experiment": {
            "kind": "hd_curve",
            "base_mm": 5000.0,
            "grid_mm": 200.0,
            "span_near_mm": 2400.0,
            "span_far_mm": 4000.0,
            "repeats": 2,
            "identity_seed": 7000,
            "impostor_pairs": 10,
        },
    }


def _iom() -> dict:
    return {
        "version": SCHEMA_VERSION,
        "experiment": {
            "kind": "iom",
            "identity_seed": 3377,
            "height_mm": 1700.0,
            "start_y_mm": 3800.0,
            "speed_mmps": 1000.0,
            "n_frames": 15,
            "start_frame": 16,
            "jitter_sigma_mm": 3.0,
            "ablation_jitter_sigma_mm": 0.0,
            "motion_seed": 1,
        },
        "rig": {"mirror_height_mm": 1580.0},
        "train": {"f_zoom_mm": 210.0, "d_ref_mm": 3200.0},
    }


_WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
WORKLOADS = {w.name: w for w in (
    Workload("sweep", _WHY["sweep"], False, (_sweep(),)),
    Workload("match", _WHY["match"], False, (_match(),)),
    # multiperson is left out of capture: in about a third of seeds the seated
    # subject never qualifies and burns its whole dwell budget, which moves the
    # workload's time by a quarter from seed to seed
    Workload("capture", _WHY["capture"], False, (_iom(),)),
    Workload("sweep_parallel", _WHY["sweep_parallel"], True, (_sweep(),)),
)}


def configs_for(workload: Workload, seed: int) -> list[dict]:
    """The run's configs; the seed is the only thing that varies between runs."""
    out = []
    for template in workload.configs:
        cfg = copy.deepcopy(template)
        cfg["seed"] = seed
        out.append(cfg)
    return out
