import math

import numpy as np
import pytest

from irissim import config, experiments, optics
from irissim.calibration import ASTIG_ANCHOR_DISTANCE, PROBE_RIG


@pytest.fixture(scope="module")
def table():
    return experiments.run_dof_table(config.default_config("dof_table"))


def test_dof_table_reference_row(table):
    d, near, far, total, fov, vol = table.rows[-1]
    assert d == 5000.0
    assert total == pytest.approx(91.0, abs=1.0)
    assert near < 5000.0 < far
    width = 2.0 * d * math.tan(math.radians(fov / 2.0))
    assert vol == pytest.approx(total * width * width * 1e-9)


def test_dof_table_monotone(table):
    totals = [r[3] for r in table.rows]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert max(totals) < 110.0


def test_drive_power_clamps_at_membrane_limits():
    train = optics.OpticalTrain()
    lo, hi = -10.0, 10.0
    near_reach = optics.focus_distance_for_power(train, hi)
    far_reach = optics.focus_distance_for_power(train, lo)
    assert optics.drive_power_for_focus(train, near_reach - 100.0, (lo, hi)) == hi
    assert optics.drive_power_for_focus(train, far_reach + 100.0, (lo, hi)) == lo
    exact = optics.drive_power_for_focus(train, 6000.0, (lo, hi))
    assert exact == pytest.approx(optics.tunable_power_for_focus(train, 6000.0))


def test_extension_drive_stays_inside_the_lens_range():
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(base_distances_mm=[5000.0], grid_mm=400.0, repeats=1)
    cfg["lens"] = {"power_min_dpt": -5.0, "power_max_dpt": 5.0}
    res = experiments.run_dof_extension(config.validate_config(cfg))
    powers = [row[3] for row in res.rows]
    assert all(-5.0 <= p <= 5.0 for p in powers)


def test_extension_scan_stops_before_the_probe_leg():
    # with a 10 mm lens separation the 400 mm train is valid and its gate
    # passes down to the 200 mm mirror-to-lens leg, where the eye would sit
    # on the mirror centre
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(base_distances_mm=[400.0], grid_mm=50.0, repeats=1)
    cfg["train"] = {"d_ot_mm": 10.0}
    res = experiments.run_dof_extension(config.validate_config(cfg))
    positions = [row[2] for row in res.rows]
    assert min(positions) == 250.0
    assert all(p > PROBE_RIG.lens_height_mm for p in positions)
    assert res.stats[400.0]["front_mm"] == 150.0
    # every cell passed, so the guard, not the gate, ended both scans
    assert all(row[-1] for row in res.rows)
    assert res.stats["guard_cut"] == [(400.0, "front"), (400.0, "rear")]
    assert res.summary[0] == ("dof_extension: base 0.4 m -> front ≥ 0.15 m, "
                              "rear ≥ 0.8 m, total ≥ 0.95 m")


def _linear_scan(cfg, base, repeat):
    """Reference: one (base, repeat) scanned alone, front then rear."""
    grid = cfg["experiment"]["grid_mm"]
    ok0, row0 = experiments._extension_cell(cfg, base, base, repeat)
    rows = [row0]
    extent = {-1.0: 0.0, 1.0: 0.0}
    cut = set()
    if ok0:
        for sign, side in ((-1.0, "front"), (1.0, "rear")):
            k = 1
            while True:
                d = base + sign * k * grid
                if d < 0.3 * base or d > 3.0 * base or d <= PROBE_RIG.lens_height_mm:
                    cut.add(side)
                    break
                ok, row = experiments._extension_cell(cfg, base, d, repeat)
                rows.append(row)
                if not ok:
                    break
                extent[sign] = k * grid
                k += 1
    rows.sort(key=lambda r: r[2])
    return extent[-1.0], extent[1.0], cut, rows


@pytest.mark.parametrize("experiment, train", [
    ({"base_distances_mm": [5000.0], "grid_mm": 200.0, "repeats": 3}, {}),
    # every cell passes, so the guard ends both sides of both repeats
    ({"base_distances_mm": [400.0], "grid_mm": 100.0, "repeats": 2}, {"d_ot_mm": 10.0}),
])
def test_lockstep_walk_equals_the_per_repeat_linear_scan(experiment, train):
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(experiment)
    cfg["train"] = train
    cfg = config.validate_config(cfg)
    res = experiments.run_dof_extension(cfg)
    rows, guard_cut = [], []
    for base in experiment["base_distances_mm"]:
        scans = [_linear_scan(cfg, base, r) for r in range(experiment["repeats"])]
        rows += [row for *_, scan_rows in scans for row in scan_rows]
        assert res.stats[base]["front_mm"] == float(np.mean([s[0] for s in scans]))
        assert res.stats[base]["rear_mm"] == float(np.mean([s[1] for s in scans]))
        cut = set().union(*(s[2] for s in scans))
        guard_cut += [(base, side) for side in ("front", "rear") if side in cut]
    assert res.rows == rows
    assert res.stats["guard_cut"] == guard_cut


def test_analytic_limits_sit_on_their_anchors():
    train = optics.OpticalTrain()
    near, far = experiments.analytic_extension_limits(train)
    assert near == pytest.approx(ASTIG_ANCHOR_DISTANCE, abs=1e-3)
    assert optics.pixels_across_iris(train, far) == pytest.approx(200.0, abs=1e-6)


@pytest.fixture(scope="module")
def small_extension_cfg():
    cfg = config.default_config("dof_extension")
    cfg["experiment"]["base_distances_mm"] = [5000.0]
    cfg["experiment"]["grid_mm"] = 100.0
    cfg["experiment"]["repeats"] = 2
    return cfg


def test_extension_scan_small_grid(small_extension_cfg):
    res = experiments.run_dof_extension(small_extension_cfg)
    stats = res.stats[5000.0]
    # crossings live at 3.8 m and 7.7 m; a 0.1 m grid sees them one step coarse
    assert stats["front_mm"] == pytest.approx(1200.0, abs=100.0)
    assert stats["rear_mm"] == pytest.approx(2700.0, abs=100.0)
    keys = [(r[0], r[1], r[2]) for r in res.rows]
    assert keys == sorted(keys)


def test_extension_parallel_matches_serial(small_extension_cfg):
    serial = experiments.run_dof_extension(small_extension_cfg, parallel=False)
    parallel = experiments.run_dof_extension(small_extension_cfg, parallel=True)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary


@pytest.fixture(scope="module")
def small_hd():
    cfg = config.default_config("hd_curve")
    cfg["experiment"].update(span_near_mm=300.0, span_far_mm=300.0,
                             repeats=2, impostor_pairs=3)
    return experiments.run_hd_curve(cfg)


def test_hd_curve_self_match_is_tight(small_hd):
    assert small_hd.stats["self_match"] < 0.05


def test_hd_curve_in_range_positions_all_match(small_hd):
    assert all(hd < 0.32 for hd in small_hd.stats["mean_hd"].values())


def test_hd_curve_impostors_do_not_match(small_hd):
    assert small_hd.stats["impostor_min"] > 0.32
    assert small_hd.stats["impostor_n"] == 3


def test_multiperson_criteria():
    res = experiments.run_multiperson(config.default_config("multiperson"))
    assert all(res.stats["matched"].values())
    assert all(hd > 0.32 for hd in res.stats["cross_hd"].values())
    assert res.stats["total_ms"] < 1000.0
    assert len(res.frames) == 2


def test_iom_tracks_the_walker():
    res = experiments.run_iom(config.default_config("iom"))
    v = res.stats["variants"]
    assert v["jitter"]["qualified"] >= 3
    assert v["nojitter"]["qualified"] >= 10
    for variant in v.values():
        assert all(2400.0 <= r <= 3400.0 for r in variant["ranges_mm"])


def test_write_result_outputs(tmp_path, table):
    experiments.write_result(table, tmp_path, dump_frames=True)
    assert (tmp_path / "dof_table.csv").exists()
    assert (tmp_path / "summary.txt").read_text().startswith("dof_table:")
    # no frames from an optics-only table
    assert not (tmp_path / "frames").exists()
