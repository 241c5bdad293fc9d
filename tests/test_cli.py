import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from irissim import cli, config, experiments, optics


def test_dof_table_writes_outputs(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["dof-table", "--out", str(out)]) == 0
    assert (out / "dof_table.csv").exists()
    assert (out / "summary.txt").exists()


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["dof-table", "--out", str(out_a), "--check"]) == 0
    assert cli.main(["dof-table", "--out", str(out_b), "--check"]) == 0
    assert (out_a / "dof_table.csv").read_bytes() == (out_b / "dof_table.csv").read_bytes()


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1,
                               "experiment": {"kind": "dof_table"},
                               "lens": {"power_max_dpt": 99.0}}))
    assert cli.main(["dof-table", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2


def test_kind_mismatch_exits_2(tmp_path):
    cfg = tmp_path / "iom.json"
    cfg.write_text(json.dumps(config.default_config("iom")))
    assert cli.main(["dof-table", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def test_failed_check_exits_3(tmp_path):
    # past 5.5 m the bare-lens dof exceeds the 110 mm bound, so --check trips
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"version": 1,
                               "experiment": {"kind": "dof_table",
                                              "distances_mm": [6000.0]}}))
    assert cli.main(["dof-table", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--check"]) == 3


def test_seed_override(tmp_path):
    out = tmp_path / "seeded"
    assert cli.main(["multiperson", "--out", str(out), "--seed", "7"]) == 0
    assert (out / "multiperson.csv").exists()


# what the solvers print for the frozen inputs: a change to what they read
# shows as a text diff here, not as a drift inside a tolerance
CALIBRATION_TXT = """\
coc_mm: solved 0.04993986124  frozen 0.0499
pixel_scale_cal: solved 1.72359538  frozen 1.7235954
sharpness_min: solved 0.03016553602  frozen 0.0301655
k_ast: solved 0.1908001709  frozen 0.1908002
"""


def test_calibrate_reports_all_constants(tmp_path, capsys):
    assert cli.main(["calibrate", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "calibration.txt").read_text() == CALIBRATION_TXT
    assert capsys.readouterr().out == CALIBRATION_TXT


def test_check_hd_curve_with_a_single_position():
    # a span shorter than half the grid leaves the focal plane alone
    cfg = config.default_config("hd_curve")
    cfg["experiment"].update(span_near_mm=10.0, span_far_mm=10.0, repeats=1,
                             impostor_pairs=0)
    result = experiments.run_hd_curve(cfg)
    assert result.stats["positions"] == [5000.0]
    failures = cli._check_failures("hd_curve", result)
    assert isinstance(failures, list)
    assert any("below the gate dof" in msg for msg in failures)


def test_check_names_every_subject_that_never_qualified(tmp_path, capsys):
    cfg = tmp_path / "blind.json"
    cfg.write_text(json.dumps({"version": 1,
                               "experiment": {"kind": "multiperson"},
                               "quality": {"sharpness_min": 1.0}}))
    assert cli.main(["multiperson", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--check"]) == 3
    err = capsys.readouterr().err
    assert "seated never qualified" in err
    assert "standing never qualified" in err
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "multiperson: seated never qualified, self-match NO" in summary
    assert "never ms" not in summary


def test_duplicate_subject_ids_exit_2(tmp_path, capsys):
    cfg = config.default_config("multiperson")
    cfg["experiment"]["subjects"][1]["subject_id"] = "seated"
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["multiperson", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "'seated' appears more than once" in capsys.readouterr().err


@pytest.mark.parametrize("subject_id", ["../../escaped", "a/b", "a\n", ""])
def test_subject_id_unsafe_in_a_file_name_exits_2(tmp_path, capsys, subject_id):
    # --dump-frames names each frame file after its subject id
    cfg = config.default_config("multiperson")
    cfg["experiment"]["subjects"][1]["subject_id"] = subject_id
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ["config invalid at experiment/subjects/1/subject_id"],
                    flags=["--dump-frames"])
    assert not list(tmp_path.rglob("*.pgm"))


@pytest.mark.parametrize("distance_mm", [1500.0, 12000.0])
def test_subject_beyond_focus_reach_exits_2(tmp_path, capsys, distance_mm):
    cfg = config.default_config("multiperson")
    cfg["experiment"]["subjects"][1]["distance_mm"] = distance_mm
    path = tmp_path / "far.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["multiperson", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "subject 'standing'" in err
    assert "outside the lens range" in err


def test_kind_only_multiperson_config_runs(tmp_path):
    cfg = tmp_path / "mp.json"
    cfg.write_text(json.dumps({"version": 1, "experiment": {"kind": "multiperson"}}))
    assert cli.main(["multiperson", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0


def _exits_2_naming(tmp_path, capsys, command, cfg, words, flags=()):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    for word in words:
        assert word in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("command, section, flags", [
    # a NaN settle time ended in "cannot convert float NaN to integer"
    ("multiperson", lambda v: {"lens": {"settle_ms": v}}, ()),
    # a NaN floor switched the sharpness gate off, and the check passed
    ("multiperson", lambda v: {"quality": {"sharpness_min": v}}, ("--check",)),
    # a NaN distance wrote a nan row, and the summary quoted the other row alone
    ("dof-table", lambda v: {"experiment": {"kind": "dof_table", "distances_mm": [5000.0, v]}},
     ()),
    # a NaN blur tolerance ran to exit 0
    ("multiperson", lambda v: {"train": {"coc_mm": v}}, ()),
], ids=["lens.settle_ms", "quality.sharpness_min", "dof_table.distances_mm", "train.coc_mm"])
def test_non_finite_number_in_a_config_exits_2(tmp_path, capsys, command, section, flags,
                                               value):
    # json.dumps writes the value as NaN, Infinity or -Infinity: Python's json
    # reads those back, but JSON has no such numbers
    cfg = {"version": 1, "experiment": {"kind": command.replace("-", "_")}, **section(value)}
    _exits_2_naming(tmp_path, capsys, command, cfg,
                    (f"{json.dumps(value)} is not a finite number",), flags)


@pytest.mark.parametrize("command, experiment, key", [
    ("iom", {"n_frames": 10 ** 310}, "n_frames"),
    ("multiperson", {"dwell_budget": 10 ** 310}, "dwell_budget"),
    ("hd-curve", {"impostor_pairs": 10 ** 310}, "impostor_pairs"),
    ("dof-extension", {"repeats": 10 ** 310}, "repeats"),
    ("hd-curve", {"span_near_mm": 10 ** 310}, "span_near_mm"),
    ("dof-extension", {"grid_mm": 10 ** 310}, "grid_mm"),
    ("dof-table", {"distances_mm": [5000.0, 10 ** 310]}, "distances_mm/1"),
], ids=["iom.n_frames", "multiperson.dwell_budget", "hd_curve.impostor_pairs",
        "dof_extension.repeats", "hd_curve.span_near_mm", "dof_extension.grid_mm",
        "dof_table.distances_mm"])
def test_integer_past_the_float_range_exits_2_naming_the_key(tmp_path, capsys, command,
                                                              experiment, key):
    # each ended in "OverflowError: int too large to convert to float"
    cfg = {"version": 1, "experiment": {"kind": command.replace("-", "_"), **experiment}}
    _exits_2_naming(tmp_path, capsys, command, cfg,
                    (f"config invalid at experiment/{key}: an integer of 1030 bits is past "
                     "the float range",))


def test_hd_curve_reaching_past_the_zoom_focal_length_exits_2(tmp_path, capsys):
    # 52 grid steps short of a 5 m base is -200 mm
    cfg = {"version": 1, "experiment": {"kind": "hd_curve", "base_mm": 5000.0,
                                        "span_near_mm": 5200.0}}
    _exits_2_naming(tmp_path, capsys, "hd-curve", cfg,
                    ("-200 mm", "zoom focal length"))


def test_dof_extension_base_without_a_train_exits_2(tmp_path, capsys):
    # at 200 mm the re-zoomed train would need a 96 mm separation behind a 70 mm lens
    cfg = {"version": 1, "experiment": {"kind": "dof_extension",
                                        "base_distances_mm": [5000.0, 200.0]}}
    _exits_2_naming(tmp_path, capsys, "dof-extension", cfg,
                    ("base 200 mm", "lens separation"))


def test_hd_curve_base_without_a_train_exits_2_naming_the_base(tmp_path, capsys):
    # at 3 m the re-zoomed lens is 210 mm long, shorter than the set 300 mm separation
    cfg = {"version": 1, "train": {"d_ot_mm": 300.0},
           "experiment": {"kind": "hd_curve", "base_mm": 3000.0, "span_near_mm": 1400.0,
                          "span_far_mm": 2400.0}}
    _exits_2_naming(tmp_path, capsys, "hd-curve", cfg,
                    ("config error: hd_curve base 3000 mm: lens separation 300 mm must lie in "
                     "(0, 210)\n",))


def test_dof_table_distance_inside_the_focal_length_exits_2(tmp_path, capsys):
    cfg = {"version": 1, "experiment": {"kind": "dof_table",
                                        "distances_mm": [5000.0, 100.0]}}
    _exits_2_naming(tmp_path, capsys, "dof-table", cfg,
                    ("100 mm", "zoom focal length 350 mm"))


def test_subject_outside_the_mirror_tilt_range_exits_2(tmp_path, capsys):
    # 1 mm out and 5 m tall: the eye is almost straight above the mirror
    cfg = config.default_config("multiperson")
    cfg["experiment"]["subjects"][0].update(distance_mm=1.0, height_mm=5000.0)
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("'seated'", "tilt", "outside (-60.0, 60.0)"))


@pytest.mark.parametrize("command, experiment, words", [
    ("dof-extension", {"kind": "dof_extension", "base_distances_mm": [200.0]},
     ("base 200 mm", "mirror-to-lens leg")),
    ("hd-curve", {"kind": "hd_curve", "base_mm": 1000.0, "span_near_mm": 800.0},
     ("nearest position 200 mm", "mirror-to-lens leg")),
])
def test_probe_at_the_mirror_to_lens_leg_exits_2(tmp_path, capsys, command,
                                                 experiment, words):
    # a 10 mm lens separation makes the 200 mm train valid, but the probe
    # would put the eye on the mirror centre
    cfg = {"version": 1, "experiment": experiment, "train": {"d_ot_mm": 10.0}}
    _exits_2_naming(tmp_path, capsys, command, cfg, words)


def test_subject_jittering_out_of_the_mirror_tilt_range_exits_2(tmp_path, capsys):
    # standing, the eye needs tilt 59.9996 deg; at seed 3 its jitter takes
    # the aim to 60.07 deg, and the 4 sigma envelope reaches 60.14 deg
    cfg = config.default_config("multiperson")
    cfg["seed"] = 3
    cfg["experiment"]["subjects"][0].update(distance_mm=3000.0, height_mm=3052.0)
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("'seated' over its motion envelope", "tilt 60.135"))


def test_scan_cut_by_its_guard_fails_the_check(tmp_path, capsys):
    # a 10 mm lens separation keeps the 400 mm gate passing from the probe
    # leg out to 3x the base, so neither limit is found
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "version": 1, "train": {"d_ot_mm": 10.0},
        "experiment": {"kind": "dof_extension", "base_distances_mm": [400.0],
                       "grid_mm": 50.0, "repeats": 1}}))
    assert cli.main(["dof-extension", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--check"]) == 3
    captured = capsys.readouterr()
    assert "front ≥ 0.15 m, rear ≥ 0.8 m, total ≥ 0.95 m" in captured.out
    for side in ("front", "rear"):
        assert f"base 400 mm: the {side} scan reached its guard" in captured.err


def test_lens_repeatability_wider_than_its_power_range_exits_2(tmp_path, capsys):
    cfg = config.default_config("multiperson")
    cfg["lens"] = {"power_min_dpt": -1.0, "power_max_dpt": 1.0, "repeatability_dpt": 5.0}
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("repeatability 5 dpt", "power range (-1.0, 1.0)"))


def test_filtered_lens_settling_before_its_response_exits_2(tmp_path, capsys):
    cfg = config.default_config("multiperson")
    cfg["lens"] = {"response_ms": 40.0, "settle_ms": 40.0, "mode": "filtered"}
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("settle time 20 ms", "40 ms response"))


def test_empty_brightness_window_exits_2(tmp_path, capsys):
    # it failed every multiperson frame on brightness, and exited 0 unchecked
    cfg = config.default_config("multiperson") | {"quality": {"brightness_lo": 200,
                                                              "brightness_hi": 100}}
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("config error: brightness window [200, 100] is empty",))
    cfg["quality"]["brightness_hi"] = 200  # a one-value window holds that value
    config.validate_config(cfg)


def test_filtered_settle_time_has_no_key_of_its_own(tmp_path, capsys):
    # the filtered drive settles in half of settle_ms
    cfg = config.default_config("multiperson") | {"lens": {"settle_filtered_ms": 12.5}}
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("config invalid at lens: ", "'settle_filtered_ms' was unexpected"))


@pytest.mark.parametrize("command, kind", [("dof-extension", "dof_extension"),
                                           ("hd-curve", "hd_curve")])
@pytest.mark.parametrize("key, value", [("f_zoom_mm", 200.0), ("d_ref_mm", 3000.0)])
def test_sweep_setting_the_zoom_or_focus_it_sets_itself_exits_2(tmp_path, capsys, command,
                                                                kind, key, value):
    cfg = {"version": 1, "experiment": {"kind": kind}, "train": {key: value}}
    _exits_2_naming(tmp_path, capsys, command, cfg, (f"train.{key}", kind))


def test_dof_table_zoom_in_the_experiment_section_exits_2(tmp_path, capsys):
    # the zoom has one key, train.f_zoom_mm
    cfg = {"version": 1, "experiment": {"kind": "dof_table", "f_zoom_mm": 200.0}}
    _exits_2_naming(tmp_path, capsys, "dof-table", cfg, ("f_zoom_mm",))


def test_dof_table_takes_its_zoom_from_the_train(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"version": 1, "experiment": {"kind": "dof_table"},
                                "train": {"f_zoom_mm": 200.0}}))
    assert cli.main(["dof-table", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    assert "dof_table: f = 200 mm at f/4.8" in capsys.readouterr().out


def test_negative_seed_exits_2(tmp_path, capsys):
    assert cli.main(["iom", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "config invalid at seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_past_the_float_range_exits_2(tmp_path, capsys):
    # a 400-digit seed passed validation
    assert cli.main(["iom", "--seed", "1" + "0" * 399, "--out", str(tmp_path / "out")]) == 2
    assert "config invalid at seed: an integer of 1326 bits" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _hd_check(cfg, base_mm, span_mm, mean_hd=None):
    """The hd_curve --check failures of a curve spanning ``span_mm`` at ``base_mm``,
    with mean hd ``mean_hd`` by position (0 at the base alone if None)."""
    mean_hd = mean_hd or {base_mm: 0.0}
    stats = {"base_mm": base_mm, "rig": config.rig_from_config(cfg, base_mm),
             "positions": sorted(mean_hd), "mean_hd": mean_hd, "self_match": 0.0,
             "span_mm": span_mm, "impostor_n": 0}
    result = experiments.ExperimentResult(name="hd_curve", header=(), rows=[],
                                          summary=[], stats=stats)
    return cli._check_failures("hd_curve", result)


@pytest.mark.parametrize("far_hd, failures", [
    ((0.20, 0.30, 0.27), ["hd backslides 0.03 between adjacent points, want <= 0.02"]),
    # past the 0.32 threshold the pillbox disk's spurious resolution brings contrast back
    ((0.30, 0.45, 0.42), []),
    ((0.30, 0.35, 0.30), []),
], ids=["below", "above", "across"])
def test_hd_check_bounds_backslides_below_the_match_threshold_alone(far_hd, failures):
    cfg = config.validate_config({"version": 1, "experiment": {"kind": "hd_curve"}})
    mean_hd = {4900.0: 0.02, 5000.0: 0.01} | dict(zip((5100.0, 5200.0, 5300.0), far_hd))
    assert _hd_check(cfg, 5000.0, 4000.0, mean_hd) == failures


@pytest.mark.parametrize("span_mm, ok", [(2100.0, True), (2000.0, False)])
def test_hd_check_takes_the_gate_dof_of_the_swept_train(span_mm, ok):
    # the 3.4 m train's gate passes 2837 mm to the -10 dpt reach, 4872 mm (its
    # resolution gate alone would pass to 5236 mm); the 5 m train's spans 3900 mm
    # (the canonical 2.4 m near span would end at 1000 mm, in a 994 px disk)
    cfg = config.validate_config({"version": 1,
                                  "experiment": {"kind": "hd_curve", "base_mm": 3400.0,
                                                 "span_near_mm": 1000.0}})
    assert _hd_check(cfg, 3400.0, span_mm) == (
        [] if ok else ["hd dof 2000 mm below the gate dof 2035.22 mm"])


@pytest.mark.parametrize("span_mm, ok", [(2900.0, True), (2700.0, False)])
def test_hd_check_takes_the_gate_dof_of_the_rigs_lens_range(span_mm, ok):
    # a +-5 dpt lens focuses 3746 .. 6529 mm from the 5 m base: the gate passes
    # 3800 .. 6529 mm, not the +-10 dpt lens's 3800 .. 7700 mm
    cfg = config.validate_config({"version": 1, "experiment": {"kind": "hd_curve"},
                                  "lens": {"power_min_dpt": -5.0, "power_max_dpt": 5.0}})
    assert _hd_check(cfg, 5000.0, span_mm) == (
        [] if ok else ["hd dof 2700 mm below the gate dof 2729.19 mm"])


@pytest.mark.parametrize("min_px", [1.0, 10000.0])
def test_hd_check_with_a_resolution_gate_open_past_the_far_reach_or_shut_at_the_base(
        tmp_path, min_px):
    # 1 px: the gate still passes at the -10 dpt reach; 10000 px: it fails at the base
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "version": 1, "quality": {"min_px_across_iris": min_px},
        "experiment": {"kind": "hd_curve", "grid_mm": 1000, "span_near_mm": 1000,
                       "span_far_mm": 1000, "repeats": 1, "impostor_pairs": 0}}))
    assert cli.main(["hd-curve", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--check"]) in (0, 3)


def test_dof_table_check_at_another_zoom_keeps_only_the_ordering(tmp_path, capsys):
    # the 91 mm and 110 mm anchors describe the 350 mm lens's table
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"version": 1, "experiment": {"kind": "dof_table"},
                                "train": {"f_zoom_mm": 200.0}}))
    assert cli.main(["dof-table", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--check"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    stats = {"f_zoom_mm": 200.0, "distances_mm": [4000.0, 5000.0],
             "totals_mm": [300.0, 290.0], "increasing": False}
    result = experiments.ExperimentResult(name="dof_table", header=(), rows=[],
                                          summary=[], stats=stats)
    assert cli._check_failures("dof_table", result) == [
        "dof not strictly increasing with distance"]


@pytest.mark.parametrize("command, experiment, count", [
    # searching the six 10 um walks (2.4 million cells) probes at most 236 per
    # repeat, the three base cells counted once: 233
    ("dof-extension", {"kind": "dof_extension", "grid_mm": 0.01, "repeats": 1000},
     "233000"),
    ("dof-extension", {"kind": "dof_extension", "repeats": 100_000}, "11300000"),
    ("hd-curve", {"kind": "hd_curve", "grid_mm": 0.01}, "3200017"),
    # two walker variants and one enrolment
    ("iom", {"kind": "iom", "n_frames": 100_000}, "200001"),
    # one enrolment and the whole dwell budget per subject
    ("multiperson", {"kind": "multiperson", "dwell_budget": 100_000}, "200002"),
])
def test_sweep_queuing_too_many_renders_exits_2(tmp_path, capsys, command,
                                                experiment, count):
    cfg = {"version": 1, "experiment": experiment}
    _exits_2_naming(tmp_path, capsys, command, cfg,
                    (f"queues up to {count} renders", str(config.MAX_RENDERS)))


def test_hd_curve_with_the_most_impostor_pairs_validates():
    # 100,000 pairs are drawn from 448 identities, one render each
    cfg = config.validate_config({"version": 1, "experiment": {
        "kind": "hd_curve", "impostor_pairs": 100_000}})
    assert config.queued_renders(cfg["experiment"]) == 326 + 448


def test_canonical_and_benchmark_configs_stay_under_the_render_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = [config.default_config(kind) for kind in config._EXPERIMENTS]
    configs += [cfg for w in workloads.WORKLOADS.values()
                for cfg in workloads.configs_for(w, 0)]
    for cfg in configs:
        config.validate_config(cfg)
        assert config.queued_renders(cfg["experiment"]) <= config.MAX_RENDERS
    assert config.queued_renders(config.default_config("dof_extension")["experiment"]) \
        == 565


@pytest.mark.parametrize("experiment, rig, words", [
    # each walk crosses the mirror within its window, so the jitter box around
    # it reaches the mirror centre, a 200 mm line of sight
    ({"n_frames": 101}, {}, ("jitter walker at its nearest (200 mm line of sight)",
                             "inside the zoom focal length 210 mm")),
    ({"n_frames": 2, "start_y_mm": 530.0}, {},
     ("jitter walker at its nearest (200 mm line of sight)",
      "inside the zoom focal length 210 mm")),
    ({"n_frames": 2, "start_y_mm": 545.0}, {},
     ("jitter walker at its nearest (200 mm line of sight)",
      "inside the zoom focal length 210 mm")),
    # a mirror 980 mm below the eye needs over 60 deg of tilt inside 1.7 m
    ({"n_frames": 3, "start_y_mm": 2250.0}, {"mirror_height_mm": 600.0},
     ("jitter walker over its motion envelope", "tilt 60.64")),
    # nearer than 1.1 m the lens, clamped at +10 dpt, blurs the eye wider
    # than the frame
    ({"n_frames": 80}, {}, ("jitter walker at its nearest (871.746 mm line of sight)",
                            "out of focus reach", "wider than the 640 px frame")),
])
def test_iom_walker_that_cannot_be_imaged_fails_validation(experiment, rig, words):
    cfg = config.default_config("iom")
    cfg["experiment"].update(experiment)
    cfg["rig"].update(rig)
    with pytest.raises(config.ConfigError) as err:
        config.validate_config(cfg)
    for word in words:
        assert word in str(err.value)


_TWO_SUBJECTS = [{"subject_id": "far", "identity_seed": 1, "distance_mm": 1e300,
                  "height_mm": 1700.0},
                 {"subject_id": "near", "identity_seed": 2, "distance_mm": 3000.0,
                  "height_mm": 1700.0}]


@pytest.mark.parametrize("command, experiment, sections, where", [
    # numpy overflowed squaring the walk for its line of sight, then quoted an inf one
    ("iom", {"speed_mmps": 1e300}, {}, "experiment/speed_mmps"),
    # numpy overflowed scaling the walk's velocity by the window's end
    ("iom", {"speed_mmps": 1e300, "start_frame": 10 ** 10}, {}, "experiment/start_frame"),
    ("iom", {"height_mm": 1e300}, {}, "experiment/height_mm"),
    ("iom", {}, {"rig": {"mirror_height_mm": 1e300}}, "rig/mirror_height_mm"),
    ("multiperson", {"subjects": _TWO_SUBJECTS}, {}, "experiment/subjects/0/distance_mm"),
    # the frame times overflowed to inf, and the walk turned NaN with a RuntimeWarning
    ("iom", {"start_frame": 1.7e308}, {}, "experiment/start_frame"),
    # a walk too long to index in floats queued inf renders
    ("dof-extension", {"grid_mm": 5e-324}, {}, "experiment/grid_mm"),
    # each gave an infinite frame period, snap grid or full-range slew time
    ("multiperson", {}, {"sensor": {"frame_rate_hz": 1e-320}}, "sensor/frame_rate_hz"),
    ("multiperson", {}, {"mirror": {"max_speed_dps": 1e-320}}, "mirror/max_speed_dps"),
    ("multiperson", {}, {"mirror": {"resolution_deg": 1e-320}}, "mirror/resolution_deg"),
], ids=["speed", "speed-and-start", "height", "mirror", "subject", "start-frame", "grid",
        "frame-rate", "max-speed", "resolution"])
def test_number_past_its_schema_bound_exits_2_naming_its_key(tmp_path, capsys, command,
                                                              experiment, sections, where):
    cfg = {"version": 1, "experiment": {"kind": command.replace("-", "_"), **experiment},
           **sections}
    _exits_2_naming(tmp_path, capsys, command, cfg, (f"config invalid at {where}: ",))


@pytest.mark.parametrize("scale", [1e300])
def test_pixel_scale_past_its_bound_exits_2(tmp_path, capsys, scale):
    # 1e300 asked for an array past numpy's size limit
    cfg = config.default_config("multiperson") | {"train": {"pixel_scale_cal": scale}}
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    (f"config invalid at train/pixel_scale_cal: {scale!r} is greater than "
                     "the maximum of 1000000.0",))
    cfg["train"]["pixel_scale_cal"] = 20.0
    config.validate_config(cfg)


@pytest.mark.parametrize("scale, crop", [(22.0, 4084), (25.0, 4640), (100.0, 18556)])
def test_crop_wider_than_the_sensor_exits_2(tmp_path, capsys, scale, crop):
    # at 20 the seated subject's crop is 3712 px and a run takes about 1 GB;
    # 100 asked np.hypot for a 152 GiB array
    cfg = config.default_config("multiperson") | {"train": {"pixel_scale_cal": scale}}
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("subject 'seated'", f"a {crop} px crop wider than the 4080 px sensor"))


def test_pixel_scale_bounds_only_the_kinds_that_render(tmp_path, capsys):
    # dof_table renders nothing, and its bytes do not read the scale
    canonical = tmp_path / "canonical"
    assert cli.main(["dof-table", "--out", str(canonical)]) == 0
    for scale in (50.0, 1e6):
        cfg = config.default_config("dof_table") | {"train": {"pixel_scale_cal": scale}}
        path, out = tmp_path / f"{scale}.json", tmp_path / f"{scale}"
        path.write_text(json.dumps(cfg))
        assert cli.main(["dof-table", "--config", str(path), "--out", str(out)]) == 0
        for name in ("dof_table.csv", "summary.txt"):
            assert (out / name).read_bytes() == (canonical / name).read_bytes()
    for command, sight in [("dof-extension", "base 1000 mm's nearest cell 300 mm"),
                           ("hd-curve", "nearest position 2600 mm"),
                           ("multiperson", "subject 'seated'"),
                           ("iom", "iom enrolment at 3200 mm")]:
        cfg = config.default_config(command.replace("-", "_"))
        cfg["train"] = cfg.get("train", {}) | {"pixel_scale_cal": 1e6}
        _exits_2_naming(tmp_path, capsys, command, cfg,
                        (sight, "crop wider than the 4080 px sensor"))


def test_dof_extension_nearest_cell_wider_than_the_sensor_exits_2(tmp_path, capsys):
    # the base cell's crop fits; the front walk's last cell, 0.3 of the base, does not
    cfg = {"version": 1, "seed": 0,
           "experiment": {"kind": "dof_extension", "base_distances_mm": [1000.0]},
           "train": {"pixel_scale_cal": 17.0}}
    base_px = optics.pixels_across_iris(config.rig_from_config(cfg, 1000.0).train, 1000.0)
    assert 2 * math.ceil(1.3 * base_px / 2.0) <= optics.SENSOR_PX_H
    _exits_2_naming(tmp_path, capsys, "dof-extension", cfg,
                    ("dof_extension base 1000 mm's nearest cell 300 mm",
                     "a 4086 px crop wider than the 4080 px sensor"))


# the command line in a child whose address space is capped at 2 GiB, as is
# every process of its pool: a render that outgrows the cap ends in a traceback
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from irissim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _capped_run(tmp_path, command, cfg, flags=(), timeout=120):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", CAPPED_CLI, command, "--config", str(path),
                           "--out", str(out), *flags],
                          env=env, capture_output=True, text=True, timeout=timeout)
    return done, out


# the lens cannot refocus and every gate is open, so the front walk gallops
# out to cells whose defocus disk is thousands of pixels wide
FAR_OUT_OF_FOCUS = {
    "version": 1, "seed": 0,
    "experiment": {"kind": "dof_extension", "base_distances_mm": [5000.0], "grid_mm": 100.0,
                   "repeats": 1},
    "train": {"n_stop": 0.5},
    "lens": {"power_min_dpt": -0.01, "power_max_dpt": 0.01, "repeatability_dpt": 0.0},
    "quality": {"sharpness_min": 1e-9, "min_px_across_iris": 1e-6,
                "brightness_lo": 0.0, "brightness_hi": 255.0}}


@pytest.mark.parametrize("flags", [(), ("--parallel",)], ids=["serial", "parallel"])
def test_render_wider_than_the_sensor_exits_2_before_it_allocates(tmp_path, flags):
    # validation passes it; the 3400 mm cell's 4555 px disk asked for a
    # 9600 x 9600 transform and ended in a MemoryError
    done, out = _capped_run(tmp_path, "dof-extension", FAR_OUT_OF_FOCUS, flags)
    assert done.returncode == 2, done.stderr
    for word in ("config error: dof_extension: line of sight 3400 mm",
                 "train focused at 5000 mm", "px crop wider than the 4080 px sensor"):
        assert word in done.stderr
    assert not out.exists()


_LENS_HALF_RANGE = st.sampled_from([0.01, 0.1, 1.0, 10.0])


# no shrinking: each candidate is a child process, so shrinking a failure
# takes minutes
@settings(max_examples=6, phases=(Phase.explicit, Phase.generate))
@given(base=st.floats(1000.0, 8000.0), grid=st.floats(100.0, 2000.0),
       n_stop=st.floats(0.5, 8.0), lens=st.tuples(_LENS_HALF_RANGE, _LENS_HALF_RANGE),
       sharpness=st.floats(1e-9, 0.01), min_px=st.floats(1e-6, 100.0),
       brightness=st.tuples(st.floats(0.0, 50.0), st.floats(200.0, 255.0)))
def test_small_dof_extension_runs_or_exits_2_under_a_memory_cap(tmp_path_factory, base, grid,
                                                                 n_stop, lens, sharpness,
                                                                 min_px, brightness):
    cfg = {"version": 1, "seed": 0,
           "experiment": {"kind": "dof_extension", "base_distances_mm": [base],
                          "grid_mm": grid, "repeats": 1},
           "train": {"n_stop": n_stop},
           "lens": {"power_min_dpt": -lens[0], "power_max_dpt": lens[1],
                    "repeatability_dpt": 0.0},
           "quality": {"sharpness_min": sharpness, "min_px_across_iris": min_px,
                       "brightness_lo": brightness[0], "brightness_hi": brightness[1]}}
    # a narrow lens and open gates walk the search far out of focus
    done, _ = _capped_run(tmp_path_factory.mktemp("run"), "dof-extension", cfg, timeout=60)
    event(f"exit {done.returncode}")
    assert done.returncode in (0, 2), done.stderr


@pytest.mark.parametrize("experiment, words", [
    # nearer than about 1.7 m the lens, clamped at +10 dpt, cannot focus
    ({"span_near_mm": 3500.0}, ("nearest position 1500 mm", "966 px defocus disk")),
    ({"span_near_mm": 4500.0}, ("nearest position 500 mm", "5318 px defocus disk")),
    # 100 m out the lens, clamped at -10 dpt, cannot focus either
    ({"span_far_mm": 95000.0}, ("farthest position 100000 mm", "742 px defocus disk")),
])
def test_hd_curve_blurring_wider_than_the_frame_exits_2(tmp_path, capsys, experiment, words):
    cfg = {"version": 1, "experiment": {"kind": "hd_curve", **experiment}}
    _exits_2_naming(tmp_path, capsys, "hd-curve", cfg,
                    words + ("out of focus reach", "wider than the 640 px frame"))


def test_iom_walker_leaving_focus_reach_validates():
    # the last of 60 frames is at a 1.54 m line of sight, 0.67 m nearer than the
    # lens can focus, so the lens clamps
    cfg = config.default_config("iom")
    cfg["experiment"]["n_frames"] = 60
    config.validate_config(cfg)


@pytest.mark.parametrize("train, lens, words", [
    # the enrolment stands at d_ref_mm; from about 28 m it spans under 24 px
    ({"d_ref_mm": 33000.0}, {}, ("iom enrolment", "20.3", "fewer than the 24 px")),
    ({"d_ref_mm": 45000.0}, {}, ("iom enrolment", "14.8", "fewer than the 24 px")),
    # the lens cannot reach the 0 dpt that focuses the enrolment
    ({}, {"power_min_dpt": 6.0}, ("iom enrolment", "outside the lens range [6, 10] dpt")),
])
def test_iom_enrolment_that_cannot_be_detected_exits_2(tmp_path, capsys, train, lens, words):
    cfg = config.default_config("iom")
    cfg["experiment"]["n_frames"] = 1
    cfg["train"].update(train)
    cfg["lens"] = lens
    _exits_2_naming(tmp_path, capsys, "iom", cfg, words)


def test_multiperson_enrolment_too_small_to_detect_exits_2(tmp_path, capsys):
    # a 70 mm zoom images a subject 20 m out 11 px across the iris
    cfg = config.default_config("multiperson")
    cfg["train"] = {"f_zoom_mm": 70.0, "d_ref_mm": 20000.0}
    cfg["experiment"]["subjects"][0].update(distance_mm=20000.0)
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg,
                    ("subject 'seated'", "px across the iris", "fewer than the 24 px"))


@pytest.mark.parametrize("command, experiment, key, value", [
    ("iom", {}, "n_frames", 3),
    ("iom", {"n_frames": 2}, "start_frame", 3),
    ("dof-extension", {"base_distances_mm": [5000.0], "grid_mm": 200.0}, "repeats", 2),
    ("hd-curve", {"grid_mm": 1000.0, "impostor_pairs": 1}, "repeats", 1),
    ("hd-curve", {"grid_mm": 1000.0, "repeats": 1}, "impostor_pairs", 1),
    ("multiperson", {}, "dwell_budget", 2),
])
def test_integral_float_count_runs_as_its_int_twin(tmp_path, command, experiment, key, value):
    # the schema takes 3.0 as an integer; the runners once ended in "'float' object
    # cannot be interpreted as an integer"
    outs = []
    for twin in (value, float(value)):
        cfg = {"version": 1, "experiment": {"kind": command.replace("-", "_"),
                                            **experiment, key: twin}}
        path, out = tmp_path / f"{twin!r}.json", tmp_path / f"{twin!r}"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


@pytest.mark.parametrize("experiment, words", [
    # an unhashable kind cannot key a table lookup
    *(({"kind": kind}, f"config invalid at experiment/kind: {kind!r} is not one of "
                       "['dof_table'") for kind in ({}, [], None, 1, "dof-table")),
    ({"kind": "iom", "n_frames": 2.5},
     "config invalid at experiment/n_frames: 2.5 is not of type 'integer'"),
], ids=repr)
def test_bad_experiment_section_exits_2_naming_the_key(tmp_path, capsys, experiment, words):
    cfg = {"version": 1, "experiment": experiment}
    _exits_2_naming(tmp_path, capsys, "iom", cfg, [words])
