import importlib
import json
from pathlib import Path

import pytest

from irissim import cli, config, experiments


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


def test_calibrate_reports_all_constants(tmp_path, capsys):
    assert cli.main(["calibrate", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "calibration.txt").read_text()
    for name in ("coc_mm", "pixel_scale_cal", "sharpness_min", "k_ast"):
        assert name in text
    assert capsys.readouterr().out.count("solved") == 4


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
                               "quality": {"sharpness_min": 1e9}}))
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


def _exits_2_naming(tmp_path, capsys, command, cfg, words):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    for word in words:
        assert word in err
    assert not (tmp_path / "out").exists()


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
                    ("'seated'", "jitter envelope", "tilt"))


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


@pytest.mark.parametrize("section, values, words", [
    ("sensor", {"frame_rate_hz": 1e-320}, ("frame rate", "frame period")),
    ("mirror", {"max_speed_dps": 1e-320}, ("max speed", "slew time")),
    ("mirror", {"resolution_deg": 1e-320}, ("resolution", "snap grid")),
    ("lens", {"repeatability_dpt": 1e6}, ("repeatability", "power range")),
])
def test_device_value_without_a_finite_run_exits_2(tmp_path, capsys, section,
                                                   values, words):
    cfg = config.default_config("multiperson")
    cfg[section] = values
    _exits_2_naming(tmp_path, capsys, "multiperson", cfg, words)


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


@pytest.mark.parametrize("span_mm, ok", [(2100.0, True), (2000.0, False)])
def test_hd_check_takes_the_gate_dof_of_the_swept_train(span_mm, ok):
    # the 3 m train's gate passes 2560 .. 4620 mm; the 5 m train's spans 3900 mm
    cfg = config.validate_config({"version": 1,
                                  "experiment": {"kind": "hd_curve", "base_mm": 3000.0}})
    stats = {"base_mm": 3000.0, "train": config.base_train(cfg, 3000.0),
             "positions": [3000.0], "mean_hd": {3000.0: 0.0}, "self_match": 0.0,
             "span_mm": span_mm, "impostor_n": 0}
    result = experiments.ExperimentResult(name="hd_curve", header=(), rows=[],
                                          summary=[], stats=stats)
    failures = cli._check_failures("hd_curve", result)
    assert failures == ([] if ok else
                        ["hd dof 2000 mm below the gate dof 2059.84 mm"])


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
    ("dof-extension", {"kind": "dof_extension", "grid_mm": 0.01}, "12150015"),
    ("dof-extension", {"kind": "dof_extension", "repeats": 1_000_000}, "2433000000"),
    ("hd-curve", {"kind": "hd_curve", "grid_mm": 0.01}, "3200106"),
    ("hd-curve", {"kind": "hd_curve", "impostor_pairs": 10_000_000}, "20000326"),
])
def test_sweep_queuing_too_many_renders_exits_2(tmp_path, capsys, command,
                                                experiment, count):
    cfg = {"version": 1, "experiment": experiment}
    _exits_2_naming(tmp_path, capsys, command, cfg,
                    (f"queues up to {count} renders", str(config.MAX_RENDERS)))


def test_canonical_and_benchmark_configs_stay_under_the_render_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = [config.default_config(kind) for kind in config._DEFAULTS]
    configs += [cfg for w in workloads.WORKLOADS.values()
                for cfg in workloads.configs_for(w, 0)]
    for cfg in configs:
        config.validate_config(cfg)
        assert config.queued_renders(cfg["experiment"]) <= config.MAX_RENDERS
    assert config.queued_renders(config.default_config("dof_extension")["experiment"]) \
        == 12_165
