import json

import pytest

from irissim import config
from irissim.config import ConfigError


@pytest.mark.parametrize("kind", list(config._DEFAULTS))
def test_default_configs_validate(kind):
    cfg = config.default_config(kind)
    assert cfg["experiment"]["kind"] == kind


@pytest.mark.parametrize("kind", list(config._DEFAULTS))
def test_kind_only_config_takes_the_canonical_experiment(kind):
    cfg = config.validate_config({"version": 1, "experiment": {"kind": kind}})
    assert cfg["experiment"] == config.default_config(kind)["experiment"]
    assert cfg["seed"] == 0


def test_unknown_top_level_key_rejected():
    cfg = {"version": 1, "experiment": {"kind": "dof_table"}, "extra": 1}
    with pytest.raises(ConfigError, match="extra"):
        config.validate_config(cfg)


def test_unknown_nested_key_rejected():
    cfg = {"version": 1, "experiment": {"kind": "dof_table", "oops": True}}
    with pytest.raises(ConfigError, match="oops"):
        config.validate_config(cfg)


def test_version_required_and_pinned():
    with pytest.raises(ConfigError, match="version"):
        config.validate_config({"experiment": {"kind": "dof_table"}})
    with pytest.raises(ConfigError, match="version"):
        config.validate_config({"version": 99, "experiment": {"kind": "dof_table"}})


def test_lens_power_outside_hardware_envelope_rejected():
    cfg = {"version": 1, "experiment": {"kind": "dof_table"},
           "lens": {"power_max_dpt": 11.0}}
    with pytest.raises(ConfigError, match="power_max_dpt"):
        config.validate_config(cfg)


def test_mirror_tilt_outside_envelope_rejected():
    cfg = {"version": 1, "experiment": {"kind": "dof_table"},
           "mirror": {"tilt_max_deg": 75.0}}
    with pytest.raises(ConfigError):
        config.validate_config(cfg)


def test_unordered_lens_range_rejected():
    cfg = {"version": 1, "experiment": {"kind": "dof_table"},
           "lens": {"power_min_dpt": 5.0, "power_max_dpt": -5.0}}
    with pytest.raises(ConfigError, match="ordered"):
        config.validate_config(cfg)


def test_exposure_must_fit_in_frame():
    cfg = {"version": 1, "experiment": {"kind": "dof_table"},
           "sensor": {"exposure_ms": 60.0}}
    with pytest.raises(ConfigError, match="exposure"):
        config.validate_config(cfg)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config.default_config("iom")))
    cfg = config.load_config(path)
    assert cfg["experiment"]["kind"] == "iom"


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="cannot read"):
        config.load_config(path)


def test_train_rebase_keeps_fractional_separation():
    cfg = config.default_config("dof_extension")
    train = config.train_from_config(cfg, f_zoom_mm=210.0, d_ref_mm=3000.0)
    assert train.f_zoom_mm == 210.0
    assert train.d_ot_mm == pytest.approx(0.895 * train.image_distance_ref_mm)


def test_subject_entries_require_all_fields():
    cfg = config.default_config("multiperson")
    del cfg["experiment"]["subjects"][0]["height_mm"]
    with pytest.raises(ConfigError, match="height_mm"):
        config.validate_config(cfg)
