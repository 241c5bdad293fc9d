import copy
import dataclasses
import json

import pytest

from irissim import config, optics
from irissim.config import ConfigError
from irissim.devices import LensParams, MirrorParams, SensorParams
from irissim.optics import OpticalTrain
from irissim.quality import QualityThresholds
from irissim.scene import RigGeometry

# every key the schema allows in the device sections, each off its default
FULL_DEVICES = {
    "train": {"f_zoom_mm": 300.0, "n_stop": 5.6, "d_ref_mm": 4500.0,
              "d_ot_mm": 250.0, "coc_mm": 0.05, "pixel_scale_cal": 1.5},
    "lens": {"power_min_dpt": -8.0, "power_max_dpt": 9.0, "response_ms": 4.0,
             "settle_ms": 20.0, "settle_filtered_ms": 10.0,
             "repeatability_dpt": 0.05, "mode": "filtered"},
    "mirror": {"pan_min_deg": -90.0, "pan_max_deg": 90.0, "tilt_min_deg": -30.0,
               "tilt_max_deg": 50.0, "resolution_deg": 0.02, "max_speed_dps": 10000.0},
    "sensor": {"frame_rate_hz": 25.0, "exposure_ms": 2.5},
    "rig": {"lens_height_mm": 150.0, "mirror_height_mm": 1100.0},
    "quality": {"sharpness_min": 0.02, "min_px_across_iris": 180.0,
                "brightness_lo": 20.0, "brightness_hi": 140.0},
}


@pytest.mark.parametrize("kind", list(config._DEFAULTS))
def test_default_configs_validate(kind):
    cfg = config.default_config(kind)
    assert cfg["experiment"]["kind"] == kind
    # the canonical scenario already sets every key validation fills
    assert config.validate_config(copy.deepcopy(cfg)) == cfg


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


@pytest.mark.parametrize("mirror", [{"pan_min_deg": 10.0, "pan_max_deg": -10.0},
                                    {"tilt_min_deg": 20.0, "tilt_max_deg": 20.0}])
def test_unordered_mirror_range_rejected(mirror):
    cfg = {"version": 1, "experiment": {"kind": "dof_table"}, "mirror": mirror}
    with pytest.raises(ConfigError, match="ordered"):
        config.validate_config(cfg)


def test_every_schema_key_reaches_the_rig():
    for section, keys in FULL_DEVICES.items():
        assert set(keys) == set(config.SCHEMA["properties"][section]["properties"])
    cfg = config.validate_config({"version": 1, "experiment": {"kind": "dof_table"},
                                  **FULL_DEVICES})
    rig = config.rig_from_config(cfg)
    built = {"train": rig.train, "sensor": rig.sensor, "rig": rig.geometry,
             "quality": rig.thresholds}
    for section, obj in built.items():
        for key, value in FULL_DEVICES[section].items():
            assert getattr(obj, key) == value, (section, key)
    lens, mirror = FULL_DEVICES["lens"], FULL_DEVICES["mirror"]
    assert rig.lens.params.power_range == (lens["power_min_dpt"], lens["power_max_dpt"])
    for key in ("response_ms", "settle_ms", "settle_filtered_ms", "repeatability_dpt",
                "mode"):
        assert getattr(rig.lens.params, key) == lens[key]
    assert rig.mirror.params.pan_range == (mirror["pan_min_deg"], mirror["pan_max_deg"])
    assert rig.mirror.params.tilt_range == (mirror["tilt_min_deg"], mirror["tilt_max_deg"])
    assert rig.mirror.params.resolution_deg == mirror["resolution_deg"]
    assert rig.mirror.params.max_speed_dps == mirror["max_speed_dps"]


def test_every_device_field_is_set_by_a_schema_key():
    built = {"train": OpticalTrain, "lens": LensParams, "mirror": MirrorParams,
             "sensor": SensorParams, "rig": RigGeometry, "quality": QualityThresholds}
    ranges = {"power_range": ("power_min_dpt", "power_max_dpt"),
              "pan_range": ("pan_min_deg", "pan_max_deg"),
              "tilt_range": ("tilt_min_deg", "tilt_max_deg")}
    for section, cls in built.items():
        keys = set(config.SCHEMA["properties"][section]["properties"])
        for field in dataclasses.fields(cls):
            assert set(ranges.get(field.name, [field.name])) <= keys, (section, field.name)


def test_default_train_is_the_reference_train():
    # one formula for the default lens separation
    cfg = config.validate_config({"version": 1, "experiment": {"kind": "dof_table"}})
    assert config.train_from_config(cfg) == optics.OpticalTrain()


def test_a_missing_range_end_takes_the_dataclass_default():
    cfg = config.validate_config({"version": 1, "experiment": {"kind": "dof_table"},
                                  "lens": {"power_max_dpt": 5.0},
                                  "mirror": {"tilt_min_deg": -10.0}})
    rig = config.rig_from_config(cfg)
    assert rig.lens.params.power_range == (LensParams.power_range[0], 5.0)
    assert rig.mirror.params.pan_range == MirrorParams.pan_range
    assert rig.mirror.params.tilt_range == (-10.0, MirrorParams.tilt_range[1])


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
    train = config.base_train(cfg, 3000.0)
    assert train.f_zoom_mm == pytest.approx(210.0)
    assert train.d_ref_mm == 3000.0
    assert train.d_ot_mm == pytest.approx(0.895 * train.image_distance_ref_mm)
    cfg["train"] = {"d_ot_mm": 100.0}
    assert config.base_train(cfg, 3000.0).d_ot_mm == 100.0


def test_subject_entries_require_all_fields():
    cfg = config.default_config("multiperson")
    del cfg["experiment"]["subjects"][0]["height_mm"]
    with pytest.raises(ConfigError, match="height_mm"):
        config.validate_config(cfg)
