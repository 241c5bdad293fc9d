import collections
import copy
import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from irissim import config, optics, scheduler
from irissim.config import ConfigError
from irissim.devices import LensParams, MirrorParams, SensorParams, SteeringMirror
from irissim.optics import OpticalTrain
from irissim.quality import QualityThresholds
from irissim.scene import JITTER_REACH_SIGMAS, RigGeometry, eye_position, line_of_sight_mm

# every key the schema allows in the device sections, each off its default
FULL_DEVICES = {
    "train": {"f_zoom_mm": 300.0, "n_stop": 5.6, "d_ref_mm": 4500.0,
              "d_ot_mm": 250.0, "coc_mm": 0.05, "pixel_scale_cal": 1.5},
    "lens": {"power_min_dpt": -8.0, "power_max_dpt": 9.0, "response_ms": 4.0,
             "settle_ms": 20.0, "repeatability_dpt": 0.05, "mode": "filtered"},
    "mirror": {"pan_min_deg": -90.0, "pan_max_deg": 90.0, "tilt_min_deg": -30.0,
               "tilt_max_deg": 50.0, "resolution_deg": 0.02, "max_speed_dps": 10000.0},
    "sensor": {"frame_rate_hz": 25.0, "exposure_ms": 2.5},
    "rig": {"lens_height_mm": 150.0, "mirror_height_mm": 1100.0},
    "quality": {"sharpness_min": 0.02, "min_px_across_iris": 180.0,
                "brightness_lo": 20.0, "brightness_hi": 140.0},
}


def test_schema_is_a_valid_json_schema():
    jsonschema.validators.validator_for(config.SCHEMA).check_schema(config.SCHEMA)


# jsonschema is the oracle of the schema walker validation runs
ORACLE = jsonschema.validators.validator_for(config.SCHEMA)(config.SCHEMA)
# wrong types, bools and integral floats for numbers, out-of-range values, bad subject ids
JUNK = (None, True, False, "x", "", "a/b", "a\n", [], {}, [1.0], {"kind": "iom"},
        -1, 0, 1, 1.0, 2.5, 3.0, -1e9, 1e9)
ADDED_KEYS = ("extra", "kind", "seed", "version", "repeats", "subject_id", "f_zoom_mm")


def _locations(node, path=()):
    """The path of the root and of every section, key and item under it."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


def _mutated(cfg, draw):
    """``cfg`` with one location replaced, a key added to it or it removed."""
    path = draw(st.sampled_from(list(_locations(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else cfg
    how = draw(st.sampled_from(("replace", "add", "remove")))
    if how == "add" and isinstance(target, dict):
        target[draw(st.sampled_from(ADDED_KEYS))] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    elif how == "remove" and path:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    else:
        return copy.deepcopy(draw(st.sampled_from(JUNK)))
    return cfg


def _agrees_with_jsonschema(cfg) -> bool:
    """Whether jsonschema accepts ``cfg``; ``validate_config`` rejects its schema
    exactly when jsonschema does, given that every number in ``cfg`` holds a
    finite float.  The walker's one departure: it rejects NaN, which
    jsonschema accepts for every number, and an infinity or an int past the
    float range, which jsonschema accepts within their bounds
    (``test_walker_rejects_the_numbers_jsonschema_takes``).

    Outside the experiment section it names jsonschema's path; inside,
    jsonschema names the oneOf and the walker a key of the kind's branch.
    """
    best = jsonschema.exceptions.best_match(ORACLE.iter_errors(cfg))
    try:
        config.validate_config(copy.deepcopy(cfg))
        message = None
    except ConfigError as err:
        message = str(err)
    if best is None:
        assert message is None or not message.startswith("config invalid at")
        return True
    path = [str(p) for p in best.absolute_path]
    where = "experiment" if path[:1] == ["experiment"] else f"{'/'.join(path) or '<root>'}:"
    assert message is not None and message.startswith(f"config invalid at {where}")
    return False


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(config._EXPERIMENTS)),
       sections=st.lists(st.sampled_from(list(FULL_DEVICES)), unique=True),
       data=st.data())
def test_schema_walker_rejects_exactly_what_jsonschema_rejects(kind, sections, data):
    cfg = config.default_config(kind) | copy.deepcopy({s: FULL_DEVICES[s] for s in sections})
    for _ in range(data.draw(st.integers(1, 3))):
        cfg = _mutated(cfg, data.draw)
    event("jsonschema accepts" if _agrees_with_jsonschema(cfg) else "jsonschema rejects")


@pytest.mark.parametrize("edge, valid", [
    ({"version": 1.0, "seed": 2.0}, True),  # 1.0 is an integer
    ({"seed": True}, False), ({"lens": {"settle_ms": False}}, False),  # a bool is no number
    ({"experiment": {"kind": {}}}, False), ({"experiment": {"kind": []}}, False),
    ({"experiment": {"kind": None}}, False), ({"experiment": {"n_frames": 2}}, False),
], ids=repr)
def test_schema_walker_keeps_jsonschemas_edges(edge, valid):
    assert _agrees_with_jsonschema(config.default_config("iom") | edge) == valid


@pytest.mark.parametrize("value, path", [
    (math.nan, ("lens", "settle_ms")), (10 ** 310, ("seed",)),
    (10 ** 310, ("experiment", "motion_seed"))], ids=["nan", "seed", "motion_seed"])
def test_walker_rejects_the_numbers_jsonschema_takes(value, path):
    # the walker's one departure from jsonschema: a number must hold a finite float,
    # where jsonschema takes NaN anywhere and a huge int at a seed, the one unbounded
    # number; an infinity is past every other number's bounds and is no integer
    cfg = config.default_config("iom")
    parent = cfg
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
    parent[path[-1]] = value
    assert ORACLE.is_valid(cfg)
    with pytest.raises(ConfigError, match=f"^config invalid at {'/'.join(path)}: "):
        config.validate_config(cfg)


def _numeric_leaves():
    """(kind, path) of every number in each canonical config with every device key."""
    for kind in config._EXPERIMENTS:
        cfg = config.default_config(kind) | FULL_DEVICES
        for path in _locations(cfg):
            leaf = cfg
            for key in path:
                leaf = leaf[key]
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
                yield kind, path


@pytest.mark.parametrize("kind, path", list(_numeric_leaves()),
                         ids=lambda p: p if isinstance(p, str) else "/".join(map(str, p)))
def test_every_number_without_a_finite_float_fails_validation_naming_its_key(kind, path):
    # a NaN switched a gate off, an inf or a huge int ended in OverflowError or TypeError
    for value in (math.nan, math.inf, -math.inf, 10 ** 310, 10 ** 5000):
        cfg = copy.deepcopy(config.default_config(kind) | FULL_DEVICES)
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            config.validate_config(cfg)
        assert str(err.value).startswith(f"config invalid at {'/'.join(map(str, path))}: ")


def _at(cfg, path: tuple):
    """The value at ``path`` in ``cfg``."""
    for key in path:
        cfg = cfg[key]
    return cfg


def _schema_at(path: tuple, kind: str) -> dict:
    """The schema node of the config location ``path`` in a config of ``kind``."""
    node = config.SCHEMA
    for key in path:
        if "oneOf" in node:
            node = next(b for b in node["oneOf"] if b["properties"]["kind"]["const"] == kind)
        node = node["items"] if isinstance(key, int) else node["properties"][key]
    return node


SEED_KEYS = {"seed", "identity_seed", "motion_seed"}  # exact ints that no bound needs


def _schema_numbers(node, key=None):
    """(key, node) of every number or integer node in the schema under ``node``."""
    if node.get("type") in ("number", "integer"):
        yield key, node
    for name, sub in node.get("properties", {}).items():
        yield from _schema_numbers(sub, name)
    for sub in node.get("oneOf", []):
        yield from _schema_numbers(sub, key)
    if "items" in node:
        yield from _schema_numbers(node["items"], key)


def test_every_number_in_the_schema_is_bounded():
    # bounded inputs keep every sum, product and quotient of config numbers finite
    numbers = list(_schema_numbers(config.SCHEMA))
    assert {key for key, node in numbers if "maximum" not in node} == SEED_KEYS
    for key, node in numbers:
        assert ("minimum" in node) != ("exclusiveMinimum" in node), key
        if key not in SEED_KEYS:
            assert math.isfinite(node["maximum"]), key


def _edges(node) -> list:
    """The ends of the schema interval of ``node`` and values just inside them."""
    if node["type"] == "integer":
        lo, hi = node["minimum"], node.get("maximum", 2 ** 1023)
        return [lo, lo + 1, hi - 1, hi]
    lo = node.get("minimum", node.get("exclusiveMinimum"))
    lo = math.nextafter(lo, math.inf) if "exclusiveMinimum" in node else lo
    hi = node["maximum"]
    return [lo, math.nextafter(lo, hi), lo + abs(lo) * 1e-9 + 1e-300,
            hi, math.nextafter(hi, lo), hi - abs(hi) * 1e-9]


def _in_bounds(node):
    """Values inside the schema interval of ``node``, its edges weighted."""
    edges = _edges(node)
    inside = st.integers if node["type"] == "integer" else st.floats
    return st.one_of(st.sampled_from(edges), inside(edges[0], edges[3]))


# the FULL_DEVICES keys each kind's canonical config cannot take: the sweeps set the
# zoom and focus themselves and find no train at a 1 m base behind a 250 mm separation,
# and the iom walker needs more than 50 deg of tilt
CLASHING_DEVICES = {"dof_extension": ("f_zoom_mm", "d_ref_mm", "d_ot_mm"),
                    "hd_curve": ("f_zoom_mm", "d_ref_mm"), "iom": ("tilt_max_deg",)}


def _full_config(kind: str) -> dict:
    """The canonical config of ``kind`` with every FULL_DEVICES key it can take."""
    cfg = copy.deepcopy(config.default_config(kind) | FULL_DEVICES)
    for section in cfg.values():
        if isinstance(section, dict):
            for key in CLASHING_DEVICES.get(kind, ()):
                section.pop(key, None)
    return cfg


def _drawable(kind: str, cfg: dict) -> list:
    """The path of every number in ``cfg``, a config of ``kind``, but its version."""
    return [path for k, path in _numeric_leaves()
            if k == kind and path != ("version",) and path[-1] in _at(cfg, path[:-1])]


def _validates_or_fails_closed(cfg: dict) -> bool:
    """Whether ``cfg`` validates; a ConfigError is the one other outcome allowed."""
    try:
        config.validate_config(cfg)
        return True
    except ConfigError:
        return False


@pytest.mark.parametrize("kind", list(config._EXPERIMENTS))
def test_each_number_at_the_edges_of_its_bounds_validates_or_fails_closed(kind):
    # each number alone at an end of its interval or just inside it; the full
    # config itself validates, so the number is what each verdict turns on
    assert _validates_or_fails_closed(_full_config(kind))
    for path in _drawable(kind, _full_config(kind)):
        for value in _edges(_schema_at(path, kind)):
            cfg = _full_config(kind)
            _at(cfg, path[:-1])[path[-1]] = value
            _validates_or_fails_closed(cfg)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(config._EXPERIMENTS)), data=st.data())
def test_every_config_inside_the_schema_bounds_validates_or_fails_closed(kind, data):
    # numeric leaves drawn each from its own schema interval: validation returns or
    # raises ConfigError, never another exception nor a warning
    cfg = _full_config(kind)
    own = _drawable(kind, cfg)
    # a few leaves mostly, so that many configs are valid; now and then many at once
    n = data.draw(st.one_of(st.integers(1, 3), st.integers(1, len(own))))
    for path in data.draw(st.permutations(own))[:n]:
        _at(cfg, path[:-1])[path[-1]] = data.draw(_in_bounds(_schema_at(path, kind)))
    event("valid" if _validates_or_fails_closed(cfg) else "config error")


TOO_LONG_TO_PRINT = 10 ** 5000  # str() refuses an int past 4300 digits


@pytest.mark.parametrize("kind, path, value, where", [
    ("multiperson", ("experiment", "subjects", 0, "subject_id"), TOO_LONG_TO_PRINT,
     "experiment/subjects/0/subject_id"),  # a type message
    ("iom", ("lens", "mode"), TOO_LONG_TO_PRINT, "lens/mode"),  # an enum message
    ("multiperson", ("experiment", "subjects"), [TOO_LONG_TO_PRINT],
     "experiment/subjects"),  # a minItems message
    ("iom", ("lens", TOO_LONG_TO_PRINT), 1.0, "lens"),  # an unexpected key
    ("iom", ("experiment",), [-TOO_LONG_TO_PRINT, (TOO_LONG_TO_PRINT,), {1: TOO_LONG_TO_PRINT}],
     "experiment"),  # deep in a value
    ("multiperson", ("experiment", "subjects"), {TOO_LONG_TO_PRINT},
     "experiment/subjects"),  # in a value of no JSON shape
], ids=["type", "enum", "minItems", "key", "nested", "set"])
def test_an_integer_too_long_to_print_is_never_printed(kind, path, value, where):
    # built in Python: a file cannot hold such an int, json.load refuses it first
    cfg = copy.deepcopy(config.default_config(kind) | FULL_DEVICES)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ConfigError, match=f"^config invalid at {where}: ") as err:
        config.validate_config(cfg)
    assert ("a set holding an integer too long to print" if isinstance(value, set)
            else "an integer of 16610 bits") in str(err.value)


@pytest.mark.parametrize("kind", list(config._EXPERIMENTS))
def test_default_configs_validate(kind):
    cfg = config.default_config(kind)
    assert cfg["experiment"]["kind"] == kind
    # the canonical scenario already sets every key validation fills
    assert config.validate_config(copy.deepcopy(cfg)) == cfg


@pytest.mark.parametrize("kind", list(config._EXPERIMENTS))
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
    for key in ("response_ms", "settle_ms", "repeatability_dpt", "mode"):
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
    assert config.rig_from_config(cfg).train == optics.OpticalTrain()


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


def test_load_config_rejects_a_number_past_the_float_range(tmp_path):
    # Python's json reads 1e400 as inf; the file reads, and validation rejects it
    path = tmp_path / "run.json"
    path.write_text('{"version": 1, "experiment": {"kind": "dof_table", '
                    '"distances_mm": [5000, 1e400]}}')
    cfg = config.load_config(path)
    with pytest.raises(ConfigError, match="^config invalid at experiment/distances_mm/1: "
                                          "Infinity is not a finite number"):
        config.validate_config(cfg)


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError, match="cannot read"):
        config.load_config(path)


def test_train_rebase_keeps_fractional_separation():
    cfg = config.default_config("dof_extension")
    train = config.rig_from_config(cfg, 3000.0).train
    assert train.f_zoom_mm == pytest.approx(210.0)
    assert train.d_ref_mm == 3000.0
    assert train.d_ot_mm == pytest.approx(0.895 * train.image_distance_ref_mm)
    cfg["train"] = {"d_ot_mm": 100.0}
    assert config.rig_from_config(cfg, 3000.0).train.d_ot_mm == 100.0


def test_subject_entries_require_all_fields():
    cfg = config.default_config("multiperson")
    del cfg["experiment"]["subjects"][0]["height_mm"]
    with pytest.raises(ConfigError, match="height_mm"):
        config.validate_config(cfg)


def test_side_walk_counts_a_fine_grid_without_listing_it():
    # ten billion cells: a walk that listed them would not finish
    n, position = config.side_walk(5000.0, 1e-6, 1.0)
    assert abs(n - 10 ** 10) <= 2
    assert position(n - 1) <= 15000.0 < position(n)
    assert config.walk_renders(n) == 2 * 34 + 2


def test_impostor_identities_are_the_fewest_that_give_the_pairs():
    n = np.array([config.impostor_identities(p) for p in range(config.MAX_RENDERS + 1)])
    pairs = np.arange(n.size)
    # n identities give at least the pairs, and one fewer gives too few
    assert np.all(n * (n - 1) // 2 >= pairs)
    assert np.all((n == 0) | ((n - 1) * (n - 2) // 2 < pairs))
    assert n[-1] == 448


def _replay_walkers(cfg: dict) -> None:
    """The frame-by-frame check of both iom walkers: every aim the tracker
    commands in the mirror's range, every sight through ``_check_sight``."""
    rig = config.rig_from_config(cfg)
    exp = cfg["experiment"]
    for variant, walker in config.iom_cast(cfg, rig)[1]:
        plan = scheduler.tracker_plan(rig, walker, exp["n_frames"], exp["start_frame"])
        for frame, (_, t_mid, eye) in enumerate(plan, exp["start_frame"]):
            where = f"iom {variant} walker at frame {frame}"
            pan, tilt, _ = scheduler.setpoints_for(rig, eye)
            rig.mirror.check_range(pan, tilt)
            d = line_of_sight_mm(eye_position(walker, t_mid), rig.geometry)
            config._check_sight(where, d, rig.train, lens=rig.lens.params)


_WALKS = st.fixed_dictionaries({
    # starts from 900 to 1300 mm put the last frames about where the lens,
    # clamped at +10 dpt, blurs the eye as wide as the frame
    "speed_mmps": st.floats(50.0, 3000.0),
    "start_y_mm": st.one_of(st.floats(300.0, 6000.0), st.floats(900.0, 1300.0)),
    # without jitter the sight box is the walk itself, which the frames sample
    "jitter_sigma_mm": st.just(0.0) | st.floats(0.0, 20.0), "n_frames": st.integers(1, 20),
    "motion_seed": st.integers(0, 1000)})
_RIGS = st.fixed_dictionaries({"mirror_height_mm": st.floats(300.0, 2000.0)})
_FRAME_RATES = st.floats(10.0, 120.0)


def _walk_config(walk: dict, rig: dict, frame_rate_hz: float) -> dict:
    cfg = config.default_config("iom")
    cfg["experiment"].update(walk)
    cfg["rig"].update(rig)
    cfg["sensor"] = {"frame_rate_hz": frame_rate_hz}
    return cfg


@settings(max_examples=150)
@given(walk=_WALKS, rig=_RIGS, frame_rate_hz=_FRAME_RATES)
# frame 17's 642 px disk is 2 px too wide: a sight box short by a few mm passes it
@example(walk={"speed_mmps": 453.0, "start_y_mm": 986.0, "jitter_sigma_mm": 0.0,
               "n_frames": 2, "motion_seed": 0},
         rig={"mirror_height_mm": 1127.0}, frame_rate_hz=39.0)
def test_iom_walker_the_envelope_accepts_passes_the_frame_replay(walk, rig, frame_rate_hz):
    cfg = _walk_config(walk, rig, frame_rate_hz)
    try:
        config.validate_config(cfg)
    except ConfigError:
        event("exits 2")
        return
    event("validates")
    _replay_walkers(cfg)


@settings(max_examples=150)
@given(walk=_WALKS, rig=_RIGS, frame_rate_hz=_FRAME_RATES)
def test_every_tracker_prediction_lies_in_the_aim_box(walk, rig, frame_rate_hz):
    cfg = _walk_config(walk, rig, frame_rate_hz)
    envelopes = {}
    with pytest.MonkeyPatch.context() as mp:  # the times and widening validation checks
        mp.setattr(config, "_check_reach", lambda who, _, subject, times, widen=1.0:
                   envelopes.update({who: (times, widen)}))
        config.validate_config(cfg)
    capture_rig = config.rig_from_config(cfg)
    exp = cfg["experiment"]
    for variant, walker in config.iom_cast(cfg, capture_rig)[1]:
        times, widen = envelopes[f"iom {variant} walker"]
        walk = dataclasses.replace(walker, jitter_sigma_mm=0.0)
        ends = [eye_position(walk, t) for t in times]
        lo, hi = np.min(ends, axis=0), np.max(ends, axis=0)
        reach = JITTER_REACH_SIGMAS * walker.jitter_sigma_mm
        aim_reach = widen * reach
        # up to rounding: the plan extrapolates the walk, the envelope evaluates it
        slack = 1e-6
        for _, t_mid, predicted in scheduler.tracker_plan(capture_rig, walker, exp["n_frames"],
                                                          exp["start_frame"]):
            for eye, r in ((eye_position(walker, t_mid), reach), (predicted, aim_reach)):
                assert np.all((lo - r - slack <= eye) & (eye <= hi + r + slack))


def test_iom_validation_cost_does_not_grow_with_the_frame_count(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scheduler, "tracker_plan", counted("plan", scheduler.tracker_plan))
    monkeypatch.setattr(config, "_check_sight", counted("sight", config._check_sight))
    monkeypatch.setattr(SteeringMirror, "check_range",
                        counted("aim", SteeringMirror.check_range))
    assert not hasattr(config, "tracker_plan")
    counts = []
    for n_frames in (15, 49_000):
        calls.clear()
        cfg = config.default_config("iom")
        cfg["experiment"].update(n_frames=n_frames, speed_mmps=1.0)
        config.validate_config(cfg)
        counts.append(dict(calls))
    # the enrolment, then each walker's nearest and farthest sight and its
    # lowest and highest aim
    assert counts == [{"sight": 5, "aim": 4}] * 2
