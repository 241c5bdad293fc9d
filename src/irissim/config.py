"""Run configuration: one JSON document fully determines one run.

The schema is strict on purpose: unknown keys are rejected everywhere, and
device parameters outside the hardware envelope fail validation before any
simulation starts.  ``default_config`` returns the canonical scenario for
each experiment; a user config only needs the keys it wants to override.

Each device section builds one dataclass and its keys are that class's
field names: ``train`` -> OpticalTrain, ``lens`` -> LensParams, ``mirror``
-> MirrorParams, ``sensor`` -> SensorParams, ``rig`` -> RigGeometry and
``quality`` -> QualityThresholds.  The exceptions: each ``*_min_*`` /
``*_max_*`` key pair forms one range tuple (``power_range``, ``pan_range``,
``tilt_range``), and the lens ``mode`` is a CaptureRig setting.  An omitted
key or range end takes the dataclass default, so every device default is
written once, in its dataclass.

Validation fills ``seed`` and every omitted ``experiment`` key from the
canonical scenario.  The device sections fall back to the dataclass
defaults, not to the canonical scenario's overrides (for example its mirror
height).  Validation then builds the rig once, so the dataclasses' own
checks (ordered ranges, an exposure inside one frame, a lens separation
inside the focal length) reject a bad config.  It also builds the train
of every sweep base, keeps every dof_table distance and hd_curve position
outside the zoom focal length, and checks that a multiperson cast has
unique ids and stands within focus reach and the mirror's pan/tilt range.
"""

from __future__ import annotations

import copy
import json

import jsonschema

from . import optics
from .devices import LensParams, MirrorParams, SensorParams
from .optics import OpticalTrain
from .quality import QualityThresholds
from .scene import RigGeometry, aim_angles, line_of_sight_mm, subject_at
from .scheduler import CaptureRig, build_rig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Anything wrong with a run configuration."""


_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_SEED = {"type": "integer", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1}


def _obj(properties: dict, required: list[str] | None = None) -> dict:
    schema = {
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
    }
    if required:
        schema["required"] = required
    return schema


_TRAIN = _obj({
    "f_zoom_mm": {"type": "number", "minimum": 70.0, "maximum": 350.0},
    "n_stop": _POS,
    "d_ref_mm": _POS,
    "d_ot_mm": _POS,
    "coc_mm": _POS,
    "pixel_scale_cal": _POS,
})

# hardware envelopes: +/-10 dpt lens, +/-180 deg pan, +/-60 deg tilt
_LENS = _obj({
    "power_min_dpt": {"type": "number", "minimum": -10.0, "maximum": 10.0},
    "power_max_dpt": {"type": "number", "minimum": -10.0, "maximum": 10.0},
    "response_ms": _POS,
    "settle_ms": _POS,
    "settle_filtered_ms": _POS,
    "repeatability_dpt": _NONNEG,
    "mode": {"enum": ["raw", "filtered"]},
})

_MIRROR = _obj({
    "pan_min_deg": {"type": "number", "minimum": -180.0, "maximum": 180.0},
    "pan_max_deg": {"type": "number", "minimum": -180.0, "maximum": 180.0},
    "tilt_min_deg": {"type": "number", "minimum": -60.0, "maximum": 60.0},
    "tilt_max_deg": {"type": "number", "minimum": -60.0, "maximum": 60.0},
    "resolution_deg": _POS,
    "max_speed_dps": _POS,
})

_SENSOR = _obj({
    "frame_rate_hz": _POS,
    "exposure_ms": _POS,
})

_RIG = _obj({
    "lens_height_mm": _POS,
    "mirror_height_mm": _POS,
})

_QUALITY = _obj({
    "sharpness_min": _POS,
    "min_px_across_iris": _POS,
    "brightness_lo": _NONNEG,
    "brightness_hi": _POS,
})

_SUBJECT = _obj({
    "subject_id": {"type": "string", "minLength": 1},
    "identity_seed": _SEED,
    "distance_mm": _POS,
    "height_mm": _POS,
}, required=["subject_id", "identity_seed", "distance_mm", "height_mm"])

_EXPERIMENTS = {
    "dof_table": _obj({
        "kind": {"const": "dof_table"},
        "distances_mm": {"type": "array", "items": _POS, "minItems": 1},
        "f_zoom_mm": {"type": "number", "minimum": 70.0, "maximum": 350.0},
    }, required=["kind"]),
    "dof_extension": _obj({
        "kind": {"const": "dof_extension"},
        "base_distances_mm": {"type": "array", "items": _POS, "minItems": 1},
        "grid_mm": _POS,
        "repeats": _COUNT,
        "identity_seed": _SEED,
    }, required=["kind"]),
    "hd_curve": _obj({
        "kind": {"const": "hd_curve"},
        "base_mm": _POS,
        "grid_mm": _POS,
        "span_near_mm": _POS,
        "span_far_mm": _POS,
        "repeats": _COUNT,
        "identity_seed": _SEED,
        "impostor_pairs": {"type": "integer", "minimum": 0},
    }, required=["kind"]),
    "multiperson": _obj({
        "kind": {"const": "multiperson"},
        "subjects": {"type": "array", "items": _SUBJECT, "minItems": 2},
        "order": {"enum": ["given_order", "nearest_transition"]},
        "dwell_budget": _COUNT,
    }, required=["kind"]),
    "iom": _obj({
        "kind": {"const": "iom"},
        "identity_seed": _SEED,
        "height_mm": _POS,
        "start_y_mm": _POS,
        "speed_mmps": _POS,
        "n_frames": _COUNT,
        "start_frame": {"type": "integer", "minimum": 2},
        "jitter_sigma_mm": _NONNEG,
        "ablation_jitter_sigma_mm": _NONNEG,
        "motion_seed": _SEED,
    }, required=["kind"]),
}

SCHEMA = _obj({
    "version": {"const": SCHEMA_VERSION},
    "seed": _SEED,
    "experiment": {"oneOf": list(_EXPERIMENTS.values())},
    "train": _TRAIN,
    "lens": _LENS,
    "mirror": _MIRROR,
    "sensor": _SENSOR,
    "rig": _RIG,
    "quality": _QUALITY,
}, required=["version", "experiment"])


def validate_config(cfg: dict) -> dict:
    """Schema plus the cross-field checks a JSON schema cannot express.

    Fills ``seed`` and the omitted ``experiment`` keys in place from the
    canonical scenario of the experiment's kind, and returns ``cfg``.
    """
    try:
        jsonschema.validate(cfg, SCHEMA)
    except jsonschema.ValidationError as err:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {err.message}") from err
    canonical = _DEFAULTS[cfg["experiment"]["kind"]]
    cfg.setdefault("seed", canonical["seed"])
    for key, value in canonical["experiment"].items():
        cfg["experiment"].setdefault(key, copy.deepcopy(value))
    try:
        rig = rig_from_config(cfg)
        _check_experiment(cfg, rig)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cfg


def _check_experiment(cfg: dict, rig: CaptureRig) -> None:
    """Every train the experiment builds exists and every focus it asks for is real."""
    exp = cfg["experiment"]
    kind = exp["kind"]
    if kind == "dof_table":
        f = exp["f_zoom_mm"]
        train_from_config(cfg, f_zoom_mm=f)
        for d in exp["distances_mm"]:
            if d <= f:
                raise ConfigError(f"dof_table distance {d:.6g} mm is inside the "
                                  f"zoom focal length {f:.6g} mm")
    elif kind == "dof_extension":
        for base in exp["base_distances_mm"]:
            try:
                base_train(cfg, base)
            except ValueError as err:
                raise ConfigError(f"dof_extension base {base:.6g} mm: {err}") from err
    elif kind == "hd_curve":
        f = base_train(cfg, exp["base_mm"]).f_zoom_mm
        nearest = hd_positions(exp)[0]
        if nearest <= f:
            raise ConfigError(
                f"hd_curve nearest position {nearest:.6g} mm (base_mm - span_near_mm) "
                f"is inside the zoom focal length {f:.6g} mm")
    elif kind == "multiperson":
        _check_subjects(exp["subjects"], rig)


def _check_subjects(subjects: list[dict], rig: CaptureRig) -> None:
    """Ids are unique; every subject stands inside focus reach and mirror range."""
    lo, hi = rig.lens.params.power_range
    seen = set()
    for entry in subjects:
        sid = entry["subject_id"]
        if sid in seen:
            raise ConfigError(f"subject id {sid!r} appears more than once")
        seen.add(sid)
        subject = subject_at(sid, entry["identity_seed"], entry["distance_mm"],
                             0.0, entry["height_mm"], rig.geometry)
        d = line_of_sight_mm(subject.position_mm, rig.geometry)
        try:
            power = optics.tunable_power_for_focus(rig.train, d)
        except ValueError as err:
            raise ConfigError(f"subject {sid!r}: {err}") from err
        if not lo <= power <= hi:
            raise ConfigError(
                f"subject {sid!r} at {d:.6g} mm line of sight needs {power:.4g} dpt, "
                f"outside the lens range [{lo:.6g}, {hi:.6g}] dpt")
        try:
            rig.mirror.check_range(*aim_angles(subject.position_mm))
        except ValueError as err:
            raise ConfigError(f"subject {sid!r}: {err}") from err


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return validate_config(cfg)


def train_from_config(cfg: dict, f_zoom_mm: float | None = None,
                      d_ref_mm: float | None = None) -> optics.OpticalTrain:
    """Optical train from config, optionally re-based for another focus.

    When an experiment re-bases the train (``f_zoom_mm``/``d_ref_mm``), the
    lens separation keeps its fractional position unless explicitly pinned.
    """
    over = dict(cfg.get("train", {}))
    f = over.pop("f_zoom_mm", OpticalTrain.f_zoom_mm)
    d = over.pop("d_ref_mm", OpticalTrain.d_ref_mm)
    return optics.train_for_base_focus(f if f_zoom_mm is None else f_zoom_mm,
                                       d if d_ref_mm is None else d_ref_mm, **over)


def base_train(cfg: dict, base_mm: float) -> optics.OpticalTrain:
    """Re-zoomed train for a sweep based at ``base_mm``, magnification held."""
    f = min(350.0, max(70.0, optics.zoom_focal_for_distance(base_mm)))
    return train_from_config(cfg, f_zoom_mm=f, d_ref_mm=base_mm)


def hd_positions(exp: dict) -> list[float]:
    """The hd_curve focus grid, nearest first, with the base on a grid point."""
    base, grid = exp["base_mm"], exp["grid_mm"]
    n_near = int(round(exp["span_near_mm"] / grid))
    n_far = int(round(exp["span_far_mm"] / grid))
    return [base + k * grid for k in range(-n_near, n_far + 1)]


def _with_ranges(cls, section: dict, **ranges):
    """``cls(**section)``, with each ``*_min_*``/``*_max_*`` key pair as one range.

    ``ranges`` maps a range field to its (min key, max key); a missing end
    takes that end of the field's default.
    """
    kwargs = dict(section)
    for name, (lo_key, hi_key) in ranges.items():
        lo, hi = getattr(cls, name)
        kwargs[name] = (kwargs.pop(lo_key, lo), kwargs.pop(hi_key, hi))
    return cls(**kwargs)


def lens_params(cfg: dict) -> LensParams:
    section = {k: v for k, v in cfg.get("lens", {}).items() if k != "mode"}
    return _with_ranges(LensParams, section,
                        power_range=("power_min_dpt", "power_max_dpt"))


def quality_thresholds(cfg: dict) -> QualityThresholds:
    return QualityThresholds(**cfg.get("quality", {}))


def rig_from_config(cfg: dict) -> CaptureRig:
    """A new capture rig: optics, devices, geometry and gates from the config."""
    mirror = _with_ranges(MirrorParams, cfg.get("mirror", {}),
                          pan_range=("pan_min_deg", "pan_max_deg"),
                          tilt_range=("tilt_min_deg", "tilt_max_deg"))
    return build_rig(train_from_config(cfg), seed=cfg["seed"],
                     geometry=RigGeometry(**cfg.get("rig", {})),
                     sensor=SensorParams(**cfg.get("sensor", {})),
                     thresholds=quality_thresholds(cfg),
                     lens_params=lens_params(cfg),
                     mirror_params=mirror,
                     lens_mode=cfg.get("lens", {}).get("mode", CaptureRig.lens_mode))


_DEFAULTS: dict[str, dict] = {
    "dof_table": {
        "version": SCHEMA_VERSION,
        "seed": 0,
        "experiment": {
            "kind": "dof_table",
            "distances_mm": [1000.0 + 500.0 * k for k in range(9)],
            "f_zoom_mm": 350.0,
        },
    },
    "dof_extension": {
        "version": SCHEMA_VERSION,
        "seed": 0,
        "experiment": {
            "kind": "dof_extension",
            "base_distances_mm": [1000.0, 3000.0, 5000.0],
            "grid_mm": 10.0,
            "repeats": 5,
            "identity_seed": 9000,
        },
    },
    "hd_curve": {
        "version": SCHEMA_VERSION,
        "seed": 0,
        "experiment": {
            "kind": "hd_curve",
            "base_mm": 5000.0,
            "grid_mm": 100.0,
            "span_near_mm": 2400.0,
            "span_far_mm": 4000.0,
            "repeats": 5,
            "identity_seed": 7000,
            "impostor_pairs": 50,
        },
    },
    "multiperson": {
        "version": SCHEMA_VERSION,
        "seed": 0,
        "experiment": {
            "kind": "multiperson",
            "subjects": [
                {"subject_id": "seated", "identity_seed": 4411,
                 "distance_mm": 4380.0, "height_mm": 1540.0},
                # 6340 from the scenario diagram; a nearby writeup says 6430,
                # the diagram wins
                {"subject_id": "standing", "identity_seed": 8122,
                 "distance_mm": 6340.0, "height_mm": 1800.0},
            ],
            "order": "nearest_transition",
            "dwell_budget": 5,
        },
        "rig": {"mirror_height_mm": 1200.0},
    },
    "iom": {
        "version": SCHEMA_VERSION,
        "seed": 0,
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
        # mirror raised to eye height: a walking eye off the mirror plane
        # picks up a transverse velocity component that smears the exposure
        "rig": {"mirror_height_mm": 1580.0},
        "train": {"f_zoom_mm": 210.0, "d_ref_mm": 3200.0},
    },
}


def default_config(kind: str) -> dict:
    if kind not in _DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return validate_config(copy.deepcopy(_DEFAULTS[kind]))
