"""Run configuration: one JSON document fully determines one run.

The schema is strict on purpose: unknown keys are rejected everywhere, and
device parameters outside the hardware envelope fail validation before any
simulation starts.  ``default_config`` returns the canonical scenario for
each experiment; a user config only needs the keys it wants to override.
``load_config`` and ``default_config`` only read; ``validate_config`` is the
one check, run once on the config a run will use.

Each device section builds one dataclass and its keys are that class's
field names: ``train`` -> OpticalTrain, ``lens`` -> LensParams, ``mirror``
-> MirrorParams, ``sensor`` -> SensorParams, ``rig`` -> RigGeometry and
``quality`` -> QualityThresholds, except that each ``*_min_*`` /
``*_max_*`` key pair forms one range tuple (``power_range``, ``pan_range``,
``tilt_range``).  An omitted key or range end takes the dataclass default,
so every device default is written once, in its dataclass.  Each dataclass
field is set by a key, and ``rig_from_config`` is the one place a rig is built.
Each zoom or focus value has one key: dof_table's zoom is
``train.f_zoom_mm``, and the sweeps (dof_extension, hd_curve) re-zoom and
re-focus the train for each base (``base_train``), so they reject
``train.f_zoom_mm`` and ``train.d_ref_mm``.

Validation fills ``seed`` and every omitted ``experiment`` key from the
canonical scenario, then bounds the worst-case renders a sweep queues
(``queued_renders``, at most ``MAX_RENDERS``).  The device sections fall
back to the dataclass defaults, not to the canonical scenario's overrides
(for example its mirror height).  Validation then builds the rig once, so
the dataclasses' own checks (ordered ranges, an exposure inside one frame,
a lens separation inside the focal length, a finite frame period, snap grid
and full-range slew, a repeatability no wider than the power range) reject
a bad config.  It also builds the train of every sweep base, keeps every
dof_table distance and hd_curve position outside the zoom focal length and
every sweep probe beyond the mirror, and checks the shared multiperson cast
(``multiperson_cast``): unique ids, each subject within focus reach, and
the mirror aim over its jitter envelope, the box of +/-4 sigma around the
standing eye, inside the pan/tilt range.
"""

from __future__ import annotations

import copy
import json
import math

import jsonschema

from . import calibration, optics
from .devices import LensParams, MirrorParams, SensorParams, SteeringMirror, TunableLens
from .optics import OpticalTrain
from .quality import QualityThresholds
from .scene import JITTER_REACH_SIGMAS, RigGeometry, Subject, aim_angles, \
    line_of_sight_mm, subject_at
from .scheduler import DEFAULT_DWELL_BUDGET, CaptureRig

SCHEMA_VERSION = 1
# worst-case renders one sweep config may queue; the canonical dof_extension
# queues at most 12,165
MAX_RENDERS = 100_000


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
    "f_zoom_mm": {"type": "number", "minimum": optics.ZOOM_RANGE_MM[0],
                  "maximum": optics.ZOOM_RANGE_MM[1]},
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
    kind = cfg["experiment"]["kind"]
    if kind in ("dof_extension", "hd_curve"):  # base_train sets both per base
        for key in ("f_zoom_mm", "d_ref_mm"):
            if key in cfg.get("train", {}):
                raise ConfigError(f"train.{key} is set: {kind} re-zooms and "
                                  f"re-focuses the train for each base itself")
    canonical = _DEFAULTS[kind]
    cfg.setdefault("seed", canonical["seed"])
    for key, value in canonical["experiment"].items():
        cfg["experiment"].setdefault(key, copy.deepcopy(value))
    renders = queued_renders(cfg["experiment"])
    if renders > MAX_RENDERS:
        raise ConfigError(f"{kind} queues up to {renders:.0f} renders, more than the "
                          f"{MAX_RENDERS} allowed; coarsen grid_mm or lower the counts")
    try:
        rig = rig_from_config(cfg)
        _check_experiment(cfg, rig)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cfg


def _steps(length: float, grid: float, whole=math.floor) -> float:
    """Grid steps in ``length``, made ``whole``; beyond the render bound, a float."""
    n = max(length, 0.0) / grid
    return whole(n) if n <= MAX_RENDERS else n


def queued_renders(exp: dict) -> float:
    """Worst-case renders a sweep queues; 0 for the other kinds.

    dof_extension: every repeat of every base renders its base cell and each
    cell out to the runaway guard on both sides.  hd_curve: every position
    and repeat, the template and two eyes per impostor pair.
    """
    if exp["kind"] == "dof_extension":
        leg = calibration.PROBE_RIG.lens_height_mm
        cells = sum(1 + _steps(min(base - 0.3 * base, base - leg), exp["grid_mm"])
                    + _steps(2.0 * base, exp["grid_mm"])
                    for base in exp["base_distances_mm"])
        return exp["repeats"] * cells
    if exp["kind"] == "hd_curve":
        positions = (_steps(exp["span_near_mm"], exp["grid_mm"], round)
                     + _steps(exp["span_far_mm"], exp["grid_mm"], round) + 1)
        return positions * exp["repeats"] + 1 + 2 * exp["impostor_pairs"]
    return 0


def _check_experiment(cfg: dict, rig: CaptureRig) -> None:
    """Every train the experiment builds exists and every focus it asks for is real."""
    exp = cfg["experiment"]
    kind = exp["kind"]
    leg = calibration.PROBE_RIG.lens_height_mm
    past_leg = f"is not beyond the probe's {leg:.6g} mm mirror-to-lens leg"
    if kind == "dof_table":
        f = rig.train.f_zoom_mm
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
            if base <= leg:
                raise ConfigError(f"dof_extension base {base:.6g} mm {past_leg}")
    elif kind == "hd_curve":
        f = base_train(cfg, exp["base_mm"]).f_zoom_mm
        nearest = hd_positions(exp)[0]
        if nearest <= f:
            raise ConfigError(
                f"hd_curve nearest position {nearest:.6g} mm (base_mm - span_near_mm) "
                f"is inside the zoom focal length {f:.6g} mm")
        if nearest <= leg:
            raise ConfigError(f"hd_curve nearest position {nearest:.6g} mm {past_leg}")
    elif kind == "multiperson":
        _check_subjects(multiperson_cast(cfg, rig), rig)


def _check_subjects(subjects: list[Subject], rig: CaptureRig) -> None:
    """Ids are unique; every subject is in focus reach and mirror range."""
    lo, hi = rig.lens.params.power_range
    seen = set()
    for subject in subjects:
        sid = subject.subject_id
        if sid in seen:
            raise ConfigError(f"subject id {sid!r} appears more than once")
        seen.add(sid)
        d = line_of_sight_mm(subject.position_mm, rig.geometry)
        try:
            power = optics.tunable_power_for_focus(rig.train, d)
        except ValueError as err:
            raise ConfigError(f"subject {sid!r}: {err}") from err
        if not lo <= power <= hi:
            raise ConfigError(
                f"subject {sid!r} at {d:.6g} mm line of sight needs {power:.4g} dpt, "
                f"outside the lens range [{lo:.6g}, {hi:.6g}] dpt")
        # A capture aims at the jittered eye, inside a box of half-width reach.
        # Pan (the azimuth) peaks at a horizontal corner; tilt (45 deg plus half
        # the elevation) at the top or bottom and the nearest or farthest range.
        reach = JITTER_REACH_SIGMAS * subject.jitter_sigma_mm
        xs, ys, zs = ((c - reach, c + reach) for c in subject.position_mm)
        near = math.hypot(max(xs[0], 0.0, -xs[1]), max(ys[0], 0.0, -ys[1]))
        far = max(math.hypot(a, b) for a in xs for b in ys)
        try:
            pans = [aim_angles((a, b, subject.position_mm[2]))[0] for a in xs for b in ys]
            tilts = [aim_angles((0.0, h, c))[1] for h in (near, far) for c in zs]
            rig.mirror.check_range(min(pans), min(tilts))
            rig.mirror.check_range(max(pans), max(tilts))
        except ValueError as err:
            raise ConfigError(f"subject {sid!r} over its jitter envelope: {err}") from err


def multiperson_cast(cfg: dict, rig: CaptureRig) -> list[Subject]:
    """The multiperson cast, motion seeds ``seed + i``: validated, then captured."""
    return [subject_at(entry["subject_id"], entry["identity_seed"],
                       entry["distance_mm"], 0.0, entry["height_mm"],
                       rig.geometry, motion_seed=cfg["seed"] + i)
            for i, entry in enumerate(cfg["experiment"]["subjects"])]


def load_config(path) -> dict:
    """The JSON document at ``path``, not yet validated."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


def train_from_config(cfg: dict) -> OpticalTrain:
    return OpticalTrain(**cfg.get("train", {}))


def base_train(cfg: dict, base_mm: float) -> OpticalTrain:
    """Re-zoomed train for a sweep based at ``base_mm``, magnification held.

    The sweeps set the zoom and the base focus themselves, so validation
    rejects a ``train`` section that sets either.
    """
    return OpticalTrain(f_zoom_mm=optics.zoom_focal_for_distance(base_mm),
                        d_ref_mm=base_mm, **cfg.get("train", {}))


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
    return _with_ranges(LensParams, cfg.get("lens", {}),
                        power_range=("power_min_dpt", "power_max_dpt"))


def quality_thresholds(cfg: dict) -> QualityThresholds:
    return QualityThresholds(**cfg.get("quality", {}))


def rig_from_config(cfg: dict) -> CaptureRig:
    """A new capture rig: optics, devices, geometry and gates from the config."""
    mirror = _with_ranges(MirrorParams, cfg.get("mirror", {}),
                          pan_range=("pan_min_deg", "pan_max_deg"),
                          tilt_range=("tilt_min_deg", "tilt_max_deg"))
    return CaptureRig(train=train_from_config(cfg),
                      geometry=RigGeometry(**cfg.get("rig", {})),
                      lens=TunableLens(lens_params(cfg), seed=cfg["seed"]),
                      mirror=SteeringMirror(mirror),
                      sensor=SensorParams(**cfg.get("sensor", {})),
                      thresholds=quality_thresholds(cfg))


_DEFAULTS: dict[str, dict] = {
    "dof_table": {
        "version": SCHEMA_VERSION,
        "seed": 0,
        "experiment": {
            "kind": "dof_table",
            "distances_mm": [1000.0 + 500.0 * k for k in range(9)],
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
            "dwell_budget": DEFAULT_DWELL_BUDGET,
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
    """A fresh copy of the canonical scenario; it sets every key validation fills."""
    if kind not in _DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return copy.deepcopy(_DEFAULTS[kind])
