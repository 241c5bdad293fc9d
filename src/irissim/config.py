"""Run configuration: one JSON document fully determines one run.

``validate_config`` is the one check, run once on the config a run will use;
``load_config`` and ``default_config`` (each experiment's canonical scenario)
only read.  A user config needs only the keys it overrides.  Each experiment
key is declared once, in ``_EXPERIMENTS``, with its schema and canonical
value: the schema's ``experiment`` section, the canonical scenarios and the
keys validation fills all derive from that table.

Each device section builds one dataclass, and its keys are the class's field
names (``_section``): ``train`` -> OpticalTrain, ``lens`` -> LensParams,
``mirror`` -> MirrorParams, ``sensor`` -> SensorParams, ``rig`` ->
RigGeometry, ``quality`` -> QualityThresholds.  Each ``*_min_*`` /
``*_max_*`` key pair forms one range (``power_range``, ``pan_range``,
``tilt_range``), bounded by the field's default range, the hardware envelope.
An omitted key or range end takes the dataclass default, so every device
default and envelope is written once; ``rig_from_config`` is the one place
the sections become objects, and the sweeps re-zoom and re-focus the train
for each base themselves.

Unknown keys are rejected, and every number but a seed is bounded, so no sum,
product or quotient of config numbers leaves the float range (an iom walker
strays under 1e5 mm/s x 1.1e13 ms; a walk or grid has at most 3e9 cells):

=========================  ==================  =====================================
lengths (``*_mm``)         (0, 1e6] mm         1 km, 100x the ~10 m subjects
``grid_mm``                [1e-3, 1e6] mm      1/700 of the lens's 0.7 mm focus step
``speed_mmps``             (0, 1e5] mm/s       100 m/s
durations (``*_ms``)       (0, 1e6] ms         1000 s
``frame_rate_hz``          [1e-3, 1e6] Hz      a frame period within the durations
``max_speed_dps``          [0.36, 1e6] deg/s   a full-turn slew within them
``resolution_deg``         [1e-6, 360] deg     at most a full turn
``n_stop``                 [0.5, 1000]         f/0.5 is a lens in air's limit
``pixel_scale_cal``        (0, 1e6]            the renderer's window rule bounds it
``repeatability_dpt``      [0, 20] dpt         the +-10 dpt envelope's span
``sharpness_min``          (0, 1]              canonical frames score below 0.06
``min_px_across_iris``     (0, 1e6] px         245x the sensor's 4080 px
``brightness_lo``, ``hi``  [0, 255]            8-bit grey
counts, ``impostor_pairs`` [1 or 0, 1e5]       ``MAX_RENDERS``: each queues as many
``start_frame``            [2, 1e7]            91 h at 30.5 fps
=========================  ==================  =====================================

Validation walks the config against ``SCHEMA`` with ``_schema_errors``, which
keeps jsonschema's semantics (a bool is not a number, 1.0 is an integer, a
pattern is a search) and its pick of the error to report without importing
it: jsonschema is only the tests' oracle.  Its one rule of its own: NaN, an
infinity or an int past the float range fails at its key, as NaN passes every
bound and a seed has no maximum.  The experiment section is walked against
its kind's schema alone, so an error there names the bad key.  Validation
then fills the omitted keys (``validate_config``; the device sections fall
back to the dataclass defaults, not to the scenario's overrides), bounds the
worst-case renders the config queues (``queued_renders``, at most
``MAX_RENDERS``) and builds the rig, so the dataclasses' own checks (ordered
ranges, a brightness window that is not empty, an exposure inside one frame, a
lens separation inside the focal length, a repeatability no wider than the
power range) reject a bad config.
It builds the train of every sweep base and reads the plans the runners
follow: the side walks (``side_walk``), the hd_curve grid (``hd_positions``),
the multiperson cast and the iom enrolment and walkers (``multiperson_cast``,
``iom_cast``; a walker walks at constant velocity from t = 0).  Every sight
passes one predicate, ``_check_sight``, and every subject's sights and aims
one box check over all its motion can reach, ``_check_reach``; a rendered sight's
crop fits the sensor (``renderer.render_side``, the tight crop's side: each
render checks its own side again).  Subject ids must be unique.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import numbers
import re
import sys
from collections.abc import Callable

import numpy as np

from . import calibration, iriscode, optics
from .devices import LensParams, MirrorParams, SensorParams, SteeringMirror, TunableLens
from .optics import OpticalTrain
from .quality import QualityThresholds
from .renderer import BASE_WIDTH, render_side
from .scene import JITTER_BANDWIDTH_HZ, JITTER_REACH_SIGMAS, RigGeometry, Subject, aim_angles, \
    eye_position, line_of_sight_mm, subject_at
from .scheduler import DEFAULT_DWELL_BUDGET, CaptureRig

SCHEMA_VERSION = 1
# worst-case renders one config may queue; the canonical dof_extension
# queues at most 565
MAX_RENDERS = 100_000
# a dof_extension side is a runaway scan once it leaves these multiples of
# its base without its gate failing
GUARD_FRACTIONS = (0.3, 3.0)


class ConfigError(ValueError):
    """Anything wrong with a run configuration."""


def _number(lo: float, hi: float, *, open_lo: bool = False) -> dict:
    """A number in [lo, hi], or in (lo, hi] given ``open_lo``."""
    return {"type": "number", "exclusiveMinimum" if open_lo else "minimum": lo, "maximum": hi}


# the bounds of the module docstring's table; a seed is the one unbounded number
_LENGTH = _DURATION = _number(0, 1e6, open_lo=True)
_SEED = {"type": "integer", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1, "maximum": MAX_RENDERS}
_UNITS = {"_mm": _LENGTH, "_ms": _DURATION}


def _obj(properties: dict, required: list[str] | None = None) -> dict:
    schema = {"type": "object", "properties": properties, "additionalProperties": False}
    return schema | {"required": required} if required else schema


# each range field's (min key, max key) pair in its device section
_RANGES = {"power_range": ("power_min_dpt", "power_max_dpt"),
           "pan_range": ("pan_min_deg", "pan_max_deg"),
           "tilt_range": ("tilt_min_deg", "tilt_max_deg")}


def _section(cls, **overrides) -> dict:
    """The schema of the device section that builds ``cls``: one key per field.

    A field's key is bounded by its unit (``_UNITS``) unless overridden.  A
    range field is its two ``_RANGES`` keys, each bounded by the field's
    default range: the hardware envelope.  Keys keep field order, so
    reordering fields changes which of two bad keys validation reports.
    """
    properties = {}
    for f in dataclasses.fields(cls):
        if f.name in _RANGES:
            properties.update(dict.fromkeys(_RANGES[f.name], _number(*f.default)))
        else:
            properties[f.name] = overrides.get(f.name) or _UNITS[f.name[-3:]]
    return _obj(properties)


_SUBJECT = _obj({
    # a subject id names its dumped frame files; Python's $ also matches
    # before a final newline, which the lookahead refuses
    "subject_id": {"type": "string", "pattern": "^[A-Za-z0-9_-]+$(?!\n)"},
    "identity_seed": _SEED,
    "distance_mm": _LENGTH,
    "height_mm": _LENGTH,
}, required=["subject_id", "identity_seed", "distance_mm", "height_mm"])

# each experiment key once: (its schema, its value in the canonical scenario)
_EXPERIMENTS: dict[str, dict[str, tuple[dict, object]]] = {
    "dof_table": {
        "distances_mm": ({"type": "array", "items": _LENGTH, "minItems": 1},
                         [1000.0 + 500.0 * k for k in range(9)]),
    },
    "dof_extension": {
        "base_distances_mm": ({"type": "array", "items": _LENGTH, "minItems": 1},
                              [1000.0, 3000.0, 5000.0]),
        "grid_mm": (_number(1e-3, 1e6), 10.0),
        "repeats": (_COUNT, calibration.CAL_REPEATS),
        "identity_seed": (_SEED, calibration.CAL_IDENTITY_SEED),
    },
    "hd_curve": {
        "base_mm": (_LENGTH, 5000.0),
        "grid_mm": (_number(1e-3, 1e6), 100.0),
        "span_near_mm": (_LENGTH, 2400.0),
        "span_far_mm": (_LENGTH, 4000.0),
        "repeats": (_COUNT, 5),
        "identity_seed": (_SEED, 7000),
        "impostor_pairs": ({"type": "integer", "minimum": 0, "maximum": MAX_RENDERS}, 50),
    },
    "multiperson": {
        "subjects": ({"type": "array", "items": _SUBJECT, "minItems": 2}, [
            {"subject_id": "seated", "identity_seed": 4411,
             "distance_mm": 4380.0, "height_mm": 1540.0},
            # 6340 from the scenario diagram; a nearby writeup says 6430,
            # the diagram wins
            {"subject_id": "standing", "identity_seed": 8122,
             "distance_mm": 6340.0, "height_mm": 1800.0},
        ]),
        "order": ({"enum": ["given_order", "nearest_transition"]}, "nearest_transition"),
        "dwell_budget": (_COUNT, DEFAULT_DWELL_BUDGET),
    },
    "iom": {
        "identity_seed": (_SEED, 3377),
        "height_mm": (_LENGTH, 1700.0),
        "start_y_mm": (_LENGTH, 3800.0),
        "speed_mmps": (_number(0, 1e5, open_lo=True), 1000.0),
        "n_frames": (_COUNT, 15),
        "start_frame": ({"type": "integer", "minimum": 2, "maximum": 10 ** 7}, 16),
        "jitter_sigma_mm": (_number(0, 1e6), 3.0),
        "ablation_jitter_sigma_mm": (_number(0, 1e6), 0.0),
        "motion_seed": (_SEED, 1),
    },
}

# the device sections where a canonical scenario departs from the dataclass defaults
_SCENARIO_DEVICES = {
    "multiperson": {"rig": {"mirror_height_mm": 1200.0}},
    "iom": {
        # mirror raised to eye height: a walking eye off the mirror plane
        # picks up a transverse velocity component that smears the exposure
        "rig": {"mirror_height_mm": 1580.0},
        "train": {"f_zoom_mm": 210.0, "d_ref_mm": 3200.0},
    },
}

SCHEMA = _obj({
    "version": {"const": SCHEMA_VERSION},
    "seed": _SEED,
    "experiment": {"oneOf": [
        _obj({"kind": {"const": kind}} | {key: schema for key, (schema, _) in keys.items()},
             required=["kind"])
        for kind, keys in _EXPERIMENTS.items()]},
    "train": _section(OpticalTrain, f_zoom_mm=_number(*optics.ZOOM_RANGE_MM),
                      n_stop=_number(0.5, 1000.0),
                      pixel_scale_cal=_number(0, 1e6, open_lo=True)),
    "lens": _section(LensParams, repeatability_dpt=_number(0, 20.0),
                     mode={"enum": ["raw", "filtered"]}),
    "mirror": _section(MirrorParams, resolution_deg=_number(1e-6, 360.0),
                       max_speed_dps=_number(0.36, 1e6)),
    "sensor": _section(SensorParams, frame_rate_hz=_number(1e-3, 1e6)),
    "rig": _section(RigGeometry),
    "quality": _section(QualityThresholds, sharpness_min=_number(0, 1.0, open_lo=True),
                        min_px_across_iris=_number(0, 1e6, open_lo=True),
                        brightness_lo=_number(0, 255.0),
                        brightness_hi=_number(0, 255.0, open_lo=True)),
}, required=["version", "experiment"])


_TYPES = {"object": dict, "array": list, "string": str}


def _is(value, kind: str) -> bool:
    """JSON Schema's types: a bool is not a number, and 1.0 is an integer."""
    if kind in _TYPES:
        return isinstance(value, _TYPES[kind])
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    return kind == "number" or isinstance(value, int) or \
        isinstance(value, float) and value.is_integer()


def _equal(value, const) -> bool:
    """JSON Schema's equality of scalars: True is not 1, but 1.0 is."""
    return value == const and isinstance(value, bool) == isinstance(const, bool)


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Each way ``value`` breaks ``schema``: (rank path, path, message).

    Walks the keywords ``SCHEMA`` uses, with jsonschema's semantics and
    wording, and one rule of its own: a number holds a finite float.
    ``SCHEMA``'s one ``oneOf``, over the experiment kinds, walks only the
    branch whose ``kind`` const the value names, and yields that branch's
    best error ranked at the ``oneOf``'s own path, where jsonschema reports
    the ``oneOf``.
    """
    if "type" in schema and not _is(value, schema["type"]):
        yield path, path, f"{_repr(value)} is not of type {schema['type']!r}"
        return  # every other keyword beside a type applies to that type alone
    if schema.get("type") in ("number", "integer") and not abs(value) <= sys.float_info.max:
        # NaN passes every bound
        yield path, path, (f"{json.dumps(value)} is not a finite number"
                           if isinstance(value, float) else
                           f"{_repr(value)} is past the float range")
        return
    for key, arg in schema.items():
        if key == "const" and not _equal(value, arg):
            yield path, path, f"{arg!r} was expected"
        elif key == "enum" and not any(_equal(value, each) for each in arg):
            yield path, path, f"{_repr(value)} is not one of {arg!r}"
        elif key == "minimum" and value < arg:
            yield path, path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "maximum" and value > arg:
            yield path, path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "exclusiveMinimum" and value <= arg:
            yield path, path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "pattern" and not re.search(arg, value):
            yield path, path, f"{value!r} does not match {arg!r}"
        elif key == "minItems" and len(value) < arg:
            yield path, path, (f"{_repr(value)} "
                               f"{'should be non-empty' if arg == 1 else 'is too short'}")
        elif key == "items":
            for index, item in enumerate(value):
                yield from _schema_errors(item, arg, path + (index,))
        elif key == "properties":
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties":
            extras = sorted((k for k in value if k not in schema["properties"]),
                            key=lambda k: k if isinstance(k, str) else _repr(k))
            if extras:
                yield path, path, ("Additional properties are not allowed ("
                                   f"{', '.join(map(_repr, extras))} "
                                   f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "required":
            for name in arg:
                if name not in value:
                    yield path, path, f"{name!r} is a required property"
        elif key == "oneOf":
            branches = {sub["properties"]["kind"]["const"]: sub for sub in arg}
            kind = value.get("kind") if isinstance(value, dict) else None
            # a kind may be unhashable: only a string can name a branch
            branch = branches[kind] if isinstance(kind, str) and kind in branches else {
                "type": "object", "required": ["kind"],
                "properties": {"kind": {"enum": list(branches)}}}
            if best := _best(_schema_errors(value, branch, path)):
                yield path, *best


def _repr(value) -> str:
    """``repr(value)``, with each int past the float range in it named by its bit length.

    str() refuses an int past 4300 digits, so no such int is ever printed.
    """
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_repr(k)}: {_repr(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        items = ", ".join(map(_repr, value))
        return (f"[{items}]" if isinstance(value, list)
                else f"({items}{',' * (len(value) == 1)})")
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        return f"an integer of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:  # such an int inside a value of no JSON shape, a set say
        return f"a {type(value).__name__} holding an integer too long to print"


def _best(errors) -> tuple | None:
    """jsonschema's ``best_match`` over ``_schema_errors``: (path, message), or None.

    The shallowest error wins, then the greatest path, then the first found.
    """
    best = max(errors, key=lambda e: (-len(e[0]), e[0]), default=None)
    return best and best[1:]


def validate_config(cfg: dict) -> dict:
    """Schema plus the cross-field checks a JSON schema cannot express.

    Fills ``seed`` and the omitted ``experiment`` keys in place from the
    canonical scenario of the experiment's kind, and returns ``cfg`` with
    every ``experiment`` integer an int.
    """
    err = _best(_schema_errors(cfg, SCHEMA))
    if err is not None:
        path, message = err
        raise ConfigError(f"config invalid at {'/'.join(map(str, path)) or '<root>'}: "
                          f"{message}")
    kind = cfg["experiment"]["kind"]
    if kind in ("dof_extension", "hd_curve"):  # rig_from_config sets both per base
        for key in ("f_zoom_mm", "d_ref_mm"):
            if key in cfg.get("train", {}):
                raise ConfigError(f"train.{key} is set: {kind} re-zooms and "
                                  f"re-focuses the train for each base itself")
    canonical = default_config(kind)
    cfg.setdefault("seed", canonical["seed"])
    exp = cfg["experiment"]
    for key, value in canonical["experiment"].items():
        exp.setdefault(key, value)
    # the schema takes 3.0 as an integer, and the runners count with it
    for key, (schema, _) in _EXPERIMENTS[kind].items():
        if schema.get("type") == "integer":
            exp[key] = int(exp[key])
    renders = queued_renders(exp)
    if renders > MAX_RENDERS:
        raise ConfigError(f"{kind} queues up to {renders} renders, more than the "
                          f"{MAX_RENDERS} allowed; coarsen grid_mm or lower the counts")
    try:
        rig = rig_from_config(cfg)
        _check_experiment(cfg, rig)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cfg


def side_walk(base: float, grid: float, sign: float) -> tuple[int, Callable[[int], float]]:
    """One dof_extension side walk: its cell count n, and the position of cell k.

    Cell k sits at ``base + sign * k * grid``, k = 0 the base cell.  The walk
    is the run of cells from the base cell inside GUARD_FRACTIONS of the base
    and beyond the probe's mirror-to-lens leg.  Its cells are never listed: n
    is the walk's own search (``walk_probe``) for its first cell outside, which
    is exact where float rounding adds or drops the last cell and takes
    O(log n) steps on any grid.
    """
    leg = calibration.PROBE_RIG.lens_height_mm
    lo, hi = (f * base for f in GUARD_FRACTIONS)

    def position(k: int) -> float:
        return base + sign * k * grid

    inside, outside = -1, math.inf
    while outside - inside > 1:
        k = walk_probe(inside, outside, math.inf)
        d = position(k)
        if lo <= d <= hi and d > leg:
            inside = k
        else:
            outside = k
    return outside, position


def walk_probe(lo: int, hi: float, n: float) -> int:
    """The next cell a search of an n-cell side walk probes.

    ``lo`` is the last cell known to pass (-1 before the base cell) and ``hi``
    the first known to fail (n until one fails); the search ends when they
    are adjacent.  Until a cell fails it gallops through cells 0, 1, 2, 4, 8,
    ... capped at n - 1, then it bisects.  One repeat's search probes at most
    ``walk_renders(n)`` cells.
    """
    return (lo + hi) // 2 if hi < n else min(lo + max(lo, 1), n - 1)


def walk_renders(n: int) -> int:
    """Worst-case cells one search of an n-cell side walk probes: min(n, 2 ceil(log2 n) + 2)."""
    return min(n, 2 * (n - 1).bit_length() + 2)


def _hd_steps(exp: dict) -> list[int]:
    """hd_curve grid steps below and above the base."""
    return [round(exp[key] / exp["grid_mm"]) for key in ("span_near_mm", "span_far_mm")]


def queued_renders(exp: dict) -> int:
    """Worst-case renders a config queues.

    dof_extension: every repeat searches both side walks of every base, each
    for at most ``walk_renders`` cells, and renders the base cell, which both
    walks count, once.  hd_curve: every position and repeat, the template
    and two eyes per impostor pair.
    multiperson: one enrolment and the whole dwell budget per subject.  iom:
    both variants' frames and one enrolment.  dof_table renders nothing.
    """
    kind = exp["kind"]
    if kind == "dof_extension":
        return exp["repeats"] * sum(
            sum(walk_renders(side_walk(base, exp["grid_mm"], sign)[0]) for sign in (-1.0, 1.0)) - 1
            for base in exp["base_distances_mm"])
    if kind == "hd_curve":
        n_near, n_far = _hd_steps(exp)
        return (n_near + n_far + 1) * exp["repeats"] + 1 + 2 * exp["impostor_pairs"]
    if kind == "multiperson":
        return len(exp["subjects"]) * (exp["dwell_budget"] + 1)
    if kind == "iom":
        return 2 * exp["n_frames"] + 1
    return 0


def _check_experiment(cfg: dict, rig: CaptureRig) -> None:
    """Every train the experiment builds exists; every aim and sight it plans can be imaged."""
    exp = cfg["experiment"]
    kind = exp["kind"]
    leg = calibration.PROBE_RIG.lens_height_mm
    lens = rig.lens.params
    if kind == "dof_table":
        for d in exp["distances_mm"]:
            _check_sight(f"dof_table distance {d:.6g} mm", d, rig.train)
    elif kind == "dof_extension":
        for base in exp["base_distances_mm"]:
            train = _base_train(cfg, base)
            _check_sight(f"dof_extension base {base:.6g} mm", base, train, leg=leg)
            n, position = side_walk(base, exp["grid_mm"], -1.0)  # cell n - 1 images the most
            near = position(n - 1)
            render_side(optics.pixels_across_iris(train, near) / 2.0,
                        where=f"dof_extension base {base:.6g} mm's nearest cell {near:.6g} mm")
    elif kind == "hd_curve":
        train = _base_train(cfg, exp["base_mm"])
        positions = hd_positions(exp)
        # the disk grows away from focus reach, so the grid's ends bound it
        for end, d in (("nearest", positions[0]), ("farthest", positions[-1])):
            _check_sight(f"hd_curve {end} position {d:.6g} mm", d, train, leg=leg, lens=lens)
    elif kind == "multiperson":
        seen = set()
        for subject in multiperson_cast(cfg, rig):
            sid = subject.subject_id
            if sid in seen:
                raise ConfigError(f"subject id {sid!r} appears more than once")
            seen.add(sid)
            d = line_of_sight_mm(subject.position_mm, rig.geometry)  # enrolled standing
            _check_sight(f"subject {sid!r} at {d:.6g} mm line of sight", d, rig.train,
                         lens=lens, enrolment=True)
            _check_reach(f"subject {sid!r}", rig, subject, [0.0])  # it stands: t = 0 is any t
    elif kind == "iom":
        enrolment, walkers = iom_cast(cfg, rig)
        d = line_of_sight_mm(enrolment.position_mm, rig.geometry)
        _check_sight(f"iom enrolment at {d:.6g} mm line of sight", d, rig.train,
                     lens=lens, enrolment=True)
        # A frame sees the linear walk w at mid-exposure plus a jitter j, |j| <= R per axis.
        # The tracker aims at p1 + a (p1 - p0) from the eyes at the two frame starts before,
        # a = (P + e/2)/P, period P, exposure e: w + j1 + a (j1 - j0).  Each jitter term's
        # frequency is at most f = JITTER_BANDWIDTH_HZ and their amplitudes sum to R, so
        # |j1 - j0| <= 2 pi f P R, and the aim is within (1 + 2 pi f (P + e/2)) R of w.
        period, half = rig.sensor.frame_period_ms, rig.sensor.exposure_ms / 2.0
        times = [(exp["start_frame"] + k) * period + half for k in (0, exp["n_frames"] - 1)]
        widen = 1.0 + 2.0 * math.pi * JITTER_BANDWIDTH_HZ * (period + half) / 1000.0
        for variant, walker in walkers:
            _check_reach(f"iom {variant} walker", rig, walker, times, widen)


def _base_train(cfg: dict, base: float) -> OpticalTrain:
    """The train of a sweep based at ``base`` mm; a bad one names the kind and base."""
    try:
        return rig_from_config(cfg, base).train
    except ValueError as err:
        raise ConfigError(f"{cfg['experiment']['kind']} base {base:.6g} mm: {err}") from err


def _check_reach(who: str, rig: CaptureRig, subject: Subject, times: list,
                 widen: float = 1.0) -> None:
    """Every eye within R = ``JITTER_REACH_SIGMAS`` sigma per axis of the walk between
    ``times`` can be imaged, and every aim within ``widen`` R of it is in range: over a
    box, the nearest and farthest sights bound the defocus disk; a horizontal corner,
    or +-180 deg where the box meets the -y half-axis, the pan (azimuth); and the top
    or bottom at the nearest or farthest range the tilt.
    """
    walk = dataclasses.replace(subject, jitter_sigma_mm=0.0)
    lo, hi = (f([eye_position(walk, t) for t in times], axis=0) for f in (np.min, np.max))
    reach = JITTER_REACH_SIGMAS * subject.jitter_sigma_mm
    (near, far), aim_ranges = ((np.clip(0.0, lo - r, hi + r), np.maximum(r - lo, hi + r))
                               for r in (reach, widen * reach))
    for end, eye in (("nearest", near), ("farthest", far)):
        d = line_of_sight_mm(eye, rig.geometry)
        _check_sight(f"{who} at its {end} ({d:.6g} mm line of sight)", d, rig.train,
                     lens=rig.lens.params)
    xs, ys, zs = zip(lo - widen * reach, hi + widen * reach)
    try:
        pans = [aim_angles((a, b, 0.0))[0] for a in xs for b in ys]
        pans += [-180.0, 180.0] if xs[0] <= 0.0 <= xs[1] and ys[0] < 0.0 else []
        tilts = [aim_angles((0.0, math.hypot(*e[:2]), c))[1] for e in aim_ranges for c in zs]
        rig.mirror.check_range(min(pans), min(tilts))
        rig.mirror.check_range(max(pans), max(tilts))
    except ValueError as err:
        raise ConfigError(f"{who} over its motion envelope: {err}") from err


def _check_sight(where: str, d: float, train: OpticalTrain, *, leg: float = 0.0,
                 lens: LensParams | None = None, enrolment: bool = False) -> None:
    """``where``, ``d`` mm down the line of sight, is beyond the zoom focal length and ``leg``.

    Given the ``lens``, the sight is rendered: an enrolment lies within focus
    reach and spans ``iriscode.MIN_PX_TO_DETECT``, the crop fits the sensor,
    and the defocus disk of the power ``lens.clamp`` holds fits the frame: a
    wider one holds no image and its render grows with its square.
    """
    f = train.f_zoom_mm
    if d <= f:
        raise ConfigError(f"{where} is inside the zoom focal length {f:.6g} mm")
    if d <= leg:
        raise ConfigError(f"{where} is not beyond the probe's {leg:.6g} mm mirror-to-lens leg")
    if lens is None:
        return
    power = optics.tunable_power_for_focus(train, d)
    if enrolment and lens.clamp(power) != power:
        lo, hi = lens.power_range
        raise ConfigError(f"{where} needs {power:.4g} dpt, outside the lens range "
                          f"[{lo:.6g}, {hi:.6g}] dpt")
    px = optics.pixels_across_iris(train, d)
    if enrolment and px < iriscode.MIN_PX_TO_DETECT:
        raise ConfigError(f"{where} images {px:.6g} px across the iris, fewer than the "
                          f"{iriscode.MIN_PX_TO_DETECT:.6g} px iris detection needs")
    render_side(px / 2.0, where=where)
    blur = optics.blur_on_sensor_mm(train, lens.clamp(power), d) / optics.PIXEL_PITCH_MM
    if blur > BASE_WIDTH:
        raise ConfigError(
            f"{where} is so far out of focus reach that its "
            f"{blur:.0f} px defocus disk is wider than the {BASE_WIDTH} px frame")


def multiperson_cast(cfg: dict, rig: CaptureRig) -> list[Subject]:
    """The multiperson cast, motion seeds ``seed + i``: validated, then captured."""
    return [subject_at(entry["subject_id"], entry["identity_seed"],
                       entry["distance_mm"], entry["height_mm"],
                       rig.geometry, motion_seed=cfg["seed"] + i)
            for i, entry in enumerate(cfg["experiment"]["subjects"])]


def iom_cast(cfg: dict, rig: CaptureRig) -> tuple[Subject, list[tuple[str, Subject]]]:
    """The walker enrolled where the train is focused, and each variant's walk,
    whose subject id is the variant."""
    exp = cfg["experiment"]
    enrolment = subject_at("walker", exp["identity_seed"],
                           rig.train.d_ref_mm - rig.geometry.lens_height_mm,
                           exp["height_mm"], rig.geometry)
    walkers = [(variant, subject_at(variant, exp["identity_seed"], exp["start_y_mm"],
                                    exp["height_mm"], rig.geometry,
                                    velocity_mmps=(0.0, -exp["speed_mmps"], 0.0),
                                    jitter_sigma_mm=exp[key],
                                    motion_seed=exp["motion_seed"]))
               for variant, key in (("jitter", "jitter_sigma_mm"),
                                    ("nojitter", "ablation_jitter_sigma_mm"))]
    return enrolment, walkers


def load_config(path) -> dict:
    """The JSON document at ``path``, not yet validated."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {err}") from err


def hd_positions(exp: dict) -> list[float]:
    """The hd_curve focus grid, nearest first, with the base on a grid point."""
    n_near, n_far = _hd_steps(exp)
    return [exp["base_mm"] + k * exp["grid_mm"] for k in range(-n_near, n_far + 1)]


def _with_ranges(cls, section: dict):
    """``cls(**section)``, with each ``_RANGES`` key pair as one range.

    A missing end takes that end of the field's default.
    """
    kwargs = dict(section)
    for f in dataclasses.fields(cls):
        if f.name in _RANGES:
            (lo_key, hi_key), (lo, hi) = _RANGES[f.name], f.default
            kwargs[f.name] = (kwargs.pop(lo_key, lo), kwargs.pop(hi_key, hi))
    return cls(**kwargs)


def rig_from_config(cfg: dict, base_mm: float | None = None) -> CaptureRig:
    """A new capture rig: optics, devices, geometry and gates from the config.

    Given ``base_mm``, the rig of a sweep based there: its train is
    re-zoomed for the base, magnification held, and focused there.  The
    sweeps set the zoom and the base focus themselves, so validation rejects
    a ``train`` section that sets either.
    """
    rezoom = {} if base_mm is None else {
        "f_zoom_mm": optics.zoom_focal_for_distance(base_mm), "d_ref_mm": base_mm}
    return CaptureRig(train=OpticalTrain(**rezoom, **cfg.get("train", {})),
                      geometry=RigGeometry(**cfg.get("rig", {})),
                      lens=TunableLens(_with_ranges(LensParams, cfg.get("lens", {})),
                                       seed=cfg["seed"]),
                      mirror=SteeringMirror(_with_ranges(MirrorParams, cfg.get("mirror", {}))),
                      sensor=SensorParams(**cfg.get("sensor", {})),
                      thresholds=QualityThresholds(**cfg.get("quality", {})))


def default_config(kind: str) -> dict:
    """A fresh copy of the canonical scenario; it sets every key validation fills."""
    if kind not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    experiment = {"kind": kind} | {key: value for key, (_, value) in _EXPERIMENTS[kind].items()}
    return copy.deepcopy({"version": SCHEMA_VERSION, "seed": 0, "experiment": experiment,
                          **_SCENARIO_DEVICES.get(kind, {})})
