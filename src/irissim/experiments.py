"""Experiment drivers: a validated config in, plot-ready CSV rows out.

Each runner returns an ExperimentResult carrying the CSV payload, a short
text summary, any qualified frames worth dumping, and a stats dict for
programmatic checks.  The distance sweeps decompose into independent units
that are pure functions of the config, so the parallel path maps the same
unit functions over a process pool and gets byte-identical output back.

Each unit holds every repeat of one clean image, so the renderer's
one-entry clean-image cache serves the repeats after the first.  A
dof_extension unit is one (base, side): it walks outward from the base with
all repeats in lockstep, each repeat stopping at its own gate, and the rows
are then reassembled per (base, repeat) in position order.  An hd_curve
unit is one position with all of its repeats.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import calibration, config, iriscode, optics, quality
from .devices import LensParams
from .renderer import DEFAULT_K_AST, render_eye, write_pgm
from .scene import Subject, TrajectorySegment, eye_position, subject_at
from .scheduler import CSV_COLUMNS, CaptureRig, capture_sequence, noise_seed_for, \
    setpoints_for, track_and_capture

# bare-lens depth of field the 5 m extension ratio is quoted against
BASELINE_DOF_MM = 104.0


def format_cell(value) -> str:
    """One CSV cell: empty for None, 1/0 for bools, six significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class ExperimentResult:
    name: str
    header: tuple[str, ...]
    rows: list[tuple]
    summary: list[str]
    frames: list[tuple[str, np.ndarray]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def write_result(result: ExperimentResult, out_dir, dump_frames: bool = False) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{result.name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.header)
        for row in result.rows:
            writer.writerow([format_cell(v) for v in row])
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(result.summary) + "\n")
    if dump_frames and result.frames:
        fdir = out / "frames"
        fdir.mkdir(exist_ok=True)
        for name, image in result.frames:
            write_pgm(fdir / f"{name}.pgm", image)


def _map_units(fn, units, parallel: bool):
    if parallel:
        with ProcessPoolExecutor() as pool:
            return list(pool.map(fn, units, chunksize=1))
    return [fn(u) for u in units]


def _probe(cfg: dict, base: float, d: float, identity_seed: int, noise_index: int):
    """One sweep render: the train re-zoomed for ``base``, driven to focus at ``d``."""
    train = config.base_train(cfg, base)
    power = optics.drive_power_for_focus(train, d, config.lens_params(cfg).power_range)
    return calibration.probe_frame(train, d, power, identity_seed=identity_seed,
                                   noise_seed=noise_seed_for(cfg["seed"], noise_index))


# ---------------------------------------------------------------- dof_table

def run_dof_table(cfg: dict, parallel: bool = False) -> ExperimentResult:
    exp = cfg["experiment"]
    distances = exp["distances_mm"]
    train = config.train_from_config(cfg)
    f = train.f_zoom_mm

    rows = []
    for d in distances:
        dof = optics.depth_of_field(f, train.n_stop, d, train.coc_mm)
        rows.append((d, dof.near_mm, dof.far_mm, dof.total_mm,
                     optics.field_of_view_deg(train),
                     optics.capture_volume_m3(train, d)))

    totals = [r[3] for r in rows]
    increasing = all(b > a for a, b in zip(totals, totals[1:]))
    summary = [
        f"dof_table: f = {f:.6g} mm at f/{train.n_stop:.6g}, coc = {train.coc_mm:.6g} mm",
        f"dof_table: {len(rows)} rows, dof {min(totals):.6g} .. {max(totals):.6g} mm",
        f"dof_table: strictly increasing with distance: {'yes' if increasing else 'NO'}",
    ]
    return ExperimentResult(
        name="dof_table",
        header=("focus_mm", "near_mm", "far_mm", "total_mm", "fov_deg",
                "capture_volume_m3"),
        rows=rows, summary=summary,
        stats={"f_zoom_mm": f, "distances_mm": list(distances), "totals_mm": totals,
               "increasing": increasing},
    )


# ------------------------------------------------------------ dof_extension

def _extension_cell(cfg, base, d, repeat):
    frame = _probe(cfg, base, d, cfg["experiment"]["identity_seed"], repeat)
    report = quality.evaluate(frame, config.quality_thresholds(cfg))
    row = (base, repeat, d, frame.power_dpt, frame.blur_px, frame.astig_sigma_px,
           frame.px_across_iris, report.sharpness, report.passed)
    return report.passed, row


def _extension_side(args):
    """Walk one (base, side) outward from focus, all repeats in lockstep.

    At each position every repeat still passing is evaluated back to back,
    so they share one clean image; a repeat stops at the first cell its gate
    fails.  A repeat the runaway guard stopped before its gate failed found
    no limit: its extent is only a lower bound, and the side is cut.
    Returns the base cell of every repeat, the side's rows (in walk order)
    and extent per repeat, and whether the guard cut the side.
    """
    cfg, base, sign = args
    exp = cfg["experiment"]
    grid = exp["grid_mm"]
    leg = calibration.PROBE_RIG.lens_height_mm
    repeats = range(exp["repeats"])

    base_cells = [_extension_cell(cfg, base, base, r) for r in repeats]
    live = [r for r in repeats if base_cells[r][0]]
    rows = [[] for _ in repeats]
    extent = [0.0 for _ in repeats]
    cut = False
    k = 1
    while live:
        d = base + sign * k * grid
        if d < 0.3 * base or d > 3.0 * base or d <= leg:
            cut = True  # a runaway scan or no eye past the mirror
            break
        passing = []
        for r in live:
            ok, row = _extension_cell(cfg, base, d, r)
            rows[r].append(row)
            if ok:
                extent[r] = k * grid
                passing.append(r)
        live = passing
        k += 1
    return [row for _, row in base_cells], rows, extent, cut


def run_dof_extension(cfg: dict, parallel: bool = False) -> ExperimentResult:
    exp = cfg["experiment"]
    bases = exp["base_distances_mm"]
    repeats = exp["repeats"]
    units = [(cfg, b, sign) for b in bases for sign in (-1.0, 1.0)]
    results = _map_units(_extension_side, units, parallel)

    rows = []
    per_base: dict[float, dict] = {}
    for base, front, rear in zip(bases, results[0::2], results[1::2]):
        base_rows, front_rows, front_mm, front_cut = front
        _, rear_rows, rear_mm, rear_cut = rear
        for r in range(repeats):  # each (base, repeat) scan in position order
            rows += sorted([base_rows[r], *front_rows[r], *rear_rows[r]],
                           key=lambda row: row[2])
        agg = per_base.setdefault(base, {"front": [], "rear": [], "cut": set()})
        agg["front"] += front_mm
        agg["rear"] += rear_mm
        agg["cut"].update(side for side, c in (("front", front_cut), ("rear", rear_cut)) if c)

    summary = []
    stats = {"guard_cut": []}
    for base in bases:
        front = float(np.mean(per_base[base]["front"]))
        rear = float(np.mean(per_base[base]["rear"]))
        total = front + rear
        cut = per_base[base]["cut"]
        stats[base] = {"front_mm": front, "rear_mm": rear, "total_mm": total}
        stats["guard_cut"] += [(base, side) for side in ("front", "rear") if side in cut]
        # a side the guard cut, and a total over it, is only a lower bound
        ge = {side: "≥ " if side in cut else "" for side in ("front", "rear")}
        ge["total"] = "≥ " if cut else ""
        line = (f"dof_extension: base {base / 1000.0:.6g} m -> front "
                f"{ge['front']}{front / 1000.0:.6g} m, rear {ge['rear']}"
                f"{rear / 1000.0:.6g} m, total {ge['total']}{total / 1000.0:.6g} m")
        if base == 5000.0:
            line += f", {total / BASELINE_DOF_MM:.3g}x the {BASELINE_DOF_MM:.6g} mm baseline"
        summary.append(line)
    totals = [stats[b]["total_mm"] for b in sorted(per_base)]
    ordered = all(b > a for a, b in zip(totals, totals[1:]))
    summary.append(f"dof_extension: monotone in base distance: {'yes' if ordered else 'NO'}")
    stats["ordered"] = ordered

    return ExperimentResult(
        name="dof_extension",
        header=("base_mm", "repeat", "position_mm", "power_dpt", "blur_px",
                "astig_sigma_px", "px_across_iris", "sharpness", "passed"),
        rows=rows, summary=summary, stats=stats,
    )


def analytic_extension_limits(train: optics.OpticalTrain) -> tuple[float, float]:
    """Model-predicted pass interval around the base focus, no rendering.

    Near limit: drive-power astigmatism alone exhausts the sharpness budget.
    The budget scales with imaged iris size (the gate normalizes its band to
    the iris diameter), anchored at the calibration point.  Far limit: the
    resolution gate crosses min_px_across_iris; under the constant-
    magnification zoom pairing this always binds before the membrane runs
    out of negative reach.  Both are roots of monotone optics expressions,
    which is what makes this an independent oracle for the rendered sweep.
    Gates, astigmatism and lens range are the package defaults.
    """
    min_px = quality.QualityThresholds().min_px_across_iris
    ref = optics.OpticalTrain()
    p_anchor = optics.tunable_power_for_focus(ref, calibration.ASTIG_ANCHOR_DISTANCE)
    sigma_anchor = DEFAULT_K_AST * p_anchor ** 2
    px_anchor = optics.pixels_across_iris(ref, calibration.ASTIG_ANCHOR_DISTANCE)

    def astig_margin(d: float) -> float:
        p = optics.tunable_power_for_focus(train, d)
        budget = sigma_anchor * optics.pixels_across_iris(train, d) / px_anchor
        return DEFAULT_K_AST * max(0.0, p) ** 2 - budget

    near_reach = optics.focus_distance_for_power(train, LensParams().power_range[1])
    near = optics.bisect_root(astig_margin, near_reach * (1.0 + 1e-9),
                              train.d_ref_mm)

    def px_margin(d: float) -> float:
        return optics.pixels_across_iris(train, d) - min_px

    far = optics.bisect_root(px_margin, train.d_ref_mm, 10.0 * train.d_ref_mm)
    return near, far


# ----------------------------------------------------------------- hd_curve

def _hd_unit(args):
    """Every repeat at one position, back to back: (position, repeat, hd) rows."""
    cfg, position, template_bytes = args
    exp = cfg["experiment"]
    template = iriscode.from_bytes(template_bytes)
    cells = []
    for repeat in range(exp["repeats"]):
        frame = _probe(cfg, exp["base_mm"], position, exp["identity_seed"], repeat)
        code = iriscode.encode_frame(frame, circles="truth")
        cells.append((position, repeat, iriscode.hamming_distance(code, template)))
    return cells


def _impostor_unit(args):
    """HD between two in-focus eyes with unrelated identity seeds."""
    cfg, k = args
    base = cfg["experiment"]["base_mm"]
    codes = [iriscode.encode_frame(_probe(cfg, base, base, identity, 2 * k + side),
                                   circles="truth")
             for side, identity in enumerate((1000 + k, 2000 + k))]
    return iriscode.hamming_distance(codes[0], codes[1])


def run_hd_curve(cfg: dict, parallel: bool = False) -> ExperimentResult:
    exp = cfg["experiment"]
    base = exp["base_mm"]
    repeats = exp["repeats"]

    positions = config.hd_positions(exp)
    template = iriscode.to_bytes(iriscode.encode_frame(
        _probe(cfg, base, base, exp["identity_seed"], 999_983), circles="truth"))
    units = _map_units(_hd_unit, [(cfg, p, template) for p in positions], parallel)
    rows = [cell for unit in units for cell in unit]
    impostors = _map_units(_impostor_unit,
                           [(cfg, k) for k in range(exp["impostor_pairs"])], parallel)

    by_pos: dict[float, list[float]] = {}
    for position, _, hd in rows:
        by_pos.setdefault(position, []).append(hd)
    mean_hd = {p: float(np.mean(v)) for p, v in by_pos.items()}

    # contiguous sub-threshold interval through the focal plane
    idx0 = positions.index(base)
    lo = hi = idx0
    while lo > 0 and mean_hd[positions[lo - 1]] < iriscode.MATCH_THRESHOLD:
        lo -= 1
    while hi < len(positions) - 1 and mean_hd[positions[hi + 1]] < iriscode.MATCH_THRESHOLD:
        hi += 1
    interval = (positions[lo], positions[hi])

    stats = {
        "base_mm": base,
        "train": config.base_train(cfg, base),
        "positions": positions,
        "mean_hd": mean_hd,
        "self_match": mean_hd[base],
        "interval_mm": interval,
        "span_mm": interval[1] - interval[0],
        "impostor_mean": float(np.mean(impostors)) if impostors else math.nan,
        "impostor_min": float(np.min(impostors)) if impostors else math.nan,
        "impostor_n": len(impostors),
    }
    summary = [
        f"hd_curve: base {base / 1000.0:.6g} m, {len(positions)} positions x {repeats} repeats",
        f"hd_curve: self-match mean hd {stats['self_match']:.6g}",
        (f"hd_curve: hd < {iriscode.MATCH_THRESHOLD} over "
         f"{interval[0] / 1000.0:.6g} .. {interval[1] / 1000.0:.6g} m "
         f"({stats['span_mm'] / 1000.0:.6g} m)"),
        (f"hd_curve: impostor mean {stats['impostor_mean']:.6g} min "
         f"{stats['impostor_min']:.6g} over {len(impostors)} pairs"),
    ]
    return ExperimentResult(
        name="hd_curve",
        header=("position_mm", "repeat", "hd"),
        rows=rows, summary=summary, stats=stats,
    )


# -------------------------------------------------------------- multiperson

def _enroll_code(rig: CaptureRig, subject: Subject, noise_seed: int) -> iriscode.IrisCode:
    """Gallery template: a clean capture of the subject standing still.

    Aim and focus come from the same setpoints a capture commands.
    """
    eye = np.asarray(subject.position_mm, dtype=float)
    pan, tilt, power = setpoints_for(rig, eye)
    frame = render_eye(rig.train, power_dpt=power, pan_deg=pan, tilt_deg=tilt,
                       eye_pos_mm=eye, identity_seed=subject.identity_seed,
                       noise_seed=noise_seed, rig=rig.geometry)
    return iriscode.encode_frame(frame, circles="detect")


def run_multiperson(cfg: dict, parallel: bool = False) -> ExperimentResult:
    exp = cfg["experiment"]
    rig = config.rig_from_config(cfg)
    subjects = config.multiperson_cast(cfg, rig)
    gallery = {s.subject_id: _enroll_code(rig, s, 7_000_001 + i)
               for i, s in enumerate(subjects)}
    log = capture_sequence(
        rig, subjects, order=exp["order"],
        dwell_budget=exp["dwell_budget"], gallery=gallery, noise_seed=cfg["seed"])

    first_ok: dict[str, float] = {}
    for e in log.qualified():
        first_ok.setdefault(e.target_id, e.t_ms)
    matched = {e.target_id: bool(e.matched) for e in log.qualified()}

    # a captured frame must not match the other subject's template
    cross: dict[str, float] = {}
    for target_id, _, frame in log.kept:
        code = iriscode.encode_frame(frame, circles="detect")
        for other in gallery:
            if other != target_id:
                cross[f"{target_id}->{other}"] = iriscode.hamming_distance(
                    code, gallery[other])

    cycle_ms = log.events[-1].t_ms - log.events[0].t_ms  # events are time-ordered
    rows = [tuple(getattr(e, c) for c in CSV_COLUMNS) for e in log.events]
    frames = [(f"{tid}_t{t:.0f}ms", fr.image) for tid, t, fr in log.kept]

    stats = {
        "subjects": [s.subject_id for s in subjects],
        "first_qualified_ms": first_ok,
        "matched": matched,
        "cross_hd": cross,
        "total_ms": cycle_ms,
    }
    summary = [
        (f"multiperson: {len(subjects)} subjects, {len(log.frames())} frames, "
         f"{len(log.qualified())} qualified, cycle {cycle_ms:.6g} ms"),
    ]
    for tid in stats["subjects"]:
        got = first_ok.get(tid)
        when = ("never qualified" if got is None
                else f"first qualified at {format_cell(got)} ms")
        summary.append(f"multiperson: {tid} {when}, "
                       f"self-match {'yes' if matched.get(tid) else 'NO'}")
    for key, hd in sorted(cross.items()):
        summary.append(f"multiperson: cross {key} hd {hd:.6g}")
    return ExperimentResult(
        name="multiperson", header=CSV_COLUMNS, rows=rows,
        summary=summary, frames=frames, stats=stats,
    )


# ---------------------------------------------------------------------- iom

def run_iom(cfg: dict, parallel: bool = False) -> ExperimentResult:
    exp = cfg["experiment"]
    enroll_rig = config.rig_from_config(cfg)
    train, geometry = enroll_rig.train, enroll_rig.geometry
    period = enroll_rig.sensor.frame_period_ms
    seed = cfg["seed"]
    walk = (TrajectorySegment(0.0, math.inf, (0.0, -exp["speed_mmps"], 0.0)),)
    n_frames = exp["n_frames"]
    start_frame = exp["start_frame"]

    # enrolled standing where the train is focused
    enroll_subject = subject_at("walker", exp["identity_seed"],
                                train.d_ref_mm - geometry.lens_height_mm, 0.0,
                                exp["height_mm"], geometry)
    gallery = {"walker": _enroll_code(enroll_rig, enroll_subject, 7_000_777)}

    variants = (("jitter", exp["jitter_sigma_mm"]),
                ("nojitter", exp["ablation_jitter_sigma_mm"]))
    rows = []
    frames = []
    stats: dict = {"variants": {}}
    summary = []
    for variant, sigma in variants:
        subject = subject_at("walker", exp["identity_seed"], exp["start_y_mm"], 0.0,
                             exp["height_mm"], geometry, trajectory=walk,
                             jitter_sigma_mm=sigma, motion_seed=exp["motion_seed"])
        rig = config.rig_from_config(cfg)
        log = track_and_capture(rig, subject, n_frames=n_frames,
                                start_frame=start_frame, gallery=gallery,
                                noise_seed=seed)
        ranges = []
        for i, e in enumerate(log.frames()):
            t_mid = e.t_ms + rig.sensor.exposure_ms / 2.0
            rng_mm = float(np.linalg.norm(eye_position(subject, t_mid)))
            if e.quality_pass:
                ranges.append(rng_mm)
            rows.append((variant, start_frame + i, e.t_ms, rng_mm, e.power_dpt,
                         e.blur_px, e.px_across_iris, e.quality_pass, e.hd,
                         e.matched))
        frames.extend((f"iom_{variant}_t{t:.0f}ms", fr.image)
                      for _, t, fr in log.kept)
        n_ok = len(log.qualified())
        n_match = sum(1 for e in log.qualified() if e.matched)
        stats["variants"][variant] = {
            "qualified": n_ok, "matched": n_match, "ranges_mm": ranges,
        }
        span = (f", ranges {min(ranges) / 1000.0:.6g} .. "
                f"{max(ranges) / 1000.0:.6g} m" if ranges else "")
        summary.append(f"iom: {variant} sigma {sigma:.6g} mm -> "
                       f"{n_ok}/{n_frames} qualified, {n_match} matched{span}")
    stats["frame_spacing_ms"] = period
    summary.append(f"iom: frame spacing {period:.6g} ms at 1 m/s walk")

    return ExperimentResult(
        name="iom",
        header=("variant", "frame", "t_ms", "range_mm", "power_dpt", "blur_px",
                "px_across_iris", "quality_pass", "hd", "matched"),
        rows=rows, summary=summary, frames=frames, stats=stats,
    )


RUNNERS = {
    "dof_table": run_dof_table,
    "dof_extension": run_dof_extension,
    "hd_curve": run_hd_curve,
    "multiperson": run_multiperson,
    "iom": run_iom,
}


def run_experiment(cfg: dict, parallel: bool = False) -> ExperimentResult:
    return RUNNERS[cfg["experiment"]["kind"]](cfg, parallel)
