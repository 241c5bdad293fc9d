"""Experiment drivers: a validated config in, plot-ready CSV rows out.

Each runner returns an ExperimentResult carrying the CSV payload, a short
text summary, any qualified frames worth dumping, and a stats dict for
programmatic checks.  The distance sweeps decompose into independent units
that are pure functions of the config, so the parallel path maps the same
unit functions over a process pool and gets byte-identical output back.

Each unit holds every repeat of one clean image, so the renderer's
one-entry clean-image cache serves the repeats after the first.  A
dof_extension unit is one (base, side): all repeats search its walk outward
from the base cell, cell 0, in lockstep, each for its own gate's edge (a
gallop, then a bisection), so a (base, repeat)'s rows in position order are
the front walk's probed cells reversed and then the rear walk's past the
base cell.  An hd_curve unit is one position's repeats.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import calibration, config, iriscode, optics, quality
from .devices import LensParams
from .renderer import DEFAULT_K_AST, render_eye, write_pgm
from .scene import Subject, eye_position
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
    """Search one (base, side) walk outward from focus, all repeats in lockstep.

    The cells are ``config.side_walk``'s, cell 0 the base cell itself.  Each
    repeat brackets its gate's edge between ``lo``, the last cell that passed
    (-1 before the base cell), and ``hi``, the first that failed (n before
    any): it gallops through cells 0, 1, 2, 4, ... up to cell n - 1 and, once
    a cell fails, bisects down to adjacent cells (``config.walk_probe``).
    Where the gate passes and then fails along the walk, ``lo`` is the last
    cell a cell-by-cell scan would pass.  In each round every open repeat
    picks its next cell, the round visits those cells in walk order, and the
    repeats that picked one cell are evaluated back to back, so they share one
    clean image.  A repeat still passing at cell n - 1 found no limit: its
    extent is only a lower bound, and the side is cut.  Returns each repeat's
    rows (the cells it probed, in walk order), each repeat's extent (``lo``
    grid steps) and whether the side is cut.
    """
    cfg, base, sign = args
    exp = cfg["experiment"]
    n, position = config.side_walk(base, exp["grid_mm"], sign)
    repeats = range(exp["repeats"])
    lo, hi = [-1 for _ in repeats], [n for _ in repeats]
    rows = [{} for _ in repeats]
    while picks := {r: config.walk_probe(lo[r], hi[r], n)
                    for r in repeats if hi[r] - lo[r] > 1}:
        for r in sorted(picks, key=lambda r: (picks[r], r)):
            k = picks[r]
            ok, rows[r][k] = _extension_cell(cfg, base, position(k), r)
            if ok:
                lo[r] = k
            else:
                hi[r] = k
    extent = [max(k, 0) * exp["grid_mm"] for k in lo]
    cut = n - 1 in lo
    return [[cells[k] for k in sorted(cells)] for cells in rows], extent, cut


def run_dof_extension(cfg: dict, parallel: bool = False) -> ExperimentResult:
    exp = cfg["experiment"]
    bases = exp["base_distances_mm"]
    units = [(cfg, b, sign) for b in bases for sign in (-1.0, 1.0)]
    results = _map_units(_extension_side, units, parallel)

    rows = []
    summary = []
    stats = {"guard_cut": []}
    for base, (front_rows, front_ext, front_cut), (rear_rows, rear_ext, rear_cut) in zip(
            bases, results[0::2], results[1::2]):
        for f_rows, r_rows in zip(front_rows, rear_rows):  # both walks start at the base
            rows += f_rows[::-1] + r_rows[1:]
        front = float(np.mean(front_ext))
        rear = float(np.mean(rear_ext))
        total = front + rear
        stats[base] = {"front_mm": front, "rear_mm": rear, "total_mm": total}
        cut = [side for side, c in (("front", front_cut), ("rear", rear_cut)) if c]
        stats["guard_cut"] += [(base, side) for side in cut]
        # a side the guard cut, and a total over it, is only a lower bound
        ge = {side: "≥ " if side in cut else "" for side in ("front", "rear")}
        ge["total"] = "≥ " if cut else ""
        line = (f"dof_extension: base {base / 1000.0:.6g} m -> front "
                f"{ge['front']}{front / 1000.0:.6g} m, rear {ge['rear']}"
                f"{rear / 1000.0:.6g} m, total {ge['total']}{total / 1000.0:.6g} m")
        if base == 5000.0:
            line += f", {total / BASELINE_DOF_MM:.3g}x the {BASELINE_DOF_MM:.6g} mm baseline"
        summary.append(line)
    totals = [stats[b]["total_mm"] for b in sorted(set(bases))]
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
    mean_hd = {p: float(np.mean([hd for *_, hd in unit])) for p, unit in zip(positions, units)}
    impostors = _map_units(_impostor_unit,
                           [(cfg, k) for k in range(exp["impostor_pairs"])], parallel)

    # contiguous sub-threshold interval through the focal plane
    lo = hi = positions.index(base)
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
    for target_id, _, _, code in log.kept:
        for other in gallery:
            if other != target_id:
                cross[f"{target_id}->{other}"] = iriscode.hamming_distance(
                    code, gallery[other])

    cycle_ms = log.events[-1].t_ms - log.events[0].t_ms  # events are time-ordered
    rows = [astuple(e) for e in log.events]
    frames = [(f"{tid}_t{t:.0f}ms", fr.image) for tid, t, fr, _ in log.kept]

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
    period = enroll_rig.sensor.frame_period_ms

    enrolment, walkers = config.iom_cast(cfg, enroll_rig)
    gallery = {"walker": _enroll_code(enroll_rig, enrolment, 7_000_777)}

    rows = []
    frames = []
    stats: dict = {"variants": {}}
    summary = []
    for variant, subject in walkers:
        rig = config.rig_from_config(cfg)
        log = track_and_capture(rig, subject, n_frames=exp["n_frames"],
                                start_frame=exp["start_frame"], gallery=gallery,
                                noise_seed=cfg["seed"])
        ranges = []
        for i, e in enumerate(log.frames()):
            t_mid = e.t_ms + rig.sensor.exposure_ms / 2.0
            rng_mm = float(np.linalg.norm(eye_position(subject, t_mid)))
            if e.quality_pass:
                ranges.append(rng_mm)
            rows.append((variant, exp["start_frame"] + i, e.t_ms, rng_mm, e.power_dpt,
                         e.blur_px, e.px_across_iris, e.quality_pass, e.hd,
                         e.matched, e.fail_reason))
        frames.extend((f"iom_{variant}_t{t:.0f}ms", fr.image)
                      for _, t, fr, _ in log.kept)
        n_ok = len(log.qualified())
        n_match = sum(1 for e in log.qualified() if e.matched)
        stats["variants"][variant] = {
            "qualified": n_ok, "matched": n_match, "ranges_mm": ranges,
        }
        span = (f", ranges {min(ranges) / 1000.0:.6g} .. "
                f"{max(ranges) / 1000.0:.6g} m" if ranges else "")
        summary.append(f"iom: {variant} sigma {subject.jitter_sigma_mm:.6g} mm -> "
                       f"{n_ok}/{exp['n_frames']} qualified, {n_match} matched{span}")
    stats["frame_spacing_ms"] = period
    summary.append(f"iom: frame spacing {period:.6g} ms at "
                   f"{exp['speed_mmps'] / 1000.0:.6g} m/s walk")

    return ExperimentResult(
        name="iom",
        header=("variant", "frame", "t_ms", "range_mm", "power_dpt", "blur_px",
                "px_across_iris", "quality_pass", "hd", "matched", "fail_reason"),
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
