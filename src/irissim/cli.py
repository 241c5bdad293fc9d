"""Command line front end.

One subcommand per experiment plus ``calibrate``.  Every experiment takes a
JSON config (or falls back to the canonical scenario), writes CSV + summary
into ``--out``, and optionally re-verifies its published bounds; exit codes
are 0 on success, 2 for config problems (a render wider than the sensor
included, found at run time), 3 when a ``--check`` bound fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import calibration, config, experiments, iriscode, optics, quality
from .renderer import DEFAULT_K_AST, RenderTooWide

_KINDS = {kind.replace("_", "-"): kind for kind in experiments.RUNNERS}
_SWEEP_CMDS = " and ".join(cmd for cmd, kind in _KINDS.items() if kind in experiments.SWEEPS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="deterministic desk-scale iris capture simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _KINDS:
        s = sub.add_parser(cmd, help=f"run the {_KINDS[cmd]} experiment")
        s.add_argument("--config", type=Path,
                       help="JSON run config; omitted means the canonical scenario")
        s.add_argument("--out", type=Path, required=True,
                       help="output directory for csv/summary/frames")
        s.add_argument("--seed", type=int, help="override the config seed")
        s.add_argument("--dump-frames", action="store_true",
                       help="also write qualified frames as pgm")
        s.add_argument("--check", action="store_true",
                       help="verify the published bounds for this experiment")
        s.add_argument("--parallel", action="store_true",
                       help="map independent sweep units over a process pool; only "
                            f"{_SWEEP_CMDS} have units, the others run serially")
    cal = sub.add_parser("calibrate",
                         help="re-derive the fitted constants from their anchors")
    cal.add_argument("--out", type=Path, help="also write calibration.txt here")
    return parser


def _load(args) -> dict:
    """The run config, validated once with ``--seed`` already applied."""
    kind = _KINDS[args.command]
    if args.config is None:
        cfg = config.default_config(kind)
    else:
        cfg = config.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    config.validate_config(cfg)
    if cfg["experiment"]["kind"] != kind:
        raise config.ConfigError(
            f"config is for {cfg['experiment']['kind']!r}, not {kind!r}")
    return cfg


def _check_failures(kind: str, result: experiments.ExperimentResult) -> list[str]:
    """Published bounds for each experiment; strings describe what broke.

    This is the one copy of each bound: the acceptance suite asserts the
    same list, adding only its time budgets and cross-experiment checks.
    """
    bad: list[str] = []
    s = result.stats

    def expect(ok: bool, msg: str) -> None:
        if not ok:
            bad.append(msg)

    if kind == "dof_table":
        # the dof anchors describe the table of the 350 mm lens only
        if s["f_zoom_mm"] == optics.OpticalTrain().f_zoom_mm:
            for d, total in zip(s["distances_mm"], s["totals_mm"]):
                if d == 5000.0:
                    anchor = calibration.DOF_ANCHOR_MM
                    expect(abs(total - anchor) <= 1.0,
                           f"dof at 5 m is {total:.6g} mm, want {anchor:.6g} +/- 1")
                expect(total < 110.0, f"dof at {d:.6g} mm is {total:.6g}, want < 110")
        expect(s["increasing"], "dof not strictly increasing with distance")

    elif kind == "dof_extension":
        if 5000.0 in s:
            b = s[5000.0]
            expect(abs(b["total_mm"] - 3900.0) <= 200.0,
                   f"5 m total {b['total_mm']:.6g} mm, want 3900 +/- 200")
            expect(abs(b["front_mm"] - 1200.0) <= 150.0,
                   f"5 m front {b['front_mm']:.6g} mm, want 1200 +/- 150")
            expect(abs(b["rear_mm"] - 2700.0) <= 150.0,
                   f"5 m rear {b['rear_mm']:.6g} mm, want 2700 +/- 150")
            ratio = b["total_mm"] / experiments.BASELINE_DOF_MM
            expect(33.0 <= ratio <= 42.0,
                   f"extension ratio {ratio:.3g}, want within [33, 42]")
        expect(s["ordered"], "extended dof not ordered with base distance")
        for base, side in s["guard_cut"]:
            bad.append(f"base {base:.6g} mm: the {side} scan reached its guard "
                       f"before the gate failed; the {side} limit was not found")

    elif kind == "hd_curve":
        expect(s["self_match"] < 0.05,
               f"self-match hd {s['self_match']:.4g}, want < 0.05")
        ps, mh, base = s["positions"], s["mean_hd"], s["base_mm"]
        outward = ([p for p in ps if p <= base][::-1], [p for p in ps if p >= base])
        # past the hd dof's threshold the pillbox disk's spurious resolution lifts contrast
        worst = max(((mh[a] - mh[b]) for seq in outward for a, b in zip(seq, seq[1:])
                     if max(mh[a], mh[b]) < iriscode.MATCH_THRESHOLD), default=0.0)
        expect(worst <= 0.02,
               f"hd backslides {worst:.4g} between adjacent points, want <= 0.02")
        near, far = experiments.analytic_extension_limits(s["rig"])
        expect(s["span_mm"] >= far - near,
               f"hd dof {s['span_mm']:.6g} mm below the gate dof {far - near:.6g} mm")
        if s["impostor_n"]:
            expect(0.42 <= s["impostor_mean"] <= 0.50,
                   f"impostor mean {s['impostor_mean']:.4g}, want within [0.42, 0.50]")

    elif kind == "multiperson":
        for tid in s["subjects"]:
            if tid not in s["first_qualified_ms"]:
                bad.append(f"{tid} never qualified")
            elif not s["matched"][tid]:
                bad.append(f"{tid} not self-matched")
        for key, hd in s["cross_hd"].items():
            expect(hd > iriscode.MATCH_THRESHOLD,
                   f"cross {key} hd {hd:.4g}, want > {iriscode.MATCH_THRESHOLD}")
        expect(s["total_ms"] < 1000.0,
               f"cycle {s['total_ms']:.6g} ms, want < 1 s")

    elif kind == "iom":
        v = s["variants"]
        expect(v["jitter"]["qualified"] >= 3,
               f"{v['jitter']['qualified']} qualified with jitter, want >= 3")
        expect(v["nojitter"]["qualified"] >= 10,
               f"{v['nojitter']['qualified']} qualified without jitter, want >= 10")
        for variant in v:
            for rng in v[variant]["ranges_mm"]:
                expect(2400.0 <= rng <= 3400.0,
                       f"{variant} qualified at {rng:.6g} mm, outside [2.4, 3.4] m")
        expect(abs(s["frame_spacing_ms"] - 32.79) <= 0.005,
               f"frame spacing {s['frame_spacing_ms']:.6g} ms, want 32.79")

    return bad


def _run_calibrate(args) -> int:
    rows = [
        ("coc_mm", calibration.solve_coc(), optics.DEFAULT_COC_MM),
        ("pixel_scale_cal", calibration.solve_pixel_scale(),
         optics.DEFAULT_PIXEL_SCALE_CAL),
        ("sharpness_min", calibration.solve_sharpness_min(),
         quality.DEFAULT_SHARPNESS_MIN),
        ("k_ast", calibration.solve_k_ast(), DEFAULT_K_AST),
    ]
    lines = [f"{name}: solved {solved:.10g}  frozen {frozen:.10g}"
             for name, solved, frozen in rows]
    print("\n".join(lines))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "calibration.txt").write_text("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "calibrate":
        return _run_calibrate(args)

    try:
        cfg = _load(args)
    except config.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        result = experiments.run_experiment(cfg, parallel=args.parallel)
    except RenderTooWide as err:  # validation bounds a sight's crop, not its defocus disk
        print(f"config error: {cfg['experiment']['kind']}: {err}", file=sys.stderr)
        return 2
    experiments.write_result(result, args.out, dump_frames=args.dump_frames)
    for line in result.summary:
        print(line)

    if args.check:
        failures = _check_failures(cfg["experiment"]["kind"], result)
        if failures:
            for msg in failures:
                print(f"check failed: {msg}", file=sys.stderr)
            return 3
        print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
