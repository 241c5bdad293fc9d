import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

from irissim import cli, config, experiments, scheduler
from irissim.config import rig_from_config
from irissim.experiments import ExperimentResult, write_result
from irissim.iriscode import SegmentationError, encode_frame
from irissim.optics import tunable_power_for_focus
from irissim.renderer import render_eye
from irissim.scene import Subject, aim_angles, eye_position
from irissim.quality import QualityThresholds
from irissim.scheduler import (
    CSV_COLUMNS,
    FOCAL_STACK_DPT,
    Event,
    EventLog,
    _attempt_frame,
    capture_sequence,
    noise_seed_for,
    plan_order,
    setpoints_for,
    track_and_capture,
    tracker_plan,
)

PERIOD = 1000.0 / 30.5


def make_rig(seed=0, **sections):
    """A rig wired the way a run wires it, from config sections."""
    return rig_from_config({"seed": seed, **sections})


def walking_rig():
    return make_rig(seed=3, train={"f_zoom_mm": 210.0, "d_ref_mm": 3200.0},
                    rig={"mirror_height_mm": 1580.0})


def still_subject(sid, iseed, distance, azimuth_deg=0.0):
    az = math.radians(azimuth_deg)
    pos = (distance * math.sin(az), distance * math.cos(az), 0.0)
    return Subject(sid, iseed, pos, jitter_sigma_mm=0.0)


def enroll_code(train, identity_seed):
    d = train.d_ref_mm
    eye = (0.0, d - 200.0, 0.0)
    pan, tilt = aim_angles(eye)
    p = tunable_power_for_focus(train, d)
    f = render_eye(train, power_dpt=p, pan_deg=pan, tilt_deg=tilt, eye_pos_mm=eye,
                   identity_seed=identity_seed, noise_seed=0, k_ast=0.0)
    return encode_frame(f)


def gallery_for(rig, subjects):
    """Every subject enrolled under its own identity."""
    return {s.subject_id: enroll_code(rig.train, s.identity_seed) for s in subjects}


# --- planning ----------------------------------------------------------------


def test_given_order_is_preserved():
    rig = make_rig()
    targets = [still_subject(s, 1, 4800.0) for s in ("b", "a", "c")]
    assert [t.subject_id for t in plan_order(rig, targets, order="given_order")] == ["b", "a", "c"]


def test_nearest_transition_minimizes_slew():
    rig = make_rig()  # mirror starts at pan 0
    targets = [
        still_subject("left", 1, 4800.0, azimuth_deg=-45.0),
        still_subject("mid", 2, 4800.0, azimuth_deg=5.0),
        still_subject("right", 3, 4800.0, azimuth_deg=30.0),
    ]
    ordered = plan_order(rig, targets, order="nearest_transition")
    assert [t.subject_id for t in ordered] == ["mid", "right", "left"]


@pytest.mark.parametrize("given", list(itertools.permutations("abc")))
def test_nearest_transition_breaks_a_cost_tie_by_subject_id(given):
    rig = make_rig()  # mirror rests at pan 0
    # b and a sit mirrored about the boresight: the same slew away
    azimuth = {"a": -20.0, "b": 20.0, "c": 40.0}
    targets = [still_subject(s, 1, 4800.0, azimuth_deg=azimuth[s]) for s in given]
    rest = rig.mirror.pose_at(0.0)
    slews = {t.subject_id: rig.mirror.slew_time_ms(*setpoints_for(rig, t.position_mm)[:2],
                                                   from_pose=rest) for t in targets}
    assert slews["a"] == slews["b"] < slews["c"]
    ordered = plan_order(rig, targets, order="nearest_transition")
    assert [t.subject_id for t in ordered] == ["a", "b", "c"]


def test_unknown_order_rejected():
    rig = make_rig()
    with pytest.raises(ValueError):
        plan_order(rig, [], order="fastest")


def test_setpoints_clamp_outside_reach():
    far = still_subject("far", 1, 12000.0)
    near = still_subject("near", 2, 2000.0)
    # 3.2 m of folded path needs +7.5 dpt: inside +-10, outside +-5
    mid = still_subject("mid", 3, 3000.0)
    for power_range in ((-10.0, 10.0), (-5.0, 5.0)):
        lo, hi = power_range
        rig = make_rig(lens={"power_min_dpt": lo, "power_max_dpt": hi})
        *_, p_far = setpoints_for(rig, far.position_mm)
        *_, p_near = setpoints_for(rig, near.position_mm)
        assert p_far == power_range[0]
        assert p_near == power_range[1]
        *_, p_mid = setpoints_for(rig, mid.position_mm)
        assert power_range[0] <= p_mid <= power_range[1]


# --- one-shot sequences ------------------------------------------------------


def test_two_target_sequence_matches_both():
    rig = make_rig()
    subjects = [still_subject("s1", 5001, 4380.0), still_subject("s2", 5002, 6340.0)]
    gallery = {"s1": enroll_code(rig.train, 5001), "s2": enroll_code(rig.train, 5002)}
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery, noise_seed=42)
    q = log.qualified()
    assert len(q) == 2
    assert all(e.matched for e in q)
    assert all(e.hd < 0.32 for e in q)


def test_events_are_time_ordered_on_frame_grid():
    rig = make_rig()
    subjects = [still_subject("s1", 5001, 4380.0), still_subject("s2", 5002, 6340.0)]
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery_for(rig, subjects))
    times = [e.t_ms for e in log.events]
    assert times == sorted(times)
    for t in times:
        assert t / PERIOD == pytest.approx(round(t / PERIOD), abs=1e-9)


def test_one_command_per_target():
    rig = make_rig()
    subjects = [still_subject("s1", 5001, 4380.0), still_subject("s2", 5002, 6340.0)]
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery_for(rig, subjects))
    commands = [e for e in log.events if e.event_type == "command"]
    assert len(commands) == 2
    assert [e.target_id for e in commands] == ["s1", "s2"]


def test_first_frame_waits_for_settling():
    rig = make_rig()
    # off-boresight and off-reference-focus, so both devices must move
    subjects = [still_subject("s", 1, 4380.0, azimuth_deg=10.0)]
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery_for(rig, subjects))
    cmd = next(e for e in log.events if e.event_type == "command")
    frame = next(e for e in log.events if e.event_type == "frame")
    assert frame.t_ms - cmd.t_ms >= rig.lens.params.settle_ms
    assert frame.quality_pass


def test_already_settled_target_captures_immediately():
    # boresight subject at the reference focus: nothing has to move
    rig = make_rig()
    subjects = [still_subject("s", 1, 4800.0)]
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery_for(rig, subjects))
    frame = next(e for e in log.events if e.event_type == "frame")
    assert frame.t_ms == 0.0
    assert frame.quality_pass


def test_dwell_budget_limits_attempts():
    rig = make_rig(quality={"min_px_across_iris": 10000.0})
    subjects = [still_subject("s", 1, 4800.0)]
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery_for(rig, subjects),
                           dwell_budget=5)
    frames = log.frames()
    assert len(frames) == 5
    assert not any(e.quality_pass for e in frames)


def test_dwell_retries_refocus_through_the_focal_stack():
    rig = make_rig(quality={"min_px_across_iris": 10000.0})
    subjects = [still_subject("s", 1, 4380.0, azimuth_deg=10.0)]
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery_for(rig, subjects),
                           dwell_budget=7)
    commands = [e for e in log.events if e.event_type == "command"]
    frames = log.frames()
    assert len(commands) == len(frames) == 7
    setpoint = commands[0].power_dpt
    assert [c.power_dpt - setpoint for c in commands] == pytest.approx(
        [0.0, 0.05, -0.05, 0.10, -0.10, 0.0, 0.05], abs=1e-12)
    assert FOCAL_STACK_DPT == (0.0, 0.05, -0.05, 0.10, -0.10)
    # only the lens is re-commanded, at the frame start after a failed frame,
    # and each retry exposes at the first frame start after the lens settles
    assert all(c.pan_deg is None and c.tilt_deg is None for c in commands[1:])
    for failed, cmd, frame in zip(frames, commands[1:], frames[1:]):
        assert cmd.t_ms == pytest.approx(failed.t_ms + PERIOD)
        settled = cmd.t_ms + rig.lens.params.settle_time
        assert settled <= frame.t_ms < settled + PERIOD
    # a rung off focus can add sharpness; every frame is too small to pass
    assert all(e.fail_reason.split("+")[0] == "resolution" for e in frames)


def test_multiperson_retry_seed_refocuses_until_the_seated_subject_qualifies():
    # seed 4: the seated subject fails sharpness twice through the standing
    # repeatability offset, then qualifies on the third rung of the stack
    res = experiments.run_multiperson(config.default_config("multiperson") | {"seed": 4})
    events = [dict(zip(CSV_COLUMNS, row)) for row in res.rows]
    seated = [e for e in events if e["target_id"] == "seated"]
    commands = [e for e in seated if e["event_type"] == "command"]
    assert [c["power_dpt"] - commands[0]["power_dpt"] for c in commands] == pytest.approx(
        [0.0, 0.05, -0.05], abs=1e-12)
    assert [(c["pan_deg"], c["tilt_deg"]) for c in commands[1:]] == [(None, None)] * 2
    assert [(e["quality_pass"], e["fail_reason"]) for e in seated
            if e["event_type"] == "frame"] == [(False, "sharpness"), (False, "sharpness"),
                                               (True, None)]
    assert cli._check_failures("multiperson", res) == []


def test_fail_reasons_name_every_cause_in_order(monkeypatch):
    rig = make_rig()
    subject = still_subject("s", 5001, 4800.0)
    gallery = {"s": enroll_code(rig.train, 5001)}

    def reasons(t_frame):
        log = EventLog()
        ok = _attempt_frame(rig, subject, t_frame, 0, log, gallery)
        (event,) = log.events
        assert ok == event.quality_pass == (event.fail_reason is None)
        return event.fail_reason

    assert reasons(0.0) is None
    # both devices swing 20 degrees and refocus: the frame at the command misses the eye
    rig.mirror.command(20.0, 20.0, 10 * PERIOD)
    rig.lens.command(3.0, 10 * PERIOD)
    assert reasons(10 * PERIOD) == "lens_unsettled+mirror_unsettled+target_missed"
    assert reasons(20 * PERIOD) == "target_missed"
    pan, tilt, power = setpoints_for(rig, subject.position_mm)
    rig.mirror.command(pan, tilt, 30 * PERIOD)
    assert reasons(40 * PERIOD) == "sharpness"  # the lens still focuses 3 dpt
    rig.thresholds = QualityThresholds(min_px_across_iris=10000.0)
    assert reasons(40 * PERIOD) == "resolution+sharpness"
    rig.thresholds = QualityThresholds()
    rig.lens.command(power, 50 * PERIOD)
    assert reasons(60 * PERIOD) is None

    def no_pupil(frame, circles):
        raise SegmentationError("no pupil-dark region found")

    monkeypatch.setattr(scheduler, "encode_frame", no_pupil)
    assert reasons(60 * PERIOD) == "segmentation"


def test_target_missed_frame_row_leaves_every_capture_cell_empty(tmp_path):
    rig = make_rig()
    subject = still_subject("s", 5001, 4800.0)
    rig.mirror.command(20.0, 20.0, 0.0)  # settled long before the frame, far off the eye
    log = EventLog()
    assert not _attempt_frame(rig, subject, 10 * PERIOD, 0, log, gallery_for(rig, [subject]))
    (event,) = log.events
    assert event.quality_pass is False
    assert event.fail_reason == "target_missed"
    assert (event.pan_deg, event.tilt_deg) == (20.0, 20.0)
    assert event.power_dpt is not None
    assert log.kept == []
    rows = [tuple(getattr(e, c) for c in CSV_COLUMNS) for e in log.events]
    write_result(ExperimentResult("log", CSV_COLUMNS, rows, summary=[]), tmp_path)
    header, row = (line.split(",") for line in
                   (tmp_path / "log.csv").read_text().strip().splitlines())
    cells = dict(zip(header, row))
    assert cells["quality_pass"] == "0"
    assert [cells[c] for c in ("blur_px", "px_across_iris", "hd", "matched")] == [""] * 4


def test_impostor_gallery_does_not_match():
    rig = make_rig()
    gallery = {"s": enroll_code(rig.train, 9999)}
    log = capture_sequence(rig, [still_subject("s", 5001, 4800.0)],
                           order="given_order", gallery=gallery, noise_seed=7)
    q = log.qualified()
    assert len(q) == 1
    assert q[0].hd > 0.32
    assert q[0].matched is False


# --- event log ---------------------------------------------------------------


def test_csv_export_is_deterministic(tmp_path):
    rig = make_rig()
    log = capture_sequence(rig, [still_subject("s", 5001, 4800.0)],
                           order="given_order", gallery={"s": enroll_code(rig.train, 5001)})
    rows = [tuple(getattr(e, c) for c in CSV_COLUMNS) for e in log.events]
    result = ExperimentResult("log", CSV_COLUMNS, rows, summary=[])
    write_result(result, tmp_path / "a")
    write_result(result, tmp_path / "b")
    p1 = tmp_path / "a" / "log.csv"
    assert p1.read_bytes() == (tmp_path / "b" / "log.csv").read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == ("t_ms,event_type,target_id,pan_deg,tilt_deg,power_dpt,"
                        "blur_px,px_across_iris,quality_pass,hd,matched,fail_reason")
    assert len(lines) == 1 + len(log.events)
    # command rows leave capture-only cells empty
    cmd_row = lines[1].split(",")
    assert cmd_row[1] == "command"
    assert cmd_row[6] == ""


def test_throughput_metrics_counts():
    rig = make_rig()
    subjects = [still_subject("s1", 5001, 4380.0), still_subject("s2", 5002, 6340.0)]
    gallery = {"s1": enroll_code(rig.train, 5001), "s2": enroll_code(rig.train, 5002)}
    log = capture_sequence(rig, subjects, order="given_order", gallery=gallery)
    qualified = log.qualified()
    assert len(qualified) == 2
    assert sum(1 for e in qualified if e.matched) == 2
    assert log.events[-1].t_ms > log.events[0].t_ms


# --- tracking ----------------------------------------------------------------


def test_tracker_predicts_linear_motion_exactly():
    walk = Subject("w", 1, (0.0, 1000.0, 0.0), velocity_mmps=(0.0, -1000.0, 0.0),
                   jitter_sigma_mm=0.0)
    for _, t_mid, pred in tracker_plan(walking_rig(), walk, n_frames=4, start_frame=3):
        assert np.allclose(pred, [0.0, 1000.0 - t_mid, 0.0])


def test_tracker_extrapolates_detections_one_frame_old():
    walk = Subject("w", 1, (0.0, 3800.0, 0.0), velocity_mmps=(0.0, -1000.0, 0.0),
                   jitter_sigma_mm=3.0, motion_seed=1)
    plan = tracker_plan(walking_rig(), walk, n_frames=15, start_frame=16)
    for k, (t_frame, t_mid, pred) in enumerate(plan, 16):
        t0, t1 = (k - 2) * PERIOD, (k - 1) * PERIOD
        p0, p1 = eye_position(walk, t0), eye_position(walk, t1)
        assert t_frame == k * PERIOD
        assert np.array_equal(pred, p1 + (p1 - p0) / (t1 - t0) * (t_mid - t1))


def test_tracking_command_rows_log_the_requested_setpoint():
    walk = Subject("w", 6001, (0.0, 3800.0, 0.0), velocity_mmps=(0.0, -1000.0, 0.0),
                   jitter_sigma_mm=0.0)
    rig = walking_rig()
    plan = list(tracker_plan(rig, walk, n_frames=3, start_frame=16))
    log = track_and_capture([(rig, walk)], n_frames=3, start_frame=16,
                            gallery={"w": enroll_code(rig.train, 6001)}, noise_seed=11)
    commands = [e for e in log.events if e.event_type == "command"]
    requested = [setpoints_for(rig, eye)[2] for _, _, eye in plan]
    assert [e.power_dpt for e in commands] == requested
    # a frame row records the power the lens held: its quantized target plus
    # the command's repeatability offset
    for command, frame in zip(commands, log.frames()):
        held = frame.power_dpt - rig.lens.quantize(command.power_dpt)
        assert abs(held) <= rig.lens.params.repeatability_dpt


def test_walking_subject_qualifies_frames():
    walk = Subject("w", 6001, (0.0, 3800.0, 0.0), velocity_mmps=(0.0, -1000.0, 0.0),
                   jitter_sigma_mm=0.0)
    rig = walking_rig()
    gallery = {"w": enroll_code(rig.train, 6001)}
    log = track_and_capture([(rig, walk)], n_frames=6, start_frame=16,
                            gallery=gallery, noise_seed=11)
    q = log.qualified()
    assert len(log.frames()) == 6
    assert len(q) == 6
    assert all(e.matched for e in q)


def _track_head_by_head(heads, *, n_frames, start_frame, gallery, noise_seed):
    """Reference: each head tracked alone through its whole window, one log per
    head: the per-variant loop the iom run made before its walkers shared a
    frame clock."""
    logs = []
    for rig, subject in heads:
        log = EventLog()
        plan = tracker_plan(rig, subject, n_frames, start_frame)
        for i, (t_frame, _, eye_pred) in enumerate(plan):
            t_cmd = t_frame - rig.sensor.frame_period_ms
            pan, tilt, power = setpoints_for(rig, eye_pred)
            rig.mirror.command(pan, tilt, t_cmd)
            rig.lens.command(power, t_cmd)
            log.events.append(Event(t_cmd, "command", subject.subject_id,
                                    pan_deg=pan, tilt_deg=tilt, power_dpt=power))
            _attempt_frame(rig, subject, t_frame, noise_seed_for(noise_seed, i), log, gallery)
        logs.append(log)
    return logs


def _kept_as_comparable(kept):
    """Kept exposures with each frame's and code's arrays as bytes."""
    return [(tid, t, frame.image.tobytes(),
             {f.name: getattr(frame, f.name) for f in fields(frame) if f.name != "image"},
             code.bits.tobytes(), code.mask.tobytes())
            for tid, t, frame, code in kept]


@pytest.mark.parametrize("seed, n_frames, experiment, sections", [
    *(pytest.param(seed, n, {}, {}, id=f"seed{seed}-{n}-frames")
      for seed in range(4) for n in (1, 15)),
    # both walkers take one walk
    pytest.param(0, 15, {"ablation_jitter_sigma_mm": 3.0}, {}, id="equal-jitter"),
    pytest.param(1, 15, {}, {"quality": {"min_px_across_iris": 10000.0}},
                 id="every-frame-fails"),
])
def test_heads_on_one_frame_clock_log_what_each_logs_alone(seed, n_frames, experiment,
                                                           sections):
    cfg = config.default_config("iom") | {"seed": seed} | sections
    cfg["experiment"].update(n_frames=n_frames, **experiment)
    enrolment, walkers = config.iom_cast(cfg, rig_from_config(cfg))
    gallery = dict.fromkeys((variant for variant, _ in walkers),
                            experiments._enroll_code(rig_from_config(cfg), enrolment, 7_000_777))
    kwargs = {"n_frames": n_frames, "start_frame": cfg["experiment"]["start_frame"],
              "gallery": gallery, "noise_seed": seed}

    def heads():  # a fresh rig per walker, its devices at rest
        return [(rig_from_config(cfg), walker) for _, walker in walkers]

    alone = _track_head_by_head(heads(), **kwargs)
    lockstep = track_and_capture(heads(), **kwargs)
    # frame i of each head in turn: its command, then its frame
    assert lockstep.events == [e for i in range(n_frames)
                               for log in alone for e in log.events[2 * i:2 * i + 2]]
    for (variant, _), log in zip(walkers, alone):
        assert _kept_as_comparable([k for k in lockstep.kept if k[0] == variant]) \
            == _kept_as_comparable(log.kept)
    if "quality" in sections:
        assert not lockstep.kept and not lockstep.qualified()
    else:
        assert len(lockstep.kept) >= n_frames
