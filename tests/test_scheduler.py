import math

import numpy as np
import pytest

from irissim.config import rig_from_config
from irissim.experiments import ExperimentResult, write_result
from irissim.iriscode import encode_frame
from irissim.optics import tunable_power_for_focus
from irissim.renderer import render_eye
from irissim.scene import Subject, TrajectorySegment, aim_angles
from irissim.scheduler import (
    CSV_COLUMNS,
    ConstantVelocityTracker,
    capture_sequence,
    plan_order,
    setpoints_for,
    track_and_capture,
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


# --- planning ----------------------------------------------------------------


def test_given_order_is_preserved():
    rig = make_rig()
    targets = [still_subject(s, 1, 4800.0) for s in ("b", "a", "c")]
    assert [t.subject_id for t in plan_order(rig, targets)] == ["b", "a", "c"]


def test_nearest_transition_minimizes_slew():
    rig = make_rig()  # mirror starts at pan 0
    targets = [
        still_subject("left", 1, 4800.0, azimuth_deg=-45.0),
        still_subject("mid", 2, 4800.0, azimuth_deg=5.0),
        still_subject("right", 3, 4800.0, azimuth_deg=30.0),
    ]
    ordered = plan_order(rig, targets, order="nearest_transition")
    assert [t.subject_id for t in ordered] == ["mid", "right", "left"]


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
    log = capture_sequence(rig, subjects, gallery=gallery, noise_seed=42)
    q = log.qualified()
    assert len(q) == 2
    assert all(e.matched for e in q)
    assert all(e.hd < 0.32 for e in q)


def test_events_are_time_ordered_on_frame_grid():
    rig = make_rig()
    subjects = [still_subject("s1", 5001, 4380.0), still_subject("s2", 5002, 6340.0)]
    log = capture_sequence(rig, subjects)
    times = [e.t_ms for e in log.events]
    assert times == sorted(times)
    for t in times:
        assert t / PERIOD == pytest.approx(round(t / PERIOD), abs=1e-9)


def test_one_command_per_target():
    rig = make_rig()
    subjects = [still_subject("s1", 5001, 4380.0), still_subject("s2", 5002, 6340.0)]
    log = capture_sequence(rig, subjects)
    commands = [e for e in log.events if e.event_type == "command"]
    assert len(commands) == 2
    assert [e.target_id for e in commands] == ["s1", "s2"]


def test_first_frame_waits_for_settling():
    rig = make_rig()
    # off-boresight and off-reference-focus, so both devices must move
    log = capture_sequence(rig, [still_subject("s", 1, 4380.0, azimuth_deg=10.0)])
    cmd = next(e for e in log.events if e.event_type == "command")
    frame = next(e for e in log.events if e.event_type == "frame")
    assert frame.t_ms - cmd.t_ms >= rig.lens.params.settle_ms
    assert frame.quality_pass


def test_already_settled_target_captures_immediately():
    # boresight subject at the reference focus: nothing has to move
    rig = make_rig()
    log = capture_sequence(rig, [still_subject("s", 1, 4800.0)])
    frame = next(e for e in log.events if e.event_type == "frame")
    assert frame.t_ms == 0.0
    assert frame.quality_pass


def test_dwell_budget_limits_attempts():
    rig = make_rig(quality={"min_px_across_iris": 10000.0})
    log = capture_sequence(rig, [still_subject("s", 1, 4800.0)], dwell_budget=5)
    frames = log.frames()
    assert len(frames) == 5
    assert not any(e.quality_pass for e in frames)


def test_impostor_gallery_does_not_match():
    rig = make_rig()
    gallery = {"s": enroll_code(rig.train, 9999)}
    log = capture_sequence(rig, [still_subject("s", 5001, 4800.0)],
                           gallery=gallery, noise_seed=7)
    q = log.qualified()
    assert len(q) == 1
    assert q[0].hd > 0.32
    assert q[0].matched is False


# --- event log ---------------------------------------------------------------


def test_csv_export_is_deterministic(tmp_path):
    rig = make_rig()
    log = capture_sequence(rig, [still_subject("s", 5001, 4800.0)],
                           gallery={"s": enroll_code(rig.train, 5001)})
    rows = [tuple(getattr(e, c) for c in CSV_COLUMNS) for e in log.events]
    result = ExperimentResult("log", CSV_COLUMNS, rows, summary=[])
    write_result(result, tmp_path / "a")
    write_result(result, tmp_path / "b")
    p1 = tmp_path / "a" / "log.csv"
    assert p1.read_bytes() == (tmp_path / "b" / "log.csv").read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == ("t_ms,event_type,target_id,pan_deg,tilt_deg,power_dpt,"
                        "blur_px,px_across_iris,quality_pass,hd,matched")
    assert len(lines) == 1 + len(log.events)
    # command rows leave capture-only cells empty
    cmd_row = lines[1].split(",")
    assert cmd_row[1] == "command"
    assert cmd_row[6] == ""


def test_throughput_metrics_counts():
    rig = make_rig()
    subjects = [still_subject("s1", 5001, 4380.0), still_subject("s2", 5002, 6340.0)]
    gallery = {"s1": enroll_code(rig.train, 5001), "s2": enroll_code(rig.train, 5002)}
    log = capture_sequence(rig, subjects, gallery=gallery)
    qualified = log.qualified()
    assert len(qualified) == 2
    assert sum(1 for e in qualified if e.matched) == 2
    assert log.events[-1].t_ms > log.events[0].t_ms


# --- tracking ----------------------------------------------------------------


def test_tracker_predicts_linear_motion_exactly():
    tr = ConstantVelocityTracker()
    tr.observe(0.0, (0.0, 1000.0, 0.0))
    tr.observe(10.0, (0.0, 990.0, 0.0))
    pred = tr.predict(30.0)
    assert np.allclose(pred, [0.0, 970.0, 0.0])


def test_tracker_degenerate_cases():
    tr = ConstantVelocityTracker()
    with pytest.raises(ValueError):
        tr.predict(0.0)
    tr.observe(0.0, (1.0, 2.0, 3.0))
    assert np.allclose(tr.predict(50.0), [1.0, 2.0, 3.0])


def test_walking_subject_qualifies_frames():
    walk = Subject("w", 6001, (0.0, 3800.0, 0.0),
                   trajectory=(TrajectorySegment(0.0, math.inf, (0.0, -1000.0, 0.0)),),
                   jitter_sigma_mm=0.0)
    rig = walking_rig()
    gallery = {"w": enroll_code(rig.train, 6001)}
    log = track_and_capture(rig, walk, n_frames=6, start_frame=16,
                            gallery=gallery, noise_seed=11)
    q = log.qualified()
    assert len(log.frames()) == 6
    assert len(q) == 6
    assert all(e.matched for e in q)


def test_sweep_offsets_detune_the_focus():
    walk = Subject("w", 6001, (0.0, 3800.0, 0.0),
                   trajectory=(TrajectorySegment(0.0, math.inf, (0.0, -1000.0, 0.0)),),
                   jitter_sigma_mm=0.0)
    rig = walking_rig()
    log = track_and_capture(rig, walk, n_frames=4, start_frame=16,
                            sweep_offsets=[0.0, 2.0], noise_seed=11)
    blurs = [e.blur_px for e in log.frames()]
    assert blurs[1] > 10 * max(blurs[0], 0.1)
    assert blurs[3] > 10 * max(blurs[2], 0.1)
