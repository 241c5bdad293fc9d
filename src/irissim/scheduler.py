"""Frame-clocked capture scheduling.

Everything here runs on the sensor's frame grid: device commands go out at
frame starts, exposures begin at frame starts, and a frame is qualified
only when both devices finished settling before its exposure opened and
the image clears the quality gates.  One mirror + lens command is issued
per target; if the frame fails, later frames are tried against the same
setpoint until the dwell budget runs out.  A target is a ``Subject``.

The tracking loop works on detections one frame old, the way an actual
vision pipeline would: the command for frame k+1 is computed at frame k
from positions observed up to frame k-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optics
from .devices import SensorParams, SteeringMirror, TunableLens, next_frame_start
from .iriscode import IrisCode, MATCH_THRESHOLD, encode_frame, hamming_distance
from .optics import OpticalTrain
from .quality import QualityThresholds, evaluate
from .renderer import TargetMissed, render_eye
from .scene import RigGeometry, Subject, aim_angles, eye_position, eye_velocity, line_of_sight_mm

CSV_COLUMNS = ("t_ms", "event_type", "target_id", "pan_deg", "tilt_deg",
               "power_dpt", "blur_px", "px_across_iris", "quality_pass",
               "hd", "matched")

DEFAULT_DWELL_BUDGET = 5


@dataclass(frozen=True)
class Event:
    t_ms: float
    event_type: str  # "command" or "frame"
    target_id: str
    pan_deg: float | None = None
    tilt_deg: float | None = None
    power_dpt: float | None = None
    blur_px: float | None = None
    px_across_iris: float | None = None
    quality_pass: bool | None = None
    hd: float | None = None
    matched: bool | None = None


class EventLog:
    def __init__(self):
        self.events: list[Event] = []
        # (target_id, t_frame_ms, Frame) for every qualified exposure
        self.kept: list[tuple[str, float, object]] = []

    def frames(self) -> list[Event]:
        return [e for e in self.events if e.event_type == "frame"]

    def qualified(self) -> list[Event]:
        return [e for e in self.frames() if e.quality_pass]


@dataclass
class CaptureRig:
    """One camera head: optics, devices and gates, wired by config.rig_from_config."""
    train: OpticalTrain
    geometry: RigGeometry
    lens: TunableLens
    mirror: SteeringMirror
    sensor: SensorParams
    thresholds: QualityThresholds


def setpoints_for(rig: CaptureRig, eye) -> tuple[float, float, float]:
    """Mirror angles and lens power that aim and focus on an eye position.

    Out-of-reach distances clamp to the lens' power range.
    """
    pan, tilt = aim_angles(eye)
    d = line_of_sight_mm(eye, rig.geometry)
    power = optics.drive_power_for_focus(rig.train, d, rig.lens.params.power_range)
    return pan, tilt, power


def plan_order(rig: CaptureRig, targets: list[Subject],
               order: str = "given_order") -> list[Subject]:
    """Visit order for a set of targets, planned from the rig's state at t = 0.

    ``nearest_transition`` greedily picks whichever remaining target the
    devices can reach soonest from the pose they would then be in; ties
    break on subject id so the plan is stable.
    """
    if order == "given_order":
        return list(targets)
    if order != "nearest_transition":
        raise ValueError(f"unknown ordering {order!r}")

    pose = rig.mirror.pose_at(0.0)
    power = rig.lens.power_at(0.0)
    remaining = list(targets)
    out: list[Subject] = []
    while remaining:
        costed = []
        for tgt in remaining:
            pan, tilt, p = setpoints_for(rig, eye_position(tgt, 0.0))
            slew = rig.mirror.slew_time_ms(pan, tilt, from_pose=pose)
            refocus = (0.0 if rig.lens.quantize(p) == rig.lens.quantize(power)
                       else rig.lens.params.settle_time)
            costed.append((max(slew, refocus), tgt.subject_id, tgt, (pan, tilt), p))
        costed.sort(key=lambda item: (item[0], item[1]))
        _, _, best, best_pose, best_power = costed[0]
        out.append(best)
        remaining.remove(best)
        pose, power = best_pose, best_power
    return out


def noise_seed_for(seed: int, index: int) -> int:
    """Noise seed of the index-th render of a run with the given seed.

    ``calibration.solve_k_ast`` averages over the seeds this gives for seed 0.
    """
    return int(seed) * 1_000_003 + index


def _attempt_frame(rig: CaptureRig, subject: Subject, t_frame: float,
                   noise_seed: int, log: EventLog,
                   gallery: dict[str, IrisCode] | None) -> bool:
    """Render and gate one frame; returns True when it qualified."""
    sid = subject.subject_id
    t_mid = t_frame + rig.sensor.exposure_ms / 2.0
    settled = rig.lens.is_settled(t_frame) and rig.mirror.is_settled(t_frame)
    pan, tilt = rig.mirror.pose_at(t_mid)
    power = rig.lens.power_at(t_mid)
    eye = eye_position(subject, t_mid)
    vel = eye_velocity(subject, t_mid)
    try:
        frame = render_eye(
            rig.train, power_dpt=power, pan_deg=pan, tilt_deg=tilt,
            eye_pos_mm=eye, identity_seed=subject.identity_seed,
            noise_seed=noise_seed, eye_velocity_mmps=vel,
            exposure_ms=rig.sensor.exposure_ms, rig=rig.geometry,
        )
    except TargetMissed:
        log.events.append(Event(t_frame, "frame", sid, pan_deg=pan, tilt_deg=tilt,
                                power_dpt=power, quality_pass=False))
        return False
    report = evaluate(frame, rig.thresholds)
    ok = settled and report.passed
    hd = matched = None
    if ok and gallery is not None and sid in gallery:
        code = encode_frame(frame, circles="detect")
        hd = hamming_distance(code, gallery[sid])
        matched = hd < MATCH_THRESHOLD
    if ok:
        log.kept.append((sid, t_frame, frame))
    log.events.append(Event(t_frame, "frame", sid, pan_deg=pan, tilt_deg=tilt,
                            power_dpt=power, blur_px=frame.blur_px,
                            px_across_iris=frame.px_across_iris, quality_pass=ok,
                            hd=hd, matched=matched))
    return ok


def capture_sequence(rig: CaptureRig, targets: list[Subject], *,
                     order: str = "given_order",
                     dwell_budget: int = DEFAULT_DWELL_BUDGET,
                     gallery: dict[str, IrisCode] | None = None,
                     noise_seed: int = 0) -> EventLog:
    """Visit each target once: aim, refocus, expose until qualified or budget out."""
    log = EventLog()
    frame_index = 0
    t_now = 0.0
    for tgt in plan_order(rig, targets, order=order):
        t_cmd = next_frame_start(rig.sensor, t_now)
        pan, tilt, power = setpoints_for(rig, eye_position(tgt, t_cmd))
        rig.mirror.command(pan, tilt, t_cmd)
        rig.lens.command(power, t_cmd)
        log.events.append(Event(t_cmd, "command", tgt.subject_id, pan_deg=pan,
                                tilt_deg=tilt, power_dpt=power))
        ready = max(rig.mirror.settled_at, rig.lens.settled_at, t_cmd)
        t_frame = next_frame_start(rig.sensor, ready)
        for _ in range(dwell_budget):
            ok = _attempt_frame(rig, tgt, t_frame,
                                noise_seed_for(noise_seed, frame_index),
                                log, gallery)
            frame_index += 1
            t_frame += rig.sensor.frame_period_ms
            if ok:
                break
        t_now = t_frame
    return log


class ConstantVelocityTracker:
    """Predicts eye positions from detections one frame behind real time."""

    def __init__(self):
        self._obs: list[tuple[float, np.ndarray]] = []

    def observe(self, t_ms: float, position) -> None:
        self._obs.append((t_ms, np.asarray(position, dtype=float)))
        del self._obs[:-2]

    def predict(self, t_ms: float) -> np.ndarray:
        if not self._obs:
            raise ValueError("no detections yet")
        if len(self._obs) == 1:
            return self._obs[0][1].copy()
        (t0, p0), (t1, p1) = self._obs
        v = (p1 - p0) / (t1 - t0)
        return p1 + v * (t_ms - t1)


def track_and_capture(rig: CaptureRig, subject: Subject, *,
                      n_frames: int, start_frame: int,
                      sweep_offsets=None, gallery: dict[str, IrisCode] | None = None,
                      noise_seed: int = 0) -> EventLog:
    """Follow a moving subject and expose every frame for a fixed window.

    Detections lag one frame; commands go out at the frame start before
    each exposure, predicted two frames ahead of the newest detection.
    ``sweep_offsets`` adds a per-frame power offset on top of the predicted
    focus, cycling through the list.
    """
    log = EventLog()
    period = rig.sensor.frame_period_ms
    tracker = ConstantVelocityTracker()
    offsets = list(sweep_offsets) if sweep_offsets else [0.0]

    for k in range(start_frame - 2, start_frame):
        t = k * period
        tracker.observe(t, eye_position(subject, t))

    for i in range(n_frames):
        t_frame = (start_frame + i) * period
        t_cmd = t_frame - period
        eye_pred = tracker.predict(t_frame + rig.sensor.exposure_ms / 2.0)
        pan, tilt, power = setpoints_for(rig, eye_pred)
        power = rig.lens.quantize(power + offsets[i % len(offsets)])
        rig.mirror.command(pan, tilt, t_cmd)
        rig.lens.command(power, t_cmd)
        log.events.append(Event(t_cmd, "command", subject.subject_id,
                                pan_deg=pan, tilt_deg=tilt, power_dpt=power))
        _attempt_frame(rig, subject, t_frame, noise_seed_for(noise_seed, i),
                       log, gallery)
        # the detection from this frame becomes available one frame later
        tracker.observe(t_frame, eye_position(subject, t_frame))
    return log

