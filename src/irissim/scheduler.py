"""Frame-clocked capture scheduling.

Everything here runs on the sensor's frame grid: device commands go out and
exposures begin at frame starts.  A frame qualifies only when both devices
settled before its exposure opened, the image clears the quality gates and
iris detection finds its pupil.  A frame that does not qualify says why in
``Event.fail_reason``.  Each target gets one mirror + lens command.  If its
frame fails, each dwell retry re-commands the lens through the next rung of
a dynamic focal stack (``FOCAL_STACK_DPT`` about the setpoint) and exposes
once it settles, until the dwell budget runs out: a fresh command draws a
fresh repeatability offset, where re-exposing through the same one would
repeat its miss.  A target is a ``Subject``; every target is enrolled in the
gallery the capture matches against.

The tracking loop works on detections one frame old, the way an actual
vision pipeline would: frame k+1 is commanded at frame k from positions
observed up to frame k-1.  ``tracker_plan`` extrapolates each frame's eye
at constant velocity from the last two detections.  ``track_and_capture``
runs heads, each a rig with its own devices tracking one subject, on one
frame clock: frame i of every head is exposed back to back under frame i's
noise seed, and each head's log is the one it would make alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import optics
from .devices import SensorParams, SteeringMirror, TunableLens, next_frame_start
from .iriscode import MATCH_THRESHOLD, IrisCode, SegmentationError, encode_frame, hamming_distance
from .optics import OpticalTrain
from .quality import QualityThresholds, evaluate
from .renderer import TargetMissed, render_eye
from .scene import RigGeometry, Subject, aim_angles, eye_position, eye_velocity, line_of_sight_mm

DEFAULT_DWELL_BUDGET = 5
# lens offsets from the setpoint, in dpt, of dwell attempts 0, 1, 2, ... (cycled)
FOCAL_STACK_DPT = (0.0, +0.05, -0.05, +0.10, -0.10)


@dataclass(frozen=True)
class Event:
    t_ms: float
    event_type: str  # "command" or "frame"
    target_id: str
    pan_deg: float | None = None
    tilt_deg: float | None = None
    # a command row's setpoint as requested; a frame row's power the lens held
    power_dpt: float | None = None
    blur_px: float | None = None
    px_across_iris: float | None = None
    quality_pass: bool | None = None
    hd: float | None = None
    matched: bool | None = None
    # why a frame did not qualify, "+"-joined in this order: lens_unsettled,
    # mirror_unsettled, target_missed, the quality gate's resolution, sharpness
    # and brightness, and segmentation (no pupil found after the gates passed)
    fail_reason: str | None = None


CSV_COLUMNS = tuple(f.name for f in fields(Event))


class EventLog:
    def __init__(self):
        self.events: list[Event] = []
        # (target_id, t_frame_ms, Frame, its detected IrisCode) per qualified exposure
        self.kept: list[tuple[str, float, object, IrisCode]] = []

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

    Out-of-reach distances clamp to the lens' power range (``LensParams.clamp``).
    """
    pan, tilt = aim_angles(eye)
    d = line_of_sight_mm(eye, rig.geometry)
    return pan, tilt, rig.lens.params.clamp(optics.tunable_power_for_focus(rig.train, d))


def plan_order(rig: CaptureRig, targets: list[Subject], order: str) -> list[Subject]:
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
        _, _, best, pose, power = min(costed, key=lambda item: item[:2])
        out.append(best)
        remaining.remove(best)
    return out


def noise_seed_for(seed: int, index: int) -> int:
    """Noise seed of the index-th render of a run with the given seed."""
    return int(seed) * 1_000_003 + index


def _attempt_frame(rig: CaptureRig, subject: Subject, t_frame: float,
                   noise_seed: int, log: EventLog,
                   gallery: dict[str, IrisCode]) -> bool:
    """Render and gate one frame; returns True when it qualified."""
    sid = subject.subject_id
    t_mid = t_frame + rig.sensor.exposure_ms / 2.0
    reasons = [reason for reason, settled in (
        ("lens_unsettled", rig.lens.is_settled(t_frame)),
        ("mirror_unsettled", rig.mirror.is_settled(t_frame))) if not settled]
    pan, tilt = rig.mirror.pose_at(t_mid)
    power = rig.lens.power_at(t_mid)
    eye = eye_position(subject, t_mid)
    vel = eye_velocity(subject, t_mid)
    frame = None
    try:
        frame = render_eye(
            rig.train, power_dpt=power, pan_deg=pan, tilt_deg=tilt,
            eye_pos_mm=eye, identity_seed=subject.identity_seed,
            noise_seed=noise_seed, eye_velocity_mmps=vel,
            exposure_ms=rig.sensor.exposure_ms, rig=rig.geometry,
        )
    except TargetMissed:
        reasons.append("target_missed")
    else:
        reasons += evaluate(frame, rig.thresholds).fail_reasons
    code = hd = matched = None
    if not reasons:
        try:
            code = encode_frame(frame, circles="detect")
        except SegmentationError:  # the gates passed a frame with no pupil to find
            reasons.append("segmentation")
        else:
            hd = hamming_distance(code, gallery[sid])
            matched = hd < MATCH_THRESHOLD
    ok = not reasons
    if ok:
        log.kept.append((sid, t_frame, frame, code))
    log.events.append(Event(t_frame, "frame", sid, pan_deg=pan, tilt_deg=tilt,
                            power_dpt=power, blur_px=frame and frame.blur_px,
                            px_across_iris=frame and frame.px_across_iris, quality_pass=ok,
                            hd=hd, matched=matched, fail_reason="+".join(reasons) or None))
    return ok


def capture_sequence(rig: CaptureRig, targets: list[Subject], *,
                     gallery: dict[str, IrisCode],
                     order: str,
                     dwell_budget: int = DEFAULT_DWELL_BUDGET,
                     noise_seed: int = 0) -> EventLog:
    """Visit each target once: aim, refocus, expose until qualified or budget out.

    Attempt k focuses at the setpoint plus rung k of ``FOCAL_STACK_DPT``,
    cycled.  Each retry re-commands the lens alone at the frame start after
    the failed frame, so its command event leaves the mirror angles empty.
    """
    log = EventLog()
    frame_index = 0
    t_now = 0.0
    for tgt in plan_order(rig, targets, order=order):
        t_cmd = next_frame_start(rig.sensor, t_now)
        pan, tilt, power = setpoints_for(rig, eye_position(tgt, t_cmd))
        rig.mirror.command(pan, tilt, t_cmd)
        for k in range(dwell_budget):
            focus = power + FOCAL_STACK_DPT[k % len(FOCAL_STACK_DPT)]
            rig.lens.command(focus, t_cmd)
            aim = {"pan_deg": pan, "tilt_deg": tilt} if k == 0 else {}
            log.events.append(Event(t_cmd, "command", tgt.subject_id, **aim, power_dpt=focus))
            ready = max(rig.mirror.settled_at, rig.lens.settled_at, t_cmd)
            t_frame = next_frame_start(rig.sensor, ready)
            ok = _attempt_frame(rig, tgt, t_frame,
                                noise_seed_for(noise_seed, frame_index),
                                log, gallery)
            frame_index += 1
            t_cmd = t_frame + rig.sensor.frame_period_ms
            if ok:
                break
        t_now = t_cmd
    return log


def tracker_plan(rig: CaptureRig, subject: Subject, n_frames: int, start_frame: int):
    """Each frame's start, mid-exposure time and the eye the tracker predicts for it.

    Frame k's eye is extrapolated at constant velocity from the eye detected
    at the starts of frames k-2 and k-1.
    """
    period = rig.sensor.frame_period_ms
    t0, t1 = (start_frame - 2) * period, (start_frame - 1) * period
    p0, p1 = eye_position(subject, t0), eye_position(subject, t1)
    for k in range(start_frame, start_frame + n_frames):
        t_frame = k * period
        t_mid = t_frame + rig.sensor.exposure_ms / 2.0
        yield t_frame, t_mid, p1 + (p1 - p0) / (t1 - t0) * (t_mid - t1)
        # the detection from this frame becomes available one frame later
        t0, p0, t1, p1 = t1, p1, t_frame, eye_position(subject, t_frame)


def track_and_capture(heads: list[tuple[CaptureRig, Subject]], *,
                      n_frames: int, start_frame: int,
                      gallery: dict[str, IrisCode],
                      noise_seed: int = 0) -> EventLog:
    """Expose every frame of each head's ``tracker_plan``, commanded a frame ahead
    at the predicted eye.

    A head is a rig tracking one subject.  The heads share one frame clock:
    frame i of every head is exposed back to back, in the given order, under
    the noise seed of frame i, so a renderer that holds a few streams draws
    each frame's read noise once however many heads expose it.  Each head's
    events and kept frames are those it would log alone.
    """
    log = EventLog()
    plans = [tracker_plan(rig, subject, n_frames, start_frame) for rig, subject in heads]
    for i, steps in enumerate(zip(*plans)):
        seed = noise_seed_for(noise_seed, i)
        for (rig, subject), (t_frame, _, eye_pred) in zip(heads, steps):
            t_cmd = t_frame - rig.sensor.frame_period_ms
            pan, tilt, power = setpoints_for(rig, eye_pred)
            rig.mirror.command(pan, tilt, t_cmd)
            rig.lens.command(power, t_cmd)
            log.events.append(Event(t_cmd, "command", subject.subject_id,
                                    pan_deg=pan, tilt_deg=tilt, power_dpt=power))
            _attempt_frame(rig, subject, t_frame, seed, log, gallery)
    return log
