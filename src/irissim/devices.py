"""Device models: focus-tunable liquid lens, steering mirror, global-shutter sensor.

Each device is a small state machine driven by timestamped commands; sampling
never mutates state.  A device owns one seeded random stream, so a replay with
the same seed and the same command sequence reproduces identical samples.
Times are milliseconds on the simulation clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optics


def current_gain_for_train(train: optics.OpticalTrain) -> float:
    """Diopters per mA so that 1 mA moves the focal plane 10 mm at d_ref.

    Anchored on "1 mA roughly equals 1 cm in the depth direction" at the
    5 m operating point; evaluated as a symmetric difference around d_ref.
    """
    p_near = optics.tunable_power_for_focus(train, train.d_ref_mm - 5.0)
    p_far = optics.tunable_power_for_focus(train, train.d_ref_mm + 5.0)
    return abs(p_near - p_far)


DEFAULT_CURRENT_GAIN = current_gain_for_train(optics.OpticalTrain())
CURRENT_STEP_MA = 0.07  # drive current resolution
POWER_QUANTUM_DPT = CURRENT_STEP_MA * DEFAULT_CURRENT_GAIN
OSC_FREQ_HZ = 200.0  # ring frequency during settling; free parameter


@dataclass(frozen=True)
class LensParams:
    power_range: tuple[float, float] = (-10.0, 10.0)
    response_ms: float = 5.0
    settle_ms: float = 25.0
    settle_filtered_ms: float = 12.5
    repeatability_dpt: float = 0.1
    mode: str = "raw"  # "filtered" low-passes the drive

    def __post_init__(self):
        if self.power_range[0] >= self.power_range[1]:
            raise ValueError("power range must be ordered")
        if self.settle_ms < self.response_ms:
            raise ValueError("settling cannot finish before the response starts")
        if self.mode not in ("raw", "filtered"):
            raise ValueError(f"unknown drive mode {self.mode!r}")
        if self.repeatability_dpt > self.power_range[1] - self.power_range[0]:
            raise ValueError(f"repeatability {self.repeatability_dpt:.6g} dpt is "
                             f"wider than the power range {self.power_range}")

    @property
    def settle_time(self) -> float:
        return self.settle_filtered_ms if self.mode == "filtered" else self.settle_ms


class TunableLens:
    """Liquid lens with clamped + quantized setpoints and a settling transient.

    Commands take effect after ``response_ms``, ring as a damped cosine until
    ``settle_ms`` (halved with a low-pass filtered drive), then hold at the
    target plus a per-command repeatability offset drawn once from the seeded
    stream.  A command issued mid-settle restarts the clock from the value the
    lens had at that instant; the latest command always wins.
    """

    def __init__(self, params: LensParams = LensParams(), seed: int = 0):
        self.params = params
        self._rng = np.random.default_rng((int(seed), 0x4C454E53))
        self._cmd_t = -math.inf
        self._target = 0.0
        self._prev = 0.0
        self._eps = 0.0

    def quantize(self, power: float) -> float:
        lo, hi = self.params.power_range
        power = min(max(power, lo), hi)
        return round(power / POWER_QUANTUM_DPT) * POWER_QUANTUM_DPT

    def command(self, power_dpt: float, t_ms: float) -> float:
        """Issue a setpoint; returns the clamped + quantized target."""
        target = self.quantize(power_dpt)
        if target == self._target and self.is_settled(t_ms):
            # zero step: nothing moves, keep the standing offset
            self._cmd_t = min(self._cmd_t, t_ms)
            return target
        self._prev = self.power_at(t_ms)
        self._cmd_t = t_ms
        self._target = target
        self._eps = self._rng.uniform(-self.params.repeatability_dpt,
                                      self.params.repeatability_dpt)
        return target

    @property
    def settled_at(self) -> float:
        if self._cmd_t == -math.inf:
            return -math.inf
        return self._cmd_t + self.params.settle_time

    def is_settled(self, t_ms: float) -> bool:
        return t_ms >= self.settled_at

    def power_at(self, t_ms: float) -> float:
        if self._cmd_t == -math.inf:
            return self._target
        dt = t_ms - self._cmd_t
        if dt < self.params.response_ms:
            return self._prev
        settle = self.params.settle_time
        if dt >= settle:
            return self._target + self._eps
        # damped ring from the old value toward the target; amplitude falls
        # two decades over the settling window
        tau = settle - self.params.response_ms
        x = dt - self.params.response_ms
        decay = math.exp(-math.log(100.0) * x / tau)
        ring = (self._prev - self._target) * decay * math.cos(
            2.0 * math.pi * OSC_FREQ_HZ * x / 1000.0
        )
        return self._target + ring


class MirrorRangeError(ValueError):
    pass


@dataclass(frozen=True)
class MirrorParams:
    pan_range: tuple[float, float] = (-180.0, 180.0)
    tilt_range: tuple[float, float] = (-60.0, 60.0)
    resolution_deg: float = 0.01
    max_speed_dps: float = 21000.0  # 3500 rpm galvo drive

    def __post_init__(self):
        if self.pan_range[0] >= self.pan_range[1]:
            raise ValueError("pan range must be ordered")
        if self.tilt_range[0] >= self.tilt_range[1]:
            raise ValueError("tilt range must be ordered")
        # an aim is at most 180 deg off zero, and a slew crosses at most a range
        if not math.isfinite(180.0 / self.resolution_deg):
            raise ValueError(f"resolution {self.resolution_deg!r} deg gives no "
                             f"finite snap grid")
        span = max(self.pan_range[1] - self.pan_range[0],
                   self.tilt_range[1] - self.tilt_range[0])
        if not math.isfinite(span / self.max_speed_dps * 1000.0):
            raise ValueError(f"max speed {self.max_speed_dps!r} deg/s gives no "
                             f"finite full-range slew time")


class SteeringMirror:
    """Two-axis mirror; both axes slew concurrently at the maximum speed.

    Setpoints snap to the 0.01 degree grid; a command outside the mechanical
    range raises rather than clamping silently.  Sampled poses are reported
    on the same grid, mid-slew included.
    """

    def __init__(self, params: MirrorParams = MirrorParams(),
                 pan_deg: float = 0.0, tilt_deg: float = 45.0):
        self.params = params
        self._cmd_t = -math.inf
        self._from = (self._snap(pan_deg), self._snap(tilt_deg))
        self._to = self._from

    def _snap(self, angle: float) -> float:
        r = self.params.resolution_deg
        return round(angle / r) * r

    def check_range(self, pan_deg: float, tilt_deg: float) -> tuple[float, float]:
        """The snapped setpoint; MirrorRangeError if it is outside the range."""
        pan = self._snap(pan_deg)
        tilt = self._snap(tilt_deg)
        if not self.params.pan_range[0] <= pan <= self.params.pan_range[1]:
            raise MirrorRangeError(f"pan {pan_deg} deg outside {self.params.pan_range}")
        if not self.params.tilt_range[0] <= tilt <= self.params.tilt_range[1]:
            raise MirrorRangeError(f"tilt {tilt_deg} deg outside {self.params.tilt_range}")
        return pan, tilt

    def command(self, pan_deg: float, tilt_deg: float, t_ms: float) -> tuple[float, float]:
        target = self.check_range(pan_deg, tilt_deg)
        self._from = self.pose_at(t_ms)
        self._cmd_t = t_ms
        self._to = target
        return self._to

    def slew_time_ms(self, pan_deg: float, tilt_deg: float,
                     from_pose: tuple[float, float]) -> float:
        p0, t0 = from_pose
        delta = max(abs(self._snap(pan_deg) - p0), abs(self._snap(tilt_deg) - t0))
        return delta / self.params.max_speed_dps * 1000.0

    @property
    def settled_at(self) -> float:
        if self._cmd_t == -math.inf:
            return -math.inf
        delta = max(abs(self._to[0] - self._from[0]), abs(self._to[1] - self._from[1]))
        return self._cmd_t + delta / self.params.max_speed_dps * 1000.0

    def is_settled(self, t_ms: float) -> bool:
        return t_ms >= self.settled_at

    def pose_at(self, t_ms: float) -> tuple[float, float]:
        if self._cmd_t == -math.inf or t_ms >= self.settled_at:
            return self._to
        dt = max(t_ms - self._cmd_t, 0.0)
        travel = self.params.max_speed_dps * dt / 1000.0
        out = []
        for a0, a1 in zip(self._from, self._to):
            step = a1 - a0
            if abs(step) <= travel:
                out.append(a1)
            else:
                out.append(self._snap(a0 + math.copysign(travel, step)))
        return (out[0], out[1])


@dataclass(frozen=True)
class SensorParams:
    frame_rate_hz: float = 30.5
    exposure_ms: float = 3.0

    def __post_init__(self):
        if not math.isfinite(self.frame_period_ms):
            raise ValueError(f"frame rate {self.frame_rate_hz!r} Hz gives no "
                             f"finite frame period")
        if not 0.0 < self.exposure_ms < self.frame_period_ms:
            raise ValueError(
                f"exposure {self.exposure_ms} ms must fit inside one "
                f"{self.frame_period_ms:.2f} ms frame"
            )

    @property
    def frame_period_ms(self) -> float:
        return 1000.0 / self.frame_rate_hz


def next_frame_start(sensor: SensorParams, t_ms: float) -> float:
    """First frame boundary at or after t_ms on the grid anchored at t = 0."""
    period = sensor.frame_period_ms
    k = math.ceil(t_ms / period - 1e-12)
    return max(k, 0) * period
