import math

import numpy as np
import pytest

from irissim import optics
from irissim.devices import (
    DEFAULT_CURRENT_GAIN,
    POWER_QUANTUM_DPT,
    LensParams,
    MirrorParams,
    MirrorRangeError,
    SensorParams,
    SteeringMirror,
    TunableLens,
    current_gain_for_train,
    next_frame_start,
)


# ---------------------------------------------------------------- tunable lens

def test_current_gain_anchor():
    # 1 mA moves the 5 m focal plane about 1 cm
    gain = current_gain_for_train(optics.OpticalTrain())
    assert gain == pytest.approx(DEFAULT_CURRENT_GAIN)
    t = optics.OpticalTrain()
    p0 = optics.tunable_power_for_focus(t, 5000.0)
    d_after = optics.focus_distance_for_power(t, p0 - gain)
    assert d_after - 5000.0 == pytest.approx(10.0, rel=0.02)


def test_lens_command_clamps_and_quantizes():
    lens = TunableLens(seed=1)
    q = POWER_QUANTUM_DPT
    tgt = lens.command(3.14159, t_ms=0.0)
    assert tgt == pytest.approx(round(3.14159 / q) * q)
    assert lens.command(99.0, t_ms=100.0) == pytest.approx(round(10.0 / q) * q)
    assert lens.command(-99.0, t_ms=200.0) == pytest.approx(round(-10.0 / q) * q)


def test_lens_settles_at_25ms_raw():
    lens = TunableLens(seed=2)
    lens.command(5.0, t_ms=0.0)
    assert lens.settled_at == pytest.approx(25.0)
    assert not lens.is_settled(24.9)
    assert lens.is_settled(25.0)


def test_lens_filtered_mode_halves_settling():
    lens = TunableLens(LensParams(mode="filtered"), seed=2)
    lens.command(5.0, t_ms=10.0)
    assert lens.settled_at == pytest.approx(22.5)


def test_lens_sample_phases():
    lens = TunableLens(seed=3)
    target = lens.command(5.0, t_ms=0.0)
    # before the response time the old value holds
    assert lens.power_at(2.0) == pytest.approx(0.0)
    # during settling the value rings around the target
    mid = lens.power_at(15.0)
    assert abs(mid - target) <= abs(0.0 - target)
    # after settling: target plus a bounded standing offset
    final = lens.power_at(30.0)
    assert abs(final - target) <= lens.params.repeatability_dpt
    assert lens.power_at(500.0) == final


def test_lens_repeatability_bound_always():
    lens = TunableLens(seed=4)
    for k in range(200):
        tgt = lens.command((k % 19) - 9.0, t_ms=k * 40.0)
        got = lens.power_at(k * 40.0 + 39.0)
        assert abs(got - tgt) <= lens.params.repeatability_dpt + 1e-12


def test_lens_zero_step_settles_immediately():
    lens = TunableLens(seed=5)
    lens.command(4.0, t_ms=0.0)
    v1 = lens.power_at(30.0)
    lens.command(4.0, t_ms=30.0)  # same quantized target, already settled
    assert lens.is_settled(30.0)
    assert lens.power_at(30.0) == v1  # offset retained, the lens never moved


def test_lens_mid_settle_restart():
    lens = TunableLens(seed=6)
    lens.command(8.0, t_ms=0.0)
    lens.command(-2.0, t_ms=10.0)  # pre-empts the first command
    assert lens.settled_at == pytest.approx(35.0)
    assert not lens.is_settled(25.0)
    assert abs(lens.power_at(40.0) - lens.quantize(-2.0)) <= lens.params.repeatability_dpt


def test_lens_replay_deterministic():
    def run(seed):
        lens = TunableLens(seed=seed)
        out = []
        for k in range(30):
            lens.command((k * 7 % 21) - 10.0, t_ms=k * 33.0)
            out.append(lens.power_at(k * 33.0 + 28.0))
        return np.array(out)

    a, b, c = run(11), run(11), run(12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lens_rejects_bad_mode():
    with pytest.raises(ValueError, match="drive mode"):
        LensParams(mode="turbo")


# ---------------------------------------------------------------- mirror

def test_mirror_snap_to_resolution():
    m = SteeringMirror()
    pan, tilt = m.command(10.004, 44.996, t_ms=0.0)
    assert pan == pytest.approx(10.0)
    assert tilt == pytest.approx(45.0)


def test_mirror_out_of_range_is_error_not_clamp():
    m = SteeringMirror()
    with pytest.raises(MirrorRangeError):
        m.command(180.02, 0.0, t_ms=0.0)
    with pytest.raises(MirrorRangeError):
        m.command(0.0, 61.0, t_ms=0.0)
    # boundary values are legal
    m.command(180.0, 60.0, t_ms=0.0)


def test_mirror_slew_time_oracle():
    # 60 degrees at 21000 deg/s is 2.857142857... ms
    m = SteeringMirror(pan_deg=0.0, tilt_deg=0.0)
    m.command(60.0, 0.0, t_ms=0.0)
    assert m.settled_at == pytest.approx(60.0 / 21000.0 * 1000.0, abs=1e-9)
    assert m.settled_at == pytest.approx(2.857142857142857, abs=1e-6)


def test_mirror_axes_move_concurrently():
    m = SteeringMirror(pan_deg=0.0, tilt_deg=0.0)
    m.command(10.0, 20.0, t_ms=0.0)
    # slew is governed by the larger excursion
    assert m.settled_at == pytest.approx(20.0 / 21000.0 * 1000.0)
    pan, tilt = m.pose_at(0.5)
    assert pan == pytest.approx(10.0)  # short axis already done
    assert 0.0 < tilt < 20.0


def test_mirror_pose_always_on_grid():
    m = SteeringMirror(pan_deg=0.0, tilt_deg=0.0)
    m.command(-37.42, 51.13, t_ms=0.0)
    for t in np.linspace(0.0, 3.0, 41):
        pan, tilt = m.pose_at(t)
        assert pan == pytest.approx(round(pan / 0.01) * 0.01, abs=1e-9)
        assert tilt == pytest.approx(round(tilt / 0.01) * 0.01, abs=1e-9)


def test_mirror_retarget_mid_slew():
    m = SteeringMirror(pan_deg=0.0, tilt_deg=0.0)
    m.command(60.0, 0.0, t_ms=0.0)
    m.command(0.0, 0.0, t_ms=1.0)  # turn back halfway through
    # was at 21 deg when re-commanded; needs 1 ms to get home
    assert m.settled_at == pytest.approx(2.0, abs=1e-6)
    assert m.pose_at(5.0) == (0.0, 0.0)


# ---------------------------------------------------------------- sensor

def test_frame_period_anchor():
    s = SensorParams()
    assert s.frame_period_ms == pytest.approx(32.79, abs=0.01)
    # 15 consecutive frames span 14 periods
    span = 14 * s.frame_period_ms
    assert span == pytest.approx(14 * 1000.0 / 30.5)
    assert span == pytest.approx(459.0, abs=0.1)


def test_exposure_must_fit_in_frame():
    with pytest.raises(ValueError):
        SensorParams(exposure_ms=40.0)
    with pytest.raises(ValueError):
        SensorParams(exposure_ms=0.0)


def test_next_frame_start():
    s = SensorParams()
    p = s.frame_period_ms
    assert next_frame_start(s, 0.0) == 0.0
    assert next_frame_start(s, 0.1) == pytest.approx(p)
    assert next_frame_start(s, p) == pytest.approx(p)
    assert next_frame_start(s, 2.5 * p) == pytest.approx(3 * p)
