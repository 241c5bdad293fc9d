import math

import numpy as np
import pytest

from irissim.scene import (
    EYE_DROP_MM,
    RigGeometry,
    Subject,
    aim_angles,
    eye_position,
    eye_velocity,
    line_of_sight_mm,
    mirror_normal,
    reflect,
    reflected_view_dir,
    subject_at,
)

RIG = RigGeometry()


def make_subject(pos, **kwargs):
    kwargs.setdefault("jitter_sigma_mm", 0.0)
    return Subject("s", 1, pos, **kwargs)


# --- aiming geometry ---------------------------------------------------------


def test_level_eye_needs_45_degree_tilt():
    pan, tilt = aim_angles((0.0, 5000.0, 0.0))
    assert pan == pytest.approx(0.0, abs=1e-12)
    assert tilt == pytest.approx(45.0, abs=1e-12)


def test_pan_matches_azimuth_for_level_eye():
    for az in (-170.0, -90.0, -30.0, 10.0, 120.0):
        e = (5000 * math.sin(math.radians(az)), 5000 * math.cos(math.radians(az)), 0.0)
        pan, tilt = aim_angles(e)
        assert pan == pytest.approx(az, abs=1e-9)
        assert tilt == pytest.approx(45.0, abs=1e-9)


def test_tilt_is_half_elevation_plus_45():
    for elev in (-40.0, -10.0, 0.0, 15.0, 35.0):
        e = (0.0, 4000 * math.cos(math.radians(elev)), 4000 * math.sin(math.radians(elev)))
        _, tilt = aim_angles(e)
        assert tilt == pytest.approx(45.0 + elev / 2.0, abs=1e-9)


def test_reflection_closes_the_fold():
    # the folded view axis must land on the eye for arbitrary reachable targets
    rng = np.random.default_rng(7)
    for _ in range(1000):
        az = rng.uniform(-179.0, 179.0)
        elev = rng.uniform(-60.0, 28.0)
        r = rng.uniform(500.0, 9000.0)
        e = np.array([
            r * math.cos(math.radians(elev)) * math.sin(math.radians(az)),
            r * math.cos(math.radians(elev)) * math.cos(math.radians(az)),
            r * math.sin(math.radians(elev)),
        ])
        pan, tilt = aim_angles(e)
        v = reflected_view_dir(pan, tilt)
        assert np.linalg.norm(v - e / r) < 1e-9


def test_reflect_is_an_involution():
    rng = np.random.default_rng(3)
    v = rng.normal(size=3)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    assert np.allclose(reflect(reflect(v, n), n), v, atol=1e-12)


def test_mirror_normal_is_unit():
    for pan, tilt in ((0, 45), (-120, 10), (90, -30), (180, 60)):
        assert np.linalg.norm(mirror_normal(pan, tilt)) == pytest.approx(1.0, abs=1e-12)


def test_desk_scale_targets_stay_inside_tilt_range():
    rng = np.random.default_rng(11)
    for _ in range(500):
        xy = rng.uniform(-6000, 6000, size=2)
        horiz = np.linalg.norm(xy)
        if horiz < 800:
            continue
        z = rng.uniform(-0.5, 0.5) * horiz
        _, tilt = aim_angles(np.array([xy[0], xy[1], z]))
        assert -60.0 <= tilt <= 60.0


def test_aim_degenerate_targets_raise():
    with pytest.raises(ValueError):
        aim_angles((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        aim_angles((0.0, 0.0, -123.0))


def test_reflected_view_dir_straight_down_mirror():
    # pan 0 tilt 45 folds the downward axis into +y
    v = reflected_view_dir(0.0, 45.0)
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-12)


# --- rig distances -----------------------------------------------------------


def test_line_of_sight_adds_lens_offset():
    assert line_of_sight_mm((0.0, 5000.0, 0.0), RIG) == pytest.approx(5200.0)


def test_subject_at_places_eye_below_head():
    rig = RigGeometry(mirror_height_mm=1200.0)
    s = subject_at("a", 5, 3800.0, 1700.0, rig)
    assert s.position_mm == pytest.approx((0.0, 3800.0, 1700.0 - EYE_DROP_MM - 1200.0))


# --- motion ------------------------------------------------------------------


def test_static_subject_stays_put():
    s = make_subject((100.0, 5000.0, 0.0))
    for t in (0.0, 123.0, 99999.0):
        assert np.allclose(eye_position(s, t), [100.0, 5000.0, 0.0])
        assert np.allclose(eye_velocity(s, t), 0.0)


def test_trajectory_integrates_exactly():
    s = make_subject((0.0, 3800.0, 380.0), velocity_mmps=(0.0, -1000.0, 0.0))
    assert eye_position(s, 500.0)[1] == pytest.approx(3300.0)
    assert np.allclose(eye_velocity(s, 500.0), [0.0, -1000.0, 0.0])


def test_walk_holds_still_before_time_zero():
    s = make_subject((0.0, 5000.0, 0.0), velocity_mmps=(2000.0, 0.0, 0.0))
    for t in (-500.0, -1.0, 0.0):
        assert np.array_equal(eye_position(s, t), [0.0, 5000.0, 0.0])
    assert eye_position(s, 250.0)[0] == pytest.approx(500.0)


def test_walk_velocity_is_zero_until_time_zero():
    s = make_subject((0.0, 5000.0, 0.0), velocity_mmps=(2000.0, 0.0, 0.0))
    for t in (-500.0, -1.0, 0.0):
        assert np.array_equal(eye_velocity(s, t), [0.0, 0.0, 0.0])
    assert np.array_equal(eye_velocity(s, 1e-6), [2000.0, 0.0, 0.0])


def test_jitter_amplitude_matches_sigma():
    s = Subject("s", 1, (0.0, 5000.0, 0.0), jitter_sigma_mm=3.0)
    ts = np.linspace(0.0, 100_000.0, 4001)
    samples = np.array([eye_position(s, t) for t in ts])
    std = samples.std(axis=0)
    assert np.all(np.abs(std - 3.0) < 0.75)


def test_jitter_is_deterministic_and_seeded():
    a = Subject("s", 1, (0.0, 5000.0, 0.0), jitter_sigma_mm=3.0, motion_seed=4)
    b = Subject("s", 9, (0.0, 5000.0, 0.0), jitter_sigma_mm=3.0, motion_seed=4)
    c = Subject("s", 1, (0.0, 5000.0, 0.0), jitter_sigma_mm=3.0, motion_seed=5)
    assert np.allclose(eye_position(a, 777.0), eye_position(b, 777.0))
    assert not np.allclose(eye_position(a, 777.0), eye_position(c, 777.0))


def test_velocity_matches_finite_difference():
    s = Subject("s", 1, (0.0, 3800.0, 380.0), velocity_mmps=(0.0, -1000.0, 0.0),
                jitter_sigma_mm=3.0)
    h = 0.01
    for t in (37.0, 512.0, 4096.0):
        fd = (eye_position(s, t + h) - eye_position(s, t - h)) / (2 * h) * 1000.0
        assert np.allclose(eye_velocity(s, t), fd, atol=1e-3)


def test_motion_is_continuous():
    s = Subject("s", 1, (0.0, 3800.0, 380.0), velocity_mmps=(0.0, -1000.0, 0.0),
                jitter_sigma_mm=3.0)
    for t in np.linspace(0.0, 2000.0, 200):
        step = np.linalg.norm(eye_position(s, t + 0.1) - eye_position(s, t))
        assert step < 1.0
