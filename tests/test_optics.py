import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from irissim import optics
from oracles import blur_circle_diameter, hyperfocal_distance


# ---------------------------------------------------------------- thin lens

def test_image_distance_known_value():
    # 1/v = 1/350 - 1/5000 -> 1750000/4650
    assert optics.thin_lens_image_distance(350.0, 5000.0) == pytest.approx(376.3440860215054, abs=1e-9)


def test_image_distance_infinity_gives_focal_length():
    assert optics.thin_lens_image_distance(210.0, math.inf) == 210.0


def test_image_distance_inside_focal_length_rejected():
    with pytest.raises(ValueError):
        optics.thin_lens_image_distance(350.0, 350.0)
    with pytest.raises(ValueError):
        optics.thin_lens_image_distance(350.0, 100.0)


def test_image_distance_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        f = rng.uniform(50.0, 400.0)
        d = rng.uniform(f * 1.2, 20000.0)
        v = optics.thin_lens_image_distance(f, d)
        assert 1.0 / v + 1.0 / d == pytest.approx(1.0 / f, rel=1e-12)


# ---------------------------------------------------------------- depth of field

def test_dof_anchor_91mm():
    res = optics.depth_of_field(350.0, 4.8, 5000.0, 0.0499)
    assert res.total_mm == pytest.approx(91.0, abs=1.0)


def test_coc_default_matches_root_find_of_anchor():
    # independent 1-D root find: which coc makes the 5 m / 350 mm DoF 91 mm?
    solved = optics.bisect_root(
        lambda c: optics.depth_of_field(350.0, 4.8, 5000.0, c).total_mm - 91.0,
        1e-4, 1.0,
    )
    assert solved == pytest.approx(optics.DEFAULT_COC_MM, abs=5e-5)


def test_dof_total_equals_limit_difference():
    # the limits' difference, the total, against the pupil-diameter closed form
    rng = np.random.default_rng(3)
    for _ in range(30):
        f = rng.uniform(70.0, 350.0)
        d = rng.uniform(f * 2.0, 9000.0)
        res = optics.depth_of_field(f, 4.8, d, 0.0499)
        if math.isinf(res.total_mm):
            continue
        c, p = 0.0499, f / 4.8
        closed = 2.0 * c * d / (f * p / (d - f) - c * c * (d - f) / (f * p))
        assert res.total_mm == pytest.approx(closed, rel=1e-9)


def test_blur_equals_coc_at_both_limits():
    # acceptance-grade property: 50 random configs, both limits conjugate-exact
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 50:
        f = rng.uniform(60.0, 360.0)
        n = rng.uniform(2.0, 8.0)
        d = rng.uniform(f * 1.5, 9000.0)
        coc = rng.uniform(0.01, 0.1)
        res = optics.depth_of_field(f, n, d, coc)
        if math.isinf(res.far_mm):
            continue
        b_near = blur_circle_diameter(f, n, d, res.near_mm)
        b_far = blur_circle_diameter(f, n, d, res.far_mm)
        assert b_near == pytest.approx(coc, rel=1e-6)
        assert b_far == pytest.approx(coc, rel=1e-6)
        checked += 1


def test_dof_monotonic_in_distance_and_focal_length():
    dists = np.linspace(1000.0, 7000.0, 25)
    totals = [optics.depth_of_field(350.0, 4.8, d, 0.0499).total_mm for d in dists]
    assert all(a < b for a, b in zip(totals, totals[1:]))
    focals = np.linspace(90.0, 350.0, 25)
    totals_f = [optics.depth_of_field(f, 4.8, 5000.0, 0.0499).total_mm for f in focals]
    assert all(a > b for a, b in zip(totals_f, totals_f[1:]))


def test_dof_zero_coc_collapses():
    res = optics.depth_of_field(350.0, 4.8, 5000.0, 0.0)
    assert res.total_mm == 0.0
    assert res.near_mm == res.far_mm == 5000.0


def test_dof_beyond_hyperfocal_signals_infinite_far_limit():
    h = hyperfocal_distance(70.0, 4.8, 0.0499)
    res = optics.depth_of_field(70.0, 4.8, h * 1.5, 0.0499)
    assert math.isinf(res.far_mm)
    assert math.isinf(res.total_mm)
    assert res.near_mm > 0.0
    # just inside stays finite
    res2 = optics.depth_of_field(70.0, 4.8, h * 0.99, 0.0499)
    assert not math.isinf(res2.far_mm)


def test_blur_circle_zero_in_focus_and_monotone():
    assert blur_circle_diameter(350.0, 4.8, 5000.0, 5000.0) == 0.0
    # strictly increasing in |1/d_subject - 1/d_focus|
    deltas = [blur_circle_diameter(350.0, 4.8, 5000.0, s) for s in (5200, 5500, 6000, 8000)]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))


# ---------------------------------------------------------------- lens combination

def test_combined_focal_known_value():
    # 1/(1/350 + 1/100 - 50/35000) = 87.5
    assert optics.combined_focal_length(350.0, 100.0, 50.0) == pytest.approx(87.5, rel=1e-12)


def test_combined_focal_flat_second_element():
    assert optics.combined_focal_length(350.0, math.inf, 300.0) == pytest.approx(350.0)


def test_combined_focal_power_zero_limit():
    # as tunable power -> 0 the pair approaches the bare zoom focal length
    for p in (1e-3, 1e-5, 1e-7):
        f = optics.combined_focal_length(350.0, optics.diopter_to_focal_mm(p), 300.0)
        assert f == pytest.approx(350.0, rel=2 * p)


def test_combined_focal_equal_stacked():
    # two f lenses in contact give f/2 exactly
    assert optics.combined_focal_length(200.0, 200.0, 0.0) == pytest.approx(100.0, rel=1e-12)


def test_afocal_pair_rejected():
    # separation = f_a + f_b makes a telescope
    with pytest.raises(optics.AfocalSystemError):
        optics.combined_focal_length(100.0, 100.0, 200.0)


def test_diopter_focal_roundtrip():
    for p in (-10.0, -1.5, 0.0, 0.1, 10.0):
        f = optics.diopter_to_focal_mm(p)
        assert 1000.0 / f == pytest.approx(p, abs=1e-12)
    assert math.isinf(optics.diopter_to_focal_mm(0.0))


# ---------------------------------------------------------------- the train

def test_train_reference_geometry():
    t = optics.OpticalTrain()
    assert t.sensor_back_mm == pytest.approx(39.516, abs=1e-2)
    assert 0.0 < t.d_ot_mm < t.f_zoom_mm


def test_train_rejects_bad_separation():
    with pytest.raises(ValueError):
        optics.OpticalTrain(d_ot_mm=360.0)  # behind the focal point
    with pytest.raises(ValueError):
        optics.OpticalTrain(d_ref_mm=300.0)  # inside focal length


@given(f=st.floats(*optics.ZOOM_RANGE_MM), excess=st.floats(0.0, 1e7, exclude_min=True))
def test_derived_separation_is_the_fraction_of_the_image_distance(f, excess):
    d_ref = f + excess
    assume(d_ref > f)
    want = optics.SEPARATION_FRACTION * optics.thin_lens_image_distance(f, d_ref)
    if want < f:
        assert optics.OpticalTrain(f_zoom_mm=f, d_ref_mm=d_ref).d_ot_mm == want
    else:  # a base focus under about 9.5 f puts the derived lens past the focal point
        with pytest.raises(ValueError, match="lens separation"):
            optics.OpticalTrain(f_zoom_mm=f, d_ref_mm=d_ref)
    pinned = optics.OpticalTrain(f_zoom_mm=f, d_ref_mm=d_ref, d_ot_mm=f / 2.0)
    assert pinned.d_ot_mm == f / 2.0


def test_power_zero_at_reference_distance():
    t = optics.OpticalTrain()
    assert optics.tunable_power_for_focus(t, t.d_ref_mm) == pytest.approx(0.0, abs=1e-12)


def test_power_sign_convention():
    t = optics.OpticalTrain()
    assert optics.tunable_power_for_focus(t, 3800.0) > 0.0  # nearer needs added power
    assert optics.tunable_power_for_focus(t, 7700.0) < 0.0


def test_power_solution_focuses_exactly():
    t = optics.OpticalTrain()
    for d in (3000.0, 3800.0, 5000.0, 6340.0, 7700.0, 8300.0):
        p = optics.tunable_power_for_focus(t, d)
        assert optics.blur_on_sensor_mm(t, p, d) < 1e-9


def test_power_monotone_decreasing_in_distance():
    t = optics.OpticalTrain()
    d = np.linspace(2800.0, 8300.0, 60)
    p = [optics.tunable_power_for_focus(t, x) for x in d]
    assert all(a > b for a, b in zip(p, p[1:]))


def test_focus_distance_power_roundtrip():
    t = optics.OpticalTrain()
    for p in (-8.0, -2.0, 0.0, 3.0, 9.5):
        d = optics.focus_distance_for_power(t, p)
        assert optics.tunable_power_for_focus(t, d) == pytest.approx(p, abs=1e-9)


def test_focus_distance_past_collimation_is_the_near_limit():
    # a tunable lens close behind the zoom collimates its image at +2.73 dpt
    t = optics.OpticalTrain(d_ot_mm=10.0)
    assert optics.focus_distance_for_power(t, 10.0) == t.f_zoom_mm
    p = optics.tunable_power_for_focus(t, 400.0)
    assert p == pytest.approx(2.3713, abs=1e-4)
    assert optics.focus_distance_for_power(t, p) == pytest.approx(400.0, rel=1e-12)
    assert optics.focus_distance_for_power(t, -10.0) == math.inf


def test_focus_reach_covers_extension_band():
    t = optics.OpticalTrain()
    near = optics.focus_distance_for_power(t, 10.0)
    far = optics.focus_distance_for_power(t, -10.0)
    assert near < 3800.0
    assert far > 7700.0


def test_blur_response_to_power_error():
    # +-0.1 dpt of repeatability never exceeds one blur circle anywhere in band
    t = optics.OpticalTrain()
    for d in (3800.0, 4380.0, 5000.0, 6340.0, 7700.0):
        p = optics.tunable_power_for_focus(t, d)
        assert optics.blur_on_sensor_mm(t, p + 0.1, d) < t.coc_mm
        assert optics.blur_on_sensor_mm(t, p - 0.1, d) < t.coc_mm


# ---------------------------------------------------------------- magnification

def test_pixels_anchor_at_7700():
    t = optics.OpticalTrain()
    px = optics.pixels_across_iris(t, 7700.0)
    assert px >= 200.0
    assert px == pytest.approx(200.0, abs=1e-4)


def test_pixels_strictly_decreasing():
    t = optics.OpticalTrain()
    d = np.linspace(3000.0, 9000.0, 40)
    px = [optics.pixels_across_iris(t, x) for x in d]
    assert all(a > b for a, b in zip(px, px[1:]))


def test_pixels_band_above_gate():
    t = optics.OpticalTrain()
    for d in (3800.0, 4380.0, 5000.0, 6340.0, 7000.0):
        assert optics.pixels_across_iris(t, d) > 200.0
    assert optics.pixels_across_iris(t, 8000.0) < 200.0


def test_pixels_far_field_halving():
    # deep in the far field doubling the distance halves the count
    t = optics.OpticalTrain()
    ratio = optics.pixels_across_iris(t, 2.0e6) / optics.pixels_across_iris(t, 4.0e6)
    assert ratio == pytest.approx(2.0, rel=0.02)


def test_pixels_constant_across_rezoomed_trains():
    # the 0.07*d zoom pairing holds in-focus resolution constant at base focus
    ref = optics.pixels_across_iris(optics.OpticalTrain(), 5000.0)
    for d in (1000.0, 2000.0, 3000.0, 4000.0):
        t = optics.OpticalTrain(f_zoom_mm=optics.zoom_focal_for_distance(d), d_ref_mm=d)
        assert optics.pixels_across_iris(t, d) == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------- field of view

def test_fov_anchors():
    t70 = optics.OpticalTrain(f_zoom_mm=70.0, d_ref_mm=1000.0)
    assert optics.field_of_view_deg(t70) == pytest.approx(18.0, abs=0.01)
    t350 = optics.OpticalTrain()
    assert optics.field_of_view_deg(t350) == pytest.approx(3.63, abs=0.01)


def test_positive_power_shortens_the_effective_focal_length():
    # added convergence; the field of view is quoted at zero power
    t = optics.OpticalTrain()
    assert optics.effective_focal_length(t, 5.0) < optics.effective_focal_length(t, 0.0)


def test_aperture_within_clear_opening():
    # tunable lens clear aperture is quoted up to 73 mm
    t = optics.OpticalTrain()
    assert t.aperture_mm == pytest.approx(350.0 / 4.8)
    assert t.aperture_mm < 73.0


def test_capture_volume_reference_value():
    t = optics.OpticalTrain()
    # 0.0909 m depth x (0.317 m)^2 transverse; the quoted 0.04 m^3 headline
    # number is not reproducible from this geometry and is reported, not asserted
    assert optics.capture_volume_m3(t, 5000.0) == pytest.approx(0.0091, abs=0.0008)


# ---------------------------------------------------------------- root finder

def test_bisect_root_simple():
    r = optics.bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_bisect_root_requires_bracket():
    with pytest.raises(ValueError):
        optics.bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
