import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from irissim import quality
from irissim.optics import OpticalTrain, tunable_power_for_focus
from irissim.quality import (
    QualityThresholds,
    brightness_score,
    evaluate,
    sharpness_score,
)
from irissim.renderer import render_eye
from irissim.scene import aim_angles

TRAIN = OpticalTrain()


def frame_at(d_los, power=None, seed=9000, nseed=9, k_ast=0.0):
    eye = (0.0, d_los - 200.0, 0.0)
    pan, tilt = aim_angles(eye)
    if power is None:
        power = tunable_power_for_focus(TRAIN, d_los)
    return render_eye(TRAIN, power_dpt=power, pan_deg=pan, tilt_deg=tilt,
                      eye_pos_mm=eye, identity_seed=seed, noise_seed=nseed,
                      k_ast=k_ast)


def test_in_focus_frame_passes():
    r = evaluate(frame_at(5000.0))
    assert r.passed
    assert r.fail_reasons == ()


def test_resolution_gate_beyond_range():
    # just past the 200 px anchor distance
    f = frame_at(7710.0)
    r = evaluate(f)
    assert not r.passed
    assert "resolution" in r.fail_reasons
    assert f.px_across_iris < 200.0


def test_resolution_gate_holds_at_anchor():
    r = evaluate(frame_at(7700.0))
    assert "resolution" not in r.fail_reasons


def test_sharpness_gate_on_heavy_defocus():
    r = evaluate(frame_at(5000.0, power=0.5))
    assert not r.passed
    assert "sharpness" in r.fail_reasons


def test_brightness_gate_on_dim_frame():
    f = frame_at(5000.0)
    f.image = (f.image.astype(float) * 0.25).astype(np.uint8)
    r = evaluate(f)
    assert "brightness" in r.fail_reasons


def test_brightness_gate_on_blown_frame():
    f = frame_at(5000.0)
    f.image = np.clip(f.image.astype(float) * 2.0, 0, 255).astype(np.uint8)
    r = evaluate(f)
    assert "brightness" in r.fail_reasons


def test_evaluate_never_raises_on_garbage():
    f = frame_at(5000.0)
    f.image = np.zeros_like(f.image)
    r = evaluate(f)
    assert not r.passed
    assert r.fail_reasons


def test_sharpness_is_scale_invariant_in_focus():
    scores = [sharpness_score(f.image, f.cx, f.cy, f.r_pupil_px, f.r_iris_px)
              for f in (frame_at(3800.0), frame_at(5000.0), frame_at(7700.0))]
    ref = scores[1]
    for s in scores:
        assert s == pytest.approx(ref, rel=0.08)


def test_brightness_score_in_window():
    f = frame_at(5000.0)
    b = brightness_score(f.image, f.cx, f.cy, f.r_pupil_px, f.r_iris_px)
    t = QualityThresholds()
    assert t.brightness_lo < b < t.brightness_hi


def test_custom_thresholds_respected():
    f = frame_at(5000.0)
    strict = QualityThresholds(min_px_across_iris=1000.0)
    assert "resolution" in evaluate(f, strict).fail_reasons


def _whole_frame_mask(shape, cx, cy, r_p, r_i):
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]]
    rr = np.hypot(yy - cy, xx - cx)
    return (rr > r_p * 1.15) & (rr < r_i * 0.95) & (yy > cy - 0.55 * r_i)


def _whole_frame_sharpness(image, cx, cy, r_p, r_i):
    scale = (2.0 * r_i) / quality.REF_IRIS_PX
    im = image.astype(float)
    band = (gaussian_filter(im, 1.0 * scale, mode="nearest")
            - gaussian_filter(im, 3.5 * scale, mode="nearest"))
    ann = _whole_frame_mask(image.shape, cx, cy, r_p, r_i)
    if not ann.any():
        return 0.0
    return float(np.var(band[ann]) / (np.var(im[ann]) + 1e-12))


def _whole_frame_brightness(image, cx, cy, r_p, r_i):
    ann = _whole_frame_mask(image.shape, cx, cy, r_p, r_i)
    if not ann.any():
        return 0.0
    return float(image[ann].mean())


@settings(max_examples=60)
@given(height=st.integers(8, 200), width=st.integers(8, 260),
       fx=st.floats(-0.3, 1.3), fy=st.floats(-0.3, 1.3),
       r_i=st.floats(2.0, 150.0), pupil=st.floats(0.2, 0.7),
       blur=st.floats(0.0, 4.0), seed=st.integers(0, 2 ** 16))
def test_box_scores_equal_the_whole_frame_formulas(height, width, fx, fy, r_i,
                                                   pupil, blur, seed):
    # centres past the crop edge clip the annulus box, or empty it
    rng = np.random.default_rng(seed)
    image = gaussian_filter(rng.uniform(0.0, 255.0, (height, width)), blur)
    image = image.astype(np.uint8)
    geometry = (width * fx, height * fy, pupil * r_i, r_i)
    assert sharpness_score(image, *geometry) == _whole_frame_sharpness(image, *geometry)
    assert brightness_score(image, *geometry) == _whole_frame_brightness(image, *geometry)


def test_rendered_frames_score_as_on_the_whole_frame():
    for f in (frame_at(5000.0), frame_at(3000.0, power=2.0), frame_at(7000.0)):
        geometry = (f.cx, f.cy, f.r_pupil_px, f.r_iris_px)
        assert sharpness_score(f.image, *geometry) == _whole_frame_sharpness(f.image, *geometry)
        assert brightness_score(f.image, *geometry) == _whole_frame_brightness(f.image, *geometry)


def test_annulus_mask_is_built_once_per_frame_and_read_only():
    f = frame_at(5000.0, nseed=17)
    quality._annulus.cache_clear()
    evaluate(f)
    info = quality._annulus.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 1, 1)
    box, mask = quality._annulus(f.image.shape, f.cx, f.cy, f.r_pupil_px, f.r_iris_px)
    assert not mask.flags.writeable
    whole = _whole_frame_mask(f.image.shape, f.cx, f.cy, f.r_pupil_px, f.r_iris_px)
    assert whole.sum() == mask.sum() and np.array_equal(whole[box], mask)
