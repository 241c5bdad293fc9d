import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irissim import renderer, texture
from irissim.optics import OpticalTrain, tunable_power_for_focus
from irissim.quality import sharpness_score
from irissim.renderer import (
    LID_FRACTION,
    REFLECTANCE_LID,
    REFLECTANCE_PUPIL,
    REFLECTANCE_SCLERA,
    TargetMissed,
    _draw_eye,
    disk_kernel,
    line_kernel,
    render_eye,
    write_pgm,
)
from irissim.scene import aim_angles

TRAIN = OpticalTrain()


def frame_at(d_los, power=None, seed=4000, nseed=9, k_ast=0.0, **kwargs):
    eye = (0.0, d_los - 200.0, 0.0)
    pan, tilt = aim_angles(eye)
    if power is None:
        power = tunable_power_for_focus(TRAIN, d_los)
    return render_eye(TRAIN, power_dpt=power, pan_deg=pan, tilt_deg=tilt,
                      eye_pos_mm=eye, identity_seed=seed, noise_seed=nseed,
                      k_ast=k_ast, **kwargs)


def test_disk_kernel_normalized():
    for d in (0.7, 1.5, 3.0, 9.18, 25.0):
        k = disk_kernel(d)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k, k[::-1, ::-1])  # centre symmetric


def test_line_kernel_normalized():
    for length, direction in ((1.0, (1, 0)), (6.0, (0, 1)), (11.3, (1, -2))):
        k = line_kernel(length, direction)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)


def test_reference_frame_geometry():
    f = frame_at(5000.0)
    assert f.image.shape == (480, 640)
    assert f.image.dtype == np.uint8
    assert f.px_across_iris == pytest.approx(238.70968018893927)
    assert f.blur_px == pytest.approx(0.0, abs=1e-9)
    assert f.offset_px[0] == pytest.approx(0.0, abs=1e-6)
    assert f.offset_px[1] == pytest.approx(0.0, abs=1e-6)


def test_canvas_grows_for_close_subjects():
    f = frame_at(2800.0)
    r_i = f.r_iris_px
    assert f.image.shape[0] >= 2.6 * r_i
    assert f.image.shape[1] >= 640


def test_mis_aimed_mirror_misses_target():
    eye = (0.0, 4800.0, 0.0)
    pan, tilt = aim_angles(eye)
    with pytest.raises(TargetMissed):
        render_eye(TRAIN, power_dpt=0.0, pan_deg=pan + 5.0, tilt_deg=tilt,
                   eye_pos_mm=eye, identity_seed=1, noise_seed=1)


def test_render_is_deterministic():
    a = frame_at(5000.0, nseed=3)
    b = frame_at(5000.0, nseed=3)
    c = frame_at(5000.0, nseed=4)
    assert np.array_equal(a.image, b.image)
    assert not np.array_equal(a.image, c.image)


def test_region_grey_levels():
    f = frame_at(5000.0)
    cx, cy = int(round(f.cx)), int(round(f.cy))
    r_i = f.r_iris_px
    pupil = f.image[cy, cx]
    iris = f.image[cy + int(0.7 * r_i), cx]
    sclera = f.image[cy, cx + int(1.2 * r_i)]
    lid = f.image[cy - int(0.85 * r_i), cx]
    assert pupil < 25
    assert 51 <= iris <= 140
    assert sclera > 150
    assert 100 <= lid <= 125


def test_sharpness_strictly_drops_with_defocus():
    scores = []
    for dp in (0.0, 0.03, 0.06, 0.1, 0.2, 0.4):
        f = frame_at(5000.0, power=dp)
        scores.append(sharpness_score(f.image, f.cx, f.cy, f.r_pupil_px, f.r_iris_px))
    assert all(a > b for a, b in zip(scores, scores[1:]))


def test_blur_conserves_mean_brightness():
    sharp = frame_at(5000.0).image.mean()
    soft = frame_at(5000.0, power=0.5).image.mean()
    assert soft == pytest.approx(sharp, rel=0.02)


def test_astigmatism_only_for_positive_power():
    near = frame_at(3800.0, k_ast=0.2)
    far = frame_at(7700.0, k_ast=0.2)
    p_near = tunable_power_for_focus(TRAIN, 3800.0)
    assert near.astig_sigma_px == pytest.approx(0.2 * p_near ** 2)
    assert far.astig_sigma_px == 0.0


def test_motion_smear_length_and_effect():
    still = frame_at(5000.0)
    moving = frame_at(5000.0, eye_velocity_mmps=(500.0, 0.0, 0.0))
    # 500 mm/s transverse for 3 ms is 1.5 mm, scaled to iris pixels
    expect = 1.5 * (still.px_across_iris / 10.0)
    assert moving.motion_px == pytest.approx(expect, rel=1e-6)
    s_still = sharpness_score(still.image, still.cx, still.cy,
                              still.r_pupil_px, still.r_iris_px)
    s_move = sharpness_score(moving.image, moving.cx, moving.cy,
                             moving.r_pupil_px, moving.r_iris_px)
    assert s_move < 0.8 * s_still


def test_radial_velocity_does_not_smear():
    f = frame_at(5000.0, eye_velocity_mmps=(0.0, -1000.0, 0.0))
    assert f.motion_px == pytest.approx(0.0, abs=1e-9)


def test_write_pgm_roundtrip(tmp_path):
    f = frame_at(5000.0)
    path = tmp_path / "eye.pgm"
    write_pgm(path, f.image)
    blob = path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    w, h = map(int, dims.split())
    maxval, pixels = rest.split(b"\n", 1)
    assert (h, w) == f.image.shape
    assert maxval == b"255"
    back = np.frombuffer(pixels, np.uint8).reshape(h, w)
    assert np.array_equal(back, f.image)


def test_iris_texture_is_a_read_only_copy_of_a_fresh_build():
    sheet = texture.iris_texture(4000)
    assert not sheet.flags.writeable
    with pytest.raises(ValueError):
        sheet[0, 0] = 0.0
    fresh = texture._sheet.__wrapped__(4000)
    assert fresh is not sheet
    assert np.array_equal(sheet, fresh)
    assert texture.iris_texture(np.int64(4000)) is sheet


def test_iris_texture_cache_is_bounded():
    assert texture._sheet.cache_info().maxsize == 4
    for seed in range(20):
        texture.iris_texture(seed)
    assert texture._sheet.cache_info().currsize == 4


def test_clean_image_is_a_read_only_one_entry_cache():
    assert renderer._clean_image.cache_info().maxsize == 1
    args = (4000, 320, 240, 160.0, 120.0, 40.0, 100.0, 2.5, 0.8, 3.0, (0.6, 0.8))
    img = renderer._clean_image(*args)
    assert not img.flags.writeable
    with pytest.raises(ValueError):
        img[0, 0] = 0.0
    fresh = renderer._clean_image.__wrapped__(*args)
    assert fresh is not img
    assert np.array_equal(img, fresh)


def test_exposures_of_one_geometry_share_one_clean_image():
    # defocus, astigmatism and smear all run, so the cached image covers them
    kwargs = dict(power=1.0, k_ast=0.2, eye_velocity_mmps=(100.0, 0.0, 0.0))
    renderer._clean_image.cache_clear()
    frames = [frame_at(4000.0, nseed=n, **kwargs) for n in (1, 2)]
    info = renderer._clean_image.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert frames[0].motion_px > 0.5 and frames[0].astig_sigma_px > 0.05
    assert not np.array_equal(frames[0].image, frames[1].image)
    for n, frame in zip((1, 2), frames):
        renderer._clean_image.cache_clear()
        assert np.array_equal(frame.image, frame_at(4000.0, nseed=n, **kwargs).image)


def _mgrid_eye(identity_seed, width, height, cx, cy, r_p, r_i):
    tex = texture._sheet.__wrapped__(identity_seed)
    yy, xx = np.mgrid[0:height, 0:width]
    rr = np.hypot(yy - cy, xx - cx)
    img = np.full((height, width), REFLECTANCE_SCLERA)
    ann = (rr >= r_p) & (rr < r_i)
    theta = np.arctan2(yy - cy, xx - cx)[ann] % (2 * np.pi)
    radial = (rr[ann] - r_p) / (r_i - r_p)
    nr, na = tex.shape
    ri_idx = np.clip((radial * nr).astype(int), 0, nr - 1)
    ai_idx = (theta / (2 * np.pi) * na).astype(int) % na
    img[ann] = tex[ri_idx, ai_idx]
    img[rr < r_p] = REFLECTANCE_PUPIL
    lid = yy < (cy - r_i * (1 - 2 * LID_FRACTION))
    img[lid & (rr < r_i)] = REFLECTANCE_LID
    return img


@settings(max_examples=40, deadline=None)
@given(height=st.integers(4, 240), width=st.integers(4, 320),
       fx=st.floats(-0.5, 1.5), fy=st.floats(-0.5, 1.5),
       r_i=st.floats(1.0, 160.0), seed=st.integers(0, 50))
def test_draw_eye_equals_the_full_grid_reference(height, width, fx, fy, r_i, seed):
    args = (seed, width, height, width * fx, height * fy, 0.4 * r_i, r_i)
    assert np.array_equal(_draw_eye(*args), _mgrid_eye(*args))
