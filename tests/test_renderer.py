import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.ndimage import gaussian_filter
from scipy import signal

from irissim import config, optics, renderer, texture
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


def test_smallest_kernels_the_renderer_builds_are_3_and_5_wide():
    # the renderer convolves only past blur 0.05 px and smear 0.5 px; at
    # n >= 3 no side of a kernel or padded window is 1, the case where
    # scipy.signal.fftconvolve would skip an axis
    assert disk_kernel(math.nextafter(0.05, 1.0)).shape == (3, 3)
    assert line_kernel(math.nextafter(0.5, 1.0), (1.0, 0.0)).shape == (5, 5)


kernels = st.one_of(
    st.floats(0.05, 38.0, exclude_min=True).map(disk_kernel),
    st.builds(line_kernel, st.floats(0.5, 37.0, exclude_min=True),
              st.floats(0.0, 2 * math.pi).map(lambda a: (math.cos(a), math.sin(a)))))


@settings(max_examples=60)
@given(kernel=kernels, height=st.integers(1, 200), width=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_convolve_same_equals_scipy_signal_exactly(kernel, height, width, seed):
    img = np.random.default_rng(seed).random((height, width))
    p = kernel.shape[0] // 2
    expected = signal.fftconvolve(np.pad(img, p, mode="edge"), kernel, mode="same")[p:-p, p:-p]
    assert np.array_equal(renderer._convolve_same(img, kernel), expected)


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
    args = (4000, 640, 480, 300.0, 250.0, 20.0, 50.0, 2.5, 0.8, 3.0, (0.6, 0.8))
    window, rows, cols = renderer._clean_image(*args)
    assert not window.flags.writeable
    with pytest.raises(ValueError):
        window[0, 0] = 0.0
    # the cached entry is the iris window, not the 640x480 canvas
    assert window.shape == (rows.stop - rows.start, cols.stop - cols.start)
    assert window.size < 640 * 480 / 10
    fresh, fresh_rows, fresh_cols = renderer._clean_image.__wrapped__(*args)
    assert fresh is not window
    assert np.array_equal(window, fresh)
    assert (fresh_rows, fresh_cols) == (rows, cols)


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


@settings(max_examples=40)
@given(height=st.integers(4, 240), width=st.integers(4, 320),
       fx=st.floats(-0.5, 1.5), fy=st.floats(-0.5, 1.5),
       r_i=st.floats(1.0, 160.0), seed=st.integers(0, 50))
def test_draw_eye_equals_the_full_grid_reference(height, width, fx, fy, r_i, seed):
    args = (seed, width, height, width * fx, height * fy, 0.4 * r_i, r_i)
    assert np.array_equal(_draw_eye(*args), _mgrid_eye(*args))


def _whole_canvas_clean(identity_seed, width, height, cx, cy, r_p, r_i,
                        blur_px, astig_sigma, motion_px, mdir):
    """Reference: every optics stage over the whole edge-padded canvas."""
    img = _draw_eye(identity_seed, width, height, cx, cy, r_p, r_i)
    if blur_px > 0.05:
        img = renderer._convolve_same(img, disk_kernel(blur_px))
    if astig_sigma > 0.05:
        img = gaussian_filter(img, sigma=(astig_sigma, 0.3 * astig_sigma), mode="nearest")
    if motion_px > 0.5:
        img = renderer._convolve_same(img, line_kernel(motion_px, mdir))
    return img * renderer.TRANSMISSION * 255.0


@pytest.mark.parametrize("stages", [{"blur"}, {"astig"}, {"motion"},
                                    {"blur", "astig", "motion"}])
@settings(max_examples=12)
@given(r_i=st.floats(4.0, 60.0), tight=st.booleans(),
       fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0),
       blur=st.floats(0.06, 24.0), astig=st.floats(0.06, 4.0),
       motion=st.floats(0.6, 16.0), angle=st.floats(0.0, 2 * math.pi),
       seed=st.integers(0, 50))
def test_windowed_optics_equal_the_whole_canvas_reference(stages, r_i, tight, fx, fy, blur,
                                                          astig, motion, angle, seed):
    # the tight crop (base_canvas=(0, 0)) is 1.3 iris radii from the centre, and
    # fx, fy at 0 or 1 put the iris where render_eye still takes it, against a side
    side = 2 * math.ceil(renderer._MARGIN * r_i)
    width, height = (side, side) if tight else (side + 90, side + 60)
    cx = 1.05 * r_i + fx * (width - 2.1 * r_i)
    cy = 1.05 * r_i + fy * (height - 2.1 * r_i)
    args = (seed, width, height, cx, cy, 0.4 * r_i, r_i,
            blur if "blur" in stages else 0.0, astig if "astig" in stages else 0.0,
            motion if "motion" in stages else 0.0, (math.cos(angle), math.sin(angle)))
    window, rows, cols = renderer._clean_image.__wrapped__(*args)
    reference = _whole_canvas_clean(*args)
    assert_allclose(window, reference[rows, cols], rtol=0.0, atol=1e-9)
    # the window holds the tight-crop box, and outside it the canvas is flat sclera
    half = math.ceil(renderer._MARGIN * r_i)
    for (lo, hi), window_span in zip((renderer._span(cy, half, height),
                                      renderer._span(cx, half, width)), (rows, cols)):
        assert window_span.start <= lo and hi <= window_span.stop
    outside = np.ones(reference.shape, dtype=bool)
    outside[rows, cols] = False
    assert_allclose(reference[outside], SCLERA_CLEAN, rtol=0.0, atol=1e-9)


# the clean grey of flat sclera, which the exposure quantizes to SCLERA_GREY
SCLERA_CLEAN = REFLECTANCE_SCLERA * renderer.TRANSMISSION * 255.0


def test_sclera_grey_is_the_quantized_clean_sclera():
    assert renderer.SCLERA_GREY == 163 == np.uint8(SCLERA_CLEAN)
    assert renderer.SCLERA_GREY.dtype == np.uint8


def _parent_exposure(identity_seed, width, height, cx, cy, r_p, r_i, blur_px,
                     astig_sigma, motion_px, mdir, noise_seed):
    """Reference: the whole clean canvas, read noise on every pixel, clip, cast.

    The optics run on the iris disk's box grown by their reach, as in the
    renderer; everything else covers the whole canvas.
    """
    img = _draw_eye(identity_seed, width, height, cx, cy, r_p, r_i)
    disk = disk_kernel(blur_px) if blur_px > 0.05 else None
    line = line_kernel(motion_px, mdir) if motion_px > 0.5 else None
    sigma = (astig_sigma, 0.3 * astig_sigma) if astig_sigma > 0.05 else None
    reach = sum(k.shape[0] // 2 for k in (disk, line) if k is not None)
    ry, rx = (int(4.0 * s + 0.5) for s in sigma) if sigma else (0, 0)
    y0, y1 = renderer._span(cy, r_i + reach + ry, height)
    x0, x1 = renderer._span(cx, r_i + reach + rx, width)
    window = img[y0:y1, x0:x1]
    if disk is not None:
        window = renderer._convolve_same(window, disk)
    if sigma:
        window = gaussian_filter(window, sigma=sigma, mode="nearest")
    if line is not None:
        window = renderer._convolve_same(window, line)
    img[y0:y1, x0:x1] = window
    img = img * renderer.TRANSMISSION * 255.0
    rng = np.random.default_rng((int(noise_seed), 0x4652414D))
    img = img + rng.normal(0.0, renderer.READ_NOISE_GREY, img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def _render_recording_geometry(**kwargs):
    """``render_eye``'s frame and the arguments it passed ``_clean_image``."""
    calls = []

    def spy(*args):
        calls.append(args)
        return clean(*args)

    clean = renderer._clean_image
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(renderer, "_clean_image", spy)
        frame = render_eye(**kwargs)
    (args,) = calls
    return frame, args


@settings(max_examples=30, deadline=None)
@given(d=st.floats(3500.0, 7000.0), off_x=st.floats(-0.99, 0.99),
       off_y=st.floats(-0.99, 0.99), defocus=st.sampled_from([0.0, 0.15, 0.6]),
       k_ast=st.sampled_from([0.0, 0.2]), speed=st.sampled_from([0.0, 150.0, 900.0]),
       angle=st.floats(0.0, 2 * math.pi), nseed=st.integers(0, 2**32 - 1))
def test_tight_crop_exposure_equals_the_whole_canvas_reference(d, off_x, off_y, defocus,
                                                               k_ast, speed, angle, nseed):
    # a tight crop whose iris lies within a pixel of its centre, as every
    # sweep and calibration probe aims it: the noise box is the whole canvas
    eye = (0.0, d - 200.0, 0.0)
    pan, tilt = aim_angles(eye)
    power = tunable_power_for_focus(TRAIN, d) + defocus
    px_per_rad = optics.effective_focal_length(TRAIN, power) / optics.PIXEL_PITCH_MM
    # the image moves 1 px per pixel-angle of pan and -2 px per one of tilt
    frame, args = _render_recording_geometry(
        train=TRAIN, power_dpt=power, pan_deg=pan - math.degrees(off_x / px_per_rad),
        tilt_deg=tilt + math.degrees(off_y / px_per_rad / 2), eye_pos_mm=eye,
        identity_seed=4000, noise_seed=nseed, k_ast=k_ast, base_canvas=(0, 0),
        eye_velocity_mmps=(speed * math.cos(angle), 0.0, speed * math.sin(angle)))
    assume(max(map(abs, frame.offset_px)) < 1.0)
    assert np.array_equal(frame.image, _parent_exposure(*args, nseed))


def test_optics_stages_see_only_the_iris_window(monkeypatch):
    # a canonical iom frame on the 640x480 canvas: the walker 3.3 m out,
    # focused 0.2 dpt off and swaying sideways, so defocus and smear both run
    shapes = []

    def recorder(fn):
        def record(img, *args, **kwargs):
            shapes.append(img.shape)
            return fn(img, *args, **kwargs)
        return record

    monkeypatch.setattr(renderer, "fftconvolve", recorder(renderer.fftconvolve))
    monkeypatch.setattr(renderer, "gaussian_filter", recorder(renderer.gaussian_filter))
    renderer._clean_image.cache_clear()
    train = config.rig_from_config(config.default_config("iom")).train
    eye = (0.0, 3100.0, 0.0)
    pan, tilt = aim_angles(eye)
    f = render_eye(train, power_dpt=tunable_power_for_focus(train, 3300.0) + 0.2,
                   pan_deg=pan, tilt_deg=tilt, eye_pos_mm=eye, identity_seed=3377,
                   noise_seed=1, eye_velocity_mmps=(100.0, -1000.0, 0.0))
    assert f.image.shape == (480, 640)
    assert f.blur_px > 0.05 and f.motion_px > 0.5
    assert len(shapes) == 2
    # the iris disk's box grown by both kernels' reach, plus the edge padding
    # each convolution adds
    reach = (disk_kernel(f.blur_px).shape[0] // 2
             + line_kernel(f.motion_px, (1.0, 0.0)).shape[0] // 2)
    window = 2 * math.ceil(f.r_iris_px + reach) + 2
    assert all(max(shape) <= window + 2 * reach for shape in shapes)
    assert window + 2 * reach < 280


def test_full_frame_is_sclera_grey_outside_the_window_and_noise_free_outside_the_box():
    # smear and astigmatism grow the optics window past the tight-crop box
    eye = (0.0, 3800.0, 0.0)
    pan, tilt = aim_angles(eye)
    frame, args = _render_recording_geometry(
        train=TRAIN, power_dpt=tunable_power_for_focus(TRAIN, 4000.0) + 0.5,
        pan_deg=pan + 0.08, tilt_deg=tilt, eye_pos_mm=eye, identity_seed=4000,
        noise_seed=5, k_ast=0.2, eye_velocity_mmps=(900.0, 0.0, 0.0))
    img = frame.image
    assert img.shape == (480, 640) and img.size == 307_200
    window, rows, cols = renderer._clean_image.__wrapped__(*args)
    half = math.ceil(renderer._MARGIN * frame.r_iris_px)
    y0, y1 = renderer._span(frame.cy, half, 480)
    x0, x1 = renderer._span(frame.cx, half, 640)
    # the iris sits off-centre, and the window reaches past the box on both axes
    assert abs(frame.offset_px[0]) > 50
    assert rows.start < y0 and y1 < rows.stop and cols.start < x0 and x1 < cols.stop

    outside = np.ones(img.shape, dtype=bool)
    outside[rows, cols] = False
    assert np.all(img[outside] == 163)
    clean = np.clip(window, 0, 255).astype(np.uint8)
    margin = np.ones(window.shape, dtype=bool)
    margin[y0 - rows.start:y1 - rows.start, x0 - cols.start:x1 - cols.start] = False
    assert np.array_equal(img[rows, cols][margin], clean[margin])
    # inside the box the read noise of the frame's own seed is added
    box = window[y0 - rows.start:y1 - rows.start, x0 - cols.start:x1 - cols.start]
    noise = np.random.default_rng((5, 0x4652414D)).normal(0.0, renderer.READ_NOISE_GREY,
                                                          box.shape)
    assert np.array_equal(img[y0:y1, x0:x1], np.clip(box + noise, 0, 255).astype(np.uint8))
    assert np.mean(img[y0:y1, x0:x1] != clean[~margin].reshape(box.shape)) > 0.5
