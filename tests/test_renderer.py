import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.ndimage import gaussian_filter, gaussian_filter1d
from scipy import signal

from irissim import calibration, config, experiments, optics, renderer, texture
from irissim.optics import OpticalTrain, tunable_power_for_focus
from irissim.quality import sharpness_score
from irissim.renderer import (
    LID_FRACTION,
    REFLECTANCE_LID,
    REFLECTANCE_PUPIL,
    REFLECTANCE_SCLERA,
    RenderTooWide,
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


sigmas = st.floats(0.05, 12.0)
# sides from 1 up: at the larger sigmas many images are smaller than the kernel
images = st.builds(lambda h, w, seed: np.random.default_rng(seed).random((h, w)) * 255.0,
                   st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32 - 1))


@settings(max_examples=100)
@given(img=images, sigma=sigmas)
def test_gaussian_filter_equals_scipy_exactly_with_one_sigma(img, sigma):
    expected = gaussian_filter(img, sigma, mode="nearest", truncate=4.0)
    assert np.array_equal(renderer.gaussian_filter(img, sigma), expected)


@settings(max_examples=100)
@given(img=images, sigma=st.one_of(st.tuples(sigmas, sigmas),
                                   sigmas.map(lambda s: (s, 0.3 * s))))
def test_gaussian_filter_equals_scipy_exactly_per_axis(img, sigma):
    # (s, 0.3 s) is the renderer's astigmatism
    expected = gaussian_filter(img, sigma, mode="nearest", truncate=4.0)
    assert np.array_equal(renderer.gaussian_filter(img, sigma), expected)


@settings(max_examples=100)
@given(n=st.integers(1, 120), sigma=sigmas, seed=st.integers(0, 2**32 - 1))
def test_gaussian_filter_equals_scipy_exactly_in_1d(n, sigma, seed):
    profile = np.random.default_rng(seed).random(n)
    expected = gaussian_filter1d(profile, sigma, mode="nearest")
    assert np.array_equal(renderer.gaussian_filter(profile, sigma), expected)


def test_gaussian_filter_skips_an_axis_of_negligible_sigma():
    img = np.random.default_rng(0).random((30, 40))
    for sigma in ((0.0, 2.0), (2.0, 1e-16), 0.0):
        expected = gaussian_filter(img, sigma, mode="nearest")
        assert np.array_equal(renderer.gaussian_filter(img, sigma), expected)
    assert renderer.gaussian_filter(img, 0.0) is not img


@pytest.mark.parametrize("name", ["scipy.fft._pocketfft.pypocketfft",
                                  "scipy.ndimage._nd_image"])
def test_missing_scipy_core_fails_the_import(name, tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(renderer, "_scipy_root", lambda: tmp_path)
    stem = name.rsplit(".", 1)[1]
    with pytest.raises(ImportError, match=re.escape(f"{stem}*.so")):
        renderer._scipy_core(name)
    assert name not in sys.modules


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


def _ix_value_noise_polar(rng, nr, na, lat_r, lat_a):
    """Reference: the four corner grids gathered with ``np.ix_``, then weighted."""
    grid = rng.uniform(-1.0, 1.0, size=(lat_r + 1, lat_a))
    r = np.linspace(0, lat_r, nr, endpoint=False)
    a = np.linspace(0, lat_a, na, endpoint=False)
    r0 = np.floor(r).astype(int)
    ra = (r - r0)[:, None]
    a0 = np.floor(a).astype(int)
    aa = (a - a0)[None, :]
    r1 = np.minimum(r0 + 1, lat_r)
    a1 = (a0 + 1) % lat_a
    g00 = grid[np.ix_(r0, a0)]
    g01 = grid[np.ix_(r0, a1)]
    g10 = grid[np.ix_(r1, a0)]
    g11 = grid[np.ix_(r1, a1)]
    sr = ra * ra * (3 - 2 * ra)
    sa = aa * aa * (3 - 2 * aa)
    return (g00 * (1 - sr) * (1 - sa) + g01 * (1 - sr) * sa
            + g10 * sr * (1 - sa) + g11 * sr * sa)


def _cos_sum_furrows(rng, nr, na):
    """Reference: each furrow as one cosine of the summed angle over the sheet."""
    r = np.linspace(0, 1, nr)[:, None]
    theta = np.linspace(0, 2 * np.pi, na, endpoint=False)[None, :]
    furrows = np.zeros((nr, na))
    for _ in range(texture._FURROWS):
        n_f = rng.integers(9, 28)
        phi = rng.uniform(0, 2 * np.pi)
        beta = rng.uniform(-2.0, 2.0)
        furrows += np.cos(n_f * theta + phi + beta * r * 2 * np.pi)
    return furrows


# The radial-then-angular passes round in another order than the corner
# terms (measured worst: 3.3e-16 over 2004 random shapes, 8.9e-16 over the
# sheets of seeds 7000-7099); the frame guard below keeps rendered bytes exact.
ORACLE_ATOL = 1e-12


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), nr=st.integers(1, 80), na=st.integers(1, 600),
       lat_r=st.integers(1, 40), lat_a=st.integers(1, 80))
def test_value_noise_equals_the_corner_grid_reference(seed, nr, na, lat_r, lat_a):
    ours = texture._value_noise_polar(np.random.default_rng(seed), nr, na, lat_r, lat_a)
    reference = _ix_value_noise_polar(np.random.default_rng(seed), nr, na, lat_r, lat_a)
    assert ours.shape == (nr, na)
    assert_allclose(ours, reference, rtol=0, atol=ORACLE_ATOL)
    grid = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(lat_r + 1, lat_a))
    product = _matrix(nr, lat_r, lat_r + 1) @ grid @ _matrix(na, lat_a, lat_a).T
    assert_allclose(ours, product, rtol=0, atol=ORACLE_ATOL)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), nr=st.integers(1, 80), na=st.integers(1, 600))
def test_furrows_equal_the_cosine_of_the_summed_angle(seed, nr, na):
    ours = texture._furrows(np.random.default_rng(seed), nr, na)
    reference = _cos_sum_furrows(np.random.default_rng(seed), nr, na)
    assert ours.shape == (nr, na)
    assert_allclose(ours, reference, rtol=0, atol=ORACLE_ATOL)


def test_sheet_equals_one_built_with_the_corner_grid_reference(monkeypatch):
    seeds = (0, 1, 77, 4000, 2**31 - 1)
    sheets = [texture._sheet.__wrapped__(s) for s in seeds]
    monkeypatch.setattr(texture, "_value_noise_polar", _ix_value_noise_polar)
    monkeypatch.setattr(texture, "_furrows", _cos_sum_furrows)
    for s, sheet in zip(seeds, sheets):
        assert_allclose(sheet, texture._sheet.__wrapped__(s), rtol=0, atol=ORACLE_ATOL)


def _matrix(n, lattice, columns):
    """The dense (n x columns) interpolation matrix ``texture._weights`` holds
    as two nonzeros a row."""
    lower, upper, w_lower, w_upper = texture._weights(n, lattice, columns)
    w = np.zeros((n, columns))
    np.add.at(w, (np.arange(n), lower), w_lower)
    np.add.at(w, (np.arange(n), upper), w_upper)
    return w


@pytest.mark.parametrize("n, lattice, columns", [
    (64, 4, 5), (64, 32, 33), (512, 8, 8), (512, 64, 64),  # the sheet's
    (1, 1, 1), (7, 1, 1), (7, 1, 2), (600, 80, 80), (5, 9, 10), (3, 2, 2)])
def test_interpolation_rows_hold_two_smoothstep_weights_that_sum_to_1(n, lattice, columns):
    w = _matrix(n, lattice, columns)
    assert np.all(w >= 0)
    assert np.all(np.count_nonzero(w, axis=1) <= 2)
    assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    for part in texture._weights(n, lattice, columns):
        assert part.shape == (n,) and not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0


def test_last_angular_cell_wraps_onto_column_0():
    w = _matrix(texture.SHEET_ANGULAR, 8, 8)
    # the last point sits 63/64 of a cell past lattice point 7
    assert w[-1, 7] > 0 and w[-1, 0] > 0
    assert w[-1, 7] + w[-1, 0] == pytest.approx(1.0, abs=1e-15)
    # a radial matrix has one column more, and its last point never wraps
    r = _matrix(texture.SHEET_RADIAL, 4, 5)
    assert r[-1, 0] == 0 and r[-1, 3] > 0 and r[-1, 4] > 0


def test_a_one_cell_lattice_puts_each_rows_whole_weight_on_one_column():
    lower, upper, _, _ = texture._weights(9, 1, 1)
    assert not lower.any() and not upper.any()
    assert_allclose(_matrix(9, 1, 1), 1.0, rtol=0, atol=1e-15)
    grid = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 1))
    noise = texture._value_noise_polar(np.random.default_rng(3), 6, 9, 1, 1)
    # one angular lattice point: every column repeats the radial profile
    assert_allclose(noise, np.repeat(noise[:, :1], 9, axis=1), rtol=0, atol=1e-15)
    assert_allclose(noise[0, 0], grid[0, 0], rtol=0, atol=1e-15)


# Sheets stay on the calling thread: the dense product Wr @ grid @ Wa.T
# wakes OpenBLAS's pool, whose threads spin on after each product and
# made a --parallel hd-curve run 3.9 times slower.
ONE_THREAD_PROBE = """
import time
from irissim import texture
texture._sheet.__wrapped__(0)
time.sleep(0.3)  # past the spin of any threads a library started at import
process, own = time.process_time(), time.thread_time()
for seed in range(40):
    texture._sheet.__wrapped__(seed)
own = time.thread_time() - own
print((time.process_time() - process - own) / own)
"""


def test_sheets_are_built_on_the_calling_thread_alone():
    env = {**os.environ, "PYTHONPATH": str(Path(texture.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", ONE_THREAD_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    # other threads' share of the CPU time: 0.00 here, about 1.0 with the product
    assert float(done.stdout) < 0.05


@pytest.fixture
def cold_texture_caches():
    texture._sheet.cache_clear()
    renderer._clean_image.cache_clear()
    yield
    # sheets built under a patch must not outlive it
    texture._sheet.cache_clear()
    renderer._clean_image.cache_clear()


def test_frames_equal_those_rendered_from_corner_grid_sheets(monkeypatch, cold_texture_caches):
    cases = [dict(seed=s, **optics_kw) for s in (0, 1, 77, 4000, 2**31 - 1)
             for optics_kw in (dict(), dict(power=1.0, k_ast=0.2))]
    frames = [frame_at(4000.0, **kw).image for kw in cases]
    monkeypatch.setattr(texture, "_value_noise_polar", _ix_value_noise_polar)
    monkeypatch.setattr(texture, "_furrows", _cos_sum_furrows)
    texture._sheet.cache_clear()
    renderer._clean_image.cache_clear()
    for kw, image in zip(cases, frames):
        assert np.array_equal(image, frame_at(4000.0, **kw).image), kw


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


# integer centres put annulus pixels exactly on the negative x axis (theta
# = pi); a centre an ulp or two past an integer row puts pixels right of it
# at a tiny negative theta, which wraps onto 2 pi (sheet column 0) or, two
# ulps up and nearer the pupil, just short of it (the last column)
@pytest.mark.parametrize("cx, cy", [(120.0, 110.0), (121.0, 97.0), (90.0, 140.0),
                                    (120.0, 110.0 + math.ulp(110.0)),
                                    (97.0, 121.0 + math.ulp(121.0)),
                                    (120.0, 110.0 + 2 * math.ulp(110.0))])
def test_draw_eye_wraps_the_angle_like_the_reference_at_integer_centres(cx, cy):
    args = (4000, 240, 250, cx, cy, 36.0, 90.0)
    assert np.array_equal(_draw_eye(*args), _mgrid_eye(*args))
    rows, cols, ann, index, *_ = renderer._polar_map(*args[1:])
    yy, xx = np.ogrid[rows, cols]
    dy, dx = np.broadcast_arrays(yy - cy, xx - cx)
    theta = np.arctan2(dy[ann], dx[ann])
    if cy.is_integer():
        assert np.any(theta == np.pi)
    else:
        wraps = (theta < 0) & (theta + 2 * np.pi == 2 * np.pi)
        assert np.any(wraps) and np.all(index[wraps] % texture.SHEET_ANGULAR == 0)


def test_polar_map_is_a_read_only_one_entry_cache():
    assert renderer._polar_map.cache_info().maxsize == 1
    geometry = (312, 300, 150.4, 160.7, 48.0, 120.0)
    rows, cols, *masks = renderer._polar_map(*geometry)
    assert renderer._polar_map.cache_info().currsize == 1
    assert (rows, cols) == (slice(*renderer._span(160.7, 120.0, 300)),
                            slice(*renderer._span(150.4, 120.0, 312)))
    for a in masks:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0
    ann, index, pupil, lid = masks
    assert ann.shape == pupil.shape == lid.shape == (rows.stop - rows.start,
                                                     cols.stop - cols.start)
    assert index.shape == (np.count_nonzero(ann),)
    assert 0 <= index.min() and index.max() < texture.SHEET_RADIAL * texture.SHEET_ANGULAR
    renderer._polar_map(312, 300, 150.4, 160.7, 48.0, 121.0)
    assert renderer._polar_map.cache_info().currsize == 1


def test_every_impostor_identity_shares_one_polar_map():
    cfg = config.default_config("hd_curve")
    n = config.impostor_identities(cfg["experiment"]["impostor_pairs"])
    renderer._clean_image.cache_clear()
    renderer._polar_map.cache_clear()
    for i in range(n):
        experiments._impostor_code((cfg, i))
    info = renderer._polar_map.cache_info()
    assert (info.misses, info.hits) == (1, n - 1)


def test_identities_drawn_at_one_geometry_differ_only_inside_the_iris_disk():
    width, height, cx, cy, r_p, r_i = 260, 240, 131.3, 118.6, 36.0, 90.0
    renderer._polar_map.cache_clear()
    first = _draw_eye(1000, width, height, cx, cy, r_p, r_i)
    second = _draw_eye(2000, width, height, cx, cy, r_p, r_i)
    assert renderer._polar_map.cache_info().hits == 1
    yy, xx = np.mgrid[0:height, 0:width]
    inside = np.hypot(yy - cy, xx - cx) < r_i
    differ = first != second
    assert np.any(differ)
    assert not np.any(differ & ~inside)
    assert np.all(first[~inside] == REFLECTANCE_SCLERA)


def test_every_clean_image_miss_looks_up_the_texture_once(monkeypatch):
    # the tracer wraps renderer.iris_texture: its span and unique ratio must
    # count every draw, the ones whose polar map is cached included
    seeds = []

    def counting(identity_seed):
        seeds.append(identity_seed)
        return texture.iris_texture(identity_seed)

    monkeypatch.setattr(renderer, "iris_texture", counting)
    renderer._clean_image.cache_clear()
    renderer._polar_map.cache_clear()
    for seed, nseed in ((4000, 1), (4000, 2), (4001, 1), (4002, 1), (4002, 2), (4000, 3)):
        frame_at(4000.0, seed=seed, nseed=nseed, base_canvas=(0, 0))
    clean = renderer._clean_image.cache_info()
    assert seeds == [4000, 4001, 4002, 4000]
    assert clean.misses == len(seeds)
    assert renderer._polar_map.cache_info().hits == 3


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


def test_the_smear_direction_is_keyed_only_when_the_layout_smears(monkeypatch):
    # render_eye keys the clean image on the eye's smear direction only when
    # _layout runs the smear; with it off the key holds the fixed direction
    eye = (0.0, 3800.0, 0.0)
    pan, tilt = aim_angles(eye)
    kwargs = dict(train=TRAIN, power_dpt=tunable_power_for_focus(TRAIN, 4000.0), pan_deg=pan,
                  tilt_deg=tilt, eye_pos_mm=eye, identity_seed=4000, noise_seed=3,
                  eye_velocity_mmps=(300.0, 0.0, 200.0), base_canvas=(0, 0))
    renderer._clean_image.cache_clear()
    frame, args = _render_recording_geometry(**kwargs)
    assert frame.motion_px > 1.0 and args[-1] != (1.0, 0.0)
    real = renderer._layout
    monkeypatch.setattr(renderer, "_layout", lambda *a: real(*a[:-1], 0.0))  # no smear
    frame, args = _render_recording_geometry(**kwargs)
    assert frame.motion_px > 1.0 and args[-1] == (1.0, 0.0)


@pytest.mark.parametrize("distances", [(6500.0, 3600.0), (3600.0, 6500.0)])
def test_warm_stream_exposures_equal_the_whole_canvas_reference(distances):
    # one noise seed on a small and a large tight crop: the second exposure
    # slices (or extends) the stream the first one drew
    renderer._noise_stream.cache_clear()
    sizes = []
    for d in distances:
        eye = (0.0, d - 200.0, 0.0)
        pan, tilt = aim_angles(eye)
        frame, args = _render_recording_geometry(
            train=TRAIN, power_dpt=tunable_power_for_focus(TRAIN, d) + 0.15,
            pan_deg=pan, tilt_deg=tilt, eye_pos_mm=eye, identity_seed=4000,
            noise_seed=77, k_ast=0.2, base_canvas=(0, 0))
        sizes.append(frame.image.size)
        assert np.array_equal(frame.image, _parent_exposure(*args, 77))
    assert sizes[0] != sizes[1]
    info = renderer._noise_stream.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# requests of up to 8 seeds against a bound of 5: misses, evictions, prefixes
# and extensions of a held stream
noise_requests = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3000)),
                          min_size=1, max_size=30)


@settings(max_examples=60)
@given(requests=noise_requests)
@example(requests=[(3, 10), (3, 4), (3, 2500), (3, 2500), (3, 0)])
def test_read_noise_equals_a_fresh_draw(requests):
    renderer._noise_stream.cache_clear()
    for seed, n in requests:
        z = renderer.read_noise(seed, n)
        fresh = np.random.default_rng((seed, 0x4652414D)).standard_normal(n)
        assert z.dtype == np.float64 and z.shape == (n,)
        assert np.array_equal(z, fresh)
        assert not z.flags.writeable
        assert renderer._noise_stream.cache_info().currsize <= renderer._NOISE_STREAMS


def test_read_noise_holds_a_bounded_stream_per_python_int_seed():
    # every sweep cell exposes its repeats back to back, one stream each
    for kind in ("dof_extension", "hd_curve"):
        assert renderer._NOISE_STREAMS >= config.default_config(kind)["experiment"]["repeats"]
    assert renderer._noise_stream.cache_info().maxsize == renderer._NOISE_STREAMS
    renderer._noise_stream.cache_clear()
    z = renderer.read_noise(np.int64(5), 100)
    assert np.shares_memory(z, renderer.read_noise(5, 50))
    info = renderer._noise_stream.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


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


@pytest.mark.parametrize("base_canvas", [(0, 0), (480, 640)], ids=["tight", "640x480"])
def test_render_side_is_the_largest_array_a_render_builds(monkeypatch, base_canvas):
    # the side render_eye checks is the canvas or the largest transform
    # fftconvolve makes of an edge-padded window, whichever is wider
    sides, built = [], []
    real_check, real_convolve = renderer._check_side, renderer.fftconvolve

    def check(side, *args):
        sides.append(side)
        return real_check(side, *args)

    def convolve(img, kernel):
        n = kernel.shape[0]
        built.extend(renderer._pocketfft.good_size(s + n - 1, True) for s in img.shape)
        return real_convolve(img, kernel)

    monkeypatch.setattr(renderer, "_check_side", check)
    monkeypatch.setattr(renderer, "fftconvolve", convolve)
    stages = set()
    for d, defocus, k_ast, speed in itertools.product(
            (2000.0, 4000.0, 9000.0), (-0.5, 0.0, 1.0), (0.0, 0.2), (0.0, 800.0)):
        renderer._clean_image.cache_clear()
        built.clear()
        frame = frame_at(d, power=tunable_power_for_focus(TRAIN, d) + defocus, k_ast=k_ast,
                         eye_velocity_mmps=(speed, 0.0, 0.0), base_canvas=base_canvas)
        assert max(built + list(frame.image.shape)) == sides[-1]
        stages |= {name for name, on in (("disk", frame.blur_px > 0.05),
                                         ("astig", frame.astig_sigma_px > 0.05),
                                         ("smear", frame.motion_px > 0.5),
                                         ("transform past the canvas",
                                          max(built, default=0) > max(frame.image.shape)))
                   if on}
    assert stages == {"disk", "astig", "smear", "transform past the canvas"}


def test_a_render_wider_than_the_sensor_raises_before_it_allocates(monkeypatch):
    def allocates(*args):
        raise AssertionError("the render built a kernel or a window")

    monkeypatch.setattr(renderer, "disk_kernel", allocates)
    monkeypatch.setattr(renderer, "_draw_eye", allocates)
    renderer._clean_image.cache_clear()
    cfg = {"version": 1, "experiment": {"kind": "dof_extension"}, "train": {"n_stop": 0.5}}
    train = config.rig_from_config(config.validate_config(cfg), 5000.0).train
    with pytest.raises(RenderTooWide) as err:
        calibration.probe_frame(train, 3400.0, 0.0)
    assert str(err.value).startswith("line of sight 3400 mm with the train focused at 5000 mm ")
    assert str(err.value).endswith(", a 9600 px crop wider than the 4080 px sensor")
