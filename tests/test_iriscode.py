import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.fft import fft, ifft
from scipy.ndimage import gaussian_filter1d

from irissim.iriscode import (
    CODE_COLS,
    CODE_ROWS,
    LOG_GABOR_F0,
    LOG_GABOR_SIGMA,
    MATCH_THRESHOLD,
    SHEET_COLS,
    SHEET_ROWS,
    SHIFT_BUDGET,
    IrisCode,
    SegmentationError,
    detect_circles,
    encode_frame,
    encode_sheet,
    from_bytes,
    hamming_distance,
    to_bytes,
    unroll,
)
from irissim.optics import OpticalTrain, tunable_power_for_focus
from irissim.renderer import render_eye
from irissim.scene import aim_angles

TRAIN = OpticalTrain()


def frame_at(d_los, seed, nseed, power=None):
    eye = (0.0, d_los - 200.0, 0.0)
    pan, tilt = aim_angles(eye)
    if power is None:
        power = tunable_power_for_focus(TRAIN, d_los)
    return render_eye(TRAIN, power_dpt=power, pan_deg=pan, tilt_deg=tilt,
                      eye_pos_mm=eye, identity_seed=seed, noise_seed=nseed,
                      k_ast=0.0)


def test_impostor_distances_cluster_near_half():
    hds = []
    for k in range(12):
        a = encode_frame(frame_at(5000.0, 1000 + k, 5))
        b = encode_frame(frame_at(5000.0, 2000 + k, 6))
        hds.append(hamming_distance(a, b))
    hds = np.asarray(hds)
    assert 0.40 <= hds.mean() <= 0.50
    assert hds.min() > 0.35


def test_genuine_distances_stay_low_across_range():
    enroll = encode_frame(frame_at(5000.0, 7000, 0))
    for d in (3800.0, 5000.0, 6500.0, 7700.0):
        probe = encode_frame(frame_at(d, 7000, 31))
        assert hamming_distance(enroll, probe) < 0.10


def test_match_decision():
    a = encode_frame(frame_at(5000.0, 7000, 0))
    b = encode_frame(frame_at(5000.0, 7000, 1))
    c = encode_frame(frame_at(5000.0, 8000, 2))
    assert hamming_distance(a, b) < MATCH_THRESHOLD
    assert not hamming_distance(a, c) < MATCH_THRESHOLD
    assert 0.0 < MATCH_THRESHOLD < 0.5


def test_hamming_distance_is_symmetric():
    a = encode_frame(frame_at(5000.0, 7000, 0))
    b = encode_frame(frame_at(6000.0, 7000, 3))
    assert hamming_distance(a, b) == pytest.approx(hamming_distance(b, a))


def test_angular_shift_is_absorbed():
    a = encode_frame(frame_at(5000.0, 7000, 0))
    rolled = type(a)(bits=np.roll(a.bits, 6, axis=1), mask=np.roll(a.mask, 6, axis=1))
    assert hamming_distance(a, rolled) == 0.0


def test_disjoint_masks_give_unit_distance():
    a = encode_frame(frame_at(5000.0, 7000, 0))
    empty = type(a)(bits=a.bits, mask=np.zeros_like(a.mask))
    assert hamming_distance(a, empty) == 1.0


def test_mask_blanks_the_lid_band():
    code = encode_frame(frame_at(5000.0, 7000, 0))
    frac = code.mask.mean()
    assert 0.55 < frac < 0.90
    lid_cols = np.repeat(~_LID_MASK[0, ::2], 2)
    assert 0 < lid_cols.mean() < 0.25
    assert not code.mask[:, lid_cols].any()


def test_detect_circles_match_ground_truth():
    for d in (3800.0, 5000.0, 7700.0):
        f = frame_at(d, 7000, 13)
        cx, cy, r_p, r_i = detect_circles(f.image)
        assert abs(cx - f.cx) < 0.5
        assert abs(cy - f.cy) < 0.5
        assert abs(r_p - f.r_pupil_px) < 1.0
        assert abs(r_i - f.r_iris_px) < 1.5


def _loop_detect_circles(image):
    """Reference: the whole frame scanned for dark pixels, the limbus profile
    sampled one radius at a time."""
    dark = image < 40
    n_dark = int(dark.sum())
    if n_dark < 50:
        raise SegmentationError("no pupil-dark region found")
    ys, xs = np.nonzero(dark)
    cx, cy = float(xs.mean()), float(ys.mean())
    r_p = float(np.sqrt(n_dark / np.pi))
    radii = np.arange(1.5 * r_p, 4.0 * r_p, 1.0)
    angles = np.deg2rad(np.arange(20, 161, 2))
    ca, sa = np.cos(angles), np.sin(angles)
    h, w = image.shape
    im = image.astype(float)
    profile = np.empty(radii.size)
    for i, r in enumerate(radii):
        x = np.clip((cx + r * ca).astype(int), 0, w - 1)
        y = np.clip((cy + r * sa).astype(int), 0, h - 1)
        profile[i] = im[y, x].mean()
    grad = np.gradient(gaussian_filter1d(profile, 2.0, mode="nearest"))
    k = int(np.argmax(grad))
    if 0 < k < grad.size - 1:
        denom = grad[k - 1] - 2 * grad[k] + grad[k + 1]
        if abs(denom) > 1e-12:
            k = k + 0.5 * (grad[k - 1] - grad[k + 1]) / denom
    return cx, cy, r_p, float(np.interp(k, np.arange(radii.size), radii))


@pytest.mark.parametrize("d_los, power_offset", [
    (3800.0, 0.0), (5000.0, 0.0), (7700.0, 0.0), (5000.0, 0.3), (2000.0, 0.0)])
def test_detect_circles_equals_the_per_radius_reference(d_los, power_offset):
    # full 640x480 frames, sharp and defocused; at 2 m the outer rings leave the frame
    power = tunable_power_for_focus(TRAIN, d_los) + power_offset
    image = frame_at(d_los, 7000, 13, power=power).image
    assert image.shape == (480, 640)
    assert detect_circles(image) == _loop_detect_circles(image)


@st.composite
def _dark_frames(draw):
    """A uint8 frame of bright noise with dark pixels: one blob, two disjoint
    blobs (one in each half), or exactly 0, 49 or 50 scattered ones."""
    h, w = draw(st.integers(8, 96)), draw(st.integers(8, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    image = rng.integers(40, 256, (h, w), dtype=np.uint8)
    layout = draw(st.sampled_from(["blob", "two blobs", "count"]))
    if layout == "count":
        n = draw(st.sampled_from([0, 49, 50]))
        image.flat[rng.choice(h * w, n, replace=False)] = rng.integers(0, 40, n)
        return image
    halves = [(0, w)] if layout == "blob" else [(0, w // 2), (w // 2 + 1, w)]
    for left, right in halves:
        # each end lies on the frame's edge, or anywhere inside
        y0, y1 = sorted(draw(st.sampled_from([0, h]) | st.integers(0, h)) for _ in range(2))
        x0, x1 = sorted(draw(st.sampled_from([left, right]) | st.integers(left, right))
                        for _ in range(2))
        image[y0:y1, x0:x1] = rng.integers(0, 40, (y1 - y0, x1 - x0))
    return image


@settings(max_examples=200)
@given(image=_dark_frames())
# a 10x10 blob in each corner of a 640x480 frame
@example(image=np.pad(np.zeros((10, 10), np.uint8), ((0, 470), (0, 630)), constant_values=200))
@example(image=np.pad(np.zeros((10, 10), np.uint8), ((470, 0), (630, 0)), constant_values=200))
@example(image=np.pad(np.zeros((10, 10), np.uint8), ((0, 470), (630, 0)), constant_values=200))
@example(image=np.pad(np.zeros((10, 10), np.uint8), ((470, 0), (0, 630)), constant_values=200))
def test_dark_box_scan_equals_the_whole_frame_scan(image):
    try:
        expected = _loop_detect_circles(image)
    except SegmentationError:
        with pytest.raises(SegmentationError):
            detect_circles(image)
        return
    assert detect_circles(image) == expected


def test_detect_mode_encoding_still_matches():
    enroll = encode_frame(frame_at(5000.0, 7000, 0))
    probe = encode_frame(frame_at(6500.0, 7000, 17), circles="detect")
    assert hamming_distance(enroll, probe) < 0.10


def test_detect_raises_without_pupil():
    with pytest.raises(SegmentationError):
        detect_circles(np.full((480, 640), 200, np.uint8))


def test_unknown_circle_source_rejected():
    with pytest.raises(ValueError):
        encode_frame(frame_at(5000.0, 7000, 0), circles="guess")


def test_unroll_shapes():
    f = frame_at(5000.0, 7000, 0)
    sheet = unroll(f.image, f.cx, f.cy, f.r_pupil_px, f.r_iris_px)
    assert sheet.shape == (16, 256)
    assert sheet.dtype == float


def _cast_unroll(image, cx, cy, r_p, r_i):
    """Reference: the whole image cast to float, the lid mask returned beside the sheet."""
    nr, na = SHEET_ROWS, SHEET_COLS
    rads = (np.arange(nr) + 0.5) / nr
    angs = 2 * np.pi * np.arange(na) / na
    r = r_p + rads[:, None] * (r_i - r_p)
    x = cx + r * np.cos(angs)[None, :]
    y = cy + r * np.sin(angs)[None, :]
    x0 = np.clip(x.astype(int), 0, image.shape[1] - 2)
    y0 = np.clip(y.astype(int), 0, image.shape[0] - 2)
    fx = x - x0
    fy = y - y0
    im = image.astype(float)
    sheet = (im[y0, x0] * (1 - fx) * (1 - fy) + im[y0, x0 + 1] * fx * (1 - fy)
             + im[y0 + 1, x0] * (1 - fx) * fy + im[y0 + 1, x0 + 1] * fx * fy)
    mask = np.ones((nr, na), bool)
    lid = (angs > np.pi * (1.5 - 0.18)) & (angs < np.pi * (1.5 + 0.18))
    mask[:, lid] = False
    return sheet, mask


_LID_MASK = _cast_unroll(np.zeros((2, 2), np.uint8), 0.0, 0.0, 0.0, 0.0)[1]


def _log_gabor_row(row):
    n = row.size
    f = np.fft.fftfreq(n) * n
    gain = np.zeros(n)
    pos = f > 0
    gain[pos] = np.exp(-(np.log(f[pos] / LOG_GABOR_F0)) ** 2
                       / (2 * np.log(LOG_GABOR_SIGMA) ** 2))
    return ifft(fft(row - row.mean()) * gain)


def _row_encode_sheet(sheet, mask):
    """Reference: one log-Gabor filter per band, the angular mask read from the sheet mask."""
    rstep = sheet.shape[0] // CODE_ROWS
    astep = sheet.shape[1] // CODE_COLS
    bits = np.zeros((CODE_ROWS, CODE_COLS, 2), np.uint8)
    keep = np.zeros((CODE_ROWS, CODE_COLS), np.uint8)
    for i in range(CODE_ROWS):
        band = sheet[i * rstep:(i + 1) * rstep].mean(axis=0)
        resp = _log_gabor_row(band)
        rms = np.sqrt(np.mean(np.abs(resp) ** 2)) + 1e-12
        sub = resp[::astep][:CODE_COLS]
        bits[i, :, 0] = sub.real > 0
        bits[i, :, 1] = sub.imag > 0
        keep[i] = mask[i * rstep][::astep][:CODE_COLS] & (np.abs(sub) > 0.03 * rms)
    return IrisCode(bits=bits.reshape(CODE_ROWS, 2 * CODE_COLS),
                    mask=np.repeat(keep, 2, axis=1))


def _roll_hamming_distance(a, b):
    """Reference: one pair of np.roll per shift."""
    best = 1.0
    am = a.mask.astype(bool)
    for s in range(-SHIFT_BUDGET, SHIFT_BUDGET + 1):
        bb = np.roll(b.bits, 2 * s, axis=1)
        bm = np.roll(b.mask, 2 * s, axis=1)
        overlap = am & bm.astype(bool)
        n = int(overlap.sum())
        if n == 0:
            continue
        best = min(best, float(np.count_nonzero(a.bits[overlap] != bb[overlap]) / n))
    return best


def _assert_same_code(got, want):
    for name in ("bits", "mask"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype == np.uint8 and g.shape == w.shape
        assert np.array_equal(g, w), name


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 60), w=st.integers(2, 80),
       u=st.floats(-0.5, 1.5), v=st.floats(-0.5, 1.5),
       r_p=st.floats(0.0, 30.0), dr=st.floats(0.0, 60.0))
@example(seed=0, h=2, w=2, u=0.0, v=0.0, r_p=0.0, dr=0.0)
@example(seed=1, h=48, w=64, u=1.0, v=1.0, r_p=5.0, dr=20.0)
@example(seed=2, h=48, w=64, u=-0.5, v=1.5, r_p=30.0, dr=60.0)
def test_unroll_equals_the_whole_image_cast_reference(seed, h, w, u, v, r_p, dr):
    # centres from past one edge to past the other; u = 0 and 1 sit on the edge pixels
    image = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    cx, cy = u * (w - 1), v * (h - 1)
    sheet = unroll(image, cx, cy, r_p, r_p + dr)
    assert np.array_equal(sheet, _cast_unroll(image, cx, cy, r_p, r_p + dr)[0])


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1),
       amplitude=st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 1.0, 255.0]),
       offset=st.floats(0.0, 255.0), dead_bands=st.sets(st.integers(0, CODE_ROWS - 1)))
@example(seed=0, amplitude=0.0, offset=0.0, dead_bands=set())
def test_encode_sheet_equals_the_per_band_reference(seed, amplitude, offset, dead_bands):
    # zero and tiny amplitudes put the response at or under the low-contrast floor,
    # whose rms carries a 1e-12 guard; a flat band filters to zero, fully masked
    sheet = offset + amplitude * np.random.default_rng(seed).random((SHEET_ROWS, SHEET_COLS))
    for i in dead_bands:
        sheet[2 * i:2 * i + 2] = offset
    code = encode_sheet(sheet)
    _assert_same_code(code, _row_encode_sheet(sheet, _LID_MASK))
    assert not code.mask[sorted(dead_bands)].any()


@pytest.mark.parametrize("d_los, circles", [
    (3800.0, "truth"), (5000.0, "truth"), (7700.0, "truth"), (6500.0, "detect")])
def test_encode_frame_equals_the_reference_pipeline(d_los, circles):
    f = frame_at(d_los, 7000, 17)
    cx, cy, r_p, r_i = ((f.cx, f.cy, f.r_pupil_px, f.r_iris_px) if circles == "truth"
                        else detect_circles(f.image))
    sheet, mask = _cast_unroll(f.image, cx, cy, r_p, r_i)
    assert np.array_equal(unroll(f.image, cx, cy, r_p, r_i), sheet)
    _assert_same_code(encode_frame(f, circles=circles), _row_encode_sheet(sheet, mask))


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0),
       dead_rows=st.sets(st.integers(0, CODE_ROWS - 1)),
       relation=st.sampled_from(["independent", "rolled", "disjoint"]),
       shift=st.integers(-SHIFT_BUDGET - 2, SHIFT_BUDGET + 2), flips=st.floats(0.0, 0.3))
def test_hamming_distance_equals_the_per_shift_roll_reference(
        seed, density, dead_rows, relation, shift, flips):
    rng = np.random.default_rng(seed)
    shape = (CODE_ROWS, 2 * CODE_COLS)
    bits = rng.integers(0, 2, (2, *shape), dtype=np.uint8)
    mask = (rng.random((2, *shape)) < density).astype(np.uint8)
    mask[:, sorted(dead_rows)] = 0
    if relation == "rolled":
        # a noisy copy of a, rotated by up to one step past the shift budget
        bits[1] = np.roll(bits[0], 2 * shift, axis=1) ^ (rng.random(shape) < flips)
    elif relation == "disjoint":
        # masks on different rows overlap at no shift
        mask[0, CODE_ROWS // 2:] = 0
        mask[1, :CODE_ROWS // 2] = 0
    a, b = IrisCode(bits[0], mask[0]), IrisCode(bits[1], mask[1])
    hd = hamming_distance(a, b)
    assert hd == _roll_hamming_distance(a, b)
    if relation == "disjoint" or len(dead_rows) == CODE_ROWS:
        assert hd == 1.0


def test_serialization_roundtrip():
    code = encode_frame(frame_at(5000.0, 7000, 0))
    blob = to_bytes(code)
    assert len(blob) == 16 + 2 * (8 * 256 // 8)
    assert blob[:2] == b"IC"
    back = from_bytes(blob)
    assert np.array_equal(back.bits, code.bits)
    assert np.array_equal(back.mask, code.mask)
    assert hamming_distance(code, back) == 0.0


def test_bad_blob_rejected():
    good = to_bytes(encode_frame(frame_at(5000.0, 7000, 0)))
    # wrong magic, shorter than the header, truncated body, trailing bytes
    bad = [b"XY" + good[2:], good[:10], good[:-1], good + b"\0"]
    # self-consistent headers of another geometry: one row, half the columns,
    # another shift budget
    for rows, cols, shifts in ((1, 256, 8), (8, 128, 8), (8, 256, 4)):
        head = struct.pack("<2sBBHHBB6x", b"IC", 1, 0, rows, cols, 2, shifts)
        bad.append(head + good[16:16 + 2 * ((rows * cols + 7) // 8)])
    for blob in bad:
        with pytest.raises(ValueError, match="not an iris code blob"):
            from_bytes(blob)
