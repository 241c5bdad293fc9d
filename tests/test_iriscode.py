import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from irissim.iriscode import (
    MATCH_THRESHOLD,
    SegmentationError,
    detect_circles,
    encode_frame,
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


def test_detect_circles_match_ground_truth():
    for d in (3800.0, 5000.0, 7700.0):
        f = frame_at(d, 7000, 13)
        cx, cy, r_p, r_i = detect_circles(f.image)
        assert abs(cx - f.cx) < 0.5
        assert abs(cy - f.cy) < 0.5
        assert abs(r_p - f.r_pupil_px) < 1.0
        assert abs(r_i - f.r_iris_px) < 1.5


def _loop_detect_circles(image):
    """Reference: the limbus profile sampled one radius at a time."""
    dark = image < 40
    n_dark = int(dark.sum())
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
    sheet, mask = unroll(f.image, f.cx, f.cy, f.r_pupil_px, f.r_iris_px)
    assert sheet.shape == (16, 256)
    assert mask.shape == (16, 256)
    assert mask.dtype == bool


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
    for blob in (b"XY" + good[2:], good[:10], good[:-1], good + b"\0"):
        with pytest.raises(ValueError, match="not an iris code blob"):
            from_bytes(blob)
