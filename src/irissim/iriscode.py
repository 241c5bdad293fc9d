"""Segmentation, normalization, encoding and matching.

The pipeline is the classic one: find pupil and limbus circles, unwrap the
annulus to a fixed polar sheet, filter each row with a 1-D log-Gabor and
keep the two phase sign bits per sample.  Comparison is masked Hamming
distance minimized over a small angular shift budget, which absorbs head
roll between captures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft
from scipy.ndimage import gaussian_filter1d

from .renderer import Frame

SHEET_ROWS = 16
SHEET_COLS = 256
CODE_ROWS = 8
CODE_COLS = 128  # samples per row; two bits each

LOG_GABOR_F0 = 14.0      # cycles per unwrapped row
LOG_GABOR_SIGMA = 0.55   # sigma as a ratio of f0
_LOW_CONTRAST = 0.03     # of row RMS response; bits below are masked

SHIFT_BUDGET = 8         # +- columns of allowed rotation
MATCH_THRESHOLD = 0.32

_LID_HALF_WIDTH = 0.18   # of pi, angular half width of the masked lid band

# enrolment floor: an in-focus iris gives detect_circles 50 pupil pixels from 20.6 px
MIN_PX_TO_DETECT = 24.0

_MAGIC = b"IC"
_VERSION = 1
_HEADER = struct.Struct("<2sBBHHBB6x")  # magic, version, flags, rows, cols, bpc, shifts
assert _HEADER.size == 16


class SegmentationError(Exception):
    """No credible pupil in the frame."""


@dataclass(frozen=True)
class IrisCode:
    bits: np.ndarray  # uint8 (CODE_ROWS, 2 * CODE_COLS), re/im interleaved
    mask: np.ndarray  # uint8, same shape, 1 = usable


def detect_circles(image: np.ndarray) -> tuple[float, float, float, float]:
    """Locate pupil and limbus from the image alone.

    Pupil: centroid and area of the dark blob.  Limbus: the radius where
    the ring-averaged brightness climbs fastest from iris to sclera,
    sampled over the lower sector so the lid cannot vote.
    """
    dark = image < 40
    n_dark = int(dark.sum())
    if n_dark < 50:
        raise SegmentationError("no pupil-dark region found")
    ys, xs = np.nonzero(dark)
    cx = float(xs.mean())
    cy = float(ys.mean())
    r_p = float(np.sqrt(n_dark / np.pi))

    radii = np.arange(1.5 * r_p, 4.0 * r_p, 1.0)
    angles = np.deg2rad(np.arange(20, 161, 2))  # downward sector, clear of the lid
    ca, sa = np.cos(angles), np.sin(angles)
    h, w = image.shape
    x = np.clip((cx + radii[:, None] * ca).astype(int), 0, w - 1)
    y = np.clip((cy + radii[:, None] * sa).astype(int), 0, h - 1)
    profile = image[y, x].astype(float).mean(axis=1)  # one ring per radius
    profile = gaussian_filter1d(profile, 2.0, mode="nearest")
    grad = np.gradient(profile)
    k = int(np.argmax(grad))
    # parabolic refinement of the gradient peak
    if 0 < k < grad.size - 1:
        denom = grad[k - 1] - 2 * grad[k] + grad[k + 1]
        if abs(denom) > 1e-12:
            k = k + 0.5 * (grad[k - 1] - grad[k + 1]) / denom
    r_i = float(np.interp(k, np.arange(radii.size), radii))
    return cx, cy, r_p, r_i


def unroll(image: np.ndarray, cx: float, cy: float, r_p: float, r_i: float):
    """Rubber-sheet the annulus to SHEET_ROWS x SHEET_COLS, lid band masked."""
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
    # y grows downward, so the lid band sits around angle 3*pi/2
    lid = (angs > np.pi * (1.5 - _LID_HALF_WIDTH)) & (angs < np.pi * (1.5 + _LID_HALF_WIDTH))
    mask[:, lid] = False
    return sheet, mask


def _log_gabor_row(row: np.ndarray) -> np.ndarray:
    n = row.size
    f = np.fft.fftfreq(n) * n
    gain = np.zeros(n)
    pos = f > 0
    gain[pos] = np.exp(-(np.log(f[pos] / LOG_GABOR_F0)) ** 2
                       / (2 * np.log(LOG_GABOR_SIGMA) ** 2))
    spec = fft(row - row.mean())
    return ifft(spec * gain)  # one-sided spectrum -> analytic signal


def encode_sheet(sheet: np.ndarray, mask: np.ndarray) -> IrisCode:
    nr, na = sheet.shape
    rstep = nr // CODE_ROWS
    astep = na // CODE_COLS
    bits = np.zeros((CODE_ROWS, CODE_COLS, 2), np.uint8)
    keep = np.zeros((CODE_ROWS, CODE_COLS), np.uint8)
    for i in range(CODE_ROWS):
        band = sheet[i * rstep:(i + 1) * rstep].mean(axis=0)
        resp = _log_gabor_row(band)
        rms = np.sqrt(np.mean(np.abs(resp) ** 2)) + 1e-12
        sub = resp[::astep][:CODE_COLS]
        bits[i, :, 0] = sub.real > 0
        bits[i, :, 1] = sub.imag > 0
        angular_ok = mask[i * rstep][::astep][:CODE_COLS]
        keep[i] = angular_ok & (np.abs(sub) > _LOW_CONTRAST * rms)
    return IrisCode(bits=bits.reshape(CODE_ROWS, 2 * CODE_COLS),
                    mask=np.repeat(keep, 2, axis=1))


def encode_frame(frame: Frame, circles: str = "truth") -> IrisCode:
    if circles == "truth":
        cx, cy, r_p, r_i = frame.cx, frame.cy, frame.r_pupil_px, frame.r_iris_px
    elif circles == "detect":
        cx, cy, r_p, r_i = detect_circles(frame.image)
    else:
        raise ValueError(f"unknown circle source {circles!r}")
    sheet, mask = unroll(frame.image, cx, cy, r_p, r_i)
    return encode_sheet(sheet, mask)


def hamming_distance(a: IrisCode, b: IrisCode) -> float:
    """Masked fractional HD, minimized over +-SHIFT_BUDGET angular shifts.

    1.0 when the masks never overlap: nothing comparable is maximally
    distant for gating purposes.
    """
    best = 1.0
    am = a.mask.astype(bool)
    for s in range(-SHIFT_BUDGET, SHIFT_BUDGET + 1):
        bb = np.roll(b.bits, 2 * s, axis=1)
        bm = np.roll(b.mask, 2 * s, axis=1)
        overlap = am & bm.astype(bool)
        n = int(overlap.sum())
        if n == 0:
            continue
        hd = float(np.count_nonzero(a.bits[overlap] != bb[overlap]) / n)
        best = min(best, hd)
    return best


def to_bytes(code: IrisCode) -> bytes:
    head = _HEADER.pack(_MAGIC, _VERSION, 0, CODE_ROWS, 2 * CODE_COLS, 2, SHIFT_BUDGET)
    body = np.packbits(code.bits, bitorder="little").tobytes()
    mask = np.packbits(code.mask, bitorder="little").tobytes()
    return head + body + mask


def from_bytes(blob: bytes) -> IrisCode:
    """Inverse of to_bytes; anything but a header plus two bit planes raises."""
    if len(blob) < _HEADER.size:
        raise ValueError("not an iris code blob: shorter than its header")
    magic, version, _flags, rows, cols, bpc, _shifts = _HEADER.unpack_from(blob)
    if magic != _MAGIC or version != _VERSION or bpc != 2:
        raise ValueError("not an iris code blob")
    n = rows * cols
    nbytes = (n + 7) // 8
    off = _HEADER.size
    if len(blob) != off + 2 * nbytes:
        raise ValueError(f"not an iris code blob: {len(blob)} bytes, want {off + 2 * nbytes}")
    bits = np.unpackbits(np.frombuffer(blob, np.uint8, nbytes, off),
                         bitorder="little")[:n].reshape(rows, cols)
    mask = np.unpackbits(np.frombuffer(blob, np.uint8, nbytes, off + nbytes),
                         bitorder="little")[:n].reshape(rows, cols)
    return IrisCode(bits=bits.astype(np.uint8), mask=mask.astype(np.uint8))
