"""Segmentation, normalization, encoding and matching.

The pipeline is the classic one: find pupil and limbus circles, unwrap the
annulus to a fixed polar sheet, filter each row with a 1-D log-Gabor and
keep the two phase sign bits per sample.  Comparison is masked Hamming
distance minimized over a small angular shift budget, which absorbs head
roll between captures.

Every code has one shape, so the sheet's sampling grid, the lid columns,
the filter gain and the shift index are fixed at import; each call does
only its per-frame work, on whole arrays.  Detection thresholds the frame
once and lists the pupil's pixels from the box of rows and columns that
hold dark ones, not from the whole frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from .renderer import Frame, gaussian_filter

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
_GEOMETRY = (CODE_ROWS, 2 * CODE_COLS, 2, SHIFT_BUDGET)  # rows, cols, bpc, shifts

# downward sector of the limbus rings, clear of the lid
_RING_ANGLES = np.deg2rad(np.arange(20, 161, 2))
_RING_COS, _RING_SIN = np.cos(_RING_ANGLES), np.sin(_RING_ANGLES)

_SHEET_RADII = (np.arange(SHEET_ROWS) + 0.5) / SHEET_ROWS
_SHEET_ANGLES = 2 * np.pi * np.arange(SHEET_COLS) / SHEET_COLS
_SHEET_COS, _SHEET_SIN = np.cos(_SHEET_ANGLES), np.sin(_SHEET_ANGLES)
# y grows downward, so the lid band sits around angle 3*pi/2
_LID = ((_SHEET_ANGLES > np.pi * (1.5 - _LID_HALF_WIDTH))
        & (_SHEET_ANGLES < np.pi * (1.5 + _LID_HALF_WIDTH)))
_CODE_STEP = SHEET_COLS // CODE_COLS
_CODE_OPEN = ~_LID[::_CODE_STEP]  # code columns clear of the lid

# one-sided log-Gabor gain: filtering a band gives its analytic signal
_FREQ = np.fft.fftfreq(SHEET_COLS) * SHEET_COLS
_GAIN = np.zeros(SHEET_COLS)
_GAIN[_FREQ > 0] = np.exp(-(np.log(_FREQ[_FREQ > 0] / LOG_GABOR_F0)) ** 2
                          / (2 * np.log(LOG_GABOR_SIGMA) ** 2))

# bits[:, _SHIFT_INDEX[k]] is np.roll(bits, 2 * _SHIFTS[k], axis=1)
_SHIFTS = np.arange(-SHIFT_BUDGET, SHIFT_BUDGET + 1)
_SHIFT_INDEX = (np.arange(2 * CODE_COLS) - 2 * _SHIFTS[:, None]) % (2 * CODE_COLS)


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
    sampled over the lower sector so the lid cannot vote.  The dark pixels
    are listed from the box that holds them, the rows with any and then,
    within those, the columns with any: the same indices, in the same
    order, as a scan of the whole frame.
    """
    dark = image < 40
    rows = np.flatnonzero(dark.any(axis=1))
    if rows.size == 0:
        raise SegmentationError("no pupil-dark region found")
    slab = dark[rows[0]:rows[-1] + 1]
    cols = np.flatnonzero(slab.any(axis=0))
    ys, xs = np.nonzero(slab[:, cols[0]:cols[-1] + 1])
    n_dark = ys.size
    if n_dark < 50:
        raise SegmentationError("no pupil-dark region found")
    ys += rows[0]
    xs += cols[0]
    cx = float(xs.mean())
    cy = float(ys.mean())
    r_p = float(np.sqrt(n_dark / np.pi))

    radii = np.arange(1.5 * r_p, 4.0 * r_p, 1.0)
    h, w = image.shape
    x = np.clip((cx + radii[:, None] * _RING_COS).astype(int), 0, w - 1)
    y = np.clip((cy + radii[:, None] * _RING_SIN).astype(int), 0, h - 1)
    profile = image[y, x].astype(float).mean(axis=1)  # one ring per radius
    profile = gaussian_filter(profile, 2.0)
    grad = np.gradient(profile)
    k = int(np.argmax(grad))
    # parabolic refinement of the gradient peak
    if 0 < k < grad.size - 1:
        denom = grad[k - 1] - 2 * grad[k] + grad[k + 1]
        if abs(denom) > 1e-12:
            k = k + 0.5 * (grad[k - 1] - grad[k + 1]) / denom
    r_i = float(np.interp(k, np.arange(radii.size), radii))
    return cx, cy, r_p, r_i


def unroll(image: np.ndarray, cx: float, cy: float, r_p: float, r_i: float) -> np.ndarray:
    """Rubber-sheet the annulus to SHEET_ROWS x SHEET_COLS, bilinear in the image."""
    r = r_p + _SHEET_RADII[:, None] * (r_i - r_p)
    x = cx + r * _SHEET_COS[None, :]
    y = cy + r * _SHEET_SIN[None, :]
    x0 = np.clip(x.astype(int), 0, image.shape[1] - 2)
    y0 = np.clip(y.astype(int), 0, image.shape[0] - 2)
    fx = x - x0
    fy = y - y0
    # cast only the four gathered taps, not the whole frame
    p00, p01, p10, p11 = (image[y0 + dy, x0 + dx].astype(float)
                          for dy in (0, 1) for dx in (0, 1))
    return (p00 * (1 - fx) * (1 - fy) + p01 * fx * (1 - fy)
            + p10 * (1 - fx) * fy + p11 * fx * fy)


def encode_sheet(sheet: np.ndarray) -> IrisCode:
    """Filter the CODE_ROWS bands of a sheet at once; the lid columns stay masked."""
    bands = sheet.reshape(CODE_ROWS, -1, SHEET_COLS).mean(axis=1)
    spec = fft(bands - bands.mean(axis=1, keepdims=True), axis=1)
    resp = ifft(spec * _GAIN, axis=1)
    rms = np.sqrt(np.mean(np.abs(resp) ** 2, axis=1, keepdims=True)) + 1e-12
    sub = resp[:, ::_CODE_STEP]
    bits = np.stack([sub.real > 0, sub.imag > 0], axis=2)
    keep = _CODE_OPEN & (np.abs(sub) > _LOW_CONTRAST * rms)
    return IrisCode(bits=bits.reshape(CODE_ROWS, 2 * CODE_COLS).astype(np.uint8),
                    mask=np.repeat(keep, 2, axis=1).astype(np.uint8))


def encode_frame(frame: Frame, circles: str = "truth") -> IrisCode:
    if circles == "truth":
        cx, cy, r_p, r_i = frame.cx, frame.cy, frame.r_pupil_px, frame.r_iris_px
    elif circles == "detect":
        cx, cy, r_p, r_i = detect_circles(frame.image)
    else:
        raise ValueError(f"unknown circle source {circles!r}")
    return encode_sheet(unroll(frame.image, cx, cy, r_p, r_i))


def hamming_distance(a: IrisCode, b: IrisCode) -> float:
    """Masked fractional HD, minimized over +-SHIFT_BUDGET angular shifts.

    1.0 when the masks never overlap: nothing comparable is maximally
    distant for gating purposes.
    """
    overlap = a.mask.astype(bool)[:, None] & b.mask[:, _SHIFT_INDEX].astype(bool)
    n = overlap.sum(axis=(0, 2))
    differ = np.count_nonzero((a.bits[:, None] != b.bits[:, _SHIFT_INDEX]) & overlap, axis=(0, 2))
    return float((differ[n > 0] / n[n > 0]).min(initial=1.0))


def to_bytes(code: IrisCode) -> bytes:
    head = _HEADER.pack(_MAGIC, _VERSION, 0, *_GEOMETRY)
    return head + np.packbits([code.bits, code.mask], bitorder="little").tobytes()


def from_bytes(blob: bytes) -> IrisCode:
    """Inverse of to_bytes; anything but this module's header plus two bit planes raises."""
    if len(blob) < _HEADER.size:
        raise ValueError("not an iris code blob: shorter than its header")
    magic, version, _flags, *geometry = _HEADER.unpack_from(blob)
    if magic != _MAGIC or version != _VERSION:
        raise ValueError("not an iris code blob")
    if tuple(geometry) != _GEOMETRY:
        raise ValueError(f"not an iris code blob of this geometry: {tuple(geometry)}, "
                         f"want {_GEOMETRY} (rows, cols, bits per sample, shifts)")
    want = _HEADER.size + 2 * (CODE_ROWS * 2 * CODE_COLS // 8)  # two bit planes
    if len(blob) != want:
        raise ValueError(f"not an iris code blob: {len(blob)} bytes, want {want}")
    planes = np.unpackbits(np.frombuffer(blob, np.uint8, offset=_HEADER.size),
                           bitorder="little")
    bits, mask = planes.reshape(2, CODE_ROWS, 2 * CODE_COLS)
    return IrisCode(bits=bits, mask=mask)
