"""Frame quality gates.

A frame is usable when the iris subtends enough pixels, the iris band is
sharp, and the exposure is sane.  Sharpness is the variance ratio of a
band-passed copy of the iris annulus to the raw annulus; the band-pass
sigmas scale with the imaged iris diameter so the score compares texture
contrast, not magnification.  Evaluation never raises: a hopeless frame
comes back as a report with reasons.

Both scores read the same annulus, so its mask is built once per frame
geometry; the band-pass runs only on the annulus box grown by the coarse
filter's reach, which leaves every masked value exactly as on the whole
frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .renderer import Frame, TRANSMISSION

REF_IRIS_PX = 239.0  # iris diameter at which the band sigmas are quoted
_BAND_SIGMA_FINE = 1.0
_BAND_SIGMA_COARSE = 3.5
_TRUNCATE = 4.0  # gaussian_filter's reach in sigmas

# calibrated: the score of the calibration eye defocused by exactly one
# blur-circle limit; frames below this are outside usable depth of field
DEFAULT_SHARPNESS_MIN = 0.0301655

MIN_PX_ACROSS_IRIS = 200.0

# exposure window around the nominal iris grey level
_NOMINAL_REFLECTANCE = 0.45
BRIGHTNESS_LO = 0.4 * TRANSMISSION * _NOMINAL_REFLECTANCE * 255.0
BRIGHTNESS_HI = 1.15 * _NOMINAL_REFLECTANCE * 255.0


@dataclass(frozen=True)
class QualityThresholds:
    min_px_across_iris: float = MIN_PX_ACROSS_IRIS
    sharpness_min: float = DEFAULT_SHARPNESS_MIN
    brightness_lo: float = BRIGHTNESS_LO
    brightness_hi: float = BRIGHTNESS_HI


@dataclass(frozen=True)
class QualityReport:
    passed: bool
    sharpness: float
    brightness: float
    px_across_iris: float
    fail_reasons: tuple[str, ...]


@functools.lru_cache(maxsize=1)
def _annulus(shape, cx, cy, r_p, r_i):
    """The gate's annulus as (bounding box slices, read-only mask in the box).

    None when no pixel qualifies.  Only the square around the iris disk is
    examined; pixel coordinates are the whole frame's, so the mask is the
    same one a whole-frame build would give.
    """
    if not np.isfinite((cx, cy, r_p, r_i)).all():
        return None  # no rendered frame has such a geometry
    reach = r_i * 0.95 + 1.0
    y0, x0 = max(int(cy - reach), 0), max(int(cx - reach), 0)
    y1 = min(int(cy + reach) + 1, shape[0])
    x1 = min(int(cx + reach) + 1, shape[1])
    yy, xx = np.ogrid[y0:y1, x0:x1]
    rr = np.hypot(yy - cy, xx - cx)
    # keep clear of the pupil edge and the lid band
    mask = (rr > r_p * 1.15) & (rr < r_i * 0.95) & (yy > cy - 0.55 * r_i)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    mask = mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    mask.flags.writeable = False
    return (slice(y0 + rows[0], y0 + rows[-1] + 1),
            slice(x0 + cols[0], x0 + cols[-1] + 1)), mask


def sharpness_score(image: np.ndarray, cx: float, cy: float,
                    r_p: float, r_i: float) -> float:
    ann = _annulus(image.shape, cx, cy, r_p, r_i)
    if ann is None:
        return 0.0
    (rows, cols), mask = ann
    scale = (2.0 * r_i) / REF_IRIS_PX
    fine, coarse = _BAND_SIGMA_FINE * scale, _BAND_SIGMA_COARSE * scale
    # a filtered pixel reads inputs within int(truncate * sigma + 0.5) only
    grow = int(_TRUNCATE * coarse + 0.5) + 1
    top, left = max(rows.start - grow, 0), max(cols.start - grow, 0)
    im = image[top:rows.stop + grow, left:cols.stop + grow].astype(float)
    band = (gaussian_filter(im, fine, mode="nearest", truncate=_TRUNCATE)
            - gaussian_filter(im, coarse, mode="nearest", truncate=_TRUNCATE))
    box = (slice(rows.start - top, rows.stop - top),
           slice(cols.start - left, cols.stop - left))
    return float(np.var(band[box][mask]) / (np.var(im[box][mask]) + 1e-12))


def brightness_score(image: np.ndarray, cx: float, cy: float,
                     r_p: float, r_i: float) -> float:
    ann = _annulus(image.shape, cx, cy, r_p, r_i)
    if ann is None:
        return 0.0
    box, mask = ann
    return float(image[box][mask].mean())


def evaluate(frame: Frame,
             thresholds: QualityThresholds = QualityThresholds()) -> QualityReport:
    sharp = sharpness_score(frame.image, frame.cx, frame.cy,
                            frame.r_pupil_px, frame.r_iris_px)
    bright = brightness_score(frame.image, frame.cx, frame.cy,
                              frame.r_pupil_px, frame.r_iris_px)
    reasons = []
    if frame.px_across_iris < thresholds.min_px_across_iris:
        reasons.append("resolution")
    if sharp < thresholds.sharpness_min:
        reasons.append("sharpness")
    if not (thresholds.brightness_lo <= bright <= thresholds.brightness_hi):
        reasons.append("brightness")
    return QualityReport(
        passed=not reasons, sharpness=sharp, brightness=bright,
        px_across_iris=frame.px_across_iris, fail_reasons=tuple(reasons),
    )
