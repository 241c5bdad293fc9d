"""Paraxial model of the capture rig's optical train.

A telephoto zoom lens (the stop) forms an intermediate image which a
focus-tunable liquid lens relays onto a fixed sensor plane.  All distances
are millimetres, powers are diopters (1000 / f_mm), angles are degrees.

Sign conventions: object distances are positive in front of a lens, image
distances positive behind it.  ``math.inf`` marks "focused beyond any
finite distance"; it is a value, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Sensor geometry is fixed by the 70 mm / 18 deg field-of-view anchor:
# half-width = 70 * tan(9 deg).  4080 x 3072 active pixels; only the width
# enters the model.
SENSOR_WIDTH_MM = 2.0 * 70.0 * math.tan(math.radians(9.0))
SENSOR_PX_H = 4080
PIXEL_PITCH_MM = SENSOR_WIDTH_MM / SENSOR_PX_H

IRIS_DIAMETER_MM = 10.0

DEFAULT_F_NUMBER = 4.8
ZOOM_RANGE_MM = (70.0, 350.0)  # the telephoto zoom's focal-length travel
DEFAULT_COC_MM = 0.0499  # solved from the 91 mm depth-of-field anchor at 5 m / 350 mm

# Fraction of the zoom lens' image distance at which the tunable lens sits.
# 0.895 keeps the full -10..+10 dpt range useful (focus reach roughly
# 2.7 m .. 8.4 m at the 5 m / 350 mm operating point) while holding the
# +-0.1 dpt repeatability error below one blur-circle of defocus.
SEPARATION_FRACTION = 0.895

# Pixels-across-iris calibration: chosen so an iris imaged at 7.7 m with the
# reference train spans exactly 200 px.  Frozen by calibration.solve_pixel_scale,
# rounded up in the last digit so the anchor point itself clears the >= 200 gate.
DEFAULT_PIXEL_SCALE_CAL = 1.7235954


class AfocalSystemError(ValueError):
    """Combined lens system has zero net power."""


def thin_lens_image_distance(f: float, d: float) -> float:
    """Image distance for an object at d in front of a thin lens of focal length f.

    d == inf is allowed and returns f.  Objects at or inside the focal
    length have no real image and raise ValueError.
    """
    if f <= 0.0:
        raise ValueError(f"focal length must be positive, got {f}")
    if math.isinf(d):
        return f
    if d <= f:
        raise ValueError(f"object at {d} mm is inside the focal length {f} mm; no real image")
    return 1.0 / (1.0 / f - 1.0 / d)


def blur_circle_diameter(f: float, n_stop: float, d_focus: float, d_subject: float) -> float:
    """Geometric blur-circle diameter on the sensor for a single lens.

    The lens is focused at d_focus; the subject sits at d_subject.  With
    aperture diameter A = f / n_stop the similar-triangle result is

        b = f^2 * |d_focus - d_subject| / (n_stop * d_subject * (d_focus - f))

    which is zero exactly at d_subject == d_focus and strictly increasing
    in |1/d_subject - 1/d_focus|.
    """
    if d_focus <= f:
        raise ValueError(f"focus distance {d_focus} mm must exceed focal length {f} mm")
    if d_subject <= 0.0:
        raise ValueError(f"subject distance must be positive, got {d_subject}")
    if math.isinf(d_subject):
        return f * f / (n_stop * (d_focus - f))
    return f * f * abs(d_focus - d_subject) / (n_stop * d_subject * (d_focus - f))


def hyperfocal_distance(f: float, n_stop: float, coc: float) -> float:
    """Focus distance beyond which the far limit runs to infinity."""
    if coc <= 0.0:
        return math.inf
    return f * f / (n_stop * coc) + f


@dataclass(frozen=True)
class DofResult:
    near_mm: float
    far_mm: float
    total_mm: float  # inf when focused at or beyond the hyperfocal distance


def depth_of_field(f: float, n_stop: float, d: float, coc: float) -> DofResult:
    """Depth of field of a bare lens focused at d, for blur tolerance coc.

    Total depth uses the pupil-diameter form (P = f / n_stop):

        total = 2*C*d / ( f*P/(d-f) - C^2*(d-f)/(f*P) )

    Near and far limits are the exact conjugate distances where
    blur_circle_diameter equals coc; their difference reproduces the
    formula above identically.  Focusing at or past the hyperfocal
    distance makes far and total inf rather than a negative depth.
    """
    if d <= f:
        raise ValueError(f"focus distance {d} mm must exceed focal length {f} mm")
    if coc < 0.0:
        raise ValueError(f"circle of confusion must be non-negative, got {coc}")
    if coc == 0.0:
        return DofResult(d, d, 0.0)

    h = f * f / (n_stop * coc)  # hyperfocal distance minus f
    near = h * d / (h + (d - f))
    if d - f >= h:
        return DofResult(near, math.inf, math.inf)
    far = h * d / (h - (d - f))

    p = f / n_stop
    total = 2.0 * coc * d / (f * p / (d - f) - coc * coc * (d - f) / (f * p))
    return DofResult(near, far, total)


def combined_focal_length(f_a: float, f_b: float, separation: float) -> float:
    """Focal length of two thin lenses separated by ``separation``.

        1/f = 1/f_a + 1/f_b - separation / (f_a * f_b)

    Either focal length may be inf (a flat element).  A zero right-hand
    side means the pair is afocal, which has no focal length to return.
    """
    inv_a = 0.0 if math.isinf(f_a) else 1.0 / f_a
    inv_b = 0.0 if math.isinf(f_b) else 1.0 / f_b
    cross = 0.0 if (math.isinf(f_a) or math.isinf(f_b)) else separation / (f_a * f_b)
    rhs = inv_a + inv_b - cross
    if rhs == 0.0:
        raise AfocalSystemError(f"lens pair ({f_a}, {f_b}, sep {separation}) is afocal")
    return 1.0 / rhs


def diopter_to_focal_mm(power: float) -> float:
    """0 dpt is a flat lens: focal length inf, not an error."""
    if power == 0.0:
        return math.inf
    return 1000.0 / power


@dataclass(frozen=True)
class OpticalTrain:
    """Zoom lens + tunable lens + sensor, with the calibration constants.

    The defaults are the calibration operating point: 350 mm at f/4.8,
    focused at 5 m.  The sensor plane sits where an object at ``d_ref_mm``
    focuses with the tunable lens at zero power, so ``sensor_back_mm`` is
    derived, not set.  Unless pinned, ``d_ot_mm`` is derived too: the
    tunable lens sits at ``SEPARATION_FRACTION`` of the zoom lens' image
    distance, as the spacer is re-fitted when the zoom ring or the base
    focus moves.  ``d_ot_mm`` must stay below the zoom focal length; that
    guarantees the intermediate image always forms behind the tunable lens.
    """

    f_zoom_mm: float = 350.0
    n_stop: float = DEFAULT_F_NUMBER
    d_ref_mm: float = 5000.0
    d_ot_mm: float | None = None
    coc_mm: float = DEFAULT_COC_MM
    pixel_scale_cal: float = DEFAULT_PIXEL_SCALE_CAL

    def __post_init__(self):
        if self.f_zoom_mm <= 0.0 or self.n_stop <= 0.0:
            raise ValueError("focal length and f-number must be positive")
        if self.d_ref_mm <= self.f_zoom_mm:
            raise ValueError(
                f"reference focus {self.d_ref_mm} mm must exceed the zoom focal "
                f"length {self.f_zoom_mm} mm"
            )
        if self.d_ot_mm is None:
            object.__setattr__(self, "d_ot_mm", SEPARATION_FRACTION
                               * thin_lens_image_distance(self.f_zoom_mm, self.d_ref_mm))
        if not 0.0 < self.d_ot_mm < self.f_zoom_mm:
            raise ValueError(
                f"lens separation {self.d_ot_mm} mm must lie in (0, {self.f_zoom_mm})"
            )

    @property
    def image_distance_ref_mm(self) -> float:
        return thin_lens_image_distance(self.f_zoom_mm, self.d_ref_mm)

    @property
    def sensor_back_mm(self) -> float:
        """Distance from the tunable lens to the sensor."""
        return self.image_distance_ref_mm - self.d_ot_mm

    @property
    def aperture_mm(self) -> float:
        return self.f_zoom_mm / self.n_stop


def zoom_focal_for_distance(d_mm: float) -> float:
    """Zoom setting that keeps iris magnification constant: f = 0.07 * d.

    Maps the working range 1..5 m onto the zoom range; a distance outside
    it gets the zoom limit on its side.
    """
    lo, hi = ZOOM_RANGE_MM
    return min(hi, max(lo, 0.07 * d_mm))


def _intermediate_w(train: OpticalTrain, d_subject: float) -> float:
    """Distance from the tunable lens to the zoom lens' image of the subject."""
    return thin_lens_image_distance(train.f_zoom_mm, d_subject) - train.d_ot_mm


def blur_on_sensor_mm(train: OpticalTrain, power_dpt: float, d_subject: float) -> float:
    """Defocus blur diameter on the sensor through the full train.

    The zoom lens' cone is A = f/N wide at the stop and w/v1 of that at
    the tunable lens; the tunable lens adds curvature power/1000, so the
    spot on the sensor is A1 * |1 - s_e * (power/1000 + 1/w)|.  The form
    avoids the intermediate image distance blowing up at collimation.
    """
    v1 = thin_lens_image_distance(train.f_zoom_mm, d_subject)
    w = v1 - train.d_ot_mm
    a1 = train.aperture_mm * w / v1
    curvature = power_dpt / 1000.0 + 1.0 / w
    return abs(a1 * (1.0 - train.sensor_back_mm * curvature))


def tunable_power_for_focus(train: OpticalTrain, d_target: float) -> float:
    """Tunable-lens power that focuses the train at d_target, unbounded.

    Solves blur_on_sensor_mm == 0 for the power; by construction the result
    is 0 exactly at the train's reference distance, positive nearer, and
    strictly decreasing in d_target.  No lens range applies here: the
    result may be a power no membrane reaches.  Code that drives a lens
    goes through drive_power_for_focus.
    """
    if d_target <= train.f_zoom_mm:
        raise ValueError(
            f"target {d_target} mm is inside the zoom focal length {train.f_zoom_mm} mm"
        )
    w = _intermediate_w(train, d_target)
    return 1000.0 * (1.0 / train.sensor_back_mm - 1.0 / w)


def drive_power_for_focus(train: OpticalTrain, d_target: float,
                          power_range: tuple[float, float]) -> float:
    """Tunable-lens power for d_target, clamped to the lens' power_range.

    This is the one place a lens range is applied to a focus solve.  A
    subject out of reach gets the limit on its side of the range; the
    frame then fails its quality gates, which is the honest outcome.
    """
    lo, hi = power_range
    return min(max(tunable_power_for_focus(train, d_target), lo), hi)


def focus_distance_for_power(train: OpticalTrain, power_dpt: float) -> float:
    """Subject distance in focus at the given tunable power.

    Past the reach on either side the result is the limit on that side: the
    zoom focal length for a positive power that collimates or diverges the
    intermediate image, inf for a negative power that focuses past infinity.
    """
    inv_w = 1.0 / train.sensor_back_mm - power_dpt / 1000.0
    if inv_w <= 0.0:
        return train.f_zoom_mm
    v1 = 1.0 / inv_w + train.d_ot_mm
    if v1 <= train.f_zoom_mm:
        return math.inf
    return v1 * train.f_zoom_mm / (v1 - train.f_zoom_mm)


def magnification(train: OpticalTrain, d_subject: float) -> float:
    """Lateral magnification of the subject plane onto the sensor.

    First-stage magnification v1/d times the projection through the
    tunable lens' centre, s_e/w.  The projection term is a chief-ray
    construction, so the result does not depend on the tunable power.
    """
    v1 = thin_lens_image_distance(train.f_zoom_mm, d_subject)
    w = v1 - train.d_ot_mm
    return (v1 / d_subject) * (train.sensor_back_mm / w)


def pixels_across_iris(train: OpticalTrain, d_subject: float) -> float:
    """Ground-truth pixel count across a 10 mm iris at d_subject.

    The chief-ray magnification model makes it independent of the tunable
    power.
    """
    m = magnification(train, d_subject)
    return IRIS_DIAMETER_MM * m * train.pixel_scale_cal / PIXEL_PITCH_MM


def effective_focal_length(train: OpticalTrain, power_dpt: float = 0.0) -> float:
    return combined_focal_length(
        train.f_zoom_mm, diopter_to_focal_mm(power_dpt), train.d_ot_mm
    )


def field_of_view_deg(train: OpticalTrain, power_dpt: float = 0.0) -> float:
    """Full horizontal field of view in degrees."""
    f_eff = effective_focal_length(train, power_dpt)
    return 2.0 * math.degrees(math.atan(SENSOR_WIDTH_MM / (2.0 * f_eff)))


def capture_volume_m3(train: OpticalTrain, d: float) -> float:
    """Single-pose capture volume: bare-lens DoF times the transverse FoV square."""
    dof = depth_of_field(train.f_zoom_mm, train.n_stop, d, train.coc_mm)
    if math.isinf(dof.total_mm):
        return math.inf
    half = math.radians(field_of_view_deg(train) / 2.0)
    width = 2.0 * d * math.tan(half)
    return dof.total_mm * width * width * 1e-9


def bisect_root(fn, lo: float, hi: float, rel_tol: float = 1e-9) -> float:
    """Deterministic bracketed bisection; fn(lo) and fn(hi) must differ in sign."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or abs(hi - lo) <= rel_tol * max(1.0, abs(mid)):
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
