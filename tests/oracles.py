"""Closed-form optics the tests hold ``optics.depth_of_field`` to.

The package never calls these: they are independent oracles, so they live
with the tests that read them.
"""

import math


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
