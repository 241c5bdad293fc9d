"""Solvers that tie the frozen model constants to their defining anchors.

Every empirical default in the package (blur-circle tolerance, pixel-scale
calibration, sharpness floor, astigmatism growth) is the output of one of
these solvers.  Shipping them means a model change that silently moves an
anchor turns into a loud test failure instead of a quiet drift.
"""

from __future__ import annotations

from . import optics, quality
from .optics import OpticalTrain, bisect_root
from .renderer import DEFAULT_K_AST, render_eye
from .scene import RigGeometry, aim_angles

CAL_IDENTITY_SEED = 9000
CAL_NOISE_SEED = 9
# noise seeds of the default 5-repeat sweep protocol (global seed 0)
CAL_SWEEP_NOISE_SEEDS = (0, 1, 2, 3, 4)

DOF_ANCHOR_MM = 91.0       # bare-lens depth of field at the 350 mm / 5 m point
PX_ANCHOR_DISTANCE = 7700.0
PX_ANCHOR_COUNT = 200.0
ASTIG_ANCHOR_DISTANCE = 3800.0  # refocus here should sit exactly on the floor
PROBE_RIG = RigGeometry()  # probe_frame's eye sits d - lens_height_mm out


def solve_coc() -> float:
    """Blur tolerance giving the reference train the anchor depth of field."""
    t = OpticalTrain()

    def gap(c: float) -> float:
        dof = optics.depth_of_field(t.f_zoom_mm, t.n_stop, t.d_ref_mm, c)
        return dof.total_mm - DOF_ANCHOR_MM

    return bisect_root(gap, 1e-4, 1.0, rel_tol=1e-12)


def solve_pixel_scale() -> float:
    """Calibration factor putting the anchor pixel count across the iris."""
    train = OpticalTrain(pixel_scale_cal=1.0)
    raw = optics.pixels_across_iris(train, PX_ANCHOR_DISTANCE)
    return PX_ANCHOR_COUNT / raw


def one_coc_power_offset(train: OpticalTrain) -> float:
    """Tunable-lens detuning that defocuses by exactly one blur circle."""
    v1 = optics.thin_lens_image_distance(train.f_zoom_mm, train.d_ref_mm)
    w = v1 - train.d_ot_mm
    a1 = train.aperture_mm * w / v1
    return 1000.0 * train.coc_mm / (a1 * train.sensor_back_mm)


def probe_frame(train: OpticalTrain, d: float, power: float, *,
                k_ast: float = DEFAULT_K_AST,
                identity_seed: int = CAL_IDENTITY_SEED,
                noise_seed: int = CAL_NOISE_SEED):
    """Render a boresight eye at distance ``d`` with the given drive power.

    This is the shared probe used by the solvers and the distance sweeps, so
    the sweep measurements and the constants they are gated against come off
    the exact same render path (tight crop, perfect aim, static eye).
    """
    eye = (0.0, d - PROBE_RIG.lens_height_mm, 0.0)
    pan, tilt = aim_angles(eye)
    return render_eye(train, power_dpt=power, pan_deg=pan, tilt_deg=tilt,
                      eye_pos_mm=eye, identity_seed=identity_seed,
                      noise_seed=noise_seed, rig=PROBE_RIG, k_ast=k_ast,
                      base_canvas=(0, 0))


def _sharpness_of(frame) -> float:
    return quality.sharpness_score(frame.image, frame.cx, frame.cy,
                                   frame.r_pupil_px, frame.r_iris_px)


def solve_sharpness_min() -> float:
    """Sharpness of the calibration eye defocused by exactly one blur circle.

    Rendered without astigmatism: the floor measures defocus alone.
    """
    train = OpticalTrain()
    power = optics.tunable_power_for_focus(train, train.d_ref_mm)
    frame = probe_frame(train, train.d_ref_mm, power + one_coc_power_offset(train),
                        k_ast=0.0)
    return _sharpness_of(frame)


def solve_k_ast() -> float:
    """Astigmatism growth that puts the near-refocus anchor on the floor.

    At the anchor distance the drive power is strongly positive; the solved
    coefficient makes the membrane blur alone consume the whole sharpness
    budget there, which is what pins the near end of the refocused range.
    The anchor is judged the way the sweep experiment judges it: mean score
    over the default 5-repeat noise seeds, so the measured front limit sits
    on the anchor rather than half a noise-wobble off it.
    """
    train = OpticalTrain()
    power = optics.tunable_power_for_focus(train, ASTIG_ANCHOR_DISTANCE)

    def gap(k: float) -> float:
        scores = [
            _sharpness_of(probe_frame(train, ASTIG_ANCHOR_DISTANCE, power,
                                      k_ast=k, noise_seed=ns))
            for ns in CAL_SWEEP_NOISE_SEEDS
        ]
        return sum(scores) / len(scores) - quality.DEFAULT_SHARPNESS_MIN

    return bisect_root(gap, 0.02, 1.0, rel_tol=1e-4)
