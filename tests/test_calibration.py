import numpy as np
import pytest

from irissim import calibration as cal
from irissim import config, experiments, renderer
from irissim.optics import (
    DEFAULT_COC_MM,
    DEFAULT_PIXEL_SCALE_CAL,
    OpticalTrain,
    blur_on_sensor_mm,
    tunable_power_for_focus,
)
from irissim.quality import DEFAULT_SHARPNESS_MIN, sharpness_score
from irissim.renderer import DEFAULT_K_AST


def test_frozen_coc_matches_solver():
    assert cal.solve_coc() == pytest.approx(DEFAULT_COC_MM, abs=5e-5)


def test_frozen_pixel_scale_matches_solver():
    solved = cal.solve_pixel_scale()
    # frozen value is rounded up so the anchor itself clears the gate
    assert DEFAULT_PIXEL_SCALE_CAL >= solved
    assert DEFAULT_PIXEL_SCALE_CAL == pytest.approx(solved, abs=1e-6)


def test_one_coc_offset_defocuses_by_one_coc():
    train = OpticalTrain()
    p0 = tunable_power_for_focus(train, train.d_ref_mm)
    dp = cal.one_coc_power_offset(train)
    blur = blur_on_sensor_mm(train, p0 + dp, train.d_ref_mm)
    assert blur == pytest.approx(train.coc_mm, rel=1e-9)


def test_frozen_sharpness_floor_matches_solver():
    assert cal.solve_sharpness_min() == pytest.approx(DEFAULT_SHARPNESS_MIN, abs=5e-4)


def test_frozen_astigmatism_gain_matches_solver():
    assert cal.solve_k_ast() == pytest.approx(DEFAULT_K_AST, abs=1e-3)


def test_astigmatism_anchor_sits_on_the_floor():
    train = OpticalTrain()
    power = tunable_power_for_focus(train, cal.ASTIG_ANCHOR_DISTANCE)
    frame = cal.probe_frame(train, cal.ASTIG_ANCHOR_DISTANCE, power, k_ast=DEFAULT_K_AST)
    score = sharpness_score(frame.image, frame.cx, frame.cy,
                            frame.r_pupil_px, frame.r_iris_px)
    assert score == pytest.approx(DEFAULT_SHARPNESS_MIN, abs=2e-3)


@pytest.mark.parametrize("repeat", range(cal.CAL_REPEATS))
def test_calibration_judges_the_sweeps_own_frames(repeat):
    # the solvers' anchor frame is the canonical 5 m sweep's frame at that distance
    cfg = config.default_config("dof_extension")
    power = tunable_power_for_focus(OpticalTrain(), cal.ASTIG_ANCHOR_DISTANCE)
    solver = cal.probe_frame(OpticalTrain(), cal.ASTIG_ANCHOR_DISTANCE, power,
                             noise_seed=cal.CAL_SWEEP_NOISE_SEEDS[repeat])
    sweep = experiments._probe(cfg, config.rig_from_config(cfg, 5000.0),
                               cal.ASTIG_ANCHOR_DISTANCE, cfg["experiment"]["identity_seed"],
                               repeat)
    assert np.array_equal(solver.image, sweep.image)


def test_noise_streams_hold_every_canonical_repeat():
    # renderer imports neither calibration nor config, so it restates the count
    assert renderer._NOISE_STREAMS >= cal.CAL_REPEATS
