"""End-to-end checks of the published performance envelope.

Each test prints one [PASS]/[FAIL] line so a log scrape can tally the
criteria without parsing pytest output.  The expensive experiments run
once in module-scoped fixtures; everything downstream reads their stats.
Where a criterion is an experiment's published bound, it is read from the
``--check`` table (``cli._check_failures``); the tests here add only time
budgets and checks that span experiments or runs.
The whole module is budgeted to finish in well under ten minutes.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from irissim import cli, config, devices, experiments, optics

_T0 = time.monotonic()


def _verdict(num: int, desc: str, failures: list) -> None:
    print(f"[{'FAIL' if failures else 'PASS'}] criterion {num}: {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _timed(fn, *args, **kwargs):
    t0 = time.monotonic()
    return fn(*args, **kwargs), time.monotonic() - t0


@pytest.fixture(scope="module")
def extension():
    return _timed(experiments.run_dof_extension,
                  config.default_config("dof_extension"), parallel=True)


@pytest.fixture(scope="module")
def hd_curve():
    return _timed(experiments.run_hd_curve,
                  config.default_config("hd_curve"), parallel=True)


@pytest.fixture(scope="module")
def multiperson_pair():
    first, elapsed = _timed(experiments.run_multiperson,
                            config.default_config("multiperson"))
    second = experiments.run_multiperson(config.default_config("multiperson"))
    return first, second, elapsed


@pytest.fixture(scope="module")
def iom():
    return _timed(experiments.run_iom, config.default_config("iom"))


def test_c01_bare_lens_dof_anchor():
    res = experiments.run_dof_table(config.default_config("dof_table"))
    failures = cli._check_failures("dof_table", res)
    _verdict(1, "bare 350 mm f/4.8 lens focused at 5 m has a 91 mm depth of field",
             failures)


def test_c02_compound_focal_length_limits():
    failures = []
    train = optics.OpticalTrain()
    f = optics.combined_focal_length(
        train.f_zoom_mm, optics.diopter_to_focal_mm(1e-9), train.d_ot_mm)
    if not math.isclose(f, train.f_zoom_mm, rel_tol=1e-6):
        failures.append(f"relaxed-membrane limit {f:.9g} mm, want {train.f_zoom_mm} mm")
    for fl in (70.0, 128.0, 350.0):
        got = optics.combined_focal_length(fl, fl, 0.0)
        if got != fl / 2.0:
            failures.append(f"stacked equal {fl} mm pair -> {got!r}, want {fl / 2.0!r}")
    _verdict(2, "compound focal length: zoom focal as power -> 0, f/2 for a stacked pair",
             failures)


def test_c03_blur_equals_tolerance_at_dof_limits():
    rng = np.random.default_rng(42)
    failures = []
    t0 = time.monotonic()
    for _ in range(50):
        f = rng.uniform(70.0, 350.0)
        n = rng.uniform(2.0, 8.0)
        coc = rng.uniform(0.01, 0.1)
        # keep the focus short of hyperfocal so the far limit stays finite
        hyper = optics.hyperfocal_distance(f, n, coc)
        d = f + rng.uniform(0.05, 0.85) * (hyper - f)
        res = optics.depth_of_field(f, n, d, coc)
        for limit in (res.near_mm, res.far_mm):
            blur = optics.blur_circle_diameter(f, n, d, limit)
            if not math.isclose(blur, coc, rel_tol=1e-6):
                failures.append(f"f={f:.1f} N={n:.2f} d={d:.0f}: blur {blur:.6g} "
                                f"at {limit:.1f} mm, want {coc:.6g}")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    _verdict(3, "blur circle equals the tolerance at both limits, 50 random lenses",
             failures)


def test_c04_focal_sweep_extends_dof(extension, tmp_path):
    res, elapsed = extension
    failures = cli._check_failures("dof_extension", res)
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f} s, budget 120 s")
    # the canonical summary is pinned: how the walks are searched must not move it
    experiments.write_result(res, tmp_path)
    digest = hashlib.sha256((tmp_path / "summary.txt").read_bytes()).hexdigest()
    if digest != "46b0a7679cb1a0606578ad4d75061deabb04bb8e03dac789f85d38e1127b2ae8":
        failures.append(f"canonical summary.txt has SHA-256 {digest}")
    _verdict(4, "sweep DoF at 5 m: 3.9 m total (1.2 front, 2.7 rear), about 37x the "
                "bare lens, ordered in distance", failures)


def test_c05_hamming_distance_vs_defocus(hd_curve, extension):
    res, elapsed = hd_curve
    s = res.stats
    failures = cli._check_failures("hd_curve", res)
    ext_total = extension[0].stats[5000.0]["total_mm"]
    if not s["span_mm"] >= ext_total:
        failures.append(f"hd interval {s['span_mm']:.0f} mm smaller than the "
                        f"quality-gate dof {ext_total:.0f} mm")
    if s["impostor_n"] < 50:
        failures.append(f"only {s['impostor_n']} impostor pairs, want >= 50")
    if elapsed >= 180.0:
        failures.append(f"took {elapsed:.1f} s, budget 180 s")
    _verdict(5, "match distance vs defocus: tight self-match, monotone rise, wider "
                "interval than the gate, impostors near 0.46", failures)


def test_c06_device_timing():
    failures = []
    lens = devices.LensParams()
    ladder = [lens.power_range[0], 0.0, lens.power_range[1]]
    # each step of the ladder waits out one settling time before its exposure
    raw = len(ladder) * lens.settle_time
    filtered = len(ladder) * devices.LensParams(mode="filtered").settle_time
    period = devices.SensorParams().frame_period_ms
    if abs(raw - 80.0) > period:
        failures.append(f"raw full-range sweep {raw:.1f} ms outside 80 +- {period:.2f} ms")
    if filtered != raw / 2.0:
        failures.append(f"filtered sweep {filtered:.1f} ms is not half of raw {raw:.1f} ms")
    slew = devices.SteeringMirror().slew_time_ms(60.0, 0.0, from_pose=(0.0, 0.0))
    if not math.isclose(slew, 60.0 / 21000.0 * 1000.0, abs_tol=1e-6):
        failures.append(f"60 degree slew {slew:.9f} ms, want 2.857142857 ms")
    _verdict(6, "timing: full sweep inside the 80 ms window, 2.857 ms slew for 60 "
                "degrees", failures)


def test_c07_two_subject_refocusing(multiperson_pair):
    first, second, elapsed = multiperson_pair
    failures = cli._check_failures("multiperson", first)
    if first.rows != second.rows or first.summary != second.summary:
        failures.append("re-running with the same seed changed the event log")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f} s, budget 30 s")
    _verdict(7, "two seated-and-standing subjects: both matched, no cross-matches, "
                "one cycle under 1 s, reproducible", failures)


def _digests(result, out_dir):
    experiments.write_result(result, out_dir)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in (f"{result.name}.csv", "summary.txt")}


def test_canonical_multiperson_bytes_are_pinned(multiperson_pair, tmp_path):
    # No perfbench workload runs multiperson, so its canonical output is pinned
    # here.
    assert _digests(multiperson_pair[0], tmp_path) == {
        "multiperson.csv": "d8d84720d93995ba783e8e3ef24906c7d0530eb26f70a1af7df6fb62709822d4",
        "summary.txt": "b2c4fab64e9e22bce53192b2518306e445f2b671c86da91858ab19e8a05d1416",
    }


def test_canonical_hd_curve_bytes_are_pinned(hd_curve, tmp_path):
    # perfbench checks a run only against its own first pass, so the canonical
    # curve, whose every point goes through the iris-code stage, is pinned here.
    assert _digests(hd_curve[0], tmp_path) == {
        "hd_curve.csv": "f8d352b48e224e848a08d7b2784e5c87547d395f281728b94e50c7a9d6caaa7a",
        "summary.txt": "bba2a1d751bd4c1dc0ccea9d1979ebae95d2785f0850776949daef236fbc8091",
    }


def test_canonical_iom_bytes_are_pinned(iom, tmp_path):
    # the walker's frames are full 640x480 canvases, exposed in the iris window
    assert _digests(iom[0], tmp_path) == {
        "iom.csv": "40db421ee27b7d8310141214bf870e82fc5f9f17e2f7d49799473293a0294e65",
        "summary.txt": "927b23b8e882be9cc86f2e46e2f8f87035f2a48c178a5d28def6b310209ca37f",
    }


def test_c08_capture_on_the_move(iom):
    res, elapsed = iom
    failures = cli._check_failures("iom", res)
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f} s, budget 30 s")
    _verdict(8, "walker at 1 m/s: at least 3 qualified frames inside 2.4 .. 3.4 m, "
                "at least 10 without jitter, 32.79 ms frame spacing", failures)


def _small_extension_cfg():
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(base_distances_mm=[5000.0], grid_mm=400.0, repeats=2)
    return cfg


def _small_hd_cfg():
    cfg = config.default_config("hd_curve")
    cfg["experiment"].update(span_near_mm=300.0, span_far_mm=300.0,
                             repeats=2, impostor_pairs=2)
    return cfg


def test_c09_determinism_and_parallel_equivalence(multiperson_pair, iom, tmp_path):
    failures = []
    ext_a = experiments.run_dof_extension(_small_extension_cfg())
    ext_b = experiments.run_dof_extension(_small_extension_cfg())
    hd_a = experiments.run_hd_curve(_small_hd_cfg())
    hd_b = experiments.run_hd_curve(_small_hd_cfg())
    runs = [
        ("dof_table", experiments.run_dof_table(config.default_config("dof_table")),
         experiments.run_dof_table(config.default_config("dof_table"))),
        ("dof_extension", ext_a, ext_b),
        ("hd_curve", hd_a, hd_b),
        ("multiperson", multiperson_pair[0], multiperson_pair[1]),
        ("iom", iom[0], experiments.run_iom(config.default_config("iom"))),
    ]
    for name, a, b in runs:
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        experiments.write_result(a, dir_a)
        experiments.write_result(b, dir_b)
        for fname in (f"{name}.csv", "summary.txt"):
            if (dir_a / fname).read_bytes() != (dir_b / fname).read_bytes():
                failures.append(f"{name}: {fname} differs between identical runs")
    ext_par = experiments.run_dof_extension(_small_extension_cfg(), parallel=True)
    hd_par = experiments.run_hd_curve(_small_hd_cfg(), parallel=True)
    if ext_par.rows != ext_a.rows or ext_par.summary != ext_a.summary:
        failures.append("dof_extension: parallel and serial outputs differ")
    if hd_par.rows != hd_a.rows or hd_par.summary != hd_a.summary:
        failures.append("hd_curve: parallel and serial outputs differ")
    _verdict(9, "same-seed reruns are byte-identical and parallel equals serial",
             failures)


def test_c10_analytic_limits_match_dense_sweep(extension):
    res, _ = extension
    grid = config.default_config("dof_extension")["experiment"]["grid_mm"]
    near_pred, far_pred = experiments.analytic_extension_limits(optics.OpticalTrain())
    s = res.stats[5000.0]
    near_sweep = 5000.0 - s["front_mm"]
    far_sweep = 5000.0 + s["rear_mm"]
    failures = []
    if abs(near_sweep - near_pred) > grid:
        failures.append(f"near limit: sweep {near_sweep:.1f} mm vs analytic "
                        f"{near_pred:.1f} mm, grid {grid:.0f} mm")
    if abs(far_sweep - far_pred) > grid:
        failures.append(f"far limit: sweep {far_sweep:.1f} mm vs analytic "
                        f"{far_pred:.1f} mm, grid {grid:.0f} mm")
    _verdict(10, "closed-form pass-interval endpoints agree with the rendered sweep "
                 "to one grid step", failures)


def test_total_runtime_budget():
    elapsed = time.monotonic() - _T0
    print(f"[{'PASS' if elapsed < 600.0 else 'FAIL'}] acceptance suite took "
          f"{elapsed:.1f} s (budget 600 s)")
    assert elapsed < 600.0
