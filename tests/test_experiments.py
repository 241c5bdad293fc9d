import concurrent.futures
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from irissim import calibration, config, experiments, optics, quality, renderer, scheduler, \
    texture
from irissim.calibration import ASTIG_ANCHOR_DISTANCE, PROBE_RIG


@pytest.fixture(scope="module")
def table():
    return experiments.run_dof_table(config.default_config("dof_table"))


def test_dof_table_reference_row(table):
    d, near, far, total, fov, vol = table.rows[-1]
    assert d == 5000.0
    assert total == pytest.approx(91.0, abs=1.0)
    assert near < 5000.0 < far
    width = 2.0 * d * math.tan(math.radians(fov / 2.0))
    assert vol == pytest.approx(total * width * width * 1e-9)


def test_dof_table_monotone(table):
    totals = [r[3] for r in table.rows]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert max(totals) < 110.0


def test_extension_drive_stays_inside_the_lens_range():
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(base_distances_mm=[5000.0], grid_mm=400.0, repeats=1)
    cfg["lens"] = {"power_min_dpt": -5.0, "power_max_dpt": 5.0}
    res = experiments.run_dof_extension(config.validate_config(cfg))
    powers = [row[3] for row in res.rows]
    assert all(-5.0 <= p <= 5.0 for p in powers)


def test_hd_curve_drive_stays_inside_the_lens_range(monkeypatch):
    # the 5 m train needs about +6.1 dpt at 3.5 m and -7.7 dpt at 7.5 m
    cfg = config.default_config("hd_curve")
    cfg["experiment"].update(span_near_mm=1500.0, span_far_mm=2500.0, grid_mm=500.0,
                             repeats=1, impostor_pairs=1)
    cfg["lens"] = {"power_min_dpt": -5.0, "power_max_dpt": 5.0}
    cfg = config.validate_config(cfg)
    calls = _count_renders(monkeypatch)
    experiments.run_hd_curve(cfg)
    powers = [c["power_dpt"] for c in calls]
    assert len(powers) == 9 + 1 + 2
    assert all(-5.0 <= p <= 5.0 for p in powers)
    assert min(powers) == -5.0 and max(powers) == 5.0


@pytest.mark.parametrize("kind, experiment, units", [
    ("dof_extension", {"base_distances_mm": [3000.0, 5000.0], "grid_mm": 400.0,
                       "repeats": 2}, [3000.0, 3000.0, 5000.0, 5000.0]),
    # the template, three positions and two impostor pairs
    ("hd_curve", {"grid_mm": 1000.0, "span_near_mm": 1000.0, "span_far_mm": 1000.0,
                  "repeats": 2, "impostor_pairs": 2}, 6 * [5000.0]),
])
def test_each_sweep_unit_builds_its_base_rig_once(monkeypatch, kind, experiment, units):
    cfg = config.default_config(kind)
    cfg["experiment"].update(experiment)
    cfg = config.validate_config(cfg)
    bases = []

    def rig_from_config(cfg, base_mm=None, _real=config.rig_from_config):
        bases.append(base_mm)
        return _real(cfg, base_mm)

    monkeypatch.setattr(config, "rig_from_config", rig_from_config)
    calls = _count_renders(monkeypatch)
    experiments.run_experiment(cfg)
    assert sorted(bases) == units
    assert len(calls) > len(units)


def test_extension_scan_stops_before_the_probe_leg():
    # with a 10 mm lens separation the 400 mm train is valid and its gate
    # passes down to the 200 mm mirror-to-lens leg, where the eye would sit
    # on the mirror centre
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(base_distances_mm=[400.0], grid_mm=50.0, repeats=1)
    cfg["train"] = {"d_ot_mm": 10.0}
    res = experiments.run_dof_extension(config.validate_config(cfg))
    positions = [row[2] for row in res.rows]
    assert min(positions) == 250.0
    assert all(p > PROBE_RIG.lens_height_mm for p in positions)
    assert res.stats[400.0]["front_mm"] == 150.0
    # every cell passed, so the guard, not the gate, ended both scans
    assert all(row[-1] for row in res.rows)
    assert res.stats["guard_cut"] == [(400.0, "front"), (400.0, "rear")]
    assert res.summary[0] == ("dof_extension: base 0.4 m -> front ≥ 0.15 m, "
                              "rear ≥ 0.8 m, total ≥ 0.95 m")


def _linear_scan(cfg, rig, repeat):
    """Reference: one (base, repeat) scanned alone on the base's rig, front then rear."""
    grid = cfg["experiment"]["grid_mm"]
    base = rig.train.d_ref_mm
    ok0, row0 = experiments._extension_cell(cfg, rig, base, repeat)
    rows = [row0]
    extent = {-1.0: 0.0, 1.0: 0.0}
    cut = set()
    if ok0:
        for sign, side in ((-1.0, "front"), (1.0, "rear")):
            k = 1
            while True:
                d = base + sign * k * grid
                if d < 0.3 * base or d > 3.0 * base or d <= PROBE_RIG.lens_height_mm:
                    cut.add(side)
                    break
                ok, row = experiments._extension_cell(cfg, rig, d, repeat)
                rows.append(row)
                if not ok:
                    break
                extent[sign] = k * grid
                k += 1
    rows.sort(key=lambda r: r[2])
    return extent[-1.0], extent[1.0], cut, rows


def _assert_search_equals_linear_scan(cfg):
    """The lockstep search against ``_linear_scan``, repeat by repeat."""
    exp = cfg["experiment"]
    res = experiments.run_dof_extension(cfg)
    guard_cut = []
    rigs = {base: config.rig_from_config(cfg, base) for base in exp["base_distances_mm"]}
    for base in exp["base_distances_mm"]:
        scans = [_linear_scan(cfg, rigs[base], r) for r in range(exp["repeats"])]
        assert res.stats[base]["front_mm"] == float(np.mean([s[0] for s in scans]))
        assert res.stats[base]["rear_mm"] == float(np.mean([s[1] for s in scans]))
        cut = set().union(*(s[2] for s in scans))
        guard_cut += [(base, side) for side in ("front", "rear") if side in cut]
    assert res.stats["guard_cut"] == guard_cut
    # each row is its cell's, grouped by base then repeat, in position order
    for row in res.rows:
        base, repeat, d = row[:3]
        assert row == experiments._extension_cell(cfg, rigs[base], d, repeat)[1]
    keys = [(exp["base_distances_mm"].index(row[0]), row[1], row[2]) for row in res.rows]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("experiment, train", [
    ({"base_distances_mm": [5000.0], "grid_mm": 200.0, "repeats": 3}, {}),
    # every cell passes, so the guard ends both sides of both repeats
    ({"base_distances_mm": [400.0], "grid_mm": 100.0, "repeats": 2}, {"d_ot_mm": 10.0}),
    # the runner pairs each base with its front and rear units
    ({"base_distances_mm": [1000.0, 3000.0], "grid_mm": 200.0, "repeats": 2}, {}),
])
def test_lockstep_walk_equals_the_per_repeat_linear_scan(experiment, train):
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(experiment)
    cfg["train"] = train
    _assert_search_equals_linear_scan(config.validate_config(cfg))


@pytest.mark.parametrize("experiment, sections", [
    # both edges lie about 30 cells out, so the gallop overshoots them
    ({"base_distances_mm": [5000.0], "grid_mm": 10.0, "repeats": 2},
     {"lens": {"power_min_dpt": -1.0, "power_max_dpt": 1.0}}),
    # the base cell fails, so every extent is 0
    ({"base_distances_mm": [5000.0], "grid_mm": 200.0, "repeats": 2},
     {"quality": {"min_px_across_iris": 1000.0}}),
])
def test_search_past_the_edge_or_from_a_failing_base_equals_the_linear_scan(
        experiment, sections):
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(experiment)
    cfg.update(sections)
    _assert_search_equals_linear_scan(config.validate_config(cfg))


def _linear_edge(n, edge, start):
    """Reference: scan cells start .. n - 1 until one fails (cell k passes iff k < edge).

    Returns the last passing cell, ``start - 1`` when the first scanned cell fails.
    """
    last = start - 1
    for k in range(start, n):
        if not k < edge:
            break
        last = k
    return last


def test_search_finds_the_linear_scan_edge_on_every_walk(monkeypatch):
    # No rendering: cell k of every walk passes iff k is below its repeat's edge.
    # The front walk probes the base cell, cell 0; the rear walk takes it as
    # passed and scans from cell 1.
    edges = {}
    calls = []

    def fake_cell(cfg, rig, d, repeat):
        k = int(d)
        calls.append((repeat, k))
        return k < edges[repeat], (repeat, k)

    monkeypatch.setattr(experiments, "_extension_cell", fake_cell)
    cfg = {"seed": 0, "experiment": {"grid_mm": 10.0, "repeats": 3}}
    for n, (sign, start) in itertools.product(range(1, 72), [(-1.0, 0), (1.0, 1)]):
        monkeypatch.setattr(config, "side_walk", lambda base, grid, s, n=n: (n, float))
        bound = config.walk_renders(n)
        assert bound == min(n, 2 * math.ceil(math.log2(n)) + 2)
        for edge in range(n + 1):
            edges.update({0: edge, 1: n - edge, 2: 7 * edge % (n + 1)})
            calls.clear()
            rows, lo, walk_n = experiments._extension_side((cfg, 5000.0, sign))
            assert walk_n == n
            assert lo == [_linear_edge(n, edges[r], start) for r in range(3)]
            for r in range(3):
                probed = [k for rr, k in calls if rr == r]
                assert len(probed) <= bound - start
                assert (0 in probed) == (start == 0)
                assert rows[r] == [(r, k) for k in sorted(set(probed))]
                assert len(set(probed)) == len(probed)


def _count_renders(mp: pytest.MonkeyPatch) -> list[dict]:
    """Record the keyword arguments of every render a runner asks for."""
    calls = []
    for module in (calibration, experiments, scheduler):
        def render_eye(*args, _real=module.render_eye, **kwargs):
            calls.append(kwargs)
            return _real(*args, **kwargs)
        mp.setattr(module, "render_eye", render_eye)
    return calls


_PASS_ALL = {"sharpness_min": 1e-9, "min_px_across_iris": 1.0}


def test_dof_extension_renders_no_more_than_it_queues(monkeypatch):
    # every cell passes, so each repeat's search gallops both sides out to the
    # guard (0.3x and 3x the base): cells 0, 1, 2 of the 3-cell front walk and
    # 1, 2, 4, 8 of the 9-cell rear walk
    cfg = config.default_config("dof_extension")
    cfg["experiment"].update(base_distances_mm=[1000.0], grid_mm=250.0, repeats=2)
    cfg["quality"] = _PASS_ALL
    cfg = config.validate_config(cfg)
    calls = _count_renders(monkeypatch)
    res = experiments.run_dof_extension(cfg)
    distances = [c["eye_pos_mm"][1] + PROBE_RIG.lens_height_mm for c in calls]
    assert res.stats["guard_cut"] == [(1000.0, "front"), (1000.0, "rear")]
    # only the front walk renders the base cell of each repeat, as its step 0
    assert distances.count(1000.0) == 2
    assert sorted(distances) == sorted(2 * [500.0, 750.0, 1000.0, 1250.0,
                                            1500.0, 2000.0, 3000.0])
    # on walks this short the worst case, min(n, 2 ceil(log2 n) + 2), is every
    # cell, the base cell counted once
    assert len(distances) == 14 < config.queued_renders(cfg["experiment"]) == 2 * (3 + 9 - 1)


def _brute_force_walk(base, grid, sign):
    """Reference: the cells of one side walk, stepped out to the guard by hand."""
    cells = []
    k = 0
    while True:
        d = base + sign * k * grid
        if d < 0.3 * base or d > 3.0 * base or d <= PROBE_RIG.lens_height_mm:
            return cells
        cells.append(d)
        k += 1


def _gallop(n):
    """Cells an all-passing search of an n-cell walk probes: 0, 1, 2, 4, ... and n - 1."""
    return sorted({0, n - 1} | {2 ** j for j in range(n.bit_length()) if 2 ** j < n})


def _counts(lo, hi):
    """Whole numbers, some written as floats: the schema takes 3.0 as an integer."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


_EXPERIMENTS = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("dof_table"),
        "distances_mm": st.lists(st.floats(50.0, 20000.0), min_size=1, max_size=3)}),
    st.fixed_dictionaries({
        "kind": st.just("dof_extension"),
        "base_distances_mm": st.lists(st.floats(150.0, 1000.0), min_size=1, max_size=2),
        "grid_mm": st.floats(250.0, 800.0), "repeats": _counts(1, 2)}),
    st.fixed_dictionaries({
        "kind": st.just("hd_curve"), "base_mm": st.floats(1000.0, 6000.0),
        "grid_mm": st.floats(500.0, 2000.0), "span_near_mm": st.floats(1.0, 2000.0),
        "span_far_mm": st.floats(1.0, 3000.0), "repeats": _counts(1, 2),
        "impostor_pairs": _counts(0, 1)}),
    st.fixed_dictionaries({
        "kind": st.just("multiperson"),
        "subjects": st.tuples(st.floats(500.0, 12000.0), st.floats(500.0, 12000.0),
                              st.floats(1000.0, 2400.0)).map(lambda t: [
            {"subject_id": "a", "identity_seed": 1, "distance_mm": t[0], "height_mm": t[2]},
            {"subject_id": "b", "identity_seed": 2, "distance_mm": t[1],
             "height_mm": 1700.0}]),
        "dwell_budget": _counts(1, 2)}),
    st.fixed_dictionaries({
        "kind": st.just("iom"), "n_frames": _counts(1, 2), "start_frame": _counts(2, 16),
        "start_y_mm": st.floats(200.0, 5000.0), "speed_mmps": st.floats(100.0, 4000.0),
        "jitter_sigma_mm": st.floats(0.0, 10.0)}),
)
_SECTIONS = st.fixed_dictionaries({}, optional={
    # a 10 mm lens separation makes trains valid down to a 200 mm base
    "train": st.sampled_from([{"d_ot_mm": 10.0}, {"f_zoom_mm": 210.0, "d_ref_mm": 3200.0},
                              {"f_zoom_mm": 210.0, "d_ref_mm": 30000.0}]),
    "quality": st.just(_PASS_ALL),
    "rig": st.fixed_dictionaries({"mirror_height_mm": st.floats(500.0, 2000.0)}),
})


@settings(max_examples=30)
@given(experiment=_EXPERIMENTS, sections=_SECTIONS)
# the walk's last rear cell lands on 3x the base only after float rounding
@example(experiment={"kind": "dof_extension", "base_distances_mm": [599.4],
                     "grid_mm": 33.3, "repeats": 1},
         sections={"train": {"d_ot_mm": 10.0}, "quality": _PASS_ALL})
# one run of every other kind, whatever the draws
@example(experiment={"kind": "dof_table", "distances_mm": [1000.0, 5000.0]}, sections={})
@example(experiment={"kind": "hd_curve", "base_mm": 5000.0, "grid_mm": 1000.0,
                     "span_near_mm": 1000.0, "span_far_mm": 1000.0, "repeats": 1,
                     "impostor_pairs": 1}, sections={})
@example(experiment={"kind": "multiperson", "subjects": [
    {"subject_id": "a", "identity_seed": 1, "distance_mm": 4380.0, "height_mm": 1540.0},
    {"subject_id": "b", "identity_seed": 2, "distance_mm": 6340.0, "height_mm": 1700.0}],
    "dwell_budget": 1}, sections={})
@example(experiment={"kind": "iom", "n_frames": 1, "start_y_mm": 3800.0,
                     "speed_mmps": 1000.0, "jitter_sigma_mm": 3.0},
         sections={"train": {"f_zoom_mm": 210.0, "d_ref_mm": 3200.0},
                   "rig": {"mirror_height_mm": 1580.0}})
def test_config_runs_or_fails_validation(experiment, sections):
    cfg = {"version": 1, "experiment": dict(experiment), **sections}
    try:
        config.validate_config(cfg)
    except config.ConfigError:
        event(f"{experiment['kind']} exits 2")
        return
    event(f"{experiment['kind']} runs")
    experiment = cfg["experiment"]  # validated: every count an int
    counts = ("repeats", "impostor_pairs", "dwell_budget", "n_frames", "start_frame")
    assert all(type(experiment[key]) is int for key in counts if key in experiment)
    queued = config.queued_renders(experiment)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_renders(mp)
        result = experiments.run_experiment(cfg)
    assert len(calls) <= queued
    if experiment["kind"] == "dof_extension":
        walks = {base: [_brute_force_walk(base, experiment["grid_mm"], sign)
                        for sign in (-1.0, 1.0)]
                 for base in experiment["base_distances_mm"]}
        # a base listed twice is searched twice; each base cell is rendered once
        lengths = [len(walk) for base in experiment["base_distances_mm"] for walk in walks[base]]
        assert queued == experiment["repeats"] * (sum(
            min(n, 2 * math.ceil(math.log2(n)) + 2) for n in lengths)
            - len(experiment["base_distances_mm"]))
        if all(row[-1] for row in result.rows):
            # no gate failed: each search galloped through cells 0, 1, 2, 4, ...
            # and ended on each walk's last cell
            positions = []
            for base in experiment["base_distances_mm"]:
                front, rear = ([walk[k] for k in _gallop(len(walk))] for walk in walks[base])
                positions += experiment["repeats"] * (front[::-1] + rear[1:])
            assert [row[2] for row in result.rows] == positions
    if experiment["kind"] == "iom":
        assert len(result.rows) == 2 * experiment["n_frames"]


def _hd_rig(**sections):
    # unvalidated: a narrow lens range leaves the canonical span out of focus reach
    cfg = config.default_config("hd_curve") | sections
    return config.rig_from_config(cfg, cfg["experiment"]["base_mm"])


def test_analytic_limits_sit_on_their_anchors():
    rig = _hd_rig()
    assert rig.train == optics.OpticalTrain()
    near, far = experiments.analytic_extension_limits(rig)
    assert near == pytest.approx(ASTIG_ANCHOR_DISTANCE, abs=1e-3)
    assert optics.pixels_across_iris(rig.train, far) == pytest.approx(200.0, abs=1e-6)


def test_analytic_near_limit_moves_with_the_lens_power_max():
    # from 4.76 dpt, the power that focuses the 3.8 m anchor, astigmatism binds
    # first; a lens that cannot reach it stops the near limit at its reach
    nears = []
    for power_max in (1.0, 2.0, 3.0, 3.5):
        rig = _hd_rig(lens={"power_max_dpt": power_max})
        near, _ = experiments.analytic_extension_limits(rig)
        reach = optics.focus_distance_for_power(rig.train, power_max)
        assert near == pytest.approx(reach, rel=1e-8)
        nears.append(near)
    assert nears == sorted(nears, reverse=True)
    assert nears[-1] > ASTIG_ANCHOR_DISTANCE
    for power_max in (5.0, 10.0):
        near, _ = experiments.analytic_extension_limits(_hd_rig(lens={"power_max_dpt": power_max}))
        assert near == pytest.approx(ASTIG_ANCHOR_DISTANCE, abs=1e-3)


def test_analytic_limits_take_the_rigs_resolution_gate_and_power_min():
    _, far = experiments.analytic_extension_limits(_hd_rig())
    rig = _hd_rig(lens={"power_min_dpt": -5.0})
    _, far_reach = experiments.analytic_extension_limits(rig)
    assert far_reach == optics.focus_distance_for_power(rig.train, -5.0) < far
    rig = _hd_rig(quality={"min_px_across_iris": 220.0})
    _, far_220 = experiments.analytic_extension_limits(rig)
    assert optics.pixels_across_iris(rig.train, far_220) == pytest.approx(220.0, abs=1e-6)
    assert far_220 < far


def test_analytic_far_limit_with_an_infinite_power_min_reach():
    # a 10 mm lens separation lets -10 dpt focus past infinity
    rig = _hd_rig(train={"d_ot_mm": 10.0})
    assert optics.focus_distance_for_power(rig.train, -10.0) == math.inf
    _, far = experiments.analytic_extension_limits(rig)
    assert optics.pixels_across_iris(rig.train, far) == pytest.approx(200.0, abs=1e-6)


@pytest.fixture(scope="module")
def small_extension_cfg():
    cfg = config.default_config("dof_extension")
    cfg["experiment"]["base_distances_mm"] = [5000.0]
    cfg["experiment"]["grid_mm"] = 100.0
    cfg["experiment"]["repeats"] = 2
    return cfg


def test_extension_scan_small_grid(small_extension_cfg):
    res = experiments.run_dof_extension(small_extension_cfg)
    stats = res.stats[5000.0]
    # crossings live at 3.8 m and 7.7 m; a 0.1 m grid sees them one step coarse
    assert stats["front_mm"] == pytest.approx(1200.0, abs=100.0)
    assert stats["rear_mm"] == pytest.approx(2700.0, abs=100.0)
    keys = [(r[0], r[1], r[2]) for r in res.rows]
    assert keys == sorted(keys)


def test_extension_parallel_matches_serial(small_extension_cfg):
    serial = experiments.run_dof_extension(small_extension_cfg)
    parallel = experiments.run_experiment(small_extension_cfg, parallel=True)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary


SMALL_SWEEPS = {
    "dof_extension": {"base_distances_mm": [5000.0], "grid_mm": 400.0, "repeats": 2},
    "hd_curve": {"span_near_mm": 300.0, "span_far_mm": 300.0, "repeats": 2,
                 "impostor_pairs": 2},
}


def _small_sweep(kind):
    cfg = config.default_config(kind)
    cfg["experiment"].update(SMALL_SWEEPS[kind])
    return cfg


def _cold_reversed_map(fn, units):
    """A pool's map at its least like a serial run: the units in reverse order,
    each on the empty caches of a fresh worker, and the results in unit order."""
    def cold(unit):
        for cache in (renderer._clean_image, renderer._polar_map, renderer._noise_stream,
                      quality._annulus, texture._sheet):
            cache.cache_clear()
        return fn(unit)
    return [cold(unit) for unit in units[::-1]][::-1]


@pytest.mark.parametrize("kind", SMALL_SWEEPS)
def test_sweep_units_do_not_depend_on_their_order_or_the_caches_they_find(kind):
    # what makes a --parallel run byte-identical to a serial one, checked without a pool
    serial = experiments.run_experiment(_small_sweep(kind))
    cold = experiments.SWEEPS[kind](_small_sweep(kind), _cold_reversed_map)
    assert cold.rows == serial.rows
    assert cold.summary == serial.summary


def test_a_parallel_sweep_opens_one_pool_and_a_serial_run_none(monkeypatch):
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    serial = experiments.run_experiment(_small_sweep("hd_curve"))
    assert opened == []
    parallel = experiments.run_experiment(_small_sweep("hd_curve"), parallel=True)
    assert len(opened) == 1
    assert parallel.rows == serial.rows


@pytest.fixture(scope="module")
def small_hd():
    cfg = config.default_config("hd_curve")
    cfg["experiment"].update(span_near_mm=300.0, span_far_mm=300.0,
                             repeats=2, impostor_pairs=3)
    return experiments.run_hd_curve(cfg)


def _written_bytes(result, out_dir):
    experiments.write_result(result, out_dir)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_sweep_outputs_do_not_depend_on_the_noise_streams_held(tmp_path,
                                                               small_extension_cfg):
    # the three runs share repeat noise seeds, so each one starts on streams
    # the one before it drew, over other box sizes
    hd_cfg = config.default_config("hd_curve")
    hd_cfg["experiment"].update(span_near_mm=300.0, span_far_mm=300.0,
                                repeats=3, impostor_pairs=3)
    runs = [(experiments.run_dof_extension, small_extension_cfg),
            (experiments.run_hd_curve, hd_cfg),
            (experiments.run_dof_extension, small_extension_cfg)]
    warm = [_written_bytes(run(cfg), tmp_path / f"warm{i}") for i, (run, cfg) in enumerate(runs)]
    for i, (run, cfg) in enumerate(runs):
        renderer._noise_stream.cache_clear()
        assert _written_bytes(run(cfg), tmp_path / f"cold{i}") == warm[i]


def test_hd_curve_self_match_is_tight(small_hd):
    assert small_hd.stats["self_match"] < 0.05


def test_hd_curve_in_range_positions_all_match(small_hd):
    assert all(hd < 0.32 for hd in small_hd.stats["mean_hd"].values())


def test_hd_curve_impostors_do_not_match(small_hd):
    assert small_hd.stats["impostor_min"] > 0.32
    assert small_hd.stats["impostor_n"] == 3


def test_multiperson_criteria():
    res = experiments.run_multiperson(config.default_config("multiperson"))
    assert all(res.stats["matched"].values())
    assert all(hd > 0.32 for hd in res.stats["cross_hd"].values())
    assert res.stats["total_ms"] < 1000.0
    assert len(res.frames) == 2


def test_iom_tracks_the_walker():
    res = experiments.run_iom(config.default_config("iom"))
    v = res.stats["variants"]
    assert v["jitter"]["qualified"] >= 3
    assert v["nojitter"]["qualified"] >= 10
    for variant in v.values():
        assert all(2400.0 <= r <= 3400.0 for r in variant["ranges_mm"])


def _all_written_bytes(result, out_dir):
    experiments.write_result(result, out_dir, dump_frames=True)
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_canonical_iom_builds_each_noise_stream_once(monkeypatch):
    # 15 frames exposed by both walkers on one frame clock, and the enrolment
    built = []
    init = renderer._NoiseStream.__init__

    def counted(self, noise_seed):
        built.append(noise_seed)
        init(self, noise_seed)

    renderer._noise_stream.cache_clear()
    monkeypatch.setattr(renderer._NoiseStream, "__init__", counted)
    experiments.run_iom(config.default_config("iom"))
    assert len(built) == len(set(built)) == 16


def test_iom_outputs_do_not_depend_on_the_noise_streams_held(tmp_path, monkeypatch):
    cfg = config.default_config("iom")
    renderer._noise_stream.cache_clear()
    cold = _all_written_bytes(experiments.run_iom(cfg), tmp_path / "cold")
    assert len(cold) == 2 + 30  # the CSV, the summary and every walker frame
    # the run before left its last streams held, drawn over the same boxes
    assert _all_written_bytes(experiments.run_iom(cfg), tmp_path / "warm") == cold
    # no stream held, so every exposure draws its own; or one, which the
    # second walker of each frame finds
    for held in (0, 1):
        monkeypatch.setattr(renderer, "_noise_stream",
                            functools.lru_cache(maxsize=held)(renderer._NoiseStream))
        assert _all_written_bytes(experiments.run_iom(cfg), tmp_path / f"held{held}") == cold


def test_iom_summary_names_the_walking_speed():
    cfg = config.default_config("iom")
    cfg["experiment"].update(n_frames=1, speed_mmps=2000.0)
    res = experiments.run_iom(config.validate_config(cfg))
    assert res.summary[-1] == "iom: frame spacing 32.7869 ms at 2 m/s walk"


def test_frame_with_no_pupil_to_find_does_not_qualify():
    # the gates pass everything, but at 2.2 m the clamped lens blurs the
    # walker's eye by 150 px, and iris detection finds no pupil
    cfg = {"version": 1, "quality": _PASS_ALL, "rig": {"mirror_height_mm": 700.0},
           "experiment": {"kind": "iom", "n_frames": 1, "start_y_mm": 3756.0,
                          "speed_mmps": 3315.0}}
    res = experiments.run_iom(config.validate_config(cfg))
    assert [row[7] for row in res.rows] == [False, False]
    assert res.frames == []


def test_write_result_outputs(tmp_path, table):
    experiments.write_result(table, tmp_path, dump_frames=True)
    assert (tmp_path / "dof_table.csv").exists()
    assert (tmp_path / "summary.txt").read_text().startswith("dof_table:")
    # no frames from an optics-only table
    assert not (tmp_path / "frames").exists()
