"""Spans recorded from outside the program, and the per-layer table built from them.

The tracer wraps public functions at the module bindings their callers
actually resolve: ``from x import f`` copies the name, so each importing
module's copy is wrapped on its own.  A span is (name, start, end, parent,
run id) plus whatever the wrapper read off the call's arguments or result;
spans stay in memory until the benchmark writes them out.  Nothing here
imports the program, so the arithmetic can be tested on synthetic spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(args, result)`` adds attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.attrs.update(observe(args, result))
            return result
        return traced

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run, **s.attrs}
                for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.duration - covered)
    return out


def _seed(args, result):
    return {"seed": int(args[0])}


def _pixels(args, result):
    return {"px": int(result.image.size)}


def _passed(args, result):
    return {"passed": bool(result.passed)}


def _frames(args, result):
    return {"frames": len(result.frames())}


# (module, attribute, span name, what to read off the call)
BINDINGS = (
    ("renderer", "iris_texture", "texture", _seed),
    ("renderer", "render_eye", "renderer.render_eye", _pixels),
    ("calibration", "render_eye", "renderer.render_eye", _pixels),
    ("experiments", "render_eye", "renderer.render_eye", _pixels),
    ("scheduler", "render_eye", "renderer.render_eye", _pixels),
    ("renderer", "fftconvolve", "renderer.convolve", None),
    ("renderer", "gaussian_filter", "renderer.astig", None),
    ("quality", "evaluate", "quality.evaluate", _passed),
    ("scheduler", "evaluate", "quality.evaluate", _passed),
    ("quality", "sharpness_score", "quality.sharpness", None),
    ("quality", "brightness_score", "quality.brightness", None),
    ("quality", "gaussian_filter", "quality.bandpass", None),
    ("iriscode", "encode_frame", "iriscode.encode_frame", None),
    ("scheduler", "encode_frame", "iriscode.encode_frame", None),
    ("iriscode", "detect_circles", "iriscode.detect", None),
    ("iriscode", "unroll", "iriscode.unroll", None),
    ("iriscode", "encode_sheet", "iriscode.encode", None),
    ("iriscode", "hamming_distance", "iriscode.hamming", None),
    ("scheduler", "hamming_distance", "iriscode.hamming", None),
    ("iriscode", "to_bytes", "iriscode.codec", None),
    ("iriscode", "from_bytes", "iriscode.codec", None),
    ("experiments", "capture_sequence", "scheduler.capture_sequence", _frames),
    ("experiments", "track_and_capture", "scheduler.track_and_capture", _frames),
    ("scheduler", "plan_order", "scheduler.plan_order", None),
    ("experiments", "write_result", "experiments.write", None),
)


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every binding in ``modules`` (name -> module) for the block."""
    saved = []
    try:
        for mod_name, attr, span_name, observe in BINDINGS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span_name, original, observe))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ------------------------------------------------------------ layer table

_SCHEDULER_TOP = ("scheduler.capture_sequence", "scheduler.track_and_capture")


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile of ``values`` (statistics' exclusive method); 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def run_table(pairs: list[tuple[Span, float]]) -> dict[str, float]:
    """Span-derived metrics of one traced experiment run.

    ``pairs`` holds each span of the run with its self time.  Times named
    ``*_s`` are self time summed over the run; per-call figures (``ms_*``)
    use the whole span.
    """
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for s, own in pairs:
        by_name.setdefault(s.name, []).append((s, own))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(own for n in names for _, own in by_name.get(n, ()))

    def total_s(*names):
        return sum(s.duration for n in names for s, _ in by_name.get(n, ()))

    def attr(name, key):
        return [s.attrs[key] for s, _ in by_name.get(name, ())]

    seeds = attr("texture", "seed")
    renders = [s.duration * 1000.0 for s, _ in by_name.get("renderer.render_eye", ())]
    pixels = attr("renderer.render_eye", "px")
    passed = attr("quality.evaluate", "passed")
    n_eval = calls("quality.evaluate")
    frames = sum(attr("scheduler.capture_sequence", "frames")
                 + attr("scheduler.track_and_capture", "frames"))
    return {
        "texture.calls": calls("texture"),
        "texture.self_s": self_s("texture"),
        "texture.unique_ratio": len(set(seeds)) / len(seeds) if seeds else 0.0,
        "renderer.render_eye.calls": len(renders),
        "renderer.render_eye.ms_p50": statistics.median(renders) if renders else 0.0,
        "renderer.render_eye.ms_p90": _quantile(renders, 9),
        "renderer.render_eye.self_s": self_s("renderer.render_eye"),
        "renderer.convolve_s": self_s("renderer.convolve"),
        "renderer.astig_s": self_s("renderer.astig"),
        "renderer.px_per_frame": sum(pixels) / len(pixels) if pixels else 0.0,
        "quality.evaluate.calls": n_eval,
        "quality.evaluate.ms_per_call": (total_s("quality.evaluate") * 1000.0 / n_eval
                                         if n_eval else 0.0),
        "quality.sharpness_s": self_s("quality.sharpness"),
        "quality.brightness_s": self_s("quality.brightness"),
        "quality.bandpass_s": self_s("quality.bandpass"),
        "quality.pass_ratio": sum(passed) / n_eval if n_eval else 0.0,
        "iriscode.detect_s": self_s("iriscode.detect"),
        "iriscode.unroll_s": self_s("iriscode.unroll"),
        "iriscode.encode_s": self_s("iriscode.encode"),
        "iriscode.hamming.calls": calls("iriscode.hamming"),
        "iriscode.hamming_s": self_s("iriscode.hamming"),
        "iriscode.codec_s": self_s("iriscode.codec"),
        "scheduler.frames": frames,
        "scheduler.self_s": self_s(*_SCHEDULER_TOP, "scheduler.plan_order"),
        "scheduler.host_ms_per_frame": (total_s(*_SCHEDULER_TOP) * 1000.0 / frames
                                        if frames else 0.0),
        "experiments.renders": len(renders),
        "experiments.write_s": total_s("experiments.write"),
    }


def layer_table(spans: list[Span]) -> dict[str, float]:
    """Median over run ids of each run's table; counts repeat exactly."""
    runs: dict[int, list[tuple[Span, float]]] = {}
    for s, own in zip(spans, self_times(spans)):
        runs.setdefault(s.run, []).append((s, own))
    tables = [run_table(pairs) for pairs in runs.values()]
    out = {}
    for key in tables[0]:
        values = [t[key] for t in tables]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out
