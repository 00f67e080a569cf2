"""Spans and counters recorded from outside the wearbench package.

A :class:`Tracer` keeps every span in memory: name, start, end, parent and
the run id. :func:`instrumented` replaces the public functions of each
module at the attribute its caller looks up (``pipeline.load_session``,
``dsp.filtfilt``, ``mlbench.train``, ...) with timing wrappers, and puts
the original objects back when the block ends, also when it raises.
Nothing in ``src/`` is edited; a wrap point the package no longer has is
skipped, and its metrics then read 0.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_seconds`).
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

MODEL_KINDS = ("knn", "dt", "rf", "gb", "svm", "mlp")
LOOCV_PREFIX = "mlbench.loocv_grid_search."
# span that called dsp.filtfilt -> the signal it filtered
FILTFILT_CALLERS = {
    "pipeline.extract_hrv_features": "bvp",
    "pipeline.extract_acc_features": "acc",
    "eda.decompose_eda": "eda",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: str


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def open_names(self) -> list[str]:
        """Names of the spans open now, outermost first."""
        return [self.spans[i].name for i in self._open]


# --- self time ------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_seconds(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each child clipped to the parent."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[i])
        out.append((s.end - s.start) - covered)
    return out


def span_table(spans: list[Span]) -> dict[str, dict]:
    """name -> calls, inclusive seconds, self seconds, per-call durations."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_seconds(spans)):
        row = table.setdefault(
            s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "durations": []})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        row["durations"].append(s.end - s.start)
    return table


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced round, keyed by metric name.
    ``wall_s`` is the time the round's CLI calls took.

    ``<span>.self_s`` exists for every span name seen; names never seen
    read 0 through :func:`select`.
    """
    table = span_table(tracer.spans)
    out: dict[str, float] = {f"{name}.self_s": row["self_s"]
                             for name, row in table.items()}
    for kind in MODEL_KINDS:
        row = table.get(LOOCV_PREFIX + kind)
        out[f"{LOOCV_PREFIX}{kind}.s"] = row["total_s"] if row else 0.0
        out[f"models.train.{kind}.calls"] = tracer.counts[f"train.{kind}"]
    for name in ("session_io.rows_parsed", "session_io.rows_written",
                 "dsp.samples_filtered", "hrv.beats", "eda.scr_events",
                 "pipeline.nan_families", "mlbench.grid_points",
                 "mlbench.folds"):
        out[name] = tracer.counts[name]
    offered = tracer.counts["hrv.intervals_offered"]
    out["hrv.nn_kept_ratio"] = (
        tracer.counts["hrv.intervals_kept"] / offered if offered else 0.0)
    per_subject = table.get("pipeline.extract_session_features",
                            {"durations": []})["durations"]
    out["pipeline.extract_session_features.p50_ms"] = \
        1000.0 * _percentile(per_subject, 50)
    out["pipeline.extract_session_features.p90_ms"] = \
        1000.0 * _percentile(per_subject, 90)
    top = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    out["trace.uncovered_share"] = (wall_s - top) / wall_s if wall_s > 0 \
        else 0.0
    return out


def select(measured: dict[str, float], names) -> dict[str, float]:
    """The named metrics; a span or counter that never fired reads 0."""
    return {name: measured.get(name, 0) for name in names}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}


# --- wrap points ------------------------------------------------------------------


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _filtfilt_name(tracer, args, kwargs) -> str:
    for name in reversed(tracer.open_names()):
        if name in FILTFILT_CALLERS:
            return f"dsp.filtfilt.{FILTFILT_CALLERS[name]}"
    return "dsp.filtfilt.other"


def _predict_name(tracer, args, kwargs) -> str:
    for name in reversed(tracer.open_names()):
        if name.startswith(LOOCV_PREFIX):
            return "models.predict." + name[len(LOOCV_PREFIX):]
    return "models.predict.other"


def _count_filtered(tracer, args, kwargs, result):
    tracer.count("dsp.samples_filtered", len(_arg(args, kwargs, 1, "signal")))


def _count_peaks_offered(tracer, args, kwargs):
    tracer.count("hrv.intervals_offered",
                 max(len(_arg(args, kwargs, 0, "peaks")) - 1, 0))


def _count_nn_kept(tracer, args, kwargs, result):
    tracer.count("hrv.intervals_kept", len(result.intervals_ms))


def _count_nan_families(tracer, args, kwargs, result):
    from wearbench.mlbench import FEATURE_GROUPS
    for family, names in FEATURE_GROUPS.items():
        if family != "all" and all(result[n] != result[n] for n in names):
            tracer.count("pipeline.nan_families")


def _count_train(tracer, args, kwargs, result):
    kind = _arg(args, kwargs, 0, "spec").kind.value
    tracer.count(f"train.{kind}")
    tracer.count("mlbench.folds")


def _count_grid(tracer, args, kwargs):
    tracer.count("mlbench.grid_points", len(_arg(args, kwargs, 2, "grid")))


@dataclass(frozen=True)
class WrapPoint:
    module: str  # wearbench submodule whose attribute the caller looks up
    attr: str
    name: object  # span name, or f(tracer, args, kwargs) -> span name
    before: object = None  # f(tracer, args, kwargs)
    after: object = None  # f(tracer, args, kwargs, result)


WRAP_POINTS = (
    # session_io, read and write side
    WrapPoint("session_io", "parse_channel_csv", "session_io.parse_channel_csv",
              after=lambda t, a, k, r: t.count("session_io.rows_parsed",
                                               r.n_samples)),
    WrapPoint("pipeline", "load_session", "session_io.load_session"),
    WrapPoint("pipeline", "validate_session", "session_io.validate_session"),
    WrapPoint("session_io", "serialize_channel_csv",
              "session_io.serialize_channel_csv",
              before=lambda t, a, k: t.count(
                  "session_io.rows_written",
                  _arg(a, k, 0, "channel").n_samples)),
    WrapPoint("synth", "generate_cohort", "synth.generate_cohort"),
    # signal chain
    WrapPoint("dsp", "detrend", "dsp.detrend"),
    WrapPoint("dsp", "filtfilt", _filtfilt_name, after=_count_filtered),
    WrapPoint("dsp", "design_butterworth", "dsp.design_butterworth"),
    WrapPoint("dsp", "welch_psd", "dsp.welch_psd"),
    WrapPoint("hrv", "detect_pulse_peaks", "hrv.detect_pulse_peaks",
              after=lambda t, a, k, r: t.count("hrv.beats", len(r))),
    WrapPoint("hrv", "peaks_to_nn", "hrv.peaks_to_nn",
              before=_count_peaks_offered, after=_count_nn_kept),
    WrapPoint("hrv", "hrv_time_features", "hrv.hrv_time_features"),
    WrapPoint("hrv", "hrv_freq_features", "hrv.hrv_freq_features"),
    WrapPoint("eda", "decompose_eda", "eda.decompose_eda"),
    WrapPoint("eda", "detect_scr", "eda.detect_scr",
              after=lambda t, a, k, r: t.count("eda.scr_events", len(r))),
    WrapPoint("actigraphy", "acc_features", "actigraphy.acc_features"),
    WrapPoint("thermo", "temp_features", "thermo.temp_features"),
    # pipeline glue
    WrapPoint("pipeline", "run_extract", "pipeline.run_extract"),
    WrapPoint("pipeline", "extract_session_features",
              "pipeline.extract_session_features", after=_count_nan_families),
    WrapPoint("pipeline", "extract_hrv_features",
              "pipeline.extract_hrv_features"),
    WrapPoint("pipeline", "extract_eda_features",
              "pipeline.extract_eda_features"),
    WrapPoint("pipeline", "extract_acc_features",
              "pipeline.extract_acc_features"),
    WrapPoint("pipeline", "extract_temp_features",
              "pipeline.extract_temp_features"),
    WrapPoint("pipeline", "write_features_csv", "pipeline.write_features_csv"),
    WrapPoint("pipeline", "write_validation_json",
              "pipeline.write_validation_json"),
    WrapPoint("pipeline", "read_features_csv", "pipeline.read_features_csv"),
    # benchmark and models
    WrapPoint("mlbench", "loocv_grid_search",
              lambda t, a, k: LOOCV_PREFIX + _arg(a, k, 1, "kind").value,
              before=_count_grid),
    WrapPoint("mlbench", "assemble_matrix", "mlbench.assemble_matrix"),
    WrapPoint("mlbench", "fit_standardizer", "mlbench.standardize"),
    WrapPoint("mlbench", "apply_standardizer", "mlbench.standardize"),
    WrapPoint("mlbench", "train",
              lambda t, a, k: "models.train."
              + _arg(a, k, 0, "spec").kind.value,
              after=_count_train),
    WrapPoint("mlbench", "predict", _predict_name),
)


def _wrap(tracer: Tracer, original, point: WrapPoint):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = point.name(tracer, args, kwargs) if callable(point.name) \
            else point.name
        if point.before is not None:
            point.before(tracer, args, kwargs)
        with tracer.span(name):
            result = original(*args, **kwargs)
        if point.after is not None:
            point.after(tracer, args, kwargs, result)
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer, points=WRAP_POINTS):
    """Wrap every point for the duration of the block, then restore the
    original attributes, in reverse order, whatever happens inside."""
    saved = []
    try:
        for point in points:
            module = importlib.import_module(f"wearbench.{point.module}")
            original = getattr(module, point.attr, None)
            if original is None:
                continue
            setattr(module, point.attr, _wrap(tracer, original, point))
            saved.append((module, point.attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
