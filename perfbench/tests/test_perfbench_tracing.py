import importlib

import pytest

from perfbench import tracing
from perfbench.tracing import Span, Tracer, self_seconds, span_table
from perfbench.workloads import Run


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "r")


def test_self_time_nested_and_back_to_back():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("leaf", 2.0, 3.0, 1),
        _span("b", 4.0, 6.0, 0),   # starts where a ends
        _span("b", 6.0, 6.5, 0),   # and another b right after it
        _span("top2", 10.0, 12.0, None),
    ]
    assert self_seconds(spans) == pytest.approx([4.5, 2.0, 1.0, 2.0, 0.5, 2.0])
    table = span_table(spans)
    assert table["b"]["calls"] == 2
    assert table["b"]["total_s"] == pytest.approx(2.5)
    assert table["b"]["self_s"] == pytest.approx(2.5)
    assert table["root"]["total_s"] == pytest.approx(10.0)


def test_self_time_clips_children_and_merges_overlaps():
    spans = [
        _span("p", 0.0, 4.0, None),
        _span("c1", -1.0, 2.0, 0),  # sticks out of its parent
        _span("c2", 1.0, 3.0, 0),   # overlaps c1
    ]
    assert self_seconds(spans)[0] == pytest.approx(1.0)


def test_tracer_links_parents_and_run_id():
    tracer = Tracer("run-7")
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert tracer.open_names() == ["outer", "inner"]
        with tracer.span("inner"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert {s.run_id for s in tracer.spans} == {"run-7"}
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.open_names() == []


def _originals():
    out = {}
    for point in tracing.WRAP_POINTS:
        module = importlib.import_module(f"wearbench.{point.module}")
        out[(point.module, point.attr)] = getattr(module, point.attr)
    return out


def _current():
    return {key: getattr(importlib.import_module(f"wearbench.{key[0]}"),
                         key[1]) for key in _originals()}


def test_traced_run_restores_every_attribute(tmp_path):
    from wearbench import cli
    before = _originals()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bench": {"grids": {"knn": [{"k": 3}]}}}')
    data, out = tmp_path / "data", tmp_path / "out"
    run = Run(cli)
    tracer = Tracer("t")
    with tracing.instrumented(tracer):
        assert all(_current()[k] is not v for k, v in before.items())
        run.tracer = tracer
        run.call("--out", data, "--seed", 3, "synth", "--n-unipolar", 2,
                 "--n-bipolar", 2, "--duration", 70)
        run.call("--data-root", data, "--manifest", data / "manifest.csv",
                 "--out", out, "extract")
        run.call("--config", cfg, "--out", out, "bench", "--features", "acc",
                 "--models", "knn")
    assert run.failed == 0 and run.attempted == 3
    after = _current()
    assert all(after[k] is v for k, v in before.items())

    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["session_io.rows_written"] == metrics["session_io.rows_parsed"]
    assert metrics["session_io.rows_parsed"] > 0
    assert metrics["models.train.knn.calls"] == metrics["mlbench.folds"] == 4
    assert metrics["mlbench.grid_points"] == 1
    assert metrics["hrv.beats"] > 0 and 0 < metrics["hrv.nn_kept_ratio"] <= 1
    assert metrics["dsp.filtfilt.bvp.self_s"] > 0
    assert metrics["dsp.filtfilt.acc.self_s"] > 0
    assert metrics["dsp.filtfilt.eda.self_s"] > 0
    assert metrics["models.predict.knn.self_s"] > 0
    assert {s.name for s in tracer.spans if s.parent is None} == {"cli.main"}


def test_attributes_restored_when_the_run_fails():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(Tracer("t")):
            raise RuntimeError("boom")
    after = _current()
    assert all(after[k] is v for k, v in before.items())


def test_missing_wrap_point_is_skipped():
    point = tracing.WrapPoint("dsp", "no_such_function", "x")
    with tracing.instrumented(Tracer("t"), points=(point,)):
        pass
    assert not hasattr(importlib.import_module("wearbench.dsp"),
                       "no_such_function")
