import json

import numpy as np
import pytest

from perfbench.metrics import ModeledMismatch, check_modeled_repeats
from perfbench.tracing import (
    SETUP_OP,
    SpanRecorder,
    install,
    layer_totals,
    spans_document,
    time_within,
)


def ticking_clock():
    """A clock that advances one second per reading."""
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    return clock


def nested_recorder():
    recorder = SpanRecorder(clock=ticking_clock())
    recorder.current_op = 0
    with recorder.span("op"):  # 1 .. 12
        with recorder.span("engine"):  # 2 .. 9
            with recorder.span("codelet"):  # 3 .. 4
                pass
            with recorder.span("codelet"):  # 5 .. 8
                with recorder.span("inner"):  # 6 .. 7
                    pass
        with recorder.span("host"):  # 10 .. 11
            pass
    return recorder


def test_self_time_subtracts_direct_children_only():
    totals = layer_totals(nested_recorder())
    assert totals["op"].total_s == 11.0
    assert totals["op"].self_s == 11.0 - 7.0 - 1.0
    assert totals["engine"].self_s == 7.0 - 1.0 - 3.0
    assert totals["codelet"].count == 2
    assert totals["codelet"].total_s == 4.0
    assert totals["codelet"].self_s == 4.0 - 1.0
    assert totals["inner"].self_s == 1.0


def test_time_within_walks_ancestors():
    recorder = nested_recorder()
    assert time_within(recorder, "op", "inner") == 1.0
    assert time_within(recorder, "host", "inner") == 0.0
    assert time_within(recorder, "op", "missing") == 0.0


def test_setup_spans_are_kept_apart():
    recorder = SpanRecorder(clock=ticking_clock())
    with recorder.span("compile"):
        pass
    recorder.current_op = 0
    with recorder.span("op"):
        pass
    assert set(layer_totals(recorder)) == {"op"}
    assert set(layer_totals(recorder, setup=True)) == {"compile"}
    assert recorder.op[0] == SETUP_OP


def test_spans_document_validates_and_exports():
    from repro.obs.export import perfetto_from_documents, validate_perfetto, validate_spans

    recorder = nested_recorder()
    recorder.current_op = 1
    with recorder.span("op"):
        with recorder.span("engine"):
            pass
    document = spans_document(recorder, max_ops=1, meta={"workload": "test"})
    validate_spans(json.loads(json.dumps(document)))
    assert {span["correlation_id"] for span in document["spans"]} == {"op-000000"}
    assert document["meta"]["spans_recorded"] == 8
    validate_perfetto(perfetto_from_documents(spans_document=document))


def test_install_times_every_layer_and_restores_it():
    from repro import HunIPUSolver, LAPInstance
    from repro.ipu.engine import Engine

    original = Engine.__dict__["run"]
    recorder = SpanRecorder()
    with install(recorder):
        assert Engine.__dict__["run"] is not original
        result = HunIPUSolver().resolve(LAPInstance(np.array([[4.0, 1.0], [2.0, 3.0]])), None)
    assert Engine.__dict__["run"] is original
    assert result.total_cost == 3.0
    names = set(recorder.names)
    for name in (
        "ipu.compile",
        "ipu.engine.run",
        "ipu.profiler.record_superstep",
        "core.solve",
        "core.resolve",
        "core.warmstart.from_solution",
    ):
        assert name in names
    assert any(name.startswith("ipu.codelet.") for name in names)


def test_modeled_repeats_must_match():
    assert check_modeled_repeats([(0, 5, 1.0), (1, 7, 2.0), (0, 5, 1.0)]) == {0: (5, 1.0), 1: (7, 2.0)}
    with pytest.raises(ModeledMismatch):
        check_modeled_repeats([(0, 5, 1.0), (0, 6, 1.0)])
