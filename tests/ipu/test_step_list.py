"""The compiled superstep list: control flow, guards and cache safety.

:func:`repro.ipu.compiler.flatten_program` turns a program tree into one
flat list of steps with branches and jumps, and the engine runs that list.
These tests pin that the list runs exactly what the tree says — nested
loops, branches, fixed repeats (including zero), no-ops and copies, with
the same tracer events in the same order — and that a run which fails
part-way leaves the engine reusable, and a buffer rebind between runs is
never hidden by a cached view.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.ipu.codelets import Codelet
from repro.ipu.compiler import (
    BRANCH,
    EXECUTE,
    JUMP,
    LOOP_ENTER,
    LOOP_TEST,
    compile_graph,
    flatten_program,
)
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import AddToScalar, ScalarCompare
from repro.ipu.programs import (
    Copy,
    Execute,
    If,
    Nop,
    Repeat,
    RepeatWhileTrue,
    Sequence,
)
from repro.obs.trace import Tracer


class Increment(Codelet):
    """Add one to every element of the vertex's region."""

    fields = {"x": "inout"}

    def compute_all(self, views, params, cost):
        views["x"][...] += 1
        return np.full(views["x"].shape[0], 3.0)


class ArmedFault(Codelet):
    """Raise while the ``armed`` scalar is non-zero."""

    fields = {"armed": "in"}

    def compute_all(self, views, params, cost):
        if views["armed"][0, 0]:
            raise RuntimeError("armed fault fired")
        return np.ones(views["armed"].shape[0])


def _scalar_set(graph, name, codelet, fields, **params):
    compute_set = graph.add_compute_set(name)
    compute_set.add_vertex(
        codelet,
        0,
        {field: ComputeGraph.full(tensor) for field, tensor in fields.items()},
        params=params,
    )
    return compute_set


@pytest.fixture
def nested(toy_spec):
    """A program nesting every node kind.

    ``check`` sets ``flag = counter < 5``; the loop increments ``counter``
    and, while ``flag`` holds, adds 2 to ``other`` through a ``Repeat(2)``.
    After the loop ``flag`` is 0, so the final ``If`` takes its else arm.
    """
    graph = ComputeGraph(toy_spec)
    counter = graph.add_scalar("counter")
    flag = graph.add_scalar("flag")
    other = graph.add_scalar("other")
    tail = graph.add_scalar("tail")
    copied = graph.add_tensor(
        "copied", (1,), np.int32, mapping=TileMapping.single_tile(1, tile=1)
    )
    inc = _scalar_set(graph, "inc", AddToScalar(), {"out": counter}, value=1)
    bump = _scalar_set(graph, "bump", AddToScalar(), {"out": other}, value=1)
    dec = _scalar_set(graph, "dec", AddToScalar(), {"out": tail}, value=-1)
    check = _scalar_set(
        graph, "check", ScalarCompare("lt", 5), {"a": counter, "flag": flag}
    )
    body = Sequence(
        Execute(inc),
        If(flag, Repeat(2, Execute(bump)), Nop()),
        Repeat(0, Execute(inc)),
        Nop(),
        Execute(check),
    )
    program = Sequence(
        Execute(check),
        RepeatWhileTrue(flag, body),
        Copy(counter, copied),
        If(flag, Execute(inc), Sequence(Nop(), Execute(dec))),
    )
    tensors = {"counter": counter, "other": other, "tail": tail, "copied": copied}
    return graph, program, tensors


class TestNestedControlFlow:
    def test_runs_what_the_tree_says(self, nested):
        graph, program, tensors = nested
        report = Engine(graph, program).run()
        assert tensors["counter"].read_host()[0] == 5
        assert tensors["other"].read_host()[0] == 10
        assert tensors["copied"].read_host()[0] == 5
        assert tensors["tail"].read_host()[0] == -1
        # check + 5 x (inc + 2 bumps + check) + copy + dec
        assert report.supersteps == 1 + 5 * 4 + 1 + 1
        assert report.record_named("bump").executions == 10
        assert report.record_named("copy/counter->copied").exchange_bytes == 4

    def test_control_flow_events_in_tree_order(self, nested):
        graph, program, _ = nested
        tracer = Tracer(keep_loop_iters=True)
        Engine(graph, program).run(tracer=tracer)
        control = [
            (event.kind, event.data["name"], event.data.get("iteration"),
             event.data.get("iterations"), event.data.get("taken"))
            for event in tracer.events
            if event.kind in ("loop_enter", "loop_iter", "loop_exit", "branch")
        ]
        expected = [("loop_enter", "flag", None, None, None)]
        for iteration in range(1, 6):
            expected += [
                ("loop_iter", "flag", iteration, None, None),
                ("branch", "flag", None, None, "then"),
            ]
        expected += [
            ("loop_exit", "flag", None, 5, None),
            ("branch", "flag", None, None, "else"),
        ]
        assert control == expected
        supersteps = [e.data["name"] for e in tracer.events_of("superstep")]
        assert supersteps[:5] == ["check", "inc", "bump", "bump", "check"]
        assert supersteps[-2:] == ["copy/counter->copied", "dec"]

    def test_every_mode_and_depth_agrees(self, nested):
        graph, program, _ = nested
        reports = []
        for mode in ("batched", "per_tile"):
            for kwargs in ({}, {"profile_detail": False}, {"profile_tiles": True}):
                # Fresh graph state per run: the program mutates scalars.
                for tensor in graph.tensors:
                    tensor.write_host(0)
                reports.append(Engine(graph, program, mode=mode).run(**kwargs))
        for report in reports[1:]:
            assert report.supersteps == reports[0].supersteps
            assert report.device_seconds == reports[0].device_seconds


class TestFlattening:
    def test_repeat_zero_and_nop_emit_nothing(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        counter = graph.add_scalar("counter")
        inc = _scalar_set(graph, "inc", AddToScalar(), {"out": counter}, value=1)
        compiled = compile_graph(graph, Sequence(Repeat(0, Execute(inc)), Nop()))
        assert compiled.steps == ()
        assert compiled.counter_slots == 0

    def test_branch_and_loop_targets(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        counter = graph.add_scalar("counter")
        flag = graph.add_scalar("flag")
        inc = _scalar_set(graph, "inc", AddToScalar(), {"out": counter}, value=1)
        program = RepeatWhileTrue(flag, If(flag, Execute(inc)))
        compiled = compile_graph(graph, program)
        steps, slots = flatten_program(program, compiled.plans, toy_spec)
        assert steps == compiled.steps
        assert slots == 1
        kinds = [step[0] for step in steps]
        assert kinds == [LOOP_ENTER, LOOP_TEST, BRANCH, EXECUTE, JUMP]
        assert steps[1][3] == len(steps)  # loop exit: past the back-jump
        assert steps[2][2] == 4  # no else arm: skip the then body
        assert steps[4][1] == 1  # back to the loop test

    def test_shared_subprogram_is_emitted_per_occurrence(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        counter = graph.add_scalar("counter")
        inc = _scalar_set(graph, "inc", AddToScalar(), {"out": counter}, value=1)
        shared = Repeat(2, Execute(inc))
        engine = Engine(graph, Sequence(shared, shared))
        assert engine.compiled.counter_slots == 2
        assert engine.run().supersteps == 4
        assert counter.read_host()[0] == 4


class TestGuardsAndFaults:
    def test_max_iterations_guard_leaves_engine_reusable(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        counter = graph.add_scalar("counter")
        flag = graph.add_scalar("flag")
        inc = _scalar_set(graph, "inc", AddToScalar(), {"out": counter}, value=1)
        engine = Engine(
            graph, RepeatWhileTrue(flag, Execute(inc), max_iterations=3)
        )
        flag.write_host(1)
        with pytest.raises(ExecutionError, match="'flag' exceeded 3 iterations"):
            engine.run()
        # Exactly max_iterations bodies ran before the guard fired.
        assert counter.read_host()[0] == 3
        assert engine._running is False
        flag.write_host(0)
        assert engine.run().supersteps == 0

    def test_codelet_fault_mid_run_leaves_engine_reusable(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        counter = graph.add_scalar("counter")
        armed = graph.add_scalar("armed")
        inc = _scalar_set(graph, "inc", AddToScalar(), {"out": counter}, value=1)
        fault = _scalar_set(graph, "fault", ArmedFault(), {"armed": armed})
        engine = Engine(graph, Repeat(3, Sequence(Execute(inc), Execute(fault))))
        armed.write_host(1)
        tracer = Tracer()
        with pytest.raises(ExecutionError, match="'fault'") as info:
            engine.run(tracer=tracer)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert counter.read_host()[0] == 1  # failed in the first iteration
        assert engine._running is False
        assert engine._profiler is None
        assert not engine._tracer.enabled
        armed.write_host(0)
        report = engine.run()
        assert report.supersteps == 6
        assert counter.read_host()[0] == 4


class TestViewCache:
    def test_rebind_between_runs_reaches_the_new_buffer(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        data = graph.add_tensor(
            "data", (8,), np.int32, mapping=TileMapping.linear_segments(8, 2, range(4))
        )
        compute_set = graph.add_compute_set("increment")
        for tile in range(4):
            compute_set.add_vertex(
                Increment(), tile, {"x": ComputeGraph.span(data, 2 * tile, 2 * tile + 2)}
            )
        engine = Engine(graph, Execute(compute_set))
        plan = engine.compiled.plan_for(compute_set)
        assert plan.field_plans["x"].contiguous  # the cached, aliasing path
        engine.run()
        old = data.data
        assert old.tolist() == [1] * 8
        data.data = np.full(8, 10, dtype=np.int32)  # rebind, not write
        engine.run()
        assert data.data.tolist() == [11] * 8
        assert old.tolist() == [1] * 8  # the orphaned buffer is untouched

    def test_unrelated_rebind_keeps_results_exact(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        data = graph.add_tensor(
            "data", (8,), np.int32, mapping=TileMapping.linear_segments(8, 2, range(4))
        )
        spare = graph.add_scalar("spare")
        compute_set = graph.add_compute_set("increment")
        for tile in range(4):
            compute_set.add_vertex(
                Increment(), tile, {"x": ComputeGraph.span(data, 2 * tile, 2 * tile + 2)}
            )
        engine = Engine(graph, Execute(compute_set))
        engine.run()
        spare.data = np.zeros(1, dtype=spare.dtype)  # any rebind drops caches
        engine.run()
        assert data.data.tolist() == [2] * 8
