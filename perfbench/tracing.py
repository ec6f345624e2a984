"""Benchmark-side span tracing of the library's layer boundaries.

:class:`SpanRecorder` keeps spans in flat in-memory arrays (name, start,
end, parent, op id) so a traced run can afford one span per codelet call and
per profiler charge.  :func:`install` wraps the public functions of each
layer with timers that live only in this file and restores the originals
when the context exits; nothing in the library is edited.

After the run, :func:`layer_totals` derives per-name counts, total time and
self time (a span's duration minus its children's), and
:func:`spans_document` writes a ``repro.spans/1`` document that the
library's validator and Perfetto export read.

The recorder is not :class:`repro.obs.spans.SpanCollector`: that collector
builds one object per span, too heavy for a span per superstep, and the
benchmark's timers must not change when the library does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import threading
from array import array
from time import perf_counter
from typing import Callable, Iterator

__all__ = [
    "LayerTotals",
    "SETUP_OP",
    "SpanRecorder",
    "install",
    "layer_totals",
    "spans_document",
    "time_within",
]

#: Op id of spans recorded outside any op (set-up work such as compiles).
SETUP_OP = -1


class SpanRecorder:
    """Thread-safe, append-only span store with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        #: Op id given to spans opened with no open parent.
        self.current_op = SETUP_OP

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        with self._lock:
            ident = self._name_ids.get(name)
            if ident is None:
                ident = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return ident

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int, op: int | None = None) -> int:
        """Start a span under this thread's innermost open span.

        A span with a parent belongs to its parent's op; a root span to
        ``op``, or to :attr:`current_op` when none is given.
        """
        stack = self._stack()
        with self._lock:
            span = len(self.start)
            parent = stack[-1] if stack else -1
            if parent >= 0:
                op = self.op[parent]
            elif op is None:
                op = self.current_op
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(op)
            self.end.append(0.0)
            self.start.append(self._clock())
        stack.append(span)
        return span

    def close(self, span: int) -> None:
        end = self._clock()
        self._stack().pop()
        self.end[span] = end

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[int]:
        span = self.open(self.name_id(name), op)
        try:
            yield span
        finally:
            self.close(span)


def _timed(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    name_id = recorder.name_id(name)

    def timed(*args, **kwargs):
        span = recorder.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    timed.__wrapped__ = fn  # type: ignore[attr-defined]
    return timed


def _codelet_classes() -> list[type]:
    """Every ``Codelet`` subclass that defines its own ``compute_all``."""
    from repro.ipu.codelets import Codelet

    # Import the modules that define codelets so every subclass exists.
    for module in ("repro.core.solver", "repro.ipu.oplib", "repro.core.compression"):
        importlib.import_module(module)
    found, todo = [], list(Codelet.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "compute_all" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


@contextlib.contextmanager
def install(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every traced layer boundary for the duration of the context."""
    from repro.batch.solver import BatchSolver
    from repro.core import solver as solver_module
    from repro.core.solver import CompiledInstance, HunIPUSolver
    from repro.core.warmstart import WarmStart
    from repro.ipu.engine import Engine
    from repro.ipu.profiler import Profiler

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            replacement = classmethod(_timed(recorder, name, original.__func__))
        elif isinstance(original, property):
            replacement = property(_timed(recorder, name, original.fget))
        else:
            replacement = _timed(recorder, name, original)
        setattr(owner, attr, replacement)

    try:
        patch(HunIPUSolver, "compiled_for", "ipu.compile")
        patch(CompiledInstance, "warm_engine", "ipu.compile.warm")
        patch(Engine, "run", "ipu.engine.run")
        for cls in _codelet_classes():
            patch(cls, "compute_all", f"ipu.codelet.{cls.__name__}")
        patch(Profiler, "record_superstep", "ipu.profiler.record_superstep")
        patch(HunIPUSolver, "solve", "core.solve")
        patch(HunIPUSolver, "resolve", "core.resolve")
        patch(WarmStart, "from_solution", "core.warmstart.from_solution")
        # The solver calls the name it imported, so patch it there.
        patch(solver_module, "changed_rows", "core.warmstart.changed_rows")
        patch(BatchSolver, "solve_batch", "batch.solve_batch")
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclasses.dataclass
class LayerTotals:
    """What one span name cost over the selected ops."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_totals(recorder: SpanRecorder, *, setup: bool = False) -> dict[str, LayerTotals]:
    """Per-name count, total and self time of the ops' spans (or, with
    ``setup=True``, of the set-up spans).

    Self time is the span's duration minus the durations of its direct
    children; children of one span run on its thread one after another, so
    their durations never overlap.
    """
    count = len(recorder)
    child_s = [0.0] * count
    for span in range(count):
        parent = recorder.parent[span]
        if parent >= 0:
            child_s[parent] += recorder.end[span] - recorder.start[span]
    totals: dict[str, LayerTotals] = {}
    for span in range(count):
        if (recorder.op[span] == SETUP_OP) != setup:
            continue
        duration = recorder.end[span] - recorder.start[span]
        entry = totals.setdefault(recorder.names[recorder.name[span]], LayerTotals())
        entry.count += 1
        entry.total_s += duration
        entry.self_s += duration - child_s[span]
    return totals


def time_within(recorder: SpanRecorder, outer: str, inner: str) -> float:
    """Total duration of ``inner`` spans that run inside an ``outer`` span.

    Set-up spans are left out, as in :func:`layer_totals`.
    """
    names = recorder.names
    if outer not in names or inner not in names:
        return 0.0
    outer_id, inner_id = names.index(outer), names.index(inner)
    total = 0.0
    for span in range(len(recorder)):
        if recorder.name[span] != inner_id or recorder.op[span] == SETUP_OP:
            continue
        ancestor = recorder.parent[span]
        while ancestor >= 0 and recorder.name[ancestor] != outer_id:
            ancestor = recorder.parent[ancestor]
        if ancestor >= 0:
            total += recorder.end[span] - recorder.start[span]
    return total


def _correlation(op: int) -> str:
    return "setup" if op == SETUP_OP else f"op-{op:06d}"


def spans_document(recorder: SpanRecorder, *, max_ops: int, meta: dict) -> dict:
    """A ``repro.spans/1`` document of the set-up spans and, for each kind
    of op, the first ``max_ops`` ops.

    Every span of one op shares its ``correlation_id``; spans of later ops
    are counted in ``meta`` but not written, to keep the file small.
    """
    keep, per_kind = {SETUP_OP}, {}
    for span in range(len(recorder)):
        op = recorder.op[span]
        if recorder.parent[span] < 0 and op not in keep:
            kind = recorder.name[span]
            if per_kind.get(kind, 0) < max_ops:
                per_kind[kind] = per_kind.get(kind, 0) + 1
                keep.add(op)
    spans = []
    for span in range(len(recorder)):
        op = recorder.op[span]
        if op not in keep:
            continue
        parent = recorder.parent[span]
        start, end = recorder.start[span], recorder.end[span]
        spans.append(
            {
                "span_id": span,
                "name": recorder.names[recorder.name[span]],
                "correlation_id": _correlation(op),
                "parent_id": None if parent < 0 else parent,
                "start_s": start,
                "end_s": end,
                "duration_s": end - start,
                "status": "ok",
                "attributes": {},
            }
        )
    return {
        "schema": "repro.spans/1",
        "meta": {
            "unfinished": 0,
            "spans_recorded": len(recorder),
            "spans_written": len(spans),
            "ops_written": len(keep) - 1,
            **meta,
        },
        "spans": spans,
    }
