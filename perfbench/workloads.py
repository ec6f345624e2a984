"""The four workloads, each driven only through the library's public entry points.

A workload builds its inputs from the seed in ``__init__`` (not timed),
brings the system to first-op-ready in :meth:`setup` (timed as ``setup_s``),
and replays its fixed input list once per :meth:`run_pass`.  Every pass does
identical modeled work, so the runner can compare passes op by op.

Each pass returns one :class:`Execution` per op, with the answer kept for
the oracle, and one :class:`Unit` per independently timed chunk of work
(an op, a batch call, or a whole open-loop pass).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
from time import perf_counter, sleep
from typing import Any

import numpy as np
from repro import HunIPUSolver, LAPInstance
from repro.batch import BatchSolver, choose_target
from repro.errors import ReproError
from repro.obs.export import SOLVE_REQUEST_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.serve.http import HttpClient, HttpFrontend
from repro.serve.service import SolverService
from repro.serve.workers import WorkerPool

from perfbench import inputs
from perfbench.calibrate import Calibrator
from perfbench.tracing import SETUP_OP, SpanRecorder

__all__ = ["Execution", "Unit", "WORKLOADS", "make_workload"]


@dataclasses.dataclass
class Execution:
    """One op of one pass."""

    index: int  # position in the workload's fixed list
    at_s: float  # when the op started (perf_counter)
    latency_s: float
    #: ``(costs, assignment, claimed_cost, gap_bound)`` for the oracle, or
    #: None when the op raised or was rejected.
    answer: tuple | None
    error: str | None = None
    #: True for inputs whose failure is the known defect the workload
    #: exists to show (solve-cold's wide-spread instances).
    reproducer: bool = False
    supersteps: int | None = None
    device_s: float | None = None
    info: dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Unit:
    """An independently timed chunk of a pass: ``ops`` ops in ``wall_s``."""

    index: int
    at_s: float
    ops: int
    wall_s: float


class Ops:
    """Per-phase op bookkeeping: host-speed samples between ops, and one
    root span per op when tracing (free when not)."""

    def __init__(self, workload: str, recorder: SpanRecorder | None, first_id: int = 0) -> None:
        self.recorder = recorder
        self.name = f"op.{workload}"
        self.next_id = first_id
        self.calibrator = Calibrator()
        self._lock = threading.Lock()

    def calibrate(self) -> None:
        """Between ops, outside their timing: sample the host speed if due."""
        self.calibrator.maybe_sample()

    def op(self):
        """Context of one op; spans opened by other threads with no open
        parent (a service thread) join the op opened most recently."""
        if self.recorder is None:
            return contextlib.nullcontext()
        with self._lock:
            op = self.next_id
            self.next_id += 1
        self.recorder.current_op = op
        return self.recorder.span(self.name, op)


#: A sender samples the host speed only when its next request is at least
#: this far off, so sampling never delays a request.
_IDLE_S = 0.02


def _answer(costs: np.ndarray, result) -> tuple:
    """An exact answer, as the oracle takes it."""
    return (costs, result.assignment, result.total_cost, None)


class SolveCold:
    """Closed loop, one caller of ``HunIPUSolver.solve``."""

    name = "solve-cold"
    latency_limit_s = 0.5
    closed_loop = True

    def __init__(self, seed: int, scale: str) -> None:
        ops = inputs.solve_cold_list(seed, scale)
        self.instances = [LAPInstance(costs, name=f"cold-{i}") for i, (costs, _) in enumerate(ops)]
        self.wide = [wide for _, wide in ops]

    def setup(self) -> None:
        self.solver = HunIPUSolver()
        for size in sorted({instance.size for instance in self.instances}):
            self.solver.compiled_for(size)

    def teardown(self) -> None:
        self.solver = None

    def run_pass(self, ops: Ops) -> tuple[list[Execution], list[Unit]]:
        executions, units = [], []
        for index, instance in enumerate(self.instances):
            error = result = None
            ops.calibrate()
            start = perf_counter()
            try:
                with ops.op():
                    result = self.solver.solve(instance)
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
            units.append(Unit(index, start, 1, wall))
            executions.append(
                Execution(
                    index,
                    start,
                    wall,
                    None if result is None else _answer(instance.costs, result),
                    error,
                    reproducer=self.wide[index],
                    supersteps=None if result is None else int(result.stats["supersteps"]),
                    device_s=None if result is None else result.device_time_s,
                )
            )
        return executions, units


class ResolveDrift:
    """Closed loop of ``HunIPUSolver.resolve`` over round-robin drifting streams."""

    name = "resolve-drift"
    latency_limit_s = 0.5
    closed_loop = True

    def __init__(self, seed: int, scale: str) -> None:
        self.starts = [LAPInstance(c, name=f"stream-{k}") for k, c in enumerate(inputs.drift_streams(seed, scale))]
        ticks = inputs.drift_ticks(seed, scale)
        self.streams = [tick.stream for tick in ticks]
        self.instances = [LAPInstance(tick.costs, name=f"tick-{i}") for i, tick in enumerate(ticks)]

    def setup(self) -> None:
        self.solver = HunIPUSolver()
        self.solver.compiled_for(self.starts[0].size).warm_engine
        # Every stream starts from a solved seed, so the first tick is warm.
        self.seeds = [self.solver.resolve(start, None).stats["warm_start"] for start in self.starts]

    def teardown(self) -> None:
        self.solver = self.seeds = None

    def run_pass(self, ops: Ops) -> tuple[list[Execution], list[Unit]]:
        seeds = list(self.seeds)
        executions, units = [], []
        for index, (stream, instance) in enumerate(zip(self.streams, self.instances)):
            ops.calibrate()
            start = perf_counter()
            with ops.op():
                result = self.solver.resolve(instance, seeds[stream])
            wall = perf_counter() - start
            seeds[stream] = result.stats["warm_start"]
            units.append(Unit(index, start, 1, wall))
            executions.append(
                Execution(
                    index,
                    start,
                    wall,
                    _answer(instance.costs, result),
                    supersteps=int(result.stats["supersteps"]),
                    device_s=result.device_time_s,
                    info={"mode": result.stats["resolve"]["mode"]},
                )
            )
        return executions, units


class BatchPad:
    """Closed loop of ``BatchSolver.solve_batch`` on fixed mixed batches.

    An op is an instance.  Its latency is the per-instance solve time the
    batch reports (``AssignmentResult.wall_time_s``): a run has too few
    calls for a percentile of call latency.
    """

    name = "batch-pad"
    latency_limit_s = 0.5
    closed_loop = True

    def __init__(self, seed: int, scale: str) -> None:
        self.calls = [
            [LAPInstance(costs, name=f"batch-{c}-{i}") for i, costs in enumerate(call)]
            for c, call in enumerate(inputs.batch_calls(seed, scale))
        ]

    def setup(self) -> None:
        self.batch = BatchSolver(HunIPUSolver())
        counts: dict[int, int] = {}
        for instance in self.calls[0]:
            counts[instance.size] = counts.get(instance.size, 0) + 1
        # Compile the sizes the batch policy solves at, so no call compiles.
        targets = {
            choose_target(size, cached=frozenset(), counts=counts, pad_limit=self.batch.pad_limit)
            for size in counts
        }
        for size in sorted(targets):
            self.batch.solver.compiled_for(size)

    def teardown(self) -> None:
        self.batch = None

    def run_pass(self, ops: Ops) -> tuple[list[Execution], list[Unit]]:
        executions, units = [], []
        index = 0
        for call_index, call in enumerate(self.calls):
            ops.calibrate()
            start = perf_counter()
            with ops.op():
                outcome = self.batch.solve_batch(call)
            units.append(Unit(call_index, start, len(call), perf_counter() - start))
            for instance, result in zip(call, outcome.results):
                executions.append(
                    Execution(
                        index,
                        start,
                        result.wall_time_s,
                        _answer(instance.costs, result),
                        supersteps=int(result.stats["supersteps"]),
                        device_s=result.device_time_s,
                        info={
                            "size": instance.size,
                            "solved_size": int(result.stats.get("padded_to", instance.size)),
                        },
                    )
                )
                index += 1
        return executions, units


class ServeHttp:
    """Open loop over HTTP into one ``WorkerPool`` process with one service thread.

    Requests are evenly spaced at a fixed offered rate, sent by at most two
    threads, and timed from their due time, so a stalled sender still counts
    against the requests behind it.
    """

    name = "serve-http"
    latency_limit_s = 0.3
    senders = 2
    #: An open loop's rate is set by its schedule, not by host speed.
    closed_loop = False

    def __init__(self, seed: int, scale: str) -> None:
        self.scale = scale
        self.requests = inputs.serve_requests(seed, scale)
        self.sizes = inputs.SCALES[scale]["serve_sizes"]
        self.bodies = []
        for request in self.requests:
            document = {
                "schema": SOLVE_REQUEST_SCHEMA,
                "costs": request.costs.tolist(),
                "tier": request.tier,
                "deadline_s": None,
            }
            if request.session_id is not None:
                document["session_id"] = request.session_id
            self.bodies.append(json.dumps(document).encode())
        self.pool = self.frontend = None

    def setup(self) -> None:
        self.pool = WorkerPool(workers=1, threads=1, warm_sizes=self.sizes, verify=False)
        try:
            self.pool.wait_ready(timeout=120.0)
            self.frontend = HttpFrontend(self.pool)
        except BaseException:
            self.pool.close()
            raise
        self.client = HttpClient(self.frontend.url)

    def teardown(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
        if self.pool is not None:
            self.pool.close()
        self.pool = self.frontend = None

    def run_pass(self, ops: Ops) -> tuple[list[Execution], list[Unit]]:
        records: list[tuple | None] = [None] * len(self.requests)
        next_index = [0]
        lock = threading.Lock()
        base = perf_counter() + 0.05

        def sender() -> None:
            while True:
                with lock:
                    index = next_index[0]
                    next_index[0] += 1
                if index >= len(self.requests):
                    return
                due = base + self.requests[index].due_s
                if due - perf_counter() > _IDLE_S:
                    ops.calibrate()
                delay = due - perf_counter()
                if delay > 0:
                    sleep(delay)
                sent = perf_counter()
                with ops.op():
                    status, document = self.client.solve_raw(self.bodies[index])
                records[index] = (due, sent, perf_counter(), status, document)

        threads = [threading.Thread(target=sender, daemon=True) for _ in range(self.senders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        executions = []
        for index, (due, sent, done, status, document) in enumerate(records):
            request = self.requests[index]
            ok = status == 200 and document.get("status") == "completed"
            answer = None
            if ok:
                answer = (request.costs, document["assignment"], document["total_cost"], document["gap_bound"])
            executions.append(
                Execution(
                    index,
                    due,
                    done - due,
                    answer,
                    None if ok else f"HTTP {status}: {document.get('reject')}",
                    info={
                        "gen_late_s": sent - due,
                        "round_trip_s": done - sent,
                        "backend": document.get("backend"),
                        "degraded": bool(document.get("degraded")),
                        "latency_s": float(document.get("latency_s") or 0.0),
                        "service_s": float(document.get("service_s") or 0.0),
                        "queue_wait_s": float(document.get("queue_wait_s") or 0.0),
                        "gap_bound": document.get("gap_bound"),
                    },
                )
            )
        last_done = max(record[2] for record in records)
        return executions, [Unit(0, base, len(records), last_done - base)]

    def modeled_replay(self, recorder: SpanRecorder | None, *, limit: int | None = None) -> list[tuple[int, float]]:
        """Modeled ``(supersteps, device_s)`` of each request, in list order.

        Wire responses carry no modeled cost, so the request list is
        replayed one at a time through an in-process ``SolverService`` built
        like the worker's (one thread, same warm sizes, no verification).
        Non-engine answers cost zero supersteps.  This runs outside the
        timed interval; when ``recorder`` is set its spans are traced.
        """
        if recorder is not None:
            recorder.current_op = SETUP_OP
        service = SolverService(workers=1, verify=False, metrics=MetricsRegistry())
        ops = Ops("replay", recorder, first_id=1_000_000)
        try:
            service.pool.warm(self.sizes)
            modeled = []
            for request in self.requests[:limit]:
                with ops.op():
                    response = service.submit(
                        LAPInstance(request.costs),
                        tier=request.tier,
                        deadline_s=None,
                        session_id=request.session_id,
                    ).response(timeout=120.0)
                if not response.ok:
                    raise RuntimeError(f"replay request rejected: {response.reject}")
                result = response.result
                modeled.append((int(result.stats.get("supersteps", 0)), float(result.device_time_s or 0.0)))
            return modeled
        finally:
            service.close()


WORKLOADS = {cls.name: cls for cls in (SolveCold, ResolveDrift, BatchPad, ServeHttp)}


def make_workload(name: str, seed: int, scale: str):
    return WORKLOADS[name](seed, scale)
