"""The BSP execution engine.

Runs a compiled program.  :func:`~repro.ipu.compiler.compile_graph`
flattens the program tree once into a *step list* — ``EXECUTE`` and
``COPY`` supersteps joined by branches, jumps and loop counters — and
:meth:`Engine.run` is a single loop over it: no tree walk, no per-node
type dispatch.  Each ``EXECUTE`` runs its compute set as one
Bulk-Synchronous-Parallel superstep (§III-A): the **compute** phase runs
every vertex (batched numpy when the plan allows, per-vertex otherwise)
and costs as much as the slowest tile's busiest worker slot; the **sync**
phase costs a fixed barrier; the **exchange** phase costs the compute
set's statically planned byte volume over the fabric.  Sync and exchange
are priced at compile time (:class:`~repro.ipu.profiler.StaticCharge`),
so a superstep only adds its measured compute cycles to them.

Two execution modes exist:

* ``"batched"`` (default) — uniform compute sets run as one
  :meth:`~repro.ipu.codelets.Codelet.compute_all` call over all vertices;
* ``"per_tile"`` — every vertex runs individually (batch of one).

Both produce identical tensor contents and identical cycle charges; the
equivalence is part of the test suite, which is what justifies trusting the
fast path.  Tracing, per-superstep metrics and deep profiling are per-run
flags on the same step loop, not separate paths.
"""

from __future__ import annotations

import logging
from typing import Literal

import numpy as np

from repro.errors import ExecutionError
from repro.ipu.compiler import (
    BRANCH,
    COPY,
    EXECUTE,
    JUMP,
    LOOP_ENTER,
    LOOP_TEST,
    REPEAT_TEST,
    CompiledGraph,
    CopyPlan,
    ExecutionPlan,
    compile_graph,
)
from repro.ipu.graph import ComputeGraph
from repro.ipu.profiler import ProfileReport, Profiler
from repro.obs.metrics import IMBALANCE_RATIO_BUCKETS, MetricsRegistry
from repro.obs.spans import child_span
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.ipu.programs import Program
from repro.ipu.tensor import Tensor

__all__ = ["Engine"]

logger = logging.getLogger(__name__)


class Engine:
    """Executes one compiled graph; reusable across runs.

    Parameters
    ----------
    graph, program:
        The static graph and its top-level program.  Compilation happens in
        the constructor, so construction raises on invalid graphs.
    mode:
        ``"batched"`` or ``"per_tile"`` (see module docstring).
    check:
        ``"off"`` (default), ``"warn"`` or ``"strict"`` — whether the
        static BSP constraint checker (:mod:`repro.check`) runs over the
        compiled program.  ``"strict"`` makes C1/C2 violations a
        construction-time :class:`~repro.errors.ConstraintError`; the
        report is available as ``engine.compiled.check_report``.
    check_config:
        Optional :class:`repro.check.CheckConfig` tuning the checker.
    """

    def __init__(
        self,
        graph: ComputeGraph,
        program: Program,
        *,
        mode: Literal["batched", "per_tile"] = "batched",
        check: Literal["off", "warn", "strict"] = "off",
        check_config=None,
    ) -> None:
        if mode not in ("batched", "per_tile"):
            raise ExecutionError(f"unknown engine mode {mode!r}")
        self.compiled: CompiledGraph = compile_graph(
            graph, program, check=check, check_config=check_config
        )
        self.mode = mode
        #: Profilers reused (via reset) across runs, so repeated solves on
        #: a compiled graph pay no per-run construction; ``_profiler`` is only
        #: non-None while a run is in flight.  The lite profiler serves
        #: ``profile_detail=False`` runs (aggregate totals only).
        self._owned_profiler = Profiler(self.compiled.spec)
        self._lite_profiler = Profiler(self.compiled.spec, detailed=False)
        #: Deep (per-tile) profiler, built on first ``profile_tiles=True``
        #: run — its per-tile arrays cost ~tiles*3 float64s, so runs that
        #: never go deep never pay for them.
        self._deep_profiler: Profiler | None = None
        self._profiler: Profiler | None = None
        self._tracer: NullTracer = NULL_TRACER
        self._metrics: MetricsRegistry | None = None
        self._running = False

    # ------------------------------------------------------------------
    # Host data movement (charged as host I/O)
    # ------------------------------------------------------------------

    def write_tensor(self, tensor: Tensor, values: np.ndarray | float) -> None:
        """Host-to-device write of a whole tensor."""
        tensor.write_host(values)
        if self._profiler is not None:
            self._profiler.record_host_io(tensor.nbytes)

    def read_tensor(self, tensor: Tensor) -> np.ndarray:
        """Device-to-host read of a whole tensor."""
        if self._profiler is not None:
            self._profiler.record_host_io(tensor.nbytes)
        return tensor.read_host()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        tracer: NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        profile_detail: bool = True,
        profile_tiles: bool = False,
    ) -> ProfileReport:
        """Execute the program once and return the cost report.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`) records per-superstep
        and control-flow events; ``metrics`` receives per-superstep
        histogram observations.  Both default to off, which costs one
        flag check per superstep.

        ``profile_detail=False`` runs with aggregate-only profiling: the
        report keeps the run's total device time and byte volume but has no
        per-compute-set attribution, in exchange for lower per-superstep
        bookkeeping (the batch path's throughput mode).  Tracing or
        per-superstep metrics force a detailed profiler, since both consume
        the per-superstep charges.

        ``profile_tiles=True`` selects the deep profiler: everything the
        detailed mode reports plus per-tile attribution on
        :attr:`ProfileReport.tiles` (straggler counts, occupancy, an
        imbalance time series, per-tensor exchange bytes).  All three
        depths produce bit-identical run totals.
        """
        if self._running:
            # A second run() while one is in flight (another thread, or a
            # callback re-entering the engine) would silently cross-wire
            # the in-flight run's profiler/tracer/metrics state — and the
            # finally-block below would then null them out from under the
            # first run.  Engines hold mutable device state; concurrency
            # wants one engine per thread (the warm pool's lease model).
            raise ExecutionError(
                "engine is not reentrant; lease one engine per thread"
            )
        self._running = True
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        if profile_tiles:
            if self._deep_profiler is None:
                self._deep_profiler = Profiler(self.compiled.spec, tiles=True)
            self._profiler = self._deep_profiler
        elif profile_detail or self._tracer.enabled or metrics is not None:
            self._profiler = self._owned_profiler
        else:
            self._profiler = self._lite_profiler
        self._profiler.reset()
        logger.debug(
            "engine run start: mode=%s, tracing=%s", self.mode, self._tracer.enabled
        )
        try:
            with child_span("engine.run", mode=self.mode) as span:
                self._run_steps()
                report = self._profiler.report()
                span.set(
                    supersteps=report.supersteps,
                    device_seconds=report.device_seconds,
                )
            logger.debug(
                "engine run done: %d supersteps, %.6f s device time",
                report.supersteps,
                report.device_seconds,
            )
            return report
        finally:
            self._profiler = None
            self._tracer = NULL_TRACER
            self._metrics = None
            self._running = False

    def _run_steps(self) -> None:
        """Run the compiled step list (see :func:`repro.ipu.compiler.flatten_program`)."""
        steps = self.compiled.steps
        counters = [0] * self.compiled.counter_slots
        tracer = self._tracer
        tracing = tracer.enabled
        # Per-vertex cycles are only needed when something consumes them.
        detail = tracing or self._metrics is not None or self._profiler.tiles
        batched = self.mode == "batched"
        end = len(steps)
        pc = 0
        while pc < end:
            step = steps[pc]
            op = step[0]
            if op == EXECUTE:
                self._run_compute_set(step[1], batched, detail)
                pc += 1
            elif op == BRANCH:
                condition = step[1]
                # ``item(0)`` reads the live buffer (rebind-safe).
                if condition.data.item(0) != 0:
                    if tracing:
                        tracer.branch(condition.name, "then")
                    pc += 1
                else:
                    if tracing:
                        tracer.branch(condition.name, "else")
                    pc = step[2]
            elif op == JUMP:
                pc = step[1]
            elif op == LOOP_TEST:
                _, slot, condition, exit_pc, max_iterations = step
                if condition.data.item(0) != 0:
                    iterations = counters[slot] = counters[slot] + 1
                    if iterations > max_iterations:
                        raise ExecutionError(
                            f"RepeatWhileTrue on {condition.name!r} "
                            f"exceeded {max_iterations} iterations"
                        )
                    if tracing:
                        tracer.loop_iter(condition.name, iterations)
                    pc += 1
                else:
                    if tracing:
                        tracer.loop_exit(condition.name, counters[slot])
                    pc = exit_pc
            elif op == LOOP_ENTER:
                counters[step[1]] = 0
                if tracing:
                    tracer.loop_enter(step[2].name)
                pc += 1
            elif op == COPY:
                self._run_copy(step[1])
                pc += 1
            elif op == REPEAT_TEST:
                _, slot, count, exit_pc = step
                if counters[slot] < count:
                    counters[slot] += 1
                    pc += 1
                else:
                    pc = exit_pc
            else:  # REPEAT_ENTER
                counters[step[1]] = 0
                pc += 1

    def _run_copy(self, copy: CopyPlan) -> None:
        copy.destination.flat()[:] = copy.source.flat()
        charge = copy.charge
        superstep = self._profiler.record_superstep(charge, 0.0)
        if self._tracer.enabled:
            extra = (
                {"inter_ipu_bytes": charge.inter_ipu_bytes}
                if self.compiled.spec.num_ipus > 1
                else {}
            )
            self._tracer.superstep(
                charge.name,
                total_seconds=superstep.total_seconds,
                compute_seconds=superstep.compute_seconds,
                sync_seconds=superstep.sync_seconds,
                exchange_seconds=superstep.exchange_seconds,
                exchange_bytes=charge.exchange_bytes,
                **extra,
            )
        if self._metrics is not None:
            self._observe_superstep_metrics(charge.name, charge.exchange_bytes)

    # ------------------------------------------------------------------
    # Compute sets
    # ------------------------------------------------------------------

    @staticmethod
    def _invoke_codelet(codelet, views, params, cost, compute_set_name: str):
        """Run one codelet batch, wrapping its faults with BSP context.

        A codelet that raises (or returns something that cannot become a
        float cycle array) would otherwise surface as a bare exception with
        no indication of *which* superstep died; every failure here becomes
        an :class:`ExecutionError` naming the compute set, with the original
        exception chained as the cause.
        """
        try:
            return np.asarray(
                codelet.compute_all(views, params, cost), dtype=np.float64
            )
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"codelet {codelet.name} failed in compute set "
                f"{compute_set_name!r}: {exc}"
            ) from exc

    def _run_compute_set(
        self, plan: ExecutionPlan, batched: bool, detail: bool
    ) -> None:
        """One superstep.  ``detail`` asks for per-vertex cycles (tracing,
        metrics or deep profiling); the charged total is the same float
        either way."""
        cost = self.compiled.cost_context
        if batched and plan.codelet is not None:
            views, needs_scatter = plan.batch_views()
            cycles = self._invoke_codelet(
                plan.codelet,
                views,
                plan.param_arrays,
                cost,
                plan.compute_set.name,
            )
            if cycles.shape != plan.cycles_shape:
                raise ExecutionError(
                    f"codelet {plan.codelet.name} returned cycle array of "
                    f"shape {cycles.shape}, expected {plan.cycles_shape}"
                )
            if needs_scatter:
                for field, field_plan in plan.field_plans.items():
                    field_plan.scatter(views[field])
        else:
            cycles = self._run_per_vertex(plan, cost)
        compute_cycles = plan.charged_cycles(cycles, cost.vertex_overhead_cycles)
        if not detail:
            self._profiler.record_superstep(plan.charge, compute_cycles)
            return
        # Codelets may return shared constant arrays: never add in place.
        cycles = cycles + cost.vertex_overhead_cycles
        charge = self._profiler.record_superstep(
            plan.charge,
            compute_cycles,
            tile_cycles=(
                plan.tile_cycle_totals(cycles) if self._profiler.tiles else None
            ),
        )
        if self._tracer.enabled:
            peak, mean, imbalance = plan.tile_cycle_stats(cycles)
            # Multi-IPU attribution only on clusters, so single-chip trace
            # events (and golden traces) keep their exact historical shape.
            extra = (
                {"inter_ipu_bytes": plan.inter_ipu_bytes, "ipus": list(plan.ipus)}
                if self.compiled.spec.num_ipus > 1
                else {}
            )
            self._tracer.superstep(
                plan.compute_set.name,
                total_seconds=charge.total_seconds,
                compute_seconds=charge.compute_seconds,
                sync_seconds=charge.sync_seconds,
                exchange_seconds=charge.exchange_seconds,
                exchange_bytes=plan.exchange_bytes,
                tiles_in_use=plan.tiles_in_use,
                max_tile_cycles=peak,
                mean_tile_cycles=mean,
                imbalance=imbalance,
                **extra,
            )
        if self._metrics is not None:
            self._observe_superstep_metrics(
                plan.compute_set.name, plan.exchange_bytes, plan, cycles
            )

    def _observe_superstep_metrics(
        self,
        name: str,
        exchange_bytes: int,
        plan: ExecutionPlan | None = None,
        cycles: np.ndarray | None = None,
    ) -> None:
        """Feed the opt-in per-superstep instruments (see docs/observability.md)."""
        assert self._metrics is not None
        self._metrics.counter(
            "engine.supersteps", "BSP supersteps executed"
        ).inc()
        self._metrics.histogram(
            "engine.exchange_bytes", "exchange-phase bytes per superstep"
        ).observe(exchange_bytes)
        if plan is not None and cycles is not None:
            _, _, imbalance = plan.tile_cycle_stats(cycles)
            self._metrics.histogram(
                "engine.tile_imbalance",
                "max/mean compute cycles over tiles in use, per superstep",
                buckets=IMBALANCE_RATIO_BUCKETS,
            ).observe(imbalance)
            self._metrics.histogram(
                "engine.tile_compute_cycles",
                "slowest-tile compute cycles per superstep",
            ).observe(float(plan.tile_cycle_totals(cycles).max(initial=0.0)))

    def _run_per_vertex(self, plan: ExecutionPlan, cost) -> np.ndarray:
        """Fallback: run each vertex as its own batch of one.

        Used for compute sets with mixed codelets or non-uniform regions,
        and for the whole graph in ``per_tile`` mode.
        """
        vertices = plan.compute_set.vertices
        cycles = np.zeros(len(vertices), dtype=np.float64)
        for index, vertex in enumerate(vertices):
            views = {}
            for field, connection in vertex.connections.items():
                region = connection.tensor.region(connection.start, connection.stop)
                views[field] = region.reshape(1, -1)
            params = {
                name: np.array([value], dtype=np.float64)
                for name, value in vertex.params.items()
            }
            vertex_cycles = self._invoke_codelet(
                vertex.codelet, views, params, cost, plan.compute_set.name
            )
            if vertex_cycles.shape != (1,):
                raise ExecutionError(
                    f"codelet {vertex.codelet.name} returned cycle array of "
                    f"shape {vertex_cycles.shape} for a single vertex"
                )
            cycles[index] = vertex_cycles[0]
        return cycles
