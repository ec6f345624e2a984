"""From recorded passes to the end-to-end and per-layer metrics.

A shared host changes speed under the benchmark, for seconds at a time, by
up to about 2x.  Two steps take that out of the wall metrics:

* every wall time is scaled by the host speed the calibration kernel saw
  around it (:mod:`perfbench.calibrate`), giving wall time at the reference
  speed; the achieved rate of the open loop is set by its schedule and is
  not scaled;
* every pass repeats the same ops, so each op (or timed unit) counts at the
  median of its scaled times over the passes, and the metrics report over
  those.

Counts, shares and modeled metrics use every execution as recorded.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
from typing import Any

from perfbench import oracle
from perfbench.calibrate import REFERENCE_S, Calibrator
from perfbench.stats import percentile, share
from perfbench.tracing import SpanRecorder, layer_totals, time_within

__all__ = [
    "ModeledMismatch",
    "Phase",
    "check_answers",
    "check_modeled_repeats",
    "end_to_end",
    "per_layer",
]

class ModeledMismatch(RuntimeError):
    """Two executions of the same op reported different modeled cost."""


@dataclasses.dataclass
class Phase:
    """Everything one timed phase recorded."""

    executions: list  # of workloads.Execution, all passes
    units: list  # of workloads.Unit, all passes
    passes: int
    wall_s: float
    calibrator: Calibrator
    #: False for an open loop, whose rate the host speed does not set.
    closed_loop: bool = True
    #: Per list index ``(supersteps, device_s)``; filled from the executions,
    #: or from a modeled replay where answers do not carry modeled cost.
    modeled: dict[int, tuple[int, float]] = dataclasses.field(default_factory=dict)
    verdicts: list = dataclasses.field(default_factory=list)  # oracle result per execution


def check_modeled_repeats(pairs) -> dict[int, tuple[int, float]]:
    """Collapse ``(index, supersteps, device_s)`` triples to one value per index.

    Raises :class:`ModeledMismatch` when one index reports two different
    values: modeled cost is deterministic, so any difference is a bug.
    """
    modeled: dict[int, tuple[int, float]] = {}
    for index, supersteps, device_s in pairs:
        value = (supersteps, device_s)
        seen = modeled.setdefault(index, value)
        if seen != value:
            raise ModeledMismatch(f"op {index}: modeled cost {seen} then {value}")
    return modeled


def check_answers(phase: Phase) -> None:
    """Run the oracle over every recorded answer (outside the timed interval)."""
    cache: dict[tuple, str | None] = {}
    verdicts = []
    for execution in phase.executions:
        if execution.answer is None:
            verdicts.append(execution.error or "no answer")
            continue
        costs, assignment, claimed, gap_bound = execution.answer
        key = execution.index
        # Identical answers to the same op need one check.
        fingerprint = (key, tuple(int(c) for c in assignment), float(claimed), gap_bound)
        if fingerprint not in cache:
            cache[fingerprint] = oracle.check_answer(costs, assignment, claimed, gap_bound=gap_bound)
        verdicts.append(cache[fingerprint])
    phase.verdicts = verdicts


def _median_by_index(pairs) -> dict[int, float]:
    """The median value of each index over its repeats."""
    values: dict[int, list[float]] = {}
    for index, value in pairs:
        values.setdefault(index, []).append(value)
    return {index: statistics.median(repeats) for index, repeats in values.items()}


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _unit_walls(phase: Phase) -> dict[int, float]:
    """Each timed unit's median wall time over the passes, at reference
    speed for a closed loop."""
    if not phase.closed_loop:
        return _median_by_index((unit.index, unit.wall_s) for unit in phase.units)
    speed = phase.calibrator.speed_at
    return _median_by_index(
        (unit.index, unit.wall_s * speed(unit.at_s + unit.wall_s / 2)) for unit in phase.units
    )


def ops_per_s(phase: Phase) -> float:
    """Ops per second, each timed unit counted at its median wall time."""
    ops = {unit.index: unit.ops for unit in phase.units}
    return sum(ops.values()) / sum(_unit_walls(phase).values())


def end_to_end(
    phase: Phase, *, setup_times: list[float], latency_limit_s: float, include_children: bool
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics and, for the report, the samples behind them.

    ``setup_times`` are already at reference speed.
    """
    speed = phase.calibrator.speed_at
    latencies = sorted(
        _median_by_index((e.index, e.latency_s * speed(e.at_s)) for e in phase.executions).values()
    )
    units = _unit_walls(phase)
    ops = len(phase.modeled)
    supersteps = sum(value[0] for value in phase.modeled.values())
    device_s = sum(value[1] for value in phase.modeled.values())
    attempted = len(phase.executions)
    correct = sum(1 for verdict in phase.verdicts if verdict is None)
    in_slo = sum(
        1
        for execution, verdict in zip(phase.executions, phase.verdicts)
        if verdict is None and execution.latency_s <= latency_limit_s
    )
    # The units of one pass cover the whole list.
    pass_wall = sum(units.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s(phase),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "supersteps_per_s": supersteps / pass_wall,
        "supersteps_per_op": supersteps / ops,
        "device_ms_per_op": 1e3 * device_s / ops,
        "correct_share": share(correct, attempted),
        "slo_share": share(in_slo, attempted),
        "peak_rss_mb": _peak_rss_mb(include_children),
    }
    speeds = [seconds for _, seconds in phase.calibrator.samples]
    samples = {
        "setup_s": len(setup_times),
        "ops_per_s": f"{len(units)} units x {phase.passes} passes",
        "host speed": f"{len(speeds)} kernel samples, speed {REFERENCE_S / max(speeds):.2f}"
        f"..{REFERENCE_S / min(speeds):.2f}",
        "latency_p50_ms": len(latencies),
        "latency_p90_ms": len(latencies),
        "correct_share": attempted,
        "slo_share": attempted,
    }
    return metrics, samples


def _ms_percentile(values: list[float], q: float) -> float:
    """A percentile in ms, or 0.0 when the workload has no such samples."""
    return 1e3 * percentile(values, q) if values else 0.0


def per_layer(
    traced: Phase,
    recorder: SpanRecorder,
    *,
    in_process_ops: int,
    untraced_ops_per_s: float,
) -> dict[str, float]:
    """Per-layer metrics of a traced phase.

    ``recorder`` holds the phase's spans; ``in_process_ops`` is how many
    ops ran through the library in this process (the replayed requests on
    serve-http, whose live requests run in the worker process).
    """
    totals = layer_totals(recorder)
    setup_totals = layer_totals(recorder, setup=True)

    def total(prefix: str, field: str = "total_s") -> float:
        return sum(getattr(t, field) for name, t in totals.items() if name.startswith(prefix))

    def count(prefix: str) -> int:
        return sum(t.count for name, t in totals.items() if name.startswith(prefix))

    supersteps = count("ipu.profiler.record_superstep")
    per_op = lambda seconds: share(1e3 * seconds, in_process_ops)  # noqa: E731
    per_step = lambda seconds: share(1e6 * seconds, supersteps)  # noqa: E731
    engine = total("ipu.engine.run")
    executions = traced.executions
    serve = [e for e in executions if "backend" in e.info]
    answered = [e for e in serve if e.answer is not None]
    backends = [e.info["backend"] for e in answered]
    gap_bounds = [e.info["gap_bound"] for e in answered if e.info["gap_bound"] is not None]
    resolves = [e for e in executions if "mode" in e.info]
    batched = [e for e in executions if "solved_size" in e.info]
    solved_cells = sum(e.info["solved_size"] ** 2 for e in batched)
    # Replayed serve requests run one instance per batch call.
    batch_instances = len(batched) or count("batch.solve_batch")
    return {
        "ipu.compile_s": sum(t.total_s for name, t in setup_totals.items() if name.startswith("ipu.compile")),
        "ipu.engine.ms_per_op": per_op(engine),
        "ipu.engine.us_per_superstep": per_step(engine),
        "ipu.engine.self_us_per_superstep": per_step(total("ipu.engine.run", "self_s")),
        "ipu.codelets.us_per_superstep": per_step(total("ipu.codelet.")),
        "ipu.codelets.calls_per_superstep": share(count("ipu.codelet."), supersteps),
        "ipu.profiler.us_per_superstep": per_step(total("ipu.profiler.")),
        "core.solve.host_ms_per_op": per_op(
            total("core.solve") - time_within(recorder, "core.solve", "ipu.engine.run")
        ),
        "core.warmstart.dual_ms_per_op": per_op(total("core.warmstart.from_solution")),
        "core.warmstart.delta_ms_per_op": per_op(total("core.warmstart.changed_rows")),
        "core.resolve.warm_share": share(sum(e.info["mode"] == "warm" for e in resolves), len(resolves)),
        "batch.host_ms_per_instance": share(
            1e3 * (total("batch.solve_batch") - time_within(recorder, "batch.solve_batch", "ipu.engine.run")),
            batch_instances,
        ),
        "batch.padded_share": share(sum(e.info["size"] != e.info["solved_size"] for e in batched), len(batched)),
        "batch.pad_waste_share": share(
            sum(e.info["solved_size"] ** 2 - e.info["size"] ** 2 for e in batched), solved_cells
        ),
        "serve.frontend_ipc_ms_p50": _ms_percentile(
            [e.info["round_trip_s"] - e.info["latency_s"] for e in answered], 0.5
        ),
        "serve.service_ms_p50": _ms_percentile([e.info["service_s"] for e in answered], 0.5),
        "serve.queue_wait_ms_p90": _ms_percentile([e.info["queue_wait_s"] for e in answered], 0.9),
        "serve.degraded_share": share(sum(e.info["degraded"] for e in answered), len(serve)),
        **{
            f"serve.backend_share.{backend}": share(
                sum(b == backend for b in backends), len(serve)
            )
            for backend in ("hunipu", "fastha", "scipy", "approx")
        },
        "lap.approx.gap_bound_mean": statistics.fmean(gap_bounds) if gap_bounds else 0.0,
        "serve.gen_late_ms_p90": _ms_percentile([e.info["gen_late_s"] for e in serve], 0.9),
        "obs.trace_overhead_share": 1.0 - ops_per_s(traced) / untraced_ops_per_s,
    }
