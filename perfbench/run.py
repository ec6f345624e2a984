"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric of a traced run, and the spans are written to
``.perfbench/spans-<workload>-seed<n>.json`` (``repro.spans/1``).  Lines
above it are a human-readable table with sample counts.  Every answer is
checked by the oracle after the timed interval.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# One BLAS thread: the matrices are small, and pool threads only add jitter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import repro  # noqa: E402,F401  (fails fast outside a full checkout)
from multiprocessing import resource_tracker, util  # noqa: E402
from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    ModeledMismatch,
    Phase,
    check_answers,
    check_modeled_repeats,
    end_to_end,
    ops_per_s,
    per_layer,
)
from perfbench.stats import InsufficientSamples  # noqa: E402
from perfbench.tracing import SpanRecorder, install, spans_document  # noqa: E402
from perfbench.workloads import WORKLOADS, Ops, ServeHttp, make_workload  # noqa: E402

#: Default workload seed, and the seed held out while the benchmark was
#: tuned (the smoke tests run on it).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Requests re-run to check that the serve-http replay repeats exactly.
_REPLAY_REPEAT = 12

#: Set-ups per untraced run; ``setup_s`` is their median.
_SETUP_REPS = 5

#: Kernel samples taken on each side of a set-up.
_SETUP_SAMPLES = 15

#: Ops of each kind whose spans a traced run writes out in full.
_SPAN_OPS_WRITTEN = 1

OUT_DIR = ROOT / ".perfbench"


def measure(workload, seconds: float, *, min_passes: int, recorder: SpanRecorder | None = None) -> Phase:
    """Replay the workload's list until ``seconds`` are used, whole passes only.

    A further pass starts only if it is expected to end near the deadline,
    and at least ``min_passes`` run whatever the time.
    """
    ops = Ops(workload.name, recorder)
    executions, units = [], []
    start = perf_counter()
    passes, last = 0, 0.0
    while passes < min_passes or perf_counter() - start + 0.5 * last < seconds:
        ops.calibrator.sample()
        began = perf_counter()
        pass_executions, pass_units = workload.run_pass(ops)
        last = perf_counter() - began
        executions += pass_executions
        units += pass_units
        passes += 1
    wall = perf_counter() - start
    ops.calibrator.sample()
    return Phase(executions, units, passes, wall, ops.calibrator, workload.closed_loop)


def fill_modeled(workload, phase: Phase, recorder: SpanRecorder | None = None) -> None:
    """Modeled cost per op, asserting every repeat of an op reports the same.

    serve-http's answers carry no modeled cost, so its requests are
    replayed in process (traced when ``recorder`` is set); run
    :func:`check_replay_repeats` afterwards, untraced.
    """
    if isinstance(workload, ServeHttp):
        phase.modeled = dict(enumerate(workload.modeled_replay(recorder)))
    else:
        phase.modeled = check_modeled_repeats(
            (e.index, e.supersteps, e.device_s) for e in phase.executions if e.supersteps is not None
        )


def check_replay_repeats(workload, phase: Phase) -> None:
    """Replay serve-http's first requests again; their modeled cost must repeat."""
    if isinstance(workload, ServeHttp):
        again = dict(enumerate(workload.modeled_replay(None, limit=_REPLAY_REPEAT)))
        for index, value in again.items():
            if phase.modeled[index] != value:
                raise ModeledMismatch(f"replayed request {index}: {phase.modeled[index]} then {value}")


def timed_setup(workload) -> float:
    """Set-up wall time, at the reference speed of the calibration kernel
    sampled just before and after it."""
    calibrator = Calibrator()
    for _ in range(_SETUP_SAMPLES):
        calibrator.sample()
    began = perf_counter()
    workload.setup()
    ended = perf_counter()
    for _ in range(_SETUP_SAMPLES):
        calibrator.sample()
    speeds = [calibrator.speed_at(midpoint) for midpoint, _ in calibrator.samples]
    return (ended - began) * statistics.median(speeds)


def run(args) -> dict:
    workload = make_workload(args.workload, args.seed, args.scale)
    try:
        return run_workload(args, workload)
    finally:
        workload.teardown()


def run_workload(args, workload) -> dict:
    phases = []
    if not args.trace:
        setup_times = []
        for rep in range(_SETUP_REPS):
            if rep:
                workload.teardown()
            setup_times.append(timed_setup(workload))
        try:
            phase = measure(workload, args.seconds, min_passes=2)
        finally:
            workload.teardown()
        fill_modeled(workload, phase)
        check_replay_repeats(workload, phase)
        check_answers(phase)
        phases.append(phase)
        metrics, samples = end_to_end(
            phase,
            setup_times=setup_times,
            latency_limit_s=workload.latency_limit_s,
            include_children=isinstance(workload, ServeHttp),
        )
        kind = "end_to_end"
    else:
        half = args.seconds / 2
        timed_setup(workload)
        try:
            untraced = measure(workload, half, min_passes=1)
        finally:
            workload.teardown()
        recorder = SpanRecorder()
        with install(recorder):
            try:
                timed_setup(workload)
                traced = measure(workload, half, min_passes=1, recorder=recorder)
            finally:
                workload.teardown()
            fill_modeled(workload, traced, recorder)
        check_replay_repeats(workload, traced)
        phases += [untraced, traced]
        for phase in phases:
            check_answers(phase)
        in_process = len(traced.modeled) if isinstance(workload, ServeHttp) else len(traced.executions)
        metrics = per_layer(
            traced, recorder, in_process_ops=in_process, untraced_ops_per_s=ops_per_s(untraced)
        )
        samples = {"spans": len(recorder), "traced ops": in_process}
        OUT_DIR.mkdir(exist_ok=True)
        document = spans_document(
            recorder,
            max_ops=_SPAN_OPS_WRITTEN,
            meta={"workload": args.workload, "seed": args.seed},
        )
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(document))
        kind = "per_layer"

    executions = [e for phase in phases for e in phase.executions]
    verdicts = [v for phase in phases for v in phase.verdicts]
    wrong = [
        (e.index, v)
        for e, v in zip(executions, verdicts)
        if v is not None and e.answer is not None and not e.reproducer
    ]
    for index, verdict in wrong[:5]:
        print(f"wrong answer on op {index}: {verdict}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(executions),
        "failed": sum(v is not None for v in verdicts),
        # BENCHMARK.json names the metrics and their units, in print order.
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
        },
    }
    report(args, result, samples, phases)
    return result


def report(args, result: dict, samples: dict, phases: list[Phase]) -> None:
    """Print the human-readable table and keep the raw record on disk."""
    print(f"# {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    for phase in phases:
        print(f"#   phase: {phase.passes} passes, {len(phase.executions)} ops, {phase.wall_s:.2f} s")
    for name, entry in result["metrics"].items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"#   {name:36s} {entry['value']:14.6g} {entry['unit']}{note}")
    for name, value in samples.items():
        if name not in result["metrics"]:
            print(f"#   {name}: {value}")
    print(f"#   attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "args": vars(args),
        "result": result,
        "samples": {k: str(v) for k, v in samples.items()},
        "phases": [
            {
                "units": [(u.index, u.at_s, u.ops, u.wall_s) for u in phase.units],
                "latencies": [(e.index, e.at_s, e.latency_s) for e in phase.executions],
                "kernel": phase.calibrator.samples,
            }
            for phase in phases
        ],
    }
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _exit_on_signal(signum, _frame) -> None:
    # SystemExit unwinds through every ``finally``, so the workload's
    # processes are stopped on a signal too.
    raise SystemExit(128 + signum)


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Workloads close their own worker pools; this catches whatever a failed
    or interrupted run left behind, then stops multiprocessing's resource
    tracker, which would otherwise outlive the run by a moment.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    # multiprocessing's own exit routine, run now rather than at exit: it
    # releases the queues' named semaphores while the tracker still runs,
    # and makes the routine's own call at exit a no-op.
    util._exit_function()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    try:
        result = run(args)
    except ModeledMismatch as exc:
        print(f"modeled cost did not repeat: {exc}", file=sys.stderr)
        return 3
    except InsufficientSamples as exc:
        print(f"too few samples for a percentile: {exc}", file=sys.stderr)
        return 4
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
