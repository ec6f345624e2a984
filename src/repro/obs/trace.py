"""Structured event tracing for solver runs.

The paper's evaluation is a *cost story*: per-step BSP phase accounting
(compute / sync / exchange, §III-A) and per-iteration behaviour of the
Munkres control loop.  A :class:`Tracer` captures that story as a flat
stream of :class:`TraceEvent` records while the engine runs the program's
compiled step list:

* ``superstep`` — one BSP superstep (compute set or copy): the charged
  phase seconds, exchange bytes, and the per-tile compute-cycle imbalance
  (max/mean over tiles in use — the paper's C3 constraint made visible);
* ``loop_enter`` / ``loop_iter`` / ``loop_exit`` — ``RepeatWhileTrue``
  activity, keyed by the condition tensor's name, with nesting depth.
  Because HunIPU's control loops are condition tensors (``not_done``,
  ``inner_cond``, ``path_active``, ``rev_cond``), the iteration counts of
  ``path_active`` loops *are* the augmenting-path lengths;
* ``branch`` — an ``If`` decision, keyed by condition name.  The inner
  loop's ``flag_update`` / ``flag_aug`` branches are exactly the Step 4
  status outcomes (−1 → slack update, 1 → augment, 0 → prime);
* free-form solver events (``solve_start`` / ``solve_end``) emitted by
  :class:`~repro.core.solver.HunIPUSolver`.

Tracing is opt-in.  The module-level :data:`NULL_TRACER` is the default
everywhere; its ``enabled`` flag is ``False`` and every hot-path call site
guards on that flag, so a disabled tracer costs one attribute check per
superstep (the <5 % overhead budget in the acceptance criteria).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]

#: Step-name prefixes used when summarizing per-step costs (the paper's
#: Steps 1–6 plus the §IV-B compression and data movement).
STEP_PREFIXES = (
    "step1",
    "compress",
    "step2",
    "step3",
    "step4",
    "step5",
    "step6",
    "copy",
)


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence: a sequence number, a kind, and a payload."""

    seq: int
    kind: str
    data: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind, **dict(self.data)}


class NullTracer:
    """Disabled tracer: every method is a no-op, ``enabled`` is False.

    Engine and solver hot paths check ``tracer.enabled`` before building
    event payloads, so the disabled path never allocates.
    """

    enabled = False

    def superstep(self, name: str, **data: Any) -> None:
        pass

    def loop_enter(self, name: str) -> None:
        pass

    def loop_iter(self, name: str, iteration: int) -> None:
        pass

    def loop_exit(self, name: str, iterations: int) -> None:
        pass

    def branch(self, name: str, taken: str) -> None:
        pass

    def event(self, kind: str, **data: Any) -> None:
        pass


#: Shared disabled tracer (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Recording tracer: accumulates events and derives run summaries.

    Not thread-safe; use one tracer per solve (or reset between runs).
    """

    enabled = True

    def __init__(self, *, keep_loop_iters: bool = False) -> None:
        self.events: list[TraceEvent] = []
        self._seq = 0
        self._loop_stack: list[str] = []
        self.max_loop_depth = 0
        #: Per-iteration loop events can dominate the stream on big
        #: instances; by default only enter/exit (with counts) are kept.
        self.keep_loop_iters = keep_loop_iters

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _emit(self, kind: str, data: dict[str, Any]) -> None:
        self.events.append(TraceEvent(self._seq, kind, data))
        self._seq += 1

    def superstep(self, name: str, **data: Any) -> None:
        """One BSP superstep; ``data`` carries the charged phase costs."""
        data["name"] = name
        data["depth"] = len(self._loop_stack)
        self._emit("superstep", data)

    def loop_enter(self, name: str) -> None:
        self._loop_stack.append(name)
        self.max_loop_depth = max(self.max_loop_depth, len(self._loop_stack))
        self._emit("loop_enter", {"name": name, "depth": len(self._loop_stack)})

    def loop_iter(self, name: str, iteration: int) -> None:
        if self.keep_loop_iters:
            self._emit("loop_iter", {"name": name, "iteration": iteration})

    def loop_exit(self, name: str, iterations: int) -> None:
        if self._loop_stack and self._loop_stack[-1] == name:
            self._loop_stack.pop()
        self._emit(
            "loop_exit",
            {"name": name, "iterations": iterations,
             "depth": len(self._loop_stack) + 1},
        )

    def branch(self, name: str, taken: str) -> None:
        self._emit("branch", {"name": name, "taken": taken})

    def event(self, kind: str, **data: Any) -> None:
        """Free-form event (used for solver lifecycle markers)."""
        self._emit(kind, data)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def superstep_count(self) -> int:
        """Number of traced supersteps (must equal the profiler's count)."""
        return sum(1 for event in self.events if event.kind == "superstep")

    def step_seconds(self, prefixes: Iterable[str] = STEP_PREFIXES) -> dict[str, float]:
        """Total charged seconds per step-name prefix.

        Consistent (up to float association) with
        :meth:`repro.ipu.profiler.ProfileReport.by_prefix` because both sum
        the same per-superstep charges.
        """
        totals = dict.fromkeys(prefixes, 0.0)
        for event in self.events:
            if event.kind != "superstep":
                continue
            name = event.data["name"]
            for prefix in prefixes:
                if name.startswith(prefix):
                    totals[prefix] += event.data.get("total_seconds", 0.0)
                    break
        return totals

    def loop_stats(self) -> dict[str, dict[str, int | float]]:
        """Per-condition loop statistics from ``loop_exit`` events.

        For HunIPU, ``path_active`` rows report augmenting-path lengths
        (entries/iterations), ``inner_cond`` the Step-4 search loop, and
        ``not_done`` the outer cover loop.
        """
        stats: dict[str, dict[str, int | float]] = {}
        for event in self.events:
            if event.kind != "loop_exit":
                continue
            name = event.data["name"]
            iterations = int(event.data["iterations"])
            row = stats.setdefault(
                name, {"entries": 0, "iterations": 0, "max_iterations": 0}
            )
            row["entries"] += 1
            row["iterations"] += iterations
            row["max_iterations"] = max(row["max_iterations"], iterations)
        for row in stats.values():
            entries = row["entries"]
            row["mean_iterations"] = row["iterations"] / entries if entries else 0.0
        return stats

    def branch_stats(self) -> dict[str, dict[str, int]]:
        """Per-condition taken/not-taken counts from ``branch`` events."""
        stats: dict[str, dict[str, int]] = {}
        for event in self.events:
            if event.kind != "branch":
                continue
            row = stats.setdefault(event.data["name"], {"then": 0, "else": 0})
            row[event.data["taken"]] += 1
        return stats

    def tile_imbalance(self) -> dict[str, float]:
        """Aggregate tile load-imbalance over compute supersteps.

        Each compute superstep carries ``imbalance`` = max/mean compute
        cycles over the tiles in use (C3: the superstep ends when the
        slowest tile does).  Returned aggregates: the compute-weighted
        mean, the worst superstep, and the number of supersteps measured.
        """
        weighted = 0.0
        weight = 0.0
        worst = 0.0
        measured = 0
        for event in self.events:
            if event.kind != "superstep" or "imbalance" not in event.data:
                continue
            imbalance = float(event.data["imbalance"])
            seconds = float(event.data.get("compute_seconds", 0.0))
            weighted += imbalance * seconds
            weight += seconds
            worst = max(worst, imbalance)
            measured += 1
        return {
            "mean": weighted / weight if weight > 0 else 0.0,
            "max": worst,
            "supersteps_measured": float(measured),
        }

    def summary(self) -> dict[str, Any]:
        """Everything the JSON export's ``summary`` section carries."""
        return {
            "events": len(self.events),
            "supersteps": self.superstep_count(),
            "max_loop_depth": self.max_loop_depth,
            "step_seconds": self.step_seconds(),
            "loops": self.loop_stats(),
            "branches": self.branch_stats(),
            "tile_imbalance": self.tile_imbalance(),
        }
