"""Seeded inputs of the four workloads.

Every generator is a pure function of ``(seed, scale)``: the same seed gives
the same matrices in the same order, so every pass over a list does the same
modeled work.  Costs are integer-valued float64 matrices, so the oracle can
compare costs exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "SCALES",
    "DriftTick",
    "ServeRequest",
    "batch_calls",
    "drift_ticks",
    "drift_streams",
    "serve_requests",
    "solve_cold_list",
]

#: Workload shapes per scale.  ``full`` is what BENCHMARK.json measures;
#: ``tiny`` keeps every code path but shrinks shapes for the smoke tests.
#: Each list holds at least 100 ops, so a p90 has ten samples beyond it.
SCALES = {
    "full": {
        "cold_sizes": (16, 32, 64, 32, 16, 32),  # the 2:3:1 interleave
        "cold_ops": 204,
        "wide_every": 16,
        "drift_size": 64,
        "drift_streams": 4,
        "drift_ticks": 208,
        "drift_rows": 2,
        "drift_big_every": 8,
        "batch_calls": 10,
        "batch_mix": {32: 14, 28: 4, 16: 2},
        "serve_sizes": (8, 12, 16, 20, 24, 28, 32),
        "serve_rate": 18.0,
        "serve_pass_s": 6.0,
        "serve_sessions": 4,
    },
    "tiny": {
        "cold_sizes": (4, 6, 8, 6, 4, 6),
        "cold_ops": 102,
        "wide_every": 16,
        "drift_size": 8,
        "drift_streams": 4,
        "drift_ticks": 104,
        "drift_rows": 2,
        "drift_big_every": 8,
        "batch_calls": 13,
        "batch_mix": {8: 5, 7: 2, 4: 1},
        "serve_sizes": (4, 5, 6, 8),
        "serve_rate": 60.0,
        "serve_pass_s": 2.0,
        "serve_sessions": 4,
    },
}


def _uniform(rng: np.random.Generator, rows: int, size: int) -> np.ndarray:
    """Integer costs in ``[0, 10 * size)`` (the paper's k = 10 range)."""
    return rng.integers(0, 10 * size, size=(rows, size)).astype(np.float64)


def _wide_spread(rng: np.random.Generator, size: int) -> np.ndarray:
    """Integer costs in ``[0, 10)`` plus one 1e12 entry (a 1e11 spread)."""
    costs = rng.integers(0, 10, size=(size, size)).astype(np.float64)
    costs[rng.integers(size), rng.integers(size)] = 1e12
    return costs


def solve_cold_list(seed: int, scale: str = "full") -> list[tuple[np.ndarray, bool]]:
    """``(costs, wide)`` pairs: sizes cycle through the interleave, and every
    ``wide_every``-th op is a wide-spread instance."""
    cfg = SCALES[scale]
    rng = np.random.default_rng([seed, 1])
    sizes = cfg["cold_sizes"]
    ops = []
    for index in range(cfg["cold_ops"]):
        size = sizes[index % len(sizes)]
        wide = index % cfg["wide_every"] == cfg["wide_every"] - 1
        ops.append((_wide_spread(rng, size) if wide else _uniform(rng, size, size), wide))
    return ops


@dataclasses.dataclass(frozen=True)
class DriftTick:
    """One resolve: which stream, and that stream's costs after the drift."""

    stream: int
    costs: np.ndarray


def drift_streams(seed: int, scale: str = "full") -> list[np.ndarray]:
    """The starting matrix of each drifting stream (solved during set-up)."""
    cfg = SCALES[scale]
    rng = np.random.default_rng([seed, 2])
    return [_uniform(rng, cfg["drift_size"], cfg["drift_size"]) for _ in range(cfg["drift_streams"])]


def drift_ticks(seed: int, scale: str = "full") -> list[DriftTick]:
    """Round-robin ticks over the streams.

    Each tick redraws ``drift_rows`` rows of its stream; every
    ``drift_big_every``-th tick of a stream redraws more than half the rows,
    which routes ``resolve`` to its ``delta_too_large`` cold fallback.
    """
    cfg = SCALES[scale]
    size = cfg["drift_size"]
    current = [costs.copy() for costs in drift_streams(seed, scale)]
    rng = np.random.default_rng([seed, 3])
    ticks = []
    for index in range(cfg["drift_ticks"]):
        stream = index % len(current)
        stream_tick = index // len(current)
        big = stream_tick % cfg["drift_big_every"] == cfg["drift_big_every"] - 1
        count = size // 2 + 1 if big else cfg["drift_rows"]
        rows = rng.choice(size, size=count, replace=False)
        costs = current[stream].copy()
        costs[rows] = _uniform(rng, count, size)
        current[stream] = costs
        ticks.append(DriftTick(stream=stream, costs=costs))
    return ticks


def batch_calls(seed: int, scale: str = "full") -> list[list[np.ndarray]]:
    """Fixed mixed batches, each a list of cost matrices in submission
    order: the majority size, stragglers that pad onto it, and a few small
    instances that form their own group."""
    cfg = SCALES[scale]
    rng = np.random.default_rng([seed, 4])
    sizes = [size for size, count in cfg["batch_mix"].items() for _ in range(count)]
    calls = []
    for _ in range(cfg["batch_calls"]):
        order = rng.permutation(len(sizes))
        calls.append([_uniform(rng, sizes[i], sizes[i]) for i in order])
    return calls


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One HTTP request of the open loop, due at ``due_s`` after the start."""

    due_s: float
    costs: np.ndarray
    tier: str
    session_id: str | None


def serve_requests(seed: int, scale: str = "full") -> list[ServeRequest]:
    """One open-loop pass: ``serve_pass_s`` seconds at the fixed offered rate.

    Arrivals are evenly spaced.  Even-numbered requests are session traffic:
    each session keeps one size and drifts two rows per request.  The rest
    cycle through the sizes and, independently, the ``ipu``, ``auto`` and
    ``approx`` tiers.
    """
    cfg = SCALES[scale]
    rng = np.random.default_rng([seed, 5])
    sizes = cfg["serve_sizes"]
    rate = cfg["serve_rate"]
    sessions = [
        _uniform(rng, size, size)
        for size in (sizes[(2 * k + 1) % len(sizes)] for k in range(cfg["serve_sessions"]))
    ]
    tiers = ("ipu", "auto", "approx")
    requests = []
    count = round(rate * cfg["serve_pass_s"])
    for index in range(count):
        due = index / rate
        if index % 2 == 0:
            session = (index // 2) % len(sessions)
            costs = sessions[session].copy()
            size = costs.shape[0]
            rows = rng.choice(size, size=min(2, size), replace=False)
            costs[rows] = _uniform(rng, len(rows), size)
            sessions[session] = costs
            requests.append(ServeRequest(due, costs, "ipu", f"session-{session}"))
        else:
            size = sizes[(index // 2) % len(sizes)]
            tier = tiers[(index // 2) % len(tiers)]
            requests.append(ServeRequest(due, _uniform(rng, size, size), tier, None))
    return requests
