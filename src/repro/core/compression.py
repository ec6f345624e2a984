"""Slack-matrix compression (§IV-B, Fig. 1).

HunIPU only ever cares about the *zero* elements of the slack matrix, so it
stores, per row, the positions of the zeros.  Each row is split into
``threads`` (six) equal segments; thread *t* scans its segment and writes
the zero positions into the *same slots* of the compress matrix (front of
the segment, ``-1``-padded), and the zero count of its segment into
``zero_count[row, t]``.  Because each thread owns disjoint slots, no atomic
operations are needed (challenge C1), and the scheme is balanced across
threads (C3).

This module provides the device codelets (:class:`CompressRows`,
:class:`RowZeroSum`) and a plain-numpy reference
(:func:`compress_rows_host`) used by the property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.ipu.codelets import Codelet, CostContext, frozen

__all__ = [
    "segment_bounds",
    "compress_rows_host",
    "CompressRows",
    "RowZeroSum",
    "build_compress",
]


def segment_bounds(cols: int, threads: int) -> list[tuple[int, int]]:
    """Column ranges of the per-thread segments (near-equal split).

    The first ``cols % threads`` segments take one extra column; segments
    beyond the column count are empty ``(c, c)`` ranges.
    """
    base, extra = divmod(cols, threads)
    bounds = []
    start = 0
    for thread in range(threads):
        length = base + (1 if thread < extra else 0)
        bounds.append((start, start + length))
        start += length
    return bounds


def compress_rows_host(
    slack: np.ndarray, threads: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Reference compression of a 2-D slack block.

    Returns ``(compress, zero_count)`` exactly as Fig. 1 lays them out:
    ``compress`` has the same shape as ``slack`` with each thread segment
    holding its zeros' column positions front-packed and ``-1``-padded;
    ``zero_count[row, t]`` is segment *t*'s zero count.
    """
    rows, cols = slack.shape
    compress = np.full((rows, cols), -1, dtype=np.int32)
    zero_count = np.zeros((rows, threads), dtype=np.int32)
    for thread, (start, stop) in enumerate(segment_bounds(cols, threads)):
        for row in range(rows):
            positions = start + np.flatnonzero(slack[row, start:stop] <= tol)
            compress[row, start : start + positions.size] = positions
            zero_count[row, thread] = positions.size
    return compress, zero_count


class CompressRows(Codelet):
    """Device codelet: compress each local row into zero positions.

    Six worker threads scan six row segments concurrently, so the tile cost
    is the per-row scan divided across threads (§IV-B), using paired 64-bit
    loads (§IV-C).
    """

    fields = {"block": "in", "compress": "out", "zero_count": "out"}

    def derive(self, views, params, cost: CostContext) -> "_CompressConstants":
        return _CompressConstants(views, params, cost)

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        k = self.plan_constants(views, params, cost)
        shape = (k.batch, k.rows, k.cols)
        compress = views["compress"].reshape(shape)
        zeros = views["block"].reshape(shape) <= k.tol
        # prefix[..., c] = zeros in columns [0, c) of the row.
        prefix = k.prefix
        np.cumsum(zeros, axis=-1, out=prefix[..., 1:])
        views["zero_count"].reshape(k.batch, k.rows, -1)[...] = (
            prefix[..., k.segment_stops] - prefix[..., k.segment_starts]
        )
        # Thread t front-packs its segment: a zero's slot is its rank among
        # the segment's zeros.
        compress[...] = -1
        batch_idx, row_idx, col_idx = np.nonzero(zeros)
        first = k.segment_start_of[col_idx]
        slots = prefix[batch_idx, row_idx, col_idx] - prefix[batch_idx, row_idx, first]
        compress[batch_idx, row_idx, first + slots] = col_idx
        return k.cycles


class _CompressConstants:
    """What :class:`CompressRows` derives once per compute set."""

    def __init__(self, views, params, cost: CostContext) -> None:
        self.cols = int(params["cols"][0])
        threads = int(params["threads"][0])
        self.tol = float(params["tol"][0])
        self.batch = views["block"].shape[0]
        self.rows = views["block"].shape[1] // self.cols
        bounds = segment_bounds(self.cols, threads)
        self.segment_starts = frozen(np.array([start for start, _ in bounds]))
        self.segment_stops = frozen(np.array([stop for _, stop in bounds]))
        self.segment_start_of = frozen(
            np.repeat(self.segment_starts, self.segment_stops - self.segment_starts)
        )
        #: Scratch zero-count prefix sums, column 0 fixed at zero.
        self.prefix = np.zeros((self.batch, self.rows, self.cols + 1), dtype=np.int32)
        work = self.rows * cost.scan_cycles(self.cols)
        self.cycles = frozen(np.asarray(cost.segmented(work)) * np.ones(self.batch))


def build_compress(graph, state, plan):
    """Build the (re)compression compute set (§IV-B).

    The same program object is executed after Step 1 and after every Step 6
    slack update — re-executing a compute set is the static-graph way of
    "calling" it again.
    """
    from repro.ipu.graph import ComputeGraph
    from repro.ipu.programs import Execute

    threads = graph.spec.threads_per_tile
    compute_set = graph.add_compute_set("compress")
    codelet = CompressRows()
    n = plan.size
    for index, tile in enumerate(plan.row_tiles):
        row_start, row_stop = plan.row_block(index)
        compute_set.add_vertex(
            codelet,
            tile,
            {
                "block": ComputeGraph.rows(state.slack, row_start, row_stop),
                "compress": ComputeGraph.rows(state.compress, row_start, row_stop),
                "zero_count": ComputeGraph.span(
                    state.zero_count, row_start * threads, row_stop * threads
                ),
            },
            params={"cols": n, "threads": threads, "tol": state.tol},
        )
    return Execute(compute_set)


class RowZeroSum(Codelet):
    """Sum the per-segment zero counts into one count per row (Step 2)."""

    fields = {"zero_count": "in", "row_zeros": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        threads = int(params["threads"][0])
        counts = views["zero_count"]
        batch = counts.shape[0]
        rows = counts.shape[1] // threads
        views["row_zeros"][...] = counts.reshape(batch, rows, threads).sum(axis=2)
        return np.full(batch, float(rows * threads * cost.cycles_per_alu_op))
