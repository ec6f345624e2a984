"""Step 4 — search for an uncovered zero to prime (§IV-F).

Every row is classified into the three-state ``zero_status`` of the paper
(−1: no uncovered zero; 0: uncovered zero and a star in the row; 1:
uncovered zero, no star — an augmenting path can start here) by scanning
only the *compressed* zero positions.  A two-stage arg-max reduction picks
the acting row (max status, lowest row index on ties) and its uncovered
zero column, plus the column of the row's star — everything the three
outcomes need:

* max = −1 → Step 6 (no uncovered zeros anywhere);
* max = 1  → Step 5 (augment from the selected row);
* max = 0  → prime the zero, cover its row, uncover its star's column, and
  rerun Step 4 (built here as :func:`build_prime_update`).
"""

from __future__ import annotations

import numpy as np

from repro.core.dynamic_ops import DynStore, Segments
from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext, frozen
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import chip_slices
from repro.ipu.programs import Execute, Program, Sequence

__all__ = [
    "ZeroStatusScan",
    "StatusArgmaxPartial",
    "StatusArgmaxFinal",
    "PrimeRowUpdate",
    "build_step4",
    "build_prime_update",
]


class ZeroStatusScan(Codelet):
    """Classify each local row by scanning its compressed zero positions.

    One worker thread per row (§IV-F); only stored zero positions are
    examined, which is the compression payoff — cost scales with the number
    of zeros, not with n.  The per-tile arg-max over the freshly computed
    statuses is fused into the same vertex (``partial`` emits
    ``[status, global_row, zero_col, star_col]``).
    """

    fields = {
        "compress": "in",
        "zero_count": "in",
        "row_cover": "in",
        "row_star": "in",
        "col_cover": "in",
        "zero_status": "out",
        "zero_col": "out",
        "partial": "out",
    }

    def derive(self, views, params, cost: CostContext) -> "_ScanConstants":
        return _ScanConstants(views, params, cost)

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        k = self.plan_constants(views, params, cost)
        cells = k.cells
        covers = views["col_cover"][0]  # identical broadcast row
        # Touch only the segments' populated front slots — the compression
        # payoff: work scales with the zero count, not with n.
        slots = k.slots(views["zero_count"].reshape(-1, k.threads).max(axis=0))
        if len(slots):
            positions = views["compress"].reshape(cells, k.cols)[:, slots]
            # Open columns, plus a closed sentinel that the -1 padding
            # indexes: one gather finds the uncovered zeros.
            np.equal(covers, 0, out=k.open_cols[:-1])
            hit = k.open_cols[positions]
            first = hit.argmax(axis=1)
            has_zero = hit[k.cell_index, first]
            found_col = positions[k.cell_index, first]
            zeros_scanned = (positions >= 0).sum(axis=1)
            if k.rows > 1:
                zeros_scanned = zeros_scanned.reshape(k.batch, k.rows).sum(axis=1)
        else:
            has_zero = np.zeros(cells, dtype=bool)
            found_col = k.no_col
            zeros_scanned = k.no_zeros
        has_zero &= views["row_cover"].reshape(cells) == 0
        row_star = views["row_star"].reshape(cells)
        # -1: no uncovered zero; 0: zero and a star; 1: zero, no star.
        status = np.where(has_zero, row_star < 0, -1)
        found_col = np.where(has_zero, found_col, -1)
        views["zero_status"][...] = status.reshape(k.batch, k.rows)
        views["zero_col"][...] = found_col.reshape(k.batch, k.rows)
        # Fused per-tile arg-max (max status, lowest local row on ties).
        if k.rows == 1:
            best, row = k.cell_index, k.row0
        else:
            local = status.reshape(k.batch, k.rows).argmax(axis=1)
            best, row = k.row_base + local, k.row0 + local
        partial = views["partial"]
        partial[:, 0] = status[best]
        partial[:, 1] = row
        partial[:, 2] = found_col[best]
        partial[:, 3] = row_star[best]
        if k.cycles is not None:
            return k.cycles
        return k.cycles_by_zeros[zeros_scanned]


class _ScanConstants:
    """What :class:`ZeroStatusScan` derives once per compute set."""

    def __init__(self, views, params, cost: CostContext) -> None:
        from repro.core.compression import segment_bounds

        self.cols = int(params["cols"][0])
        self.threads = int(params["threads"][0])
        self.batch, width = views["compress"].shape
        self.rows = width // self.cols
        self.cells = self.batch * self.rows
        self.cell_index = frozen(np.arange(self.cells))
        self.row_base = frozen(np.arange(self.batch) * self.rows)
        self.row0 = frozen(params["row0"].astype(np.int64))
        self.no_col = frozen(np.full(self.cells, -1, dtype=np.int64))
        self.no_zeros = frozen(np.zeros(self.batch, dtype=np.int64))
        #: Scratch: which columns are uncovered, then a ``False`` sentinel.
        self.open_cols = np.zeros(views["col_cover"].shape[1] + 1, dtype=bool)
        self._bounds = segment_bounds(self.cols, self.threads)
        self._slots: dict[bytes, np.ndarray] = {}
        segment_cycles = np.asarray(cost.segmented(cost.scan_cycles(self.rows)))
        if params.get("full_scan") is not None and params["full_scan"][0]:
            # Compression ablation: charge what scanning the raw slack rows
            # would cost (the computation itself is unchanged).
            work = self.rows * np.asarray(cost.scan_cycles(self.cols)) * np.ones(
                self.batch
            )
            self.cycles = frozen(np.ceil(work / cost.threads_per_tile) + segment_cycles)
        else:
            self.cycles = None
            # Cycles as a function of the zeros a vertex scanned, tabulated
            # with the same float operations the per-call formula used.
            zeros = np.arange(self.rows * self.cols + 1)
            work = (
                zeros * (cost.cycles_per_dynamic_access + cost.cycles_per_alu_op)
                + self.rows * 2 * cost.cycles_per_alu_op
            )
            self.cycles_by_zeros = frozen(
                np.ceil(work / cost.threads_per_tile) + segment_cycles
            )

    def slots(self, occupancy: np.ndarray) -> np.ndarray:
        """Columns of each segment's first ``occupancy[t]`` slots, in order.

        Memoized by occupancy pattern (bounded: a run revisits few).
        """
        key = occupancy.tobytes()
        slots = self._slots.get(key)
        if slots is None:
            if len(self._slots) >= _SLOT_MEMO_LIMIT:
                self._slots.clear()
            slots = self._slots[key] = frozen(
                np.concatenate(
                    [
                        np.arange(start, start + occupied)
                        for (start, _), occupied in zip(self._bounds, occupancy.tolist())
                    ]
                )
            )
        return slots


#: Occupancy patterns one :class:`_ScanConstants` remembers before it
#: starts over.
_SLOT_MEMO_LIMIT = 4096


class StatusArgmaxPartial(Codelet):
    """Per-chip combine of the tile winners (max status, lowest row on ties).

    The intra-IPU stage of the hierarchical Step-4 reduction: each chip
    folds its own tiles' ``[status, row, zero_col, star_col]`` partials
    into one winner, on a tile of that chip, so only one 4-tuple per chip
    ever crosses IPU-Links.  The order (status descending, row ascending)
    is a total order over distinct rows, so composing this stage with
    :class:`StatusArgmaxFinal` selects exactly the same row as the flat
    single-stage arg-max — bit-identical control flow on every branch.
    """

    fields = {"partials": "in", "winner": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        flat = views["partials"]
        batch = flat.shape[0]
        tiles = flat.shape[1] // 4
        partials = flat.reshape(batch, tiles, 4)
        size_bound = np.int64(partials[..., 1].max() + 2)
        score = partials[..., 0].astype(np.int64) * (2 * size_bound) - partials[..., 1]
        best = score.argmax(axis=1)
        take = np.arange(batch)
        views["winner"][...] = partials[take, best]
        return np.full(batch, float(np.asarray(cost.scan_cycles(tiles * 4))))


class StatusArgmaxFinal(Codelet):
    """Combine the per-tile winners (max status, lowest row on ties).

    Also emits the two branch predicates of §IV-F in the same pass (fused,
    like a specialized Poplar reduction vertex would be) and counts the
    primes the 0-branch is about to take.
    """

    fields = {
        "partials": "in",
        "sel": "out",
        "max_status": "out",
        "flag_update": "out",
        "flag_aug": "out",
        "prime_count": "inout",
    }

    def derive(self, views, params, cost: CostContext):
        batch, width = views["partials"].shape
        tiles = width // 4
        cycles = np.full(batch, float(np.asarray(cost.scan_cycles(tiles * 4))))
        return tiles, frozen(cycles)

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        tiles, cycles = self.plan_constants(views, params, cost)
        partials = views["partials"].reshape(len(cycles), tiles, 4)
        # Lexicographic argmax: status descending, then row ascending.  A
        # status step outweighs any int32 row difference, so the int64
        # score orders exactly like the (status, -row) pair.
        score = partials[..., 0] * _STATUS_WEIGHT - partials[..., 1]
        # One vertex in practice: scalar stores beat vector ops here.
        for vertex, best in enumerate(score.argmax(axis=1).tolist()):
            sel = partials[vertex, best]
            views["sel"][vertex] = sel
            status = int(sel[0])
            views["max_status"][vertex, 0] = status
            views["flag_update"][vertex, 0] = status == -1
            views["flag_aug"][vertex, 0] = status == 1
            views["prime_count"][vertex, 0] += status == 0
        return cycles


#: Weight of one status step in :class:`StatusArgmaxFinal`'s score.
_STATUS_WEIGHT = np.int64(1) << 32


class PrimeRowUpdate(Codelet):
    """Owner-side of the prime action: record the prime, cover the row."""

    fields = {"sel": "in", "row_prime": "inout", "row_cover": "inout"}

    def derive(self, views, params, cost: CostContext):
        return (
            Segments(params["start"], views["row_prime"].shape[1]),
            frozen(np.full(len(params["start"]), 2.0 * cost.cycles_per_alu_op)),
        )

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        segments, cycles = self.plan_constants(views, params, cost)
        sel = views["sel"]
        row, col = int(sel[0, 1]), int(sel[0, 2])
        found = segments.owners(row)
        if found is not None:
            owners, local = found
            views["row_prime"][owners, local] = col
            views["row_cover"][owners, local] = 1
            cycles = cycles.copy()
            cycles[owners] += 2 * cost.cycles_per_dynamic_access
        return cycles


def build_step4(
    graph: ComputeGraph,
    state: SolverState,
    plan: MappingPlan,
    *,
    use_compression: bool = True,
) -> Program:
    """Build the status scan + arg-max + branch flags program.

    ``use_compression=False`` charges Step 4 as if it scanned the raw slack
    rows (the §IV-B ablation); the computed result is identical.
    """
    n = plan.size
    tiles = plan.num_row_tiles
    partials = graph.add_tensor(
        "step4/partials",
        (tiles, 4),
        np.int32,
        mapping=TileMapping.linear_segments(tiles * 4, 4, plan.row_tiles),
    )
    cs_scan = graph.add_compute_set("step4/status_scan")
    cs_final = graph.add_compute_set("step4/argmax_final")

    scan = ZeroStatusScan()
    threads = graph.spec.threads_per_tile
    for index, tile in enumerate(plan.row_tiles):
        row_start, row_stop = plan.row_block(index)
        cs_scan.add_vertex(
            scan,
            tile,
            {
                "compress": ComputeGraph.rows(state.compress, row_start, row_stop),
                "zero_count": ComputeGraph.span(
                    state.zero_count, row_start * threads, row_stop * threads
                ),
                "row_cover": ComputeGraph.span(state.row_cover, row_start, row_stop),
                "row_star": ComputeGraph.span(state.row_star, row_start, row_stop),
                "col_cover": ComputeGraph.full(state.col_cover),
                "zero_status": ComputeGraph.span(
                    state.zero_status, row_start, row_stop
                ),
                "zero_col": ComputeGraph.span(state.zero_col, row_start, row_stop),
                "partial": ComputeGraph.span(partials, index * 4, (index + 1) * 4),
            },
            params={
                "cols": n,
                "threads": threads,
                "row0": row_start,
                "full_scan": 0 if use_compression else 1,
            },
        )
    slices = (
        chip_slices(plan.row_tiles, graph.spec.num_tiles)
        if graph.spec.num_ipus > 1
        else None
    )
    if slices is not None and len(slices) > 1:
        # Hierarchical arg-max (§IV-F on a cluster): each chip folds its own
        # tiles' partials into one winner locally, so only one 4-tuple per
        # chip crosses IPU-Links into the final stage.  The lexicographic
        # order is associative over distinct rows — same selection, same
        # branches, bit for bit.
        ipu_partials = graph.add_tensor(
            "step4/ipu_partials",
            (len(slices), 4),
            np.int32,
            mapping=TileMapping.linear_segments(
                len(slices) * 4,
                4,
                [plan.row_tiles[start] for _, start, _ in slices],
            ),
        )
        cs_ipu = graph.add_compute_set("step4/argmax_ipu")
        for index, (_, start, stop) in enumerate(slices):
            cs_ipu.add_vertex(
                StatusArgmaxPartial(),
                plan.row_tiles[start],
                {
                    "partials": ComputeGraph.span(partials, start * 4, stop * 4),
                    "winner": ComputeGraph.span(
                        ipu_partials, index * 4, (index + 1) * 4
                    ),
                },
            )
        final_input = ipu_partials
        stages = [Execute(cs_scan), Execute(cs_ipu), Execute(cs_final)]
    else:
        final_input = partials
        stages = [Execute(cs_scan), Execute(cs_final)]
    cs_final.add_vertex(
        StatusArgmaxFinal(),
        0,
        {
            "partials": ComputeGraph.full(final_input),
            "sel": ComputeGraph.full(state.sel),
            "max_status": ComputeGraph.full(state.max_status),
            "flag_update": ComputeGraph.full(state.flag_update),
            "flag_aug": ComputeGraph.full(state.flag_aug),
            "prime_count": ComputeGraph.full(state.prime_count),
        },
    )
    return Sequence(*stages)


def build_prime_update(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Build the max-status-0 action: prime, cover row, uncover star column."""
    cs_rows = graph.add_compute_set("step4/prime_rows")
    prime = PrimeRowUpdate()
    for index, tile in enumerate(plan.row_tiles):
        row_start, row_stop = plan.row_block(index)
        cs_rows.add_vertex(
            prime,
            tile,
            {
                "sel": ComputeGraph.full(state.sel),
                "row_prime": ComputeGraph.span(state.row_prime, row_start, row_stop),
                "row_cover": ComputeGraph.span(state.row_cover, row_start, row_stop),
            },
            params={"start": row_start},
        )
    cs_cols = graph.add_compute_set("step4/prime_cols")
    store = DynStore()
    mapping = state.col_cover.require_mapping()
    for interval in mapping.intervals:
        cs_cols.add_vertex(
            store,
            interval.tile,
            {
                "sel": ComputeGraph.full(state.sel),
                "data": ComputeGraph.span(
                    state.col_cover, interval.start, interval.stop
                ),
            },
            params={
                "start": interval.start,
                "index_slot": 3,
                "value_slot": -1,
                "const_value": 0,
            },
        )
    return Sequence(Execute(cs_rows), Execute(cs_cols))
