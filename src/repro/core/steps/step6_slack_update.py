"""Step 6 — slack matrix update (§IV-H).

Finds the minimum uncovered slack value Δ and applies the paper's update
rule — add Δ to the doubly-covered entries, subtract Δ from the doubly
uncovered ones — which creates at least one new uncovered zero.  On the
device this is:

1. a per-tile segmented minimum over the uncovered part of the local row
   block (six threads, pairwise two-float loads),
2. a two-stage reduce of the per-tile partials into Δ,
3. a parallel update of every row block (Δ broadcast via vertex reads), and
4. a re-compression of the slack matrix (the compress compute set is simply
   executed again).
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext, frozen
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import AddToScalar, build_reduce
from repro.ipu.programs import Execute, Program, Sequence

__all__ = ["UncoveredMinPartial", "SlackUpdate", "build_step6"]


class UncoveredMinPartial(Codelet):
    """Per-tile minimum over uncovered entries of the local row block.

    Covered rows are skipped entirely; uncovered rows are scanned with the
    six-segment, two-float-per-load pattern of §IV-H.  Emits +inf when the
    tile has no uncovered element (a later reduce ignores it).
    """

    fields = {"block": "in", "row_cover": "in", "col_cover": "in", "partial": "out"}

    def derive(self, views, params, cost: CostContext):
        cols = int(params["cols"][0])
        batch, width = views["block"].shape
        rows = width // cols
        # Cycles as a function of a vertex's uncovered rows, tabulated with
        # the float operations of the per-call formula.
        work = np.arange(rows + 1) * np.asarray(cost.scan_cycles(cols))
        cycles = np.ceil(work / cost.threads_per_tile) + cost.cycles_per_alu_op
        return (batch, rows, cols), frozen(cycles)

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        shape, cycles_by_rows = self.plan_constants(views, params, cost)
        open_rows = views["row_cover"] == 0
        open_cols = views["col_cover"][0][: shape[2]] == 0
        mask = open_rows[:, :, None] & open_cols[None, None, :]
        masked = np.where(mask, views["block"].reshape(shape), np.inf)
        views["partial"][:, 0] = masked.min(axis=(1, 2))
        return cycles_by_rows[open_rows.sum(axis=1)]


class SlackUpdate(Codelet):
    """Apply the Δ update: ``S += Δ * (row_covered + col_covered − 1)``.

    The rank-one form is exactly the paper's rule — +Δ where both line
    covers hold, −Δ where neither does, unchanged otherwise — applied as
    one streaming pass with paired loads.
    """

    fields = {"block": "inout", "row_cover": "in", "col_cover": "in", "delta": "in"}

    def derive(self, views, params, cost: CostContext):
        cols = int(params["cols"][0])
        batch, width = views["block"].shape
        rows = width // cols
        work = rows * cols * (cost.cycles_per_load2 / 2 + 2 * cost.cycles_per_alu_op)
        cycles = np.full(batch, float(np.asarray(cost.segmented(work))))
        return (batch, rows, cols), frozen(cycles)

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        shape, cycles = self.plan_constants(views, params, cost)
        shaped = views["block"].reshape(shape)
        delta = views["delta"][0, 0]
        row_sign = (views["row_cover"] != 0).astype(shaped.dtype)
        col_sign = (views["col_cover"][0][: shape[2]] != 0).astype(shaped.dtype)
        shaped += delta * (row_sign[:, :, None] + col_sign[None, None, :] - 1.0)
        return cycles


def build_step6(
    graph: ComputeGraph,
    state: SolverState,
    plan: MappingPlan,
    recompress: Program,
) -> Program:
    """Build Step 6; ``recompress`` is the shared compression program."""
    n = plan.size
    tiles = plan.num_row_tiles
    partials = graph.add_tensor(
        "step6/partials",
        (tiles,),
        state.dtype,
        mapping=TileMapping.per_element(plan.row_tiles),
    )
    cs_partial = graph.add_compute_set("step6/min_partial")
    cs_update = graph.add_compute_set("step6/update")
    partial = UncoveredMinPartial()
    update = SlackUpdate()
    for index, tile in enumerate(plan.row_tiles):
        row_start, row_stop = plan.row_block(index)
        block = ComputeGraph.rows(state.slack, row_start, row_stop)
        row_cover = ComputeGraph.span(state.row_cover, row_start, row_stop)
        col_cover = ComputeGraph.full(state.col_cover)
        cs_partial.add_vertex(
            partial,
            tile,
            {
                "block": block,
                "row_cover": row_cover,
                "col_cover": col_cover,
                "partial": ComputeGraph.span(partials, index, index + 1),
            },
            params={"cols": n},
        )
        cs_update.add_vertex(
            update,
            tile,
            {
                "block": block,
                "row_cover": row_cover,
                "col_cover": col_cover,
                "delta": ComputeGraph.full(state.delta),
            },
            params={"cols": n},
        )
    reduce_delta = build_reduce(
        graph, partials, "min", state.delta, "step6/delta"
    )
    cs_count = graph.add_compute_set("step6/count")
    cs_count.add_vertex(
        AddToScalar(), 0, {"out": ComputeGraph.full(state.update_count)},
        params={"value": 1},
    )
    return Sequence(
        Execute(cs_partial),
        reduce_delta,
        Execute(cs_update),
        recompress,
        Execute(cs_count),
    )
