"""Partition-and-distribute dynamic tensor operations (§IV-G, Fig. 4).

The IPU's static graph has no efficient native dynamic indexing (challenge
C4): an index computed at run time could address memory on any tile.  The
paper's solution partitions the tensor into per-tile segments whose bounds
are compile-time constants; on a dynamic access every segment vertex checks
*in parallel* whether the index falls in its range, and only the owner acts:

* **dynamic slice** (:class:`DynSliceSegment`) — each segment writes either
  its element or a sentinel into a small temporary tensor (one slot per
  segment, at most 1472 — small enough for a single tile, as Fig. 4 notes);
  a follow-up vertex on that tile reduces the temporaries;
* **dynamic update** (:class:`DynStore`) — the owning segment writes the
  value; everyone else does nothing.

Costs: every vertex pays the range check plus (owner only) one dynamic
access; the broadcast of the index scalar is exchange traffic, all of which
the engine charges from the static plan.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.errors import GraphConstructionError
from repro.ipu.codelets import Codelet, CostContext, frozen

__all__ = ["SENTINEL", "Segments", "DynSliceSegment", "DynStore"]

#: Written by non-owning segments during a dynamic slice.  Distinct from -1,
#: which is a legitimate "no star / no prime" value in HunIPU's state.
SENTINEL = -2


class Segments:
    """The partition-and-distribute range check over compile-time segments.

    ``starts`` are the vertices' segment offsets and ``length`` their
    common size.  :meth:`owners` answers "which vertex holds global index
    *i*, at which local position" — what every segment vertex checks in
    parallel on the device.  Sorted, disjoint segments (every HunIPU use)
    are answered by one bisection instead of a vectorized compare.
    """

    def __init__(self, starts: np.ndarray, length: int) -> None:
        self.starts = frozen(np.asarray(starts).astype(np.int64))
        self.length = length
        self._start_list = self.starts.tolist()
        self._disjoint = all(
            later - earlier >= length
            for earlier, later in zip(self._start_list, self._start_list[1:])
        )

    def owners(self, index: int):
        """``(owners, local)`` index pair for ``data[owners, local]``, or
        ``None`` when no segment holds ``index``."""
        if self._disjoint:
            owner = bisect.bisect_right(self._start_list, index) - 1
            if owner >= 0 and index - self._start_list[owner] < self.length:
                return owner, index - self._start_list[owner]
            return None
        local = index - self.starts
        owners = np.flatnonzero((local >= 0) & (local < self.length))
        return (owners, local[owners]) if len(owners) else None


class DynSliceSegment(Codelet):
    """One segment's side of a distributed dynamic slice.

    Fields: ``state`` (small int vector holding the runtime index at
    position ``slot``), ``data`` (the local segment), ``out`` (this
    segment's slot in the temporary gather tensor).

    Params: ``start`` — the segment's global offset; ``slot`` — which
    element of ``state`` carries the index.
    """

    fields = {"state": "in", "data": "in", "out": "out"}
    dynamic_access = True
    local_fields = ("data",)

    def derive(self, views, params, cost: CostContext):
        batch, length = views["data"].shape
        return (
            int(params["slot"][0]),
            Segments(params["start"], length),
            frozen(np.full(batch, 2.0 * cost.cycles_per_alu_op)),
        )

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        slot, segments, cycles = self.plan_constants(views, params, cost)
        out = views["out"]
        out[:, 0] = SENTINEL
        found = segments.owners(int(views["state"][0, slot]))
        if found is not None:
            owners, local = found
            out[owners, 0] = views["data"][owners, local]
            cycles = cycles.copy()
            cycles[owners] += cost.cycles_per_dynamic_access
        return cycles


class DynStore(Codelet):
    """One segment's side of a distributed dynamic update.

    Fields: ``sel`` (small int vector: index at ``index_slot``, value at
    ``value_slot``), ``data`` (the local segment, updated in place by the
    owner).

    Params: ``start`` — segment offset; ``index_slot``; ``value_slot`` —
    position of the value in ``sel``, or ``-1`` to store the compile-time
    ``const_value`` instead.
    """

    fields = {"sel": "in", "data": "inout"}
    dynamic_access = True
    local_fields = ("data",)

    def derive(self, views, params, cost: CostContext):
        batch, length = views["data"].shape
        value_slot = int(params["value_slot"][0])
        if value_slot < 0 and "const_value" not in params:
            raise GraphConstructionError(
                "DynStore with value_slot=-1 requires a const_value param"
            )
        return (
            int(params["index_slot"][0]),
            value_slot,
            int(params["const_value"][0]) if value_slot < 0 else None,
            Segments(params["start"], length),
            frozen(np.full(batch, 2.0 * cost.cycles_per_alu_op)),
        )

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        index_slot, value_slot, const_value, segments, cycles = (
            self.plan_constants(views, params, cost)
        )
        sel = views["sel"]
        value = const_value if value_slot < 0 else int(sel[0, value_slot])
        found = segments.owners(int(sel[0, index_slot]))
        if found is not None:
            owners, local = found
            views["data"][owners, local] = value
            cycles = cycles.copy()
            cycles[owners] += cost.cycles_per_dynamic_access
        return cycles
