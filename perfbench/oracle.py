"""The correctness oracle, run on recorded answers outside the timed interval."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["check_answer", "optimum"]

#: Absolute plus relative slack on cost comparisons.  Inputs are integer
#: valued, so exact answers agree to the last bit; the slack only covers
#: summation order.
_ABS_TOL = 1e-9
_REL_TOL = 1e-12


def optimum(costs: np.ndarray) -> float:
    """The scipy optimum of ``costs``."""
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum())


def check_answer(
    costs: np.ndarray,
    assignment,
    claimed_cost: float,
    *,
    gap_bound: float | None = None,
) -> str | None:
    """``None`` if the answer is right, else why it is wrong.

    The assignment must be a permutation whose cost in the caller's units
    matches the claimed cost.  An exact answer (``gap_bound is None``) must
    cost the scipy optimum; an approximate one must lie within its own
    certified ``gap_bound`` of it.
    """
    size = costs.shape[0]
    perm = np.asarray(assignment, dtype=np.int64)
    if perm.shape != (size,) or not np.array_equal(np.sort(perm), np.arange(size)):
        return "assignment is not a permutation"
    actual = float(costs[np.arange(size), perm].sum())
    best = optimum(costs)
    tol = _ABS_TOL + _REL_TOL * max(abs(best), abs(actual))
    if abs(actual - float(claimed_cost)) > tol:
        return f"claimed cost {claimed_cost} but the assignment costs {actual}"
    if gap_bound is None:
        if abs(actual - best) > tol:
            return f"cost {actual} is not the optimum {best}"
    elif not -tol <= actual - best <= gap_bound + tol:
        return f"cost {actual} is outside gap bound {gap_bound} of the optimum {best}"
    return None
