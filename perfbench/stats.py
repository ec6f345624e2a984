"""Pure summary helpers: percentiles under the ten-beyond rule, shares, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "InsufficientSamples",
    "MIN_BEYOND",
    "percentile",
    "quartile_spread",
    "share",
]

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile under the ten-beyond rule."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    The value at rank ``ceil(q * n)`` is returned only if at least
    :data:`MIN_BEYOND` samples rank above it; otherwise the estimate would
    rest on a handful of outliers, and :class:`InsufficientSamples` is
    raised.  (The library has its own percentile; the benchmark keeps its
    arithmetic apart from the code it measures.)
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {count} samples has {count - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(sorted(samples)[rank - 1])


def share(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is nothing to divide by."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median of ``values``, as ``statistics.quantiles(n=4)`` gives them.

    Zero for a single value or identical values; infinite when the median is
    zero but the quartiles differ.
    """
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    if median == 0:
        return math.inf
    return (q3 - q1) / abs(median)
