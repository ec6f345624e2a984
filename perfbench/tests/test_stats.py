import math

import pytest

from perfbench.stats import InsufficientSamples, percentile, quartile_spread, share


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90.0
    with pytest.raises(InsufficientSamples):
        percentile(values[:99], 0.9)


def test_median_needs_twenty_samples():
    assert percentile(list(range(20, 0, -1)), 0.5) == 10.0
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 0.5)


def test_percentile_rejects_out_of_range_quantiles():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 1.0)


def test_share_with_zero_denominator_is_zero():
    assert share(0, 0) == 0.0
    assert share(3, 0) == 0.0
    assert share(1, 4) == 0.25


def test_quartile_spread():
    assert quartile_spread([5.0]) == 0.0
    assert quartile_spread([2.0, 2.0, 2.0]) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert math.isinf(quartile_spread([-1.0, 0.0, 1.0]))
