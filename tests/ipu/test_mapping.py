"""Tests for tile mappings (interval covers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.ipu.mapping import Interval, TileMapping


class TestInterval:
    def test_length(self):
        assert Interval(0, 3, 10).length == 7

    def test_rejects_negative_tile(self):
        with pytest.raises(MappingError):
            Interval(-1, 0, 1)

    def test_rejects_empty_interval(self):
        with pytest.raises(MappingError):
            Interval(0, 5, 5)


class TestExactCover:
    def test_gap_rejected(self):
        with pytest.raises(MappingError, match="gap"):
            TileMapping(10, (Interval(0, 0, 4), Interval(1, 5, 10)))

    def test_overlap_rejected(self):
        with pytest.raises(MappingError, match="gap or overlap"):
            TileMapping(10, (Interval(0, 0, 6), Interval(1, 4, 10)))

    def test_short_cover_rejected(self):
        with pytest.raises(MappingError, match="covers"):
            TileMapping(10, (Interval(0, 0, 4),))

    def test_empty_tensor_rejected(self):
        with pytest.raises(MappingError):
            TileMapping(0, ())

    def test_intervals_sorted(self):
        mapping = TileMapping(4, (Interval(1, 2, 4), Interval(0, 0, 2)))
        assert mapping.intervals[0].start == 0


class TestRowBlocks:
    def test_even_split(self):
        mapping = TileMapping.row_blocks((8, 4), range(4))
        assert len(mapping) == 4
        assert all(iv.length == 8 for iv in mapping.intervals)

    def test_uneven_split_front_loads_extra(self):
        mapping = TileMapping.row_blocks((5, 2), range(2))
        assert mapping.intervals[0].length == 6  # 3 rows
        assert mapping.intervals[1].length == 4  # 2 rows

    def test_more_tiles_than_rows(self):
        mapping = TileMapping.row_blocks((2, 3), range(10))
        assert len(mapping.tiles_used()) == 2

    def test_rejects_empty_tile_list(self):
        with pytest.raises(MappingError):
            TileMapping.row_blocks((4, 4), [])

    def test_rejects_bad_shape(self):
        with pytest.raises(MappingError):
            TileMapping.row_blocks((0, 4), range(2))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 50), cols=st.integers(1, 20), tiles=st.integers(1, 16))
    def test_always_exact_cover_and_balanced(self, rows, cols, tiles):
        mapping = TileMapping.row_blocks((rows, cols), range(tiles))
        assert mapping.size == rows * cols
        lengths = [iv.length for iv in mapping.intervals]
        assert sum(lengths) == rows * cols
        # Balanced within one row of each other.
        assert max(lengths) - min(lengths) <= cols


class TestLinearSegments:
    def test_segments_of_32(self):
        mapping = TileMapping.linear_segments(100, 32, range(8))
        assert [iv.length for iv in mapping.intervals] == [32, 32, 32, 4]

    def test_round_robin_wraps(self):
        mapping = TileMapping.linear_segments(8, 2, [5, 6])
        assert [iv.tile for iv in mapping.intervals] == [5, 6, 5, 6]

    def test_rejects_zero_segment(self):
        with pytest.raises(MappingError):
            TileMapping.linear_segments(8, 0, [0])


class TestPerElement:
    def test_one_element_per_tile(self):
        mapping = TileMapping.per_element([3, 1, 4])
        assert mapping.size == 3
        assert mapping.tile_of(0) == 3
        assert mapping.tile_of(2) == 4

    def test_rejects_empty(self):
        with pytest.raises(MappingError):
            TileMapping.per_element([])


class TestGridBlocks:
    def test_2d_grid_interval_structure(self):
        mapping = TileMapping.grid_blocks((4, 4), (2, 2), range(4))
        assert mapping.size == 16
        # Each row is split across two tiles -> 8 intervals of length 2.
        assert len(mapping) == 8
        assert all(iv.length == 2 for iv in mapping.intervals)

    def test_rejects_grid_finer_than_matrix(self):
        with pytest.raises(MappingError):
            TileMapping.grid_blocks((2, 2), (3, 1), range(3))

    def test_rejects_too_few_tiles(self):
        with pytest.raises(MappingError):
            TileMapping.grid_blocks((4, 4), (2, 2), range(3))


class TestQueries:
    def test_bytes_per_tile(self):
        mapping = TileMapping.row_blocks((4, 2), range(2))
        assert mapping.bytes_per_tile(4) == {0: 16, 1: 16}

    def test_tile_of_out_of_range(self):
        mapping = TileMapping.single_tile(4)
        with pytest.raises(MappingError):
            mapping.tile_of(4)

    def test_intervals_on_tile(self):
        mapping = TileMapping.linear_segments(8, 2, [0, 1])
        assert len(mapping.intervals_on_tile(0)) == 2

    def test_uniform_blocks_detected(self):
        mapping = TileMapping.row_blocks((8, 4), range(4))
        uniform = mapping.as_uniform_blocks()
        assert uniform == (8, (0, 1, 2, 3))

    def test_non_uniform_blocks_rejected(self):
        mapping = TileMapping.row_blocks((5, 2), range(2))
        assert mapping.as_uniform_blocks() is None

    def test_repeated_tile_not_uniform(self):
        mapping = TileMapping.linear_segments(8, 2, [0, 1])
        assert mapping.as_uniform_blocks() is None

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.integers(1, 200),
        segment=st.integers(1, 50),
        tiles=st.integers(1, 8),
    )
    def test_tile_of_agrees_with_intervals(self, size, segment, tiles):
        mapping = TileMapping.linear_segments(size, segment, range(tiles))
        probe = np.random.default_rng(0).integers(0, size, 5)
        for index in probe:
            owner = mapping.tile_of(int(index))
            interval = next(
                iv for iv in mapping.intervals if iv.start <= index < iv.stop
            )
            assert owner == interval.tile


class TestOverlapping:
    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(1, 80),
        segment=st.integers(1, 16),
        bounds=st.data(),
    )
    def test_matches_a_full_scan(self, size, segment, bounds):
        mapping = TileMapping.linear_segments(size, segment, range(5))
        start = bounds.draw(st.integers(0, size - 1))
        stop = bounds.draw(st.integers(start + 1, size))
        expected = [
            interval
            for interval in mapping.intervals
            if interval.start < stop and interval.stop > start
        ]
        assert list(mapping.overlapping(start, stop)) == expected
