"""Step-4 codelets against straightforward reference implementations.

``ZeroStatusScan`` and ``StatusArgmaxFinal`` derive per-plan constants once
and take shortcuts (an occupancy-slot memo, a sentinel column, a cycle
table, scalar stores).  The references below compute the same outputs the
plain way on every call; outputs and cycle arrays must be *equal*, not
close, because the charged cycles feed the modeled device time.

The inputs cover the state Step 2 leaves behind too: its in-place
descending sort of the compress rows breaks the front-packed segment
layout, and the scan must read exactly what it always read.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import compress_rows_host, segment_bounds
from repro.core.steps.step4_prime_search import StatusArgmaxFinal, ZeroStatusScan
from repro.ipu.codelets import CostContext, ParamArrays

COST = CostContext()
THREADS = COST.threads_per_tile


def _reference_scan(views, params, cost):
    cols = int(params["cols"][0])
    threads = int(params["threads"][0])
    compress = views["compress"]
    batch = compress.shape[0]
    rows = compress.shape[1] // cols
    positions = compress.reshape(batch, rows, cols)
    counts = views["zero_count"].reshape(batch, rows, threads)
    covers = views["col_cover"][0]
    occupancy = counts.reshape(-1, threads).max(axis=0)
    parts = [
        positions[..., start : start + occ]
        for (start, stop), occ in zip(segment_bounds(cols, threads), occupancy)
        if stop > start and occ > 0
    ]
    if parts:
        flat = np.concatenate(parts, axis=2).reshape(batch * rows, -1)
        valid = flat >= 0
        hit = valid & (np.take(covers, flat, mode="clip") == 0)
        has_zero = hit.any(axis=1).reshape(batch, rows)
        found_col = flat[np.arange(flat.shape[0]), hit.argmax(axis=1)]
        found_col = found_col.reshape(batch, rows)
        zeros_scanned = valid.sum(axis=1).reshape(batch, rows).sum(axis=1)
    else:
        has_zero = np.zeros((batch, rows), dtype=bool)
        found_col = np.full((batch, rows), -1, dtype=np.int64)
        zeros_scanned = np.zeros(batch, dtype=np.int64)
    has_zero = has_zero & (views["row_cover"] == 0)
    found_col = np.where(has_zero, found_col, -1)
    status = np.where(has_zero, np.where(views["row_star"] >= 0, 0, 1), -1)
    views["zero_status"][...] = status
    views["zero_col"][...] = found_col
    best = status.argmax(axis=1)
    take = np.arange(batch)
    partial = views["partial"]
    partial[:, 0] = status[take, best]
    partial[:, 1] = params["row0"].astype(np.int64) + best
    partial[:, 2] = found_col[take, best]
    partial[:, 3] = views["row_star"][take, best]
    if params["full_scan"][0]:
        work = rows * np.asarray(cost.scan_cycles(cols)) * np.ones(batch)
    else:
        work = (
            zeros_scanned * (cost.cycles_per_dynamic_access + cost.cycles_per_alu_op)
            + rows * 2 * cost.cycles_per_alu_op
        )
    return np.ceil(work / cost.threads_per_tile) + np.asarray(
        cost.segmented(cost.scan_cycles(rows))
    )


def _reference_final(views, params, cost):
    flat = views["partials"]
    batch, tiles = flat.shape[0], flat.shape[1] // 4
    partials = flat.reshape(batch, tiles, 4)
    bound = np.int64(partials[..., 1].max() + 2)
    score = partials[..., 0].astype(np.int64) * (2 * bound) - partials[..., 1]
    take = np.arange(batch)
    best = score.argmax(axis=1)
    views["sel"][...] = partials[take, best]
    status = partials[take, best, 0]
    views["max_status"][:, 0] = status
    views["flag_update"][:, 0] = status == -1
    views["flag_aug"][:, 0] = status == 1
    views["prime_count"][:, 0] += status == 0
    return np.full(batch, float(np.asarray(cost.scan_cycles(tiles * 4))))


def _copy(views):
    return {name: view.copy() for name, view in views.items()}


def _assert_same(codelet, reference, views, params):
    """Run both twice (the second run hits the codelet's plan memo)."""
    expected_views, actual_views = _copy(views), _copy(views)
    memo = ParamArrays(params)
    for _ in range(2):
        expected = reference(expected_views, params, COST)
        actual = codelet.compute_all(actual_views, memo, COST)
        assert np.asarray(actual).dtype == np.float64
        assert np.array_equal(actual, expected)
        for name in views:
            assert np.array_equal(actual_views[name], expected_views[name]), name
    # A plain mapping (per-vertex runs) derives its constants afresh.
    fresh = _copy(views)
    assert np.array_equal(codelet.compute_all(fresh, dict(params), COST), expected)


@st.composite
def scan_inputs(draw):
    batch = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 10_000))
    sorted_rows = draw(st.booleans())
    full_scan = draw(st.booleans())
    gen = np.random.default_rng(seed)
    slack = gen.choice([0.0, 1.0], size=(batch * rows, cols), p=[0.3, 0.7])
    compress, counts = compress_rows_host(slack, THREADS, tol=0.0)
    if sorted_rows:  # Step 2's in-place descending sort
        compress = -np.sort(-compress, axis=1)
    views = {
        "compress": compress.reshape(batch, rows * cols).astype(np.int32),
        "zero_count": counts.reshape(batch, rows * THREADS).astype(np.int32),
        "row_cover": gen.integers(0, 2, size=(batch, rows)).astype(np.int8),
        "row_star": gen.integers(-1, cols, size=(batch, rows)).astype(np.int32),
        # One cover row shared by every vertex (a broadcast field); the
        # tensor may be wider than the matrix.
        "col_cover": np.repeat(
            gen.integers(0, 2, size=(1, cols + draw(st.integers(0, 3)))), batch, axis=0
        ).astype(np.int8),
        "zero_status": np.zeros((batch, rows), dtype=np.int32),
        "zero_col": np.zeros((batch, rows), dtype=np.int32),
        "partial": np.zeros((batch, 4), dtype=np.int32),
    }
    params = {
        "cols": np.full(batch, float(cols)),
        "threads": np.full(batch, float(THREADS)),
        "row0": np.arange(batch, dtype=np.float64) * rows,
        "full_scan": np.full(batch, float(full_scan)),
    }
    return views, params


class TestZeroStatusScan:
    @settings(max_examples=150, deadline=None)
    @given(scan_inputs())
    def test_matches_reference(self, inputs):
        views, params = inputs
        _assert_same(ZeroStatusScan(), _reference_scan, views, params)

    def test_no_zeros_anywhere(self):
        views = {
            "compress": np.full((2, 8), -1, dtype=np.int32),
            "zero_count": np.zeros((2, 2 * THREADS), dtype=np.int32),
            "row_cover": np.zeros((2, 2), dtype=np.int8),
            "row_star": np.array([[0, -1], [1, 2]], dtype=np.int32),
            "col_cover": np.zeros((2, 4), dtype=np.int8),
            "zero_status": np.zeros((2, 2), dtype=np.int32),
            "zero_col": np.zeros((2, 2), dtype=np.int32),
            "partial": np.zeros((2, 4), dtype=np.int32),
        }
        params = {
            "cols": np.full(2, 4.0),
            "threads": np.full(2, float(THREADS)),
            "row0": np.array([0.0, 2.0]),
            "full_scan": np.zeros(2),
        }
        _assert_same(ZeroStatusScan(), _reference_scan, views, params)


class TestStatusArgmaxFinal:
    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.integers(1, 3),
        tiles=st.integers(1, 9),
        seed=st.integers(0, 10_000),
    )
    def test_matches_reference(self, batch, tiles, seed):
        gen = np.random.default_rng(seed)
        partials = np.zeros((batch, tiles, 4), dtype=np.int32)
        partials[..., 0] = gen.integers(-1, 2, size=(batch, tiles))
        # Tile winners are distinct global rows.
        partials[..., 1] = np.stack(
            [gen.permutation(4 * tiles)[:tiles] for _ in range(batch)]
        )
        partials[..., 2:] = gen.integers(-1, 50, size=(batch, tiles, 2))
        views = {
            "partials": partials.reshape(batch, tiles * 4),
            "sel": np.zeros((batch, 4), dtype=np.int32),
            "max_status": np.zeros((batch, 1), dtype=np.int32),
            "flag_update": np.zeros((batch, 1), dtype=np.int32),
            "flag_aug": np.zeros((batch, 1), dtype=np.int32),
            "prime_count": gen.integers(0, 5, size=(batch, 1)).astype(np.int32),
        }
        _assert_same(StatusArgmaxFinal(), _reference_final, views, {})
