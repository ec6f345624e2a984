"""Golden modeled ledger: per-compute-set charges, compared bit-for-bit.

Modeled device seconds and superstep counts are the reproduction's output,
so any change to how the engine walks a program or how the profiler prices
a superstep must leave them exactly unchanged.  This test re-runs a fixed
set of solves and compares, for every compute set, the execution count,
charged compute cycles, exchange and inter-IPU bytes, and the three phase
seconds — floats as ``float.hex`` — against
``tests/golden/golden_ledger.json`` with no tolerance.

Cases cover cold solves at n=16/32/64, a warm ``resolve``, the lite and
deep profiling depths, the ``per_tile`` engine mode and a 2-IPU cluster.
Regenerate (only for a deliberate, documented rebaseline) with
``python -m tests.test_golden_ledger``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_ledger.json"


def _hex(value: float) -> str:
    return float(value).hex()


def _ledger(report) -> dict:
    ledger = {
        "supersteps": report.supersteps,
        "inter_ipu_syncs": report.inter_ipu_syncs,
        "compute_cycles": _hex(report.compute_cycles),
        "phase_compute_seconds": _hex(report.phase_compute_seconds),
        "phase_sync_seconds": _hex(report.phase_sync_seconds),
        "phase_exchange_seconds": _hex(report.phase_exchange_seconds),
        "device_seconds": _hex(report.device_seconds),
        "compute_sets": {
            record.name: {
                "executions": record.executions,
                "compute_cycles": _hex(record.compute_cycles),
                "exchange_bytes": record.exchange_bytes,
                "inter_ipu_bytes": record.inter_ipu_bytes,
                "inter_ipu_syncs": record.inter_ipu_syncs,
                "compute_seconds": _hex(record.compute_seconds),
                "sync_seconds": _hex(record.sync_seconds),
                "exchange_seconds": _hex(record.exchange_seconds),
            }
            for record in report.records
        },
    }
    if report.tiles is not None:
        tiles = report.tiles
        ledger["tiles"] = {
            "supersteps": tiles.supersteps,
            "compute_cycles": _hex(tiles.compute_cycles),
            "tile_cycles": {
                str(tile): _hex(tiles.tile_cycles[tile])
                for tile in np.flatnonzero(tiles.tile_cycles)
            },
            "straggler_counts": {
                str(tile): int(tiles.tile_straggler_count[tile])
                for tile in np.flatnonzero(tiles.tile_straggler_count)
            },
            "compute_sets": {
                stats.name: {
                    "executions": stats.executions,
                    "compute_cycles": _hex(stats.compute_cycles),
                    "vertex_cycles": _hex(stats.vertex_cycles),
                    "exchange_bytes": stats.exchange_bytes,
                }
                for stats in tiles.compute_sets
            },
            "series_total_seconds": _hex(
                sum(sample.total_seconds for sample in tiles.series)
            ),
        }
    return ledger


def _solve(size: int, *, seed: int, **solver_kwargs):
    from repro.core.solver import HunIPUSolver
    from repro.data.synthetic import uniform_instance

    solver = HunIPUSolver(**solver_kwargs)
    return solver, solver.solve(uniform_instance(size, 10, seed=seed))


def _cold(size: int, **solver_kwargs) -> dict:
    _, result = _solve(size, seed=size, **solver_kwargs)
    return _ledger(result.stats["profile"])


def _warm_resolve() -> dict:
    from repro.core.solver import HunIPUSolver
    from repro.lap import LAPInstance

    solver = HunIPUSolver()
    costs = np.random.default_rng(6).integers(1, 321, size=(32, 32)).astype(float)
    previous = solver.solve(LAPInstance(costs), capture_warm_start=True)
    drifted = costs.copy()
    drifted[[3, 17]] = np.random.default_rng(7).integers(1, 321, size=(2, 32))
    result = solver.resolve(LAPInstance(drifted), previous.stats["warm_start"])
    assert result.stats["resolve"]["mode"] == "warm"
    return _ledger(result.stats["profile"])


def _lite(size: int) -> dict:
    from repro.core.solver import HunIPUSolver, normalize_costs
    from repro.data.synthetic import uniform_instance

    solver = HunIPUSolver()
    instance = uniform_instance(size, 10, seed=size)
    compiled = solver.compiled_for(size)
    compiled.state.initialize_host(normalize_costs(instance.costs)[0])
    return _ledger(solver._run_engine(compiled, instance, profile_detail=False))


def _cluster(size: int) -> dict:
    from repro.ipu.cluster import ClusterSpec

    spec = ClusterSpec.toy(num_tiles=4, num_ipus=2).system()
    return _cold(size, spec=spec)


CASES = {
    "cold-n16": lambda: _cold(16),
    "cold-n32": lambda: _cold(32),
    "cold-n64": lambda: _cold(64),
    "warm-resolve-n32": _warm_resolve,
    "lite-n32": lambda: _lite(32),
    "deep-n16": lambda: _cold(16, profile_tiles=True),
    "per-tile-n16": lambda: _cold(16, engine_mode="per_tile"),
    "cluster-2ipu-n16": lambda: _cluster(16),
}


def current_ledger(name: str) -> dict:
    # Round-trip through JSON so the comparison sees the file's types.
    return json.loads(json.dumps(CASES[name]()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert current_ledger(name) == golden[name]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    assert golden["lite-n32"]["compute_sets"].keys() == {"all/aggregate"}
    assert "tiles" in golden["deep-n16"]
    assert golden["cluster-2ipu-n16"]["inter_ipu_syncs"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({name: current_ledger(name) for name in sorted(CASES)},
                   indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
