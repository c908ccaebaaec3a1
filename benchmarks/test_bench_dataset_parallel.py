"""Benchmarks — serial vs parallel shard-store builds, and store reopens.

The acceptance bar for the parallel build: >1.5x over serial at
racks=20, runs_per_rack=4 on a machine with >= 4 cores.  Rack days are
independent units of fluid-model work, so the fan-out scales close to
linearly until the pool outnumbers the racks.

On a single-core machine the parallel benchmark is skipped (there is
nothing to win, only process overhead to pay).
"""

import os

import pytest

from repro.config import FleetConfig
from repro.fleet.shards import RegionShardStore
from repro.workload.region import REGION_A

#: Matches the bench_ctx scale so the acceptance comparison is direct.
CONFIG = FleetConfig(racks_per_region=20, runs_per_rack=4, seed=11)
EXPECTED_RUNS = CONFIG.racks_per_region * CONFIG.runs_per_rack

CORES = os.cpu_count() or 1


def _build(root, jobs: int, config: FleetConfig = CONFIG) -> dict:
    return RegionShardStore(root=str(root), spec=REGION_A, config=config).build(jobs=jobs)


def test_bench_generate_region_serial(benchmark, tmp_path):
    """Baseline: this process synthesizes and writes every shard."""
    manifest = benchmark.pedantic(
        lambda: _build(tmp_path, jobs=1), rounds=1, iterations=1
    )
    assert manifest["total_runs"] == EXPECTED_RUNS


@pytest.mark.skipif(CORES < 2, reason="parallel generation needs multiple cores")
def test_bench_generate_region_parallel(benchmark, tmp_path):
    """Rack days fanned out over a process pool (compare against the
    serial baseline; the ratio should exceed 1.5x on >= 4 cores)."""
    jobs = min(4, CORES)
    manifest = benchmark.pedantic(
        lambda: _build(tmp_path, jobs=jobs), rounds=1, iterations=1
    )
    assert manifest["total_runs"] == EXPECTED_RUNS


def test_bench_cache_hit(benchmark, tmp_path):
    """Reopening a built store (manifest validation plus the streaming
    Table 1 fold) must be orders of magnitude under generation."""
    small = FleetConfig(racks_per_region=4, runs_per_rack=2, seed=11)
    _build(tmp_path, jobs=1, config=small)

    def reopen():
        store = RegionShardStore(root=str(tmp_path), spec=REGION_A, config=small)
        return store.open().table1_row()

    row = benchmark(reopen)
    assert row.runs == 8
