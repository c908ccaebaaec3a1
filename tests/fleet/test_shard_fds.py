"""File-descriptor hygiene of the shard loader.

Every view reads through ``columns()``, which maps each shard's tables
(ndarrays over an ``mmap.mmap`` each) through ``iter_frames()``; a mapping left open leaks an fd per
table per shard, so a few hundred shards exhaust the default ulimit
mid-report.  These tests regress the leak directly: with >100 shards on
disk, repeated full-store passes must leave the process fd count where
it started.
"""

import mmap
import os

import pytest

from repro.config import FleetConfig
from repro.fleet.shards import RegionShardStore
from repro.workload.region import REGION_A

from .test_failfast import FastSynthesizer

# 26 racks x 4 distinct run hours, sharded 1x1, is exactly 104 shards:
# every (rack, hour) with runs lands in its own shard file pair.
CONFIG = FleetConfig(racks_per_region=26, runs_per_rack=4, seed=47)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    store = RegionShardStore(
        root=str(tmp_path_factory.mktemp("fd-store")),
        spec=REGION_A,
        config=CONFIG,
        shard_racks=1,
        shard_hours=1,
    )
    store.build(jobs=1, synthesizer=FastSynthesizer())
    return store.open()


def test_store_has_more_than_100_shards(sharded):
    shards = sharded.manifest["shards"]
    assert len(shards) == CONFIG.racks_per_region * CONFIG.runs_per_rack
    assert len(shards) > 100


def test_streaming_aggregations_do_not_leak_fds(sharded):
    aggregations = [
        ("table1", sharded.table1_row),
        ("hourly_boxes", sharded.hourly_boxes),
        ("run_contention", sharded.run_contention),
        ("burst_contention", sharded.burst_contention),
        ("rack_profiles", sharded.rack_profiles),
        ("hour_counts", sharded.hour_counts),
        ("columns(runs)", lambda: sharded.columns("runs", ("hour",))),
        ("columns(bursts)", lambda: sharded.columns("bursts", ("run_row", "lossy"))),
        ("columns(servers)", lambda: sharded.columns("servers", ("run_row", "bursty"))),
    ]
    # Warm one pass first: lazily-imported modules and pytest machinery
    # legitimately open a few fds the first time through.
    for _name, run in aggregations:
        run()
    baseline = _open_fds()
    # Two further full passes load >1,800 shards; the fd count
    # must never drift above the post-warmup baseline (small slack for
    # allocator/introspection noise, far below 2 fds per shard).
    for _round in range(2):
        for name, run in aggregations:
            run()
            assert _open_fds() <= baseline + 4, (
                f"fd leak after streaming {name}: "
                f"{_open_fds()} open vs baseline {baseline}"
            )


def test_direct_frame_iteration_bounds_fds(sharded):
    """The loader closes each shard's maps before it opens the next."""
    baseline = _open_fds()
    streamed = 0
    for runs, bursts in sharded.iter_frames(("runs", "bursts")):
        assert isinstance(runs.base, mmap.mmap) and isinstance(bursts.base, mmap.mmap)
        assert runs.shape[0] >= 1
        # While one frame is open at most its own two fds are extra.
        assert _open_fds() <= baseline + 2 + 4
        streamed += 1
    assert streamed > 100
    assert _open_fds() <= baseline + 4
