"""The store path summarizes runs straight from the fluid batch.

A shard-store build (and a pool worker's rack day) reduces every run
through ``summarize_batches`` → ``synthesize_batch(reduce=...)`` →
``summarize_run`` on a :class:`~repro.core.run.StackedRun`: no
:class:`~repro.core.run.SyncRun` is assembled and no egress echo is
drawn.  A serial build streams every shard's runs through one
``summarize_batches``, so fluid batches fill across shard boundaries.
None of that may move a stored byte.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.analysis.summary import summarize_run
from repro.config import FleetConfig
from repro.core.run import StackedRun
from repro.fleet.buffermodel import FluidBufferModel
from repro.fleet.dataset import _plan_items, plan_region, synthesize_rack_day
from repro.fleet.rackrun import RackRunSynthesizer
from repro.fleet.shards import RegionShardStore
from repro.workload.region import REGION_A, REGION_B

#: The end-to-end store-build workload's config: 16 racks x 2 runs per
#: region, built serially at the default 64 x 12 geometry.
STORE_BUILD_RACKS, STORE_BUILD_RUNS = 16, 2

#: sha256 over each region's per-shard sha256 records, as built before
#: the store path stopped assembling raw runs.
PINNED_SHARD_DIGESTS = {
    (11, "RegA"): "2758d7274e702128b2a338ae2e9f3204d409f0824763608fa1f99ad204f734e8",
    (11, "RegB"): "41d92760e37bb4b69661e6c285033f8d3681228d3cda8a78d2b319d38a638ff3",
    (12, "RegA"): "a2746195634a1745a321a5dde826969855fe48aa018e6dbf6c6062fe066d2287",
    (12, "RegB"): "34986503226d791687b1051b23580623e093287f65dae05a541b9c1d0ae04c7e",
}


def no_sync_run(*_args, **_kwargs):
    raise AssertionError("the store path assembled a SyncRun")


def shard_digest(manifest: dict) -> str:
    records = [record["sha256"] for record in manifest["shards"]]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module", params=[11, 12])
def store_build(request, tmp_path_factory):
    """Both regions built serially at the store-build config with SyncRun
    assembly patched to raise and ``run_batch`` calls counted."""
    seed = request.param
    config = FleetConfig(
        racks_per_region=STORE_BUILD_RACKS, runs_per_rack=STORE_BUILD_RUNS, seed=seed
    )
    root = tmp_path_factory.mktemp(f"store-build-{seed}")
    run_batch = FluidBufferModel.run_batch
    calls: list[int] = []

    def counted(self, demand, *args, **kwargs):
        calls.append(demand.shape[0])
        return run_batch(self, demand, *args, **kwargs)

    manifests, batches = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RackRunSynthesizer, "_assemble", no_sync_run)
        patch.setattr(FluidBufferModel, "run_batch", counted)
        for spec in (REGION_A, REGION_B):
            calls.clear()
            manifests[spec.name] = RegionShardStore(root=str(root), spec=spec, config=config).build(jobs=1)
            batches[spec.name] = list(calls)
    return seed, config, manifests, batches


class TestStoreBuild:
    def test_shards_equal_the_pinned_build(self, store_build):
        seed, _config, manifests, _batches = store_build
        for region, manifest in manifests.items():
            assert len(manifest["shards"]) == 2
            assert shard_digest(manifest) == PINNED_SHARD_DIGESTS[(seed, region)], region

    def test_fluid_batches_fill_across_shards(self, store_build):
        """Every region's 32 runs sit in two hour-band shards whose run
        counts are not multiples of 16; one stream over both makes
        ceil(32 / 16) = 2 full passes per region, 4 in all (6 when each
        shard batched its own runs)."""
        _seed, config, manifests, batches = store_build
        for region, manifest in manifests.items():
            runs = manifest["total_runs"]
            assert [record["runs"] % config.fluid_batch for record in manifest["shards"]] != [0, 0]
            assert len(batches[region]) == math.ceil(runs / config.fluid_batch) == 2, region
            assert batches[region] == [config.fluid_batch] * 2
        assert sum(len(calls) for calls in batches.values()) == 4


def test_rack_day_assembles_no_sync_run(monkeypatch):
    """A pool worker's unit of work reduces through the store path too,
    and gives the summaries of the raw runs."""
    config = FleetConfig(racks_per_region=2, runs_per_rack=3, seed=5)
    plan = plan_region(REGION_B, config)[1]
    synthesizer = RackRunSynthesizer()
    expected = [
        summarize_run(synthesizer.synthesize(workload, hour, rng))
        for workload, hour, rng in _plan_items(plan, config)
    ]
    monkeypatch.setattr(RackRunSynthesizer, "_assemble", no_sync_run)
    assert repr(synthesize_rack_day(plan, config, synthesizer)) == repr(expected)


def test_stacked_and_raw_runs_summarize_alike():
    """``summarize_run`` of the stacked run the store path builds and of
    the raw SyncRun of the same item are equal by repr."""
    config = FleetConfig(racks_per_region=3, runs_per_rack=2, seed=21)
    synthesizer = RackRunSynthesizer()

    def items():
        return [
            item
            for spec in (REGION_A, REGION_B)
            for plan in plan_region(spec, config)[:2]
            for item in _plan_items(plan, config)
        ]

    stacked = synthesizer.synthesize_batch(items(), reduce=lambda run: run)
    raw = synthesizer.synthesize_batch(items())
    assert all(isinstance(run, StackedRun) for run in stacked)
    for run, sync_run in zip(stacked, raw):
        assert not run.in_bytes.flags.writeable
        assert np.array_equal(run.in_bytes, sync_run.stacked().in_bytes)
    assert repr([summarize_run(run) for run in stacked]) == repr(
        [summarize_run(sync_run) for sync_run in raw]
    )


@pytest.mark.parametrize("geometry", [(1, 1), (2, 4), (64, 12)], ids=lambda g: f"{g[0]}x{g[1]}")
def test_shards_independent_of_fluid_batch(tmp_path, geometry):
    """Batches that cross shard boundaries write the same shards as
    one-run batches and full ones."""
    synthesizer = RackRunSynthesizer(trimmed_buckets_mean=240, trimmed_buckets_std=20)
    hashes = []
    for fluid_batch in (1, 5, 16):
        config = FleetConfig(racks_per_region=4, runs_per_rack=3, seed=9, fluid_batch=fluid_batch)
        store = RegionShardStore(
            root=str(tmp_path / str(fluid_batch)),
            spec=REGION_A,
            config=config,
            shard_racks=geometry[0],
            shard_hours=geometry[1],
        )
        manifest = store.build(jobs=1, synthesizer=synthesizer)
        hashes.append([record["sha256"] for record in manifest["shards"]])
    assert hashes[0] == hashes[1] == hashes[2]
