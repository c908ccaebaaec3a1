"""The store path reduces runs straight from the fluid batch to rows.

A shard-store build cuts the region's run stream into build tasks, one
fluid batch each, and reduces every run through ``summarize_batch`` →
``synthesize_batch(reduce=...)`` → ``summarize_run`` on a
:class:`~repro.core.run.StackedRun`: no :class:`~repro.core.run.SyncRun`
is assembled, no egress echo is drawn and no summary object is built.
Tasks fill fluid batches across shard boundaries, in this process or on
a pool.  None of that may move a stored byte: the rows equal the
object-form summaries of ``tests/fleet/dataset_reference.py`` encoded
one tuple per row, as every build wrote them before.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.analysis.summary import run_rows
from repro.config import FleetConfig
from repro.core.run import StackedRun
from repro.fleet.buffermodel import FluidBufferModel
from repro.fleet.dataset import plan_region
from repro.fleet.rackrun import RackRunSynthesizer
from repro.fleet.shards import (
    FLUID_BATCH,
    RegionShardStore,
    _write_shard,
    plan_build_tasks,
    plan_region_shards,
    stack_rows,
    task_tables,
)
from repro.obs.metrics import Metrics
from repro.workload.region import REGION_A, REGION_B
from tests.analysis.summary_reference import summarize_run
from tests.analysis.test_burst_core_parity import random_sync_run
from tests.fleet.dataset_reference import (
    encode_tables,
    plan_items,
    shard_items,
    shard_rack_ids,
    summarize_batches,
)

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

    manifests, batches, stores = {}, {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RackRunSynthesizer, "_assemble", no_sync_run)
        patch.setattr(FluidBufferModel, "run_batch", counted)
        for spec in (REGION_A, REGION_B):
            calls.clear()
            stores[spec.name] = RegionShardStore(root=str(root), spec=spec, config=config)
            manifests[spec.name] = stores[spec.name].build(jobs=1)
            batches[spec.name] = list(calls)
    return seed, config, manifests, batches, stores


class TestStoreBuild:
    def test_shards_equal_the_pinned_build(self, store_build):
        seed, _config, manifests, _batches, _stores = store_build
        for region, manifest in manifests.items():
            assert len(manifest["shards"]) == 2
            assert shard_digest(manifest) == PINNED_SHARD_DIGESTS[(seed, region)], region

    def test_fluid_batches_fill_across_shards(self, store_build):
        """Every region's 32 runs sit in two hour-band shards whose run
        counts are not multiples of 16; one stream over both makes
        ceil(32 / 16) = 2 full passes per region, 4 in all (6 when each
        shard batched its own runs)."""
        _seed, _config, manifests, batches, _stores = store_build
        for region, manifest in manifests.items():
            runs = manifest["total_runs"]
            assert [record["runs"] % FLUID_BATCH for record in manifest["shards"]] != [0, 0]
            assert len(batches[region]) == math.ceil(runs / FLUID_BATCH) == 2, region
            assert batches[region] == [FLUID_BATCH] * 2
        assert sum(len(calls) for calls in batches.values()) == 4

    def test_live_column_counters(self, store_build):
        """``synthesis.fluid.columns`` and ``synthesis.fluid.live_columns``
        equal a recount from each run's demand: a column is live when it
        exceeds ``min(activity_floor, min(m0, clip(m0)) * max_offered)``
        in some bucket.  Every bursty server-run is live: a burst
        delivers more than 50% of the drain, above the 45% floor."""
        _seed, config, _manifests, _batches, stores = store_build
        synthesizer = RackRunSynthesizer()
        for spec in (REGION_A, REGION_B):
            columns = live = 0
            for plan in plan_region(spec, config):
                for workload, hour, leaf in plan_items(plan, config):
                    rng = np.random.default_rng(leaf)
                    buckets = synthesizer._run_length(rng)
                    demand = synthesizer.demand_model.generate(workload, hour, buckets, rng)
                    model = synthesizer._fluid_model(workload)
                    drain, m0 = model.drain_per_step, demand.initial_multiplier
                    cap = np.minimum(
                        model.activity_threshold_fraction * drain,
                        np.minimum(m0, np.clip(m0, 0.05, 1.0)) * (model.max_offered_factor * drain),
                    )
                    columns += demand.demand.shape[1]
                    live += int(np.count_nonzero((demand.demand > cap).any(axis=0)))
            store = stores[spec.name]
            counters = store.metrics.counters()
            assert counters["synthesis.fluid.columns"] == columns
            assert counters["synthesis.fluid.live_columns"] == live
            bursty = store.open().columns("runs", ["bursty_server_runs"])["bursty_server_runs"]
            assert 0 < bursty.sum() <= live < columns, spec.name


def same_bytes(left: dict, right: dict) -> bool:
    """Tables equal bit for bit (NaN, -0.0 and all), shape included."""
    return all(
        left[kind].shape == right[kind].shape and left[kind].tobytes() == right[kind].tobytes()
        for kind in ("runs", "bursts", "servers")
    )


def test_rack_day_assembles_no_sync_run(monkeypatch):
    """A build task (a pool worker's unit of work) reduces through the
    store path, and its rows are the encoded summaries of the raw runs
    (here: tasks of three runs, one rack's day each)."""
    monkeypatch.setattr("repro.fleet.shards.FLUID_BATCH", 3)
    config = FleetConfig(racks_per_region=2, runs_per_rack=3, seed=5)
    plans, shards = plan_region_shards(REGION_B, config, shard_racks=1, shard_hours=24)
    synthesizer = RackRunSynthesizer()
    plan = plans[1]
    summaries = [
        summarize_run(synthesizer.synthesize(workload, hour, rng))
        for workload, hour, rng in plan_items(plan, config)
    ]
    tasks = [task for task in plan_build_tasks(shards, jobs=1) if task.runs[0][0] is plan]
    assert [[run_index for _, run_index in task.runs] for task in tasks] == [[0, 1, 2]]
    monkeypatch.setattr(RackRunSynthesizer, "_assemble", no_sync_run)
    expected = encode_tables(summaries, [plan.rack_index] * len(summaries))
    assert same_bytes(task_tables(tasks[0], config, synthesizer), expected)


@settings(max_examples=60)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=3),
    servers=st.integers(min_value=1, max_value=6),
    buckets=st.integers(min_value=1, max_value=60),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    mean_burst=st.sampled_from([1.0, 4.0]),
    loss=st.sampled_from([0.0, 0.2]),
)
def test_run_rows_equal_encoded_summaries(seeds, servers, buckets, density, mean_burst, loss):
    """Consecutive runs' rows, stacked, equal ``encode_tables`` of their
    ``summarize_run`` objects byte for byte: burst-free runs, lossy
    bursts, and bursts that start at bucket 0 or end at the last bucket
    (density 1.0 is one burst spanning the run)."""
    threshold = units.BURST_UTILIZATION_THRESHOLD
    runs = [
        random_sync_run(seed, servers, buckets, density, mean_burst, loss, threshold)
        for seed in seeds
    ]
    rack_ids = list(range(len(runs)))
    rows = [run_rows(run.stacked()) for run in runs]
    assert same_bytes(
        stack_rows(rows, rack_ids), encode_tables([summarize_run(run) for run in runs], rack_ids)
    )


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
            for item in plan_items(plan, config)
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


class TrimmedSynthesizer(RackRunSynthesizer):
    """Short runs; module-level so it pickles into pool workers."""

    def __init__(self) -> None:
        super().__init__(trimmed_buckets_mean=240, trimmed_buckets_std=20)


def oracle_hashes(root, config, geometry) -> list[dict]:
    """Per-shard sha256 of the object path: each shard's summaries
    encoded one tuple per row."""
    store = RegionShardStore(
        root=str(root), spec=REGION_A, config=config, shard_racks=geometry[0], shard_hours=geometry[1]
    )
    _plans, shards = plan_region_shards(REGION_A, config, *geometry)
    runs = summarize_batches(shard_items(shards, config), config, TrimmedSynthesizer())
    store_dir = root / "oracle"
    store_dir.mkdir()
    records = []
    for shard in shards:
        summaries = [summary for summary, _ in (next(runs) for _ in range(shard.total_runs))]
        tables = encode_tables(summaries, shard_rack_ids(shard))
        records.append(_write_shard(str(store_dir), shard, tables, Metrics())["sha256"])
    return records


@pytest.mark.parametrize("geometry", [(1, 1), (2, 4), (64, 12)], ids=lambda g: f"{g[0]}x{g[1]}")
def test_shards_independent_of_fluid_batch(tmp_path, geometry, monkeypatch):
    """Tasks that cross shard boundaries write the same shards as
    one-run tasks and full ones, at 1, 2 and 3 jobs, and those shards
    are the object path's."""
    config = FleetConfig(racks_per_region=4, runs_per_rack=3, seed=9)
    expected = oracle_hashes(tmp_path, config, geometry)
    for fluid_batch in (1, 5, 16):
        monkeypatch.setattr("repro.fleet.shards.FLUID_BATCH", fluid_batch)
        for jobs in (1, 2, 3):
            store = RegionShardStore(
                root=str(tmp_path / f"{fluid_batch}-{jobs}"),
                spec=REGION_A,
                config=config,
                shard_racks=geometry[0],
                shard_hours=geometry[1],
            )
            manifest = store.build(jobs=jobs, synthesizer=TrimmedSynthesizer())
            assert [record["sha256"] for record in manifest["shards"]] == expected, (fluid_batch, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_shard_fires_once_per_shard_in_manifest_order(tmp_path, jobs, monkeypatch):
    """Shards are written, reported and counted in manifest order,
    whatever order a pool's tasks come back in."""
    monkeypatch.setattr("repro.fleet.shards.FLUID_BATCH", 2)
    config = FleetConfig(racks_per_region=4, runs_per_rack=3, seed=9)
    store = RegionShardStore(root=str(tmp_path), spec=REGION_A, config=config, shard_racks=1, shard_hours=6)
    records, progress = [], []
    manifest = store.build(
        jobs=jobs,
        synthesizer=TrimmedSynthesizer(),
        on_shard=records.append,
        progress=lambda done, total: progress.append((done, total)),
    )
    assert len(manifest["shards"]) >= 6
    assert [record["tag"] for record in records] == [record["tag"] for record in manifest["shards"]]
    runs = np.cumsum([record["runs"] for record in manifest["shards"]]).tolist()
    assert progress == [(done, manifest["total_runs"]) for done in runs]
    tasks = store.metrics.counter("dataset.parallel.tasks")
    assert tasks == (0 if jobs == 1 else math.ceil(manifest["total_runs"] / 2))


def test_tasks_are_full_fluid_batches_unless_workers_would_idle():
    """A task holds ``FLUID_BATCH`` consecutive runs of the stream, or
    ``ceil(runs / jobs)`` when that is smaller."""
    config = FleetConfig(racks_per_region=4, runs_per_rack=4, seed=11)
    _plans, shards = plan_region_shards(REGION_A, config, shard_racks=2, shard_hours=4)
    stream = [
        (plan.rack_index, run_index)
        for shard in shards
        for plan, indices in zip(shard.plans, shard.run_indices)
        for run_index in indices
    ]
    for jobs, sizes in ((1, [16]), (2, [8, 8]), (3, [6, 6, 4]), (32, [1] * 16)):
        tasks = plan_build_tasks(shards, jobs)
        assert [len(task.runs) for task in tasks] == sizes
        assert [task.start for task in tasks] == np.cumsum([0] + sizes[:-1]).tolist()
        assert [(plan.rack_index, index) for task in tasks for plan, index in task.runs] == stream
