"""The sharded out-of-core region store (repro.fleet.shards).

The store's contract has three legs, each tested here against the
in-memory :func:`generate_region_dataset` as the oracle:

* **Bit-exactness** — every view read through ``columns()`` equals the
  monolithic in-memory result exactly, for any shard geometry, any job
  count (parallel builds write byte-identical shards), and on reload
  from an existing store.
* **Out-of-core** — reads load one shard at a time and keep only the
  columns asked for; peak traced memory stays well below materializing
  the whole region.
* **Corruption tolerance** — a missing, truncated, or stale store is a
  miss (rebuilt), never an exception or silently wrong data.
"""

import json
import mmap
import os
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.errors import ConfigError
from repro.fleet.rackrun import RackRunSynthesizer
from repro.fleet.shards import (
    TABLES,
    RegionShardStore,
    ShardedRegionDataset,
    ShardStoreError,
    generate_region_shards,
    plan_region_shards,
)
from repro.workload.region import REGION_A, REGION_B
from tests.analysis.streaming_reference import (
    burst_contention_from_summaries,
    hourly_box_stats,
    rack_profiles,
    run_contention_from_summaries,
)
from tests.fleet.dataset_reference import decode_summaries, generate_region_dataset

CONFIG = FleetConfig(racks_per_region=6, runs_per_rack=3, seed=77)


class TrimmedSynthesizer(RackRunSynthesizer):
    """Short runs; module-level so it pickles into pool workers."""

    def __init__(self) -> None:
        super().__init__(trimmed_buckets_mean=120, trimmed_buckets_std=10)


@pytest.fixture(scope="module")
def oracle():
    return generate_region_dataset(REGION_A, CONFIG)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("shards"))


@pytest.fixture(scope="module")
def sharded(store_dir):
    """One store built serially, shared by the read-only tests."""
    return generate_region_shards(
        REGION_A, CONFIG, store_dir, shard_racks=2, shard_hours=8, jobs=1
    )


def assert_summaries_identical(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert left.rack == right.rack
        assert left.hour == right.hour
        assert left.contention == right.contention
        assert left.switch_discard_bytes == right.switch_discard_bytes
        assert len(left.bursts) == len(right.bursts)


class TestShardPlanning:
    def test_every_run_in_exactly_one_shard(self):
        plans, tasks = plan_region_shards(REGION_A, CONFIG, shard_racks=2, shard_hours=8)
        planned = {
            (plan.rack_index, run_index)
            for plan in plans
            for run_index in range(len(plan.hours))
        }
        sharded = [
            (plan.rack_index, run_index)
            for task in tasks
            for plan, indices in zip(task.plans, task.run_indices)
            for run_index in indices
        ]
        assert len(sharded) == len(set(sharded)) == len(planned)
        assert set(sharded) == planned

    def test_run_indices_index_the_full_schedule(self):
        """Hour-band slicing must keep original run indices, or the
        (rack, run) seed-stream leaves — hence the data — would shift."""
        plans, tasks = plan_region_shards(REGION_A, CONFIG, shard_racks=3, shard_hours=6)
        by_index = {plan.rack_index: plan for plan in plans}
        for task in tasks:
            for plan, indices in zip(task.plans, task.run_indices):
                for run_index in indices:
                    hour = by_index[plan.rack_index].hours[run_index]
                    assert task.key.hour_lo <= hour < task.key.hour_hi

    def test_zero_rack_region_plans_zero_shards(self):
        empty = FleetConfig(racks_per_region=0, runs_per_rack=3, seed=1)
        plans, tasks = plan_region_shards(REGION_A, empty)
        assert plans == [] and tasks == []

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ConfigError):
            plan_region_shards(REGION_A, CONFIG, shard_racks=0)
        with pytest.raises(ConfigError):
            plan_region_shards(REGION_A, CONFIG, shard_hours=0)


class TestBitExactness:
    def test_summaries_in_global_order(self, oracle, sharded):
        assert_summaries_identical(
            oracle.summaries, decode_summaries(sharded.to_region_dataset())
        )

    def test_workloads_match(self, oracle, sharded):
        assert [w.rack for w in sharded.workloads] == [w.rack for w in oracle.workloads]

    # -- the views (the shared store is 2x8) ---------------------------

    def test_columns_in_global_order(self, oracle, sharded):
        """columns() re-interleaves shards into global order and
        re-bases run_row onto it."""
        runs = sharded.columns("runs", ("hour", "contention_mean"))
        assert runs["hour"].tolist() == [s.hour for s in oracle.summaries]
        assert runs["contention_mean"].tolist() == [
            s.contention.mean for s in oracle.summaries
        ]
        bursts = sharded.columns("bursts", ("run_row", "volume"))
        assert bursts["run_row"].tolist() == [
            row for row, s in enumerate(oracle.summaries) for _ in s.bursts
        ]
        assert bursts["volume"].tolist() == [
            b.volume for s in oracle.summaries for b in s.bursts
        ]
        servers = sharded.columns("servers", ("run_row", "total_in_bytes"))
        assert servers["total_in_bytes"].tolist() == [
            stat.total_in_bytes for s in oracle.summaries for stat in s.server_stats
        ]
        assert servers["run_row"].tolist() == [
            row for row, s in enumerate(oracle.summaries) for _ in s.server_stats
        ]

    def test_row_columns_carry_their_runs_rack(self, oracle, sharded):
        """A bursts or servers ``rack_id`` is the rack of the row's run,
        in any position among the requested names."""
        rack_index = {w.rack: index for index, w in enumerate(oracle.workloads)}
        bursts = sharded.columns("bursts", ("rack_id", "run_row", "lossy"))
        assert list(bursts) == ["rack_id", "run_row", "lossy"]
        assert bursts["rack_id"].dtype == np.float64
        assert bursts["rack_id"].tolist() == [
            rack_index[s.rack] for s in oracle.summaries for _ in s.bursts
        ]
        assert bursts["lossy"].tolist() == [
            float(b.lossy) for s in oracle.summaries for b in s.bursts
        ]
        run_racks = sharded.columns("runs", ("rack_id",))["rack_id"]
        assert np.array_equal(
            bursts["rack_id"], run_racks[bursts["run_row"].astype(np.int64)]
        )
        servers = sharded.columns("servers", ("server", "rack_id"))
        assert servers["rack_id"].tolist() == [
            rack_index[s.rack] for s in oracle.summaries for _ in s.server_stats
        ]

    def test_table1_row(self, oracle, sharded):
        assert sharded.table1_row() == oracle.table1_row()

    def test_rack_profiles(self, oracle, sharded):
        assert sharded.rack_profiles() == rack_profiles(oracle.summaries)

    def test_rack_profiles_hour_filtered(self, oracle, sharded):
        hours = set(range(0, 24, 2))
        assert sharded.rack_profiles(hours=hours) == rack_profiles(
            oracle.summaries, hours=hours
        )

    def test_hourly_boxes(self, oracle, sharded):
        assert sharded.hourly_boxes() == hourly_box_stats(oracle.summaries)

    def test_hourly_boxes_rack_filtered(self, oracle, sharded):
        racks = {w.rack for w in oracle.workloads[::2]}
        assert sharded.hourly_boxes(racks=racks) == hourly_box_stats(
            oracle.summaries, racks=racks
        )

    def test_run_contention(self, oracle, sharded):
        expected = run_contention_from_summaries(oracle.summaries)
        actual = sharded.run_contention()
        assert actual.total == expected.total
        assert actual.excluded == expected.excluded
        assert np.array_equal(actual.mins, expected.mins)
        assert np.array_equal(actual.p90s, expected.p90s)

    def test_burst_contention(self, oracle, sharded):
        expected = burst_contention_from_summaries(oracle.summaries)
        actual = sharded.burst_contention()
        assert actual.racks.dtype == expected.racks.dtype
        assert np.array_equal(actual.racks, expected.racks)
        assert np.array_equal(actual.max_contention, expected.max_contention)
        assert np.array_equal(actual.lossy, expected.lossy)
        assert np.array_equal(
            actual.first_loss_contention, expected.first_loss_contention
        )

    def test_hour_counts(self, oracle, sharded):
        assert sharded.hour_counts() == Counter(s.hour for s in oracle.summaries)

    @pytest.mark.parametrize("geometry", [(1, 1), (5, 24)], ids=["1x1", "5x24"])
    def test_views_at_other_geometries(self, oracle, store_dir, geometry):
        """Every view test above at one run per shard, and at one hour
        band per rack range."""
        shard_racks, shard_hours = geometry
        other = generate_region_shards(
            REGION_A, CONFIG, store_dir,
            shard_racks=shard_racks, shard_hours=shard_hours, jobs=1,
        )
        for check in (
            self.test_columns_in_global_order,
            self.test_row_columns_carry_their_runs_rack,
            self.test_table1_row,
            self.test_rack_profiles,
            self.test_rack_profiles_hour_filtered,
            self.test_hourly_boxes,
            self.test_hourly_boxes_rack_filtered,
            self.test_run_contention,
            self.test_burst_contention,
            self.test_hour_counts,
        ):
            check(oracle, other)

    # -- other geometries, builds and reloads ---------------------------

    def test_other_geometry_same_results(self, oracle, store_dir):
        other = generate_region_shards(
            REGION_A, CONFIG, store_dir, shard_racks=5, shard_hours=24, jobs=1
        )
        assert other.table1_row() == oracle.table1_row()
        assert_summaries_identical(oracle.summaries, decode_summaries(other.to_region_dataset()))

    def test_parallel_build_identical(self, oracle, tmp_path):
        parallel = generate_region_shards(
            REGION_A, CONFIG, str(tmp_path), shard_racks=2, shard_hours=8, jobs=3
        )
        assert parallel.table1_row() == oracle.table1_row()
        assert_summaries_identical(
            oracle.summaries, decode_summaries(parallel.to_region_dataset())
        )

    def test_reload_hits_manifest_and_matches(self, oracle, sharded, store_dir):
        reloaded = generate_region_shards(
            REGION_A, CONFIG, store_dir, shard_racks=2, shard_hours=8, jobs=1
        )
        assert reloaded.store.metrics.counter("dataset.shards.hit") == 1
        assert reloaded.store.metrics.counter("dataset.shards.generated") == 0
        assert reloaded.table1_row() == oracle.table1_row()

    def test_to_region_dataset(self, oracle, sharded):
        materialized = sharded.to_region_dataset()
        assert materialized.table1_row() == oracle.table1_row()
        assert_summaries_identical(oracle.summaries, decode_summaries(materialized))


class TestStoreLayout:
    def test_geometry_and_key_in_directory_name(self, sharded, store_dir):
        name = os.path.basename(sharded.store.directory)
        assert name.startswith("RegA-")
        assert name.endswith("-r2h8")

    def test_manifest_records_hashes_and_counts(self, sharded, oracle):
        manifest = sharded.manifest
        assert manifest["total_runs"] == len(oracle.summaries)
        assert sum(record["runs"] for record in manifest["shards"]) == len(
            oracle.summaries
        )
        assert manifest["columns"] == {
            kind: list(columns) for kind, columns in TABLES.items()
        }
        for record in manifest["shards"]:
            assert set(record["files"]) == {"runs", "bursts", "servers"}
            assert set(record["sha256"]) == {"runs", "bursts", "servers"}
        assert sharded.store.verify_hashes(manifest)

    def test_store_holds_no_pickled_summaries(self, sharded):
        """Only the manifest, the workloads and the shard tables."""
        names = sorted(os.listdir(sharded.store.directory))
        assert [n for n in names if not n.endswith(".npy")] == [
            "manifest.json",
            "workloads.pkl",
        ]

    def test_no_tmp_files_left_behind(self, sharded):
        leftovers = [
            name
            for name in os.listdir(sharded.store.directory)
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_zero_rack_region_builds_empty_store(self, tmp_path):
        empty = FleetConfig(racks_per_region=0, runs_per_rack=3, seed=1)
        dataset = generate_region_shards(REGION_A, empty, str(tmp_path), jobs=1)
        assert dataset.manifest["shards"] == []
        assert decode_summaries(dataset.to_region_dataset()) == []
        assert dataset.columns("bursts", ("run_row",))["run_row"].size == 0
        assert dataset.workloads == []
        assert dataset.table1_row().runs == 0


class TestCorruptionTolerance:
    def make_store(self, tmp_path) -> RegionShardStore:
        store = RegionShardStore(
            root=str(tmp_path), spec=REGION_A, config=CONFIG,
            shard_racks=2, shard_hours=8,
        )
        store.build(jobs=1)
        return store

    def test_truncated_shard_file_is_a_miss(self, tmp_path, oracle):
        store = self.make_store(tmp_path)
        victim = store.load_manifest()["shards"][0]["files"]["runs"]
        with open(os.path.join(store.directory, victim), "wb") as handle:
            handle.write(b"xx")
        fresh = RegionShardStore(
            root=str(tmp_path), spec=REGION_A, config=CONFIG,
            shard_racks=2, shard_hours=8,
        )
        assert fresh.load_manifest() is None
        rebuilt = fresh.open(jobs=1)  # rebuild overwrites the bad file
        assert rebuilt.table1_row() == oracle.table1_row()

    def test_garbage_manifest_is_a_miss(self, tmp_path):
        store = self.make_store(tmp_path)
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.load_manifest() is None

    def test_format_version_bump_is_a_miss(self, tmp_path, monkeypatch):
        store = self.make_store(tmp_path)
        manifest = json.loads(open(store.manifest_path, encoding="utf-8").read())
        assert manifest["format"] == 2
        monkeypatch.setattr("repro.fleet.shards.SHARD_FORMAT_VERSION", 3)
        assert store.load_manifest() is None

    def test_rebuild_removes_previous_format_files(self, tmp_path, oracle):
        """A format bump keeps the directory name, so a format-1 store
        (with its pickled summaries) is rebuilt in place; the rebuild
        must not keep the old files."""
        store = self.make_store(tmp_path)
        with open(store.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["format"] = 1
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        for record in manifest["shards"]:
            with open(os.path.join(store.directory, f"{record['tag']}.pkl"), "wb") as handle:
                handle.write(b"format-1 summaries")
        in_flight = os.path.join(store.directory, "live-writer.tmp")
        with open(in_flight, "wb") as handle:
            handle.write(b"in flight")

        reopened = RegionShardStore(
            root=str(tmp_path), spec=REGION_A, config=CONFIG,
            shard_racks=2, shard_hours=8,
        )
        dataset = reopened.open(jobs=1)
        assert dataset.manifest["format"] == 2
        names = os.listdir(store.directory)
        assert not [name for name in names if name.endswith(".pkl") and name != "workloads.pkl"]
        assert "live-writer.tmp" in names  # the tmp sweep's, not the prune's
        assert reopened.metrics.counter("dataset.shards.pruned") == len(manifest["shards"])
        assert dataset.table1_row() == oracle.table1_row()

    def test_different_seed_does_not_alias(self, tmp_path):
        store = self.make_store(tmp_path)
        other = RegionShardStore(
            root=str(tmp_path),
            spec=REGION_A,
            config=FleetConfig(racks_per_region=6, runs_per_rack=3, seed=78),
            shard_racks=2,
            shard_hours=8,
        )
        assert other.directory != store.directory
        assert other.load_manifest() is None

    def test_region_does_not_alias(self, tmp_path):
        store = self.make_store(tmp_path)
        other = RegionShardStore(
            root=str(tmp_path), spec=REGION_B, config=CONFIG,
            shard_racks=2, shard_hours=8,
        )
        assert other.directory != store.directory
        assert other.load_manifest() is None


class TestOutOfCore:
    def test_streaming_peak_below_materialized(self, tmp_path):
        """The acceptance bound: aggregating shard-by-shard must not
        materialize the region — peak traced memory for the streaming
        aggregations stays well below reading every table at once."""
        config = FleetConfig(racks_per_region=12, runs_per_rack=6, seed=5)
        dataset = generate_region_shards(
            REGION_A, config, str(tmp_path), shard_racks=3, shard_hours=12, jobs=1
        )
        shard_bytes = [sum(r["bytes"].values()) for r in dataset.manifest["shards"]]
        total_bytes = sum(shard_bytes)
        assert len(shard_bytes) >= 4  # the bound is vacuous with one shard

        def traced(fn):
            # A tracer left running by earlier tests would make start()
            # a no-op and leak their historical peak into ours.
            if tracemalloc.is_tracing():
                tracemalloc.stop()
            tracemalloc.start()
            try:
                fn()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        fresh = ShardedRegionDataset(store=dataset.store, manifest=dataset.manifest)
        streaming_peak = traced(
            lambda: (fresh.table1_row(), fresh.rack_profiles(), fresh.run_contention())
        )
        materialized_peak = traced(dataset.to_region_dataset)
        # The views hold a few run columns of the region; reading it
        # whole holds every column of every table.  The margins are generous so
        # allocator noise cannot flake the test, but a regression to
        # whole-region loading (4x one shard here) trips both bounds.
        assert streaming_peak < materialized_peak
        assert streaming_peak < total_bytes * 0.75 + 256 * 1024

    def test_iteration_is_lazy(self, sharded):
        """iter_frames yields read-only views over an ``mmap.mmap`` of
        each shard file, not in-heap copies, and closes a shard's maps
        when the iteration advances."""
        frames = sharded.iter_frames(("runs", "bursts"))
        runs, bursts = next(frames)
        maps = (runs.base, bursts.base)
        assert all(isinstance(mapping, mmap.mmap) for mapping in maps)
        assert not runs.flags.owndata and not runs.flags.writeable
        assert runs.shape[1] == len(TABLES["runs"])
        assert not any(mapping.closed for mapping in maps)
        following = next(frames)
        assert all(mapping.closed for mapping in maps)
        frames.close()
        assert all(table.base.closed for table in following)


class TestWarmReads:
    """A dataset derives its store key once and parses each shard file's
    ``.npy`` header once; every map checks the file's size."""

    @staticmethod
    def read_every_view(dataset):
        dataset.table1_row()
        dataset.rack_profiles()
        dataset.hourly_boxes()
        dataset.run_contention()
        dataset.burst_contention()
        dataset.hour_counts()
        dataset.to_region_dataset()

    def test_second_round_derives_no_key_and_parses_no_header(self, sharded, monkeypatch):
        from numpy.lib import format as npy_format

        import repro.fleet.shards as shards_module

        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(shards_module, "dataset_cache_key")
        for reader in ("read_magic", "read_array_header_1_0", "read_array_header_2_0"):
            count(npy_format, reader)
        dataset = RegionShardStore(
            root=sharded.store.root, spec=REGION_A, config=CONFIG, shard_racks=2, shard_hours=8
        ).open()
        assert calls == {"dataset_cache_key": 1}  # the open's validation

        calls.clear()
        self.read_every_view(dataset)
        files = 3 * len(dataset.manifest["shards"])
        assert calls == {"read_magic": files, "read_array_header_1_0": files}

        calls.clear()
        self.read_every_view(dataset)
        assert calls == {}

    def test_concurrent_first_reads_agree(self, sharded):
        """Request threads share one dataset: racing first reads each
        map every file with the one layout its header gives."""
        import sys
        import threading

        expected = sharded.to_region_dataset().tables
        dataset = ShardedRegionDataset(store=sharded.store, manifest=sharded.manifest)
        results, errors = [], []

        def read():
            try:
                results.append(dataset.to_region_dataset().tables)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 4
        for tables in results:
            for kind, columns in expected.items():
                for name, column in columns.items():
                    assert tables[kind][name].tobytes() == column.tobytes(), (kind, name)
        assert len(dataset._layouts) == 3 * len(dataset.manifest["shards"])

    def built(self, tmp_path) -> RegionShardStore:
        store = RegionShardStore(
            root=str(tmp_path), spec=REGION_A, config=CONFIG, shard_racks=2, shard_hours=8
        )
        store.build(jobs=1, synthesizer=TrimmedSynthesizer())
        return store

    def test_file_replaced_under_a_live_dataset_fails_loudly(self, tmp_path):
        store = self.built(tmp_path)
        dataset = store.open()
        dataset.burst_contention()  # maps, and so keeps, every bursts layout
        name = dataset.manifest["shards"][0]["files"]["bursts"]
        path = os.path.join(store.directory, name)
        table = np.load(path)
        replacement = os.path.join(str(tmp_path), "replacement.npy")
        np.save(replacement, np.zeros((table.shape[0] + 1, table.shape[1])))
        os.replace(replacement, path)
        with pytest.raises(ShardStoreError, match=re.escape(name)):
            dataset.burst_contention()

    def test_header_disagreeing_with_the_manifest_fails_at_first_read(self, tmp_path):
        """A header one row short, over the same bytes, passes the size
        check at open; the first read of the file refuses it."""
        from numpy.lib import format as npy_format

        store = self.built(tmp_path)
        name = store.load_manifest()["shards"][0]["files"]["runs"]
        path = os.path.join(store.directory, name)
        table = np.load(path, mmap_mode="r")
        rows, columns, offset = table.shape[0], table.shape[1], table.offset
        del table
        with open(path, "r+b") as stream:
            npy_format.write_array_header_1_0(
                stream, {"descr": "<f8", "fortran_order": False, "shape": (rows - 1, columns)}
            )
            assert stream.tell() == offset
        dataset = store.open()
        with pytest.raises(ShardStoreError, match=re.escape(name)):
            dataset.table1_row()


class TestContextIntegration:
    def test_context_dispatches_to_store(self, tmp_path, oracle):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(
            fleet=CONFIG, store_dir=str(tmp_path), shard_racks=2, shard_hours=8
        )
        dataset = ctx.dataset("RegA")
        assert isinstance(dataset, ShardedRegionDataset)
        assert ctx.table1_row("RegA") == oracle.table1_row()
        assert ctx.profiles("RegA") == rack_profiles(oracle.summaries)
        assert ctx.hourly_boxes("RegA") == hourly_box_stats(oracle.summaries)

    def test_verbose_progress_reports_each_tenth(self, tmp_path, capsys):
        """A verbose build reports once per tenth of the region a shard
        crosses, and at the end: here 6 one-rack shards of 3 runs each,
        so every shard crosses a tenth of the 18 runs."""
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(
            fleet=CONFIG, store_dir=str(tmp_path), shard_racks=1, shard_hours=24, verbose=True
        )
        ctx.dataset("RegA")
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"  [RegA] {done}/18 rack runs" for done in (3, 6, 9, 12, 15, 18)]
        ctx.dataset("RegA")  # memoized: no build, no progress
        assert capsys.readouterr().out == ""

    def test_context_without_store_unchanged(self, oracle):
        """Without a store root the context builds into a private
        temporary one — same results — deleted with the context."""
        import gc

        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(fleet=CONFIG)
        root = ctx.store_dir
        assert os.path.isdir(root)
        assert isinstance(ctx.dataset("RegA"), ShardedRegionDataset)
        assert ctx.dataset("RegA").store.directory.startswith(root)
        assert ctx.table1_row("RegA") == oracle.table1_row()
        assert ctx.profiles("RegA") == rack_profiles(oracle.summaries)
        del ctx
        gc.collect()
        assert not os.path.exists(root)


def _shard_hashes(root, config, jobs, shard_racks, shard_hours, **kwargs):
    store = RegionShardStore(
        root=str(root), spec=REGION_A, config=config,
        shard_racks=shard_racks, shard_hours=shard_hours,
    )
    manifest = store.build(jobs=jobs, **kwargs)
    assert store.verify_hashes(manifest)
    return [(record["tag"], record["sha256"]) for record in manifest["shards"]]


class TestParallelBuild:
    """A parallel build fans build tasks out and writes every shard in
    the building process; its files must equal a serial build's."""

    PARITY = FleetConfig(racks_per_region=4, runs_per_rack=2, seed=11)

    @pytest.mark.parametrize("geometry", [(64, 12), (1, 12), (2, 4)])
    def test_shard_bytes_independent_of_jobs(self, tmp_path, geometry):
        serial = _shard_hashes(tmp_path / "serial", self.PARITY, 1, *geometry)
        parallel = _shard_hashes(tmp_path / "parallel", self.PARITY, 2, *geometry)
        assert parallel == serial

    def test_one_shard_region_with_more_jobs_than_shards(self, tmp_path):
        config = FleetConfig(racks_per_region=2, runs_per_rack=2, seed=12)
        serial = _shard_hashes(tmp_path / "serial", config, 1, 64, 24)
        parallel = _shard_hashes(tmp_path / "parallel", config, 3, 64, 24)
        assert len(serial) == 1
        assert parallel == serial

    def test_parallel_build_uses_the_callers_synthesizer(self, tmp_path):
        serial = _shard_hashes(
            tmp_path / "serial", self.PARITY, 1, 2, 12, synthesizer=TrimmedSynthesizer()
        )
        parallel = _shard_hashes(
            tmp_path / "parallel", self.PARITY, 2, 2, 12, synthesizer=TrimmedSynthesizer()
        )
        default = _shard_hashes(tmp_path / "default", self.PARITY, 1, 2, 12)
        assert parallel == serial
        assert parallel != default

    def test_progress_and_on_shard_fire_per_shard(self, tmp_path):
        records, progress = [], []
        store = RegionShardStore(
            root=str(tmp_path), spec=REGION_A, config=self.PARITY,
            shard_racks=1, shard_hours=12,
        )
        manifest = store.build(
            jobs=2,
            synthesizer=TrimmedSynthesizer(),
            on_shard=records.append,
            progress=lambda done, total: progress.append((done, total)),
        )
        assert sorted(r["tag"] for r in records) == sorted(
            r["tag"] for r in manifest["shards"]
        )
        assert len(progress) == len(records)
        assert progress[-1] == (manifest["total_runs"], manifest["total_runs"])
        # 8 runs over 2 jobs: two build tasks of ceil(8 / 2) = 4 runs.
        assert store.metrics.counter("dataset.parallel.tasks") == 2
        assert store.metrics.counter("dataset.generated_runs") == manifest["total_runs"]
