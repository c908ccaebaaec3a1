"""The shard store's view folds (repro.analysis.streaming).

* The store's Table 1 and figure views are **bit-identical** to their
  in-memory oracles for any split of a region's runs into shard files,
  listed in any order: ``columns()`` puts every row back into global
  order.  (Real build geometries are covered in
  ``tests/fleet/test_shards.py``.)
* Folds of consecutive rack ranges merge into the fold of the whole
  region; folds with different parameters refuse to merge.
"""

import os

import numpy as np
import pytest

from repro.analysis.streaming import (
    BurstContentionAccumulator,
    BurstContentionView,
    HourlyBoxAccumulator,
    RackProfileAccumulator,
    RunContentionAccumulator,
    RunContentionView,
    Table1Accumulator,
)
from repro.config import FleetConfig
from repro.errors import AnalysisError
from repro.fleet.dataset import DatasetSummary
from repro.fleet.shards import (
    RegionShardStore,
    ShardedRegionDataset,
    generate_region_shards,
)
from repro.workload.region import REGION_A
from tests.analysis.streaming_reference import (
    burst_contention_from_summaries,
    hourly_box_stats,
    rack_profiles,
    run_contention_from_summaries,
)
from tests.fleet.dataset_reference import SummaryDataset, encode_tables, generate_region_dataset

CONFIG = FleetConfig(racks_per_region=5, runs_per_rack=4, seed=13)


@pytest.fixture(scope="module")
def dataset():
    return generate_region_dataset(REGION_A, CONFIG)


def split_store(root, dataset: SummaryDataset, pieces: int, seed: int) -> ShardedRegionDataset:
    """The region's runs dealt at random into ``pieces`` shard files,
    shuffled within each file, and the files listed in random order."""
    rng = np.random.default_rng(seed)
    summaries = dataset.summaries
    assignment = rng.integers(0, pieces, size=len(summaries))
    rack_index = {workload.rack: index for index, workload in enumerate(dataset.workloads)}
    store = RegionShardStore(root=str(root), spec=REGION_A, config=CONFIG)
    os.makedirs(store.directory)
    records = []
    for piece in rng.permutation(pieces).tolist():
        chunk = [summaries[i] for i in rng.permutation(np.flatnonzero(assignment == piece))]
        if not chunk:
            continue
        tables = encode_tables(chunk, [rack_index[summary.rack] for summary in chunk])
        files = {kind: f"piece{piece}.{kind}.npy" for kind in tables}
        for kind, table in tables.items():
            np.save(os.path.join(store.directory, files[kind]), table)
        sizes = {kind: os.path.getsize(os.path.join(store.directory, name)) for kind, name in files.items()}
        records.append({"files": files, "bytes": sizes})
    manifest = {
        "region": dataset.region,
        "rack_names": [workload.rack for workload in dataset.workloads],
        "shards": records,
    }
    return ShardedRegionDataset(store=store, manifest=manifest, _workloads=dataset.workloads)


@pytest.mark.parametrize("pieces,seed", [(1, 0), (3, 1), (7, 2), (16, 3)])
class TestAccumulatorsMatchOracles:
    """Every view equals its oracle for any split into shards:
    ``columns()`` restores global order before a fold sees a row."""

    def test_table1(self, dataset, tmp_path, pieces, seed):
        store = split_store(tmp_path, dataset, pieces, seed)
        assert store.table1_row() == dataset.table1_row()
        assert store.to_region_dataset().table1_row() == dataset.table1_row()

    def test_rack_profiles(self, dataset, tmp_path, pieces, seed):
        store = split_store(tmp_path, dataset, pieces, seed)
        assert store.rack_profiles() == rack_profiles(dataset.summaries)

    def test_rack_profiles_hour_filter(self, dataset, tmp_path, pieces, seed):
        hours = {s.hour for s in dataset.summaries[::3]}
        store = split_store(tmp_path, dataset, pieces, seed)
        assert store.rack_profiles(hours=hours) == rack_profiles(
            dataset.summaries, hours=hours
        )

    def test_hourly_boxes(self, dataset, tmp_path, pieces, seed):
        store = split_store(tmp_path, dataset, pieces, seed)
        assert store.hourly_boxes() == hourly_box_stats(dataset.summaries)

    def test_run_contention(self, dataset, tmp_path, pieces, seed):
        actual = split_store(tmp_path, dataset, pieces, seed).run_contention()
        expected = run_contention_from_summaries(dataset.summaries)
        assert actual.total == expected.total
        assert actual.excluded == expected.excluded
        assert np.array_equal(actual.mins, expected.mins)
        assert np.array_equal(actual.p90s, expected.p90s)

    def test_burst_contention(self, dataset, tmp_path, pieces, seed):
        actual = split_store(tmp_path, dataset, pieces, seed).burst_contention()
        expected = burst_contention_from_summaries(dataset.summaries)
        assert np.array_equal(actual.racks, expected.racks)
        assert np.array_equal(actual.max_contention, expected.max_contention)
        assert np.array_equal(actual.lossy, expected.lossy)
        assert np.array_equal(
            actual.first_loss_contention, expected.first_loss_contention
        )


class TestAccumulatorEdgeCases:
    """Views that match nothing fail like their oracles; an empty store's
    views are empty; folds with different parameters refuse to merge."""

    def test_empty_profile_raises_like_oracle(self, dataset, tmp_path):
        with pytest.raises(AnalysisError):
            rack_profiles(dataset.summaries, hours={24})
        store = split_store(tmp_path, dataset, 3, 0)
        with pytest.raises(AnalysisError, match="no runs matched the requested hours"):
            store.rack_profiles(hours={24})

    def test_empty_boxes_raise_like_oracle(self, dataset, tmp_path):
        with pytest.raises(AnalysisError):
            hourly_box_stats(dataset.summaries, racks={"no-such-rack"})
        store = split_store(tmp_path, dataset, 3, 0)
        with pytest.raises(AnalysisError, match="no runs matched the rack filter"):
            store.hourly_boxes(racks={"no-such-rack"})

    def test_table1_merge_rejects_cross_region(self):
        with pytest.raises(AnalysisError):
            Table1Accumulator("RegA").merge(Table1Accumulator("RegB"))

    def test_profile_merge_rejects_filter_mismatch(self):
        names = ["RegA-rack0000"]
        with pytest.raises(AnalysisError):
            RackProfileAccumulator("RegA", names, hours={1}).merge(
                RackProfileAccumulator("RegA", names, hours={2})
            )

    def test_empty_run_contention_finalizes(self, tmp_path):
        empty = FleetConfig(racks_per_region=0, runs_per_rack=4, seed=13)
        store = generate_region_shards(REGION_A, empty, str(tmp_path), jobs=1)
        assert store.manifest["shards"] == []
        assert store.table1_row() == DatasetSummary("RegA", 0, 0, 0, 0, 0)
        assert store.hour_counts() == {}
        view = store.run_contention()
        assert view.total == 0 and view.excluded == 0
        assert view.mins.size == 0 and view.p90s.size == 0
        bursts = store.burst_contention()
        assert bursts.racks.size == bursts.lossy.size == 0


def _folds(store: ShardedRegionDataset) -> list:
    names = store.rack_names
    hours = set(store.columns("runs", ("hour",))["hour"][::3].astype(int).tolist())
    return [
        lambda: Table1Accumulator(store.region),
        lambda: RackProfileAccumulator(store.region, names),
        lambda: RackProfileAccumulator(store.region, names, hours=hours),
        lambda: HourlyBoxAccumulator(names),
        lambda: HourlyBoxAccumulator(names, racks={names[1], names[3]}),
        RunContentionAccumulator,
        lambda: BurstContentionAccumulator(names),
    ]


def _same(actual, expected) -> bool:
    if isinstance(expected, (RunContentionView, BurstContentionView)):
        return all(
            np.array_equal(getattr(actual, name), getattr(expected, name))
            for name in vars(expected)
        )
    return actual == expected


class TestFoldMerge:
    """A region folded in two rack ranges and merged equals its view."""

    @pytest.mark.parametrize("cut_rack", [0, 2, 5])
    def test_merged_rack_ranges_equal_the_view(self, dataset, tmp_path, cut_rack):
        store = split_store(tmp_path, dataset, 3, 0)
        for make in _folds(store):
            whole = make()
            columns = store.columns(whole.TABLE, ("rack_id", *whole.COLUMNS))
            cut = int(np.searchsorted(columns["rack_id"], cut_rack))
            pieces = []
            for rows in (slice(0, cut), slice(cut, None)):
                piece = make()
                piece.add_columns({name: columns[name][rows] for name in piece.COLUMNS})
                pieces.append(piece)
            whole.add_columns({name: columns[name] for name in whole.COLUMNS})
            assert _same(pieces[0].merge(pieces[1]).finalize(), whole.finalize())
