"""Mergeable streaming partials (repro.analysis.streaming).

Two families of guarantees:

* the generic QuantileSketch merges associatively and agrees with
  direct computation;
* the exact figure accumulators are **bit-identical** to their
  in-memory oracles for any split of the summaries into shards and any
  merge order — the property the shard store's correctness rests on.
  They are fed per summary through the ``add_summary`` feeders of
  ``tests/analysis/streaming_reference.py``.
"""

import numpy as np
import pytest

from repro.analysis.diurnal import hourly_box_stats
from repro.analysis.racks import rack_profiles
from repro.analysis.streaming import (
    HourlyBoxAccumulator,
    QuantileSketch,
    RackProfileAccumulator,
    RunContentionAccumulator,
    Table1Accumulator,
)
from repro.config import FleetConfig
from repro.errors import AnalysisError
from repro.fleet.dataset import generate_region_dataset
from repro.workload.region import REGION_A
from tests.analysis.streaming_reference import (
    BurstContentionReference,
    HourlyBoxReference,
    RackProfileReference,
    RunContentionReference,
    Table1Reference,
    burst_contention_from_summaries,
    run_contention_from_summaries,
)


@pytest.fixture(scope="module")
def summaries():
    config = FleetConfig(racks_per_region=5, runs_per_rack=4, seed=13)
    return generate_region_dataset(REGION_A, config).summaries


def split_into(items, pieces, seed):
    """A deterministic arbitrary partition of items into pieces chunks."""
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, pieces, size=len(items))
    return [
        [item for item, piece in zip(items, assignment) if piece == index]
        for index in range(pieces)
    ]


class TestQuantileSketch:
    def test_small_stream_is_exact(self):
        sketch = QuantileSketch(k=64)
        sketch.add_array(np.arange(50, dtype=float))
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(1.0) == 49.0
        assert abs(sketch.quantile(0.5) - 24.5) <= 1.0

    def test_large_stream_bounded_error(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=20_000)
        sketch = QuantileSketch(k=256)
        sketch.add_array(values)
        for q in (0.1, 0.5, 0.9):
            true = float(np.quantile(values, q))
            rank_true = q
            rank_est = float((values <= sketch.quantile(q)).mean())
            assert abs(rank_est - rank_true) < 0.05

    def test_merge_equivalent_to_single_stream(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(size=5_000)
        parts = np.array_split(values, 7)
        merged = QuantileSketch(k=128)
        for part in parts:
            piece = QuantileSketch(k=128)
            piece.add_array(part)
            merged.merge(piece)
        assert merged.count == values.size
        for q in (0.25, 0.5, 0.75):
            rank_est = float((values <= merged.quantile(q)).mean())
            assert abs(rank_est - q) < 0.08

    def test_rejects_tiny_capacity_and_bad_quantiles(self):
        with pytest.raises(AnalysisError):
            QuantileSketch(k=4)
        sketch = QuantileSketch()
        with pytest.raises(AnalysisError):
            sketch.quantile(1.5)
        with pytest.raises(AnalysisError):
            sketch.quantile(0.5)  # empty


def accumulate_split(make, summaries, pieces, seed):
    """Feed an arbitrary partition through per-piece accumulators and
    merge them in shuffled order — exactly what shard merging does."""
    chunks = split_into(summaries, pieces, seed)
    accumulators = []
    for chunk in chunks:
        accumulator = make()
        for summary in chunk:
            accumulator.add_summary(summary)
        accumulators.append(accumulator)
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(len(accumulators))
    merged = accumulators[order[0]]
    for index in order[1:]:
        merged.merge(accumulators[index])
    return merged


@pytest.mark.parametrize("pieces,seed", [(1, 0), (3, 1), (7, 2), (16, 3)])
class TestAccumulatorsMatchOracles:
    def test_table1(self, summaries, pieces, seed):
        merged = accumulate_split(
            lambda: Table1Reference("RegA"), summaries, pieces, seed
        )
        runs = len(summaries)
        row = merged.finalize()
        assert row.runs == runs
        assert row.server_runs == sum(s.servers for s in summaries)
        assert row.bursty_server_runs == sum(s.bursty_server_runs() for s in summaries)
        assert row.bursts == sum(len(s.bursts) for s in summaries)
        assert row.racks == len({s.rack for s in summaries})

    def test_rack_profiles(self, summaries, pieces, seed):
        merged = accumulate_split(RackProfileReference, summaries, pieces, seed)
        assert merged.finalize() == rack_profiles(summaries)

    def test_rack_profiles_hour_filter(self, summaries, pieces, seed):
        hours = {s.hour for s in summaries[::3]}
        merged = accumulate_split(
            lambda: RackProfileReference(hours=hours), summaries, pieces, seed
        )
        assert merged.finalize() == rack_profiles(summaries, hours=hours)

    def test_hourly_boxes(self, summaries, pieces, seed):
        merged = accumulate_split(HourlyBoxReference, summaries, pieces, seed)
        assert merged.finalize() == hourly_box_stats(summaries)

    def test_run_contention(self, summaries, pieces, seed):
        merged = accumulate_split(RunContentionReference, summaries, pieces, seed)
        actual = merged.finalize()
        expected = run_contention_from_summaries(summaries)
        assert actual.total == expected.total
        assert actual.excluded == expected.excluded
        assert np.array_equal(actual.mins, expected.mins)
        assert np.array_equal(actual.p90s, expected.p90s)

    def test_burst_contention(self, summaries, pieces, seed):
        merged = accumulate_split(BurstContentionReference, summaries, pieces, seed)
        actual = merged.finalize()
        expected = burst_contention_from_summaries(summaries)
        assert np.array_equal(actual.racks, expected.racks)
        assert np.array_equal(actual.max_contention, expected.max_contention)
        assert np.array_equal(actual.lossy, expected.lossy)
        assert np.array_equal(
            actual.first_loss_contention, expected.first_loss_contention
        )


class TestAccumulatorEdgeCases:
    def test_empty_profile_raises_like_oracle(self):
        with pytest.raises(AnalysisError):
            RackProfileAccumulator().finalize()

    def test_empty_boxes_raise_like_oracle(self):
        with pytest.raises(AnalysisError):
            HourlyBoxAccumulator().finalize()

    def test_table1_merge_rejects_cross_region(self):
        with pytest.raises(AnalysisError):
            Table1Accumulator("RegA").merge(Table1Accumulator("RegB"))

    def test_profile_merge_rejects_filter_mismatch(self):
        with pytest.raises(AnalysisError):
            RackProfileAccumulator(hours={1}).merge(RackProfileAccumulator(hours={2}))

    def test_empty_run_contention_finalizes(self):
        view = RunContentionAccumulator().finalize()
        assert view.total == 0 and view.excluded == 0
        assert view.mins.size == 0 and view.p90s.size == 0
