"""Tests for rack classification, task analysis, and diurnal grouping,
over run-table columns folded as the store's views fold them."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.diurnal import peak_window_increase
from repro.analysis.racks import RackClass, classify_racks
from repro.analysis.streaming import HourlyBoxAccumulator, RackProfileAccumulator
from repro.analysis.tasks import dominant_share_by_rack, task_diversity
from repro.errors import AnalysisError
from repro.experiments.context import ExperimentContext


def make_summary(
    rack: str,
    mean_contention: float,
    hour: int = 6,
    extras: dict | None = None,
    discards: float = 0.0,
    ingress: float = 1e9,
) -> dict:
    """One run's run-table values (its rack by name)."""
    extras = extras or {}
    return {
        "rack": rack,
        "hour": hour,
        "contention_mean": mean_contention,
        "switch_discard_bytes": discards,
        "switch_ingress_bytes": ingress,
        "distinct_tasks": extras.get("distinct_tasks", 0),
        "dominant_share": extras.get("dominant_share", 0.0),
        "colocated": extras.get("colocated", False),
    }


def fold(make, summaries):
    """Fold the runs' columns, racks numbered in order of appearance, with
    the fold ``make(rack_names)`` returns."""
    names = list(dict.fromkeys(summary["rack"] for summary in summaries))
    accumulator = make(names)
    columns = {
        name: np.array(
            [
                names.index(summary["rack"]) if name == "rack_id" else summary[name]
                for summary in summaries
            ],
            dtype=np.float64,
        )
        for name in accumulator.COLUMNS
    }
    accumulator.add_columns(columns)
    return accumulator.finalize()


def rack_profiles(summaries, hours=None):
    return fold(lambda names: RackProfileAccumulator("RegA", names, hours), summaries)


def hourly_box_stats(summaries, racks=None):
    return fold(lambda names: HourlyBoxAccumulator(names, racks), summaries)


class TestRackProfiles:
    def test_aggregation(self):
        summaries = [
            make_summary("r0", 1.0, hour=1),
            make_summary("r0", 3.0, hour=5),
            make_summary("r1", 8.0),
        ]
        profiles = rack_profiles(summaries)
        by_rack = {profile.rack: profile for profile in profiles}
        assert by_rack["r0"].mean_contention == pytest.approx(2.0)
        assert by_rack["r0"].min_contention == 1.0
        assert by_rack["r0"].max_contention == 3.0
        assert by_rack["r0"].runs == 2

    def test_hour_filter(self):
        summaries = [make_summary("r0", 1.0, hour=1), make_summary("r0", 9.0, hour=6)]
        profiles = rack_profiles(summaries, hours={6})
        assert profiles[0].mean_contention == 9.0

    def test_no_matching_hours_rejected(self):
        with pytest.raises(AnalysisError):
            rack_profiles([make_summary("r0", 1.0, hour=1)], hours={5})

    def test_normalized_discards(self):
        profile = rack_profiles([make_summary("r0", 1.0, discards=100, ingress=1000)])[0]
        assert profile.normalized_discards == pytest.approx(0.1)

    def test_extras_carried(self):
        profile = rack_profiles(
            [make_summary("r0", 1.0, extras={"distinct_tasks": 9, "dominant_share": 0.7})]
        )[0]
        assert profile.distinct_tasks == 9
        assert profile.dominant_share == pytest.approx(0.7)


class TestClassification:
    def test_split(self):
        profiles = rack_profiles(
            [make_summary("low", 1.0), make_summary("high", 9.0)]
        )
        classes = classify_racks(profiles, split=4.5)
        assert [p.rack for p in classes[RackClass.TYPICAL]] == ["low"]
        assert [p.rack for p in classes[RackClass.HIGH]] == ["high"]

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            classify_racks([])

    def test_classify_run(self, monkeypatch):
        """A run's class is its rack's: the RegA-High mask of a rack_id
        column."""
        ctx = ExperimentContext.small(racks=2, runs_per_rack=1)
        monkeypatch.setattr(ctx, "dataset", lambda region: SimpleNamespace(rack_names=["r0", "r1"]))
        rack_ids = np.array([0.0, 1.0, 1.0])
        monkeypatch.setattr(ctx, "rega_high_racks", lambda: set())
        assert ctx.rega_high_mask(rack_ids).tolist() == [False, False, False]
        monkeypatch.setattr(ctx, "rega_high_racks", lambda: {"r1"})
        assert ctx.rega_high_mask(rack_ids).tolist() == [False, True, True]


class TestTaskAnalysis:
    def test_diversity(self):
        profiles = rack_profiles(
            [
                make_summary("a", 1.0, extras={"distinct_tasks": 8}),
                make_summary("b", 1.0, extras={"distinct_tasks": 14}),
            ]
        )
        assert sorted(task_diversity(profiles).tolist()) == [8, 14]

    def test_dominant_share_sorted_by_contention(self):
        profiles = rack_profiles(
            [
                make_summary("hot", 9.0, extras={"dominant_share": 0.9}),
                make_summary("cold", 1.0, extras={"dominant_share": 0.25}),
            ]
        )
        ids, shares = dominant_share_by_rack(profiles)
        assert shares.tolist() == [25.0, 90.0]  # cold first

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            task_diversity([])


class TestDiurnal:
    def test_hourly_grouping(self):
        summaries = [
            make_summary("r0", 1.0, hour=3),
            make_summary("r1", 3.0, hour=3),
            make_summary("r0", 5.0, hour=10),
        ]
        boxes = hourly_box_stats(summaries)
        assert set(boxes) == {3, 10}
        assert boxes[3].mean == pytest.approx(2.0)

    def test_rack_filter(self):
        summaries = [
            make_summary("keep", 4.0, hour=3),
            make_summary("drop", 100.0, hour=3),
        ]
        boxes = hourly_box_stats(summaries, racks={"keep"})
        assert boxes[3].mean == 4.0

    def test_filter_matches_nothing_rejected(self):
        with pytest.raises(AnalysisError):
            hourly_box_stats([make_summary("r0", 1.0)], racks={"ghost"})

    def test_peak_window_increase(self):
        means = {h: (2.0 if 4 <= h <= 10 else 1.0) for h in range(24)}
        assert peak_window_increase(means, window=(4, 10)) == pytest.approx(1.0)

    def test_peak_window_degenerate_rejected(self):
        with pytest.raises(AnalysisError):
            peak_window_increase({5: 1.0}, window=(4, 10))
