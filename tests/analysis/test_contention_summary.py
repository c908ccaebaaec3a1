"""Tests for contention metrics and run summaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.contention import (
    buffer_share,
    buffer_share_drop,
    contention_stats,
)
from repro.config import BufferConfig
from repro.errors import AnalysisError
from tests.analysis.summary_reference import summarize_run
from tests.conftest import BURSTY, QUIET, make_sync_run


class TestContentionStats:
    def test_basic(self):
        stats = contention_stats(np.array([0, 1, 2, 3, 0]))
        assert stats.mean == pytest.approx(1.2)
        assert stats.min_active == 1
        assert stats.max == 3
        assert stats.frac_zero == pytest.approx(0.4)

    def test_all_zero(self):
        stats = contention_stats(np.zeros(10))
        assert stats.min_active == 0
        assert not stats.has_activity

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            contention_stats(np.array([]))

    def test_p90(self):
        series = np.concatenate([np.zeros(90), np.full(10, 5.0)])
        stats = contention_stats(series)
        assert stats.p90 <= 5.0


class TestBufferShare:
    def test_fixed_point_alpha_1(self):
        """S=1 -> B/2, S=2 -> B/3 (Section 2.1.2)."""
        assert buffer_share(1) == pytest.approx(0.5)
        assert buffer_share(2) == pytest.approx(1 / 3)

    def test_zero_contention_treated_as_one(self):
        assert buffer_share(0) == buffer_share(1)

    def test_alpha_2(self):
        config = BufferConfig(alpha=2.0)
        assert buffer_share(1, config) == pytest.approx(2 / 3)
        assert buffer_share(2, config) == pytest.approx(2 / 5)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            buffer_share(-1)

    def test_share_drop_1_to_2(self):
        """Section 7.3: contention 1 -> 2 is a 33.4% drop from peak."""
        assert buffer_share_drop(1, 2) == pytest.approx(1 / 3)

    def test_share_drop_zero_variation(self):
        assert buffer_share_drop(3, 3) == 0.0

    def test_share_drop_inverted_rejected(self):
        with pytest.raises(AnalysisError):
            buffer_share_drop(5, 2)

    @given(
        low=st.integers(1, 20),
        extra=st.integers(0, 20),
    )
    @settings(max_examples=40)
    def test_drop_monotone_in_spread(self, low, extra):
        drop_small = buffer_share_drop(low, low + extra)
        drop_big = buffer_share_drop(low, low + extra + 1)
        assert drop_big >= drop_small
        assert 0 <= drop_small < 1


class TestSummarizeRun:
    def test_summary_fields(self):
        sync = make_sync_run(
            [
                [BURSTY, BURSTY, QUIET, QUIET],
                [BURSTY, QUIET, QUIET, QUIET],
                [QUIET, QUIET, QUIET, QUIET],
            ],
            hour=6,
        )
        summary = summarize_run(sync)
        assert summary.servers == 3
        assert summary.hour == 6
        assert summary.bursty_server_runs() == 2
        assert len(summary.bursts) == 2
        assert summary.contention.mean == pytest.approx((2 + 1 + 0 + 0) / 4)

    def test_burst_contention_annotated(self):
        sync = make_sync_run(
            [
                [BURSTY, BURSTY],
                [BURSTY, QUIET],
            ]
        )
        summary = summarize_run(sync)
        burst0 = next(b for b in summary.bursts if b.server == 0)
        assert burst0.max_contention == 2

    def test_server_stats_utilizations(self):
        sync = make_sync_run([[BURSTY, QUIET]])
        summary = summarize_run(sync)
        stat = summary.server_stats[0]
        assert stat.bursty
        assert stat.utilization_in_bursts == pytest.approx(0.8)
        assert stat.utilization_outside_bursts == pytest.approx(0.1)
        assert stat.bursts_per_second == pytest.approx(1 / 0.002)

    def test_non_bursty_server_nan_fields(self):
        sync = make_sync_run([[QUIET, QUIET]])
        stat = summarize_run(sync).server_stats[0]
        assert not stat.bursty
        assert np.isnan(stat.utilization_in_bursts)

    def test_total_bytes(self):
        sync = make_sync_run([[100, 200], [300, 400]])
        assert summarize_run(sync).total_in_bytes == 1000

    def test_extras_preserved(self):
        sync = make_sync_run([[QUIET]], extras={"colocated": True})
        assert summarize_run(sync).extras["colocated"] is True
