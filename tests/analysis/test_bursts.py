"""Tests for burst detection and properties: the burst and server rows
of ``run_rows``, read as objects (``tests.analysis.summary_reference``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.summary import run_rows
from repro.errors import AnalysisError
from tests.analysis.summary_reference import detect_bursts, detect_run_bursts, summarize_run
from tests.conftest import BURSTY, FULL_BUCKET, QUIET, make_run, make_sync_run


class TestDetectBursts:
    def test_single_burst(self):
        run = make_run([QUIET, BURSTY, BURSTY, QUIET])
        bursts = detect_bursts(run)
        assert len(bursts) == 1
        assert bursts[0].start == 1
        assert bursts[0].length == 2
        assert bursts[0].volume == pytest.approx(2 * BURSTY)

    def test_multiple_separated_bursts(self):
        run = make_run([BURSTY, QUIET, BURSTY, QUIET, BURSTY])
        bursts = detect_bursts(run)
        assert len(bursts) == 3
        assert [burst.length for burst in bursts] == [1, 1, 1]

    def test_burst_at_edges(self):
        run = make_run([BURSTY, QUIET, QUIET, BURSTY])
        bursts = detect_bursts(run)
        assert bursts[0].start == 0
        assert bursts[-1].end == 4

    def test_no_bursts_in_smooth_traffic(self):
        run = make_run([QUIET] * 10)
        assert detect_bursts(run) == []

    def test_exactly_50pct_is_not_a_burst(self):
        """The definition is *exceeds* 50% of line rate."""
        run = make_run([0.5 * FULL_BUCKET])
        assert detect_bursts(run) == []

    def test_loss_attribution_within_burst(self):
        retx = [0, 0, 1000, 0, 0]
        run = make_run([QUIET, BURSTY, BURSTY, QUIET, QUIET], retx=retx)
        bursts = detect_bursts(run)
        assert bursts[0].lossy
        assert bursts[0].retx_bytes == 1000

    def test_loss_attribution_one_rtt_later(self):
        """Section 4.6: retransmissions surface an RTT after the loss,
        so the window extends past the burst end."""
        retx = [0, 0, 0, 1000, 0]
        run = make_run([QUIET, BURSTY, BURSTY, QUIET, QUIET], retx=retx)
        bursts = detect_bursts(run, loss_lag_buckets=2)
        assert bursts[0].lossy

    def test_loss_outside_window_not_attributed(self):
        retx = [0, 0, 0, 0, 0, 1000]
        run = make_run([QUIET, BURSTY, BURSTY, QUIET, QUIET, QUIET], retx=retx)
        bursts = detect_bursts(run, loss_lag_buckets=2)
        assert not bursts[0].lossy

    def test_lag_window_clipped_at_next_burst(self):
        """Two bursts one quiet bucket apart: the first burst's lag
        window must stop at the second burst's start, so one loss event
        inside the second burst marks only the second burst lossy and
        its bytes are counted once."""
        #            b1      gap    b2      (retx lands in b2's first bucket)
        ingress = [BURSTY, QUIET, BURSTY, BURSTY, QUIET, QUIET]
        retx = [0, 0, 1000, 0, 0, 0]
        run = make_run(ingress, retx=retx)
        bursts = detect_bursts(run, loss_lag_buckets=2)
        assert len(bursts) == 2
        first, second = bursts
        assert not first.lossy
        assert first.retx_bytes == 0
        assert second.lossy
        assert second.retx_bytes == 1000

    def test_lag_window_still_covers_gap_before_next_burst(self):
        """Clipping keeps the gap buckets before the next burst: retx
        surfacing in the quiet bucket between bursts still belongs to
        the first burst."""
        ingress = [BURSTY, QUIET, BURSTY, QUIET]
        retx = [0, 500, 0, 0]
        run = make_run(ingress, retx=retx)
        first, second = detect_bursts(run, loss_lag_buckets=2)
        assert first.lossy
        assert first.retx_bytes == 500
        assert not second.lossy

    def test_connection_annotation(self):
        run = make_run([BURSTY, BURSTY], conns=[30, 50])
        bursts = detect_bursts(run)
        assert bursts[0].avg_connections == pytest.approx(40)

    def test_negative_lag_rejected(self):
        run = make_run([BURSTY])
        with pytest.raises(AnalysisError):
            detect_bursts(run, loss_lag_buckets=-1)

    @given(
        mask=st.lists(st.booleans(), min_size=1, max_size=100)
    )
    @settings(max_examples=50)
    def test_bursts_partition_bursty_samples(self, mask):
        """Every bursty sample belongs to exactly one burst; burst
        boundaries are maximal consecutive runs."""
        series = [BURSTY if m else QUIET for m in mask]
        run = make_run(series)
        bursts = detect_bursts(run)
        covered = np.zeros(len(mask), dtype=bool)
        for burst in bursts:
            assert not covered[burst.start : burst.end].any()  # disjoint
            covered[burst.start : burst.end] = True
        np.testing.assert_array_equal(covered, np.array(mask))


class TestDetectRunBursts:
    def test_max_contention_annotation(self):
        sync = make_sync_run(
            [
                [BURSTY, BURSTY, QUIET],
                [QUIET, BURSTY, QUIET],
            ]
        )
        bursts = detect_run_bursts(sync)
        long_burst = next(b for b in bursts if b.server == 0)
        assert long_burst.max_contention == 2
        assert long_burst.contended

    def test_non_contended_burst(self):
        sync = make_sync_run(
            [
                [BURSTY, QUIET],
                [QUIET, BURSTY],
            ]
        )
        bursts = detect_run_bursts(sync)
        assert all(burst.max_contention == 1 for burst in bursts)
        assert not any(burst.contended for burst in bursts)


class TestFirstLossContention:
    def test_first_loss_contention_annotated(self):
        """The alternate Section 8 methodology: a lossy burst records
        the contention at its first loss, which can be lower than the
        lifetime maximum."""
        sync = make_sync_run(
            [
                [BURSTY, BURSTY, BURSTY, QUIET],  # victim burst
                [QUIET, QUIET, BURSTY, QUIET],  # contention arrives late
            ]
        )
        # Loss repaired in bucket 2 with lag 2 -> loss at bucket 0.
        sync.runs[0].in_retx_bytes[2] = 500
        bursts = detect_run_bursts(sync, loss_lag_buckets=2)
        victim = next(b for b in bursts if b.server == 0)
        assert victim.lossy
        assert victim.max_contention == 2
        assert victim.first_loss_contention == 1  # alone when it lost

    def test_clean_burst_has_no_first_loss(self):
        sync = make_sync_run([[BURSTY, QUIET]])
        bursts = detect_run_bursts(sync)
        assert bursts[0].first_loss_contention == -1

    def test_first_loss_never_above_max(self):
        rng = np.random.default_rng(0)
        rows = (rng.random((6, 40)) < 0.3) * BURSTY
        sync = make_sync_run(list(rows))
        for run in sync.runs:
            run.in_retx_bytes[:] = (rng.random(40) < 0.1) * 100
        for burst in detect_run_bursts(sync):
            if burst.lossy:
                assert 1 <= burst.first_loss_contention <= burst.max_contention


class TestBurstAggregates:
    def test_frequency(self):
        """Figure 6's metric: a server's bursts per second of its run."""
        sync = make_sync_run([[BURSTY, QUIET] * 5])  # 10 ms
        stat = summarize_run(sync).server_stats[0]
        assert stat.bursts_per_second == pytest.approx(500)

    def test_frequency_invalid_duration(self):
        """A run of no buckets has no duration to count bursts over."""
        with pytest.raises(AnalysisError):
            run_rows(make_sync_run([[]]).stacked())

    def test_byte_fraction(self):
        """Section 5's share of ingress bytes carried inside bursts."""
        stat = summarize_run(make_sync_run([[BURSTY, QUIET]])).server_stats[0]
        expected = BURSTY / (BURSTY + QUIET)
        assert stat.in_burst_bytes / stat.total_in_bytes == pytest.approx(expected)

    def test_byte_fraction_empty_run(self):
        stat = summarize_run(make_sync_run([[0, 0]])).server_stats[0]
        assert stat.in_burst_bytes == 0.0 and not stat.bursty

    def test_length_ms(self):
        run = make_run([BURSTY] * 3)
        burst = detect_bursts(run)[0]
        assert burst.length_ms() == pytest.approx(3.0)
