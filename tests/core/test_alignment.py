"""Tests for run trimming and interpolation (SyncMillisampler alignment)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alignment import align_runs, common_window, resample_run
from repro.errors import AnalysisError
from tests.conftest import make_run


class TestCommonWindow:
    def test_basic_overlap(self):
        runs = [
            make_run([1] * 10, start_time=0.000),
            make_run([1] * 10, start_time=0.003),
        ]
        start, end = common_window(runs)
        assert start == pytest.approx(0.003)
        assert end == pytest.approx(0.010)

    def test_no_overlap_rejected(self):
        runs = [
            make_run([1] * 5, start_time=0.0),
            make_run([1] * 5, start_time=1.0),
        ]
        with pytest.raises(AnalysisError):
            common_window(runs)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            common_window([])


class TestResample:
    def test_aligned_resample_is_identity(self):
        run = make_run([1.0, 2.0, 3.0, 4.0], start_time=0.0)
        resampled = resample_run(run, start=0.0, buckets=4)
        np.testing.assert_allclose(resampled.in_bytes, run.in_bytes)

    def test_half_bucket_shift_conserves_volume(self):
        run = make_run([10.0, 20.0, 30.0, 40.0], start_time=0.0)
        resampled = resample_run(run, start=0.0005, buckets=3)
        # The interior of the run is fully covered, so interpolated
        # cumulative volume over 3 buckets equals the exact integral.
        assert resampled.in_bytes.sum() == pytest.approx(
            np.interp(0.0035, [0, 0.001, 0.002, 0.003, 0.004], [0, 10, 30, 60, 100])
            - np.interp(0.0005, [0, 0.001, 0.002, 0.003, 0.004], [0, 10, 30, 60, 100])
        )

    def test_resample_beyond_source_rejected(self):
        run = make_run([1.0, 2.0], start_time=0.0)
        with pytest.raises(AnalysisError):
            resample_run(run, start=0.001, buckets=3)

    def test_conn_estimate_interpolated_not_summed(self):
        run = make_run([0, 0, 0, 0], conns=[10, 20, 30, 40])
        resampled = resample_run(run, start=0.0005, buckets=3)
        assert resampled.conn_estimate[0] == pytest.approx(15.0)

    @given(
        offset_us=st.integers(0, 999),
        values=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=4,
            max_size=20,
        ),
    )
    @settings(max_examples=40)
    def test_interior_volume_conserved(self, offset_us, values):
        """Resampling onto a shifted grid conserves cumulative volume
        over the covered interval (within float tolerance)."""
        run = make_run(values, start_time=0.0)
        offset = offset_us * 1e-6
        buckets = len(values) - 1
        resampled = resample_run(run, start=offset, buckets=buckets)
        edges = np.arange(len(values) + 1) * 1e-3
        cumulative = np.concatenate([[0], np.cumsum(values)])
        expected = np.interp(offset + buckets * 1e-3, edges, cumulative) - np.interp(
            offset, edges, cumulative
        )
        assert resampled.in_bytes.sum() == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestAlignRuns:
    def test_aligned_output_uniform(self):
        runs = [
            make_run(np.arange(10, dtype=float), start_time=0.0),
            make_run(np.arange(10, dtype=float), start_time=0.0004),
            make_run(np.arange(10, dtype=float), start_time=0.0007),
        ]
        aligned = align_runs(runs)
        starts = {run.meta.start_time for run in aligned}
        buckets = {run.buckets for run in aligned}
        assert len(starts) == 1
        assert len(buckets) == 1
        # Average trimmed length shrinks by at most the max offset.
        assert aligned[0].buckets == 9

    def test_mixed_intervals_rejected(self):
        runs = [
            make_run([1] * 5),
            make_run([1] * 5, sampling_interval=10e-3),
        ]
        with pytest.raises(AnalysisError):
            align_runs(runs)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            align_runs([])

    def test_sub_bucket_offsets_preserve_burst_alignment(self):
        """A synchronized burst lands in the same aligned bucket even
        when host clocks differ by a fraction of the sampling interval
        (the Section 4.5 property)."""
        burst = np.zeros(20)
        burst[10] = 1e6
        runs = [
            make_run(burst, start_time=0.0),
            make_run(burst, start_time=0.0003),  # clock offset 300us
        ]
        aligned = align_runs(runs)
        peaks = [int(np.argmax(run.in_bytes)) for run in aligned]
        assert abs(peaks[0] - peaks[1]) <= 1


class TestBucketCountFloatError:
    """int() truncation of (end - start) / interval dropped buckets.

    Start times are sums of float intervals, so an exactly-N-bucket
    common window can compute as N - epsilon; both cases below fail on
    the pre-fix code (87 -> 86, and a valid 1-bucket overlap raising).
    """

    def test_exact_window_keeps_final_bucket(self):
        # (0.11 - 0.023) / 0.001 == 86.99999999999999 in binary floats.
        runs = [
            make_run([1.0] * 100, start_time=0.010),
            make_run([1.0] * 100, start_time=0.023),
        ]
        start, end = common_window(runs)
        assert (end - start) / 0.001 < 87  # the float hazard is present
        aligned = align_runs(runs)
        assert all(run.buckets == 87 for run in aligned)

    def test_one_bucket_overlap_is_valid(self):
        # Window (0.010, 0.011): exactly one bucket, but the float ratio
        # computes as 0.9999999999999991 and used to raise.
        runs = [
            make_run([1.0], start_time=0.010),
            make_run([1.0] * 11, start_time=0.0),
        ]
        start, end = common_window(runs)
        assert (end - start) / 0.001 < 1  # the float hazard is present
        aligned = align_runs(runs)
        assert all(run.buckets == 1 for run in aligned)


class TestConnEstimateEdgeClamp:
    """np.interp clamps conn_estimate at the half-bucket edges.

    When a new center falls (within tolerance) outside the old centers,
    the first/last observed estimate is held flat.  Pinned so a future
    refactor does not turn the edges into NaN or extrapolation.
    """

    def test_leading_edge_clamps_to_first_estimate(self):
        run = make_run([0.0] * 4, conns=[10.0, 20.0, 30.0, 40.0], start_time=0.0)
        # A start a hair before the run (inside the resample tolerance)
        # puts the first new center before the first old center.
        resampled = resample_run(run, start=-1e-13, buckets=4)
        assert np.all(np.isfinite(resampled.conn_estimate))
        assert resampled.conn_estimate[0] == 10.0  # clamped, not extrapolated (< 10)

    def test_trailing_edge_clamps_to_last_estimate(self):
        run = make_run([0.0] * 4, conns=[10.0, 20.0, 30.0, 40.0], start_time=0.0)
        # A start a hair after the run start pushes the last new center
        # past the last old center.
        resampled = resample_run(run, start=1e-13, buckets=4)
        assert np.all(np.isfinite(resampled.conn_estimate))
        assert resampled.conn_estimate[-1] == 40.0  # clamped, not extrapolated (> 40)

    def test_interior_still_interpolated(self):
        run = make_run([0.0] * 4, conns=[10.0, 20.0, 30.0, 40.0], start_time=0.0)
        resampled = resample_run(run, start=-1e-13, buckets=4)
        assert resampled.conn_estimate[1] == pytest.approx(20.0)
        assert resampled.conn_estimate[2] == pytest.approx(30.0)
