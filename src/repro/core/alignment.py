"""Aligning concurrent Millisampler runs onto a uniform time base.

Section 4.4: "each [run] may start at a slightly different time.  Each
start time is recorded, so to combine these runs into a single one with
uniform timestamps, we use linear interpolation to construct data
points for those series that are not already aligned."

Section 5: "Since the collection at each server may start and end at
slightly different times, we trim data to only consider the common time
region.  After selecting only the overlapping interval, the average
length of a SyncMillisampler run is 1.85 seconds."
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError
from .run import MillisamplerRun, RunMetadata


def common_window(runs: list[MillisamplerRun]) -> tuple[float, float]:
    """The time interval covered by every run in the list."""
    if not runs:
        raise AnalysisError("no runs to align")
    start = max(run.meta.start_time for run in runs)
    end = min(run.end_time for run in runs)
    if end <= start:
        raise AnalysisError("runs share no common time window")
    return start, end


def resample_run(run: MillisamplerRun, start: float, buckets: int) -> MillisamplerRun:
    """Resample a run onto a uniform grid beginning at ``start``.

    Byte counters are *rates over a bucket*, so interpolation operates on
    the cumulative series and differences back — this conserves total
    volume, which matters because the analysis sums byte counts.  The
    connection estimate is a level signal and is interpolated directly.
    """
    interval = run.meta.sampling_interval
    if buckets <= 0:
        raise AnalysisError("resample bucket count must be positive")

    old_edges = run.meta.start_time + np.arange(run.buckets + 1) * interval
    new_edges = start + np.arange(buckets + 1) * interval

    # Tolerance scales with the bucket width: the bucket-count rounding in
    # align_runs can place the last new edge up to ~1e-9 buckets past the
    # source run's final edge.
    tolerance = 1e-9 * interval
    if new_edges[0] < old_edges[0] - tolerance or new_edges[-1] > old_edges[-1] + tolerance:
        raise AnalysisError("resample window extends beyond the source run")

    def resample_counts(series: np.ndarray) -> np.ndarray:
        cumulative = np.concatenate([[0.0], np.cumsum(series, dtype=np.float64)])
        at_edges = np.interp(new_edges, old_edges, cumulative)
        return np.diff(at_edges)

    old_centers = old_edges[:-1] + interval / 2
    new_centers = new_edges[:-1] + interval / 2
    # A new center can fall (within float tolerance) outside the span of
    # the old centers at either end of the run.  np.interp *clamps* there,
    # holding the first/last observed estimate flat — the right behavior
    # for a level signal.  Deliberate: a refactor must not turn these edge
    # values into NaN or linear extrapolation (pinned by tests).
    conn = np.interp(new_centers, old_centers, run.conn_estimate)

    meta = RunMetadata(
        host=run.meta.host,
        rack=run.meta.rack,
        region=run.meta.region,
        task=run.meta.task,
        start_time=start,
        sampling_interval=interval,
        line_rate=run.meta.line_rate,
    )
    return MillisamplerRun(
        meta=meta,
        in_bytes=resample_counts(run.in_bytes),
        out_bytes=resample_counts(run.out_bytes),
        in_retx_bytes=resample_counts(run.in_retx_bytes),
        out_retx_bytes=resample_counts(run.out_retx_bytes),
        in_ecn_bytes=resample_counts(run.in_ecn_bytes),
        conn_estimate=conn,
    )


def align_runs(runs: list[MillisamplerRun]) -> list[MillisamplerRun]:
    """Full SyncMillisampler alignment: trim to the common window and
    linearly interpolate every series onto one uniform time base."""
    if not runs:
        raise AnalysisError("no runs to align")
    intervals = {run.meta.sampling_interval for run in runs}
    if len(intervals) != 1:
        raise AnalysisError("cannot align runs with different sampling intervals")
    interval = intervals.pop()

    start, end = common_window(runs)
    # Start times are sums of float intervals, so (end - start) / interval
    # can land just under a whole bucket count (e.g. 86.99999999999999 for
    # an exactly-87-bucket window); plain int() truncation would then drop
    # the final bucket, or reject a valid one-bucket overlap outright.
    buckets = int(np.floor((end - start) / interval + 1e-9))
    if buckets <= 0:
        raise AnalysisError("common window shorter than one bucket")
    return [resample_run(run, start, buckets) for run in runs]
