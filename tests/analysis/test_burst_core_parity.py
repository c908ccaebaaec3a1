"""The whole-run burst core (``run_rows``) must equal the historical
per-server loops exactly: same bursts, same per-server aggregates, same
Python types once its rows are read back into objects (the dataset
digest hashes ``repr``), never ``allclose``."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.analysis.summary import run_rows
from repro.core.run import MillisamplerRun, RunMetadata, SyncRun
from repro.errors import AnalysisError
from tests.analysis.summary_reference import (
    detect_run_bursts,
    detect_run_bursts_reference,
    summarize_run,
    summarize_run_reference,
)

LINE_RATES = (units.SERVER_LINK_RATE, 10e9, 50e9)


def typed(value):
    """Nested projection keeping every leaf's type and ``repr``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((f.name, typed(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return [typed(item) for item in value]
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    return (type(value).__name__, repr(value))


def _mask_row(rng, buckets, density, mean_burst):
    """A bursty-sample mask built from alternating quiet/burst spans."""
    if density == 0.0:
        return np.zeros(buckets, dtype=bool)
    if density == 1.0:
        return np.ones(buckets, dtype=bool)
    mask = np.zeros(buckets, dtype=bool)
    bursting = bool(rng.random() < density)
    position = 0
    while position < buckets:
        mean = mean_burst if bursting else mean_burst * (1 - density) / density
        span = int(rng.geometric(1.0 / max(mean, 1.0)))
        mask[position : position + span] = bursting
        position += span
        bursting = not bursting
    return mask


def random_sync_run(seed, servers, buckets, density, mean_burst, loss, threshold) -> SyncRun:
    rng = np.random.default_rng(seed)
    runs = []
    for index in range(servers):
        line_rate = LINE_RATES[int(rng.integers(len(LINE_RATES)))]
        capacity = line_rate * units.ANALYSIS_INTERVAL
        mask = _mask_row(rng, buckets, density, mean_burst)
        utilization = np.where(
            mask,
            threshold + (1.3 - threshold) * (rng.random(buckets) * 0.999 + 0.001),
            threshold * rng.random(buckets),
        )
        retx = np.where(rng.random(buckets) < loss, rng.lognormal(9.0, 2.0, buckets), 0.0)
        runs.append(
            MillisamplerRun(
                meta=RunMetadata(
                    host=f"h{index}",
                    rack="rack0",
                    region="RegA",
                    task=f"task/{index % 3}",
                    line_rate=line_rate,
                ),
                in_bytes=utilization * capacity,
                out_bytes=rng.random(buckets) * capacity,
                in_retx_bytes=retx,
                out_retx_bytes=np.zeros(buckets),
                in_ecn_bytes=rng.random(buckets),
                conn_estimate=rng.lognormal(2.0, 1.5, buckets),
            )
        )
    return SyncRun(
        rack="rack0",
        region="RegA",
        runs=runs,
        hour=int(rng.integers(24)),
        switch_discard_bytes=float(rng.random()),
        switch_ingress_bytes=float(rng.random()),
        extras={"colocated": bool(rng.random() < 0.5)},
    )


def assert_same_as_reference(sync_run, threshold, lag):
    assert typed(summarize_run(sync_run, threshold, lag)) == typed(
        summarize_run_reference(sync_run, threshold, lag)
    )
    assert typed(detect_run_bursts(sync_run, threshold, lag)) == typed(
        detect_run_bursts_reference(sync_run, threshold, lag)
    )


class TestBurstCoreMatchesReference:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        servers=st.integers(min_value=1, max_value=8),
        buckets=st.integers(min_value=1, max_value=80),
        density=st.sampled_from([0.0, 0.1, 0.4, 0.8, 1.0]),
        mean_burst=st.sampled_from([1.0, 3.0, 12.0]),
        loss=st.sampled_from([0.0, 0.05, 0.4]),
        threshold=st.sampled_from([units.BURST_UTILIZATION_THRESHOLD, 0.2, 0.9]),
        lag=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=150)
    def test_random_runs(self, seed, servers, buckets, density, mean_burst, loss, threshold, lag):
        sync_run = random_sync_run(seed, servers, buckets, density, mean_burst, loss, threshold)
        assert_same_as_reference(sync_run, threshold, lag)

    def test_edges_long_bursts_and_close_lossy_neighbours(self):
        """Bursts at bucket 0 and at the last bucket, a 20-bucket burst,
        and lossy bursts closer together than the loss lag."""
        threshold = units.BURST_UTILIZATION_THRESHOLD
        rows = [
            [True] * 3 + [False] + [True] * 20 + [False] * 2 + [True],
            [False, True, False, True, False, True] + [False] * 19 + [True] * 2,
            [True] * 27,
            [False] * 27,
        ]
        sync_run = random_sync_run(5, len(rows), 27, 0.5, 3.0, 0.0, threshold)
        for run, row in zip(sync_run.runs, rows):
            capacity = run.meta.line_rate * run.meta.sampling_interval
            run.in_bytes[:] = np.where(row, 0.83, 0.17) * capacity + np.arange(27) * 1e-3
            run.in_retx_bytes[::2] = 1.5
        for lag in (0, 1, 2, 3, 9):
            assert_same_as_reference(sync_run, threshold, lag)

    def test_burst_free_run(self):
        sync_run = random_sync_run(3, 4, 50, 0.0, 1.0, 0.3, units.BURST_UTILIZATION_THRESHOLD)
        summary = summarize_run(sync_run)
        assert summary.bursts == [] and not any(stat.bursty for stat in summary.server_stats)
        assert_same_as_reference(sync_run, units.BURST_UTILIZATION_THRESHOLD, 2)

    def test_negative_lag_rejected(self):
        sync_run = random_sync_run(3, 2, 10, 0.4, 3.0, 0.1, units.BURST_UTILIZATION_THRESHOLD)
        with pytest.raises(AnalysisError):
            run_rows(sync_run.stacked(), loss_lag_buckets=-1)
