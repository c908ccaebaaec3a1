"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro import units
from repro.core.run import MillisamplerRun, RunMetadata, SyncRun
from repro.experiments.context import ExperimentContext


# Hypothesis profiles: "dev" (default) explores freely; "ci" is fully
# deterministic (derandomize replays the same minimal example set every
# run) and bounded so the property suite stays fast in CI.  Select with
# HYPOTHESIS_PROFILE=ci.
hypothesis_settings.register_profile("dev", deadline=None)
hypothesis_settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True, print_blob=True
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def make_run(
    in_bytes,
    host: str = "h0",
    start_time: float = 0.0,
    sampling_interval: float = units.ANALYSIS_INTERVAL,
    line_rate: float = units.SERVER_LINK_RATE,
    retx=None,
    ecn=None,
    conns=None,
    task: str = "web/1",
) -> MillisamplerRun:
    """Build a run from an ingress byte series with optional extras."""
    series = np.asarray(in_bytes, dtype=np.float64)
    buckets = len(series)
    zeros = np.zeros(buckets)
    return MillisamplerRun(
        meta=RunMetadata(
            host=host,
            rack="rack0",
            region="RegA",
            task=task,
            start_time=start_time,
            sampling_interval=sampling_interval,
            line_rate=line_rate,
        ),
        in_bytes=series,
        out_bytes=zeros.copy(),
        in_retx_bytes=np.asarray(retx, dtype=np.float64) if retx is not None else zeros.copy(),
        out_retx_bytes=zeros.copy(),
        in_ecn_bytes=np.asarray(ecn, dtype=np.float64) if ecn is not None else zeros.copy(),
        conn_estimate=np.asarray(conns, dtype=np.float64) if conns is not None else zeros.copy(),
    )


def make_sync_run(rows, **kwargs) -> SyncRun:
    """Build a SyncRun from a list of per-server ingress series."""
    runs = [make_run(row, host=f"h{i}") for i, row in enumerate(rows)]
    defaults = dict(rack="rack0", region="RegA", runs=runs)
    defaults.update(kwargs)
    return SyncRun(**defaults)


def metrics_digest(metrics: dict) -> str:
    """sha256 over every ``name=repr(value);`` pair, in name order."""
    digest = hashlib.sha256()
    for name, value in sorted(metrics.items()):
        digest.update(f"{name}={value!r};".encode())
    return digest.hexdigest()


#: Bytes that fill one 1 ms bucket at exactly line rate.
FULL_BUCKET = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL
#: A clearly bursty bucket (80% utilization).
BURSTY = 0.8 * FULL_BUCKET
#: A clearly quiet bucket (10% utilization).
QUIET = 0.1 * FULL_BUCKET


@pytest.fixture(scope="session")
def small_ctx() -> ExperimentContext:
    """One small shared dataset for experiment tests (generated once).

    28 racks x 6 runs per region is the smallest scale at which the
    paper's distributional claims (bimodality, inversion, diurnal
    trends) are statistically stable across seeds.
    """
    return ExperimentContext.small(racks=28, runs_per_rack=6, seed=5)
