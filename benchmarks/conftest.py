"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure.  The synthetic
datasets are built once into the shard store (the default root) and
held in the experiment context — so the first benchmark session pays
generation and every later session reopens the built store.
Individual benchmarks therefore measure the experiment's analysis
cost; dedicated benchmarks cover dataset generation and the fluid
model themselves.

Run everything with::

    pytest benchmarks/ --benchmark-only

Set ``MILLISAMPLER_STORE_DIR`` to redirect the store, or delete the
store directory to re-measure cold generation.
"""

import pytest

from repro.config import FleetConfig
from repro.experiments.context import ExperimentContext
from repro.fleet.shards import default_store_dir


@pytest.fixture(scope="session")
def bench_ctx() -> ExperimentContext:
    """Benchmark-scale context: small but statistically meaningful."""
    ctx = ExperimentContext(
        fleet=FleetConfig(racks_per_region=20, runs_per_rack=4, seed=11),
        store_dir=default_store_dir(),
    )
    # Build (or reopen) both region stores so experiment benchmarks
    # measure analysis, not generation.
    ctx.dataset("RegA")
    ctx.dataset("RegB")
    return ctx
