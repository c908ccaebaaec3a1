"""Paper claims that connection-count noise can move, on several seeds.

Each claim is an ordering or a range from EXPERIMENTS.md's
paper-vs-measured record, asserted on seeds 1-4 with the same bounds
for every sketch-noise sampler.  12 racks x 2 runs per region is the
smallest scale tried (24 rack-runs per region) at which every claim
holds on every seed under both the exact binomial sampler (kept in
``tests/fleet/sketch_reference.py``) and the moment-matched one.  At
8 x 3, also 24, Figure 19's median ratio on seed 4 rests on three
connection buckets, and one lossy burst more or less in one of them
moves it from 5.6 to 0.0; at 6 x 4 and 10 x 2 a seed fails already
under the exact sampler.
"""

import pytest

from repro.config import FleetConfig
from repro.experiments import (
    ablation_sketch,
    fig08_connections,
    fig19_incast_loss,
    implication_placement,
)
from repro.experiments.context import ExperimentContext

SEEDS = (1, 2, 3, 4)
RACKS, RUNS_PER_RACK = 12, 2


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"seed{seed}")
def ctx(request, tmp_path_factory):
    config = FleetConfig(
        racks_per_region=RACKS, runs_per_rack=RUNS_PER_RACK, seed=request.param
    )
    return ExperimentContext(
        fleet=config, store_dir=str(tmp_path_factory.mktemp("store"))
    )


def test_fig8_more_connections_inside_bursts(ctx):
    assert fig08_connections.run(ctx).metric("median_ratio") > 1.5  # paper 2.7x


def test_fig19_contended_bursts_lose_more(ctx):
    # NaN (so failing) when no pooled non-contended burst lost.
    assert fig19_incast_loss.run(ctx).metric("pooled_contended_to_nc_ratio") > 1.0


def test_burst_risk_ranks_loss_best(ctx):
    metrics = implication_placement.run(ctx).metrics
    assert metrics["spearman_burst_risk"] > metrics["spearman_contention"]
    assert metrics["spearman_burst_risk"] > metrics["spearman_volume"]


def test_fleet_model_mean_tracks_real_sketch():
    # The ablation draws from fixed generators, not the fleet seed.
    assert ablation_sketch.run(None).metric("max_fleet_model_gap") < 0.05
