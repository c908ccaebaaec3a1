"""Laws every fluid batch obeys, whatever the policy or option.

The oracle suite (``test_fluid_oracle.py``) pins the loop's floats to
the historical loop; these laws say what those floats mean, so a model
change that both sides shared would still show.  A hypothesis sweep
over every registered policy and option, on batches that mix live and
light columns, checks all six outputs:

* ``delivered <= drain``, ``dropped >= 0``, ``queue_occupancy >=
  -1e-6`` (a queue can round a hair below zero) and ``delivered_retx
  <= delivered + 1e-6`` bytes (the pro-rata split rounds; the largest
  excess measured is 2.3e-10);
* ECN bytes only where the standing queue ``(q[t-1] + q[t]) / 2`` is
  above the marking threshold;
* bytes out never exceed bytes in, per run: ``sum(delivered) +
  sum(dropped) + sum(final queue) - sum(retransmitted in) <=
  sum(demand)`` to 1e-12 relative (the rest is the senders' backlog;
  the largest excess measured is 7e-16);
* a light column's queue stays at exactly +0.0 and it delivers
  ``demand + 0.0``.

The pool bound — a quadrant's shared occupancy stays within its shared
bytes, to rounding — holds on the real store-build batches, asserted
there.  It does not hold under synthetic overload: the clamp's
proportional reduction stops after three passes, and random batches at
up to 20 drains per bucket end a bucket up to ~8% over the pool under
complete sharing.

Select the deterministic CI profile with HYPOTHESIS_PROFILE=ci.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FleetConfig
from repro.fleet.buffermodel import FLUID_OUTPUTS, FluidBufferModel
from repro.fleet.shards import RegionShardStore
from repro.workload.region import REGION_A, REGION_B
from tests.fleet.test_fluid_oracle import ALL_SPECS, OPTIONS, mixed_batch, model_for


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(
    spec_index=st.integers(0, len(ALL_SPECS) - 1),
    option=st.sampled_from(list(OPTIONS)),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 4),
    buckets=st.integers(1, 60),
    servers=st.integers(1, 8),
    live_share=st.sampled_from([0.0, 0.35, 1.0]),
)
def test_fluid_laws(spec_index, option, seed, runs, buckets, servers, live_share):
    rng = np.random.default_rng(seed)
    model = model_for(ALL_SPECS[spec_index], servers, **OPTIONS[option])
    demand, persistence, initial_m, initial_alpha, lengths, live = mixed_batch(
        rng, model, runs, buckets, live_share
    )
    result = model.run_batch(demand, persistence, initial_m, initial_alpha, lengths=lengths)
    delivered, retx, ecn, dropped, queue, _multiplier = (
        result.whole(name) for name in FLUID_OUTPUTS
    )
    drain = model.drain_per_step

    assert (delivered <= drain).all()
    assert (dropped >= 0.0).all()
    assert (queue >= -1e-6).all()
    assert (retx <= delivered + 1e-6).all()

    previous = np.concatenate((np.zeros((runs, 1, servers)), queue[:, :-1]), axis=1)
    standing = 0.5 * (previous + queue)
    assert not ((ecn != 0.0) & ~(standing > model.buffer_config.ecn_threshold_bytes)).any()

    # Drops re-enter retx_delay_steps buckets later, inside the batch.
    delay = model.retx_delay_steps
    retx_in = dropped[:, : max(buckets - delay, 0)].sum(axis=(1, 2))
    if not model.retransmit_losses:
        retx_in = 0.0
    out = delivered.sum(axis=(1, 2)) + dropped.sum(axis=(1, 2)) + queue[:, -1].sum(axis=1)
    offered = demand.sum(axis=(1, 2))
    assert (out - retx_in <= offered + 1e-12 * np.maximum(offered, 1.0)).all()

    light = ~live
    assert (bits(queue.transpose(0, 2, 1)[light]) == 0).all()
    assert np.array_equal(
        bits(delivered.transpose(0, 2, 1)[light]),
        bits(demand.transpose(0, 2, 1)[light] + 0.0),
    )


@pytest.mark.parametrize("seed", [11, 12])
def test_pool_bound_on_store_build_batches(seed, tmp_path, monkeypatch):
    """Every (run, bucket, quadrant) of both regions' store-build fluid
    batches ends within the quadrant's shared bytes, to rounding."""
    config = FleetConfig(racks_per_region=16, runs_per_rack=2, seed=seed)
    run_batch = FluidBufferModel.run_batch
    checked = []

    def bounded(self, demand, *args, outputs, **kwargs):
        result = run_batch(self, demand, *args, outputs={*outputs, "queue_occupancy"}, **kwargs)
        cfg = self.buffer_config
        shared = np.maximum(result.whole("queue_occupancy") - cfg.dedicated_bytes_per_queue, 0.0)
        pools = np.stack(
            [shared[..., self.quadrant == q].sum(axis=-1) for q in range(self.num_quadrants)]
        )
        # To rounding: these sums re-add the queues in another order.
        assert (pools <= cfg.shared_bytes * (1.0 + 1e-12)).all(), pools.max() / cfg.shared_bytes
        checked.append(pools.size)
        return result

    monkeypatch.setattr(FluidBufferModel, "run_batch", bounded)
    for spec in (REGION_A, REGION_B):
        RegionShardStore(root=str(tmp_path), spec=spec, config=config).build(jobs=1)
    assert len(checked) == 4 and sum(checked) > 400_000
