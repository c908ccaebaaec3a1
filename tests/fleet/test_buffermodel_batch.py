"""Batched fluid loop: runs in a batch never interact.

``run_batch`` is the only fluid time loop (``run`` is a batch of one),
so its contract is batch-invariance: a batch of N runs must be
bit-identical to N one-run batches, for every sharing policy, for
ragged run lengths, and for default, per-run and broadcast initial
state.  Batch size is then an execution detail that never shapes data.
"""

import numpy as np
import pytest

from repro import units
from repro.errors import SimulationError
from repro.fleet.buffermodel import FluidBufferModel
from repro.fleet.policies import (
    SharingPolicy,
    build_policy,
    registered_policy_specs,
)

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL

# Every registered policy, at default parameters — a policy added to the
# registry is automatically held to the batch-invariance contract.
ALL_POLICIES = [
    build_policy(spec, queues_per_quadrant=2) for spec in registered_policy_specs()
]


def make_batch(rng, runs=5, buckets=120, servers=6):
    """A batch of bursty demands with per-run persistence/initial state."""
    demand = rng.uniform(0, 0.4 * DRAIN, size=(runs, buckets, servers))
    # Synchronized slams in random windows so drops/ECN/retx all engage.
    for run in range(runs):
        start = int(rng.integers(0, buckets - 12))
        demand[run, start : start + 8, :] += rng.uniform(1.5, 6.0) * DRAIN
    persistence = rng.uniform(0, 1, size=(runs, servers))
    multiplier = rng.uniform(0.3, 1.0, size=(runs, servers))
    alpha = rng.uniform(0, 0.8, size=(runs, servers))
    return demand, persistence, multiplier, alpha


def one_run_batch(model, demand, persistence, **initial_state):
    """``demand``/``persistence`` for one run, as a batch of its own."""
    return model.run_batch(demand[None], persistence, **initial_state).per_run(0)


def assert_result_equal(alone, batched, label=""):
    for name in (
        "delivered",
        "delivered_retx",
        "ecn_marked",
        "dropped",
        "queue_occupancy",
        "rate_multiplier",
    ):
        assert np.array_equal(getattr(alone, name), getattr(batched, name)), (
            f"{label}: {name} diverged between a one-run batch and a shared batch"
        )


class TestBatchEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: type(p).__name__)
    def test_batch_matches_stacked_serial_runs(self, policy, rng):
        model = FluidBufferModel(servers=6, policy=policy)
        demand, persistence, multiplier, alpha = make_batch(rng)
        batch = model.run_batch(
            demand, persistence, initial_multiplier=multiplier, initial_alpha=alpha
        )
        for run in range(demand.shape[0]):
            alone = one_run_batch(
                model,
                demand[run],
                persistence[run],
                initial_multiplier=multiplier[run],
                initial_alpha=alpha[run],
            )
            assert_result_equal(alone, batch.per_run(run), type(policy).__name__)

    def test_ragged_lengths_match_serial(self, rng):
        """Padding a short run with zero demand must not change it."""
        model = FluidBufferModel(servers=4)
        demand, persistence, multiplier, alpha = make_batch(rng, runs=4, servers=4)
        lengths = np.array([120, 37, 85, 1])
        padded = demand.copy()
        for run, length in enumerate(lengths):
            padded[run, length:, :] = 0.0
        batch = model.run_batch(
            padded,
            persistence,
            initial_multiplier=multiplier,
            initial_alpha=alpha,
            lengths=lengths,
        )
        for run, length in enumerate(lengths):
            alone = one_run_batch(
                model,
                demand[run, :length],
                persistence[run],
                initial_multiplier=multiplier[run],
                initial_alpha=alpha[run],
            )
            trimmed = batch.per_run(run)
            assert trimmed.delivered.shape[0] == length
            assert_result_equal(alone, trimmed, f"run {run} len {length}")

    def test_default_initial_state_matches_serial(self, rng):
        model = FluidBufferModel(servers=3)
        demand = rng.uniform(0, 1.2 * DRAIN, size=(3, 60, 3))
        persistence = rng.uniform(0, 1, size=(3, 3))
        batch = model.run_batch(demand, persistence)
        for run in range(3):
            alone = one_run_batch(model, demand[run], persistence[run])
            assert_result_equal(alone, batch.per_run(run))

    def test_shared_initial_state_broadcasts(self, rng):
        """A (servers,) initial state applies identically to every run."""
        model = FluidBufferModel(servers=3)
        demand = rng.uniform(0, 1.1 * DRAIN, size=(2, 40, 3))
        persistence = rng.uniform(0, 1, size=(2, 3))
        multiplier = rng.uniform(0.4, 1.0, size=3)
        batch = model.run_batch(demand, persistence, initial_multiplier=multiplier)
        for run in range(2):
            alone = one_run_batch(
                model, demand[run], persistence[run], initial_multiplier=multiplier
            )
            assert_result_equal(alone, batch.per_run(run))

    def test_one_vector_policy_runs_in_the_loop(self, rng):
        """A policy whose ``limits`` only handles one vector of queues
        (``free[quadrant]``, no leading runs axis) runs in the loop,
        which hands it the whole batch as one vector keyed by pool bin,
        and a batch still matches its runs alone."""

        class LoopedThreshold(SharingPolicy):
            name = "looped-dt"

            def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active):
                free = np.maximum(shared_total - pool_used, 0.0)
                return 0.5 * free[quadrant]

        model = FluidBufferModel(servers=4, policy=LoopedThreshold())
        demand, persistence, multiplier, alpha = make_batch(rng, runs=3, servers=4)
        batch = model.run_batch(
            demand, persistence, initial_multiplier=multiplier, initial_alpha=alpha
        )
        for run in range(3):
            alone = one_run_batch(
                model,
                demand[run],
                persistence[run],
                initial_multiplier=multiplier[run],
                initial_alpha=alpha[run],
            )
            assert_result_equal(alone, batch.per_run(run), "one-vector policy")


class TestBatchValidation:
    def test_demand_must_be_3d(self):
        model = FluidBufferModel(servers=2)
        with pytest.raises(SimulationError):
            model.run_batch(np.zeros((10, 2)), np.zeros((1, 2)))

    def test_negative_demand_rejected(self):
        model = FluidBufferModel(servers=2)
        demand = np.zeros((1, 10, 2))
        demand[0, 3, 1] = -1.0
        with pytest.raises(SimulationError):
            model.run_batch(demand, np.zeros((1, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_demand_rejected(self, value):
        """NaN passes a ``demand < 0`` check and would poison every
        output; inf would too.  Both entry points refuse them."""
        model = FluidBufferModel(servers=2)
        demand = np.zeros((2, 10, 2))
        demand[1, 7, 0] = value
        with pytest.raises(SimulationError, match="finite and non-negative"):
            model.run_batch(demand, np.zeros((2, 2)))
        with pytest.raises(SimulationError, match="finite and non-negative"):
            model.run(demand[1], np.zeros(2))

    def test_unknown_output_rejected(self):
        model = FluidBufferModel(servers=2)
        with pytest.raises(SimulationError, match="unknown fluid outputs"):
            model.run_batch(np.zeros((1, 10, 2)), np.zeros(2), outputs=("delivered", "drops"))

    @pytest.mark.parametrize("omitted", ["delivered", "delivered_retx", "dropped"])
    def test_output_set_without_a_core_output_rejected(self, omitted):
        """Every step computes the core three, so each output set names them."""
        model = FluidBufferModel(servers=2)
        outputs = {"delivered", "delivered_retx", "dropped", "ecn_mask"} - {omitted}
        with pytest.raises(SimulationError, match="must include"):
            model.run_batch(np.zeros((1, 10, 2)), np.zeros(2), outputs=outputs)

    def test_server_mismatch_rejected(self):
        model = FluidBufferModel(servers=3)
        with pytest.raises(SimulationError):
            model.run_batch(np.zeros((1, 10, 2)), np.zeros((1, 2)))

    def test_bad_lengths_rejected(self):
        model = FluidBufferModel(servers=2)
        demand = np.zeros((2, 10, 2))
        persistence = np.zeros((2, 2))
        with pytest.raises(SimulationError):
            model.run_batch(demand, persistence, lengths=np.array([10, 0]))
        with pytest.raises(SimulationError):
            model.run_batch(demand, persistence, lengths=np.array([10, 11]))

    def test_per_run_out_of_range(self, rng):
        model = FluidBufferModel(servers=2)
        batch = model.run_batch(
            rng.uniform(0, DRAIN, size=(2, 10, 2)), np.zeros((2, 2))
        )
        assert batch.runs == 2
        with pytest.raises(IndexError):
            batch.per_run(2)
