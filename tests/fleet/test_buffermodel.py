"""Tests for the fluid dynamic-threshold buffer model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.errors import SimulationError
from repro.fleet.buffermodel import FluidBufferModel

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL


def make_model(servers=4, **kwargs) -> FluidBufferModel:
    return FluidBufferModel(servers=servers, **kwargs)


def fresh(servers):
    return np.full(servers, 0.05)


class TestBasicFlow:
    def test_sub_line_rate_traffic_passes_untouched(self):
        model = make_model(servers=2)
        demand = np.full((50, 2), 0.3 * DRAIN)
        result = model.run(demand, fresh(2))
        np.testing.assert_allclose(result.delivered, demand)
        assert result.total_dropped == 0
        assert result.queue_occupancy.max() == 0

    def test_delivery_capped_at_line_rate(self):
        model = make_model(servers=1)
        demand = np.zeros((10, 1))
        demand[0, 0] = 3 * DRAIN
        result = model.run(demand, fresh(1))
        assert result.delivered.max() <= DRAIN + 1e-6

    def test_volume_conservation_without_drops(self):
        """Everything offered is eventually delivered when nothing is
        dropped (queues drain after demand stops)."""
        model = make_model(servers=3)
        demand = np.zeros((100, 3))
        demand[10:20, :] = 1.4 * DRAIN  # burst above line rate, below DT
        result = model.run(demand, fresh(3))
        if result.total_dropped == 0:
            assert result.total_delivered == pytest.approx(demand.sum(), rel=1e-9)

    def test_dropped_bytes_are_retransmitted(self):
        """Drops re-enter as retransmissions and eventually deliver."""
        model = make_model(servers=8)
        demand = np.zeros((300, 8))
        demand[5:9, :] = 6 * DRAIN  # synchronized slam, forces drops
        result = model.run(demand, fresh(8))
        assert result.total_dropped > 0
        assert result.delivered_retx.sum() > 0
        # Conservation: delivered fresh bytes == demand (all retx cycles
        # back), within the run if it is long enough to drain.
        assert result.total_delivered == pytest.approx(demand.sum(), rel=1e-6)

    def test_retx_arrive_after_loss_bucket(self):
        model = make_model(servers=8)
        demand = np.zeros((50, 8))
        demand[5, :] = 8 * DRAIN
        result = model.run(demand, fresh(8))
        first_drop = int(np.argmax(result.dropped.sum(axis=1) > 0))
        first_retx = int(np.argmax(result.delivered_retx.sum(axis=1) > 0))
        assert first_retx > first_drop


class TestDynamicThreshold:
    def test_contention_shrinks_headroom(self):
        """The same burst survives alone but loses when neighbors fill
        the shared pool — the paper's core buffer mechanism."""
        def run_with_competitors(active: int) -> float:
            model = make_model(servers=8)
            demand = np.zeros((60, 8))
            demand[5:8, 0] = 3.0 * DRAIN  # the victim burst
            for other in range(1, active + 1):
                demand[4:9, other] = 3.0 * DRAIN
            result = model.run(demand, fresh(8))
            return float(result.dropped[:, 0].sum())

        alone = run_with_competitors(0)
        crowded = run_with_competitors(6)
        assert crowded > alone

    def test_queue_occupancy_bounded_by_pool(self):
        model = make_model(servers=4, num_quadrants=1)
        config = model.buffer_config
        demand = np.full((100, 4), 5 * DRAIN)
        result = model.run(demand, fresh(4))
        pool_limit = config.shared_bytes + 4 * config.dedicated_bytes_per_queue
        total_occupancy = result.queue_occupancy.sum(axis=1)
        assert total_occupancy.max() <= pool_limit * 1.01

    def test_ecn_marks_when_queue_exceeds_threshold(self):
        model = make_model(servers=2)
        demand = np.zeros((30, 2))
        demand[2:10, 0] = 1.5 * DRAIN  # builds ~780KB queue
        result = model.run(demand, fresh(2))
        assert result.ecn_marked.sum() > 0

    def test_no_marks_below_threshold(self):
        model = make_model(servers=2)
        demand = np.full((30, 2), 0.9 * DRAIN)  # never queues
        result = model.run(demand, fresh(2))
        assert result.ecn_marked.sum() == 0


class TestSourceAdaptation:
    def test_adapted_senders_throttle_and_avoid_loss(self):
        """Persistent (adapted) senders offered the same overload lose
        far less than fresh senders — the Section 8.1 inversion."""
        servers = 8
        demand = np.zeros((400, servers))
        for start in range(20, 380, 40):
            demand[start : start + 4, :] = 2.5 * DRAIN

        fresh_model = make_model(servers=servers)
        fresh_result = fresh_model.run(demand, np.full(servers, 0.05))

        adapted_model = make_model(servers=servers)
        adapted_result = adapted_model.run(
            demand,
            np.full(servers, 30.0),
            initial_multiplier=np.full(servers, 0.15),
            initial_alpha=np.full(servers, 0.5),
        )
        assert adapted_result.total_dropped < 0.5 * fresh_result.total_dropped

    def test_fresh_senders_reset_to_full_window(self):
        model = make_model(servers=1)
        demand = np.zeros((200, 1))
        demand[5:10, 0] = 4 * DRAIN  # first burst: drops, m collapses
        demand[150:155, 0] = 4 * DRAIN  # second burst after a long gap
        result = model.run(demand, np.full(1, 0.05))
        # After the 140 ms quiet gap (>> 50 ms persistence) the senders
        # are fresh: the second burst slams in at a full window and gets
        # dropped again, unlike an adapted pool which would pace it.
        assert result.rate_multiplier[140, 0] < 0.9  # still throttled pre-gap-end
        assert result.dropped[150:156, 0].sum() > 0

    def test_persistent_senders_stay_adapted_across_gaps(self):
        model = make_model(servers=1)
        demand = np.zeros((200, 1))
        demand[5:10, 0] = 4 * DRAIN
        demand[150:155, 0] = 4 * DRAIN
        result = model.run(demand, np.full(1, 30.0))
        m_after_first = result.rate_multiplier[20, 0]
        # Just before the second burst the multiplier is still near its
        # post-adaptation level — no reset to 1.0 occurred.
        assert result.rate_multiplier[149, 0] <= m_after_first + 0.15
        assert result.rate_multiplier[149, 0] < 0.5

    def test_multiplier_bounds(self):
        model = make_model(servers=4)
        demand = np.abs(np.random.default_rng(0).normal(0, 2 * DRAIN, (300, 4)))
        result = model.run(demand, fresh(4))
        assert result.rate_multiplier.min() >= 0.05
        assert result.rate_multiplier.max() <= 1.0


class TestValidation:
    def test_bad_demand_shape_rejected(self):
        model = make_model(servers=2)
        with pytest.raises(SimulationError):
            model.run(np.zeros((10, 3)), fresh(2))
        with pytest.raises(SimulationError):
            model.run(np.zeros(10), fresh(2))

    def test_negative_demand_rejected(self):
        model = make_model(servers=1)
        with pytest.raises(SimulationError):
            model.run(np.full((5, 1), -1.0), fresh(1))

    def test_persistence_shape_rejected(self):
        model = make_model(servers=2)
        with pytest.raises(SimulationError):
            model.run(np.zeros((5, 2)), fresh(3))

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            FluidBufferModel(servers=0)

    def test_zero_bucket_run_is_empty(self):
        """A run with no buckets runs no loop and returns every output
        as an empty ``(0, servers)`` array."""
        result = make_model(servers=3).run(np.zeros((0, 3)), fresh(3))
        for name in ("delivered", "delivered_retx", "ecn_marked", "dropped",
                     "queue_occupancy", "rate_multiplier"):
            assert getattr(result, name).shape == (0, 3), name

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_conservation_invariant(self, seed):
        """delivered + dropped-not-yet-retransmitted + queued + backlog
        accounts for all offered bytes: nothing is created or lost."""
        rng = np.random.default_rng(seed)
        servers = 4
        model = make_model(servers=servers)
        demand = rng.exponential(0.4 * DRAIN, (120, servers))
        demand[rng.random((120, servers)) < 0.05] = 3 * DRAIN
        result = model.run(demand, fresh(servers))
        # Delivered can never exceed what was offered.
        assert result.total_delivered <= demand.sum() + 1e-6
        # All series non-negative.
        for series in (result.delivered, result.dropped, result.ecn_marked,
                       result.queue_occupancy, result.delivered_retx):
            assert series.min() >= -1e-9
        # Retx delivered never exceeds what was dropped.
        assert result.delivered_retx.sum() <= result.dropped.sum() + 1e-6
