"""Tests for the demand synthesis model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.errors import SimulationError
from repro.fleet.demand import DemandModel
from repro.workload.region import REGION_A, REGION_B, build_region_workloads
from repro.workload.services import service_by_name
from tests.fleet.demand_reference import burst_profile_reference, generate_reference

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL


@pytest.fixture
def workload(rng):
    return build_region_workloads(REGION_A, racks=4, rng=rng)[0]


class TestDemandModel:
    def test_shapes(self, workload, rng):
        model = DemandModel()
        demand = model.generate(workload, hour=6, buckets=500, rng=rng)
        servers = workload.placement.servers
        assert demand.demand.shape == (500, servers)
        assert demand.connections.shape == (500, servers)
        assert demand.persistence.shape == (servers,)
        assert demand.initial_multiplier.shape == (servers,)

    def test_non_negative(self, workload, rng):
        demand = DemandModel().generate(workload, hour=6, buckets=500, rng=rng)
        assert demand.demand.min() >= 0
        assert demand.connections.min() >= 0

    def test_persistent_services_start_adapted(self, workload, rng):
        demand = DemandModel().generate(workload, hour=6, buckets=100, rng=rng)
        for index, spec in enumerate(workload.placement.services):
            if spec.sender_persistence >= 1.0:
                assert demand.initial_multiplier[index] < 1.0
                assert demand.initial_alpha[index] > 0.0
            else:
                assert demand.initial_multiplier[index] == 1.0
                assert demand.initial_alpha[index] == 0.0

    def test_baseline_never_bursty(self, rng):
        """Baseline-only servers (no active episode) must stay under the
        50% burst threshold."""
        workload = build_region_workloads(REGION_A, racks=4, rng=rng)[0]
        # Force zero active episodes by monkeypatching the rng draw is
        # fragile; instead check quiet servers statistically: with many
        # servers some are inactive, and their columns stay sub-threshold.
        demand = DemandModel().generate(workload, hour=3, buckets=1000, rng=rng)
        utilization = demand.demand / DRAIN
        quiet_columns = utilization.max(axis=0) < 0.5
        assert quiet_columns.any()  # some servers are inactive
        # Quiet columns still carry baseline traffic.
        assert demand.demand[:, quiet_columns].sum() > 0

    def test_invalid_hour_bucket_args(self, workload, rng):
        model = DemandModel()
        with pytest.raises(SimulationError):
            model.generate(workload, hour=6, buckets=0, rng=rng)

    def test_deterministic_given_seed(self, workload):
        a = DemandModel().generate(workload, 6, 200, np.random.default_rng(9))
        b = DemandModel().generate(workload, 6, 200, np.random.default_rng(9))
        np.testing.assert_array_equal(a.demand, b.demand)

    def test_diurnal_load_scales_demand(self, workload):
        model = DemandModel()
        busy_hour = workload.diurnal.busiest_hour()
        quiet_hour = (busy_hour + 12) % 24
        busy_total = np.mean(
            [
                model.generate(workload, busy_hour, 500, np.random.default_rng(s)).demand.sum()
                for s in range(8)
            ]
        )
        quiet_total = np.mean(
            [
                model.generate(workload, quiet_hour, 500, np.random.default_rng(s)).demand.sum()
                for s in range(8)
            ]
        )
        assert busy_total > quiet_total

    def test_connections_rise_inside_bursts(self, workload, rng):
        demand = DemandModel().generate(workload, 6, 1000, rng)
        utilization = demand.demand / DRAIN
        bursty = utilization > 0.5
        if bursty.any() and (~bursty).any():
            inside = demand.connections[bursty].mean()
            outside = demand.connections[~bursty].mean()
            assert inside > outside


def _profiles(model, bursts):
    """Each burst's profile from one batched build."""
    volume, intensity, overshoot = (np.array(column, dtype=np.float64) for column in zip(*bursts))
    values, lengths = model._burst_profiles(volume, intensity, overshoot)
    ends = np.cumsum(lengths)
    return [values[end - length : end] for end, length in zip(ends, lengths)]


def _profile(model, volume, intensity, overshoot):
    return _profiles(model, [(volume, intensity, overshoot)])[0]


class TestBurstProfile:
    def test_volume_conserved(self):
        model = DemandModel()
        profile = _profile(model, volume=5e6, intensity=0.8, overshoot=1.5)
        assert profile.sum() == pytest.approx(5e6)

    def test_overshoot_front_loads(self):
        model = DemandModel()
        profile = _profile(model, volume=20e6, intensity=0.8, overshoot=2.0)
        assert profile[0] > profile[-2]

    def test_no_overshoot_flat_body(self):
        model = DemandModel()
        profile = _profile(model, volume=10e6, intensity=0.8, overshoot=1.0)
        body = profile[:-1]
        assert np.allclose(body, body[0])

    def test_empty_batch(self):
        values, lengths = DemandModel()._burst_profiles(np.zeros(0), np.zeros(0), np.zeros(0))
        assert len(values) == 0 and len(lengths) == 0


class TestBurstProfileClosedForm:
    """The batched builder must equal the historical loop exactly for
    every burst of a batch — same buckets, same floating-point
    remainders, same failure mode."""

    @given(
        bursts=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e9),
                st.floats(min_value=0.05, max_value=8.0),
                st.floats(min_value=0.1, max_value=4.0),
            ),
            min_size=1,
            max_size=12,
        ),
        overshoot_buckets=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200)
    def test_matches_reference_loop(self, bursts, overshoot_buckets):
        model = DemandModel(overshoot_buckets=overshoot_buckets)
        try:
            expected = [burst_profile_reference(model, *burst) for burst in bursts]
        except SimulationError:
            # Profiles needing more than 10,000 buckets fail in both.
            with pytest.raises(SimulationError):
                _profiles(model, bursts)
            return
        for actual, reference in zip(_profiles(model, bursts), expected):
            assert np.array_equal(actual, reference)

    def test_zero_volume_is_empty(self):
        model = DemandModel()
        assert len(_profile(model, 0.0, 0.8, 1.5)) == 0
        assert len(burst_profile_reference(model, 0.0, 0.8, 1.5)) == 0

    def test_zero_volume_inside_a_batch(self):
        model = DemandModel()
        bursts = [(5e6, 0.8, 1.5), (0.0, 0.8, 1.5), (40e6, 0.6, 2.0)]
        actual = _profiles(model, bursts)
        assert len(actual[1]) == 0
        for got, burst in zip(actual, bursts):
            assert np.array_equal(got, burst_profile_reference(model, *burst))

    def test_exact_multiple_of_rate(self):
        """Volume landing exactly on a bucket boundary (no fractional
        remainder) keeps the same bucket count as the loop."""
        model = DemandModel(overshoot_buckets=1)
        rate = 0.5 * model.drain
        for buckets in (3, 7, 9, 10, 30):
            expected = burst_profile_reference(model, buckets * rate, 0.5, 1.0)
            actual = _profile(model, buckets * rate, 0.5, 1.0)
            assert np.array_equal(actual, expected)

    def test_longest_allowed_profile(self):
        """10,000 buckets is the limit in both implementations."""
        model = DemandModel(overshoot_buckets=1)
        rate = 0.5 * model.drain
        expected = burst_profile_reference(model, 10_000 * rate, 0.5, 1.0)
        assert len(expected) == 10_000
        assert np.array_equal(_profile(model, 10_000 * rate, 0.5, 1.0), expected)
        with pytest.raises(SimulationError):
            burst_profile_reference(model, 10_001 * rate, 0.5, 1.0)
        with pytest.raises(SimulationError):
            _profile(model, 10_001 * rate, 0.5, 1.0)

    def test_nonterminating_profile_raises_like_loop(self):
        """A volume the body rate cannot drain in 10,000 buckets raises
        in both implementations."""
        model = DemandModel()
        tiny = 1e-12 * model.drain
        with pytest.raises(SimulationError):
            burst_profile_reference(model, model.drain, tiny, 1.0)
        with pytest.raises(SimulationError):
            _profile(model, model.drain, tiny, 1.0)


class TestGenerateMatchesReference:
    """``generate`` draws each burst's four parameters from one row of
    standard normals and realizes the whole rack's bursts at once; it
    must produce the historical per-burst loop's bytes and leave the
    generator at the same position."""

    WORKLOADS = {
        spec.name: build_region_workloads(spec, racks=6, rng=np.random.default_rng(21))
        for spec in (REGION_A, REGION_B)
    }

    @staticmethod
    def _assert_same(model, workload, hour, buckets, seed):
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        actual = model.generate(workload, hour, buckets, new_rng)
        expected = generate_reference(model, workload, hour, buckets, old_rng)
        for name in ("demand", "connections", "persistence", "initial_multiplier", "initial_alpha"):
            got, want = getattr(actual, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert new_rng.random() == old_rng.random()

    @given(
        region=st.sampled_from(["RegA", "RegB"]),
        rack=st.integers(min_value=0, max_value=5),
        hour=st.integers(min_value=0, max_value=23),
        buckets=st.integers(min_value=1, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_matches_reference(self, region, rack, hour, buckets, seed):
        workload = self.WORKLOADS[region][rack]
        self._assert_same(DemandModel(), workload, hour, buckets, seed)

    @given(
        rack=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        overshoot_buckets=st.integers(min_value=1, max_value=5),
        overshoot_scale=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=25)
    def test_matches_reference_non_default_model(
        self, rack, seed, overshoot_buckets, overshoot_scale
    ):
        model = DemandModel(overshoot_buckets=overshoot_buckets, overshoot_scale=overshoot_scale)
        self._assert_same(model, self.WORKLOADS["RegA"][rack], 7, 1850, seed)

    def test_hours_past_a_day_wrap(self):
        self._assert_same(DemandModel(), self.WORKLOADS["RegA"][0], 31, 300, 5)


class TestSerialization:
    def test_serialize_separates_overlaps(self):
        model = DemandModel()
        spec = service_by_name("ml_trainer")
        starts = np.array([10, 10, 10, 10])
        serialized = model._serialize_starts(starts, spec, buckets=1000)
        assert len(set(serialized.tolist())) == len(serialized)

    def test_serialize_keeps_separated_starts(self):
        model = DemandModel()
        spec = service_by_name("ml_trainer")
        starts = np.array([10, 500, 900])
        serialized = model._serialize_starts(starts, spec, buckets=1000)
        assert serialized.tolist() == [10, 500, 900]

    def test_serialize_drops_starts_past_run(self):
        model = DemandModel()
        spec = service_by_name("ml_trainer")
        starts = np.full(1000, 998)
        serialized = model._serialize_starts(starts, spec, buckets=1000)
        assert len(serialized) < len(starts)

    def test_invalid_sync_fractions_rejected(self):
        with pytest.raises(SimulationError):
            DemandModel(shared_task_sync=0.9, rack_sync=0.2)
        with pytest.raises(SimulationError):
            DemandModel(rack_sync=-0.1)
