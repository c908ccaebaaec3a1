"""Tests for units, conversions, and configuration validation."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.config import BufferConfig, FleetConfig, RackConfig, SamplerConfig
from repro.errors import ConfigError


class TestUnits:
    def test_time_conversions(self):
        assert units.ms(1) == 1e-3
        assert units.us(100) == pytest.approx(100e-6)
        assert units.seconds_to_ms(0.002) == pytest.approx(2.0)
        assert units.DAY == 86400

    def test_data_conversions(self):
        assert units.kb(1) == 1024
        assert units.mb(1) == 1024 * 1024

    def test_rate_conversions(self):
        assert units.gbps(8) == 1e9  # 8 Gb/s = 1 GB/s
        assert units.mbps(8) == 1e6
        assert units.bytes_per_ms(units.gbps(12.5)) == pytest.approx(1_562_500)

    def test_utilization(self):
        line = units.gbps(12.5)
        assert units.utilization(line * 1e-3, 1e-3, line) == pytest.approx(1.0)
        assert units.utilization(0, 1e-3, line) == 0.0

    def test_utilization_validation(self):
        with pytest.raises(ValueError):
            units.utilization(1, 0, 1)
        with pytest.raises(ValueError):
            units.utilization(1, 1, 0)

    def test_paper_constants(self):
        """Section 3's rack profile is encoded exactly."""
        assert units.SERVER_LINK_RATE == units.gbps(12.5)
        assert units.TOR_BUFFER_BYTES == units.mb(16)
        assert units.QUADRANT_BYTES == units.mb(4)
        assert units.SHARED_QUADRANT_BYTES == units.mb(3.6)
        assert units.DEFAULT_ALPHA == 1.0
        assert units.ECN_THRESHOLD_BYTES == units.kb(120)
        assert units.MILLISAMPLER_BUCKETS == 2000
        assert units.BURST_UTILIZATION_THRESHOLD == 0.5
        assert units.SERVERS_PER_RACK == 92


class TestBufferConfig:
    def test_defaults_match_paper(self):
        config = BufferConfig()
        assert config.shared_bytes == units.SHARED_QUADRANT_BYTES
        assert config.alpha == 1.0
        # Dedicated + shared = one 4 MB quadrant.
        assert config.dedicated_bytes_per_queue + config.shared_bytes == pytest.approx(
            units.QUADRANT_BYTES
        )

    def test_saturated_limit_formula(self):
        config = BufferConfig(alpha=1.0)
        assert config.saturated_queue_limit(1) == pytest.approx(config.shared_bytes / 2)
        assert config.saturated_queue_limit(2) == pytest.approx(config.shared_bytes / 3)

    def test_zero_queues_full_alpha_share(self):
        config = BufferConfig(alpha=0.5)
        assert config.saturated_queue_limit(0) == 0.5 * config.shared_bytes

    def test_share_fraction_decreasing(self):
        config = BufferConfig()
        shares = [config.queue_share_fraction(s) for s in range(1, 20)]
        assert shares == sorted(shares, reverse=True)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BufferConfig(shared_bytes=0)
        with pytest.raises(ConfigError):
            BufferConfig(alpha=0)
        with pytest.raises(ConfigError):
            BufferConfig(dedicated_bytes_per_queue=-1)
        config = BufferConfig()
        with pytest.raises(ConfigError):
            config.saturated_queue_limit(-1)

    @given(alpha=st.floats(0.1, 8.0), queues=st.integers(1, 50))
    def test_fixed_point_identity(self, alpha, queues):
        """T = alpha*(B - S*T) must hold at the saturated limit."""
        config = BufferConfig(alpha=alpha)
        limit = config.saturated_queue_limit(queues)
        assert limit == pytest.approx(
            alpha * (config.shared_bytes - queues * limit), rel=1e-9
        )


class TestOtherConfigs:
    def test_rack_defaults(self):
        rack = RackConfig()
        assert rack.servers == 92
        assert rack.server_link_rate == units.gbps(12.5)

    def test_rack_validation(self):
        with pytest.raises(ConfigError):
            RackConfig(servers=0)
        with pytest.raises(ConfigError):
            RackConfig(rtt=0)

    def test_sampler_duration(self):
        config = SamplerConfig(sampling_interval=1e-3, buckets=2000)
        assert config.duration == pytest.approx(2.0)

    def test_sampler_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(buckets=0)
        with pytest.raises(ConfigError):
            SamplerConfig(sampling_interval=0)

    def test_fleet_validation(self):
        # Zero racks/runs are valid degenerate scales (an empty
        # region-day); only negatives are rejected.
        assert FleetConfig(racks_per_region=0).racks_per_region == 0
        assert FleetConfig(runs_per_rack=0).runs_per_rack == 0
        with pytest.raises(ConfigError):
            FleetConfig(racks_per_region=-1)
        with pytest.raises(ConfigError):
            FleetConfig(runs_per_rack=-1)
        with pytest.raises(ConfigError):
            FleetConfig(hours=25)

    def test_fleet_seed_domain(self):
        """Seeds s and s + 2**63 would share a stream tree under two
        dataset keys: only [0, 2**63) is accepted."""
        assert FleetConfig(seed=0).seed == 0
        assert FleetConfig(seed=2**63 - 1).seed == 2**63 - 1
        for seed in (-1, 2**63, 2**64):
            with pytest.raises(ConfigError, match="seed must be in"):
                FleetConfig(seed=seed)
