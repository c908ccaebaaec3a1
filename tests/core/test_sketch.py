"""Tests for the 128-bit connection-counting sketch."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.millisampler import Direction, Millisampler, PacketObservation
from repro.core.run import RunMetadata
from repro.core.sketch import (
    SATURATION_ESTIMATE,
    SKETCH_BITS,
    FlowSketch,
    hash_flow_key,
    linear_counting_estimates,
)
from repro.errors import SamplerError


def expected_bits_set(flows: int) -> float:
    """Expected number of set bits after ``flows`` distinct insertions:
    the sketch's occupancy model ``m * (1 - (1 - 1/m)^n)``."""
    if flows < 0:
        raise SamplerError("flow count cannot be negative")
    return SKETCH_BITS * (1.0 - (1.0 - 1.0 / SKETCH_BITS) ** flows)


class TestHashing:
    def test_hash_is_deterministic(self):
        assert hash_flow_key(("a", "b", 1, 2, "tcp")) == hash_flow_key(
            ("a", "b", 1, 2, "tcp")
        )

    def test_hash_in_range(self):
        for key in ["flow1", b"flow2", 12345, ("x", 1)]:
            assert 0 <= hash_flow_key(key) < SKETCH_BITS

    def test_distinct_keys_spread(self):
        bits = {hash_flow_key(f"flow-{i}") for i in range(500)}
        # 500 keys into 128 bits should touch most of the bitmap.
        assert len(bits) > 100

    def test_unhashable_type_rejected(self):
        with pytest.raises(SamplerError):
            hash_flow_key(3.14)

    def test_memoized_scalar_path_stays_correct(self):
        """Repeated lookups (LRU hits) return the same bit as a cold
        hash, and unhashable-but-reprable keys still fall through."""
        key = ("10.0.0.1", "10.0.0.2", 443, 55000, "tcp")
        cold = hash_flow_key(key)
        assert all(hash_flow_key(key) == cold for _ in range(5))
        weird = (["not", "hashable"],)
        assert 0 <= hash_flow_key(weird) < SKETCH_BITS
        assert hash_flow_key(weird) == hash_flow_key((["not", "hashable"],))


class TestFlowSketch:
    def test_empty_sketch_estimates_zero(self):
        assert FlowSketch().estimate() == 0.0

    def test_single_flow_estimates_near_one(self):
        sketch = FlowSketch()
        sketch.observe("only-flow")
        assert 0.9 < sketch.estimate() < 1.1

    def test_duplicate_observations_do_not_inflate(self):
        sketch = FlowSketch()
        for _ in range(1000):
            sketch.observe("same-flow")
        assert sketch.bits_set == 1
        assert sketch.estimate() < 1.1

    def test_precise_up_to_a_dozen_flows(self):
        """Section 4.2: 'precise up to a dozen connections'."""
        sketch = FlowSketch()
        for i in range(12):
            sketch.observe(f"flow-{i}")
        assert abs(sketch.estimate() - 12) < 3

    def test_saturates_around_500(self):
        """Section 4.2: 'saturates at around 500 connections'."""
        sketch = FlowSketch()
        for i in range(5000):
            sketch.observe(f"flow-{i}")
        assert sketch.estimate() == SATURATION_ESTIMATE
        assert 400 < SATURATION_ESTIMATE < 700

    def test_invalid_bitmap_rejected(self):
        with pytest.raises(SamplerError):
            FlowSketch(1 << SKETCH_BITS)
        with pytest.raises(SamplerError):
            FlowSketch(-1)

    @given(st.sets(st.integers(0, 10_000), min_size=0, max_size=300))
    @settings(max_examples=50)
    def test_estimate_monotone_in_bits(self, flows):
        """More distinct flows never *decreases* the bit count, and the
        estimate grows with occupancy."""
        sketch = FlowSketch()
        previous_bits = 0
        for flow in sorted(flows):
            sketch.observe(flow)
            assert sketch.bits_set >= previous_bits
            previous_bits = sketch.bits_set

    @given(st.integers(1, 200))
    @settings(max_examples=30)
    def test_estimate_tracks_linear_counting_formula(self, n):
        """The estimate equals m*ln(m/z) for the realized zero count."""
        sketch = FlowSketch()
        for i in range(n):
            sketch.observe(f"flow-{i}")
        zeros = SKETCH_BITS - sketch.bits_set
        if zeros > 0:
            expected = SKETCH_BITS * math.log(SKETCH_BITS / zeros)
            assert sketch.estimate() == pytest.approx(expected)


class TestOccupancyModel:
    def test_expected_bits_set_bounds(self):
        assert expected_bits_set(0) == 0
        assert expected_bits_set(500) < SKETCH_BITS
        assert expected_bits_set(10_000) <= SKETCH_BITS

    def test_expected_bits_monotone(self):
        values = [expected_bits_set(n) for n in range(0, 300, 10)]
        assert values == sorted(values)

    def test_negative_flows_rejected(self):
        with pytest.raises(SamplerError):
            expected_bits_set(-1)

    def test_realized_occupancy_near_expectation(self):
        sketch = FlowSketch()
        n = 100
        for i in range(n):
            sketch.observe(f"flow-{i}")
        expected = expected_bits_set(n)
        assert abs(sketch.bits_set - expected) < 20


class TestWordBacking:
    """The sampler keeps its bitmaps as uint64 words, one
    ``(cpus, buckets, SKETCH_WORDS)`` array; its read-out must estimate
    exactly what a :class:`FlowSketch` over the same keys estimates."""

    def test_read_out_matches_flowsketch(self, rng):
        cpus = 6
        sampler = Millisampler(
            RunMetadata(host="h0"), sampling_interval=1e-3, buckets=2, cpus=cpus
        )
        sampler.attach()
        sampler.enable()
        sketches = [FlowSketch(), FlowSketch()]
        for bucket, flows in enumerate((40, 300)):
            for key in rng.integers(0, 1000, size=flows):
                sampler.observe(
                    PacketObservation(
                        time=bucket * 1e-3,
                        direction=Direction.INGRESS,
                        size=100,
                        flow_key=int(key),
                        cpu=int(key) % cpus,
                    )
                )
                sketches[bucket].observe(int(key))
        sampler.finish(now=sampler.duration)
        run = sampler.read_run()
        assert run.conn_estimate.tolist() == [s.estimate() for s in sketches]
        assert 0 < sketches[0].estimate() < sketches[1].estimate()

    def test_vectorized_estimates_match_scalar(self):
        """linear_counting_estimates is the single estimator: the scalar
        FlowSketch.estimate must equal it for every possible zero count."""
        for bits_set in range(SKETCH_BITS + 1):
            bitmap = (1 << bits_set) - 1
            scalar = FlowSketch(bitmap).estimate()
            vector = float(linear_counting_estimates(SKETCH_BITS - bits_set))
            assert scalar == vector
