"""Native fluid kernel vs the numpy oracle: exact equality, always.

The native kernel (:mod:`repro.fleet.kernels.fluid`) promises *bit*
equality with the numpy paths — ``==``, not ``allclose`` — because
datasets must be byte-identical (same sha256 fingerprint, same cache
key) whichever kernel generated them.  Without numba installed the
kernel runs as plain Python (the identity-decorator fallback in
``kernels._numba``), which is the *same code* numba compiles, so this
suite pins the native semantics on every machine, numba or not.

The native path is forced through the ``kernel_choice`` seam (set
after construction), bypassing :func:`resolve_kernel`'s availability
probe: resolution decides *whether* native runs, never *what* it
computes.

Select the deterministic CI profile with HYPOTHESIS_PROFILE=ci.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.config import BufferConfig, FleetConfig, KERNEL_CHOICES
from repro.errors import ConfigError, SimulationError
from repro.fleet import kernels
from repro.fleet.buffermodel import CORE_OUTPUTS, ECN_MASK, FluidBufferModel
from repro.fleet.policies import SharingPolicy, build_policy, registered_policy_specs

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL
ALL_SPECS = registered_policy_specs()
FIELDS = (
    "delivered",
    "delivered_retx",
    "ecn_marked",
    "dropped",
    "queue_occupancy",
    "rate_multiplier",
)


def native_model(servers: int, **kwargs) -> FluidBufferModel:
    """A model pinned to the native kernel code path, numba or not."""
    model = FluidBufferModel(servers=servers, **kwargs)
    model.kernel_choice = "native"
    return model


def assert_identical(native, oracle) -> None:
    for field in FIELDS:
        a, b = getattr(native, field), getattr(oracle, field)
        assert a.shape == b.shape, field
        assert np.array_equal(a, b), f"{field} differs between kernels"


def make_demand(rng, runs, buckets, servers):
    """Bursty demand: exponential background plus spikes that force
    drops, ECN marks, and the physical pool clamp."""
    demand = rng.exponential(0.4 * DRAIN, (runs, buckets, servers))
    demand[rng.random((runs, buckets, servers)) < 0.08] = 4.0 * DRAIN
    return demand


# -- the hypothesis sweep: all policies, random shapes and state -------------


@settings(max_examples=30, deadline=None)
@given(
    spec_index=st.integers(0, len(ALL_SPECS) - 1),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 3),
    buckets=st.integers(1, 40),
    servers=st.integers(1, 6),
    seeded_state=st.booleans(),
    responsive=st.booleans(),
    retransmit=st.booleans(),
    retx_delay=st.integers(1, 3),
)
def test_native_matches_numpy_all_policies(
    spec_index, seed, runs, buckets, servers, seeded_state,
    responsive, retransmit, retx_delay,
):
    spec = ALL_SPECS[spec_index]
    rng = np.random.default_rng(seed)
    num_quadrants = min(units.NUM_QUADRANTS, servers)
    kwargs = dict(
        policy=build_policy(
            spec, queues_per_quadrant=-(-servers // num_quadrants)
        ),
        responsive_sources=responsive,
        retransmit_losses=retransmit,
        retx_delay_steps=retx_delay,
    )
    demand = make_demand(rng, runs, buckets, servers)
    persistence = rng.uniform(0.001, 0.05, (runs, servers))
    initial_m = rng.uniform(0.05, 1.0, (runs, servers)) if seeded_state else None
    initial_alpha = rng.uniform(0.0, 1.0, (runs, servers)) if seeded_state else None
    lengths = rng.integers(1, buckets + 1, runs)

    oracle = FluidBufferModel(servers=servers, **kwargs).run_batch(
        demand, persistence, initial_m, initial_alpha, lengths=lengths
    )
    native = native_model(servers, **kwargs).run_batch(
        demand, persistence, initial_m, initial_alpha, lengths=lengths
    )
    assert_identical(native, oracle)
    for run in range(runs):
        assert_identical(native.per_run(run), oracle.per_run(run))


@settings(max_examples=20, deadline=None)
@given(
    spec_index=st.integers(0, len(ALL_SPECS) - 1),
    seed=st.integers(0, 2**32 - 1),
    buckets=st.integers(1, 60),
    servers=st.integers(1, 6),
)
def test_native_matches_numpy_scalar_run(spec_index, seed, buckets, servers):
    spec = ALL_SPECS[spec_index]
    rng = np.random.default_rng(seed)
    num_quadrants = min(units.NUM_QUADRANTS, servers)
    policy = build_policy(spec, queues_per_quadrant=-(-servers // num_quadrants))
    demand = make_demand(rng, 1, buckets, servers)[0]
    persistence = rng.uniform(0.001, 0.05, servers)

    oracle = FluidBufferModel(servers=servers, policy=policy).run(demand, persistence)
    native = native_model(servers, policy=policy).run(demand, persistence)
    assert_identical(native, oracle)


@settings(max_examples=15, deadline=None)
@given(
    spec_index=st.integers(0, len(ALL_SPECS) - 1),
    seed=st.integers(0, 2**32 - 1),
    optional=st.sets(st.sampled_from(tuple(set(FIELDS) - set(CORE_OUTPUTS)) + (ECN_MASK,))),
)
def test_native_matches_numpy_output_subsets(spec_index, seed, optional):
    """Both kernels return exactly the outputs asked for, with the same
    bytes; the native kernel derives the ECN mask from its float
    ``ecn_marked``, the numpy loop stores it directly."""
    outputs = set(CORE_OUTPUTS) | optional
    rng = np.random.default_rng(seed)
    servers = 5
    policy = build_policy(ALL_SPECS[spec_index], queues_per_quadrant=2)
    demand = make_demand(rng, 2, 30, servers)
    persistence = rng.uniform(0.001, 0.05, (2, servers))
    lengths = np.array([30, 17])
    oracle = FluidBufferModel(servers=servers, policy=policy, kernel="numpy").run_batch(
        demand, persistence, lengths=lengths, outputs=outputs
    )
    native = native_model(servers, policy=policy).run_batch(
        demand, persistence, lengths=lengths, outputs=outputs
    )
    for field in FIELDS + (ECN_MASK,):
        a, b = getattr(native, field), getattr(oracle, field)
        if field not in outputs:
            assert a is None and b is None, field
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field
        # Raw bytes: -0.0 and 0.0 must not compare equal.
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), (
            f"{field} differs between kernels"
        )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
def test_native_matches_numpy_on_live_and_light_columns(spec):
    """Both kernels step only the live columns of a mixed batch (as one
    pseudo-run whose quadrants are the pool bins) and share the light
    columns' closed form: every output equal as raw bytes."""
    from tests.fleet.test_fluid_oracle import mixed_batch, model_for

    oracle_model = model_for(spec, 7)
    demand, persistence, initial_m, initial_alpha, lengths, live = mixed_batch(
        np.random.default_rng(3), oracle_model, 3, 30, 0.35
    )
    native = model_for(spec, 7)
    native.kernel_choice = "native"
    assert native.effective_kernel == "native"
    oracle = oracle_model.run_batch(demand, persistence, initial_m, initial_alpha, lengths=lengths)
    result = native.run_batch(demand, persistence, initial_m, initial_alpha, lengths=lengths)
    assert 0 < result.live.size == np.count_nonzero(live) < live.size
    for field in FIELDS:
        a, b = getattr(result, field), getattr(oracle, field)
        assert a.tobytes() == b.tobytes(), f"{field} differs between kernels"


# -- edge cases --------------------------------------------------------------


def test_zero_bucket_run_is_empty_on_both_kernels():
    servers = 3
    demand = np.zeros((0, servers))
    persistence = np.full(servers, 0.01)
    oracle = FluidBufferModel(servers=servers).run(demand, persistence)
    native = native_model(servers).run(demand, persistence)
    assert oracle.delivered.shape == (0, servers)
    assert_identical(native, oracle)


def test_zero_server_rack_rejected_by_both_kernels():
    for kernel in ("numpy", "native"):
        with pytest.raises(SimulationError):
            FluidBufferModel(servers=0, kernel=kernel)


def test_unregistered_policy_falls_back_to_numpy():
    """A custom policy without a native limit rule runs the numpy path
    even when the native kernel was selected — and stays the oracle."""

    class HalfPoolPolicy(SharingPolicy):
        name = "half-pool-test"
        batch_limits = True

        def limits(self, shared_total, pool_used, quadrant,
                   queue_shared_used, active_steps):
            free = np.maximum(shared_total - pool_used, 0.0)
            return 0.5 * free[..., quadrant]

    policy = HalfPoolPolicy()
    assert policy.native_kernel_id is None
    model = native_model(4, policy=policy)
    assert not model.native_supported
    assert model.effective_kernel == "numpy"

    rng = np.random.default_rng(3)
    demand = make_demand(rng, 2, 30, 4)
    persistence = np.full(4, 0.01)
    fallback = model.run_batch(demand, persistence)
    oracle = FluidBufferModel(servers=4, policy=HalfPoolPolicy()).run_batch(
        demand, persistence
    )
    assert_identical(fallback, oracle)


def test_resumed_state_round_trip():
    """Resume semantics: seeding run B with state arrays (per-server
    and per-run shapes) is kernel-independent."""
    servers = 4
    rng = np.random.default_rng(9)
    demand_a = make_demand(rng, 2, 25, servers)
    demand_b = make_demand(rng, 2, 25, servers)
    persistence = rng.uniform(0.001, 0.05, servers)
    m0 = rng.uniform(0.05, 1.0, servers)  # (servers,) broadcast shape
    a0 = rng.uniform(0.0, 1.0, servers)

    oracle_model = FluidBufferModel(servers=servers)
    native = native_model(servers)

    first_o = oracle_model.run_batch(demand_a, persistence, m0, a0)
    first_n = native.run_batch(demand_a, persistence, m0, a0)
    assert_identical(first_n, first_o)

    # (runs, servers) resumed state, straight out of the first pass.
    m1 = first_o.rate_multiplier[:, -1, :]
    second_o = oracle_model.run_batch(demand_b, persistence, m1, a0)
    second_n = native.run_batch(demand_b, persistence, m1, a0)
    assert_identical(second_n, second_o)


# -- selection, resolution, and the execution-only contract ------------------


def test_resolve_kernel_contract():
    assert kernels.resolve_kernel("numpy") == "numpy"
    resolved = kernels.resolve_kernel("auto")
    assert resolved == ("native" if kernels.NATIVE_AVAILABLE else "numpy")
    assert kernels.resolve_kernel("native") == resolved
    with pytest.raises(ConfigError):
        kernels.resolve_kernel("fortran")


def test_native_request_without_numba_degrades_with_counter():
    if kernels.NATIVE_AVAILABLE:
        pytest.skip("numba installed; degradation path not reachable")
    kernels._warned_unavailable = False
    kernels._pending.clear()
    assert kernels.resolve_kernel("native") == "numpy"
    from repro.obs.metrics import Metrics

    metrics = Metrics()
    kernels.consume_pending(metrics)
    counters = metrics.snapshot()["counters"]
    assert counters.get(kernels.NATIVE_UNAVAILABLE_COUNTER, 0) >= 1
    # Warn-once: a second resolve stages nothing new.
    assert kernels.resolve_kernel("native") == "numpy"
    kernels.consume_pending(metrics)
    assert (
        metrics.snapshot()["counters"][kernels.NATIVE_UNAVAILABLE_COUNTER]
        == counters[kernels.NATIVE_UNAVAILABLE_COUNTER]
    )


def test_kernel_axis_is_execution_only():
    from repro.fleet.cache import dataset_cache_key
    from repro.workload.region import REGION_A

    keys = {
        dataset_cache_key(REGION_A, FleetConfig(kernel=kernel))
        for kernel in KERNEL_CHOICES
    }
    assert len(keys) == 1, "kernel choice must not change the dataset cache key"


def test_fleet_config_validates_kernel():
    with pytest.raises(ConfigError):
        FleetConfig(kernel="cython")
    for kernel in KERNEL_CHOICES:
        assert FleetConfig(kernel=kernel).kernel == kernel


def test_synthesizer_records_effective_kernel():
    from repro.fleet.rackrun import RackRunSynthesizer
    from repro.obs.metrics import Metrics
    from repro.workload.region import REGION_A, build_region_workloads

    workloads = build_region_workloads(
        REGION_A, racks=1, rng=np.random.default_rng(5)
    )
    metrics = Metrics()
    runs = RackRunSynthesizer().synthesize_batch(
        [(workloads[0], 3, np.random.SeedSequence(5))], metrics=metrics
    )
    assert len(runs) == 1
    counters = metrics.snapshot()["counters"]
    expected = kernels.resolve_kernel("auto")
    assert counters.get(f"synthesis.fluid.kernel.{expected}") == 1
