"""The lean time-major fluid loop against the historical loop, bit for bit.

``FluidBufferModel.run_batch`` (numpy path) must reproduce
:func:`tests.fleet.fluid_reference.run_batch_reference` exactly: every
output compared as ``.view(np.uint64)``, because ``np.array_equal``
treats -0.0 and 0.0 as equal.  The sweep covers every registered
policy, open-loop sources, no retransmission, retransmission delays of
1 and 3 buckets, ragged lengths, seeded initial state, every choice of
optional outputs (and the boolean ECN mask), both demand layouts, one
real synthesis batch, targeted cases for the steps the loop skips
(``TestQuietSteps``), and batches that mix live columns with light ones,
whose outputs are written in closed form (``TestLightColumns``).

Select the deterministic CI profile with HYPOTHESIS_PROFILE=ci.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.config import FleetConfig, PolicySpec
from repro.fleet.buffermodel import CORE_OUTPUTS, ECN_MASK, FLUID_OUTPUTS, FluidBufferModel
from repro.fleet.dataset import plan_region
from repro.fleet.policies import build_policy, registered_policy_specs
from repro.fleet.rackrun import SYNTHESIS_OUTPUTS, RackRunSynthesizer
from repro.workload.region import REGION_A
from tests.fleet.dataset_reference import plan_items
from tests.fleet.fluid_reference import run_batch_reference

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL
ALL_SPECS = registered_policy_specs()


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def assert_bitwise(result, reference, outputs=FLUID_OUTPUTS, label=""):
    """Every requested output equals the reference bit for bit; every
    other output is absent."""
    for name in FLUID_OUTPUTS:
        series = getattr(result, name)
        if name not in outputs:
            assert series is None, f"{label}: {name} was not requested"
            continue
        assert series.shape == reference[name].shape, f"{label}: {name}"
        assert np.array_equal(bits(series), bits(reference[name])), (
            f"{label}: {name} differs from the reference loop"
        )
    if ECN_MASK in outputs:
        assert result.ecn_mask.dtype == bool
        assert np.array_equal(
            bits(reference["delivered"] * result.ecn_mask), bits(reference["ecn_marked"])
        ), f"{label}: delivered * ecn_mask differs from ecn_marked"
    else:
        assert result.ecn_mask is None
    assert np.array_equal(result.lengths, reference["lengths"])


def make_demand(rng, runs, buckets, servers):
    """Bursty demand: exponential background plus spikes that force
    drops, ECN marks, retransmissions and the physical pool clamp."""
    demand = rng.exponential(0.4 * DRAIN, (runs, buckets, servers))
    demand[rng.random((runs, buckets, servers)) < 0.08] = 4.0 * DRAIN
    return demand


def model_for(spec, servers, **kwargs) -> FluidBufferModel:
    num_quadrants = min(units.NUM_QUADRANTS, servers)
    policy = build_policy(spec, queues_per_quadrant=-(-servers // num_quadrants))
    return FluidBufferModel(servers=servers, policy=policy, **kwargs)


#: The fluid model's options the sweeps cover, by label.
OPTIONS = {
    "default": {},
    "open-loop": {"responsive_sources": False},
    "no-retx": {"retransmit_losses": False},
    "retx-delay-3": {"retx_delay_steps": 3},
    "all-off": {"responsive_sources": False, "retransmit_losses": False, "retx_delay_steps": 3},
}


def light_cap(model, initial_m) -> np.ndarray:
    """The largest demand a light column may carry in any bucket:
    ``min(activity_floor, min(m0, clip(m0, 0.05, 1)) * max_offered)``."""
    drain = model.drain_per_step
    return np.minimum(
        model.activity_threshold_fraction * drain,
        np.minimum(initial_m, np.clip(initial_m, 0.05, 1.0)) * (model.max_offered_factor * drain),
    )


def mixed_batch(rng, model, runs, buckets, live_share):
    """A batch whose (run, server) columns mix live and light ones:
    light noise under the cap, exact zeros, -0.0 cells, a bucket exactly
    at the cap (light) or one ulp above it (live), and bursts (live).
    Initial multipliers span m0 < 0.05 to m0 > 1.  Returns ``(demand,
    persistence, initial_m, initial_alpha, lengths, live)``, ``live``
    recounted from the padded demand."""
    servers = model.servers
    initial_m = rng.uniform(0.01, 1.5, (runs, servers))
    cap = light_cap(model, initial_m)
    demand = rng.uniform(0.0, 1.0, (runs, buckets, servers)) * cap[:, None, :]
    demand[rng.random((runs, buckets, servers)) < 0.2] = 0.0
    demand[rng.random((runs, buckets, servers)) < 0.05] = -0.0
    # 0: light noise, 1: a bucket at the cap, 2: one ulp above it, 3: bursts.
    p_light, p_live = (1.0 - live_share) / 2, live_share / 2
    kind = rng.choice(4, (runs, servers), p=[p_light, p_light, p_live, p_live])
    hot = rng.integers(0, buckets, (runs, servers))
    for run, server in zip(*np.nonzero(kind >= 1)):
        edge = cap[run, server]
        if kind[run, server] == 1:
            demand[run, hot[run, server], server] = edge
        elif kind[run, server] == 2:
            demand[run, hot[run, server], server] = np.nextafter(edge, np.inf)
        else:
            demand[run, :, server] = make_demand(rng, 1, buckets, 1)[0, :, 0]
    lengths = rng.integers(1, buckets + 1, runs)
    for run, length in enumerate(lengths):
        demand[run, length:] = 0.0
    persistence = rng.uniform(0.001, 0.05, (runs, servers))
    initial_alpha = rng.uniform(0.0, 1.0, (runs, servers))
    live = (demand > cap[:, None, :]).any(axis=1)
    return demand, persistence, initial_m, initial_alpha, lengths, live


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
def test_every_policy_and_option_matches_reference(spec, options):
    rng = np.random.default_rng(7)
    servers = 9
    model = model_for(spec, servers, **options)
    demand = make_demand(rng, 4, 90, servers)
    persistence = rng.uniform(0.001, 0.05, (4, servers))
    initial_m = rng.uniform(0.05, 1.0, (4, servers))
    initial_alpha = rng.uniform(0.0, 1.0, (4, servers))
    lengths = np.array([90, 41, 1, 77])
    reference = run_batch_reference(
        model, demand, persistence, initial_m, initial_alpha, lengths=lengths
    )
    result = model.run_batch(
        demand, persistence, initial_m, initial_alpha, lengths=lengths
    )
    assert_bitwise(result, reference, label=f"{spec.name} {options}")


@settings(max_examples=40, deadline=None)
@given(
    spec_index=st.integers(0, len(ALL_SPECS) - 1),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 4),
    buckets=st.integers(1, 50),
    servers=st.integers(1, 8),
    seeded_state=st.booleans(),
    shared_state=st.booleans(),
    responsive=st.booleans(),
    retransmit=st.booleans(),
    retx_delay=st.integers(1, 3),
    optional=st.sets(
        st.sampled_from(tuple(set(FLUID_OUTPUTS) - set(CORE_OUTPUTS)) + (ECN_MASK,))
    ),
    time_major=st.booleans(),
)
def test_random_batches_match_reference(
    spec_index, seed, runs, buckets, servers, seeded_state, shared_state,
    responsive, retransmit, retx_delay, optional, time_major,
):
    outputs = set(CORE_OUTPUTS) | optional
    rng = np.random.default_rng(seed)
    model = model_for(
        ALL_SPECS[spec_index],
        servers,
        responsive_sources=responsive,
        retransmit_losses=retransmit,
        retx_delay_steps=retx_delay,
    )
    demand = make_demand(rng, runs, buckets, servers)
    lengths = rng.integers(1, buckets + 1, runs)
    for run, length in enumerate(lengths):
        demand[run, length:] = 0.0
    state_shape = (servers,) if shared_state else (runs, servers)
    persistence = rng.uniform(0.001, 0.05, state_shape)
    initial_m = rng.uniform(0.05, 1.0, state_shape) if seeded_state else None
    initial_alpha = rng.uniform(0.0, 1.0, state_shape) if seeded_state else None
    reference = run_batch_reference(
        model, demand, persistence, initial_m, initial_alpha, lengths=lengths
    )
    if time_major:
        # The layout synthesis builds: a (buckets, runs, servers) buffer
        # passed as its transposed view.
        demand = np.ascontiguousarray(demand.transpose(1, 0, 2)).transpose(1, 0, 2)
    result = model.run_batch(
        demand, persistence, initial_m, initial_alpha, lengths=lengths, outputs=outputs
    )
    assert_bitwise(result, reference, outputs)


@settings(max_examples=40, deadline=None)
@given(
    spec_index=st.integers(0, len(ALL_SPECS) - 1),
    option=st.sampled_from(list(OPTIONS)),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 4),
    buckets=st.integers(1, 40),
    servers=st.integers(1, 8),
    live_share=st.sampled_from([0.0, 0.1, 0.35, 1.0]),
)
def test_live_and_light_columns_match_reference(
    spec_index, option, seed, runs, buckets, servers, live_share
):
    """Batches mixing live and light columns, every policy and option:
    all six outputs and the mask equal the reference bit for bit, and
    exactly the columns whose demand exceeds the cap ran."""
    rng = np.random.default_rng(seed)
    model = model_for(ALL_SPECS[spec_index], servers, **OPTIONS[option])
    demand, persistence, initial_m, initial_alpha, lengths, live = mixed_batch(
        rng, model, runs, buckets, live_share
    )
    reference = run_batch_reference(
        model, demand, persistence, initial_m, initial_alpha, lengths=lengths
    )
    outputs = FLUID_OUTPUTS + (ECN_MASK,)
    result = model.run_batch(
        demand, persistence, initial_m, initial_alpha, lengths=lengths, outputs=outputs
    )
    assert np.array_equal(result.live, np.flatnonzero(live))
    assert_bitwise(result, reference, outputs)


def test_resumed_state_matches_reference():
    """A second batch seeded with the first one's final multipliers
    (per-run ``(runs, servers)`` state) and a shared ``(servers,)``
    alpha, as a resumed run would be, matches the reference."""
    rng = np.random.default_rng(9)
    servers = 4
    model = FluidBufferModel(servers=servers)
    persistence = rng.uniform(0.001, 0.05, servers)
    m0 = rng.uniform(0.05, 1.0, servers)
    a0 = rng.uniform(0.0, 1.0, servers)
    first = model.run_batch(make_demand(rng, 2, 25, servers), persistence, m0, a0)
    m1 = first.rate_multiplier[:, -1, :]
    assert m1.shape == (2, servers)
    demand = make_demand(rng, 2, 25, servers)
    reference = run_batch_reference(model, demand, persistence, m1, a0)
    assert_bitwise(model.run_batch(demand, persistence, m1, a0), reference)


def test_outputs_are_time_major_views():
    model = FluidBufferModel(servers=3)
    demand = make_demand(np.random.default_rng(1), 2, 20, 3)
    result = model.run_batch(demand, np.full(3, 0.01))
    for name in FLUID_OUTPUTS:
        series = getattr(result, name)
        assert series.shape == (2, 20, 3)
        assert series.transpose(1, 0, 2).flags.c_contiguous
        # per_run hands out C-contiguous copies, and run_output rows too.
        assert getattr(result.per_run(1), name).flags.c_contiguous
        rows = result.run_output(name, 1, rows=True)
        assert rows.flags.c_contiguous
        assert np.array_equal(bits(rows), bits(series[1].T))


def test_real_synthesis_batch_matches_reference():
    """Four REGION_A rack runs, built exactly as ``synthesize_batch``
    builds them: a time-major demand buffer, ragged lengths, the runs'
    own persistence and initial DCTCP state, and the outputs synthesis
    asks for."""
    config = FleetConfig(racks_per_region=2, runs_per_rack=2, seed=11)
    synthesizer = RackRunSynthesizer()
    demands = []
    for workload, hour, leaf in (
        item for plan in plan_region(REGION_A, config) for item in plan_items(plan, config)
    ):
        rng = np.random.default_rng(leaf)
        buckets = synthesizer._run_length(rng)
        demands.append(synthesizer.demand_model.generate(workload, hour, buckets, rng))
        servers = workload.placement.servers
    assert all(d.demand.shape[1] == servers for d in demands)
    lengths = np.array([d.demand.shape[0] for d in demands])
    assert len(set(lengths.tolist())) > 1
    buffer = np.zeros((lengths.max(), len(demands), servers))
    for row, d in enumerate(demands):
        buffer[: lengths[row], row] = d.demand
    persistence = np.stack([d.persistence for d in demands])
    initial_m = np.stack([d.initial_multiplier for d in demands])
    initial_alpha = np.stack([d.initial_alpha for d in demands])
    model = synthesizer._fluid_model(workload)
    reference = run_batch_reference(
        model,
        np.ascontiguousarray(buffer.transpose(1, 0, 2)),
        persistence,
        initial_m,
        initial_alpha,
        lengths=lengths,
    )
    assert reference["dropped"].sum() > 0 and reference["ecn_marked"].sum() > 0
    for outputs in (FLUID_OUTPUTS, SYNTHESIS_OUTPUTS, CORE_OUTPUTS):
        result = model.run_batch(
            buffer.transpose(1, 0, 2),
            persistence,
            initial_m,
            initial_alpha,
            lengths=lengths,
            outputs=outputs,
        )
        assert_bitwise(result, reference, outputs, label=str(outputs))


class TestQuietSteps:
    """The loop skips the admission retransmission split when nothing is
    due anywhere in the batch, the delivery split when no retransmitted
    bytes are queued, and the loss halving when nothing dropped.  Each
    case puts a skip at a boundary where a wrong gate would show, and
    checks all six outputs against the reference bit for bit."""

    @staticmethod
    def compare(model, demand, persistence, lengths=None):
        reference = run_batch_reference(model, demand, persistence, lengths=lengths)
        result = model.run_batch(demand, persistence, lengths=lengths)
        assert_bitwise(result, reference)
        return reference

    def test_retransmissions_in_some_runs_only(self):
        """One run of three drops and retransmits; the other two never
        do, so every retransmitting step also updates runs with nothing
        due."""
        rng = np.random.default_rng(5)
        model = FluidBufferModel(servers=8)
        demand = rng.exponential(0.1 * DRAIN, (3, 80, 8))
        demand[0] = make_demand(rng, 1, 80, 8)[0]
        reference = self.compare(model, demand, np.full(8, 0.01))
        assert reference["dropped"][0].sum() > 0
        assert reference["delivered_retx"][0].sum() > 0
        assert reference["dropped"][1:].sum() == 0
        assert reference["delivered_retx"][1:].sum() == 0

    def test_drops_in_the_last_retx_delay_steps(self):
        """Drops in the last ``retx_delay_steps`` buckets are never due
        inside the run; an earlier spike's are."""
        rng = np.random.default_rng(6)
        model = FluidBufferModel(servers=6, retx_delay_steps=3)
        demand = rng.exponential(0.1 * DRAIN, (2, 40, 6))
        demand[:, 10] = 6.0 * DRAIN
        demand[:, -3:] = 6.0 * DRAIN
        reference = self.compare(model, demand, np.full(6, 0.01), lengths=np.array([40, 40]))
        assert (reference["dropped"][:, -3:].sum(axis=(1, 2)) > 0).all()
        assert reference["delivered_retx"][:, 13:16].sum() > 0

    def test_retransmission_queue_drains_to_exactly_zero(self):
        """Server 0 of run 0 loses ~4.3 drains of one spike, and its
        retransmission reaches an empty queue six buckets later: every
        queued byte is retransmitted, so the queue delivers it over four
        buckets with nothing newly due and drains to exactly 0.0.  A
        fresh queue on server 1 follows with no retransmitted bytes."""
        model = FluidBufferModel(servers=4, retx_delay_steps=6)
        demand = np.zeros((2, 40, 4))
        demand[0, 0, 0] = 8.0 * DRAIN
        demand[0, 20:30, 1] = 1.2 * DRAIN
        demand[1] = np.random.default_rng(3).exponential(0.1 * DRAIN, (40, 4))
        reference = self.compare(model, demand, np.full(4, 0.01))
        retx = reference["delivered_retx"][0, :, 0]
        queue = reference["queue_occupancy"][0, :, 0]
        # Retransmitted bytes leave the queue on buckets with nothing due.
        assert (retx[6:10] > 0).all() and retx[7:10].sum() > DRAIN
        assert queue[8] > 0 and queue[9] == 0.0
        assert (reference["queue_occupancy"][0, 20:30, 1] > 0).any()
        assert reference["delivered_retx"][0, 13:, :].sum() == 0

    def test_queue_rounded_below_zero_with_nothing_queued_for_retx(self):
        """Run 0's queue on server 0 rounds to -5.8e-11 at bucket 15
        with no retransmitted bytes queued anywhere, so bucket 16
        delivers that negative amount and the reference's ``out_retx``
        is ``out * 0.0 = -0.0``, not the +0.0 a zeroed buffer holds."""
        rng = np.random.default_rng(17)
        model = model_for(PolicySpec(name="flow-aware"), 2, retx_delay_steps=2)
        demand = make_demand(rng, 3, 17, 2)
        lengths = rng.integers(1, 18, 3)
        for run, length in enumerate(lengths):
            demand[run, length:] = 0.0
        persistence = rng.uniform(0.001, 0.05, (3, 2))
        initial_m = rng.uniform(0.05, 1.0, (3, 2))
        initial_alpha = rng.uniform(0.0, 1.0, (3, 2))
        reference = run_batch_reference(
            model, demand, persistence, initial_m, initial_alpha, lengths=lengths
        )
        assert reference["queue_occupancy"][0, 15, 0] < 0
        assert reference["delivered"][0, 16, 0] < 0
        assert np.signbit(reference["delivered_retx"][0, 16, 0])
        result = model.run_batch(
            demand, persistence, initial_m, initial_alpha, lengths=lengths
        )
        assert_bitwise(result, reference)

    @pytest.mark.parametrize(
        "options",
        [{"retransmit_losses": False}, {"responsive_sources": False}],
        ids=["no-retx", "open-loop"],
    )
    def test_drops_with_a_mechanism_off(self, options):
        rng = np.random.default_rng(8)
        model = FluidBufferModel(servers=9, **options)
        demand = make_demand(rng, 3, 70, 9)
        reference = self.compare(model, demand, np.full(9, 0.01))
        assert reference["dropped"].sum() > 0
        if not options.get("retransmit_losses", True):
            assert reference["delivered_retx"].sum() == 0


class TestLightColumns:
    """A column whose demand never exceeds its cap skips the loop and
    gets its outputs in closed form.  Each case sits on an edge of that
    rule and checks all six outputs and the mask against the reference
    bit for bit."""

    @staticmethod
    def compare(model, demand, initial_m=None, lengths=None):
        persistence = np.full(model.servers, 0.01)
        reference = run_batch_reference(
            model, demand, persistence, initial_m, lengths=lengths
        )
        outputs = FLUID_OUTPUTS + (ECN_MASK,)
        result = model.run_batch(
            demand, persistence, initial_m, lengths=lengths, outputs=outputs
        )
        assert_bitwise(result, reference, outputs)
        return result, reference

    def test_demand_at_the_cap_is_light_one_ulp_above_is_live(self):
        model = FluidBufferModel(servers=4)
        cap = light_cap(model, np.ones(4))
        demand = np.zeros((2, 30, 4))
        demand[:, 5] = cap
        demand[1, 9, 2] = np.nextafter(cap[2], np.inf)
        result, _ = self.compare(model, demand)
        assert result.live.tolist() == [1 * 4 + 2]

    @pytest.mark.parametrize(
        "m0, level, live",
        [
            # The first step runs on the unclipped m0: its window is
            # m0 * max_offered = 0.08 drains, below both the floor and
            # the clipped window of 0.4 drains.
            (0.01, None, False),
            (0.01, 0.2, True),
            # m0 * max_offered = 0.32 drains, below the floor.
            (0.04, None, False),
            (0.04, 0.4, True),
            # m0 > 1: the floor is the cap; rate_multiplier is 1.0.
            (1.5, None, False),
            (1.5, 0.46, True),
        ],
    )
    def test_initial_multiplier_sets_the_cap(self, m0, level, live):
        """Server 1 offers ``level`` drains (None: exactly its cap) in
        its first bucket and a little more later; only a level above
        the cap runs the loop."""
        model = FluidBufferModel(servers=3)
        initial_m = np.full(3, 0.5)
        initial_m[1] = m0
        demand = np.zeros((1, 12, 3))
        cap = light_cap(model, initial_m)[1]
        demand[0, 0, 1] = cap if level is None else level * DRAIN
        demand[0, 3:5, 1] = 0.5 * cap
        result, reference = self.compare(model, demand, initial_m)
        assert result.live.tolist() == ([1] if live else [])
        if not live:
            assert np.array_equal(
                reference["rate_multiplier"][0, :, 1], np.full(12, np.clip(m0, 0.05, 1.0))
            )

    def test_negative_zero_demand_delivers_positive_zero(self):
        model = FluidBufferModel(servers=3)
        demand = np.full((2, 10, 3), 0.1 * DRAIN)
        demand[:, 4, :] = -0.0
        demand[1, 6, 0] = 3.0 * DRAIN
        result, reference = self.compare(model, demand)
        assert np.signbit(demand[0, 4]).all()
        assert not np.signbit(reference["delivered"][0, 4]).any()
        assert result.live.tolist() == [3]

    def test_zero_demand_run_beside_a_busy_one(self):
        model = FluidBufferModel(servers=5)
        demand = np.zeros((3, 25, 5))
        demand[1, :20] = make_demand(np.random.default_rng(4), 1, 20, 5)[0]
        result, _ = self.compare(model, demand, lengths=np.array([25, 20, 7]))
        assert (result.live // 5 == 1).all()

    def test_no_live_column_runs_no_loop(self, monkeypatch):
        def no_loop(*_args, **_kwargs):
            raise AssertionError("a batch without live columns ran the loop")

        monkeypatch.setattr(FluidBufferModel, "_time_loop", no_loop)
        model = FluidBufferModel(servers=6)
        demand = np.random.default_rng(2).uniform(0.0, 0.45 * DRAIN, (3, 30, 6))
        demand[0, 3] = -0.0
        result, _ = self.compare(model, demand, lengths=np.array([30, 12, 1]))
        assert result.live.size == 0

    def test_single_live_column(self):
        model = model_for(PolicySpec(name="flow-aware"), 9, retx_delay_steps=2)
        rng = np.random.default_rng(9)
        demand = rng.uniform(0.0, 0.4 * DRAIN, (2, 60, 9))
        demand[1, :, 7] = make_demand(rng, 1, 60, 1)[0, :, 0]
        result, reference = self.compare(model, demand)
        assert result.live.tolist() == [9 + 7]
        assert reference["dropped"][1, :, 7].sum() > 0
