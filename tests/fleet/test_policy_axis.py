"""The buffer-sharing policy axis: registry, specs, and policy kernels.

Covers the identity layer (PolicySpec canonical JSON and CLI parsing),
the registry (every policy addressable by name, geometry injection),
the two newer policies' threshold rules (delay-driven sharing and the
SONiC-style shared headroom pool), the FAB mice/elephant boundary that
is pinned inclusive, and the bit-identity of every policy's batched
``limits`` kernel against the per-run fallback loop.
"""

import json

import numpy as np
import pytest

from repro import units
from repro.config import DEFAULT_POLICY_SPEC, PolicySpec
from repro.errors import ConfigError
from repro.fleet.policies import (
    POLICY_REGISTRY,
    DelayDrivenSharingPolicy,
    DynamicThresholdPolicy,
    FlowAwareThresholdPolicy,
    SharedHeadroomPoolPolicy,
    SharingPolicy,
    build_policy,
    parse_policy_arg,
    register_policy,
    registered_policy_specs,
)

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL

ALL_SPECS = registered_policy_specs()


def limits_for(policy, pool_used=0.0, queue_used=0.0, active=0.0, total=1000.0):
    return policy.limits(
        shared_total=total,
        pool_used=np.array([pool_used]),
        quadrant=np.array([0]),
        queue_shared_used=np.array([queue_used]),
        active_steps=np.array([active]),
    )[0]


class TestPolicySpec:
    def test_default_spec_is_dt_with_no_params(self):
        assert DEFAULT_POLICY_SPEC.name == "dynamic-threshold"
        assert DEFAULT_POLICY_SPEC.params == ()
        assert PolicySpec() == DEFAULT_POLICY_SPEC

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_canonical_json_roundtrip_every_registered_policy(self, spec):
        text = spec.canonical_json()
        assert PolicySpec.from_json(text) == spec
        # Canonical form is stable: re-serializing the round-trip gives
        # the same bytes, so it is safe inside cache keys.
        assert PolicySpec.from_json(text).canonical_json() == text
        json.loads(text)  # valid strict JSON (allow_nan=False)

    def test_roundtrip_with_params(self):
        spec = PolicySpec(
            name="delay-driven", params=(("target_delay_steps", 3.5), ("alpha", 2.0))
        )
        again = PolicySpec.from_json(spec.canonical_json())
        assert again == spec
        # Params are normalized sorted, so declaration order is identity-free.
        assert again.params == (("alpha", 2.0), ("target_delay_steps", 3.5))

    def test_from_string_cli_forms(self):
        assert PolicySpec.from_string("complete-sharing") == PolicySpec(
            name="complete-sharing"
        )
        spec = PolicySpec.from_string("flow-aware:mice_steps=6,mice_alpha=2.5")
        assert spec.param_dict() == {"mice_steps": 6, "mice_alpha": 2.5}
        assert isinstance(spec.param_dict()["mice_steps"], int)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            PolicySpec(name="")
        with pytest.raises(ConfigError):
            PolicySpec(name="dt", params=(("alpha", float("nan")),))
        with pytest.raises(ConfigError):
            PolicySpec(name="dt", params=(("alpha", 1.0), ("alpha", 2.0)))
        with pytest.raises(ConfigError):
            PolicySpec.from_string("flow-aware:mice_steps")


class TestRegistry:
    def test_registry_names_match_classes(self):
        for name, cls in POLICY_REGISTRY.items():
            assert cls.name == name

    def test_registered_specs_cover_registry_dt_first(self):
        specs = registered_policy_specs()
        assert specs[0] == DEFAULT_POLICY_SPEC
        assert {s.name for s in specs} == set(POLICY_REGISTRY)
        assert len(specs) == len(POLICY_REGISTRY)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_build_every_registered_policy(self, spec):
        policy = build_policy(spec, queues_per_quadrant=4)
        assert isinstance(policy, SharingPolicy)
        assert policy.name == spec.name
        # Every built-in ships a vectorized batch kernel.
        assert policy.batch_limits is True

    def test_build_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown sharing policy"):
            build_policy(PolicySpec(name="nope"))

    def test_build_unknown_param_rejected(self):
        spec = PolicySpec(name="dynamic-threshold", params=(("beta", 1.0),))
        with pytest.raises(ConfigError, match="does not take parameter"):
            build_policy(spec)

    @pytest.mark.parametrize("spec", [
        PolicySpec(name="dynamic-threshold", params=(("alpha", -1.0),)),
        PolicySpec(name="delay-driven", params=(("target_delay_steps", 0.0),)),
        PolicySpec(name="shared-headroom", params=(("headroom_fraction", 1.5),)),
        PolicySpec(name="dynamic-threshold", params=(("alpha", "abc"),)),
    ])
    def test_build_rejected_param_value_is_a_config_error(self, spec):
        """A value the policy constructor refuses is a configuration
        error naming the policy, not a SimulationError traceback."""
        with pytest.raises(ConfigError, match=f"policy '{spec.name}' rejected its parameters"):
            build_policy(spec, queues_per_quadrant=4)

    def test_geometry_injected_only_when_needed(self):
        built = build_policy(PolicySpec(name="static-partition"), queues_per_quadrant=7)
        assert built.queues_per_quadrant == 7
        # A spec may pin geometry explicitly; the caller's value then loses.
        pinned = PolicySpec(name="static-partition", params=(("queues_per_quadrant", 3),))
        assert build_policy(pinned, queues_per_quadrant=7).queues_per_quadrant == 3
        with pytest.raises(ConfigError, match="partitions by queue count"):
            build_policy(PolicySpec(name="shared-headroom"))

    def test_parse_policy_arg_validates(self):
        assert parse_policy_arg("delay-driven:target_delay_steps=1.5").name == (
            "delay-driven"
        )
        with pytest.raises(ConfigError):
            parse_policy_arg("no-such-policy")
        with pytest.raises(ConfigError):
            parse_policy_arg("delay-driven:bogus_param=1")

    def test_duplicate_registration_rejected(self):
        class Dupe(DynamicThresholdPolicy):
            name = "dynamic-threshold"

        with pytest.raises(ConfigError, match="registered twice"):
            register_policy(Dupe)

    def test_abstract_name_rejected(self):
        class Nameless(SharingPolicy):
            pass

        with pytest.raises(ConfigError, match="concrete name"):
            register_policy(Nameless)


class TestFlowAwareBoundary:
    """The mice window is inclusive: ``active_steps <= mice_steps`` is a
    mouse.  Every dataset generated to date used this rule, so the
    boundary is pinned — a drive-by "fix" flipping it to ``<`` would
    silently re-classify boundary queues and shift loss."""

    def test_exactly_mice_steps_is_still_a_mouse(self):
        policy = FlowAwareThresholdPolicy(
            mice_alpha=4.0, elephant_alpha=0.5, mice_steps=4
        )
        free = 1000.0 - 500.0
        at_boundary = limits_for(policy, pool_used=500.0, active=4)
        past_boundary = limits_for(policy, pool_used=500.0, active=5)
        assert at_boundary == 4.0 * free
        assert past_boundary == 0.5 * free

    def test_fresh_queue_is_a_mouse(self):
        policy = FlowAwareThresholdPolicy()
        assert limits_for(policy, pool_used=0.0, active=0) == 4.0 * 1000.0


class TestDelayDrivenRule:
    def test_cap_binds_on_idle_pool(self):
        """Unlike DT, a fresh burst into an empty buffer cannot buy more
        than the delay budget's worth of queue."""
        policy = DelayDrivenSharingPolicy(alpha=1.0, target_delay_steps=2.0)
        dt = DynamicThresholdPolicy(alpha=1.0)
        total = 4 * 1024 * 1024  # a paper-like 4 MB quadrant
        assert limits_for(policy, pool_used=0.0, total=total) == 2.0 * DRAIN
        assert limits_for(dt, pool_used=0.0, total=total) == total

    def test_converges_to_dt_under_contention(self):
        policy = DelayDrivenSharingPolicy(alpha=1.0, target_delay_steps=2.0)
        dt = DynamicThresholdPolicy(alpha=1.0)
        total = 4 * 1024 * 1024
        # Pool nearly full: DT share drops below the delay cap.
        busy = total - 0.25 * DRAIN
        assert limits_for(policy, pool_used=busy, total=total) == limits_for(
            dt, pool_used=busy, total=total
        )

    def test_explicit_drain_rate(self):
        policy = DelayDrivenSharingPolicy(target_delay_steps=3.0, drain_per_step=100.0)
        assert limits_for(policy, pool_used=0.0, total=1e9) == 300.0


class TestSharedHeadroomRule:
    def test_guarantees_quota_under_contention(self):
        """With the main pool saturated, DT grants ~nothing while the
        headroom policy still grants the over-subscribed quota."""
        policy = SharedHeadroomPoolPolicy(
            queues_per_quadrant=8, headroom_fraction=0.15, oversubscription=2.0
        )
        dt = DynamicThresholdPolicy(alpha=1.0)
        total = 1000.0
        main = 850.0
        assert limits_for(policy, pool_used=main, total=total) == pytest.approx(
            2.0 * 150.0 / 8
        )
        assert limits_for(dt, pool_used=main, total=total) == 150.0

    def test_isolates_when_idle(self):
        policy = SharedHeadroomPoolPolicy(queues_per_quadrant=8)
        dt = DynamicThresholdPolicy(alpha=1.0)
        assert limits_for(policy, pool_used=0.0) < limits_for(dt, pool_used=0.0)

    def test_headroom_exhaustion_clips_quota(self):
        policy = SharedHeadroomPoolPolicy(
            queues_per_quadrant=2, headroom_fraction=0.15, oversubscription=2.0
        )
        # Pool fully used: both main share and headroom grant collapse.
        assert limits_for(policy, pool_used=1000.0) == 0.0


class TestBatchKernelIdentity:
    """Each policy's vectorized ``limits_batch`` must be bit-identical to
    the per-run fallback loop (the acceptance bar for ``batch_limits``)."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_batch_matches_serial_loop(self, spec, rng):
        servers, quadrants, runs = 9, 4, 7
        policy = build_policy(
            spec, queues_per_quadrant=-(-servers // quadrants)
        )
        shared_total = 4 * 1024 * 1024.0
        quadrant = np.arange(servers) % quadrants
        pool_used = rng.uniform(0, shared_total, size=(runs, quadrants))
        queue_shared = rng.uniform(0, shared_total / servers, size=(runs, servers))
        active = rng.integers(0, 12, size=(runs, servers)).astype(np.float64)

        batched = policy.limits_batch(
            shared_total, pool_used, quadrant, queue_shared, active
        )
        looped = np.stack(
            [
                policy.limits(
                    shared_total, pool_used[run], quadrant, queue_shared[run], active[run]
                )
                for run in range(runs)
            ]
        )
        assert batched.shape == (runs, servers)
        assert np.array_equal(batched, looped), spec.name

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_base_fallback_agrees_when_flag_forced_off(self, spec, rng):
        """Flipping ``batch_limits`` off must not change a policy's
        numbers — the flag selects an implementation, not a model."""
        policy = build_policy(spec, queues_per_quadrant=3)
        shared_total = 1e6
        quadrant = np.array([0, 0, 1, 1, 2, 2])
        pool_used = rng.uniform(0, shared_total, size=(4, 3))
        queue_shared = rng.uniform(0, shared_total / 6, size=(4, 6))
        active = rng.integers(0, 9, size=(4, 6)).astype(np.float64)
        fast = policy.limits_batch(
            shared_total, pool_used, quadrant, queue_shared, active
        )
        policy.batch_limits = False
        slow = policy.limits_batch(
            shared_total, pool_used, quadrant, queue_shared, active
        )
        assert np.array_equal(fast, slow), spec.name
