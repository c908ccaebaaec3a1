"""Property suite: packet-level and fluid-style admission agree per policy.

The tentpole guarantee of the policy layer is that the packet-level
:class:`SharedBuffer` and the fluid model evaluate the *same*
:class:`SharingPolicy` objects over the *same* state quantities.  This
suite drives random admit/release/tick traces through an audited
``SharedBuffer`` and, in lockstep, through a one-queue-per-server fluid
mirror — plain arrays maintained exactly as
:class:`~repro.fleet.buffermodel.FluidBufferModel` maintains them (one
quadrant pool, per-queue shared occupancy, consecutive-active clocks) —
and asserts that every shared-pool admission decision agrees: same
accept/reject verdict, same dedicated/shared split, and the auditor
sees no invariant violations under any registered policy.

Select the deterministic CI profile with HYPOTHESIS_PROFILE=ci.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BufferConfig
from repro.fleet.policies import build_policy, registered_policy_specs
from repro.simnet.audit import audited
from repro.simnet.buffer import SharedBuffer

QUEUES = ["q0", "q1", "q2", "q3"]
ALL_SPECS = registered_policy_specs()

#: (op, queue_index, size): op 0-2 = admit, op 3 = release the oldest
#: held admission on that queue, op 4 = advance the activity clock one
#: step (a fluid-model bucket boundary).
OPERATIONS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, len(QUEUES) - 1), st.integers(1, 600)),
    max_size=200,
)

CONFIGS = st.sampled_from(
    [
        # (shared, dedicated): all-shared and dedicated-first shapes.
        (1500, 0.0),
        (1500, 120.0),
    ]
)


class FluidMirror:
    """One-queue-per-server fluid-step state for ``n`` queues in one
    quadrant, evaluated through the same policy object the buffer uses."""

    def __init__(self, policy, config: BufferConfig, n: int) -> None:
        self.policy = policy
        self.config = config
        self.quadrant = np.zeros(n, dtype=np.int64)
        self.dedicated_used = np.zeros(n)
        self.shared_used = np.zeros(n)
        self.active_steps = np.zeros(n)

    @property
    def pool_used(self) -> float:
        return float(self.shared_used.sum())

    def limits(self) -> np.ndarray:
        """All queues' limits in one vectorized call, as the fluid
        loop evaluates them per bucket."""
        return self.policy.limits(
            float(self.config.shared_bytes),
            np.array([self.pool_used]),
            self.quadrant,
            self.shared_used,
            self.active_steps,
        )

    def admit(self, index: int, size: int):
        """(accepted, from_dedicated, from_shared) under the fluid rule."""
        dedicated_free = self.config.dedicated_bytes_per_queue - self.dedicated_used[index]
        from_dedicated = min(size, max(int(dedicated_free), 0))
        from_shared = size - from_dedicated
        if from_shared > 0:
            limit = self.limits()[index]
            pool_free = self.config.shared_bytes - self.pool_used
            if self.shared_used[index] + from_shared > limit:
                return False, 0, 0
            if from_shared > pool_free:
                return False, 0, 0
        self.dedicated_used[index] += from_dedicated
        self.shared_used[index] += from_shared
        return True, from_dedicated, from_shared

    def release(self, index: int, admission) -> None:
        self.dedicated_used[index] -= admission.dedicated_bytes
        self.shared_used[index] -= admission.shared_bytes

    def tick(self) -> None:
        occupancy = self.dedicated_used + self.shared_used
        self.active_steps = np.where(occupancy > 0, self.active_steps + 1, 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
@given(operations=OPERATIONS, config=CONFIGS)
@settings(max_examples=25)
def test_packet_and_fluid_admission_agree(spec, operations, config):
    shared, dedicated = config
    buffer_config = BufferConfig(
        shared_bytes=shared,
        dedicated_bytes_per_queue=dedicated,
        alpha=1.0,
        ecn_threshold_bytes=100,
    )
    policy = build_policy(spec, queues_per_quadrant=len(QUEUES))
    with audited() as auditor:
        buffer = SharedBuffer(buffer_config, policy=policy)
        mirror = FluidMirror(policy, buffer_config, len(QUEUES))
        held: dict[str, list] = {name: [] for name in QUEUES}
        for name in QUEUES:
            buffer.register_queue(name)
        for op, queue_index, size in operations:
            name = QUEUES[queue_index]
            if op <= 2:
                admission = buffer.admit(name, size)
                accepted, from_dedicated, from_shared = mirror.admit(queue_index, size)
                assert admission.accepted == accepted, spec.name
                if accepted:
                    assert admission.dedicated_bytes == from_dedicated
                    assert admission.shared_bytes == from_shared
                    held[name].append(admission)
            elif op == 3 and held[name]:
                admission = held[name].pop(0)
                buffer.release(name, admission)
                mirror.release(queue_index, admission)
            elif op == 4:
                buffer.tick()
                mirror.tick()
        # The two substrates hold identical state at the end of any trace.
        assert buffer.shared_occupancy == mirror.pool_used
        for index, name in enumerate(QUEUES):
            assert buffer.queue_occupancy(name) == (
                mirror.dedicated_used[index] + mirror.shared_used[index]
            )
            assert buffer.queue_active_steps(name) == mirror.active_steps[index]
    assert auditor.violations == []
