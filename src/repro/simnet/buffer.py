"""Shared-memory switch buffer with policy-governed sharing.

Section 2.1: the buffer is shared across all interfaces; by default each
queue's instantaneous limit follows Choudhury-Hahne dynamic thresholds:

    T(t) = alpha * (B - Q(t))

where ``B`` is the shared buffer size and ``Q(t)`` the current total
shared occupancy.  With ``S`` queues simultaneously at their limit, the
fixed point is ``T = alpha*B / (1 + alpha*S)`` — Figure 1.

The admission rule is *delegated*: any
:class:`repro.fleet.policies.SharingPolicy` — the same objects the
fluid model ablates — can govern this buffer, so packet-level and fluid
experiments share one policy zoo.  The default remains DT at the
config's alpha, bit-identical to the pre-policy-axis behaviour.

This class models **one quadrant** of the ToR buffer (Section 3: the
16 MB buffer is divided into four 4 MB quadrants; an egress queue maps
to a single quadrant).  Each queue additionally has a small dedicated
allocation it consumes before touching the shared pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..config import BufferConfig
from ..errors import SimulationError
from ..fleet.policies import DynamicThresholdPolicy, SharingPolicy
from .audit import NOOP_TAP, active_tap


class BufferAdmission(NamedTuple):
    """Outcome of offering a packet to the buffer."""

    accepted: bool
    #: Bytes charged against the queue's dedicated allocation.
    dedicated_bytes: int = 0
    #: Bytes charged against the shared pool.
    shared_bytes: int = 0
    #: Human-readable reason when rejected.
    reason: str = ""


_tuple_new = tuple.__new__


@dataclass(slots=True)
class QueueState:
    """One queue's charges and counters inside a :class:`SharedBuffer`."""

    dedicated_used: int = 0
    shared_used: int = 0
    #: Bytes currently charged: ``dedicated_used + shared_used``, kept
    #: as a field so the ECN check at every enqueue is one read.
    occupancy: int = 0
    discarded_packets: int = 0
    discarded_bytes: int = 0
    admitted_bytes: int = 0
    #: Consecutive :meth:`SharedBuffer.tick` steps this queue has held
    #: bytes — the activity clock flow-aware policies key on.
    active_steps: int = 0


class SharedBuffer:
    """One shared buffer pool (a ToR quadrant) under a sharing policy."""

    def __init__(
        self,
        config: BufferConfig | None = None,
        policy: SharingPolicy | None = None,
    ) -> None:
        self.config = config or BufferConfig()
        #: Admission rule for the shared pool.  ``None`` keeps the
        #: deployed Choudhury-Hahne dynamic threshold at the config's
        #: alpha — the exact behaviour this class hard-coded before the
        #: policy became pluggable.
        self.policy = (
            policy
            if policy is not None
            else DynamicThresholdPolicy(alpha=self.config.alpha)
        )
        self._dedicated_cap = int(self.config.dedicated_bytes_per_queue)
        self._queues: dict[str, QueueState] = {}
        self._shared_occupancy = 0
        self._audit = active_tap()

    # -- registration -------------------------------------------------------

    def register_queue(self, queue_id: str) -> QueueState:
        """Add a queue; returns its live :class:`QueueState`, which the
        owner may read (never write) instead of asking by name."""
        if queue_id in self._queues:
            raise SimulationError(f"queue {queue_id!r} already registered")
        state = self._queues[queue_id] = QueueState()
        return state

    def _state(self, queue_id: str) -> QueueState:
        try:
            return self._queues[queue_id]
        except KeyError:
            raise SimulationError(f"unknown queue {queue_id!r}") from None

    # -- sharing policy ------------------------------------------------------

    @property
    def shared_occupancy(self) -> int:
        """Q(t): bytes currently drawn from the shared pool."""
        return self._shared_occupancy

    def threshold(self) -> float:
        """T(t) = alpha * (B - Q(t)): the classic dynamic threshold.

        Kept as the Figure-1 reference formula; admission itself asks
        :meth:`policy_limit`, which equals this number under the default
        DT policy.
        """
        free = self.config.shared_bytes - self._shared_occupancy
        return self.config.alpha * max(free, 0.0)

    def policy_limit(self, queue_id: str) -> float:
        """The active policy's shared-occupancy limit for ``queue_id``.

        Evaluates the fluid-model policy interface on this quadrant's
        state: one quadrant whose pool holds ``Q(t)``, the queue's own
        shared charge, and its activity clock.  Every built-in policy
        derives a queue's limit from exactly these quantities, so the
        single-queue evaluation is exact (and O(1) per admission).
        """
        state = self._state(queue_id)
        limit = self.policy.limits(
            float(self.config.shared_bytes),
            np.array([float(self._shared_occupancy)]),
            np.array([0]),
            np.array([float(state.shared_used)]),
            np.array([float(state.active_steps)]),
        )
        return float(limit[0])

    def tick(self) -> None:
        """Advance the policy's activity clock by one step.

        Queues holding bytes extend their consecutive-active streak;
        idle queues reset to zero — the same rule the fluid model
        applies per bucket.  Drivers that model time (the packet switch,
        parity harnesses) call this once per step; purely event-driven
        users may never call it, in which case every queue stays in the
        "fresh burst" class.
        """
        for state in self._queues.values():
            state.active_steps = state.active_steps + 1 if state.occupancy > 0 else 0

    def active_queues(self) -> int:
        """Queues currently holding any buffered bytes."""
        return sum(1 for state in self._queues.values() if state.occupancy > 0)

    def queue_occupancy(self, queue_id: str) -> int:
        return self._state(queue_id).occupancy

    def queue_active_steps(self, queue_id: str) -> int:
        """Consecutive ticks ``queue_id`` has held bytes."""
        return self._state(queue_id).active_steps

    # -- admission / release --------------------------------------------------

    def admit(self, queue_id: str, size: int) -> BufferAdmission:
        """Offer a packet of ``size`` bytes to ``queue_id``.

        Admission is atomic: dedicated space is consumed first; the
        remainder must fit under the queue's policy limit *and* in
        the remaining shared pool, else the whole packet is discarded.
        """
        if size <= 0:
            raise SimulationError("packet size must be positive")
        try:
            state = self._queues[queue_id]
        except KeyError:
            raise SimulationError(f"unknown queue {queue_id!r}") from None

        # min(size, max(dedicated free, 0)), by comparisons.
        from_dedicated = self._dedicated_cap - state.dedicated_used
        if from_dedicated > size:
            from_dedicated = size
        elif from_dedicated < 0:
            from_dedicated = 0
        from_shared = size - from_dedicated

        if from_shared > 0:
            limit = self.policy_limit(queue_id)
            pool_free = self.config.shared_bytes - self._shared_occupancy
            if state.shared_used + from_shared > limit:
                state.discarded_packets += 1
                state.discarded_bytes += size
                admission = BufferAdmission(
                    False,
                    reason=f"over {self.policy.name} limit ({limit:.0f}B)",
                )
                if self._audit is not NOOP_TAP:
                    self._audit.on_admit(self, queue_id, size, admission)
                return admission
            if from_shared > pool_free:
                state.discarded_packets += 1
                state.discarded_bytes += size
                admission = BufferAdmission(False, reason="shared pool exhausted")
                if self._audit is not NOOP_TAP:
                    self._audit.on_admit(self, queue_id, size, admission)
                return admission

        state.dedicated_used += from_dedicated
        state.shared_used += from_shared
        state.occupancy += size
        state.admitted_bytes += size
        self._shared_occupancy += from_shared
        # tuple.__new__ straight: the named tuple's own __new__ is a
        # Python function, one more call per admitted packet.
        admission = _tuple_new(BufferAdmission, (True, from_dedicated, from_shared, ""))
        if self._audit is not NOOP_TAP:
            self._audit.on_admit(self, queue_id, size, admission)
        return admission

    def release(self, queue_id: str, admission: BufferAdmission) -> None:
        """Return a previously admitted packet's bytes to the buffer."""
        if not admission.accepted:
            raise SimulationError("cannot release a rejected admission")
        try:
            state = self._queues[queue_id]
        except KeyError:
            raise SimulationError(f"unknown queue {queue_id!r}") from None
        dedicated = admission.dedicated_bytes
        shared = admission.shared_bytes
        if state.dedicated_used < dedicated or state.shared_used < shared:
            raise SimulationError(f"double release on queue {queue_id!r}")
        state.dedicated_used -= dedicated
        state.shared_used -= shared
        state.occupancy -= dedicated + shared
        self._shared_occupancy -= shared
        if self._audit is not NOOP_TAP:
            self._audit.on_release(self, queue_id, admission)

    # -- accounting -----------------------------------------------------------

    def discards(self, queue_id: str) -> tuple[int, int]:
        """(packets, bytes) discarded on ``queue_id`` so far."""
        state = self._state(queue_id)
        return state.discarded_packets, state.discarded_bytes

    def total_discard_bytes(self) -> int:
        return sum(state.discarded_bytes for state in self._queues.values())

    def total_admitted_bytes(self) -> int:
        return sum(state.admitted_bytes for state in self._queues.values())

    def reset_counters(self) -> None:
        """Zero discard/admission counters (per-minute counter rollover)."""
        for state in self._queues.values():
            state.discarded_packets = 0
            state.discarded_bytes = 0
            state.admitted_bytes = 0
        if self._audit is not NOOP_TAP:
            self._audit.on_reset_counters(self)
