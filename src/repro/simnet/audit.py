"""Runtime invariant auditor for the packet-level simulator.

The paper's headline results (the RegA-Typical vs RegA-High loss
inversion, Figures 16-19) hinge on byte-accurate loss and occupancy
accounting in the shared-buffer model: one miscounted counter silently
skews every downstream figure.  This module automates the counter hunt
that earlier PRs did by hand, the way production buffer-model test rigs
validate Choudhury-Hahne threshold behaviour with invariant checks
rather than example-based tests alone.

Every auditable component (:class:`~repro.simnet.engine.Engine`,
:class:`~repro.simnet.buffer.SharedBuffer`,
:class:`~repro.simnet.queues.EgressQueue`,
:class:`~repro.simnet.switch.ToRSwitch`,
:class:`~repro.simnet.fabric.FabricSwitch`,
:class:`~repro.simnet.host.Host`) carries an :class:`AuditTap` whose
hooks it calls at each accounting event.  Components capture the active
tap at construction time, so an :class:`InvariantAuditor` must be
installed (via :func:`audited` or :func:`install`) *before* the
components are built.  Without one they hold the shared no-op
:data:`NOOP_TAP` and skip every hook call: the unaudited cost is one
identity test per hook site.

Laws continuously checked while enabled:

* **engine.monotonic-time / engine.no-past-scheduling** — simulated
  time never moves backwards; no event is scheduled before the
  auditor's high-water mark of time.
* **buffer.admission-split** — an accepted admission's dedicated and
  shared charges sum to the packet size.
* **buffer.policy-limit** — every admission decision is consistent with
  an independent re-evaluation of the buffer's sharing policy (any
  registered :class:`~repro.fleet.policies.SharingPolicy`, not just the
  dynamic threshold): accepted shared charges fit under the recomputed
  limit, limit rejections truly exceed it, and the rejection reason
  names the active policy.
* **buffer.shared-occupancy-sync** — the pool's reported
  ``shared_occupancy`` equals the sum of outstanding shared charges
  (``Q(t) = Σ per-queue shared_used``) and never goes negative.
* **buffer.queue-occupancy-sync / buffer.nonnegative** — each queue's
  reported occupancy equals its outstanding charges; no shadow counter
  is ever negative.
* **buffer.dedicated-cap** — no queue's dedicated usage exceeds
  ``dedicated_bytes_per_queue``.
* **buffer.admitted-accounting / buffer.discard-accounting** — the
  buffer's cumulative admitted/discarded byte counters match the bytes
  the auditor saw admitted/discarded (reset together with
  ``reset_counters``).
* **buffer.release-once** — every accepted :class:`BufferAdmission` is
  released exactly once, on the queue that admitted it.
* **queue.occupancy-match** — an egress queue's buffered packet bytes
  equal the buffer charge for that queue after every enqueue/dequeue.
* **switch.ingress/forward/discard/ecn-accounting** — the ToR counters
  advance exactly with the packets the switch processed; in particular
  ``ecn_marked_bytes`` only counts marked packets that were actually
  enqueued (a marked-then-discarded packet must not count).
* **switch.byte-conservation** (on :meth:`InvariantAuditor.verify`) —
  ingress bytes = locally enqueued + routed up + multicast-processed;
  forwarded + discarded = bytes offered to local queues; outstanding
  admission bytes = current buffer occupancy (the in-flight term).
* **host.sent/received-accounting, host.delivery-routing** — host byte
  counters advance with traffic and delivered packets are addressed to
  the receiving host.

Violations raise a structured
:class:`~repro.errors.InvariantViolation` and are counted on the
attached :class:`~repro.obs.metrics.Metrics` registry
(``audit.violations``; ``audit.events`` / ``audit.checks`` totals are
flushed on :meth:`InvariantAuditor.verify`), so orchestrated runs with
``--manifest`` record audit totals machine-readably.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..obs.metrics import Metrics
    from .buffer import BufferAdmission, SharedBuffer
    from .engine import Engine
    from .fabric import FabricSwitch
    from .host import Host
    from .packet import Packet
    from .queues import EgressQueue
    from .switch import ToRSwitch

#: Slack for float time comparisons (engine uses the same epsilon).
_TIME_EPS = 1e-15


class AuditTap:
    """No-op audit hooks: the interface every auditor implements.

    A component calls a hook only when the tap it captured at
    construction is not the shared :data:`NOOP_TAP`
    (``if self._audit is not NOOP_TAP: ...``), so with auditing off
    each hook site costs one identity test and no call (about 4.4 per
    simulated event in the packet-incast benchmark).
    """

    __slots__ = ()

    # -- engine ---------------------------------------------------------------

    def on_schedule(self, engine: "Engine", time: float) -> None:
        pass

    def on_advance(self, engine: "Engine", time: float) -> None:
        pass

    # -- shared buffer --------------------------------------------------------

    def on_admit(
        self, buffer: "SharedBuffer", queue_id: str, size: int, admission: "BufferAdmission"
    ) -> None:
        pass

    def on_release(
        self, buffer: "SharedBuffer", queue_id: str, admission: "BufferAdmission"
    ) -> None:
        pass

    def on_reset_counters(self, buffer: "SharedBuffer") -> None:
        pass

    # -- egress queue ---------------------------------------------------------

    def on_enqueue(self, queue: "EgressQueue", packet: "Packet") -> None:
        pass

    def on_dequeue(self, queue: "EgressQueue", packet: "Packet") -> None:
        pass

    # -- ToR switch -----------------------------------------------------------

    def on_switch_ingress(self, switch: "ToRSwitch", packet: "Packet", kind: str) -> None:
        pass

    def on_switch_enqueue(
        self, switch: "ToRSwitch", server: str, packet: "Packet", admitted: bool, marked: bool
    ) -> None:
        pass

    def on_multicast_rate_drop(self, switch: "ToRSwitch", packet: "Packet") -> None:
        pass

    # -- fabric ---------------------------------------------------------------

    def on_fabric_enqueue(
        self, fabric: "FabricSwitch", rack_name: str, packet: "Packet", admitted: bool
    ) -> None:
        pass

    # -- host -----------------------------------------------------------------

    def on_host_send(self, host: "Host", packet: "Packet") -> None:
        pass

    def on_host_deliver(self, host: "Host", packet: "Packet") -> None:
        pass


#: The shared disabled tap every component defaults to.
NOOP_TAP = AuditTap()

_active: list["InvariantAuditor"] = []
_active_lock = threading.Lock()


def active_tap() -> AuditTap:
    """The tap newly constructed components should carry."""
    with _active_lock:
        return _active[-1] if _active else NOOP_TAP


def install(auditor: "InvariantAuditor") -> None:
    """Make ``auditor`` the active tap for components built from now on."""
    with _active_lock:
        _active.append(auditor)


def uninstall(auditor: "InvariantAuditor") -> None:
    """Remove one installation of ``auditor`` (components keep their tap)."""
    with _active_lock:
        for index in range(len(_active) - 1, -1, -1):
            if _active[index] is auditor:
                del _active[index]
                return
    raise InvariantViolation(
        component="audit",
        law="audit.install-balance",
        observed="uninstall of an auditor that is not installed",
        expected="install/uninstall calls paired",
    )


@contextmanager
def audited(auditor: "InvariantAuditor | None" = None) -> Iterator["InvariantAuditor"]:
    """Scope in which newly built simnet components are audited.

    On clean exit the auditor's :meth:`~InvariantAuditor.verify` runs,
    so end-of-run conservation (occupancy vs outstanding admissions,
    switch byte balance) is checked without an explicit call.  If the
    body raises, verification is skipped so the original error surfaces.
    """
    auditor = auditor if auditor is not None else InvariantAuditor()
    install(auditor)
    try:
        yield auditor
    finally:
        uninstall(auditor)
    auditor.verify()


# -- shadow state ---------------------------------------------------------


@dataclass
class _EngineShadow:
    high_water_time: float = float("-inf")


@dataclass
class _BufferShadow:
    #: Outstanding shared/dedicated charges per queue (admit - release).
    shared: dict[str, int] = field(default_factory=dict)
    dedicated: dict[str, int] = field(default_factory=dict)
    shared_total: int = 0
    #: Cumulative counter shadows (zeroed by reset_counters).
    admitted_total: int = 0
    discarded_total: int = 0
    #: id(admission) -> (queue_id, admission); the strong reference keeps
    #: an outstanding admission alive so its id cannot be reused.
    outstanding: dict[int, tuple[str, "BufferAdmission"]] = field(default_factory=dict)


@dataclass
class _QueueShadow:
    fifo_bytes: int = 0
    fifo_packets: int = 0


@dataclass
class _SwitchShadow:
    ingress: int = 0
    local_bytes: int = 0
    routed_up_bytes: int = 0
    multicast_in_bytes: int = 0
    enqueue_attempt_bytes: int = 0
    forwarded: int = 0
    discarded: int = 0
    discarded_packets: int = 0
    ecn_marked: int = 0
    rate_drops: int = 0


@dataclass
class _FabricShadow:
    forwarded: int = 0
    discarded: int = 0


@dataclass
class _HostShadow:
    sent: int = 0
    received: int = 0


class InvariantAuditor(AuditTap):
    """Checks conservation laws on every accounting event it observes.

    Thread-safe: one auditor may watch components built on several
    threads (the query service's request threads share one context).
    Violations are recorded on :attr:`violations`, counted on the
    metrics registry, and raised as
    :class:`~repro.errors.InvariantViolation` unless
    ``raise_on_violation`` is False.
    """

    def __init__(self, metrics: "Metrics | None" = None, raise_on_violation: bool = True) -> None:
        self.metrics = metrics
        self.raise_on_violation = raise_on_violation
        self.violations: list[InvariantViolation] = []
        self.events = 0
        self.checks = 0
        self._flushed_events = 0
        self._flushed_checks = 0
        self._lock = threading.RLock()
        self._engines: dict["Engine", _EngineShadow] = {}
        self._buffers: dict["SharedBuffer", _BufferShadow] = {}
        self._queues: dict["EgressQueue", _QueueShadow] = {}
        self._switches: dict["ToRSwitch", _SwitchShadow] = {}
        self._fabrics: dict["FabricSwitch", _FabricShadow] = {}
        self._hosts: dict["Host", _HostShadow] = {}

    # -- violation plumbing -------------------------------------------------

    def _violate(
        self,
        component: str,
        law: str,
        observed: object,
        expected: object,
        sim_time: float | None = None,
        detail: str = "",
    ) -> None:
        violation = InvariantViolation(
            component=component,
            law=law,
            observed=observed,
            expected=expected,
            sim_time=sim_time,
            detail=detail,
        )
        self.violations.append(violation)
        if self.metrics is not None:
            self.metrics.incr("audit.violations")
        if self.raise_on_violation:
            raise violation

    def _check(
        self,
        condition: bool,
        component: str,
        law: str,
        observed: object,
        expected: object,
        sim_time: float | None = None,
        detail: str = "",
    ) -> None:
        self.checks += 1
        if not condition:
            self._violate(component, law, observed, expected, sim_time, detail)

    # -- engine -------------------------------------------------------------

    def _engine_shadow(self, engine: "Engine") -> _EngineShadow:
        shadow = self._engines.get(engine)
        if shadow is None:
            shadow = self._engines[engine] = _EngineShadow()
        return shadow

    def on_schedule(self, engine: "Engine", time: float) -> None:
        with self._lock:
            self.events += 1
            shadow = self._engine_shadow(engine)
            shadow.high_water_time = max(shadow.high_water_time, engine.now)
            self._check(
                time >= shadow.high_water_time - _TIME_EPS,
                component="engine",
                law="engine.no-past-scheduling",
                observed=time,
                expected=f">= {shadow.high_water_time}",
                sim_time=engine.now,
                detail="event scheduled before the audited time high-water mark",
            )

    def on_advance(self, engine: "Engine", time: float) -> None:
        with self._lock:
            self.events += 1
            shadow = self._engine_shadow(engine)
            self._check(
                time >= shadow.high_water_time - _TIME_EPS,
                component="engine",
                law="engine.monotonic-time",
                observed=time,
                expected=f">= {shadow.high_water_time}",
                sim_time=engine.now,
                detail="simulated time moved backwards",
            )
            shadow.high_water_time = max(shadow.high_water_time, time)

    # -- shared buffer ------------------------------------------------------

    def _buffer_shadow(self, buffer: "SharedBuffer") -> _BufferShadow:
        shadow = self._buffers.get(buffer)
        if shadow is None:
            shadow = self._buffers[buffer] = _BufferShadow()
        return shadow

    def _check_buffer_sync(
        self, buffer: "SharedBuffer", shadow: _BufferShadow, queue_id: str
    ) -> None:
        """Per-event O(1) consistency between shadow and reported state."""
        dedicated = shadow.dedicated.get(queue_id, 0)
        shared = shadow.shared.get(queue_id, 0)
        self._check(
            dedicated >= 0 and shared >= 0 and shadow.shared_total >= 0,
            component=f"buffer[{queue_id}]",
            law="buffer.nonnegative",
            observed=(dedicated, shared, shadow.shared_total),
            expected="all charges >= 0",
        )
        self._check(
            buffer.shared_occupancy == shadow.shared_total,
            component="buffer",
            law="buffer.shared-occupancy-sync",
            observed=buffer.shared_occupancy,
            expected=shadow.shared_total,
            detail="reported Q(t) drifted from the sum of outstanding shared charges",
        )
        self._check(
            buffer.queue_occupancy(queue_id) == dedicated + shared,
            component=f"buffer[{queue_id}]",
            law="buffer.queue-occupancy-sync",
            observed=buffer.queue_occupancy(queue_id),
            expected=dedicated + shared,
        )
        cap = int(buffer.config.dedicated_bytes_per_queue)
        self._check(
            dedicated <= cap,
            component=f"buffer[{queue_id}]",
            law="buffer.dedicated-cap",
            observed=dedicated,
            expected=f"<= {cap}",
        )
        self._check(
            buffer.total_admitted_bytes() == shadow.admitted_total,
            component="buffer",
            law="buffer.admitted-accounting",
            observed=buffer.total_admitted_bytes(),
            expected=shadow.admitted_total,
        )
        self._check(
            buffer.total_discard_bytes() == shadow.discarded_total,
            component="buffer",
            law="buffer.discard-accounting",
            observed=buffer.total_discard_bytes(),
            expected=shadow.discarded_total,
        )

    def _buffer_policy_limit(
        self, buffer: "SharedBuffer", pool_used: int, queue_shared: int, queue_id: str
    ) -> float:
        """Re-evaluate the buffer's sharing policy from shadow state.

        Uses the auditor's own (pre-decision) occupancy shadows rather
        than the buffer's reported state, so a buffer that corrupted its
        accounting *and* its threshold together still trips the law.
        """
        limit = buffer.policy.limits(
            float(buffer.config.shared_bytes),
            np.array([float(pool_used)]),
            np.array([0]),
            np.array([float(queue_shared)]),
            np.array([float(buffer.queue_active_steps(queue_id))]),
        )
        return float(limit[0])

    def on_admit(
        self, buffer: "SharedBuffer", queue_id: str, size: int, admission: "BufferAdmission"
    ) -> None:
        with self._lock:
            self.events += 1
            shadow = self._buffer_shadow(buffer)
            if admission.accepted:
                self._check(
                    admission.dedicated_bytes + admission.shared_bytes == size,
                    component=f"buffer[{queue_id}]",
                    law="buffer.admission-split",
                    observed=admission.dedicated_bytes + admission.shared_bytes,
                    expected=size,
                    detail="dedicated + shared charges must equal the packet size",
                )
                if admission.shared_bytes > 0:
                    pre_queue = shadow.shared.get(queue_id, 0)
                    limit = self._buffer_policy_limit(
                        buffer, shadow.shared_total, pre_queue, queue_id
                    )
                    self._check(
                        pre_queue + admission.shared_bytes <= limit,
                        component=f"buffer[{queue_id}]",
                        law="buffer.policy-limit",
                        observed=pre_queue + admission.shared_bytes,
                        expected=f"<= {limit:.0f} under {buffer.policy.name}",
                        detail="accepted shared charge exceeds the policy's limit",
                    )
                shadow.dedicated[queue_id] = (
                    shadow.dedicated.get(queue_id, 0) + admission.dedicated_bytes
                )
                shadow.shared[queue_id] = shadow.shared.get(queue_id, 0) + admission.shared_bytes
                shadow.shared_total += admission.shared_bytes
                shadow.admitted_total += size
                shadow.outstanding[id(admission)] = (queue_id, admission)
            else:
                self._check(
                    admission.dedicated_bytes == 0 and admission.shared_bytes == 0,
                    component=f"buffer[{queue_id}]",
                    law="buffer.admission-split",
                    observed=(admission.dedicated_bytes, admission.shared_bytes),
                    expected=(0, 0),
                    detail="a rejected admission must charge nothing",
                )
                if admission.reason.startswith("over "):
                    self._check(
                        buffer.policy.name in admission.reason,
                        component=f"buffer[{queue_id}]",
                        law="buffer.policy-limit",
                        observed=admission.reason,
                        expected=f"reason naming policy {buffer.policy.name!r}",
                        detail="limit rejection must name the active policy",
                    )
                    cap = int(buffer.config.dedicated_bytes_per_queue)
                    dedicated_free = max(cap - shadow.dedicated.get(queue_id, 0), 0)
                    from_shared = size - min(size, dedicated_free)
                    pre_queue = shadow.shared.get(queue_id, 0)
                    limit = self._buffer_policy_limit(
                        buffer, shadow.shared_total, pre_queue, queue_id
                    )
                    self._check(
                        from_shared > 0 and pre_queue + from_shared > limit,
                        component=f"buffer[{queue_id}]",
                        law="buffer.policy-limit",
                        observed=pre_queue + from_shared,
                        expected=f"> {limit:.0f} under {buffer.policy.name}",
                        detail=(
                            "policy-limit rejection, but the shared charge fits "
                            "under the recomputed limit"
                        ),
                    )
                shadow.discarded_total += size
            self._check_buffer_sync(buffer, shadow, queue_id)

    def on_release(
        self, buffer: "SharedBuffer", queue_id: str, admission: "BufferAdmission"
    ) -> None:
        with self._lock:
            self.events += 1
            shadow = self._buffer_shadow(buffer)
            entry = shadow.outstanding.pop(id(admission), None)
            if entry is None:
                self._violate(
                    component=f"buffer[{queue_id}]",
                    law="buffer.release-once",
                    observed="release of an admission that is not outstanding",
                    expected="every admission released exactly once",
                    detail="double release, or release of an admission this auditor never saw",
                )
                return
            admitted_queue, _kept = entry
            self._check(
                admitted_queue == queue_id,
                component=f"buffer[{queue_id}]",
                law="buffer.release-once",
                observed=queue_id,
                expected=admitted_queue,
                detail="admission released on a different queue than admitted it",
            )
            shadow.dedicated[admitted_queue] = (
                shadow.dedicated.get(admitted_queue, 0) - admission.dedicated_bytes
            )
            shadow.shared[admitted_queue] = (
                shadow.shared.get(admitted_queue, 0) - admission.shared_bytes
            )
            shadow.shared_total -= admission.shared_bytes
            self._check_buffer_sync(buffer, shadow, queue_id)

    def on_reset_counters(self, buffer: "SharedBuffer") -> None:
        with self._lock:
            self.events += 1
            shadow = self._buffer_shadow(buffer)
            shadow.admitted_total = 0
            shadow.discarded_total = 0
            self._check(
                buffer.total_admitted_bytes() == 0 and buffer.total_discard_bytes() == 0,
                component="buffer",
                law="buffer.admitted-accounting",
                observed=(buffer.total_admitted_bytes(), buffer.total_discard_bytes()),
                expected=(0, 0),
                detail="reset_counters must zero the cumulative counters",
            )

    # -- egress queue -------------------------------------------------------

    def _queue_shadow(self, queue: "EgressQueue") -> _QueueShadow:
        shadow = self._queues.get(queue)
        if shadow is None:
            shadow = self._queues[queue] = _QueueShadow()
        return shadow

    def _check_queue_sync(self, queue: "EgressQueue", shadow: _QueueShadow) -> None:
        self._check(
            shadow.fifo_bytes == queue.buffer.queue_occupancy(queue.queue_id),
            component=f"queue[{queue.queue_id}]",
            law="queue.occupancy-match",
            observed=queue.buffer.queue_occupancy(queue.queue_id),
            expected=shadow.fifo_bytes,
            sim_time=queue.engine.now,
            detail="buffered packet bytes drifted from the buffer charge",
        )
        self._check(
            shadow.fifo_packets == len(queue),
            component=f"queue[{queue.queue_id}]",
            law="queue.occupancy-match",
            observed=len(queue),
            expected=shadow.fifo_packets,
            sim_time=queue.engine.now,
        )

    def on_enqueue(self, queue: "EgressQueue", packet: "Packet") -> None:
        with self._lock:
            self.events += 1
            shadow = self._queue_shadow(queue)
            shadow.fifo_bytes += packet.size
            shadow.fifo_packets += 1
            self._check_queue_sync(queue, shadow)

    def on_dequeue(self, queue: "EgressQueue", packet: "Packet") -> None:
        with self._lock:
            self.events += 1
            shadow = self._queue_shadow(queue)
            shadow.fifo_bytes -= packet.size
            shadow.fifo_packets -= 1
            self._check_queue_sync(queue, shadow)

    # -- ToR switch ---------------------------------------------------------

    def _switch_shadow(self, switch: "ToRSwitch") -> _SwitchShadow:
        shadow = self._switches.get(switch)
        if shadow is None:
            shadow = self._switches[switch] = _SwitchShadow()
        return shadow

    def on_switch_ingress(self, switch: "ToRSwitch", packet: "Packet", kind: str) -> None:
        with self._lock:
            self.events += 1
            shadow = self._switch_shadow(switch)
            shadow.ingress += packet.size
            if kind == "local":
                shadow.local_bytes += packet.size
            elif kind == "uplink":
                shadow.routed_up_bytes += packet.size
            else:
                shadow.multicast_in_bytes += packet.size
            self._check(
                switch.counters.ingress_bytes == shadow.ingress,
                component="switch",
                law="switch.ingress-accounting",
                observed=switch.counters.ingress_bytes,
                expected=shadow.ingress,
                sim_time=switch.engine.now,
            )

    def on_switch_enqueue(
        self, switch: "ToRSwitch", server: str, packet: "Packet", admitted: bool, marked: bool
    ) -> None:
        with self._lock:
            self.events += 1
            shadow = self._switch_shadow(switch)
            shadow.enqueue_attempt_bytes += packet.size
            if admitted:
                shadow.forwarded += packet.size
                if marked:
                    shadow.ecn_marked += packet.size
            else:
                shadow.discarded += packet.size
                shadow.discarded_packets += 1
            counters = switch.counters
            now = switch.engine.now
            self._check(
                counters.forwarded_bytes == shadow.forwarded,
                component=f"switch[{server}]",
                law="switch.forward-accounting",
                observed=counters.forwarded_bytes,
                expected=shadow.forwarded,
                sim_time=now,
            )
            self._check(
                counters.discard_bytes == shadow.discarded
                and counters.discard_packets == shadow.discarded_packets,
                component=f"switch[{server}]",
                law="switch.discard-accounting",
                observed=(counters.discard_bytes, counters.discard_packets),
                expected=(shadow.discarded, shadow.discarded_packets),
                sim_time=now,
            )
            self._check(
                counters.ecn_marked_bytes == shadow.ecn_marked,
                component=f"switch[{server}]",
                law="switch.ecn-accounting",
                observed=counters.ecn_marked_bytes,
                expected=shadow.ecn_marked,
                sim_time=now,
                detail="ecn_marked_bytes must count only marked packets that "
                "were actually enqueued",
            )

    def on_multicast_rate_drop(self, switch: "ToRSwitch", packet: "Packet") -> None:
        with self._lock:
            self.events += 1
            shadow = self._switch_shadow(switch)
            shadow.rate_drops += 1
            self._check(
                switch.counters.multicast_rate_drops == shadow.rate_drops,
                component="switch",
                law="switch.multicast-accounting",
                observed=switch.counters.multicast_rate_drops,
                expected=shadow.rate_drops,
                sim_time=switch.engine.now,
            )

    # -- fabric -------------------------------------------------------------

    def on_fabric_enqueue(
        self, fabric: "FabricSwitch", rack_name: str, packet: "Packet", admitted: bool
    ) -> None:
        with self._lock:
            self.events += 1
            shadow = self._fabrics.get(fabric)
            if shadow is None:
                shadow = self._fabrics[fabric] = _FabricShadow()
            if admitted:
                shadow.forwarded += packet.size
            else:
                shadow.discarded += packet.size
            self._check(
                fabric.forwarded_bytes == shadow.forwarded
                and fabric.discard_bytes == shadow.discarded,
                component=f"fabric[{rack_name}]",
                law="fabric.byte-conservation",
                observed=(fabric.forwarded_bytes, fabric.discard_bytes),
                expected=(shadow.forwarded, shadow.discarded),
                sim_time=fabric.engine.now,
            )

    # -- host ---------------------------------------------------------------

    def on_host_send(self, host: "Host", packet: "Packet") -> None:
        with self._lock:
            self.events += 1
            shadow = self._hosts.get(host)
            if shadow is None:
                shadow = self._hosts[host] = _HostShadow()
            shadow.sent += packet.size
            self._check(
                host.sent_bytes == shadow.sent,
                component=f"host[{host.name}]",
                law="host.sent-accounting",
                observed=host.sent_bytes,
                expected=shadow.sent,
                sim_time=host.engine.now,
            )

    def on_host_deliver(self, host: "Host", packet: "Packet") -> None:
        with self._lock:
            self.events += 1
            shadow = self._hosts.get(host)
            if shadow is None:
                shadow = self._hosts[host] = _HostShadow()
            shadow.received += packet.size
            self._check(
                packet.dst == host.name,
                component=f"host[{host.name}]",
                law="host.delivery-routing",
                observed=packet.dst,
                expected=host.name,
                sim_time=host.engine.now,
                detail="packet delivered to a host it is not addressed to",
            )
            self._check(
                host.received_bytes == shadow.received,
                component=f"host[{host.name}]",
                law="host.received-accounting",
                observed=host.received_bytes,
                expected=shadow.received,
                sim_time=host.engine.now,
            )

    # -- end-of-run verification --------------------------------------------

    def verify(self) -> None:
        """Full-state conservation checks plus a metrics flush.

        Safe to call repeatedly (the orchestrator calls it after every
        audited experiment); per-event shadows are cumulative, so each
        call re-verifies the current global state.
        """
        with self._lock:
            for buffer, shadow in self._buffers.items():
                outstanding_by_queue: dict[str, int] = {}
                outstanding_shared = 0
                for queue_id, admission in shadow.outstanding.values():
                    outstanding_by_queue[queue_id] = (
                        outstanding_by_queue.get(queue_id, 0)
                        + admission.dedicated_bytes
                        + admission.shared_bytes
                    )
                    outstanding_shared += admission.shared_bytes
                self._check(
                    buffer.shared_occupancy == outstanding_shared,
                    component="buffer",
                    law="buffer.shared-occupancy-sync",
                    observed=buffer.shared_occupancy,
                    expected=outstanding_shared,
                    detail="Q(t) must equal the shared bytes of outstanding admissions",
                )
                for queue_id, in_flight in outstanding_by_queue.items():
                    self._check(
                        buffer.queue_occupancy(queue_id) == in_flight,
                        component=f"buffer[{queue_id}]",
                        law="buffer.queue-occupancy-sync",
                        observed=buffer.queue_occupancy(queue_id),
                        expected=in_flight,
                        detail="occupancy must equal in-flight admission bytes",
                    )
            for switch, sw in self._switches.items():
                self._check(
                    sw.ingress == sw.local_bytes + sw.routed_up_bytes + sw.multicast_in_bytes,
                    component="switch",
                    law="switch.byte-conservation",
                    observed=sw.ingress,
                    expected=sw.local_bytes + sw.routed_up_bytes + sw.multicast_in_bytes,
                    detail="every ingress byte must be locally enqueued, routed up, "
                    "or multicast-processed",
                )
                self._check(
                    sw.forwarded + sw.discarded == sw.enqueue_attempt_bytes,
                    component="switch",
                    law="switch.byte-conservation",
                    observed=sw.forwarded + sw.discarded,
                    expected=sw.enqueue_attempt_bytes,
                    detail="bytes offered to local queues must be forwarded or discarded",
                )
            self._flush_metrics()

    def _flush_metrics(self) -> None:
        if self.metrics is None:
            return
        if self.events > self._flushed_events:
            self.metrics.incr("audit.events", self.events - self._flushed_events)
            self._flushed_events = self.events
        if self.checks > self._flushed_checks:
            self.metrics.incr("audit.checks", self.checks - self._flushed_checks)
            self._flushed_checks = self.checks
