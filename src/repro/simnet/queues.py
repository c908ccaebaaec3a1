"""Egress queue: FIFO drain of buffered packets onto a server link.

Each server behind the ToR maps to one egress queue (Section 2.1.2);
the queue holds admitted packets (their buffer bytes stay charged until
dequeue) and drains at the server link rate.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..errors import SimulationError
from .audit import NOOP_TAP, active_tap
from .buffer import BufferAdmission, SharedBuffer
from .engine import Engine
from .packet import Packet


class EgressQueue:
    """One ToR egress queue draining to a server at ``rate`` bytes/s."""

    def __init__(
        self,
        engine: Engine,
        buffer: SharedBuffer,
        queue_id: str,
        rate: float,
        on_dequeue: Callable[[Packet], None],
        propagation_delay: float = 1e-6,
    ) -> None:
        if rate <= 0:
            raise SimulationError("drain rate must be positive")
        self.engine = engine
        self.buffer = buffer
        self.queue_id = queue_id
        self.rate = rate
        self.on_dequeue = on_dequeue
        self.propagation_delay = propagation_delay
        #: This queue's live charge record in the buffer.
        self.charge = buffer.register_queue(queue_id)
        self._fifo: deque[tuple[Packet, BufferAdmission]] = deque()
        self._draining = False
        self.dequeued_bytes = 0
        self.dequeued_packets = 0
        self._audit = active_tap()

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def occupancy(self) -> int:
        """Buffered bytes currently charged to this queue."""
        return self.charge.occupancy

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet; returns False (and counts a discard) when the
        buffer refuses it."""
        admission = self.buffer.admit(self.queue_id, packet.size)
        if not admission.accepted:
            return False
        packet.enqueued_at = self.engine.now
        self._fifo.append((packet, admission))
        if self._audit is not NOOP_TAP:
            self._audit.on_enqueue(self, packet)
        if not self._draining:
            # The queue was empty, so this packet is the head: start
            # draining it.
            self._draining = True
            self.engine.after(packet.size / self.rate, self._finish_dequeue, packet, admission)
        return True

    def _finish_dequeue(self, packet: Packet, admission: BufferAdmission) -> None:
        fifo = self._fifo
        head, head_admission = fifo.popleft()
        if head is not packet or head_admission is not admission:
            raise SimulationError("egress queue drained out of order")
        self.buffer.release(self.queue_id, admission)
        self.dequeued_bytes += packet.size
        self.dequeued_packets += 1
        if self._audit is not NOOP_TAP:
            self._audit.on_dequeue(self, packet)
        # Deliver after propagation; keep draining immediately.
        self.engine.after(self.propagation_delay, self.on_dequeue, packet)
        if fifo:
            head, head_admission = fifo[0]
            self.engine.after(head.size / self.rate, self._finish_dequeue, head, head_admission)
        else:
            self._draining = False
