"""Point-to-point link with serialization and propagation delay.

Used on the host-to-ToR direction (server egress), where the NIC rate
limits transmission; the ToR-to-host direction is rate-limited by the
egress queue drain instead.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SimulationError
from .engine import Engine
from .packet import Packet


class Link:
    """A simplex link: packets serialize at ``rate`` then propagate."""

    def __init__(
        self,
        engine: Engine,
        rate: float,
        propagation_delay: float = 1e-6,
        name: str = "",
    ) -> None:
        if rate <= 0:
            raise SimulationError("link rate must be positive")
        if propagation_delay < 0:
            raise SimulationError("propagation delay cannot be negative")
        self.engine = engine
        self.rate = rate
        self.propagation_delay = propagation_delay
        self.name = name
        self._busy_until = 0.0
        self.transmitted_bytes = 0
        self.transmitted_packets = 0

    def transmit(self, packet: Packet, deliver: Callable[[Packet], None]) -> float:
        """Queue the packet on the wire; returns its delivery time.

        Serialization starts when the link frees up (FIFO), so the link
        naturally models head-of-line queueing at the sender.
        """
        start = self.engine.now
        if self._busy_until > start:
            start = self._busy_until
        serialization = packet.size / self.rate
        self._busy_until = start + serialization
        delivery_time = self._busy_until + self.propagation_delay
        self.transmitted_bytes += packet.size
        self.transmitted_packets += 1
        self.engine.at(delivery_time, deliver, packet)
        return delivery_time

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def queueing_delay(self) -> float:
        """How long a packet offered now would wait before serializing."""
        return max(0.0, self._busy_until - self.engine.now)
