"""Discrete-event simulation engine.

A classic event-heap design: callbacks scheduled at absolute simulated
times, executed in time order (FIFO among equal times).  All network
components share one engine; simulated time never runs backwards.

An event is a callback plus its positional arguments, stored as the
heap entry ``(time, seq, callback, args)``: components schedule bound
methods with the packet they act on (``engine.at(t, deliver, packet)``)
instead of wrapping each event in a fresh closure.

``now`` is a plain attribute that only the engine writes: every
component reads it at least once per event, so a property would be a
Python call on each read.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..errors import SimulationError
from .audit import NOOP_TAP, active_tap


class Engine:
    """Event loop with absolute simulated time in seconds."""

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time (seconds); read-only outside the engine.
        self.now = start_time
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._events_run = 0
        self._audit = active_tap()

    @property
    def events_run(self) -> int:
        return self._events_run

    @property
    def pending(self) -> int:
        return len(self._heap)

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now - 1e-15:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < now {self.now})"
            )
        if self._audit is not NOOP_TAP:
            self._audit.on_schedule(self, time)
        heapq.heappush(self._heap, (time, next(self._sequence), callback, args))

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError("delay cannot be negative")
        # Pushed here rather than through at(): a delay >= 0 is never
        # in the past, and this is the busiest scheduling path.
        time = self.now + delay
        if self._audit is not NOOP_TAP:
            self._audit.on_schedule(self, time)
        heapq.heappush(self._heap, (time, next(self._sequence), callback, args))

    def step(self) -> bool:
        """Run the next event; returns False when no events remain."""
        if not self._heap:
            return False
        time, _seq, callback, args = heapq.heappop(self._heap)
        if self._audit is not NOOP_TAP:
            self._audit.on_advance(self, time)
        self.now = time
        self._events_run += 1
        callback(*args)
        return True

    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        """Run events with time <= ``end_time``; advances ``now`` to
        ``end_time`` even if the heap empties earlier.

        The loop is :meth:`step` inlined: it pops and calls each due
        event itself, since the per-event method call would otherwise
        be a fixed share of every simulated packet's cost.
        """
        heap = self._heap
        pop = heapq.heappop
        audit = self._audit if self._audit is not NOOP_TAP else None
        # Counts down to 0 (exhausted) from the budget; None never gets there.
        remaining = -1 if max_events is None else max(max_events, 0)
        while heap and heap[0][0] <= end_time:
            if remaining == 0:
                raise SimulationError(f"event budget exhausted at t={self.now}")
            remaining -= 1
            time, _seq, callback, args = pop(heap)
            if audit is not None:
                audit.on_advance(self, time)
            self.now = time
            self._events_run += 1
            callback(*args)
        if end_time > self.now:
            self.now = end_time

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event heap is empty."""
        budget = max_events
        while self.step():
            budget -= 1
            if budget <= 0 and self._heap:
                raise SimulationError("event budget exhausted; likely a scheduling loop")
