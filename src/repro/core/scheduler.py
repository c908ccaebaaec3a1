"""Periodic run scheduling with SyncMillisampler priority (Section 4.4).

Each host's user-space agent schedules periodic Millisampler runs.
SyncMillisampler requests are scheduled "far enough in advance that no
run will be active", and scheduled sync runs take priority over
periodic collection.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from ..errors import SamplerError


@dataclass(frozen=True, order=True)
class ScheduledRun:
    """A pending run request on one host's schedule."""

    start_time: float
    #: Lower sorts first at equal start time; sync runs use priority 0,
    #: periodic runs 1, so sync wins ties.
    priority: int = 1
    sync_id: str = ""

    @property
    def is_sync(self) -> bool:
        return self.priority == 0


class RunScheduler:
    """A host's run calendar.

    Decides, for each moment, whether a run should start — enforcing
    that runs never overlap and that sync requests displace conflicting
    periodic runs.
    """

    def __init__(self, period: float, run_duration: float, first_start: float = 0.0) -> None:
        if period <= 0:
            raise SamplerError("period must be positive")
        if run_duration <= 0:
            raise SamplerError("run duration must be positive")
        if run_duration > period:
            raise SamplerError("run duration cannot exceed the scheduling period")
        self.period = period
        self.run_duration = run_duration
        self._heap: list[tuple[float, int, int, ScheduledRun]] = []
        self._tiebreak = itertools.count()
        self._next_periodic = first_start
        self._busy_until = float("-inf")

    def request_sync_run(self, start_time: float, sync_id: str, now: float) -> None:
        """Schedule a SyncMillisampler run.

        The control plane must schedule far enough ahead that no periodic
        run will be active at ``start_time``; a request inside a window
        that could already be busy is rejected.
        """
        if start_time <= now:
            raise SamplerError("sync runs must be scheduled in the future")
        if start_time < self._busy_until:
            raise SamplerError("sync run conflicts with an active run; schedule further ahead")
        entry = ScheduledRun(start_time=start_time, priority=0, sync_id=sync_id)
        heapq.heappush(self._heap, (start_time, 0, next(self._tiebreak), entry))

    def next_run(self, now: float) -> ScheduledRun | None:
        """The run (if any) that should begin at or before ``now``.

        Periodic runs are generated lazily on their cadence; any
        periodic run that would overlap a scheduled sync run is skipped
        (sync has priority).
        """
        # Materialize due periodic runs.
        while self._next_periodic <= now:
            entry = ScheduledRun(start_time=self._next_periodic, priority=1)
            heapq.heappush(
                self._heap, (entry.start_time, entry.priority, next(self._tiebreak), entry)
            )
            self._next_periodic += self.period

        while self._heap:
            start, _priority, _tb, entry = self._heap[0]
            if start > now:
                return None
            heapq.heappop(self._heap)
            if start < self._busy_until:
                continue  # displaced by a run already in progress
            if not entry.is_sync and self._sync_conflict(entry):
                continue  # periodic run yields to an upcoming sync run
            self._busy_until = start + self.run_duration
            return entry
        return None

    def _sync_conflict(self, periodic: ScheduledRun) -> bool:
        """Would running ``periodic`` now overlap any scheduled sync run?"""
        window_end = periodic.start_time + self.run_duration
        return any(
            entry.is_sync and entry.start_time < window_end
            for _s, _p, _t, entry in self._heap
        )

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def pending_sync_runs(self) -> list[ScheduledRun]:
        return sorted(entry for _s, _p, _t, entry in self._heap if entry.is_sync)
