"""SyncMillisampler: rack-synchronous collection (Section 4.4).

A centralized control plane sends data-collection requests to all
servers in a rack, schedules them to start at a specific future time
(far enough ahead that no periodic run is active, and with priority
over periodic collection), then — after all servers finish — fetches
the compressed runs, trims them to the common window, and linearly
interpolates them onto one uniform time base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import SamplerError
from .alignment import align_runs
from .millisampler import Millisampler
from .run import MillisamplerRun, SyncRun
from .scheduler import RunScheduler
from .storage import HostRunStore


@dataclass
class SampledHost:
    """One server's sampling stack: the in-kernel sampler, the user-space
    scheduler, and the host-local run store."""

    sampler: Millisampler
    scheduler: RunScheduler
    store: HostRunStore
    _enabled_at: float | None = None
    #: sync_id of the run the sampler is currently recording (None for a
    #: periodic run), and the stored start time of each completed sync
    #: run — how ``assemble`` finds *the* sync run even when a
    #: clock-skewed periodic run landed nearby.
    _active_sync_id: str | None = None
    _sync_starts: dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.sampler.meta.host

    def sync_run_start(self, sync_id: str) -> float | None:
        """Stored start time of the run recorded for ``sync_id``, if the
        host produced one (None when it saw no traffic in the window)."""
        return self._sync_starts.get(sync_id)

    def poll(self, now: float) -> None:
        """User-space agent tick: start due runs, harvest completed ones."""
        sampler = self.sampler
        if sampler.enabled:
            start = sampler.start_time
            if start is not None and now >= start + sampler.duration:
                # The window elapsed with no packet past it to
                # self-disable the filter.
                sampler.finish(now)
            elif start is None and self._enabled_at is not None and (
                now >= self._enabled_at + sampler.duration
            ):
                # No traffic at all since enabling: abandon the run.
                sampler.finish(now)
        if not sampler.enabled and sampler.state.value == "disabled":
            if sampler.start_time is not None:
                run = sampler.read_run()
                self.store.store(run)
                if self._active_sync_id is not None:
                    self._sync_starts[self._active_sync_id] = run.meta.start_time
            sampler.detach()
            self._enabled_at = None
            self._active_sync_id = None
        due = self.scheduler.next_run(now)
        if due is None:
            return
        if sampler.enabled:
            # A run starts at its first packet, after its scheduled
            # slot, so it can outlive the slot the scheduler reserved.
            if not due.is_sync:
                return  # a periodic run never interrupts a recording one
            if self._active_sync_id is not None:
                raise SamplerError(
                    f"sync run {due.sync_id!r} is due while sync run "
                    f"{self._active_sync_id!r} is still recording"
                )
            # Sync runs take priority over periodic collection.
            sampler.abort()
        if sampler.state.value == "detached":
            sampler.attach()
        sampler.enable()
        self._enabled_at = now
        self._active_sync_id = due.sync_id if due.is_sync else None


@dataclass
class PendingCollection:
    """One in-flight SyncMillisampler request across a rack."""

    sync_id: str
    rack: str
    region: str
    start_time: float
    hosts: list[SampledHost]
    hour: int = 0


class SyncMillisampler:
    """Centralized SyncMillisampler control plane."""

    #: Minimum scheduling lead so no periodic run can be active at the
    #: requested start (one full run duration of slack).
    def __init__(self, lead_runs: float = 1.0) -> None:
        if lead_runs < 1.0:
            raise SamplerError("sync lead must cover at least one run duration")
        self.lead_runs = lead_runs
        self._ids = itertools.count()
        self._pending: dict[str, PendingCollection] = {}

    def request_collection(
        self,
        hosts: list[SampledHost],
        rack: str,
        region: str,
        start_time: float,
        now: float,
        hour: int = 0,
    ) -> str:
        """Ask every host in a rack to run at ``start_time``; returns the
        collection id used to assemble the result later."""
        if not hosts:
            raise SamplerError("a rack collection needs at least one host")
        durations = {host.sampler.duration for host in hosts}
        min_lead = self.lead_runs * max(durations)
        if start_time - now < min_lead:
            raise SamplerError(
                f"sync start must be at least {min_lead:.3f}s ahead "
                f"(requested lead {start_time - now:.3f}s)"
            )
        sync_id = f"sync-{next(self._ids)}"
        for host in hosts:
            host.scheduler.request_sync_run(start_time, sync_id, now)
        self._pending[sync_id] = PendingCollection(
            sync_id=sync_id,
            rack=rack,
            region=region,
            start_time=start_time,
            hosts=list(hosts),
            hour=hour,
        )
        return sync_id

    def assemble(self, sync_id: str) -> SyncRun:
        """Fetch each host's run for this collection, align, and build the
        rack-wide :class:`SyncRun`.  Call after every host finished."""
        pending = self._pending.pop(sync_id, None)
        if pending is None:
            raise SamplerError(f"unknown or already-assembled collection {sync_id!r}")

        runs: list[MillisamplerRun] = []
        for host in pending.hosts:
            # The host's agent recorded which stored run answered this
            # sync request — use that exact match when available.
            sync_start = host.sync_run_start(sync_id)
            if sync_start is not None:
                runs.append(host.store.load(sync_start))
                continue
            # Fallback (runs stored outside the poll loop, e.g. replayed
            # from disk): run start times are stamped by *host clocks*,
            # which may sit a sub-millisecond behind true time
            # (Section 4.5) — allow a small tolerance so a sync run is
            # not mistaken for absent, and pick the candidate closest to
            # the requested start rather than the earliest, which could
            # be a periodic run that began just before the sync window.
            # A run that starts after the window ends (a later periodic
            # run) cannot be this collection's.
            tolerance = 50e-3
            window_end = pending.start_time + host.sampler.duration
            candidates = [
                start
                for start in host.store.start_times()
                if pending.start_time - tolerance <= start < window_end
            ]
            if candidates:
                best = min(
                    candidates, key=lambda s: (abs(s - pending.start_time), s)
                )
                runs.append(host.store.load(best))
            else:
                # The host saw no packet during the window, so its
                # sampler never started: an idle server contributes an
                # all-zero run (it is data — zero contention — not an
                # error).
                sampler = host.sampler
                meta = sampler.meta.with_start(pending.start_time)
                runs.append(MillisamplerRun.empty(meta, sampler.buckets))

        aligned = align_runs(runs)
        return SyncRun(
            rack=pending.rack,
            region=pending.region,
            runs=aligned,
            hour=pending.hour,
        )

    @staticmethod
    def assemble_from_runs(
        rack: str, region: str, runs: list[MillisamplerRun], hour: int = 0
    ) -> SyncRun:
        """Align already-fetched runs into a :class:`SyncRun` (how
        :mod:`repro.io.msdata` rebuilds rack runs from a released
        dataset)."""
        return SyncRun(rack=rack, region=region, runs=align_runs(runs), hour=hour)

    def pending_ids(self) -> list[str]:
        return sorted(self._pending)
