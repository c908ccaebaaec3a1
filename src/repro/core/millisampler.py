"""The Millisampler tc-filter state machine (Section 4.1).

The real tool is an eBPF program attached as a tc filter; here the same
logic runs against simulated packet observations.  The lifecycle is
modelled faithfully:

* **detached** — not in the packet path at all (zero cost);
* **attached, disabled** — in the path but returning near-immediately
  (the 7 ns fast path);
* **attached, enabled** — recording: the timestamp of the first packet
  becomes the run start; each packet's bucket is
  ``(now - start) // sampling_interval``; a packet past the last bucket
  clears the enabled flag, signalling completion to user space.

User code (modelled by :class:`~repro.core.scheduler.RunScheduler` and
:class:`~repro.core.syncsampler.SyncMillisampler`) waits for the flag to
clear, detaches the filter, aggregates the per-CPU counters, and stores
the run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .. import units
from ..errors import SamplerError
from .counters import CounterKind, CounterSet
from .run import MillisamplerRun, RunMetadata
from .sketch import SKETCH_BITS, SKETCH_WORDS, hash_flow_key, linear_counting_estimates


class Direction(enum.Enum):
    """Packet direction relative to the host."""

    INGRESS = "ingress"
    EGRESS = "egress"


@dataclass(frozen=True)
class PacketObservation:
    """What the tc layer sees for one packet (or GSO/GRO super-segment).

    Section 4.6: the tc layer operates on socket buffers, so ``size`` may
    be up to 64 KB even though the wire carries MTU-sized packets.
    """

    time: float
    direction: Direction
    size: int
    flow_key: object
    cpu: int = 0
    ecn_marked: bool = False
    retransmit: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SamplerError("packet size cannot be negative")


class SamplerState(enum.Enum):
    """tc-filter lifecycle states (Section 4.1)."""

    DETACHED = "detached"
    DISABLED = "disabled"  # attached, enabled flag clear
    ENABLED = "enabled"  # attached, recording


@dataclass(frozen=True)
class CostModel:
    """Per-packet and per-run CPU cost, from the Section 4.3
    microbenchmarks (Intel Skylake @ 1.60 GHz)."""

    per_packet_full_ns: float = 88.0
    per_packet_no_flows_ns: float = 84.0
    per_packet_disabled_ns: float = 7.0
    map_read_ms: float = 4.3
    #: Attaching/detaching the tc filter around each run; sized so the
    #: break-even against tcpdump lands at the paper's ~33,000 packets
    #: (the bare map-read figure alone gives ~23,500).
    attach_detach_ms: float = 1.7
    tcpdump_per_packet_ns: float = 271.0

    def run_cost_ns(self, packets: int, count_flows: bool = True) -> float:
        """Total CPU cost of a run that counted ``packets`` packets,
        including the fixed counter-map read and filter attach/detach."""
        per_packet = self.per_packet_full_ns if count_flows else self.per_packet_no_flows_ns
        return packets * per_packet + (self.map_read_ms + self.attach_detach_ms) * 1e6

    def tcpdump_cost_ns(self, packets: int) -> float:
        return packets * self.tcpdump_per_packet_ns

    def breakeven_packets(self, count_flows: bool = True) -> int:
        """Packets after which Millisampler is cheaper than tcpdump.

        The paper: "Millisampler comes out ahead of tcpdump after just
        33,000 packets."
        """
        per_packet = self.per_packet_full_ns if count_flows else self.per_packet_no_flows_ns
        saved_per_packet = self.tcpdump_per_packet_ns - per_packet
        if saved_per_packet <= 0:
            raise SamplerError("cost model implies tcpdump is never beaten")
        fixed = (self.map_read_ms + self.attach_detach_ms) * 1e6
        return int(np.ceil(fixed / saved_per_packet))


@dataclass
class SamplerStats:
    """Bookkeeping exposed to tests and benchmarks."""

    packets_processed: int = 0
    packets_skipped_disabled: int = 0
    runs_completed: int = 0
    #: Runs discarded mid-recording (a sync run preempting a periodic one).
    runs_aborted: int = 0
    cpu_ns: float = 0.0


class Millisampler:
    """One host's sampler instance."""

    def __init__(
        self,
        meta: RunMetadata,
        sampling_interval: float = units.ANALYSIS_INTERVAL,
        buckets: int = units.MILLISAMPLER_BUCKETS,
        cpus: int = 8,
        count_flows: bool = True,
        cost_model: CostModel | None = None,
    ) -> None:
        if sampling_interval <= 0:
            raise SamplerError("sampling interval must be positive")
        if buckets <= 0:
            raise SamplerError("bucket count must be positive")
        if cpus <= 0:
            raise SamplerError("cpu count must be positive")
        self.meta = meta
        self.sampling_interval = sampling_interval
        self.buckets = buckets
        self.cpus = cpus
        self.count_flows = count_flows
        self.cost_model = cost_model or CostModel()
        self.stats = SamplerStats()

        self._state = SamplerState.DETACHED
        #: Called after attach() or detach() moves the filter into or
        #: out of the packet path; a host's tap chain registers here so
        #: it dispatches only to installed filters.
        self.watchers: list[Callable[[], None]] = []
        # The maps are allocated by the first enable(): most hosts of a
        # simulated rack never record a run.
        self._counters: CounterSet | None = None
        # Per-CPU, per-bucket sketch bitmaps in one (cpus, buckets,
        # SKETCH_WORDS) uint64 array, so read-out can OR-reduce across
        # CPUs and count bits for every bucket at once.
        self._sketch_words: np.ndarray | None = None
        self._start_time: float | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def state(self) -> SamplerState:
        return self._state

    @property
    def enabled(self) -> bool:
        return self._state is SamplerState.ENABLED

    @property
    def start_time(self) -> float | None:
        """Timestamp of the first packet of the current/last run."""
        return self._start_time

    def attach(self) -> None:
        """Install the tc filter (disabled)."""
        if self._state is not SamplerState.DETACHED:
            raise SamplerError("filter already attached")
        self._state = SamplerState.DISABLED
        self._notify_watchers()

    def enable(self) -> None:
        """Set the enabled flag, starting a run on the next packet."""
        if self._state is SamplerState.DETACHED:
            raise SamplerError("cannot enable a detached filter")
        if self._state is SamplerState.ENABLED:
            raise SamplerError("run already in progress")
        if self._counters is None:
            self._counters = CounterSet(self.cpus, self.buckets, count_flows=self.count_flows)
            self._sketch_words = np.zeros(
                (self.cpus, self.buckets, SKETCH_WORDS), dtype=np.uint64
            )
        else:
            self._counters.reset()
            self._sketch_words.fill(0)
        self._start_time = None
        self._state = SamplerState.ENABLED

    def abort(self) -> None:
        """Discard the run in progress, leaving the filter attached and
        disabled with nothing to read.

        User space does this when a SyncMillisampler run comes due while
        a periodic run is still recording: sync has priority, and the
        periodic run (which began at its first packet, after its
        scheduled slot) is cut off rather than stored half-filled.
        """
        if self._state is not SamplerState.ENABLED:
            raise SamplerError("no run in progress")
        self._state = SamplerState.DISABLED
        self._start_time = None
        self.stats.runs_aborted += 1

    def detach(self) -> None:
        """Remove the filter from the packet path entirely.

        Section 4.1: "Detaching the tc filter ensures that no CPU time
        is used by the Millisampler while it is disabled."
        """
        if self._state is SamplerState.DETACHED:
            raise SamplerError("filter not attached")
        if self._state is SamplerState.ENABLED:
            raise SamplerError("cannot detach mid-run; wait for the enabled flag to clear")
        self._state = SamplerState.DETACHED
        self._notify_watchers()

    def _notify_watchers(self) -> None:
        for watcher in self.watchers:
            watcher()

    # -- packet path --------------------------------------------------------

    def observe(self, obs: PacketObservation) -> None:
        """Process one packet observation at the tc hook."""
        if self._state is SamplerState.DETACHED:
            raise SamplerError("detached filter cannot observe packets")
        if self._state is SamplerState.DISABLED:
            self.stats.packets_skipped_disabled += 1
            self.stats.cpu_ns += self.cost_model.per_packet_disabled_ns
            return

        start = self._start_time
        if start is None:
            # The first packet after enabling marks the run start.
            start = self._start_time = obs.time
        elif obs.time < start:
            # Tested before bucketing: int() truncates toward zero, so a
            # packet less than one interval early would land in bucket 0.
            raise SamplerError("observation precedes run start (non-monotonic clock)")

        bucket = int((obs.time - start) / self.sampling_interval)
        if bucket >= self.buckets:
            # Past the last bucket: clear the enabled flag as the
            # completion signal and drop the packet from accounting.
            self._state = SamplerState.DISABLED
            self.stats.runs_completed += 1
            self.stats.cpu_ns += self.cost_model.per_packet_disabled_ns
            return

        cpu = obs.cpu % self.cpus
        if obs.direction is Direction.INGRESS:
            self._counters.add(CounterKind.IN_BYTES, cpu, bucket, obs.size)
            if obs.ecn_marked:
                self._counters.add(CounterKind.IN_ECN_BYTES, cpu, bucket, obs.size)
            if obs.retransmit:
                self._counters.add(CounterKind.IN_RETX_BYTES, cpu, bucket, obs.size)
        else:
            self._counters.add(CounterKind.OUT_BYTES, cpu, bucket, obs.size)
            if obs.retransmit:
                self._counters.add(CounterKind.OUT_RETX_BYTES, cpu, bucket, obs.size)
        if self.count_flows:
            bit = hash_flow_key(obs.flow_key)
            self._sketch_words[cpu, bucket, bit >> 6] |= np.uint64(1 << (bit & 63))

        self.stats.packets_processed += 1
        self.stats.cpu_ns += (
            self.cost_model.per_packet_full_ns
            if self.count_flows
            else self.cost_model.per_packet_no_flows_ns
        )

    def finish(self, now: float) -> None:
        """Force-complete a run because the expected duration elapsed with
        no further packets (the filter only self-disables on a packet
        *past* the window).  A run that never saw a packet is abandoned
        without counting as completed."""
        if self._state is not SamplerState.ENABLED:
            return
        if self._start_time is None:
            self._state = SamplerState.DISABLED
            return
        if now < self._start_time + self.duration:
            raise SamplerError("run window has not elapsed yet")
        self._state = SamplerState.DISABLED
        self.stats.runs_completed += 1

    @property
    def duration(self) -> float:
        return self.sampling_interval * self.buckets

    # -- read-out -----------------------------------------------------------

    def read_run(self) -> MillisamplerRun:
        """Aggregate counters into a :class:`MillisamplerRun`.

        Models the fixed-cost bpf map read (4.3 ms regardless of packet
        count — "designing for the worst, most heavily loaded case").
        """
        if self._state is SamplerState.ENABLED:
            raise SamplerError("cannot read counters mid-run")
        if self._start_time is None:
            raise SamplerError("no completed run to read")
        self.stats.cpu_ns += self.cost_model.map_read_ms * 1e6

        aggregated = self._counters.aggregate()
        conn = np.zeros(self.buckets, dtype=np.float64)
        if self.count_flows:
            # One OR-reduce across the CPU axis merges every per-CPU
            # bitmap, then the linear-counting estimator runs over all
            # buckets at once.
            merged = np.bitwise_or.reduce(self._sketch_words, axis=0)
            bits_set = np.bitwise_count(merged).sum(axis=1, dtype=np.int64)
            conn = linear_counting_estimates(SKETCH_BITS - bits_set)

        # One construction path: override only what the sampler owns (the
        # observed start and its configured interval) and preserve every
        # other metadata field, so extending RunMetadata cannot silently
        # desync the read-out.
        meta = replace(
            self.meta,
            start_time=self._start_time,
            sampling_interval=self.sampling_interval,
        )
        return MillisamplerRun(
            meta=meta,
            in_bytes=aggregated[CounterKind.IN_BYTES].astype(np.float64),
            out_bytes=aggregated[CounterKind.OUT_BYTES].astype(np.float64),
            in_retx_bytes=aggregated[CounterKind.IN_RETX_BYTES].astype(np.float64),
            out_retx_bytes=aggregated[CounterKind.OUT_RETX_BYTES].astype(np.float64),
            in_ecn_bytes=aggregated[CounterKind.IN_ECN_BYTES].astype(np.float64),
            conn_estimate=conn,
        )

    @property
    def memory_footprint_bytes(self) -> int:
        """In-kernel footprint (Section 4.3: ~3.6 MB on average), whether
        or not the maps are allocated yet."""
        return CounterSet.footprint(self.cpus, self.buckets, self.count_flows)
