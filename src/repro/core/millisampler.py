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

import numpy as np

from .. import units
from ..errors import SamplerError
from .counters import CounterKind, CounterSet
from .run import MillisamplerRun, RunMetadata
from .sketch import (
    SKETCH_BITS,
    SKETCH_WORDS,
    FlowSketch,
    hash_flow_key,
    linear_counting_estimates,
)


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
        # The maps are allocated by the first enable(): most hosts of a
        # simulated rack never record a run.
        self._counters: CounterSet | None = None
        # Per-CPU, per-bucket sketch bitmaps, backed by one
        # (cpus, buckets, SKETCH_WORDS) uint64 array so the batch path
        # can scatter-OR bits and read-out can OR-reduce across CPUs
        # without materializing a FlowSketch per cell.
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

    # -- packet path --------------------------------------------------------

    def observe(self, obs: PacketObservation) -> None:
        """Process one packet observation at the tc hook."""
        if self._state is SamplerState.DETACHED:
            raise SamplerError("detached filter cannot observe packets")
        if self._state is SamplerState.DISABLED:
            self.stats.packets_skipped_disabled += 1
            self.stats.cpu_ns += self.cost_model.per_packet_disabled_ns
            return

        if self._start_time is None:
            # The first packet after enabling marks the run start.
            self._start_time = obs.time

        bucket = int((obs.time - self._start_time) / self.sampling_interval)
        if bucket < 0:
            raise SamplerError("observation precedes run start (non-monotonic clock)")
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

    def observe_batch(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        cpus: np.ndarray | None = None,
        ecn_marked: np.ndarray | None = None,
        retransmit: np.ndarray | None = None,
        flow_bits: np.ndarray | None = None,
    ) -> None:
        """Process a whole batch of packet observations at once.

        Equivalent to calling :meth:`observe` per packet in array order
        — identical counters, sketch bitmaps, state transitions, and
        stats — but every counter update is one ``np.add.at`` scatter
        and every sketch bit one ``np.bitwise_or.at`` scatter, so the
        per-packet Python cost disappears.  ``directions`` is boolean
        (``True`` = ingress); ``flow_bits`` carries pre-hashed bit
        indices from :func:`repro.core.sketch.hash_flow_keys` and is
        required when the sampler counts flows.  Inputs are validated
        before any state is touched (the scalar path fails packet by
        packet instead).
        """
        if self._state is SamplerState.DETACHED:
            raise SamplerError("detached filter cannot observe packets")
        times = np.asarray(times, dtype=np.float64)
        count = len(times)
        sizes = np.asarray(sizes)
        directions = np.asarray(directions, dtype=bool)
        cpus = (
            np.zeros(count, dtype=np.int64)
            if cpus is None
            else np.asarray(cpus, dtype=np.int64)
        )
        ecn_marked = (
            np.zeros(count, dtype=bool)
            if ecn_marked is None
            else np.asarray(ecn_marked, dtype=bool)
        )
        retransmit = (
            np.zeros(count, dtype=bool)
            if retransmit is None
            else np.asarray(retransmit, dtype=bool)
        )
        for name, array in (
            ("sizes", sizes),
            ("directions", directions),
            ("cpus", cpus),
            ("ecn_marked", ecn_marked),
            ("retransmit", retransmit),
        ):
            if len(array) != count:
                raise SamplerError(f"{name} must have one entry per packet")
        if count and sizes.min() < 0:
            raise SamplerError("packet size cannot be negative")

        if self._state is SamplerState.DISABLED:
            self.stats.packets_skipped_disabled += count
            self.stats.cpu_ns += count * self.cost_model.per_packet_disabled_ns
            return
        if count == 0:
            return
        if self.count_flows:
            if flow_bits is None:
                raise SamplerError("flow_bits required when counting flows")
            flow_bits = np.asarray(flow_bits, dtype=np.int64)
            if len(flow_bits) != count:
                raise SamplerError("flow_bits must have one entry per packet")
            if flow_bits.min() < 0 or flow_bits.max() >= SKETCH_BITS:
                raise SamplerError("flow bit index out of range")

        if self._start_time is None:
            self._start_time = float(times[0])
        bucket = ((times - self._start_time) / self.sampling_interval).astype(np.int64)

        # The scalar loop disables the filter at the first packet past
        # the window and skips everything after it; replicate the split.
        past_end = np.nonzero(bucket >= self.buckets)[0]
        processed = int(past_end[0]) if len(past_end) else count
        if np.any(bucket[:processed] < 0):
            raise SamplerError("observation precedes run start (non-monotonic clock)")

        cpu = cpus[:processed] % self.cpus
        bkt = bucket[:processed]
        size = sizes[:processed]
        ingress = directions[:processed]
        masks = {
            CounterKind.IN_BYTES: ingress,
            CounterKind.IN_ECN_BYTES: ingress & ecn_marked[:processed],
            CounterKind.IN_RETX_BYTES: ingress & retransmit[:processed],
            CounterKind.OUT_BYTES: ~ingress,
            CounterKind.OUT_RETX_BYTES: ~ingress & retransmit[:processed],
        }
        for kind, mask in masks.items():
            self._counters.add_batch(kind, cpu[mask], bkt[mask], size[mask])
        if self.count_flows:
            bits = flow_bits[:processed]
            flat = self._sketch_words.reshape(-1)
            index = (cpu * self.buckets + bkt) * SKETCH_WORDS + (bits >> 6)
            np.bitwise_or.at(flat, index, np.uint64(1) << (bits & 63).astype(np.uint64))

        per_packet = (
            self.cost_model.per_packet_full_ns
            if self.count_flows
            else self.cost_model.per_packet_no_flows_ns
        )
        self.stats.packets_processed += processed
        self.stats.cpu_ns += processed * per_packet
        if processed < count:
            # The completing packet clears the enabled flag; the rest of
            # the batch hits the disabled fast path.
            self._state = SamplerState.DISABLED
            self.stats.runs_completed += 1
            skipped = count - processed
            self.stats.cpu_ns += skipped * self.cost_model.per_packet_disabled_ns
            self.stats.packets_skipped_disabled += skipped - 1

    def sketch(self, cpu: int, bucket: int) -> FlowSketch:
        """The (cpu, bucket) sketch as a :class:`FlowSketch` view.

        The bitmaps live in one uint64 array; this rebuilds the
        historical int-bitmap object for tests and ablations.
        """
        if not 0 <= cpu < self.cpus or not 0 <= bucket < self.buckets:
            raise SamplerError("sketch index out of range")
        if self._sketch_words is None:  # never enabled: every bitmap empty
            return FlowSketch.from_words(np.zeros(SKETCH_WORDS, dtype=np.uint64))
        return FlowSketch.from_words(self._sketch_words[cpu, bucket])

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
            # bitmap (no intermediate FlowSketch objects), then the
            # linear-counting estimator runs over all buckets at once.
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
