"""Per-server traffic demand synthesis.

Turns a rack's task placement into the fluid model's inputs: a
``(buckets, servers)`` matrix of offered bytes per millisecond, true
active-connection counts, and per-server sender-persistence constants.

Burst anatomy (per burst):

* arrival time — Poisson process at the task's diurnal-scaled rate;
* volume — lognormal (service-specific median/sigma);
* body intensity — clipped normal around the service mean, as a
  fraction of the server line rate;
* **slow-start overshoot** — the first couple of milliseconds arrive
  faster than the body, scaled by the burst's fan-in (many fresh DCTCP
  senders ramping together overshoot hardest; Section 3's heavy-incast
  problem).  The fluid DCTCP multiplier in the buffer model damps this
  for services whose senders stay adapted.

Contention emerges from three synchronization channels: bursts of one
*task* partially align on shared request/exchange waves (co-located
placements fire together), a smaller fraction align on *rack-wide*
waves (fan-in from common upstream aggregators), and the rest are
independent — plus sheer density.  Per-server burst rates are
heavy-tailed, and each run draws a rack-level load factor, giving the
run-to-run variation behind Figures 12 and 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import units
from ..errors import SimulationError
from ..workload.region import RackWorkload
from ..workload.services import ServiceSpec

#: Longest burst profile, in buckets; a longer one is an error.
_MAX_PROFILE_BUCKETS = 10_000


@dataclass
class ServerDemand:
    """Fluid-model inputs for one rack run."""

    #: Offered bytes per bucket per server, (buckets, servers).
    demand: np.ndarray
    #: True active connection count per bucket per server.
    connections: np.ndarray
    #: Per-server sender-persistence time constants (seconds).
    persistence: np.ndarray
    #: Initial DCTCP rate multiplier per server (adapted for
    #: persistent-sender services, fully open otherwise).
    initial_multiplier: np.ndarray
    #: Initial DCTCP EWMA mark fraction (warm for persistent services,
    #: whose connections predate the run).
    initial_alpha: np.ndarray


class DemandModel:
    """Generates :class:`ServerDemand` for rack runs."""

    def __init__(
        self,
        step: float = units.ANALYSIS_INTERVAL,
        line_rate: float = units.SERVER_LINK_RATE,
        overshoot_scale: float = 0.4,
        overshoot_buckets: int = 2,
        shared_task_sync: float = 0.45,
        rack_sync: float = 0.15,
        rate_tail_sigma: float = 1.0,
        adapted_multiplier: float = 0.15,
    ) -> None:
        if overshoot_scale < 0:
            raise SimulationError("overshoot scale cannot be negative")
        if overshoot_buckets < 1:
            raise SimulationError("overshoot must span at least one bucket")
        if not 0 <= shared_task_sync <= 1 or not 0 <= rack_sync <= 1:
            raise SimulationError("sync fractions must be in [0, 1]")
        if shared_task_sync + rack_sync > 1:
            raise SimulationError("sync fractions cannot sum above 1")
        self.step = step
        self.line_rate = line_rate
        self.drain = line_rate * step
        self.overshoot_scale = overshoot_scale
        self.overshoot_buckets = overshoot_buckets
        # Geometric decay of the overshoot region; constant per model.
        self._decay_powers = np.array([0.5**bucket for bucket in range(overshoot_buckets)])
        self.shared_task_sync = shared_task_sync
        self.rack_sync = rack_sync
        self.rate_tail_sigma = rate_tail_sigma
        self.adapted_multiplier = adapted_multiplier

    # -- burst primitives ----------------------------------------------------

    def _burst_profiles(
        self, volume: np.ndarray, intensity: np.ndarray, overshoot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Byte arrivals per bucket for a batch of bursts.

        Returns ``(values, lengths)``: every burst's profile, concatenated
        in batch order, and each profile's bucket count.  The first
        ``overshoot_buckets`` buckets of a burst carry the geometrically
        decaying overshoot (``0.5**bucket``) on top of the constant body
        rate, then the body rate runs until the volume is spent; the last
        bucket takes whatever is left.  A burst of non-positive volume
        has no buckets.

        Each row's remainders come from one ``np.subtract.accumulate``
        along the row, which subtracts left to right exactly as the
        historical bucket-by-bucket loop did, so every bucket (the final
        partial one included) holds the same floating-point value.  A
        first block covers the overshoot plus eight body buckets, which
        ends all but a fraction of a percent of bursts; the rest continue
        in a second block sized by ``ceil(remaining / body_rate)``.  As
        in the loop, a profile longer than 10,000 buckets is an error.
        """
        volume = np.asarray(volume, dtype=np.float64)
        body_rate = np.asarray(intensity, dtype=np.float64) * self.drain
        over = self.overshoot_buckets
        head = over + 8
        steps = np.empty((len(volume), head + 1))
        steps[:, 0] = volume
        steps[:, 1 : over + 1] = body_rate[:, None] * (
            1.0 + (np.asarray(overshoot, dtype=np.float64)[:, None] - 1.0) * self._decay_powers
        )
        steps[:, over + 1 :] = body_rate[:, None]
        # left[:, k] = bytes left before bucket k.
        left = np.subtract.accumulate(steps, axis=1)
        takes = steps[:, 1:]
        spent = left[:, 1:] <= 0
        lengths = np.where(spent.any(axis=1), spent.argmax(axis=1) + 1, 0)
        lengths[~(volume > 0)] = 0
        ended = np.flatnonzero(lengths > 0)
        takes[ended, lengths[ended] - 1] = left[ended, lengths[ended] - 1]

        longer = np.flatnonzero((lengths == 0) & (volume > 0))
        if len(longer):
            remaining = left[longer, head]
            rate = body_rate[longer]
            with np.errstate(divide="ignore", invalid="ignore"):
                estimate = np.where(rate > 0, np.ceil(remaining / rate) + 2, np.inf)
            width = int(min(_MAX_PROFILE_BUCKETS - head, estimate.max()))
            tail = np.empty((len(longer), width + 1))
            tail[:, 0] = remaining
            tail[:, 1:] = rate[:, None]
            tail_left = np.subtract.accumulate(tail, axis=1)
            tail_spent = tail_left[:, 1:] <= 0
            if not tail_spent.any(axis=1).all():
                raise SimulationError("burst profile failed to terminate")
            tail_lengths = tail_spent.argmax(axis=1) + 1
            rows = np.arange(len(longer))
            tail_takes = tail[:, 1:]
            tail_takes[rows, tail_lengths - 1] = tail_left[rows, tail_lengths - 1]
            lengths[longer] = head + tail_lengths

        offsets = np.cumsum(lengths) - lengths
        values = np.empty(int(lengths.sum()))
        in_head = np.arange(head) < lengths[:, None]
        values[(offsets[:, None] + np.arange(head))[in_head]] = takes[in_head]
        if len(longer):
            columns = np.arange(int(tail_lengths.max()))
            in_tail = columns < tail_lengths[:, None]
            positions = offsets[longer][:, None] + head + columns
            values[positions[in_tail]] = tail_takes[:, : len(columns)][in_tail]
        return values, lengths

    def _draw_burst_starts(
        self,
        spec: ServiceSpec,
        buckets: int,
        load: float,
        rng: np.random.Generator,
        task_phase: np.ndarray | None,
        rack_phase: np.ndarray,
        rate_multiplier: float,
    ) -> np.ndarray:
        """Burst start buckets: Poisson arrivals, partially synchronized.

        A burst aligns with one of three clocks: the *task's* shared
        phase (instances answering the same request waves / exchanging
        gradients in lockstep), the *rack's* phase (fan-in from common
        upstream aggregators hitting many services at once), or its own
        independent timing.  Synchronization is what turns per-server
        duty cycles into simultaneous buffer contention.
        """
        duration = buckets * self.step
        lam = spec.burst_rate * load * duration * rate_multiplier
        count = rng.poisson(lam)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        # Long-lived pools (collectives, streaming reads) stagger their
        # exchanges across peers; fresh request/response fan-in aligns
        # tightly on the triggering request wave.
        jitter = 16 if spec.sender_persistence >= 1.0 else 8
        choice = rng.random(count)
        starts = rng.integers(0, buckets, size=count)
        rack_aligned = choice < self.rack_sync
        if rack_aligned.any() and len(rack_phase) > 0:
            picks = rack_phase[rng.integers(0, len(rack_phase), size=count)]
            starts = np.where(
                rack_aligned, picks + rng.integers(0, jitter, size=count), starts
            )
        task_aligned = (choice >= self.rack_sync) & (
            choice < self.rack_sync + self.shared_task_sync
        )
        if task_aligned.any() and task_phase is not None and len(task_phase) > 0:
            picks = task_phase[rng.integers(0, len(task_phase), size=count)]
            starts = np.where(
                task_aligned, picks + rng.integers(0, jitter, size=count), starts
            )
        return np.clip(starts, 0, buckets - 1)

    def _serialize_starts(
        self, starts: np.ndarray, spec: ServiceSpec, buckets: int
    ) -> np.ndarray:
        """Push overlapping burst starts back so transfers on one host
        follow each other (separated by the typical burst length)."""
        if len(starts) == 0:
            return starts
        typical_length = max(
            1,
            int(
                np.exp(spec.burst_volume_log_mu)
                / (spec.burst_intensity_mean * self.drain)
            ),
        )
        ordered = np.sort(starts)
        serialized = []
        next_free = 0
        for start in ordered:
            start = max(int(start), next_free)
            if start >= buckets:
                break
            serialized.append(start)
            next_free = start + typical_length
        return np.array(serialized, dtype=np.int64)

    def _add_bursts(
        self,
        demand: np.ndarray,
        connections: np.ndarray,
        burst_servers: list[int],
        burst_starts: list[np.ndarray],
        burst_normals: list[np.ndarray],
        burst_params: list[tuple[float, ...]],
    ) -> None:
        """Realize the rack's bursts onto its baseline-filled matrices.

        ``burst_normals[k]`` holds one row of standard normals per burst
        of server ``burst_servers[k]``: ``lognormal(m, s)`` is
        ``exp(m + s * z)`` and ``normal(m, s)`` is ``m + s * z`` on the
        same ``z``, so the parameters come out bit-identical to scalar
        draws.  The exponential is ``math.exp`` (libm's, as the scalar
        draws use), never ``np.exp``, whose SIMD kernel can differ in the
        last bit.  ``np.add.at`` applies the additions in burst order, so
        overlapping bursts of one server sum in the order they were drawn.
        """
        counts = [len(starts) for starts in burst_starts]
        normals = np.concatenate(burst_normals)
        mu, sigma, mean, std, fanin_scale, overshoot_scale = np.repeat(
            np.array(burst_params), counts, axis=0
        ).T
        exponents = np.stack(
            [mu + sigma * normals[:, 0], 0.0 + 0.35 * normals[:, 2], 0.0 + 0.5 * normals[:, 3]]
        )
        volume, fanin_draw, overshoot_draw = np.fromiter(
            map(math.exp, exponents.ravel().tolist()), np.float64, exponents.size
        ).reshape(exponents.shape)
        intensity = np.minimum(np.maximum(mean + std * normals[:, 1], 0.55), 1.25)
        fanin = np.maximum(fanin_scale * fanin_draw, 1.0)
        overshoot = 1.0 + (overshoot_scale * (fanin / 40.0)) * overshoot_draw

        values, lengths = self._burst_profiles(volume, intensity, overshoot)
        burst = np.repeat(np.arange(len(lengths)), lengths)
        offset_in_burst = np.arange(len(values)) - (np.cumsum(lengths) - lengths)[burst]
        rows = np.concatenate(burst_starts)[burst] + offset_in_burst
        columns = np.repeat(burst_servers, counts)[burst]
        inside = rows < demand.shape[0]
        cells = rows[inside] * demand.shape[1] + columns[inside]
        np.add.at(demand.reshape(-1), cells, values[inside])
        np.maximum.at(connections.reshape(-1), cells, fanin[burst][inside])

    # -- rack-level generation ---------------------------------------------

    def generate(
        self,
        workload: RackWorkload,
        hour: int,
        buckets: int,
        rng: np.random.Generator,
    ) -> ServerDemand:
        """Synthesize one run's demand for every server in the rack."""
        if buckets <= 0:
            raise SimulationError("bucket count must be positive")
        placement = workload.placement
        servers = placement.servers

        demand = np.zeros((buckets, servers))
        connections = np.zeros((buckets, servers))
        persistence = np.zeros(servers)
        initial_m = np.ones(servers)
        initial_alpha = np.zeros(servers)

        # Shared burst phases per task: instances of one task tend to
        # receive fan-in waves together (shards answering the same
        # requests, trainers exchanging gradients in lockstep).
        # Iterate tasks in sorted order: set iteration follows Python's
        # salted string hash and would consume RNG draws in a
        # process-dependent order, breaking reproducibility.
        task_phases: dict[str, np.ndarray] = {}
        for task in sorted(set(placement.tasks)):
            wave_count = rng.poisson(max(1.0, buckets * self.step * 8.0))
            task_phases[task] = rng.integers(0, buckets, size=max(wave_count, 1))
        rack_wave_count = rng.poisson(max(1.0, buckets * self.step * 5.0))
        rack_phase = rng.integers(0, buckets, size=max(rack_wave_count, 1))

        # Run-to-run load swings: the same rack is sometimes nearly idle
        # and sometimes hot (Section 7.3's 6.2% zero-activity runs, and
        # the day-long min/max bands of Figure 12).
        rack_load = float(rng.lognormal(mean=-0.1, sigma=0.45))
        hour_multiplier = workload.diurnal.multipliers[hour % 24]

        # Every active server's bursts, gathered in server order and
        # realized for the whole rack at once below.
        burst_servers: list[int] = []
        burst_starts: list[np.ndarray] = []
        burst_normals: list[np.ndarray] = []
        burst_params: list[tuple[float, ...]] = []
        for index in range(servers):
            spec = placement.services[index]
            task = placement.tasks[index]
            # The task's diurnal multiplier at this hour, blended toward
            # flat by its sensitivity (DiurnalProfile.scaled(s).at_hour).
            load = (
                (1.0 + spec.diurnal_sensitivity * (hour_multiplier - 1.0))
                * workload.load_scale
                * rack_load
            )
            persistence[index] = spec.sender_persistence
            persistent_senders = spec.sender_persistence >= 1.0
            if persistent_senders:
                # Long-lived connection pools predate the run: their
                # windows and mark-fraction EWMA are already adapted.
                initial_m[index] = self.adapted_multiplier
                initial_alpha[index] = 0.5

            # -- baseline smooth traffic --------------------------------
            # Jitter is mean-one with a light tail: baseline traffic must
            # never cross the 50%-utilization burst threshold on its own.
            base = spec.baseline_utilization * load * self.drain
            if base > 0:
                jitter = rng.lognormal(mean=-0.06, sigma=0.35, size=buckets)
                demand[:, index] += base * jitter
            connections_base = spec.base_connections
            connections[:, index] += np.maximum(
                rng.normal(connections_base, connections_base * 0.2, size=buckets), 0.0
            )

            # -- active episode? ------------------------------------------
            # Server runs are bimodal: a server is either in an active
            # exchange episode (bursting at the task's full rate) or
            # nearly idle for the whole 2 s window (Section 5: 34% of
            # server runs have bursty ingress).  Load shifts the odds.
            p_active = min(0.95, spec.active_probability * load**0.25)
            if rng.random() >= p_active:
                continue

            # -- bursts ---------------------------------------------------
            # Active servers differ wildly in how hard they burst (the
            # heavy tail behind Figure 6's 7.5-vs-39.8 median/p90 gap).
            # min/max instead of np.clip: identical values (comparisons
            # are exact) without the scalar-ufunc dispatch cost.
            rate_multiplier = float(
                min(max(rng.lognormal(mean=-0.35, sigma=self.rate_tail_sigma), 0.05), 4.0)
            )
            starts = self._draw_burst_starts(
                spec, buckets, load, rng, task_phases.get(task), rack_phase,
                rate_multiplier,
            )
            if persistent_senders:
                # Long-lived pools (ML collectives, storage streams)
                # serialize transfers on a host: a new exchange waits for
                # the previous one instead of piling onto the same NIC.
                # Fresh request/response fan-in does stack — that *is*
                # incast, and it is where the overshoot loss lives.
                starts = self._serialize_starts(starts, spec, buckets)
            if len(starts) == 0:
                continue
            # One standard normal per burst parameter — volume,
            # intensity, fan-in, overshoot — in the order the per-burst
            # scalar draws consumed them.
            burst_servers.append(index)
            burst_starts.append(starts)
            burst_normals.append(rng.standard_normal((len(starts), 4)))
            burst_params.append(
                (
                    spec.burst_volume_log_mu,
                    spec.burst_volume_log_sigma,
                    spec.burst_intensity_mean,
                    spec.burst_intensity_std,
                    spec.burst_connections,
                    # Slow-start overshoot: fresh senders ramp
                    # exponentially and overshoot together; adapted
                    # long-lived connection pools (persistent services)
                    # pace near their converged windows and barely
                    # overshoot.
                    self.overshoot_scale * (0.15 if persistent_senders else 1.0),
                )
            )

        if burst_servers:
            self._add_bursts(
                demand, connections, burst_servers, burst_starts, burst_normals, burst_params
            )

        return ServerDemand(
            demand=demand,
            connections=connections,
            persistence=persistence,
            initial_multiplier=initial_m,
            initial_alpha=initial_alpha,
        )
