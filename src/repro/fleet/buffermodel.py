"""Vectorized fluid model of the shared ToR buffer with DCTCP sources.

One step = one Millisampler bucket (1 ms).  State is kept per server
queue; dynamic-threshold admission is computed per quadrant, exactly
mirroring :class:`repro.simnet.buffer.SharedBuffer` in fluid form.

Source adaptation — the fluid DCTCP state per server:

* ``m`` — normalized aggregate congestion window of the senders
  currently feeding this server (1 = fully open);
* ``alpha`` — their EWMA mark fraction.

The dynamics mirror real DCTCP connections:

* while senders are **active**, marked milliseconds scale ``m`` by
  ``1 - alpha/2`` and drops halve it; unmarked active milliseconds grow
  ``m`` additively;
* while senders are **idle**, state is frozen — DCTCP only updates
  alpha per window of sent data;
* when activity resumes after a gap longer than the service's
  ``sender_persistence``, the senders are *new connections*: ``m``
  resets to 1 and ``alpha`` to 0 (full fresh windows, no congestion
  memory — their slow-start overshoot is modelled on the demand side).

Services with long-lived connection pools (ML training meshes) never
hit the reset, stay adapted to their rack's persistent contention, and
therefore rarely overflow the buffer; request/response services reset
on almost every burst and arrive unadapted.  This is the mechanism
behind Section 8.1's loss inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import units
from ..config import BufferConfig
from ..errors import SimulationError
from .kernels import resolve_kernel
from .kernels import fluid as _native
from .policies import DynamicThresholdPolicy, SharingPolicy


@dataclass
class FluidBufferResult:
    """Per-server, per-millisecond outputs of one fluid run.

    All arrays are ``(buckets, servers)`` float64, bytes per bucket
    except where noted.
    """

    delivered: np.ndarray  # bytes handed to each host (fresh + retx)
    delivered_retx: np.ndarray  # the retransmitted subset of delivered
    ecn_marked: np.ndarray  # delivered bytes that carried CE marks
    dropped: np.ndarray  # bytes discarded at the buffer
    queue_occupancy: np.ndarray  # end-of-bucket queue depth, bytes
    rate_multiplier: np.ndarray  # the senders' fluid DCTCP multiplier m

    @property
    def total_dropped(self) -> float:
        return float(self.dropped.sum())

    @property
    def total_delivered(self) -> float:
        return float(self.delivered.sum())


@dataclass
class FluidBufferBatchResult:
    """Outputs of one batched fluid pass over many independent runs.

    All arrays are ``(runs, buckets, servers)`` float64, where
    ``buckets`` is the padded batch length (the longest run in the
    batch).  ``lengths`` holds each run's true bucket count; buckets at
    or past a run's length are padding and carry no demand.
    """

    delivered: np.ndarray
    delivered_retx: np.ndarray
    ecn_marked: np.ndarray
    dropped: np.ndarray
    queue_occupancy: np.ndarray
    rate_multiplier: np.ndarray
    lengths: np.ndarray  # (runs,) int64 true bucket counts

    @property
    def runs(self) -> int:
        return self.delivered.shape[0]

    def per_run(self, run: int) -> FluidBufferResult:
        """The ``run``-th run's outputs, trimmed to its true length.

        Runs are independent along the leading axis, so the trimmed
        arrays are exactly what a batch of that run alone produces.
        """
        length = int(self.lengths[run])
        return FluidBufferResult(
            delivered=self.delivered[run, :length].copy(),
            delivered_retx=self.delivered_retx[run, :length].copy(),
            ecn_marked=self.ecn_marked[run, :length].copy(),
            dropped=self.dropped[run, :length].copy(),
            queue_occupancy=self.queue_occupancy[run, :length].copy(),
            rate_multiplier=self.rate_multiplier[run, :length].copy(),
        )


class FluidBufferModel:
    """Fluid dynamic-threshold buffer + DCTCP sources for one rack."""

    def __init__(
        self,
        servers: int,
        buffer_config: BufferConfig | None = None,
        line_rate: float = units.SERVER_LINK_RATE,
        step: float = units.ANALYSIS_INTERVAL,
        num_quadrants: int = units.NUM_QUADRANTS,
        rtt: float = units.TYPICAL_RTT,
        dctcp_gain: float = 1.0 / 16.0,
        additive_increase: float = 0.006,
        activity_threshold_fraction: float = 0.45,
        retx_delay_steps: int = 1,
        max_offered_factor: float = 8.0,
        policy: SharingPolicy | None = None,
        responsive_sources: bool = True,
        retransmit_losses: bool = True,
        kernel: str = "auto",
    ) -> None:
        if servers <= 0:
            raise SimulationError("need at least one server")
        if retx_delay_steps < 1:
            raise SimulationError("retransmissions cannot arrive in the loss bucket")
        if not 0 < activity_threshold_fraction < 1:
            raise SimulationError("activity threshold must be a fraction of line rate")
        self.servers = servers
        self.buffer_config = buffer_config or BufferConfig()
        self.line_rate = line_rate
        self.step = step
        self.num_quadrants = min(num_quadrants, servers)
        self.rtt = rtt
        self.dctcp_gain = dctcp_gain
        self.additive_increase = additive_increase
        self.activity_threshold_fraction = activity_threshold_fraction
        self.retx_delay_steps = retx_delay_steps
        self.max_offered_factor = max_offered_factor
        #: Buffer-sharing rule; defaults to the deployed dynamic
        #: threshold with the configured alpha (Section 2.1).  Swap for
        #: any :mod:`repro.fleet.policies` implementation to ablate.
        self.policy = policy or DynamicThresholdPolicy(
            alpha=(buffer_config or BufferConfig()).alpha
        )
        #: When False, sources are open-loop (raw paced senders): the
        #: DCTCP state is frozen.  Used for cross-validation against
        #: raw packet-level bursts.
        self.responsive_sources = responsive_sources
        #: When False, dropped bytes vanish instead of re-entering as
        #: retransmissions (UDP-like traffic).
        self.retransmit_losses = retransmit_losses
        #: Bytes a server link drains per step.
        self.drain_per_step = line_rate * step
        #: Quadrant index of each server (round-robin, as in the switch).
        self.quadrant = np.arange(servers) % self.num_quadrants
        #: DCTCP decrease opportunities per bucket: one per ~4 RTTs of
        #: marked traffic.  A marked millisecond spans several windows,
        #: so an *adapted* sender pool (high alpha) throttles within a
        #: bucket or two, while a fresh pool (alpha ~ 0) barely reacts —
        #: exactly the asymmetry behind the Section 8.1 loss inversion.
        self.windows_per_step = max(1.0, step / rtt / 4.0)
        #: Resolved kernel setting (``"numpy"`` or ``"native"``); the
        #: kernel that actually runs also depends on whether the policy
        #: has a native limit rule (see :attr:`effective_kernel`).
        #: Execution detail only: both kernels are bit-identical.
        self.kernel_choice = resolve_kernel(kernel)

    @property
    def native_supported(self) -> bool:
        """True when this model's policy has a native limit rule."""
        return self.policy.native_kernel_id is not None

    @property
    def effective_kernel(self) -> str:
        """The kernel :meth:`run`/:meth:`run_batch` will execute:
        ``"native"`` only when numba resolved *and* the policy has a
        native limit rule; otherwise the numpy oracle."""
        if self.kernel_choice == "native" and self.native_supported:
            return "native"
        return "numpy"

    def _native_outputs(
        self,
        demand: np.ndarray,
        gap_steps: np.ndarray,
        initial_multiplier: np.ndarray,
        initial_alpha: np.ndarray,
    ) -> np.ndarray:
        """Run the native kernel over validated ``(runs, buckets,
        servers)`` demand; returns the packed ``(6, ...)`` output array."""
        cfg = self.buffer_config
        drain = self.drain_per_step
        params = np.zeros(_native.MAX_POLICY_PARAMS)
        params[:] = self.policy.native_kernel_params()
        consts = np.array(
            [
                float(cfg.dedicated_bytes_per_queue),
                float(cfg.shared_bytes),
                float(cfg.ecn_threshold_bytes),
                drain,
                self.max_offered_factor * drain,
                self.activity_threshold_fraction * drain,
                self.dctcp_gain,
                self.additive_increase,
                1.0 if self.responsive_sources else 0.0,
                1.0 if self.retransmit_losses else 0.0,
            ]
        )
        iconsts = np.array(
            [self.retx_delay_steps, self.num_quadrants, self.policy.native_kernel_id],
            dtype=np.int64,
        )
        return _native.fluid_run_batch(
            demand=np.ascontiguousarray(demand),
            gap_steps=np.asarray(gap_steps, dtype=np.float64),
            initial_multiplier=initial_multiplier,
            initial_alpha=initial_alpha,
            quadrant=np.ascontiguousarray(self.quadrant, dtype=np.int64),
            params=params,
            consts=consts,
            iconsts=iconsts,
            windows_per_step=self.windows_per_step,
        )

    def run(
        self,
        demand: np.ndarray,
        sender_persistence: np.ndarray,
        initial_multiplier: np.ndarray | None = None,
        initial_alpha: np.ndarray | None = None,
    ) -> FluidBufferResult:
        """Simulate ``demand`` (bytes offered per bucket per server,
        shape ``(buckets, servers)``) through the rack buffer.

        ``sender_persistence`` gives each server's sender-memory time
        constant in seconds.  ``initial_multiplier``/``initial_alpha``
        seed the DCTCP state (persistent-sender services start adapted;
        default is fresh senders).  This is :meth:`run_batch` over a
        batch of one run.
        """
        demand = np.asarray(demand, dtype=np.float64)
        if demand.ndim != 2 or demand.shape[1] != self.servers:
            raise SimulationError(
                f"demand must be (buckets, {self.servers}); got {demand.shape}"
            )
        persistence = np.asarray(sender_persistence, dtype=np.float64)
        if persistence.shape != (self.servers,):
            raise SimulationError("sender_persistence must have one entry per server")
        return self.run_batch(
            demand[None], persistence, initial_multiplier, initial_alpha
        ).per_run(0)

    def _batch_state(self, value, runs: int, default: float) -> np.ndarray:
        """Broadcast per-server or per-run initial state to (runs, servers)."""
        if value is None:
            return np.full((runs, self.servers), default)
        array = np.asarray(value, dtype=np.float64)
        if array.shape == (self.servers,):
            return np.broadcast_to(array, (runs, self.servers)).copy()
        if array.shape == (runs, self.servers):
            return array.copy()
        raise SimulationError(
            f"initial state must be ({self.servers},) or ({runs}, {self.servers}); "
            f"got {array.shape}"
        )

    def run_batch(
        self,
        demand: np.ndarray,
        sender_persistence: np.ndarray,
        initial_multiplier: np.ndarray | None = None,
        initial_alpha: np.ndarray | None = None,
        lengths: np.ndarray | None = None,
    ) -> FluidBufferBatchResult:
        """Simulate a batch of independent runs in one vectorized time loop.

        ``demand`` is ``(runs, buckets, servers)``: a stack of per-run
        demand matrices, zero-padded on the bucket axis to the longest
        run (``lengths`` gives each run's true bucket count; omitted, all
        runs span the full bucket axis).  ``sender_persistence``,
        ``initial_multiplier`` and ``initial_alpha`` accept either one
        row shared by every run (``(servers,)``) or per-run rows
        (``(runs, servers)``).

        Runs never interact: every update is elementwise over the
        leading axis and the per-quadrant pool sums are segmented per
        run, so each run's outputs are bit-identical to a batch of that
        run alone (which is what :meth:`run` executes) — the time loop
        runs once per *batch* instead of once per run, which is where
        the region-dataset speedup comes from (the per-bucket numpy
        dispatch overhead is amortized over the whole batch).
        """
        demand = np.asarray(demand, dtype=np.float64)
        if demand.ndim != 3 or demand.shape[2] != self.servers:
            raise SimulationError(
                f"batch demand must be (runs, buckets, {self.servers}); "
                f"got {demand.shape}"
            )
        if np.any(demand < 0):
            raise SimulationError("demand cannot be negative")
        runs, buckets, _ = demand.shape
        if runs == 0:
            raise SimulationError("batch must contain at least one run")
        persistence = np.asarray(sender_persistence, dtype=np.float64)
        if persistence.shape not in ((self.servers,), (runs, self.servers)):
            raise SimulationError(
                "sender_persistence must be per-server or per-run per-server"
            )
        if lengths is None:
            lengths_arr = np.full(runs, buckets, dtype=np.int64)
        else:
            lengths_arr = np.asarray(lengths, dtype=np.int64)
            if lengths_arr.shape != (runs,):
                raise SimulationError("lengths must have one entry per run")
            if np.any(lengths_arr < 1) or np.any(lengths_arr > buckets):
                raise SimulationError("run lengths must be in [1, buckets]")

        cfg = self.buffer_config
        dedicated = float(cfg.dedicated_bytes_per_queue)
        shared_total = float(cfg.shared_bytes)
        ecn_threshold = float(cfg.ecn_threshold_bytes)
        drain = self.drain_per_step
        max_offered = self.max_offered_factor * drain
        activity_floor = self.activity_threshold_fraction * drain
        gap_steps = np.maximum(persistence / self.step, 1.0)

        if self.effective_kernel == "native":
            out = self._native_outputs(
                demand,
                gap_steps,
                initial_multiplier=self._batch_state(initial_multiplier, runs, 1.0),
                initial_alpha=self._batch_state(initial_alpha, runs, 0.0),
            )
            return FluidBufferBatchResult(
                delivered=out[0],
                delivered_retx=out[1],
                ecn_marked=out[2],
                dropped=out[3],
                queue_occupancy=out[4],
                rate_multiplier=out[5],
                lengths=lengths_arr,
            )

        # State, one row per run.
        q_fresh = np.zeros((runs, self.servers))
        q_retx = np.zeros((runs, self.servers))
        backlog = np.zeros((runs, self.servers))  # sender-side unsent bytes
        m = self._batch_state(initial_multiplier, runs, 1.0)
        dctcp_alpha = self._batch_state(initial_alpha, runs, 0.0)
        # At run start every sender pool counts as recently active: the
        # initial m/alpha already encode its adapted-or-fresh state.
        steps_since_active = np.zeros((runs, self.servers))
        #: Consecutive steps each queue has held bytes (the sharing
        #: policies' mice/elephant signal).
        queue_active_steps = np.zeros((runs, self.servers))
        retx_pipe = np.zeros((self.retx_delay_steps, runs, self.servers))

        # Outputs
        delivered = np.zeros((runs, buckets, self.servers))
        delivered_retx = np.zeros((runs, buckets, self.servers))
        ecn_marked = np.zeros((runs, buckets, self.servers))
        dropped = np.zeros((runs, buckets, self.servers))
        occupancy = np.zeros((runs, buckets, self.servers))
        multiplier = np.zeros((runs, buckets, self.servers))

        quadrant = self.quadrant
        nq = self.num_quadrants
        # Flattened (run, quadrant) bin index per (run, server) cell: the
        # per-quadrant pool sums of every run compute in one bincount.
        flat_quadrant = (
            np.arange(runs, dtype=np.int64)[:, None] * nq + quadrant[None, :]
        ).ravel()
        flat_bins = runs * nq

        def pool_sums(per_queue: np.ndarray) -> np.ndarray:
            """Segmented per-(run, quadrant) sums, shape (runs, nq).

            ``np.bincount`` accumulates weights in input order, so each
            bin sums its servers in ascending order whatever the batch
            holds, keeping a run's floats bit-identical across batch
            compositions.
            """
            return np.bincount(
                flat_quadrant, weights=per_queue.ravel(), minlength=flat_bins
            ).reshape(runs, nq)

        for t in range(buckets):
            demand_t = demand[:, t, :]
            # --- connection churn: fresh senders after long gaps --------
            slot = t % self.retx_delay_steps
            retx_in = retx_pipe[slot].copy()
            retx_pipe[slot] = 0.0
            wants_to_send = (demand_t + backlog + retx_in) > activity_floor
            reset = wants_to_send & (steps_since_active > gap_steps)
            if np.any(reset):
                m[reset] = 1.0
                dctcp_alpha[reset] = 0.0

            # --- sources offer traffic, throttled by their windows ------
            backlog += demand_t
            window_budget = np.maximum(m * max_offered - retx_in, 0.0)
            offered_fresh = np.minimum(backlog, window_budget)
            backlog -= offered_fresh
            offered = offered_fresh + retx_in

            # --- policy-governed admission, per quadrant ----------------
            q_total = q_fresh + q_retx
            q_before = q_total
            shared_used = np.maximum(q_total - dedicated, 0.0)
            pool_used = pool_sums(shared_used)
            threshold = self.policy.limits_batch(
                shared_total, pool_used, quadrant, shared_used, queue_active_steps
            )
            allowed_occ = dedicated + threshold
            # Space freed by draining during the bucket also admits bytes.
            room = np.maximum(allowed_occ - q_total, 0.0) + drain
            accepted = np.minimum(offered, room)

            # Respect the absolute pool size: a quadrant's end-of-bucket
            # shared usage can never exceed its physical shared bytes.
            # Reduce acceptances in proportion to each queue's would-be
            # shared draw until the constraint holds (a couple of passes
            # suffice; the clamp to non-negative acceptance is the only
            # nonlinearity).
            base_shared = q_total - drain - dedicated
            for _ in range(3):
                new_shared = np.maximum(base_shared + accepted, 0.0)
                new_pool = pool_sums(new_shared)
                excess = np.maximum(new_pool - shared_total, 0.0)
                if not np.any(excess > 0):
                    break
                pool_per_queue = new_pool[:, quadrant]
                with np.errstate(invalid="ignore", divide="ignore"):
                    frac = np.where(
                        pool_per_queue > 0, new_shared / pool_per_queue, 0.0
                    )
                reduction = np.minimum(excess[:, quadrant] * frac, accepted)
                accepted = accepted - reduction

            drop = offered - accepted
            # Acceptance and drops split pro-rata between fresh and retx.
            with np.errstate(invalid="ignore", divide="ignore"):
                retx_frac_in = np.where(offered > 0, retx_in / offered, 0.0)
            accepted_retx = accepted * retx_frac_in

            # --- queue update and delivery -------------------------------
            q_fresh += accepted - accepted_retx
            q_retx += accepted_retx
            q_total = q_fresh + q_retx
            out = np.minimum(q_total, drain)
            with np.errstate(invalid="ignore", divide="ignore"):
                retx_share = np.where(q_total > 0, q_retx / q_total, 0.0)
            out_retx = out * retx_share
            q_fresh -= out - out_retx
            q_retx -= out_retx
            q_end = q_fresh + q_retx

            # --- ECN marking ----------------------------------------------
            # Fluid occupancy: arrivals spread over the bucket drain
            # concurrently, so the standing queue is the average of the
            # pre-arrival and post-drain depths — an arrival rate below
            # the drain rate leaves the queue (and ECN) untouched.
            mid_occupancy = 0.5 * (q_before + q_end)
            marked = mid_occupancy > ecn_threshold
            mark_fraction = np.where(marked, 1.0, 0.0)

            # --- fluid DCTCP source response ------------------------------
            # Activity follows *demand*, not throughput: a sender pool
            # throttled below the floor is still clocking ACKs and
            # growing its windows.
            active = wants_to_send & self.responsive_sources
            lost = (drop > 0) & self.responsive_sources
            # alpha only updates on active senders (per window of data).
            dctcp_alpha = np.where(
                active,
                dctcp_alpha + self.dctcp_gain * (mark_fraction - dctcp_alpha),
                dctcp_alpha,
            )
            m = np.where(
                active & marked,
                m * (1.0 - dctcp_alpha / 2.0) ** self.windows_per_step,
                m,
            )
            m = np.where(lost, m * 0.5, m)
            grow = active & ~(marked | lost)
            m = np.where(grow, m + self.additive_increase, m)
            np.clip(m, 0.05, 1.0, out=m)
            steps_since_active = np.where(active, 0.0, steps_since_active + 1.0)
            queue_busy = (q_end > 0) | (accepted > 0)
            queue_active_steps = np.where(queue_busy, queue_active_steps + 1.0, 0.0)

            # --- retransmissions: dropped bytes return one RTT+ later ----
            if self.retransmit_losses:
                retx_pipe[(t + self.retx_delay_steps) % self.retx_delay_steps] += drop

            delivered[:, t, :] = out
            delivered_retx[:, t, :] = out_retx
            ecn_marked[:, t, :] = out * mark_fraction
            dropped[:, t, :] = drop
            occupancy[:, t, :] = q_end
            multiplier[:, t, :] = m

        return FluidBufferBatchResult(
            delivered=delivered,
            delivered_retx=delivered_retx,
            ecn_marked=ecn_marked,
            dropped=dropped,
            queue_occupancy=occupancy,
            rate_multiplier=multiplier,
            lengths=lengths_arr,
        )
