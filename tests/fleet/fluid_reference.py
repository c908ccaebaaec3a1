"""Reference oracle for the fluid time loop: the historical numpy
``FluidBufferModel.run_batch`` loop, kept verbatim (``self`` is the
model) so the lean time-major loop can be checked bit for bit against
it.  Compare as ``.view(np.uint64)``: ``np.array_equal`` treats -0.0
and 0.0 as equal."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.fleet.buffermodel import FluidBufferModel


def run_batch_reference(
    self: FluidBufferModel,
    demand: np.ndarray,
    sender_persistence: np.ndarray,
    initial_multiplier: np.ndarray | None = None,
    initial_alpha: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The historical numpy loop; returns the six ``(runs, buckets,
    servers)`` outputs by name plus ``lengths``."""
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

    return {
        "delivered": delivered,
        "delivered_retx": delivered_retx,
        "ecn_marked": ecn_marked,
        "dropped": dropped,
        "queue_occupancy": occupancy,
        "rate_multiplier": multiplier,
        "lengths": lengths_arr,
    }
