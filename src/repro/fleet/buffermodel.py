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
from typing import Iterable

import numpy as np

from .. import units
from ..config import BufferConfig
from ..errors import SimulationError
from .kernels import resolve_kernel
from .kernels import fluid as _native
from .policies import DynamicThresholdPolicy, SharingPolicy


#: The fluid loop's float outputs, in the order the native kernel packs
#: them; :meth:`FluidBufferModel.run_batch` writes all six by default.
FLUID_OUTPUTS = (
    "delivered",
    "delivered_retx",
    "ecn_marked",
    "dropped",
    "queue_occupancy",
    "rate_multiplier",
)

#: Optional boolean output: True where a bucket's delivered bytes carried
#: CE marks, so ``ecn_marked == delivered * ecn_mask`` bit for bit at an
#: eighth of ``ecn_marked``'s memory.
ECN_MASK = "ecn_mask"

#: The outputs every fluid step computes anyway; each output set must
#: name them.
CORE_OUTPUTS = ("delivered", "delivered_retx", "dropped")


@dataclass
class FluidBufferResult:
    """Per-server, per-millisecond outputs of one fluid run.

    All arrays are ``(buckets, servers)`` float64, bytes per bucket
    except where noted; an optional output the caller did not ask for
    is None.
    """

    delivered: np.ndarray  # bytes handed to each host (fresh + retx)
    delivered_retx: np.ndarray  # the retransmitted subset of delivered
    ecn_marked: np.ndarray | None  # delivered bytes that carried CE marks
    dropped: np.ndarray  # bytes discarded at the buffer
    queue_occupancy: np.ndarray | None  # end-of-bucket queue depth, bytes
    rate_multiplier: np.ndarray | None  # the senders' fluid DCTCP multiplier m

    @property
    def total_dropped(self) -> float:
        return float(self.dropped.sum())

    @property
    def total_delivered(self) -> float:
        return float(self.delivered.sum())


@dataclass(kw_only=True)
class FluidBufferBatchResult:
    """Outputs of one batched fluid pass over many independent runs.

    Every array is indexed ``(runs, buckets, servers)``, where
    ``buckets`` is the padded batch length (the longest run in the
    batch).  ``lengths`` holds each run's true bucket count; buckets at
    or past a run's length are padding and carry no demand.  The numpy
    loop stores its outputs time-major, so these are transposed views of
    ``(buckets, runs, servers)`` buffers; an optional output the caller
    did not ask for is None.
    """

    lengths: np.ndarray  # (runs,) int64 true bucket counts
    delivered: np.ndarray
    delivered_retx: np.ndarray
    dropped: np.ndarray
    ecn_marked: np.ndarray | None = None
    queue_occupancy: np.ndarray | None = None
    rate_multiplier: np.ndarray | None = None
    ecn_mask: np.ndarray | None = None  # bool; see ECN_MASK

    @property
    def runs(self) -> int:
        return self.lengths.shape[0]

    def per_run(self, run: int) -> FluidBufferResult:
        """The ``run``-th run's float outputs, trimmed to its true
        length and copied C-contiguous.

        Runs are independent along the leading axis, so the trimmed
        arrays are exactly what a batch of that run alone produces.
        """
        length = int(self.lengths[run])

        def trimmed(series: np.ndarray | None) -> np.ndarray | None:
            return None if series is None else series[run, :length].copy()

        return FluidBufferResult(
            **{name: trimmed(getattr(self, name)) for name in FLUID_OUTPUTS}
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
        batch of one run, with all six outputs.
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
        outputs: Iterable[str] = FLUID_OUTPUTS,
    ) -> FluidBufferBatchResult:
        """Simulate a batch of independent runs in one vectorized time loop.

        ``demand`` is ``(runs, buckets, servers)``: a stack of per-run
        demand matrices, zero-padded on the bucket axis to the longest
        run (``lengths`` gives each run's true bucket count; omitted, all
        runs span the full bucket axis).  It must be finite and
        non-negative.  ``sender_persistence``, ``initial_multiplier`` and
        ``initial_alpha`` accept either one row shared by every run
        (``(servers,)``) or per-run rows (``(runs, servers)``).

        ``outputs`` names the outputs to allocate and write (all six of
        :data:`FLUID_OUTPUTS` by default).  It must include
        :data:`CORE_OUTPUTS`, which every step computes; ``ecn_marked``,
        ``queue_occupancy``, ``rate_multiplier`` and :data:`ECN_MASK`
        are optional, and the result holds None for each one left out.
        On the native kernel ``outputs`` only selects what the result
        exposes: the kernel computes all six.

        The loop is time-major: each step reads the ``(runs, servers)``
        demand slab of one bucket and writes one slab per output into a
        ``(buckets, runs, servers)`` buffer, and the result exposes those
        buffers as ``(runs, buckets, servers)`` transposed views.  A
        caller that builds its demand as a C-contiguous ``(buckets, runs,
        servers)`` buffer and passes ``buffer.transpose(1, 0, 2)`` gives
        the loop contiguous slabs without a copy.

        Runs never interact: every update is elementwise over the runs
        axis and the per-quadrant pool sums are segmented per run, so
        each run's outputs are bit-identical to a batch of that run alone
        (which is what :meth:`run` executes) — the time loop runs once
        per *batch* instead of once per run, which is where the
        region-dataset speedup comes from (the per-bucket numpy dispatch
        overhead is amortized over the whole batch).
        """
        demand = np.asarray(demand, dtype=np.float64)
        if demand.ndim != 3 or demand.shape[2] != self.servers:
            raise SimulationError(
                f"batch demand must be (runs, buckets, {self.servers}); "
                f"got {demand.shape}"
            )
        # min/max propagate NaN, which fails both comparisons.
        if demand.size and not 0.0 <= demand.min() <= demand.max() < np.inf:
            raise SimulationError("demand must be finite and non-negative")
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
        wanted = set(outputs)
        unknown = wanted - set(FLUID_OUTPUTS) - {ECN_MASK}
        if unknown:
            raise SimulationError(f"unknown fluid outputs: {sorted(unknown)}")
        if not wanted.issuperset(CORE_OUTPUTS):
            raise SimulationError(f"fluid outputs must include {', '.join(CORE_OUTPUTS)}")
        gap_steps = np.maximum(persistence / self.step, 1.0)
        initial_multiplier = self._batch_state(initial_multiplier, runs, 1.0)
        initial_alpha = self._batch_state(initial_alpha, runs, 0.0)

        if self.effective_kernel == "native":
            packed = dict(
                zip(
                    FLUID_OUTPUTS,
                    self._native_outputs(
                        demand, gap_steps, initial_multiplier, initial_alpha
                    ),
                )
            )
            series = {name: packed[name] for name in FLUID_OUTPUTS if name in wanted}
            if ECN_MASK in wanted:
                # delivered * (ecn_marked != 0) == ecn_marked bit for bit.
                series[ECN_MASK] = packed["ecn_marked"] != 0.0
            return FluidBufferBatchResult(lengths=lengths_arr, **series)

        stored = {
            name: np.zeros((buckets, runs, self.servers))
            for name in FLUID_OUTPUTS
            if name in wanted
        }
        if ECN_MASK in wanted:
            stored[ECN_MASK] = np.zeros((buckets, runs, self.servers), dtype=bool)
        # Guarded divisions divide by zero before masking the result.
        with np.errstate(divide="ignore", invalid="ignore"):
            self._time_loop(
                demand.transpose(1, 0, 2),
                gap_steps,
                initial_multiplier,
                initial_alpha,
                stored,
            )
        return FluidBufferBatchResult(
            lengths=lengths_arr,
            **{name: buffer.transpose(1, 0, 2) for name, buffer in stored.items()},
        )

    def _time_loop(
        self,
        demand: np.ndarray,
        gap_steps: np.ndarray,
        m: np.ndarray,
        dctcp_alpha: np.ndarray,
        stored: dict[str, np.ndarray],
    ) -> None:
        """The numpy time loop over time-major ``(buckets, runs,
        servers)`` demand, writing each step's slab of every output in
        ``stored`` (time-major buffers keyed by output name, the core
        outputs always among them).  ``m`` and
        ``dctcp_alpha`` are the ``(runs, servers)`` initial state, updated
        in place.

        Every step works in preallocated ``(runs, servers)`` arrays
        through ``out=``, ``np.putmask`` and in-place operators (a
        ``where=`` ufunc call costs several times more), and each
        float operation keeps the operands and evaluation order of the
        expression noted beside it (the historical loop, kept in
        ``tests/fleet/fluid_reference.py``), so outputs are bit-identical
        to it.  ``x + y`` and ``x * y`` may swap operands (IEEE addition
        and multiplication commute); ``np.minimum``/``np.maximum`` may
        not (numpy returns the second operand on ties, ``-0.0`` vs
        ``0.0`` included).  A bool array in float arithmetic is exactly
        0.0/1.0, so it stands in for ``np.where(mask, 1.0, 0.0)``.

        A step skips three updates where they would change nothing (most
        store-build steps retransmit and drop nothing):

        * the admission split between fresh and retransmitted bytes, when
          no retransmission is due anywhere in the batch: the
          retransmitted share is then a zero, and ``q_fresh += accepted``;
        * the delivery split, when no retransmitted bytes are queued:
          ``delivered_retx`` is ``out * 0.0`` and ``q_fresh`` drains
          alone;
        * the loss halving, when no cell dropped: ``grow`` is then
          ``active & ~marked``.

        Each skip is exact, not approximate: a queue plane starts at
        +0.0 and only ever adds and subtracts, so it never holds -0.0,
        and ``q + 0.0`` is ``q`` bit for bit.  A queue can still round
        a hair below zero (``q_fresh -= out - out_retx``), and then
        delivers a negative ``out`` whose ``out * 0.0`` is -0.0: the
        delivery skip writes that product rather than trusting the
        zeroed buffer.
        """
        buckets, runs, servers = demand.shape
        cfg = self.buffer_config
        dedicated = float(cfg.dedicated_bytes_per_queue)
        shared_total = float(cfg.shared_bytes)
        ecn_threshold = float(cfg.ecn_threshold_bytes)
        drain = self.drain_per_step
        max_offered = self.max_offered_factor * drain
        activity_floor = self.activity_threshold_fraction * drain
        gain = self.dctcp_gain
        additive_increase = self.additive_increase
        windows_per_step = self.windows_per_step
        responsive = self.responsive_sources
        retransmit = self.retransmit_losses
        retx_slots = self.retx_delay_steps
        policy = self.policy
        quadrant = self.quadrant
        nq = self.num_quadrants

        def plane(dtype=np.float64) -> np.ndarray:
            return np.zeros((runs, servers), dtype=dtype)

        # Model state.
        q_fresh = plane()
        q_retx = plane()
        backlog = plane()  # sender-side unsent bytes
        # At run start every sender pool counts as recently active: the
        # initial m/alpha already encode its adapted-or-fresh state.
        steps_since_active = plane()
        #: Consecutive steps each queue has held bytes (the sharing
        #: policies' mice/elephant signal).
        queue_active_steps = plane()
        retx_pipe = np.zeros((retx_slots, runs, servers))
        # End-of-bucket queue depth (q_fresh + q_retx), which is also the
        # next bucket's pre-arrival depth; the two planes swap every step.
        q_end = plane()
        q_before = plane()

        # Scratch planes, reused every step.
        tmp = plane()
        shared_used = plane()
        accepted = plane()
        base_shared = plane()
        new_shared = plane()
        offered = plane()
        window = plane()
        q_total = plane()
        share = plane()
        wants_to_send = plane(bool)
        flag = plane(bool)
        marked_plane = plane(bool)
        lost = plane(bool)
        grow = plane(bool)
        not_positive = plane(bool)
        delivered = stored["delivered"]
        delivered_retx = stored["delivered_retx"]
        dropped = stored["dropped"]
        ecn_marked = stored.get("ecn_marked")
        mask_buffer = stored.get(ECN_MASK)
        occupancy = stored.get("queue_occupancy")
        multiplier = stored.get("rate_multiplier")

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

        def guarded_divide(numerator, denominator, out) -> None:
            """``out = where(denominator > 0, numerator / denominator, 0)``.

            Divides everywhere (the caller runs under ``np.errstate``)
            and zeroes the rest with ``putmask``: the same values as a
            ``where=`` ufunc call, which costs several times more.
            """
            np.divide(numerator, denominator, out=out)
            np.greater(denominator, 0.0, out=not_positive)
            np.logical_not(not_positive, out=not_positive)
            np.putmask(out, not_positive, 0.0)

        for t in range(buckets):
            demand_t = demand[t]
            # The retransmissions due now; the slot is refilled with this
            # bucket's drops at the end of the step.
            retx_in = retx_pipe[t % retx_slots]
            q_before, q_end = q_end, q_before

            # --- connection churn: fresh senders after long gaps --------
            # wants_to_send = (demand_t + backlog + retx_in) > activity_floor
            np.add(demand_t, backlog, out=tmp)
            tmp += retx_in
            np.greater(tmp, activity_floor, out=wants_to_send)
            # reset = wants_to_send & (steps_since_active > gap_steps)
            np.greater(steps_since_active, gap_steps, out=flag)
            flag &= wants_to_send
            if np.count_nonzero(flag):
                np.putmask(m, flag, 1.0)
                np.putmask(dctcp_alpha, flag, 0.0)

            # --- sources offer traffic, throttled by their windows ------
            backlog += demand_t
            # offered_fresh = min(backlog, max(m * max_offered - retx_in, 0))
            np.multiply(m, max_offered, out=window)
            window -= retx_in
            np.maximum(window, 0.0, out=window)
            np.minimum(backlog, window, out=window)
            backlog -= window
            np.add(window, retx_in, out=offered)

            # --- policy-governed admission, per quadrant ----------------
            # shared_used = max(q_total - dedicated, 0), q_total = q_before
            np.subtract(q_before, dedicated, out=shared_used)
            np.maximum(shared_used, 0.0, out=shared_used)
            threshold = policy.limits_batch(
                shared_total,
                pool_sums(shared_used),
                quadrant,
                shared_used,
                queue_active_steps,
            )
            # Space freed by draining during the bucket also admits bytes:
            # room = max(dedicated + threshold - q_total, 0) + drain,
            # accepted = min(offered, room)
            np.add(dedicated, threshold, out=accepted)
            accepted -= q_before
            np.maximum(accepted, 0.0, out=accepted)
            accepted += drain
            np.minimum(offered, accepted, out=accepted)

            # Respect the absolute pool size: a quadrant's end-of-bucket
            # shared usage can never exceed its physical shared bytes.
            # Reduce acceptances in proportion to each queue's would-be
            # shared draw until the constraint holds (a couple of passes
            # suffice; the clamp to non-negative acceptance is the only
            # nonlinearity).
            # base_shared = q_total - drain - dedicated
            np.subtract(q_before, drain, out=base_shared)
            base_shared -= dedicated
            for _ in range(3):
                np.add(base_shared, accepted, out=new_shared)
                np.maximum(new_shared, 0.0, out=new_shared)
                new_pool = pool_sums(new_shared)
                # max(new_pool - shared_total, 0) > 0 iff new_pool > shared_total
                if not np.count_nonzero(new_pool > shared_total):
                    break
                excess = np.maximum(new_pool - shared_total, 0.0)
                # frac = where(pool_per_queue > 0, new_shared / pool_per_queue, 0)
                guarded_divide(new_shared, new_pool[:, quadrant], share)
                # accepted = accepted - min(excess[:, quadrant] * frac, accepted)
                np.multiply(excess[:, quadrant], share, out=share)
                np.minimum(share, accepted, out=share)
                accepted -= share

            drop = dropped[t]
            np.subtract(offered, accepted, out=drop)

            # --- queue update and delivery -------------------------------
            # Acceptance and drops split pro-rata between fresh and retx:
            # accepted_retx = accepted * where(offered > 0, retx_in / offered, 0)
            # q_fresh += accepted - accepted_retx; q_retx += accepted_retx
            if np.count_nonzero(retx_in):
                guarded_divide(retx_in, offered, share)
                share *= accepted
                np.subtract(accepted, share, out=tmp)
                q_fresh += tmp
                q_retx += share
            else:
                # Nothing due: accepted_retx is a zero, and adding a zero
                # to a queue changes nothing (a queue is never -0.0).
                q_fresh += accepted
            out = delivered[t]
            if np.count_nonzero(q_retx):
                np.add(q_fresh, q_retx, out=q_total)
                np.minimum(q_total, drain, out=out)
                # out_retx = out * where(q_total > 0, q_retx / q_total, 0)
                out_retx = delivered_retx[t]
                guarded_divide(q_retx, q_total, share)
                np.multiply(out, share, out=out_retx)
                # q_fresh -= out - out_retx; q_retx -= out_retx
                np.subtract(out, out_retx, out=tmp)
                q_fresh -= tmp
                q_retx -= out_retx
                np.add(q_fresh, q_retx, out=q_end)
            else:
                # Nothing queued for retransmission: q_total is q_fresh,
                # the retransmitted share is +0.0 and q_retx stays zero.
                # out_retx = out * 0.0 is -0.0 where rounding left the
                # queue a hair below zero (out < 0), so it is written,
                # not left to the zeroed buffer.
                np.minimum(q_fresh, drain, out=out)
                np.multiply(out, 0.0, out=delivered_retx[t])
                q_fresh -= out
                np.copyto(q_end, q_fresh)

            # --- ECN marking ----------------------------------------------
            # Fluid occupancy: arrivals spread over the bucket drain
            # concurrently, so the standing queue is the average of the
            # pre-arrival and post-drain depths — an arrival rate below
            # the drain rate leaves the queue (and ECN) untouched.
            # marked = 0.5 * (q_before + q_end) > ecn_threshold
            marked = marked_plane if mask_buffer is None else mask_buffer[t]
            np.add(q_before, q_end, out=tmp)
            tmp *= 0.5
            np.greater(tmp, ecn_threshold, out=marked)
            if ecn_marked is not None:
                np.multiply(out, marked, out=ecn_marked[t])

            # --- fluid DCTCP source response ------------------------------
            # Activity follows *demand*, not throughput: a sender pool
            # throttled below the floor is still clocking ACKs and
            # growing its windows.  Open-loop sources are never active
            # and never lose, so their state only ages.
            if responsive:
                active = wants_to_send
                np.greater(drop, 0.0, out=lost)
                any_lost = np.count_nonzero(lost)
                # alpha only updates on active senders (per window of data):
                # alpha = where(active, alpha + gain * (marked - alpha), alpha)
                np.subtract(marked, dctcp_alpha, out=tmp)
                tmp *= gain
                tmp += dctcp_alpha
                np.putmask(dctcp_alpha, active, tmp)
                # m = where(active & marked, m * (1 - alpha / 2) ** wps, m);
                # the power runs on the full plane, as the oracle's does.
                np.logical_and(active, marked, out=flag)
                if np.count_nonzero(flag):
                    np.divide(dctcp_alpha, 2.0, out=tmp)
                    np.subtract(1.0, tmp, out=tmp)
                    np.power(tmp, windows_per_step, out=tmp)
                    tmp *= m
                    np.putmask(m, flag, tmp)
                # m = where(lost, m * 0.5, m)
                # m = where(active & ~(marked | lost), m + additive_increase, m)
                if any_lost:
                    np.multiply(m, 0.5, out=tmp)
                    np.putmask(m, lost, tmp)
                    np.logical_or(marked, lost, out=grow)
                    np.greater(active, grow, out=grow)
                else:
                    np.greater(active, marked, out=grow)
                np.add(m, additive_increase, out=tmp)
                np.putmask(m, grow, tmp)
            # np.clip(m, 0.05, 1.0)
            np.maximum(m, 0.05, out=m)
            np.minimum(m, 1.0, out=m)
            # steps_since_active = where(active, 0, steps_since_active + 1)
            steps_since_active += 1.0
            if responsive:
                np.putmask(steps_since_active, wants_to_send, 0.0)
            # queue_active_steps = where((q_end > 0) | (accepted > 0),
            #                            queue_active_steps + 1, 0);
            # the incremented count is >= 1, so * 0.0 is +0.0.
            np.greater(q_end, 0.0, out=flag)
            np.greater(accepted, 0.0, out=grow)
            flag |= grow
            queue_active_steps += 1.0
            queue_active_steps *= flag

            # --- retransmissions: dropped bytes return one RTT+ later ----
            # 0.0 + drop, not a copy: the oracle zeroes the slot, then
            # adds, which turns -0.0 into 0.0.
            if retransmit:
                np.add(drop, 0.0, out=retx_in)

            if occupancy is not None:
                occupancy[t] = q_end
            if multiplier is not None:
                multiplier[t] = m
