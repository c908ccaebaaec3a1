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

Most servers never come near line rate in a run (Section 5 finds a
third of server runs bursty).  A (run, server) column whose demand
never exceeds ``min(activity_floor, min(m0, clip(m0, 0.05, 1)) *
max_offered)`` never wants to send and never queues, so its outputs
follow in closed form and it never enters the time loop: the loop
steps only the live columns, on one flat ``(buckets, live cells)``
plane keyed by the per-(run, quadrant) pool bins.  The proof is in
:meth:`FluidBufferModel.run_batch`; :class:`FluidBufferBatchResult`
holds the live planes and builds a run's arrays from them.
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


def _whole_batch(name: str) -> property:
    return property(
        lambda self: self.whole(name),
        doc=f"Whole-batch ``{name}``, built on each access (see :meth:`whole`).",
    )


@dataclass(kw_only=True)
class FluidBufferBatchResult:
    """Outputs of one batched fluid pass over many independent runs.

    Only live columns went through the time loop (see
    :meth:`FluidBufferModel.run_batch`).  ``planes`` maps each requested
    output to a time-major ``(buckets, cells)`` plane whose column ``c``
    is the (run, server) column ``live[c] = run * servers + server``
    (``live`` ascends).  Every other column is light, and its outputs
    follow from ``demand`` in closed form: ``delivered`` is its demand
    ``+ 0.0``, ``rate_multiplier`` is ``multiplier`` (its clipped
    initial multiplier) at every bucket, and every other output is +0.0
    (False in the ECN mask).

    ``buckets`` is the padded batch length (the longest run in the
    batch); ``lengths`` holds each run's true bucket count, and buckets
    at or past it are padding that carries no demand.
    :meth:`run_output` builds one run's trimmed arrays;
    :meth:`whole` and the properties named after the outputs build
    ``(runs, buckets, servers)`` arrays on request.  An output the
    caller did not ask for is None.  The result reads the caller's
    ``demand`` array, not a copy, so it must not be written to while
    the result is in use.
    """

    lengths: np.ndarray  # (runs,) int64 true bucket counts
    demand: np.ndarray  # (runs, buckets, servers) batch demand
    live: np.ndarray  # (cells,) int64 live columns, run * servers + server
    planes: dict[str, np.ndarray]  # output name -> (buckets, cells) plane
    multiplier: np.ndarray  # (runs, servers) clip(m0, 0.05, 1.0)

    delivered = _whole_batch("delivered")
    delivered_retx = _whole_batch("delivered_retx")
    ecn_marked = _whole_batch("ecn_marked")
    dropped = _whole_batch("dropped")
    queue_occupancy = _whole_batch("queue_occupancy")
    rate_multiplier = _whole_batch("rate_multiplier")
    ecn_mask = _whole_batch(ECN_MASK)

    @property
    def runs(self) -> int:
        return self.lengths.shape[0]

    @staticmethod
    def _fill_light(name: str, out: np.ndarray, demand: np.ndarray, multiplier) -> None:
        """Write output ``name`` of every column into ``out`` as if it
        were light (``demand`` and ``multiplier`` broadcast to ``out``);
        the caller then writes the live columns over it."""
        if name == "delivered":
            # + 0.0, as the loop delivers it: a -0.0 demand delivers +0.0.
            np.add(demand, 0.0, out=out)
        elif name == "rate_multiplier":
            out[...] = multiplier
        else:
            out[...] = 0

    def run_output(self, name: str, run: int, rows: bool = False) -> np.ndarray | None:
        """Output ``name`` of the ``run``-th run, trimmed to its true
        length, as a new C-contiguous ``(length, servers)`` array, or
        with ``rows`` as ``(servers, length)`` rows, one per server.

        The light columns are written from the run's demand first, then
        the run's live columns over them.  Runs are independent along
        the leading axis, so the arrays are exactly what a batch of that
        run alone produces.
        """
        plane = self.planes.get(name)
        if plane is None:
            return None
        run = range(self.runs)[run]
        length = int(self.lengths[run])
        servers = self.demand.shape[2]
        lo, hi = np.searchsorted(self.live, (run * servers, (run + 1) * servers))
        out = np.empty((servers, length) if rows else (length, servers), plane.dtype)
        # A (servers, length) view either way.
        view = out if rows else out.T
        self._fill_light(
            name, view, self.demand[run, :length].T, self.multiplier[run, :, None]
        )
        view[self.live[lo:hi] - run * servers] = plane[:length, lo:hi].T
        return out

    def whole(self, name: str) -> np.ndarray | None:
        """Output ``name`` of the whole batch, padding included, as the
        ``(runs, buckets, servers)`` transposed view of a new time-major
        buffer."""
        plane = self.planes.get(name)
        if plane is None:
            return None
        runs, buckets, servers = self.demand.shape
        buffer = np.empty((buckets, runs, servers), plane.dtype)
        self._fill_light(name, buffer, self.demand.transpose(1, 0, 2), self.multiplier)
        buffer.reshape(buckets, runs * servers)[:, self.live] = plane
        return buffer.transpose(1, 0, 2)

    def per_run(self, run: int) -> FluidBufferResult:
        """The ``run``-th run's float outputs, trimmed to its true
        length and C-contiguous (see :meth:`run_output`)."""
        return FluidBufferResult(
            **{name: self.run_output(name, run) for name in FLUID_OUTPUTS}
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
        bins: np.ndarray,
        num_bins: int,
        gap_steps: np.ndarray,
        initial_multiplier: np.ndarray,
        initial_alpha: np.ndarray,
    ) -> np.ndarray:
        """Run the native kernel over the live ``(buckets, cells)``
        demand as one pseudo-run whose quadrants are the pool ``bins``;
        returns the packed ``(6, buckets, cells)`` output array."""
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
            [self.retx_delay_steps, num_bins, self.policy.native_kernel_id],
            dtype=np.int64,
        )
        return _native.fluid_run_batch(
            demand=demand[None],
            gap_steps=gap_steps[None],
            initial_multiplier=initial_multiplier[None],
            initial_alpha=initial_alpha[None],
            quadrant=bins,
            params=params,
            consts=consts,
            iconsts=iconsts,
            windows_per_step=self.windows_per_step,
        )[:, 0]

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

        **Only live columns run.**  A (run, server) column is *live*
        when its demand exceeds ``cap = min(activity_floor, min(m0,
        clip(m0, 0.05, 1)) * max_offered)`` in some bucket, where ``m0``
        is its initial multiplier (a NaN cap counts as exceeded).  Every
        other column is *light*: it provably keeps its initial state, so
        its outputs are written in closed form
        (:class:`FluidBufferBatchResult`) and it never enters the loop.
        Step by step, for a light column:

        * its backlog and retransmissions stay +0.0, so ``demand +
          backlog + retx_in`` is its demand, at most the activity floor:
          its sources never want to send, so its DCTCP state never
          updates or resets, and only the clip moves ``m`` (``m0`` in the
          first step, ``clip(m0)`` after), which makes its
          ``rate_multiplier`` ``clip(m0)`` at every bucket;
        * its window ``m * max_offered`` is at least the cap (``m`` is
          ``m0`` or ``clip(m0)``, and rounding is monotone), so it offers
          its whole demand, ``demand + 0.0``, and its backlog drains to
          +0.0;
        * its queue starts every step at +0.0, so its shared usage is
          +0.0, and its room ``max(dedicated + threshold - 0.0, 0) +
          drain`` is at least ``drain`` whatever any policy's threshold:
          above the floor, so above its offer.  It accepts the whole
          offer and drops +0.0.  In the pool clamp its would-be shared
          draw ``max(accepted - drain - dedicated, 0)`` is +0.0, so its
          reduction is ``min(excess * 0.0, accepted) = +0.0``;
        * it delivers what it accepted in the same bucket, so
          ``delivered = demand + 0.0`` (a -0.0 demand delivers +0.0),
          ``delivered_retx`` is +0.0, and the queue ends at +0.0; nothing
          is marked, as the ECN threshold is never negative;
        * it adds +0.0 to every pool sum, and a pool sum is never -0.0
          (it starts at +0.0 and every term is a ``max(x, 0.0)``), so
          leaving it out changes no other column's floats.  Its zeros
          leave the loop's batch-wide gates as they were, and a policy's
          limit is elementwise given a queue's pool, so no live column's
          threshold reads it either.

        **The flat layout.**  The loop runs on a ``(buckets, cells)``
        demand plane of the live columns, in ascending ``run * servers +
        server`` order, each keyed by its pool bin ``run * quadrants +
        quadrant``: the batch is one pseudo-run whose quadrants are the
        bins.  ``np.bincount`` still sums each bin's servers in
        ascending order, and the native kernel, which indexes
        ``pool[r, quadrant[s]]``, takes the same plane unchanged.  A
        batch with no live column runs no loop at all.

        Runs never interact: every update is elementwise over the cells
        and the per-quadrant pool sums are segmented per run, so each
        run's outputs are bit-identical to a batch of that run alone
        (which is what :meth:`run` executes) — the time loop runs once
        per *batch* instead of once per run, which is where the
        region-dataset speedup comes from (the per-bucket numpy dispatch
        overhead is amortized over the whole batch).  A caller that
        builds its demand as a C-contiguous ``(buckets, runs, servers)``
        buffer and passes ``buffer.transpose(1, 0, 2)`` gathers the live
        plane row by row.
        """
        demand = np.asarray(demand, dtype=np.float64)
        if demand.ndim != 3 or demand.shape[2] != self.servers:
            raise SimulationError(
                f"batch demand must be (runs, buckets, {self.servers}); "
                f"got {demand.shape}"
            )
        runs, buckets, servers = demand.shape
        if runs == 0:
            raise SimulationError("batch must contain at least one run")
        # Each column's largest demand serves the validation and the live
        # test.  min/max propagate NaN, which fails both comparisons.
        peak = demand.max(axis=1) if buckets else np.zeros((runs, servers))
        if buckets and not 0.0 <= demand.min() <= peak.max() < np.inf:
            raise SimulationError("demand must be finite and non-negative")
        persistence = np.asarray(sender_persistence, dtype=np.float64)
        if persistence.shape not in ((servers,), (runs, servers)):
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
        gap_steps = np.broadcast_to(np.maximum(persistence / self.step, 1.0), (runs, servers))
        initial_multiplier = self._batch_state(initial_multiplier, runs, 1.0)
        initial_alpha = self._batch_state(initial_alpha, runs, 0.0)

        drain = self.drain_per_step
        # The loop's np.clip(m, 0.05, 1.0).
        clipped = np.minimum(np.maximum(initial_multiplier, 0.05), 1.0)
        cap = np.minimum(
            self.activity_threshold_fraction * drain,
            np.minimum(initial_multiplier, clipped) * (self.max_offered_factor * drain),
        )
        live = np.flatnonzero(~(peak <= cap))
        run_of, server_of = np.divmod(live, servers)
        bins = run_of * self.num_quadrants + self.quadrant[server_of]
        num_bins = runs * self.num_quadrants
        cell_demand = demand.transpose(1, 0, 2)[:, run_of, server_of]
        cell_state = (
            gap_steps[run_of, server_of],
            initial_multiplier[run_of, server_of],
            initial_alpha[run_of, server_of],
        )

        if self.effective_kernel == "native" and live.size:
            packed = dict(
                zip(
                    FLUID_OUTPUTS,
                    self._native_outputs(cell_demand, bins, num_bins, *cell_state),
                )
            )
            planes = {name: packed[name] for name in FLUID_OUTPUTS if name in wanted}
            if ECN_MASK in wanted:
                # delivered * (ecn_marked != 0) == ecn_marked bit for bit.
                planes[ECN_MASK] = packed["ecn_marked"] != 0.0
        else:
            planes = {
                name: np.zeros((buckets, live.size))
                for name in FLUID_OUTPUTS
                if name in wanted
            }
            if ECN_MASK in wanted:
                planes[ECN_MASK] = np.zeros((buckets, live.size), dtype=bool)
            if live.size:
                # Guarded divisions divide by zero before masking the result.
                with np.errstate(divide="ignore", invalid="ignore"):
                    self._time_loop(cell_demand, bins, num_bins, *cell_state, planes)
        return FluidBufferBatchResult(
            lengths=lengths_arr, demand=demand, live=live, planes=planes, multiplier=clipped
        )

    def _time_loop(
        self,
        demand: np.ndarray,
        bins: np.ndarray,
        num_bins: int,
        gap_steps: np.ndarray,
        m: np.ndarray,
        dctcp_alpha: np.ndarray,
        stored: dict[str, np.ndarray],
    ) -> None:
        """The numpy time loop over the live columns' ``(buckets,
        cells)`` demand (see :meth:`run_batch` for the flat layout),
        writing each step's row of every output in ``stored`` (the
        ``(buckets, cells)`` planes keyed by output name, the core
        outputs always among them).  ``bins`` is each cell's pool bin
        among ``num_bins``; ``gap_steps``, ``m`` and ``dctcp_alpha`` are
        the cells' reset gaps and initial state, the last two updated in
        place.

        Every step works in preallocated ``(cells,)`` arrays
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

        A step skips the updates that would change nothing (most
        store-build steps retransmit and drop nothing):

        * the admission split between fresh and retransmitted bytes,
          when no retransmission is due anywhere in the batch: the
          retransmitted share is then a zero, and ``q_fresh += accepted``;
        * the delivery split, when no retransmitted bytes are queued:
          ``delivered_retx`` is ``out * 0.0`` and ``q_fresh`` drains
          alone;
        * the loss halving, when no cell dropped: ``grow`` is then
          ``active & ~marked``;
        * the pool clamp's pass, when no cell would draw on the shared
          pool: every pool sum is then +0.0, below any pool size;
        * the 0.05 clip, after the first step, when no cell decreased
          or lost: ``m`` then left the last clip at 0.05 or above and
          at most grew;
        * the ``queue_active_steps`` upkeep, for policies that never
          read it (:attr:`SharingPolicy.reads_active_steps`);
        * the retransmission slot's rewrite, when it holds only zeros
          and no cell dropped: ``drop + 0.0`` is then +0.0 everywhere.

        Each skip is exact, not approximate: a queue plane starts at
        +0.0 and only ever adds and subtracts, so it never holds -0.0,
        and ``q + 0.0`` is ``q`` bit for bit.  A queue can still round
        a hair below zero (``q_fresh -= out - out_retx``), and then
        delivers a negative ``out`` whose ``out * 0.0`` is -0.0: the
        delivery skip writes that product rather than trusting the
        zeroed buffer.
        """
        buckets, cells = demand.shape
        cfg = self.buffer_config

        def const(value: float) -> np.ndarray:
            """A float constant as a 0-d float64 array: a ufunc call costs
            less with one than with a Python float, for the same values."""
            return np.array(value, dtype=np.float64)

        dedicated = const(cfg.dedicated_bytes_per_queue)
        shared_total = float(cfg.shared_bytes)
        ecn_threshold = const(cfg.ecn_threshold_bytes)
        drain = const(self.drain_per_step)
        max_offered = const(self.max_offered_factor * self.drain_per_step)
        activity_floor = const(self.activity_threshold_fraction * self.drain_per_step)
        gain = const(self.dctcp_gain)
        additive_increase = const(self.additive_increase)
        zero, half, one, low = const(0.0), const(0.5), const(1.0), const(0.05)
        windows_per_step = self.windows_per_step
        responsive = self.responsive_sources
        retransmit = self.retransmit_losses
        retx_slots = self.retx_delay_steps
        policy = self.policy
        reads_active_steps = policy.reads_active_steps

        def plane(dtype=np.float64) -> np.ndarray:
            return np.zeros(cells, dtype=dtype)

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
        retx_pipe = np.zeros((retx_slots, cells))
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
        # (1, cells) views: to a policy the batch is one pseudo-run whose
        # quadrants are the bins, and its (1, cells) limits add into one.
        run_shared_used = shared_used[None]
        run_active_steps = queue_active_steps[None]
        run_accepted = accepted[None]
        delivered = stored["delivered"]
        delivered_retx = stored["delivered_retx"]
        dropped = stored["dropped"]
        ecn_marked = stored.get("ecn_marked")
        mask_buffer = stored.get(ECN_MASK)
        occupancy = stored.get("queue_occupancy")
        multiplier = stored.get("rate_multiplier")

        def pool_sums(per_queue: np.ndarray) -> np.ndarray:
            """Per-bin sums, shape ``(num_bins,)``.

            ``np.bincount`` accumulates weights in input order, so each
            bin sums its servers in ascending order whatever the batch
            holds, keeping a run's floats bit-identical across batch
            compositions.
            """
            return np.bincount(bins, weights=per_queue, minlength=num_bins)

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
            retx_due = np.count_nonzero(retx_in)
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
                np.putmask(m, flag, one)
                np.putmask(dctcp_alpha, flag, zero)

            # --- sources offer traffic, throttled by their windows ------
            backlog += demand_t
            # offered_fresh = min(backlog, max(m * max_offered - retx_in, 0))
            np.multiply(m, max_offered, out=window)
            window -= retx_in
            np.maximum(window, zero, out=window)
            np.minimum(backlog, window, out=window)
            backlog -= window
            np.add(window, retx_in, out=offered)

            # --- policy-governed admission, per quadrant ----------------
            # shared_used = max(q_total - dedicated, 0), q_total = q_before
            np.subtract(q_before, dedicated, out=shared_used)
            np.maximum(shared_used, zero, out=shared_used)
            threshold = policy.limits_batch(
                shared_total,
                pool_sums(shared_used)[None],
                bins,
                run_shared_used,
                run_active_steps,
            )
            # Space freed by draining during the bucket also admits bytes:
            # room = max(dedicated + threshold - q_total, 0) + drain,
            # accepted = min(offered, room)
            np.add(dedicated, threshold, out=run_accepted)
            accepted -= q_before
            np.maximum(accepted, zero, out=accepted)
            accepted += drain
            np.minimum(offered, accepted, out=accepted)

            # Respect the absolute pool size: a quadrant's end-of-bucket
            # shared usage should not exceed its physical shared bytes.
            # Reduce acceptances in proportion to each queue's would-be
            # shared draw, for at most three passes.  A pass can leave
            # an excess (the clamp to non-negative acceptance is
            # nonlinear), so under heavy overload the pool can end a
            # bucket a few percent over its size.
            # base_shared = q_total - drain - dedicated
            np.subtract(q_before, drain, out=base_shared)
            base_shared -= dedicated
            for _ in range(3):
                np.add(base_shared, accepted, out=new_shared)
                # No positive draw: every pool sum is +0.0.
                if not new_shared.max() > 0.0:
                    break
                np.maximum(new_shared, zero, out=new_shared)
                new_pool = pool_sums(new_shared)
                # max(new_pool - shared_total, 0) > 0 iff new_pool > shared_total
                if not np.count_nonzero(new_pool > shared_total):
                    break
                excess = np.maximum(new_pool - shared_total, zero)
                # frac = where(pool_per_queue > 0, new_shared / pool_per_queue, 0)
                guarded_divide(new_shared, new_pool[bins], share)
                # accepted = accepted - min(excess[quadrant] * frac, accepted)
                np.multiply(excess[bins], share, out=share)
                np.minimum(share, accepted, out=share)
                accepted -= share

            drop = dropped[t]
            np.subtract(offered, accepted, out=drop)

            # --- queue update and delivery -------------------------------
            # Acceptance and drops split pro-rata between fresh and retx:
            # accepted_retx = accepted * where(offered > 0, retx_in / offered, 0)
            # q_fresh += accepted - accepted_retx; q_retx += accepted_retx
            if retx_due:
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
                np.multiply(out, zero, out=delivered_retx[t])
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
            tmp *= half
            np.greater(tmp, ecn_threshold, out=marked)
            if ecn_marked is not None:
                np.multiply(out, marked, out=ecn_marked[t])

            # --- fluid DCTCP source response ------------------------------
            # Activity follows *demand*, not throughput: a sender pool
            # throttled below the floor is still clocking ACKs and
            # growing its windows.  Open-loop sources are never active
            # and never lose, so their state only ages.
            np.greater(drop, zero, out=lost)
            any_lost = np.count_nonzero(lost)
            # m can only fall below 0.05 by a decrease or a halving, and
            # starts unclipped.
            clip_low = t == 0
            if responsive:
                active = wants_to_send
                # alpha only updates on active senders (per window of data):
                # alpha = where(active, alpha + gain * (marked - alpha), alpha)
                np.subtract(marked, dctcp_alpha, out=tmp)
                tmp *= gain
                tmp += dctcp_alpha
                np.putmask(dctcp_alpha, active, tmp)
                # m = where(active & marked, m * (1 - alpha / 2) ** wps, m);
                # the power runs on the whole plane, never on the masked
                # cells: numpy's SIMD and scalar paths can round apart.
                np.logical_and(active, marked, out=flag)
                if np.count_nonzero(flag):
                    clip_low = True
                    np.divide(dctcp_alpha, 2.0, out=tmp)
                    np.subtract(1.0, tmp, out=tmp)
                    np.power(tmp, windows_per_step, out=tmp)
                    tmp *= m
                    np.putmask(m, flag, tmp)
                # m = where(lost, m * 0.5, m)
                # m = where(active & ~(marked | lost), m + additive_increase, m)
                if any_lost:
                    clip_low = True
                    np.multiply(m, half, out=tmp)
                    np.putmask(m, lost, tmp)
                    np.logical_or(marked, lost, out=grow)
                    np.greater(active, grow, out=grow)
                else:
                    np.greater(active, marked, out=grow)
                np.add(m, additive_increase, out=tmp)
                np.putmask(m, grow, tmp)
            # np.clip(m, 0.05, 1.0)
            if clip_low:
                np.maximum(m, low, out=m)
            np.minimum(m, one, out=m)
            # steps_since_active = where(active, 0, steps_since_active + 1)
            steps_since_active += one
            if responsive:
                np.putmask(steps_since_active, wants_to_send, zero)
            if reads_active_steps:
                # queue_active_steps = where((q_end > 0) | (accepted > 0),
                #                            queue_active_steps + 1, 0);
                # the incremented count is >= 1, so * 0.0 is +0.0.
                np.greater(q_end, zero, out=flag)
                np.greater(accepted, zero, out=grow)
                flag |= grow
                queue_active_steps += one
                queue_active_steps *= flag

            # --- retransmissions: dropped bytes return one RTT+ later ----
            # 0.0 + drop, not a copy: the oracle zeroes the slot, then
            # adds, which turns -0.0 into 0.0.  A slot of zeros stays one
            # when nothing dropped.
            if retransmit and (retx_due or any_lost):
                np.add(drop, zero, out=retx_in)

            if occupancy is not None:
                occupancy[t] = q_end
            if multiplier is not None:
                multiplier[t] = m
