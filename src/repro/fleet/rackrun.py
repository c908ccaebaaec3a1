"""Synthesize SyncMillisampler rack runs from the fluid model.

Output is byte-for-byte the same :class:`~repro.core.run.SyncRun`
structure the packet-level pipeline produces, so the entire analysis
stack is agnostic to which substrate generated the data.  A caller that
only summarizes (the shard store) gets each run as the
:class:`~repro.core.run.StackedRun` summarizing reads instead, built
straight from the fluid batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .. import units
from ..config import DEFAULT_POLICY_SPEC, PolicySpec
from ..core.run import MillisamplerRun, RunMetadata, StackedRun, SyncRun
from ..core.sketch import SATURATION_ESTIMATE, SKETCH_BITS
from ..errors import SimulationError
from ..obs.metrics import Metrics
from ..workload.region import RackWorkload
from .buffermodel import CORE_OUTPUTS, ECN_MASK, FluidBufferBatchResult, FluidBufferModel
from .demand import DemandModel, ServerDemand
from .policies import SharingPolicy, build_policy

#: One entry of a synthesis batch: (workload, hour, rng-or-seed-leaf).
BatchItem = tuple[RackWorkload, int, "np.random.Generator | np.random.SeedSequence"]

T = TypeVar("T")

#: The fluid outputs a raw :class:`SyncRun` is assembled from: the ECN
#: mask stands in for the float ``ecn_marked`` and only the per-run sum
#: of ``dropped`` is kept.  A :class:`StackedRun` needs only the core
#: outputs.
SYNTHESIS_OUTPUTS = ("delivered", "delivered_retx", "ecn_mask", "dropped")


#: The linear-counting estimate for each zero-bit count: ``128 *
#: ln(128 / zeros)``, and the saturation value for a full bitmap.
_ESTIMATES = np.concatenate(
    (
        [float(SATURATION_ESTIMATE)],
        SKETCH_BITS * np.log(SKETCH_BITS / np.arange(1, SKETCH_BITS + 1)),
    )
)

#: Cells whose expected one-bit or zero-bit count falls below these get
#: the exact binomial: below ~4 and above ~177 connections, where a
#: rounded normal is visibly off.
_MIN_EXPECTED_ONES = 4
_MIN_EXPECTED_ZEROS = 32

#: Cells per block of the estimate pass: each temporary is 64 KiB,
#: under glibc's default 128 KiB mmap threshold, so blocks reuse heap
#: memory instead of faulting in fresh plane-sized pages.
_SKETCH_BLOCK = 8192


def sketch_estimates(true_counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply 128-bit-sketch estimation noise to true connection counts.

    Each of ``n`` flows independently occupies one of 128 bits, so a
    bit stays zero with probability p = (1-1/128)^n, and the model
    takes the number of zero bits as Binomial(128, p) (bits treated as
    independent, which overstates the spread: see ablation-sketch); the
    linear-counting estimate is ``128 * ln(128 / zeros)``, and a full
    bitmap reports the saturation value (Section 4.2: "precise up to a
    dozen connections and saturates at around 500").

    The zero-bit count is drawn as a normal with the binomial's mean
    128p and variance 128p(1-p), rounded and clipped to [0, 128], then
    mapped through the 129-entry estimate table.  Where the expected
    one-bit count is below 4 or the expected zero-bit count below 32,
    the cell draws the exact ``rng.binomial(128, p)`` instead.  Draw
    order is fixed: one ``standard_normal`` plane over every cell
    first, then one binomial per such tail cell, in C order.
    """
    counts = np.asarray(true_counts, dtype=np.float64)
    estimates = rng.standard_normal(counts.shape)
    flat_counts, flat = counts.reshape(-1), estimates.reshape(-1)
    for start in range(0, flat.size, _SKETCH_BLOCK):
        zeros = flat[start : start + _SKETCH_BLOCK]
        p_zero = (1.0 - 1.0 / SKETCH_BITS) ** flat_counts[start : start + _SKETCH_BLOCK]
        mean = SKETCH_BITS * p_zero
        zeros *= np.sqrt(mean * (1.0 - p_zero))
        zeros += mean
        np.rint(zeros, out=zeros)
        np.clip(zeros, 0, SKETCH_BITS, out=zeros)
        tails = (SKETCH_BITS - mean < _MIN_EXPECTED_ONES) | (mean < _MIN_EXPECTED_ZEROS)
        zeros[tails] = rng.binomial(SKETCH_BITS, p_zero[tails])
        zeros[:] = _ESTIMATES[zeros.astype(np.intp)]
    return estimates


def run_extras(workload: RackWorkload) -> dict:
    """The rack facts every run of ``workload`` carries as ``extras``."""
    return {
        "colocated": workload.colocated,
        "distinct_tasks": workload.placement.distinct_tasks(),
        "dominant_share": workload.placement.dominant_share(),
        "dominant_task": workload.placement.dominant_task(),
    }


@dataclass
class _PreparedRun:
    """One item between its demand draw and its assembly."""

    workload: RackWorkload
    hour: int
    rng: np.random.Generator
    buckets: int
    #: Dropped once copied into the fluid batch.
    demand: ServerDemand | None
    connections: np.ndarray
    #: Summed over the contiguous ``(buckets, servers)`` demand matrix.
    ingress_bytes: float


class RackRunSynthesizer:
    """Generates :class:`SyncRun` objects for rack workloads."""

    def __init__(
        self,
        demand_model: DemandModel | None = None,
        sampling_interval: float = units.ANALYSIS_INTERVAL,
        nominal_buckets: int = units.MILLISAMPLER_BUCKETS,
        trimmed_buckets_mean: int = 1850,
        trimmed_buckets_std: int = 40,
        egress_echo: float = 0.18,
        policy: PolicySpec | None = None,
    ) -> None:
        if trimmed_buckets_mean <= 0:
            raise SimulationError("run length must be positive")
        self.demand_model = demand_model or DemandModel(step=sampling_interval)
        self.sampling_interval = sampling_interval
        self.nominal_buckets = nominal_buckets
        self.trimmed_buckets_mean = trimmed_buckets_mean
        self.trimmed_buckets_std = trimmed_buckets_std
        self.egress_echo = egress_echo
        #: Buffer-sharing policy spec every synthesized run's fluid
        #: model is built from.  The default DT spec is normalized to
        #: None so the fluid model applies its own default — DT at each
        #: rack's configured alpha — which is bit-identical to the
        #: pre-policy-axis synthesizer.  The spec (not a live policy) is
        #: stored because synthesizers cross process boundaries pickled.
        self.policy = (
            policy if policy is not None and policy != DEFAULT_POLICY_SPEC else None
        )

    def _run_length(self, rng: np.random.Generator) -> int:
        """Post-trim run length (Section 5: average 1.85 s at 1 ms)."""
        length = int(rng.normal(self.trimmed_buckets_mean, self.trimmed_buckets_std))
        return int(np.clip(length, 100, self.nominal_buckets))

    def synthesize(
        self,
        workload: RackWorkload,
        hour: int,
        rng: np.random.Generator | np.random.SeedSequence,
        start_time: float = 0.0,
    ) -> SyncRun:
        """One SyncMillisampler run for ``workload``'s rack at ``hour``:
        :meth:`synthesize_batch` over a batch of one item.

        ``rng`` may be a ready generator or a ``SeedSequence`` leaf of
        the dataset's seed-stream tree (see :mod:`repro.fleet.dataset`);
        passing the leaf keeps the run independent of every other run,
        which is what allows rack runs to be synthesized in isolation
        (in parallel workers, or one-off for debugging).
        """
        return self.synthesize_batch([(workload, hour, rng)], start_time=start_time)[0]

    def _fluid_model(self, workload: RackWorkload) -> FluidBufferModel:
        return FluidBufferModel(
            servers=workload.placement.servers,
            buffer_config=workload.rack_config.buffer,
            line_rate=workload.rack_config.server_link_rate,
            step=self.sampling_interval,
            policy=self._policy_for(workload),
        )

    def _policy_for(self, workload: RackWorkload) -> SharingPolicy | None:
        """Build the configured policy for one rack's geometry.

        Queue-count-partitioning policies get the rack's queues per
        quadrant (servers round-robined over the quadrants, as the
        fluid model and the switch assign them).
        """
        if self.policy is None:
            return None
        servers = workload.placement.servers
        num_quadrants = min(units.NUM_QUADRANTS, servers)
        return build_policy(
            self.policy, queues_per_quadrant=-(-servers // num_quadrants)
        )

    def _stack(
        self,
        prepared: _PreparedRun,
        batch: FluidBufferBatchResult,
        row: int,
        metrics: Metrics,
    ) -> StackedRun:
        """Run ``row`` of a fluid batch as a :class:`StackedRun`.

        Draws this run's sketch noise right after its run-length and
        demand draws, so a run is byte-identical per seed leaf whatever
        batch it is part of.  The noise is drawn on the ``(buckets,
        servers)`` connection matrix.  Each series is a read-only
        C-contiguous ``(servers, buckets)`` array, its rows the servers'
        series: row sums of another layout would add in another order.
        """
        workload = prepared.workload
        with metrics.span("sketch"):
            conn = sketch_estimates(prepared.connections, prepared.rng)
        in_bytes, in_retx_bytes, conn = (
            batch.run_output("delivered", row, rows=True),
            batch.run_output("delivered_retx", row, rows=True),
            np.ascontiguousarray(conn.T),
        )
        for rows in (in_bytes, in_retx_bytes, conn):
            rows.flags.writeable = False
        return StackedRun(
            rack=workload.rack,
            region=workload.region,
            hour=prepared.hour,
            sampling_interval=self.sampling_interval,
            tasks=workload.placement.tasks,
            capacity=np.full(
                workload.placement.servers,
                workload.rack_config.server_link_rate * self.sampling_interval,
            ),
            in_bytes=in_bytes,
            in_retx_bytes=in_retx_bytes,
            conn_estimate=conn,
            # Summed over the run's contiguous (buckets, servers) plane:
            # another layout would add in another order.
            switch_discard_bytes=float(batch.run_output("dropped", row).sum()),
            switch_ingress_bytes=prepared.ingress_bytes,
            extras=run_extras(workload),
        )

    def _assemble(
        self,
        stacked: StackedRun,
        prepared: _PreparedRun,
        ecn_mask: np.ndarray,
        start_time: float,
    ) -> SyncRun:
        """The raw :class:`SyncRun` of a stacked run: its three series,
        plus the egress echo (the run's last draw, on a ``(buckets,
        servers)`` array), zero egress retransmissions and the ECN
        series (``ecn_mask`` is the run's ``(buckets, servers)`` mask).
        Each server's :class:`MillisamplerRun` arrays are rows of
        ``(servers, buckets)`` arrays."""
        workload = prepared.workload
        delivered = stacked.in_bytes.T
        out_bytes = self.egress_echo * delivered * prepared.rng.lognormal(
            mean=-0.05, sigma=0.3, size=delivered.shape
        )
        series = {
            "in_bytes": stacked.in_bytes,
            "out_bytes": out_bytes.T,
            "in_retx_bytes": stacked.in_retx_bytes,
            "out_retx_bytes": np.zeros((stacked.servers, stacked.buckets)),
            # delivered * mask is delivered * 0.0/1.0: the fluid loop's
            # ecn_marked, bit for bit.
            "in_ecn_bytes": (delivered * ecn_mask).T,
            "conn_estimate": stacked.conn_estimate,
        }
        line_rate = workload.rack_config.server_link_rate
        runs = [
            MillisamplerRun(
                RunMetadata(
                    host=f"{workload.rack}-s{index}",
                    rack=workload.rack,
                    region=workload.region,
                    task=task,
                    start_time=start_time,
                    sampling_interval=self.sampling_interval,
                    line_rate=line_rate,
                ),
                **{name: rows[index] for name, rows in series.items()},
            )
            for index, task in enumerate(stacked.tasks)
        ]
        return SyncRun(
            rack=stacked.rack,
            region=stacked.region,
            runs=runs,
            hour=stacked.hour,
            switch_discard_bytes=stacked.switch_discard_bytes,
            switch_ingress_bytes=stacked.switch_ingress_bytes,
            extras=stacked.extras,
        )

    def synthesize_batch(
        self,
        items: Sequence[BatchItem],
        start_time: float = 0.0,
        metrics: Metrics | None = None,
        reduce: Callable[[StackedRun], T] | None = None,
    ) -> list[SyncRun] | list[T]:
        """Synthesize many rack runs through one batched fluid pass.

        ``items`` is a sequence of ``(workload, hour, rng)`` triples —
        the same arguments :meth:`synthesize` takes.  Each item keeps
        its own RNG (normally its ``SeedSequence`` leaf of the dataset's
        stream tree), and all RNG-consuming stages (run length, demand,
        sketch noise, egress echo) run per item, in item order;
        only the RNG-free fluid step is batched, over groups of items
        that share a rack profile (server count, link rate, buffer
        config).  Items never interact, so each returned run is
        byte-identical to synthesizing its item alone.

        ``reduce``, when given, is called on each run's
        :class:`StackedRun` (what :func:`~repro.analysis.summary.run_rows`
        reads) as soon as it is built, and the list holds its results:
        only one run is then alive at a time, and no :class:`SyncRun` is
        assembled.  The fluid loop then writes only its core outputs and
        no egress echo is drawn; the echo is each run's last draw on its
        own generator, so skipping it moves nothing else.  Without
        ``reduce`` the list holds :class:`SyncRun` objects: the stacked
        run plus the echo, zero egress-retransmission and ECN series.

        ``metrics`` records where synthesis time goes, as
        ``synthesis/demand``, ``synthesis/fluid`` and
        ``synthesis/assemble`` timers, with the sketch noise nested
        inside assembly as ``synthesis/assemble/sketch``.  ``reduce``
        runs outside those spans.
        """
        metrics = metrics if metrics is not None else Metrics()

        # Phase 1 — per-run RNG work: run lengths and demand synthesis.
        prepared: list[_PreparedRun] = []
        with metrics.span("synthesis/demand"):
            for workload, hour, rng in items:
                if isinstance(rng, np.random.SeedSequence):
                    rng = np.random.default_rng(rng)
                if not 0 <= hour < 24:
                    raise SimulationError("hour must be in [0, 24)")
                buckets = self._run_length(rng)
                demand = self.demand_model.generate(workload, hour, buckets, rng)
                prepared.append(
                    _PreparedRun(
                        workload,
                        hour,
                        rng,
                        buckets,
                        demand,
                        demand.connections,
                        float(demand.demand.sum()),
                    )
                )

        # Phase 2 — one vectorized fluid pass per rack profile.
        groups: dict[tuple, list[int]] = {}
        for index, entry in enumerate(prepared):
            key = (
                entry.workload.placement.servers,
                entry.workload.rack_config.server_link_rate,
                entry.workload.rack_config.buffer,
            )
            groups.setdefault(key, []).append(index)

        outputs = SYNTHESIS_OUTPUTS if reduce is None else CORE_OUTPUTS
        # Each item's fluid outputs: its batch and its row in it.
        fluid_rows: list[tuple[FluidBufferBatchResult, int] | None] = [None] * len(prepared)
        with metrics.span("synthesis/fluid"):
            for member_indices in groups.values():
                model = self._fluid_model(prepared[member_indices[0]].workload)
                lengths = np.array(
                    [prepared[i].buckets for i in member_indices], dtype=np.int64
                )
                runs, max_buckets = len(member_indices), int(lengths.max())
                # A (runs, buckets, servers) view of a time-major buffer,
                # so the live columns are gathered row by row.
                batch_demand = np.zeros((max_buckets, runs, model.servers)).transpose(1, 0, 2)
                persistence = np.empty((runs, model.servers))
                initial_m = np.empty((runs, model.servers))
                initial_alpha = np.empty((runs, model.servers))
                for row, i in enumerate(member_indices):
                    demand = prepared[i].demand
                    prepared[i].demand = None
                    batch_demand[row, : lengths[row]] = demand.demand
                    persistence[row] = demand.persistence
                    initial_m[row] = demand.initial_multiplier
                    initial_alpha[row] = demand.initial_alpha
                batch = model.run_batch(
                    batch_demand,
                    persistence,
                    initial_m,
                    initial_alpha,
                    lengths=lengths,
                    outputs=outputs,
                )
                metrics.incr("synthesis.fluid.columns", runs * model.servers)
                metrics.incr("synthesis.fluid.live_columns", batch.live.size)
                for row, i in enumerate(member_indices):
                    fluid_rows[i] = (batch, row)

        # Phase 3 — per-run RNG work again: sketch noise, then (for a
        # raw run) the egress echo and SyncRun assembly.  Each item's
        # RNG resumes right after its demand draws, because the fluid
        # step drew nothing.
        out: list = []
        for entry, (batch, row) in zip(prepared, fluid_rows):
            with metrics.span("synthesis/assemble"):
                run = self._stack(entry, batch, row, metrics)
                if reduce is None:
                    run = self._assemble(
                        run, entry, batch.run_output(ECN_MASK, row), start_time
                    )
            out.append(run if reduce is None else reduce(run))
            # Freed before the next run is built.
            del run
        metrics.incr("synthesis.batched_runs", len(out))
        return out
