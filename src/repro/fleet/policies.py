"""Alternative buffer-sharing policies (Section 10 related work).

The paper motivates its measurement by the design space of buffer
sharing algorithms and closes by arguing that "our work can inform the
design of such buffer sharing algorithms".  This module implements the
policies the related-work section cites, as drop-in threshold rules
for the fluid buffer model, so the paper's own dataset synthesis can
ablate them:

* :class:`DynamicThresholdPolicy` — Choudhury-Hahne (deployed baseline):
  ``T = alpha * (B - Q)``.
* :class:`StaticPartitionPolicy` — each queue owns ``B / N`` outright.
* :class:`CompleteSharingPolicy` — no per-queue limit; first come,
  first buffered (maximal absorption, no isolation).
* :class:`EnhancedDynamicThresholdPolicy` — Shan et al. (INFOCOM 2015):
  relax the fairness constraint for short excursions so microbursts
  can use the free buffer, by granting every queue a floor of the
  current free space on top of the DT limit.
* :class:`FlowAwareThresholdPolicy` — FAB (Apostolaki et al.): a higher
  alpha for short/bursty ("mice") queues, lower for long-running
  ("elephant") queues, keyed by how long the queue has been active.
* :class:`DelayDrivenSharingPolicy` — BShare-style: the share a queue
  may hold is capped by an *estimated queueing delay* budget
  (occupancy / drain rate), not just by free buffer.
* :class:`SharedHeadroomPoolPolicy` — SONiC-style xon/xoff split: a
  reserved headroom pool, over-subscribed across queues, sits on top of
  a DT-governed main pool.

Policies are addressable by name through the registry: a serializable
:class:`~repro.config.PolicySpec` (name + pinned parameters) turns into
a live policy via :func:`build_policy`, which is how ``FleetConfig``
carries a sharing policy through dataset generation, the cache key, the
shard store, and the packet-level :class:`~repro.simnet.buffer.SharedBuffer`.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..config import DEFAULT_POLICY_SPEC, PolicySpec
from ..errors import ConfigError, SimulationError
from .kernels import fluid as _native


class SharingPolicy:
    """Per-step threshold rule for the fluid buffer model.

    Implementations return, per server queue, the maximum occupancy the
    queue may hold at the end of the step (on top of which the model
    adds the per-queue dedicated allocation).
    """

    name = "abstract"

    #: True when :meth:`limits` is written with broadcasting-safe ops
    #: (``[..., quadrant]`` indexing, shape-generic fills) so the batched
    #: fluid kernel can call it directly on ``(runs, ...)`` arrays.  Every
    #: built-in policy sets this; third-party policies written against the
    #: per-run signature keep working through the :meth:`limits_batch`
    #: fallback loop.
    batch_limits = False

    #: True when :meth:`limits` reads ``active_steps``.  The fluid loop
    #: keeps that count up to date only for such policies (the others
    #: see zeros), so a policy that never reads it sets this to False.
    reads_active_steps = True

    #: Id of this policy's limit rule in the native (numba-jitted) fluid
    #: kernel (see :func:`repro.fleet.kernels.fluid._policy_limit`), or
    #: ``None`` when the policy has none — the fluid model then runs the
    #: whole rack on the numpy path (which evaluates :meth:`limits` per
    #: bucket) regardless of the kernel setting.  Third-party policies
    #: need not set this; the numpy path is always the semantic oracle.
    native_kernel_id: int | None = None

    def native_kernel_params(self) -> tuple[float, float, float, float]:
        """This instance's parameters packed into the fixed-width float
        vector the native limit rule reads (width
        :data:`~repro.fleet.kernels.fluid.MAX_POLICY_PARAMS`)."""
        return (0.0, 0.0, 0.0, 0.0)

    def limits(
        self,
        shared_total: float,
        pool_used: np.ndarray,
        quadrant: np.ndarray,
        queue_shared_used: np.ndarray,
        active_steps: np.ndarray,
    ) -> np.ndarray:
        """Per-queue shared-occupancy limit for this step.

        ``pool_used`` is the per-quadrant shared occupancy; ``quadrant``
        maps servers to quadrants; ``queue_shared_used`` is each queue's
        current shared occupancy; ``active_steps`` counts consecutive
        steps each queue has been non-empty (the mice/elephant signal).
        """
        raise NotImplementedError

    def limits_batch(
        self,
        shared_total: float,
        pool_used: np.ndarray,
        quadrant: np.ndarray,
        queue_shared_used: np.ndarray,
        active_steps: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`limits` over a leading runs axis.

        ``pool_used`` is ``(runs, quadrants)``; ``queue_shared_used`` and
        ``active_steps`` are ``(runs, servers)``; the result is
        ``(runs, servers)``.  Policies flagged :attr:`batch_limits` are
        evaluated in one vectorized call; anything else falls back to one
        :meth:`limits` call per run, which is exactly equivalent.
        """
        if self.batch_limits:
            return self.limits(
                shared_total, pool_used, quadrant, queue_shared_used, active_steps
            )
        return np.stack(
            [
                self.limits(
                    shared_total,
                    pool_used[run],
                    quadrant,
                    queue_shared_used[run],
                    active_steps[run],
                )
                for run in range(pool_used.shape[0])
            ]
        )


#: Registered policy classes by :attr:`SharingPolicy.name`.  The
#: registry is the single source of truth for which policies a
#: :class:`~repro.config.PolicySpec` may name; sweeps enumerate it so a
#: newly registered policy joins every policy-parameterized experiment
#: automatically.
POLICY_REGISTRY: dict[str, type[SharingPolicy]] = {}


def register_policy(cls: type[SharingPolicy]) -> type[SharingPolicy]:
    """Class decorator: make ``cls`` addressable by its ``name``."""
    if not cls.name or cls.name == "abstract":
        raise ConfigError(f"policy class {cls.__name__} needs a concrete name")
    if cls.name in POLICY_REGISTRY:
        raise ConfigError(f"policy name {cls.name!r} registered twice")
    POLICY_REGISTRY[cls.name] = cls
    return cls


@register_policy
class DynamicThresholdPolicy(SharingPolicy):
    """The deployed baseline: T = alpha * (B - Q)."""

    name = "dynamic-threshold"
    batch_limits = True
    reads_active_steps = False
    native_kernel_id = _native.POLICY_DYNAMIC_THRESHOLD

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise SimulationError("alpha must be positive")
        self.alpha = alpha

    def native_kernel_params(self):
        return (self.alpha, 0.0, 0.0, 0.0)

    def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active_steps):
        free = np.maximum(shared_total - pool_used, 0.0)
        return self.alpha * free[..., quadrant]


@register_policy
class StaticPartitionPolicy(SharingPolicy):
    """Hard partitioning: every queue owns an equal slice."""

    name = "static-partition"
    batch_limits = True
    reads_active_steps = False
    native_kernel_id = _native.POLICY_STATIC_PARTITION

    def __init__(self, queues_per_quadrant: int) -> None:
        if queues_per_quadrant <= 0:
            raise SimulationError("need at least one queue per quadrant")
        self.queues_per_quadrant = queues_per_quadrant

    def native_kernel_params(self):
        return (float(self.queues_per_quadrant), 0.0, 0.0, 0.0)

    def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active_steps):
        slice_bytes = shared_total / self.queues_per_quadrant
        shape = np.shape(queue_shared_used)[:-1] + (len(quadrant),)
        return np.full(shape, slice_bytes)


@register_policy
class CompleteSharingPolicy(SharingPolicy):
    """No per-queue limit: admit until the pool is physically full."""

    name = "complete-sharing"
    batch_limits = True
    reads_active_steps = False
    native_kernel_id = _native.POLICY_COMPLETE_SHARING

    def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active_steps):
        shape = np.shape(queue_shared_used)[:-1] + (len(quadrant),)
        return np.full(shape, shared_total)


@register_policy
class EnhancedDynamicThresholdPolicy(SharingPolicy):
    """EDT-style burst absorption (Shan et al.).

    On top of the DT limit, every queue may always reach a fraction of
    the *currently free* pool — letting a microburst use idle buffer
    even when its DT share is small, while long-term fairness is still
    anchored by the DT term.
    """

    name = "enhanced-dt"
    batch_limits = True
    reads_active_steps = False
    native_kernel_id = _native.POLICY_ENHANCED_DT

    def __init__(self, alpha: float = 1.0, burst_fraction: float = 0.5) -> None:
        if alpha <= 0 or not 0 <= burst_fraction <= 1:
            raise SimulationError("invalid EDT parameters")
        self.alpha = alpha
        self.burst_fraction = burst_fraction

    def native_kernel_params(self):
        return (self.alpha, self.burst_fraction, 0.0, 0.0)

    def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active_steps):
        free = np.maximum(shared_total - pool_used, 0.0)[..., quadrant]
        dt_limit = self.alpha * free
        burst_floor = queue_shared_used + self.burst_fraction * free
        return np.maximum(dt_limit, burst_floor)


@register_policy
class FlowAwareThresholdPolicy(SharingPolicy):
    """FAB-style class-dependent alpha (Apostolaki et al.).

    Queues that have been continuously active for *at most*
    ``mice_steps`` get the high "mice" alpha (absorb their burst);
    longer-running queues get the low "elephant" alpha (they are paced
    by congestion control anyway and should not crowd the pool).  The
    boundary is inclusive — a queue active for exactly ``mice_steps``
    consecutive steps is still a mouse, and turns elephant on the next
    active step (every dataset generated to date was produced under
    this rule, so the code is pinned and the doc follows it).
    """

    name = "flow-aware"
    batch_limits = True
    native_kernel_id = _native.POLICY_FLOW_AWARE

    def __init__(
        self,
        mice_alpha: float = 4.0,
        elephant_alpha: float = 0.5,
        mice_steps: int = 4,
    ) -> None:
        if mice_alpha <= 0 or elephant_alpha <= 0:
            raise SimulationError("alphas must be positive")
        if mice_steps < 1:
            raise SimulationError("mice window must be at least one step")
        self.mice_alpha = mice_alpha
        self.elephant_alpha = elephant_alpha
        self.mice_steps = mice_steps

    def native_kernel_params(self):
        return (self.mice_alpha, self.elephant_alpha, float(self.mice_steps), 0.0)

    def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active_steps):
        free = np.maximum(shared_total - pool_used, 0.0)[..., quadrant]
        alpha = np.where(
            active_steps <= self.mice_steps, self.mice_alpha, self.elephant_alpha
        )
        return alpha * free


@register_policy
class DelayDrivenSharingPolicy(SharingPolicy):
    """BShare-style delay-driven sharing (see PAPERS.md).

    Choudhury-Hahne keys a queue's share on raw *occupancy*; BShare's
    observation is that the quantity operators actually bound is the
    *queueing delay* a packet admitted now will experience — the queue's
    occupancy divided by its drain rate.  This policy grants the DT
    share but never more than the occupancy whose drain time equals the
    delay budget:

        limit = min(alpha * (B - Q),  target_delay_steps * drain_per_step)

    ``drain_per_step`` is the bytes one queue drains per model step
    (line rate x step); the default is the paper's rack profile, a
    12.5 Gbps server link at the 1 ms analysis interval.  With the
    default two-step budget the cap is ~3.1 MB — below the quadrant's
    free-pool share when the buffer is empty, so unlike DT a single
    fresh burst cannot buy multi-millisecond queues even when the pool
    is idle; under contention the DT term takes over and behaviour
    converges to the deployed baseline.
    """

    name = "delay-driven"
    batch_limits = True
    reads_active_steps = False
    native_kernel_id = _native.POLICY_DELAY_DRIVEN

    def __init__(
        self,
        alpha: float = 1.0,
        target_delay_steps: float = 2.0,
        drain_per_step: float | None = None,
    ) -> None:
        if alpha <= 0:
            raise SimulationError("alpha must be positive")
        if target_delay_steps <= 0:
            raise SimulationError("delay budget must be positive")
        if drain_per_step is None:
            from .. import units

            drain_per_step = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL
        if drain_per_step <= 0:
            raise SimulationError("drain per step must be positive")
        self.alpha = alpha
        self.target_delay_steps = target_delay_steps
        self.drain_per_step = drain_per_step

    def native_kernel_params(self):
        # The same product limits() computes each call.
        return (self.alpha, self.target_delay_steps * self.drain_per_step, 0.0, 0.0)

    def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active_steps):
        free = np.maximum(shared_total - pool_used, 0.0)[..., quadrant]
        delay_cap = self.target_delay_steps * self.drain_per_step
        return np.minimum(self.alpha * free, delay_cap)


@register_policy
class SharedHeadroomPoolPolicy(SharingPolicy):
    """SONiC-style shared headroom pool with an xon/xoff reserved split.

    The SONiC QoS design splits the buffer into a *main* pool governed
    by dynamic thresholds and a *reserved headroom* pool sized for
    in-flight bytes after pause (the xoff headroom).  Headroom is not
    dedicated per queue — it is a shared pool, over-subscribed by a
    ratio chosen from the probability of simultaneous congestion: with
    over-subscription ``r``, each of ``N`` queues may claim up to
    ``r * H / N`` of the headroom pool ``H``, first come first served,
    until the pool is physically exhausted.

    Fluid translation: ``H = headroom_fraction * B`` is carved off the
    shared pool; pool bytes fill the main pool ``M = B - H`` first and
    spill into headroom.  A queue's limit is its DT share of the main
    pool plus its (over-subscribed, availability-clipped) headroom
    quota:

        limit = alpha * max(M - main_used, 0)
              + min(r * H / N,  max(H - headroom_used, 0))

    Versus pure DT over ``B``: when the buffer is busy, DT's share
    collapses toward zero while this policy still guarantees a headroom
    quota (burst absorption under contention); when the buffer is idle
    the main-pool share is smaller than DT's (isolation).
    """

    name = "shared-headroom"
    batch_limits = True
    reads_active_steps = False
    native_kernel_id = _native.POLICY_SHARED_HEADROOM

    def __init__(
        self,
        queues_per_quadrant: int,
        alpha: float = 1.0,
        headroom_fraction: float = 0.15,
        oversubscription: float = 2.0,
    ) -> None:
        if queues_per_quadrant <= 0:
            raise SimulationError("need at least one queue per quadrant")
        if alpha <= 0:
            raise SimulationError("alpha must be positive")
        if not 0 < headroom_fraction < 1:
            raise SimulationError("headroom must be a proper fraction of the pool")
        if oversubscription <= 0:
            raise SimulationError("over-subscription ratio must be positive")
        self.queues_per_quadrant = queues_per_quadrant
        self.alpha = alpha
        self.headroom_fraction = headroom_fraction
        self.oversubscription = oversubscription

    def native_kernel_params(self):
        return (
            self.alpha,
            self.headroom_fraction,
            self.oversubscription,
            float(self.queues_per_quadrant),
        )

    def limits(self, shared_total, pool_used, quadrant, queue_shared_used, active_steps):
        headroom_total = self.headroom_fraction * shared_total
        main_total = shared_total - headroom_total
        main_used = np.minimum(pool_used, main_total)
        headroom_used = np.maximum(pool_used - main_total, 0.0)
        main_share = self.alpha * np.maximum(main_total - main_used, 0.0)
        quota = self.oversubscription * headroom_total / self.queues_per_quadrant
        headroom_left = np.maximum(headroom_total - headroom_used, 0.0)
        grant = main_share + np.minimum(quota, headroom_left)
        return grant[..., quadrant]


def standard_policies(queues_per_quadrant: int) -> list[SharingPolicy]:
    """Every policy the ablation bench sweeps, with paper-ish defaults."""
    return [
        DynamicThresholdPolicy(alpha=1.0),
        StaticPartitionPolicy(queues_per_quadrant),
        CompleteSharingPolicy(),
        EnhancedDynamicThresholdPolicy(alpha=1.0, burst_fraction=0.5),
        FlowAwareThresholdPolicy(),
    ]


# ---------------------------------------------------------------------------
# Registry plumbing: PolicySpec <-> live policy
# ---------------------------------------------------------------------------

#: Policies whose constructor takes the quadrant's queue count; the
#: builder injects the rack geometry when the spec does not pin it.
_GEOMETRY_PARAM = "queues_per_quadrant"


def build_policy(
    spec: PolicySpec, queues_per_quadrant: int | None = None
) -> SharingPolicy:
    """Instantiate the registered policy a :class:`PolicySpec` names.

    Parameters pinned in the spec are passed to the policy constructor;
    anything unpinned takes the class default.  Policies that partition
    by queue count (static partition, shared headroom) receive
    ``queues_per_quadrant`` from the caller — the rack geometry is a
    property of the workload, not of the policy's identity, so specs
    normally leave it unpinned and stay valid across rack shapes.
    Unknown names or parameters, and values the constructor rejects,
    raise :class:`~repro.errors.ConfigError`.
    """
    try:
        cls = POLICY_REGISTRY[spec.name]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ConfigError(
            f"unknown sharing policy {spec.name!r} (registered: {known})"
        ) from None
    params = spec.param_dict()
    accepted = inspect.signature(cls.__init__).parameters
    if _GEOMETRY_PARAM in accepted and _GEOMETRY_PARAM not in params:
        if queues_per_quadrant is None:
            raise ConfigError(
                f"policy {spec.name!r} partitions by queue count; pass "
                f"queues_per_quadrant or pin it in the spec"
            )
        params[_GEOMETRY_PARAM] = queues_per_quadrant
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigError(
            f"policy {spec.name!r} does not take parameter(s) {unknown}"
        )
    try:
        return cls(**params)
    except (SimulationError, TypeError, ValueError) as exc:
        # An out-of-range or mistyped parameter is a configuration
        # error, reported like an unknown one.
        raise ConfigError(f"policy {spec.name!r} rejected its parameters: {exc}") from exc


def parse_policy_arg(text: str) -> PolicySpec:
    """Parse a ``--policy name:key=val,...`` CLI value into a validated spec.

    Rejects unknown names and parameters up front so a typo fails at
    argument-parsing time, not hours into generation.
    """
    spec = PolicySpec.from_string(text)
    # Building (with a placeholder geometry) validates name and params.
    build_policy(spec, queues_per_quadrant=1)
    return spec


def registered_policy_specs() -> list[PolicySpec]:
    """One default-parameter :class:`PolicySpec` per registered policy.

    This is the sweep axis: every registered policy at its class-default
    parameters, in sorted-name order, with the deployed DT default spec
    first (the baseline every comparison is against).
    """
    names = sorted(POLICY_REGISTRY)
    names.remove(DEFAULT_POLICY_SPEC.name)
    return [DEFAULT_POLICY_SPEC] + [PolicySpec(name=name) for name in names]
