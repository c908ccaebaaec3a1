"""Configuration dataclasses shared by the simulator, fleet model, and
analysis pipeline.

Defaults reproduce the rack profile the paper studies (Section 3): a
50 Gbps NIC shared by 4 servers (12.5 Gbps per server queue), a 16 MB
shared ToR buffer in four 4 MB quadrants with ~3.6 MB dynamically shared
per quadrant, dynamic-threshold alpha of 1, and a 120 KB static ECN
threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import units
from .errors import ConfigError


@dataclass(frozen=True)
class BufferConfig:
    """Shared-memory ToR buffer configuration (Section 2.1 and 3)."""

    #: Total dynamically shared bytes in the quadrant serving the
    #: studied server queues.
    shared_bytes: float = units.SHARED_QUADRANT_BYTES
    #: Dedicated (reserved) bytes available to each queue before it
    #: draws from the shared pool.
    dedicated_bytes_per_queue: float = units.QUADRANT_BYTES - units.SHARED_QUADRANT_BYTES
    #: Dynamic-threshold alpha: T(t) = alpha * (B - Q(t)).
    alpha: float = units.DEFAULT_ALPHA
    #: Static ECN marking threshold per queue.
    ecn_threshold_bytes: float = units.ECN_THRESHOLD_BYTES

    def __post_init__(self) -> None:
        if self.shared_bytes <= 0:
            raise ConfigError("shared buffer must be positive")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.dedicated_bytes_per_queue < 0:
            raise ConfigError("dedicated buffer cannot be negative")
        if self.ecn_threshold_bytes < 0:
            raise ConfigError("ECN threshold cannot be negative")

    def saturated_queue_limit(self, active_queues: int) -> float:
        """Fixed-point per-queue limit when ``active_queues`` queues all
        exercise the buffer to their permitted limit (Section 2.1.2):

            T = alpha * B / (1 + alpha * S)
        """
        if active_queues < 0:
            raise ConfigError("active queue count cannot be negative")
        if active_queues == 0:
            return self.alpha * self.shared_bytes
        return self.alpha * self.shared_bytes / (1.0 + self.alpha * active_queues)

    def queue_share_fraction(self, active_queues: int) -> float:
        """:meth:`saturated_queue_limit` as a fraction of the shared buffer
        (the y-axis of Figure 1)."""
        return self.saturated_queue_limit(active_queues) / self.shared_bytes


@dataclass(frozen=True)
class RackConfig:
    """Physical rack profile (Section 3)."""

    servers: int = units.SERVERS_PER_RACK
    server_link_rate: float = units.SERVER_LINK_RATE
    uplinks: int = 4
    uplink_rate: float = units.gbps(100)
    buffer: BufferConfig = field(default_factory=BufferConfig)
    rtt: float = units.TYPICAL_RTT

    def __post_init__(self) -> None:
        if self.servers <= 0:
            raise ConfigError("rack must have at least one server")
        if self.server_link_rate <= 0:
            raise ConfigError("server link rate must be positive")
        if self.uplinks <= 0 or self.uplink_rate <= 0:
            raise ConfigError("uplinks must exist and have positive rate")
        if self.rtt <= 0:
            raise ConfigError("RTT must be positive")


@dataclass(frozen=True)
class SamplerConfig:
    """Millisampler run parameters (Section 4.1)."""

    #: Width of each time bucket, in seconds.
    sampling_interval: float = units.ANALYSIS_INTERVAL
    #: Number of buckets per run; fixed at 2000 in production.
    buckets: int = units.MILLISAMPLER_BUCKETS
    #: Number of CPU cores (per-CPU counter arrays avoid locking).
    #: Production hosts average a few dozen cores; the per-CPU maps for
    #: 26 cores land near the paper's 3.6 MB average footprint.
    cpus: int = 26
    #: Whether to estimate active connections with the 128-bit sketch.
    count_flows: bool = True

    def __post_init__(self) -> None:
        if self.sampling_interval <= 0:
            raise ConfigError("sampling interval must be positive")
        if self.buckets <= 0:
            raise ConfigError("bucket count must be positive")
        if self.cpus <= 0:
            raise ConfigError("cpu count must be positive")

    @property
    def duration(self) -> float:
        """Nominal observation period of one run, in seconds."""
        return self.sampling_interval * self.buckets


#: Parameter values a :class:`PolicySpec` may carry.  The scalar JSON
#: types only — a spec must survive a canonical-JSON round trip bit-for-
#: bit, and it crosses process boundaries (pickled into workers, hashed
#: into dataset cache keys), so anything richer lives in the policy
#: object built from the spec, never in the spec itself.
_POLICY_PARAM_TYPES = (str, int, float, bool)


def _coerce_policy_value(raw: str) -> str | int | float | bool:
    """Parse one ``key=value`` CLI token into its natural scalar type."""
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


@dataclass(frozen=True)
class PolicySpec:
    """Serializable identity of a buffer-sharing policy.

    A spec is *data*, not behaviour: a registered policy name plus the
    constructor parameters the run pins down, normalized to a sorted
    tuple of ``(key, value)`` pairs so equal specs compare, hash, and
    serialize identically.  The live :class:`~repro.fleet.policies.SharingPolicy`
    is built from a spec via :func:`repro.fleet.policies.build_policy`
    (the registry lives there; this module stays import-cycle-free).

    The default spec — ``dynamic-threshold`` with no pinned parameters —
    means "Choudhury-Hahne DT at the rack's configured alpha", i.e.
    exactly the behaviour every dataset had before policy became a
    config axis.  Parameters left unpinned take the policy class's own
    defaults at build time.
    """

    name: str = "dynamic-threshold"
    params: tuple[tuple[str, str | int | float | bool], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("policy name must be a non-empty string")
        raw = self.params.items() if isinstance(self.params, dict) else self.params
        seen: dict[str, str | int | float | bool] = {}
        for pair in raw:
            try:
                key, value = pair
            except (TypeError, ValueError):
                raise ConfigError(
                    "policy params must be (name, value) pairs"
                ) from None
            if not isinstance(key, str) or not key:
                raise ConfigError("policy parameter names must be non-empty strings")
            if key in seen:
                raise ConfigError(f"duplicate policy parameter {key!r}")
            if not isinstance(value, _POLICY_PARAM_TYPES):
                raise ConfigError(
                    f"policy parameter {key!r} must be str/int/float/bool, "
                    f"got {type(value).__name__}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"policy parameter {key!r} must be finite")
            seen[key] = value
        object.__setattr__(self, "params", tuple(sorted(seen.items())))

    def param_dict(self) -> dict[str, str | int | float | bool]:
        """The pinned parameters as a plain dict."""
        return dict(self.params)

    def canonical_json(self) -> str:
        """Deterministic JSON form: equal specs produce equal strings.

        This is the spec's identity everywhere it is persisted — the
        dataset cache key payload, the shard-store manifest — so it must
        be stable across processes and Python versions (sorted keys, no
        NaN, no whitespace variance).
        """
        return json.dumps(
            {"name": self.name, "params": self.param_dict()},
            sort_keys=True,
            allow_nan=False,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "PolicySpec":
        """Inverse of :meth:`canonical_json`."""
        try:
            payload = json.loads(text)
            name = payload["name"]
            params = tuple(payload.get("params", {}).items())
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ConfigError(f"malformed policy spec JSON: {exc}") from exc
        return cls(name=name, params=params)

    @classmethod
    def from_string(cls, text: str) -> "PolicySpec":
        """Parse the CLI form ``name`` or ``name:key=val,key=val``.

        Values are coerced to the narrowest scalar type that parses
        (bool, int, float, then string), matching how the policy
        constructors consume them.
        """
        name, _, rest = text.partition(":")
        name = name.strip()
        params: list[tuple[str, str | int | float | bool]] = []
        if rest.strip():
            for token in rest.split(","):
                key, sep, raw = token.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ConfigError(
                        f"malformed policy parameter {token!r}; "
                        "expected name:key=value,key=value"
                    )
                params.append((key, _coerce_policy_value(raw.strip())))
        return cls(name=name, params=tuple(params))


#: The spec every config carries unless a run pins another policy: the
#: deployed Choudhury-Hahne dynamic threshold, exactly as before policy
#: was a config axis.
DEFAULT_POLICY_SPEC = PolicySpec()


@dataclass(frozen=True)
class FleetConfig:
    """Scale of the synthetic region-day dataset (Section 5).

    The paper samples 1000 racks per region hourly for a day.  The
    defaults here are laptop-scale; experiments scale them up or down
    explicitly.  ``runs_per_rack`` corresponds to the ~10 runs each rack
    contributes across the day.

    Zero racks or zero runs per rack are valid degenerate scales: they
    describe an *empty* region-day, and every generation path (serial,
    parallel, sharded) returns the same empty dataset for them.
    """

    racks_per_region: int = 200
    runs_per_rack: int = 10
    hours: int = 24
    seed: int = 20221025  # IMC '22 started October 25, 2022.
    #: Worker processes for dataset generation: 1 = serial, 0 = every
    #: available core.  Execution-only — never changes the generated
    #: data (per-(rack, run) seed streams make any fan-out identical),
    #: and is therefore excluded from the dataset cache key.
    jobs: int = 1
    #: Buffer-sharing policy every synthesized rack runs under.  A
    #: dataset axis like ``seed``: two configs differing only in policy
    #: describe *different* region-days, so the spec feeds the dataset
    #: cache key and the shard-store manifest (see
    #: :mod:`repro.fleet.cache`; the default DT spec is keyed as the
    #: pre-policy-axis payload so existing caches stay valid).
    policy: PolicySpec = field(default_factory=PolicySpec)

    def __post_init__(self) -> None:
        if self.racks_per_region < 0:
            raise ConfigError("region rack count cannot be negative")
        if self.runs_per_rack < 0:
            raise ConfigError("runs per rack cannot be negative")
        if not 1 <= self.hours <= 24:
            raise ConfigError("hours must be within a day")
        if self.runs_per_rack > self.hours:
            # Each run of a rack takes a distinct hour of the day.
            raise ConfigError(
                f"cannot run a rack more often than hourly: {self.runs_per_rack} "
                f"runs per rack over {self.hours} hours"
            )
        if self.jobs < 0:
            raise ConfigError("jobs cannot be negative (0 means all cores)")
        # The dataset key hashes the seed as given, and each region's
        # stream tree takes it as one non-negative 63-bit entropy word.
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        if not isinstance(self.policy, PolicySpec):
            raise ConfigError("policy must be a PolicySpec")


#: The configuration used throughout the paper's analysis.
PAPER_RACK = RackConfig()
PAPER_SAMPLER = SamplerConfig()
