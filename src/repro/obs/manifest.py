"""The JSON run manifest: what ran, with which config, and how it went.

``millisampler-repro run all --manifest out/manifest.json`` leaves a
machine-readable record of the whole suite — the dataset configuration
and seed, the shard store it read (root and geometry), store traffic,
and one outcome entry per experiment (status, wall time, peak memory,
headline metrics).  CI, regression tooling, and
later scaling PRs read this instead of parsing terminal output.

Schema (version 3) — see :data:`MANIFEST_SCHEMA` for the field-level
contract enforced by :func:`validate_manifest`:

```json
{
  "schema": "millisampler-repro/run-manifest",
  "schema_version": 3,
  "created_at": 1754438400.0,
  "config": {"racks_per_region": 100, "runs_per_rack": 10,
             "hours": 24, "seed": 20221025, "jobs": 0,
             "policy": "{...}",
             "store_dir": "~/.cache/millisampler-shards",
             "shard_racks": 64, "shard_hours": 12},
  "trace_memory": false,
  "status": "failed",
  "failed": ["fig9"],
  "experiments": [
    {"experiment_id": "fig1", "status": "ok", "wall_time_s": 0.21,
     "error": null, "peak_tracemalloc_bytes": null,
     "peak_rss_bytes": 181403648, "cache_hits": 0, "cache_misses": 0,
     "metrics": {"share_alpha1_s1": 0.5}},
    {"experiment_id": "fig9", "status": "failed", "wall_time_s": 0.02,
     "error": "AnalysisError: ...", ...}
  ],
  "telemetry": {"counters": {"dataset.shards.hit": 2}, "timers": {...}}
}
```

``cache_hits``/``cache_misses`` count the shard stores an experiment
reused or built.  ``store_dir`` is the store root the run read: the
``--store-dir`` flag, the default root, or the private temporary root a
``--no-cache`` run builds into (removed when the run exits).

``trace_memory`` says whether the run traced allocations with
``tracemalloc`` (``--trace-memory``).  Only then do outcomes carry a
``peak_tracemalloc_bytes`` figure, and the tracer slows every
allocation, so a reader comparing wall times must check it.  Manifests
written before the field existed omit it.
"""

from __future__ import annotations

import json
import os
import time

from ..errors import ManifestError

#: Name of the schema family; distinguishes this file from any other JSON.
MANIFEST_SCHEMA = "millisampler-repro/run-manifest"

#: Bump on any backwards-incompatible change to the manifest layout.
MANIFEST_SCHEMA_VERSION = 3

#: Valid values of an experiment outcome's ``status`` field.
OUTCOME_STATUSES = ("ok", "failed", "skipped")

#: Required per-experiment outcome fields -> accepted types (None-able
#: fields list ``type(None)``).
_OUTCOME_FIELDS: dict[str, tuple[type, ...]] = {
    "experiment_id": (str,),
    "status": (str,),
    "wall_time_s": (int, float),
    "error": (str, type(None)),
    "peak_tracemalloc_bytes": (int, type(None)),
    "peak_rss_bytes": (int, type(None)),
    "cache_hits": (int, float),
    "cache_misses": (int, float),
    "metrics": (dict,),
}

_CONFIG_FIELDS: dict[str, tuple[type, ...]] = {
    "racks_per_region": (int,),
    "runs_per_rack": (int,),
    "hours": (int,),
    "seed": (int,),
    "jobs": (int,),
    # Where and how the region-days were sharded.
    "store_dir": (str,),
    "shard_racks": (int,),
    "shard_hours": (int,),
}


def _config_block(
    fleet_config, store_dir: str, shard_racks: int, shard_hours: int
) -> dict:
    """The ``config`` block the run manifest and ``/metrics`` share."""
    return {
        "racks_per_region": fleet_config.racks_per_region,
        "runs_per_rack": fleet_config.runs_per_rack,
        "hours": fleet_config.hours,
        "seed": fleet_config.seed,
        "jobs": fleet_config.jobs,
        "policy": fleet_config.policy.canonical_json(),
        "store_dir": store_dir,
        "shard_racks": shard_racks,
        "shard_hours": shard_hours,
    }


def _config_problems(config) -> list[str]:
    """Schema violations of a shared ``config`` block."""
    if not isinstance(config, dict):
        return ["config is not a dict"]
    return [
        f"config.{name} missing or mistyped"
        for name, types in _CONFIG_FIELDS.items()
        if not isinstance(config.get(name), types)
    ]


def _clean_number(value):
    """Coerce numpy scalars (and other number-likes) to JSON floats."""
    if isinstance(value, (int, float)):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)


def build_manifest(
    fleet_config,
    outcomes,
    *,
    store_dir: str,
    shard_racks: int,
    shard_hours: int,
    telemetry: dict | None = None,
    trace_memory: bool = False,
) -> dict:
    """Assemble a schema-valid manifest dict.

    ``fleet_config`` is the run's :class:`~repro.config.FleetConfig`;
    ``outcomes`` is the ordered list of
    :class:`~repro.experiments.orchestrator.ExperimentOutcome`;
    ``store_dir``/``shard_racks``/``shard_hours`` name the shard store
    the run read.
    """
    failed = [o.experiment_id for o in outcomes if o.status == "failed"]
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_at": time.time(),
        "config": _config_block(fleet_config, store_dir, shard_racks, shard_hours),
        "trace_memory": trace_memory,
        "status": "failed" if failed else "ok",
        "failed": failed,
        "experiments": [
            {
                "experiment_id": outcome.experiment_id,
                "status": outcome.status,
                "wall_time_s": float(outcome.wall_time_s),
                "error": outcome.error,
                "peak_tracemalloc_bytes": outcome.peak_tracemalloc_bytes,
                "peak_rss_bytes": outcome.peak_rss_bytes,
                "cache_hits": outcome.cache_hits,
                "cache_misses": outcome.cache_misses,
                "metrics": {
                    name: _clean_number(value)
                    for name, value in sorted(outcome.metrics.items())
                },
            }
            for outcome in outcomes
        ],
        "telemetry": telemetry if telemetry is not None else {},
    }
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: dict) -> None:
    """Check a manifest against the current schema version.

    Raises :class:`~repro.errors.ManifestError` listing *every*
    violation, so a failing CI run reports the whole story at once.
    """
    problems: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    check(isinstance(manifest, dict), "manifest is not a dict")
    if not isinstance(manifest, dict):
        raise ManifestError("; ".join(problems))

    check(manifest.get("schema") == MANIFEST_SCHEMA,
          f"schema != {MANIFEST_SCHEMA!r}")
    check(manifest.get("schema_version") == MANIFEST_SCHEMA_VERSION,
          f"schema_version != {MANIFEST_SCHEMA_VERSION}")
    check(isinstance(manifest.get("created_at"), (int, float)),
          "created_at is not a timestamp")
    check(manifest.get("status") in ("ok", "failed"),
          "status is not 'ok' or 'failed'")
    check(isinstance(manifest.get("trace_memory", False), bool),
          "trace_memory is not a bool")
    check(isinstance(manifest.get("failed"), list), "failed is not a list")
    problems.extend(_config_problems(manifest.get("config")))

    experiments = manifest.get("experiments")
    if isinstance(experiments, list):
        for index, outcome in enumerate(experiments):
            if not isinstance(outcome, dict):
                problems.append(f"experiments[{index}] is not a dict")
                continue
            label = outcome.get("experiment_id", f"#{index}")
            for name, types in _OUTCOME_FIELDS.items():
                check(isinstance(outcome.get(name), types),
                      f"experiments[{label}].{name} missing or mistyped")
            check(outcome.get("status") in OUTCOME_STATUSES,
                  f"experiments[{label}].status not in {OUTCOME_STATUSES}")
            if outcome.get("status") == "failed":
                check(bool(outcome.get("error")),
                      f"experiments[{label}] failed without an error message")
        failed = manifest.get("failed")
        if isinstance(failed, list):
            actual = [o.get("experiment_id") for o in experiments
                      if isinstance(o, dict) and o.get("status") == "failed"]
            check(failed == actual, "failed list disagrees with outcomes")
    else:
        problems.append("experiments is not a list")

    telemetry = manifest.get("telemetry")
    check(isinstance(telemetry, dict), "telemetry is not a dict")

    if problems:
        raise ManifestError(
            "manifest does not satisfy schema v"
            f"{MANIFEST_SCHEMA_VERSION}: " + "; ".join(problems)
        )


#: Schema family of the query service's ``/metrics`` document — a
#: sibling of the run manifest that reuses its ``config`` block layout
#: (and validator) so tooling reading one can read the other.
SERVICE_METRICS_SCHEMA = "millisampler-repro/service-metrics"

#: Version of the service-metrics layout.
SERVICE_METRICS_SCHEMA_VERSION = 2

#: Required service block fields -> accepted types.
_SERVICE_FIELDS: dict[str, tuple[type, ...]] = {
    "requests": (int,),
    "queries_executed": (int,),
    "queries_coalesced": (int,),
    "queries_failed": (int,),
    "pool_replaced": (int,),
    "uptime_s": (int, float),
    "request_threads": (int,),
    "pool_jobs": (int,),
}


def build_service_metrics(
    fleet_config,
    service: dict,
    *,
    store_dir: str,
    shard_racks: int,
    shard_hours: int,
    telemetry: dict | None = None,
) -> dict:
    """Assemble a ``/metrics`` document for the query service.

    Shares the run manifest's ``config`` block verbatim (same fields,
    same types) and carries the service's own counters in ``service``
    plus the full metrics-registry snapshot in ``telemetry``.
    """
    document = {
        "schema": SERVICE_METRICS_SCHEMA,
        "schema_version": SERVICE_METRICS_SCHEMA_VERSION,
        "created_at": time.time(),
        "config": _config_block(fleet_config, store_dir, shard_racks, shard_hours),
        "service": {name: service.get(name, 0) for name in _SERVICE_FIELDS},
        "telemetry": telemetry if telemetry is not None else {},
    }
    validate_service_metrics(document)
    return document


def validate_service_metrics(document: dict) -> None:
    """Check a service ``/metrics`` document; raises listing every
    violation, mirroring :func:`validate_manifest`."""
    problems: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    check(isinstance(document, dict), "metrics document is not a dict")
    if not isinstance(document, dict):
        raise ManifestError("; ".join(problems))

    check(document.get("schema") == SERVICE_METRICS_SCHEMA,
          f"schema != {SERVICE_METRICS_SCHEMA!r}")
    check(document.get("schema_version") == SERVICE_METRICS_SCHEMA_VERSION,
          f"schema_version != {SERVICE_METRICS_SCHEMA_VERSION}")
    check(isinstance(document.get("created_at"), (int, float)),
          "created_at is not a timestamp")
    problems.extend(_config_problems(document.get("config")))

    service = document.get("service")
    if isinstance(service, dict):
        for name, types in _SERVICE_FIELDS.items():
            check(isinstance(service.get(name), types),
                  f"service.{name} missing or mistyped")
    else:
        problems.append("service is not a dict")

    check(isinstance(document.get("telemetry"), dict), "telemetry is not a dict")

    if problems:
        raise ManifestError(
            "service metrics do not satisfy schema v"
            f"{SERVICE_METRICS_SCHEMA_VERSION}: " + "; ".join(problems)
        )


def write_manifest(manifest: dict, path: str) -> str:
    """Validate and write a manifest; returns the path."""
    validate_manifest(manifest)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
