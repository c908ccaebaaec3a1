"""Content identity of a generated region-day.

Every figure and table draws on the same region-day of summaries, and
generating one costs minutes of fluid-model time at paper scale.  The
shard store (:mod:`repro.fleet.shards`) keeps each generated region-day
on disk under a hash of everything that determines its contents — the
:class:`RegionSpec`, the dataset-shaping fields of
:class:`FleetConfig`, and a dataset-format version — so a given
configuration pays generation once ever.  ``FleetConfig.jobs`` and the
other execution-only fields are deliberately *excluded* from the key:
they change how a dataset is computed, never what it contains.

Writers go through a temp file plus an atomic rename, so a crashed
writer cannot leave a half-written file under its final name; the
orphaned temp files it leaves are swept by :func:`sweep_stale_tmp_files`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time

from ..config import DEFAULT_POLICY_SPEC, FleetConfig
from ..obs.metrics import Metrics
from ..workload.region import RegionSpec

#: Bump whenever generation or the summary layout changes in a way that
#: invalidates previously generated datasets.  2: sketch noise draws a
#: moment-matched normal zero-bit count
#: (:func:`repro.fleet.rackrun.sketch_estimates`).
DATASET_FORMAT_VERSION = 2


def _canonical(value):
    """A JSON-ready, deterministic projection of config objects.

    Handles the mix found in :class:`RegionSpec`: nested dataclasses,
    plain policy classes (projected via ``vars``), dicts, and tuples.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        # Sort by the *stringified* key: mixed-type keys (e.g. int and
        # str in one dict) are unorderable and would make plain
        # sorted(value.items()) raise TypeError.
        return {
            str(key): _canonical(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        # NaN/inf are not valid JSON; project them to stable tokens so
        # the key payload stays portable across serializers.
        return f"__float__:{value!r}"
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "__dict__"):
        return {
            "__type__": type(value).__name__,
            **{key: _canonical(item) for key, item in sorted(vars(value).items())},
        }
    return repr(value)


#: Every :class:`FleetConfig` field must appear in exactly one of these
#: two sets.  ``KEY_BEARING_FIELDS`` shape the generated data and feed
#: the content hash; ``EXECUTION_ONLY_FIELDS`` change only how a dataset
#: is computed (fan-out, batching) and are deliberately excluded.  A
#: test asserts the classification is exhaustive, so a future
#: dataset-shaping field cannot silently alias stored datasets.
KEY_BEARING_FIELDS: tuple[str, ...] = (
    "racks_per_region",
    "runs_per_rack",
    "hours",
    "seed",
    "policy",
)
EXECUTION_ONLY_FIELDS: tuple[str, ...] = ("jobs", "fluid_batch", "kernel")


def dataset_cache_key(spec: RegionSpec, config: FleetConfig) -> str:
    """Content hash of everything that determines a region-day's data."""
    fleet_fields = {}
    for name in KEY_BEARING_FIELDS:
        value = getattr(config, name)
        if name == "policy" and value == DEFAULT_POLICY_SPEC:
            # The default DT spec reproduces exactly the data generated
            # before policy became a config axis, so it is omitted from
            # the payload: default-policy keys are byte-identical to
            # pre-policy keys and every existing shard store stays
            # valid.  Any non-default spec is keyed.
            continue
        fleet_fields[name] = _canonical(value)
    payload = {
        "format": DATASET_FORMAT_VERSION,
        "spec": _canonical(spec),
        # Explicit field list rather than asdict(config): jobs (and any
        # future execution-only knob) must not change the key.
        "fleet": fleet_fields,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, allow_nan=False).encode("utf-8")
    ).hexdigest()
    return digest


#: Counter of orphaned temp files removed by :func:`sweep_stale_tmp_files`.
SWEEP_COUNTER = "dataset.shards.swept_tmp"

#: Age (seconds) past which an orphaned ``*.tmp`` file is presumed dead.
#: Writers hold a temp file only for the duration of one file write, so
#: anything this old belongs to a crashed/killed writer, not a live one.
STALE_TMP_AGE_S = 15 * 60


def sweep_stale_tmp_files(
    directory: str,
    max_age_s: float = STALE_TMP_AGE_S,
    metrics: Metrics | None = None,
) -> int:
    """Delete orphaned ``*.tmp`` entries older than ``max_age_s``.

    A writer killed between ``mkstemp`` and ``os.replace`` leaves its
    temp file behind; without a sweep those accumulate forever.  Only
    files old enough that no live writer can still own them are removed,
    and every OS race (a concurrent writer finishing, another sweeper
    winning) is ignored.
    """
    swept = 0
    try:
        entries = os.listdir(directory)
    except OSError:
        return 0
    cutoff = time.time() - max_age_s
    for name in entries:
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        try:
            if os.path.getmtime(path) >= cutoff:
                continue
            os.unlink(path)
            swept += 1
        except OSError:
            continue
    if swept and metrics is not None:
        metrics.incr(SWEEP_COUNTER, swept)
    return swept
