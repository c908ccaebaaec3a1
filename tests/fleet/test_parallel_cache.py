"""Determinism of parallel generation and the on-disk dataset cache.

The tentpole guarantee: for a fixed seed, a region-day is byte-identical
whether generated in memory (the oracle), built into a shard store
serially or by a process pool of any size, or reopened from a built
store — the store is the dataset cache.  The comparison below is exact
float equality (with NaN treated as equal to NaN, since per-server stats
carry NaN for burst-free servers), which is equivalent to byte identity
for the summary dataclasses.
"""

import dataclasses
import json
import math
import os

import pytest

from repro.config import FleetConfig
from repro.errors import ConfigError
from repro.experiments.context import ExperimentContext
from repro.fleet import cache as cache_module
from repro.fleet.cache import dataset_cache_key
from repro.fleet.parallel import resolve_jobs
from repro.fleet.shards import (
    RegionShardStore,
    ShardedRegionDataset,
    default_store_dir,
    generate_region_shards,
)
from repro.workload.region import REGION_A, REGION_B
from tests.fleet.dataset_reference import generate_region_dataset

CONFIG = FleetConfig(racks_per_region=3, runs_per_rack=2, seed=77)


def comparable(obj):
    """Nested plain-value projection with NaN made comparable."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: comparable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, float):
        return "nan" if math.isnan(obj) else obj
    if isinstance(obj, (list, tuple)):
        return [comparable(value) for value in obj]
    if isinstance(obj, dict):
        return {key: comparable(value) for key, value in obj.items()}
    return obj


def summaries_of(dataset):
    """A store's summaries decoded from its tables, or an in-memory
    dataset's own."""
    if isinstance(dataset, ShardedRegionDataset):
        return dataset.to_region_dataset().summaries
    return dataset.summaries


def fingerprint(dataset):
    return [comparable(summary) for summary in summaries_of(dataset)]


def shard_hashes(dataset):
    return [record["sha256"] for record in dataset.manifest["shards"]]


def build_store(root, spec=REGION_A, config=CONFIG, jobs=1, **geometry):
    return generate_region_shards(spec, config, str(root), jobs=jobs, **geometry)


@pytest.fixture(scope="module")
def serial_rega():
    return generate_region_dataset(REGION_A, CONFIG)


class TestParallelDeterminism:
    def test_parallel_matches_serial_rega(self, tmp_path, serial_rega):
        parallel = build_store(tmp_path, jobs=4)  # more jobs than racks
        assert fingerprint(parallel) == fingerprint(serial_rega)
        assert [comparable(w) for w in parallel.workloads] == [
            comparable(w) for w in serial_rega.workloads
        ]

    def test_parallel_matches_serial_regb(self, tmp_path):
        serial = build_store(tmp_path / "serial", REGION_B, jobs=1, shard_racks=2, shard_hours=8)
        parallel = build_store(tmp_path / "parallel", REGION_B, jobs=3, shard_racks=2, shard_hours=8)
        assert fingerprint(parallel) == fingerprint(serial)
        assert shard_hashes(parallel) == shard_hashes(serial)

    def test_jobs_taken_from_config(self, tmp_path, serial_rega):
        config = dataclasses.replace(CONFIG, jobs=2)
        ctx = ExperimentContext(fleet=config, store_dir=str(tmp_path))
        assert ctx.resolved_jobs() == 2
        assert fingerprint(ctx.dataset("RegA")) == fingerprint(serial_rega)

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) >= 1
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_negative_jobs_rejected_by_config(self):
        with pytest.raises(ConfigError):
            FleetConfig(jobs=-2)


class TestDatasetCache:
    """The shard store is the dataset cache: a built region-day is
    reopened, never regenerated, until its key or files go stale."""

    def test_cache_hit_matches_generation(self, tmp_path, serial_rega):
        build_store(tmp_path)
        reopened = build_store(tmp_path)
        assert reopened.store.metrics.counter("dataset.shards.hit") == 1
        assert reopened.store.metrics.counter("dataset.shards.generated") == 0
        assert fingerprint(reopened) == fingerprint(serial_rega)

    def test_context_roundtrip_skips_generation(self, tmp_path, monkeypatch, serial_rega):
        first = ExperimentContext(fleet=CONFIG, store_dir=str(tmp_path))
        warm = first.dataset("RegA")

        # A fresh context must satisfy the same request purely from disk.
        def boom(*args, **kwargs):
            raise AssertionError("a built store should not regenerate")

        monkeypatch.setattr(RegionShardStore, "build", boom)
        second = ExperimentContext(fleet=CONFIG, store_dir=str(tmp_path))
        assert fingerprint(second.dataset("RegA")) == fingerprint(warm)
        assert fingerprint(warm) == fingerprint(serial_rega)

    def test_corrupted_entry_regenerates_and_overwrites(self, tmp_path, serial_rega):
        store = build_store(tmp_path).store
        victim = store.load_manifest()["shards"][0]["files"]["servers"]
        with open(os.path.join(store.directory, victim), "wb") as handle:
            handle.write(b"not a table")
        assert store.load_manifest() is None

        # The context treats it as a miss: regenerates, overwrites, and
        # the store is readable again.
        ctx = ExperimentContext(fleet=CONFIG, store_dir=str(tmp_path))
        dataset = ctx.dataset("RegA")
        assert fingerprint(dataset) == fingerprint(serial_rega)
        manifest = store.load_manifest()
        assert manifest is not None and store.verify_hashes(manifest)

    def test_key_invalidates_on_config_change(self):
        base = dataset_cache_key(REGION_A, CONFIG)
        assert dataset_cache_key(REGION_A, dataclasses.replace(CONFIG, seed=78)) != base
        assert (
            dataset_cache_key(REGION_A, dataclasses.replace(CONFIG, racks_per_region=4))
            != base
        )
        assert (
            dataset_cache_key(REGION_A, dataclasses.replace(CONFIG, runs_per_rack=3))
            != base
        )
        assert dataset_cache_key(REGION_B, CONFIG) != base

    def test_key_invalidates_on_format_version_change(self, monkeypatch):
        base = dataset_cache_key(REGION_A, CONFIG)
        monkeypatch.setattr(cache_module, "DATASET_FORMAT_VERSION", 999)
        assert dataset_cache_key(REGION_A, CONFIG) != base

    def test_stale_format_version_is_a_miss(self, tmp_path):
        store = build_store(tmp_path).store
        # Keep the key (directory name) fixed but mark the manifest
        # stale, as an old writer would have: the loader must reject it.
        with open(store.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["format"] = 0
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert store.load_manifest() is None

    def test_jobs_excluded_from_key(self):
        assert dataset_cache_key(
            REGION_A, dataclasses.replace(CONFIG, jobs=1)
        ) == dataset_cache_key(REGION_A, dataclasses.replace(CONFIG, jobs=8))

    def test_default_store_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("MILLISAMPLER_STORE_DIR", "/tmp/somewhere")
        assert default_store_dir() == "/tmp/somewhere"
        monkeypatch.delenv("MILLISAMPLER_STORE_DIR")
        assert default_store_dir().endswith("millisampler-shards")


class TestDegenerateScales:
    """Zero racks and zero runs are valid (empty) region-days.

    Regression: the parallel path crashed with ``max_workers=0`` when a
    region planned zero racks, and the serial path dropped zero-run
    racks from ``workloads`` while the parallel path kept them.
    """

    def test_zero_racks_parallel_matches_serial(self, tmp_path):
        config = FleetConfig(racks_per_region=0, runs_per_rack=2, seed=77)
        serial = build_store(tmp_path / "serial", config=config, jobs=1)
        parallel = build_store(tmp_path / "parallel", config=config, jobs=4)
        assert summaries_of(serial) == [] and summaries_of(parallel) == []
        assert serial.workloads == [] and parallel.workloads == []
        assert serial.region == parallel.region == "RegA"

    def test_zero_runs_per_rack_workloads_parity(self, tmp_path):
        config = FleetConfig(racks_per_region=3, runs_per_rack=0, seed=77)
        serial = build_store(tmp_path / "serial", config=config, jobs=1)
        parallel = build_store(tmp_path / "parallel", config=config, jobs=2)
        assert summaries_of(serial) == [] and summaries_of(parallel) == []
        # Every *planned* rack contributes its workload on both paths,
        # and the in-memory oracle agrees.
        oracle = generate_region_dataset(REGION_A, config)
        assert len(serial.workloads) == 3
        assert [comparable(w) for w in serial.workloads] == [
            comparable(w) for w in parallel.workloads
        ] == [comparable(w) for w in oracle.workloads]

    def test_negative_scales_still_rejected(self):
        with pytest.raises(ConfigError):
            FleetConfig(racks_per_region=-1)
        with pytest.raises(ConfigError):
            FleetConfig(runs_per_rack=-1)


class TestCacheHardening:
    def test_stale_tmp_files_swept_on_store(self, tmp_path):
        from repro.fleet.cache import STALE_TMP_AGE_S

        store = RegionShardStore(root=str(tmp_path), spec=REGION_A, config=CONFIG)
        os.makedirs(store.directory)
        stale = os.path.join(store.directory, "dead-writer.tmp")
        with open(stale, "wb") as handle:
            handle.write(b"orphan")
        old = 2 * STALE_TMP_AGE_S
        os.utime(stale, (os.path.getmtime(stale) - old, os.path.getmtime(stale) - old))
        fresh = os.path.join(store.directory, "live-writer.tmp")
        with open(fresh, "wb") as handle:
            handle.write(b"in flight")

        store.build(jobs=1)
        assert not os.path.exists(stale)  # orphan removed
        assert os.path.exists(fresh)  # live writer untouched
        assert store.metrics.counter("dataset.shards.swept_tmp") == 1

    def test_sweep_missing_directory_is_noop(self, tmp_path):
        from repro.fleet.cache import sweep_stale_tmp_files

        assert sweep_stale_tmp_files(str(tmp_path / "nope")) == 0

    def test_canonical_mixed_key_dict(self):
        from repro.fleet.cache import _canonical

        # Mixed-type dict keys are unorderable; sorting by str(key) must
        # not raise and must be deterministic.
        value = {1: "a", "b": 2, (2, 3): 4}
        assert _canonical(value) == _canonical(dict(reversed(list(value.items()))))

    def test_canonical_non_finite_floats(self):
        import json as json_module

        from repro.fleet.cache import _canonical

        projected = _canonical({"x": float("nan"), "y": float("inf")})
        assert projected == {"x": "__float__:nan", "y": "__float__:inf"}
        # The projection must serialize under allow_nan=False.
        json_module.dumps(projected, allow_nan=False)

    def test_fleet_config_fields_exhaustively_classified(self):
        """Every FleetConfig field must be explicitly key-bearing or
        execution-only, so a future dataset-shaping field cannot be
        silently left out of the cache key and alias datasets."""
        from repro.fleet.cache import EXECUTION_ONLY_FIELDS, KEY_BEARING_FIELDS

        declared = set(KEY_BEARING_FIELDS) | set(EXECUTION_ONLY_FIELDS)
        actual = {f.name for f in dataclasses.fields(FleetConfig)}
        assert declared == actual, (
            f"unclassified FleetConfig fields: {sorted(actual - declared)}; "
            f"stale classifications: {sorted(declared - actual)}"
        )
        assert not set(KEY_BEARING_FIELDS) & set(EXECUTION_ONLY_FIELDS)

    def test_execution_only_fields_do_not_change_key(self):
        from repro.fleet.cache import EXECUTION_ONLY_FIELDS

        base = dataset_cache_key(REGION_A, CONFIG)
        for name in EXECUTION_ONLY_FIELDS:
            bumped = dataclasses.replace(CONFIG, **{name: getattr(CONFIG, name) + 3})
            assert dataset_cache_key(REGION_A, bumped) == base, name

    def test_key_bearing_fields_each_change_key(self):
        from repro.config import PolicySpec
        from repro.fleet.cache import KEY_BEARING_FIELDS

        base = dataset_cache_key(REGION_A, CONFIG)
        for name in KEY_BEARING_FIELDS:
            if name == "policy":
                # Not numeric: perturb by choosing a different policy.
                bumped_value = PolicySpec(name="complete-sharing")
            else:
                # hours cannot grow past a day; shrink it instead.
                delta = -12 if name == "hours" else 1
                bumped_value = getattr(CONFIG, name) + delta
            bumped = dataclasses.replace(CONFIG, **{name: bumped_value})
            assert dataset_cache_key(REGION_A, bumped) != base, name


class TestPolicyCacheIdentity:
    """The sharing policy is part of dataset identity — except at the
    default, where it must be *omitted* so every pre-policy-axis cache
    key (and dataset) stays bit-identical.  The hex literals below were
    captured on the commit before the policy refactor, and re-captured
    only when ``DATASET_FORMAT_VERSION`` went to 2 (sketch noise v2);
    they are the proof the default path is a no-op."""

    PRE_REFACTOR_KEY_SMALL = (
        "b74d0d5ddb2cff1c3385ea6eb8e9e864efad8197e608f57acaf0c0a500db6ecb"
    )
    PRE_REFACTOR_KEY_DEFAULT = (
        "fd248cc02474fc0b9a8b42b03e0741d0461482b9920451fec93055aaf6bdb3da"
    )

    def test_default_keys_bit_identical_to_pre_refactor(self):
        assert dataset_cache_key(REGION_A, CONFIG) == self.PRE_REFACTOR_KEY_SMALL
        assert (
            dataset_cache_key(REGION_A, FleetConfig()) == self.PRE_REFACTOR_KEY_DEFAULT
        )

    def test_explicit_default_spec_is_the_same_key(self):
        from repro.config import PolicySpec

        explicit = dataclasses.replace(CONFIG, policy=PolicySpec())
        assert dataset_cache_key(REGION_A, explicit) == self.PRE_REFACTOR_KEY_SMALL

    def test_each_registered_policy_gets_its_own_key(self):
        from repro.fleet.policies import registered_policy_specs

        keys = {
            dataset_cache_key(REGION_A, dataclasses.replace(CONFIG, policy=spec))
            for spec in registered_policy_specs()
        }
        assert len(keys) == len(registered_policy_specs())

    def test_policy_params_are_key_bearing(self):
        from repro.config import PolicySpec

        tuned = PolicySpec(name="delay-driven", params=(("target_delay_steps", 3.0),))
        default = PolicySpec(name="delay-driven")
        assert dataset_cache_key(
            REGION_A, dataclasses.replace(CONFIG, policy=tuned)
        ) != dataset_cache_key(REGION_A, dataclasses.replace(CONFIG, policy=default))


class TestDefaultPolicyDatasetNoOp:
    """End-to-end default no-op: the generated dataset itself (not just
    the key) is bit-identical to the pre-refactor pipeline, pinned by a
    content digest and the Table-1 row captured before the refactor.
    The digest was re-captured once, for sketch noise v2, which moves
    only the connection fields (see TestNonConnectionColumnsPinned)."""

    PRE_REFACTOR_FINGERPRINT = (
        "75b6a1ae2f335ac79b5f278f8b401628ca43b6bf7a86568bd30e1e3a9b7202fa"
    )

    @staticmethod
    def _feed(h, value, tag=""):
        import numpy as np

        feed = TestDefaultPolicyDatasetNoOp._feed
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                feed(h, getattr(value, f.name), tag + "." + f.name)
        elif isinstance(value, np.ndarray):
            h.update(tag.encode())
            h.update(str(value.dtype).encode())
            h.update(value.tobytes())
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                feed(h, v, f"{tag}[{i}]")
        elif isinstance(value, dict):
            for k in sorted(value, key=str):
                feed(h, value[k], f"{tag}.{k}")
        elif isinstance(value, (int, float, np.floating, np.integer)):
            h.update(tag.encode())
            h.update(repr(value).encode())
        elif isinstance(value, str):
            h.update(tag.encode())
            h.update(value.encode())
        elif value is None:
            h.update(tag.encode())
            h.update(b"None")
        else:
            raise TypeError(f"{tag}: {type(value)}")

    @classmethod
    def _digest(cls, summaries) -> str:
        import hashlib

        h = hashlib.sha256()
        for summary in summaries:
            cls._feed(h, summary, "summary")
        return h.hexdigest()

    def test_dataset_content_digest_pinned(self, serial_rega):
        assert self._digest(serial_rega.summaries) == self.PRE_REFACTOR_FINGERPRINT

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("geometry", [(64, 12), (1, 12)])
    def test_store_decodes_to_pinned_digest(self, tmp_path, geometry, jobs):
        """The shard tables plus the workloads hold every summary field:
        decoding a store reproduces the pinned digest, types included."""
        store = build_store(
            tmp_path, jobs=jobs, shard_racks=geometry[0], shard_hours=geometry[1]
        )
        decoded = store.to_region_dataset().summaries
        assert self._digest(decoded) == self.PRE_REFACTOR_FINGERPRINT

    def test_table1_row_pinned(self, serial_rega):
        row = serial_rega.table1_row()
        assert (
            row.runs,
            row.server_runs,
            row.bursty_server_runs,
            row.bursts,
            row.racks,
        ) == (6, 552, 266, 11034, 3)


class TestNonConnectionColumnsPinned:
    """Every stored column except the three connection columns, pinned
    for both regions at ``CONFIG`` and jobs 1 and 2.  Sketch noise and
    then the egress echo are each run's last draws, so a change to the
    sketch-noise sampler moves only ``avg_connections``,
    ``conns_inside`` and ``conns_outside``: this digest must hold
    across one."""

    CONNECTION_COLUMNS = frozenset({"avg_connections", "conns_inside", "conns_outside"})
    DIGEST = "2086249ed8be16d3109d7f2a0a1a65023625be0387cf445425ff845e739f6f07"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_digest_without_connection_columns(self, tmp_path, jobs):
        import hashlib

        from repro.fleet.shards import TABLES

        h = hashlib.sha256()
        for spec in (REGION_A, REGION_B):
            store = build_store(tmp_path / spec.name, spec, jobs=jobs)
            for table, names in TABLES.items():
                kept = [name for name in names if name not in self.CONNECTION_COLUMNS]
                columns = store.columns(table, kept)
                for name in kept:
                    h.update(f"{spec.name}.{table}.{name}".encode())
                    h.update(columns[name].tobytes())
        assert h.hexdigest() == self.DIGEST


class TestRawSynthesisPinned:
    """The synthesizer's raw output, before any reduction: every series
    (dtype and bytes), the metadata and hour, the switch counters and
    the extras of every SyncRun of both regions at ``CONFIG``.  The
    summary digest above never sees ``out_bytes``, ``in_ecn_bytes`` or
    the per-bucket ``conn_estimate``; this one does."""

    RAW_FINGERPRINT = (
        "2085e202f3bfe309f9ce9680adc61c4288e84a570d302273471b1df81a2bf12f"
    )

    def test_raw_sync_runs_digest_pinned(self):
        import hashlib

        from repro.fleet.dataset import plan_region
        from repro.fleet.rackrun import RackRunSynthesizer
        from tests.fleet.dataset_reference import plan_items

        h = hashlib.sha256()
        synthesizer = RackRunSynthesizer()
        for spec in (REGION_A, REGION_B):
            items = [
                item
                for plan in plan_region(spec, CONFIG)
                for item in plan_items(plan, CONFIG)
            ]
            for index, sync_run in enumerate(synthesizer.synthesize_batch(items)):
                TestDefaultPolicyDatasetNoOp._feed(h, sync_run, f"{spec.name}[{index}]")
        assert h.hexdigest() == self.RAW_FINGERPRINT
