"""One benchmark repetition, run in a fresh process.

Usage (``workloads.py`` starts it this way)::

    python benchmarks/e2e/child.py SPEC.json RESULT.json

``SPEC.json`` names the repetition ``kind`` and its inputs; the result
is written to ``RESULT.json``.  Timestamps are ``time.perf_counter()``
readings, which on Linux come from the system-wide monotonic clock, so
the parent process can subtract its own spawn time from them.  When the spec
carries ``targets`` the repetition is traced: those functions are
wrapped (see ``tracer.py``) and the spans are returned with the result.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

from tracer import Tracer

REGIONS = ("RegA", "RegB")


def _tracer(spec: dict) -> Tracer | None:
    return Tracer() if spec.get("targets") is not None else None


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _stores(spec: dict, metrics=None) -> list:
    from repro.config import FleetConfig
    from repro.fleet.shards import RegionShardStore
    from repro.obs.metrics import Metrics
    from repro.workload.region import REGION_A, REGION_B

    config = FleetConfig(
        racks_per_region=spec["racks"], runs_per_rack=spec["runs_per_rack"], seed=spec["seed"]
    )
    metrics = metrics if metrics is not None else Metrics()
    return [
        RegionShardStore(root=spec["root"], spec=region, config=config, metrics=metrics)
        for region in (REGION_A, REGION_B)
    ]


def store_build(spec: dict) -> dict:
    """Build both regions' shard stores serially into a fresh directory."""
    from repro.obs.metrics import Metrics

    metrics = Metrics()
    stores = _stores(spec, metrics)
    tracer = _tracer(spec)
    if tracer is not None:
        tracer.install(spec["targets"])
    setup_end = time.perf_counter()
    try:
        with _span(tracer, "bench.op"):
            manifests = [store.build(jobs=1) for store in stores]
        op_end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    regions = {
        store.spec.name: {
            "runs": manifest["total_runs"],
            "shards": len(manifest["shards"]),
            "bursts": sum(record["bursts"] for record in manifest["shards"]),
            "bytes": sum(sum(record["bytes"].values()) for record in manifest["shards"]),
            "sha256": [record["sha256"] for record in manifest["shards"]],
        }
        for store, manifest in zip(stores, manifests)
    }
    return {
        "setup_end": setup_end,
        "op_start": setup_end,
        "op_end": op_end,
        "regions": regions,
        "telemetry": metrics.snapshot(),
        "trace": tracer.export() if tracer is not None else None,
    }


def store_check(spec: dict) -> dict:
    """Re-open built stores: deep hash check, and the streaming Table 1
    row against the materialized in-memory dataset's.  A store whose
    manifest does not load fails both checks (``open`` would rebuild it)."""
    from repro.fleet.shards import ShardedRegionDataset

    checks = {}
    for store in _stores(spec):
        manifest = store.load_manifest()
        if manifest is None:
            checks[store.spec.name] = {"hashes_verified": False, "table1_streaming_matches_oracle": False}
            continue
        dataset = ShardedRegionDataset(store=store, manifest=manifest)
        checks[store.spec.name] = {
            "hashes_verified": store.verify_hashes(manifest),
            "table1_streaming_matches_oracle": (
                dataset.table1_row() == dataset.to_region_dataset().table1_row()
            ),
        }
    return checks


def packet(spec: dict) -> dict:
    """DCTCP incast into one rack's shared buffer at several fan-ins,
    then the Figure 4 SyncMillisampler validation."""
    import numpy as np

    from repro.experiments import fig04_burst_validation as fig4
    from repro.simnet import topology
    from repro.workload.flows import IncastApp

    tracer = _tracer(spec)
    if tracer is not None:
        tracer.install(spec["targets"])
    # Keep a handle on the Figure 4 pod so its engine's event count is
    # known; one extra Python call per repetition.
    pods = []
    build_pod = fig4.build_pod

    def keep_pod(*args, **kwargs):
        pods.append(build_pod(*args, **kwargs))
        return pods[-1]

    fig4.build_pod = keep_pod
    servers = spec["servers"]

    def build(index: int):
        return topology.build_rack(servers=servers, rng=np.random.default_rng([spec["seed"], index]))

    try:
        first = build(0)
        setup_end = time.perf_counter()
        scenarios = []
        with _span(tracer, "bench.op"):
            for index, fanin in enumerate(spec["fanins"]):
                rack = first if index == 0 else build(index)
                order = np.random.default_rng([spec["seed"], index, 1]).permutation(servers)
                app = IncastApp(
                    [rack.hosts[i] for i in order[1 : 1 + fanin]],
                    rack.hosts[order[0]],
                    bytes_per_sender=spec["bytes_per_sender"],
                    initial_cwnd_segments=spec["initial_cwnd_segments"],
                )
                app.start(at_time=1e-3)
                rack.engine.run_until(spec["horizon_s"])
                counters = rack.switch.counters
                scenarios.append(
                    {
                        "fanin": fanin,
                        "completed": app.result.completed,
                        "events": rack.engine.events_run,
                        "discard_packets": counters.discard_packets,
                        "discard_bytes": counters.discard_bytes,
                        "ecn_marked_bytes": counters.ecn_marked_bytes,
                        "retransmissions": app.result.total_retransmissions,
                        "timeouts": app.result.total_timeouts,
                    }
                )
                first = rack = None  # free this rack before building the next
            # Figure 4 runs as `repro run fig4` runs it, with its own
            # seed: a few other seeds (38, 205, ...) make a periodic
            # Millisampler run collide with the sync collection and
            # raise SamplerError, so it cannot take the workload seed.
            sync_run = fig4.run_simulation()
        op_end = time.perf_counter()
    finally:
        fig4.build_pod = build_pod
        if tracer is not None:
            tracer.restore()
    return {
        "setup_end": setup_end,
        "op_start": setup_end,
        "op_end": op_end,
        "scenarios": scenarios,
        "fig4_events": pods[-1].engine.events_run,
        "fig4_max_concurrent": int(sync_run.contention_series().max()),
        "trace": tracer.export() if tracer is not None else None,
    }


def serve_inprocess(spec: dict) -> dict:
    """The query service without HTTP: cold-build the store, then run
    the warm query cycle untraced and traced, the same number of times."""
    from repro.config import FleetConfig
    from repro.service import QueryService, ServiceConfig
    from repro.service.core import Query

    service = QueryService(
        ServiceConfig(
            fleet=FleetConfig(
                racks_per_region=spec["racks"],
                runs_per_rack=spec["runs_per_rack"],
                seed=spec["seed"],
                jobs=spec["jobs"],
            ),
            store_dir=spec["root"],
            shard_racks=spec["shard_racks"],
            shard_hours=spec["shard_hours"],
            request_threads=1,
        )
    )
    try:
        for region in REGIONS:
            list(service.stream(Query("table1", region)))
        setup_end = time.perf_counter()
        queries = [Query(kind, region, name) for kind, region, name in spec["queries"]]

        def one(query, tracer=None):
            start = time.perf_counter()
            with _span(tracer, "service.stream"):
                events = list(service.stream(query))
            if events[-1]["event"] != "result":
                raise RuntimeError(f"query {query.tag} failed: {events[-1]}")
            return time.perf_counter() - start

        untraced = [one(query) for query in queries]
        tracer = Tracer()
        tracer.install(spec["targets"])
        try:
            with tracer.span("bench.op"):
                traced = [one(query, tracer) for query in queries]
        finally:
            tracer.restore()
        telemetry = service.metrics.snapshot()
    finally:
        service.shutdown()
    return {
        "setup_end": setup_end,
        "untraced_s": untraced,
        "traced_s": traced,
        "telemetry": telemetry,
        "trace": tracer.export(),
    }


def cli(spec: dict) -> dict:
    """``python -m repro run ...`` in this process, with layer spans."""
    tracer = Tracer()
    with tracer.span("cli.import"):
        from repro.experiments import cli as repro_cli
    tracer.install(spec["targets"])
    try:
        code = repro_cli.main(spec["argv"])
    finally:
        tracer.restore()
    return {"exit_code": code, "trace": tracer.export()}


KINDS = {
    "store-build": store_build,
    "store-check": store_check,
    "packet": packet,
    "serve": serve_inprocess,
    "cli": cli,
}


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as stream:
        spec = json.load(stream)
    result = KINDS[spec["kind"]](spec)
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
