"""Benchmarks — the substrates themselves.

Dataset generation throughput (the cost of a region-day), the fluid
buffer model step rate, and the packet-level simulator event rate.
These bound how far the experiment scale can be pushed.
"""

import os
import time

import numpy as np
import pytest

from repro import units
from repro.config import FleetConfig
from repro.core.millisampler import (
    Direction,
    Millisampler,
    PacketObservation,
)
from repro.core.run import RunMetadata
from repro.core.sketch import hash_flow_keys
from repro.fleet.buffermodel import FluidBufferModel
from repro.fleet.dataset import plan_region
from repro.fleet.demand import DemandModel
from repro.fleet.rackrun import RackRunSynthesizer
from repro.fleet.shards import FLUID_BATCH
from repro.simnet.tcp import DctcpControl, open_connection
from repro.simnet.topology import build_rack
from repro.workload.region import REGION_A, REGION_B, build_region_workloads
from tests.fleet.dataset_reference import generate_region_dataset, plan_items

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL


def test_bench_fluid_buffer_model(benchmark):
    """One 92-server, 1850-bucket fluid run (the per-rack-run loop).
    Its exponential demand makes every column live, the loop's worst
    case (see ``test_bench_fluid_live_columns``)."""
    model = FluidBufferModel(servers=92)
    rng = np.random.default_rng(0)
    demand = rng.exponential(0.15 * DRAIN, (1850, 92))
    demand[rng.random((1850, 92)) < 0.02] = 2.0 * DRAIN
    persistence = np.full(92, 0.05)

    result = benchmark(model.run, demand, persistence)
    assert result.total_delivered > 0


def test_bench_fluid_batch(benchmark):
    """The batched fluid loop vs the same runs one at a time.  The
    serial side is 8 one-run batches (``run`` is ``run_batch`` over one
    run); one (8, 1850, 92) run_batch call amortizes the Python-level
    time loop across the whole batch.  The asserted 2x floor sits well
    under the measured ~4x.  The exponential demand makes every column
    live, the loop's worst case."""
    runs, buckets, servers = 8, 1850, 92
    model = FluidBufferModel(servers=servers)
    rng = np.random.default_rng(0)
    demand = rng.exponential(0.15 * DRAIN, (runs, buckets, servers))
    demand[rng.random((runs, buckets, servers)) < 0.02] = 2.0 * DRAIN
    persistence = np.full((runs, servers), 0.05)

    start = time.perf_counter()
    serial = [model.run(demand[r], persistence[r]) for r in range(runs)]
    serial_s = time.perf_counter() - start

    batch = benchmark(model.run_batch, demand, persistence)
    batch_s = benchmark.stats.stats.mean

    assert all(
        np.array_equal(batch.per_run(r).delivered, serial[r].delivered)
        for r in range(runs)
    )
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["speedup"] = serial_s / batch_s
    assert serial_s / batch_s >= 2.0


def test_bench_fluid_live_columns(benchmark):
    """The fluid loop steps only live columns: RegA's first 16-run
    store-build batch at seed 11, where 41% of the (run, server)
    columns ever exceed their light cap, against the same batch with
    every column live (each light column's first bucket lifted one ulp
    above its cap).  Both sides offer the same cells, so the median of
    the five paired ratios (real / all-live, alternating round by
    round) is the ratio of ns per offered cell.  The core outputs equal
    the reference loop's bit for bit; the ceiling sits above the
    0.56-0.68 measured on a 2-vCPU Xeon."""
    from repro.fleet.buffermodel import CORE_OUTPUTS
    from tests.fleet.fluid_reference import run_batch_reference

    synthesizer = RackRunSynthesizer()
    items = [
        item for plan in plan_region(REGION_A, STORE_BUILD) for item in plan_items(plan, STORE_BUILD)
    ][:FLUID_BATCH]
    demands = []
    for workload, hour, rng in items:
        rng = np.random.default_rng(rng)
        demands.append(
            synthesizer.demand_model.generate(workload, hour, synthesizer._run_length(rng), rng)
        )
    model = synthesizer._fluid_model(workload)
    lengths = np.array([d.demand.shape[0] for d in demands])
    buffer = np.zeros((lengths.max(), len(demands), model.servers))
    for row, d in enumerate(demands):
        buffer[: lengths[row], row] = d.demand
    real = buffer.transpose(1, 0, 2)
    state = tuple(
        np.stack([getattr(d, name) for d in demands])
        for name in ("persistence", "initial_multiplier", "initial_alpha")
    )
    drain = model.drain_per_step
    m0 = state[1]
    cap = np.minimum(
        model.activity_threshold_fraction * drain,
        np.minimum(m0, np.clip(m0, 0.05, 1.0)) * (model.max_offered_factor * drain),
    )
    light = ~(real > cap[:, None, :]).any(axis=1)
    lifted = buffer.copy()
    lifted[0][light] = np.nextafter(cap[light], np.inf)
    all_live = lifted.transpose(1, 0, 2)

    def run(demand):
        return model.run_batch(demand, *state, lengths=lengths, outputs=CORE_OUTPUTS)

    live_times = []

    def all_live_round_then_real():
        # An all-live round right before each real round.
        live_times.append(_best_of(1, lambda: (all_live,), run))
        return (real,), {}

    result = benchmark.pedantic(run, setup=all_live_round_then_real, rounds=5)
    ratio = float(np.median(np.array(benchmark.stats.stats.data) / np.array(live_times)))

    assert result.live.size == np.count_nonzero(~light)
    assert run(all_live).live.size == light.size
    reference = run_batch_reference(model, np.ascontiguousarray(real), *state, lengths=lengths)
    for name in CORE_OUTPUTS:
        assert result.whole(name).tobytes() == reference[name].tobytes(), name
    benchmark.extra_info["live_fraction"] = float(1.0 - light.mean())
    benchmark.extra_info["offered_cells"] = real.size
    benchmark.extra_info["all_live_s"] = float(np.median(live_times))
    benchmark.extra_info["ratio"] = ratio
    assert ratio <= 0.75


def test_bench_policy_batch(benchmark):
    """The batched fluid loop across the non-DT sharing-policy zoo.

    The loop calls each policy's ``limits`` once per bucket on the whole
    batch's live queues, so every registered rule must stay vectorized;
    this gate keeps that honest by timing each non-DT policy's
    ``run_batch`` against the DT reference batch and asserting it stays
    within 2x — a rule that loops over queues in Python costs far more
    than that.  The tracked benchmark time is the whole zoo sweep."""
    from repro.fleet.policies import build_policy, registered_policy_specs

    runs, buckets, servers = 4, 600, 92
    rng = np.random.default_rng(0)
    demand = rng.exponential(0.15 * DRAIN, (runs, buckets, servers))
    demand[rng.random((runs, buckets, servers)) < 0.02] = 2.0 * DRAIN
    persistence = np.full((runs, servers), 0.05)
    specs = registered_policy_specs()
    queues_per_quadrant = -(-servers // units.NUM_QUADRANTS)
    models = {
        spec.name: FluidBufferModel(
            servers=servers,
            policy=build_policy(spec, queues_per_quadrant=queues_per_quadrant),
        )
        for spec in specs
    }

    def best_of(name, rounds=3):
        model = models[name]
        model.run_batch(demand, persistence)  # warm
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            result = model.run_batch(demand, persistence)
            times.append(time.perf_counter() - start)
        assert result.delivered.sum() > 0
        return min(times)

    dt_s = best_of("dynamic-threshold")
    benchmark.extra_info["dt_batch_s"] = dt_s
    for spec in specs[1:]:
        ratio = best_of(spec.name) / dt_s
        benchmark.extra_info[f"ratio_{spec.name}"] = ratio
        assert ratio <= 2.0, (
            f"{spec.name} batch at {ratio:.2f}x of the DT batch "
            f"(bound 2x): its limits rule has likely fallen off the "
            f"vectorized path"
        )

    def sweep():
        for spec in specs[1:]:
            models[spec.name].run_batch(demand, persistence)

    benchmark.pedantic(sweep, rounds=3, iterations=1)


def test_bench_sampler_observe_batch(benchmark):
    """100k packets through observe_batch vs the scalar observe loop."""
    count = 100_000
    rng = np.random.default_rng(4)
    times = np.sort(rng.uniform(0, 1.7, count))
    sizes = rng.integers(0, 65536, count)
    directions = rng.random(count) < 0.6
    cpus = rng.integers(0, 8, count)
    ecn = rng.random(count) < 0.1
    retx = rng.random(count) < 0.05
    keys = rng.integers(0, 500, count)
    flow_bits = hash_flow_keys(keys)

    def make_sampler():
        sampler = Millisampler(RunMetadata(host="bench"), buckets=1850, cpus=8)
        sampler.attach()
        sampler.enable()
        return sampler

    scalar = make_sampler()
    observations = [
        PacketObservation(
            time=float(times[i]),
            direction=Direction.INGRESS if directions[i] else Direction.EGRESS,
            size=int(sizes[i]),
            flow_key=int(keys[i]),
            cpu=int(cpus[i]),
            ecn_marked=bool(ecn[i]),
            retransmit=bool(retx[i]),
        )
        for i in range(count)
    ]
    start = time.perf_counter()
    for obs in observations:
        scalar.observe(obs)
    scalar_s = time.perf_counter() - start

    def run_batch():
        sampler = make_sampler()
        sampler.observe_batch(
            times, sizes, directions, cpus, ecn, retx, flow_bits=flow_bits
        )
        return sampler

    batched = benchmark(run_batch)
    batch_s = benchmark.stats.stats.mean

    assert batched.stats.packets_processed == scalar.stats.packets_processed
    assert np.array_equal(batched._sketch_words, scalar._sketch_words)
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = scalar_s / batch_s
    assert scalar_s / batch_s >= 5.0


def test_bench_rack_run_synthesis(benchmark):
    """Full synthesis of one SyncMillisampler rack run (demand + fluid
    model + sketch noise + assembly)."""
    rng = np.random.default_rng(1)
    workload = build_region_workloads(REGION_A, racks=1, rng=rng)[0]
    synthesizer = RackRunSynthesizer()

    def run():
        return synthesizer.synthesize(workload, hour=6, rng=np.random.default_rng(2))

    sync_run = benchmark(run)
    assert sync_run.servers == 92


def test_bench_region_dataset_generation(benchmark):
    """Generating and reducing a miniature region-day."""
    config = FleetConfig(racks_per_region=4, runs_per_rack=2, seed=3)

    def run():
        return generate_region_dataset(REGION_A, config)

    dataset = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(dataset.summaries) == 8


#: The store-build benchmark workload's config (benchmarks/e2e): 16
#: racks x 2 runs per region, seed 11.  The layer benchmarks below use
#: its first racks.
STORE_BUILD = FleetConfig(racks_per_region=16, runs_per_rack=2, seed=11)


def _store_build_items(racks_per_region: int = 4) -> list:
    """(workload, hour, fresh rng) for the first racks of both regions
    of the store-build config, each on its own seed-stream leaf."""
    return [
        item
        for spec in (REGION_A, REGION_B)
        for plan in plan_region(spec, STORE_BUILD)[:racks_per_region]
        for item in plan_items(plan, STORE_BUILD)
    ]


def _best_of(rounds: int, setup, run) -> float:
    """The fastest of ``rounds`` timed calls of ``run(*setup())``."""
    best = float("inf")
    for _ in range(rounds):
        args = setup()
        start = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_demand_generate(benchmark):
    """``DemandModel.generate`` (one standard-normal row per burst, the
    rack's bursts realized at once) vs the historical per-burst loop the
    test suite keeps as its ``==`` oracle, on the same store-build rack
    runs in one process.  The ratio is machine-independent; the floor
    sits under the ~2.5x measured on a 2-vCPU Xeon, most of what remains
    being the per-server baseline draws both paths share."""
    from tests.fleet.demand_reference import generate_reference

    model = DemandModel()
    synthesizer = RackRunSynthesizer(demand_model=model)

    def draws():
        # Each run's generator positioned after its run-length draw, as
        # synthesize_batch calls generate.
        items = []
        for workload, hour, rng in _store_build_items():
            items.append((workload, hour, synthesizer._run_length(rng), rng))
        return (items,)

    def generate_all(items, generate=model.generate):
        return [generate(workload, hour, buckets, rng) for workload, hour, buckets, rng in items]

    reference_s = _best_of(
        2, draws, lambda items: generate_all(items, lambda *a: generate_reference(model, *a))
    )
    results = benchmark.pedantic(generate_all, setup=lambda: (draws(), {}), rounds=3)
    new_s = benchmark.stats.stats.min

    (reference_items,) = draws()
    expected = generate_all(reference_items, lambda *a: generate_reference(model, *a))
    assert all(
        got.demand.tobytes() == want.demand.tobytes()
        and got.connections.tobytes() == want.connections.tobytes()
        for got, want in zip(results, expected)
    )
    benchmark.extra_info["rack_runs"] = len(results)
    benchmark.extra_info["reference_s"] = reference_s
    benchmark.extra_info["speedup"] = reference_s / new_s
    assert reference_s / new_s >= 1.5


def test_bench_sketch_estimates(benchmark):
    """``sketch_estimates`` (one normal plane, the exact binomial only
    in the tails) vs the one-binomial-per-cell estimator the test suite
    keeps as its distribution oracle, on the connection matrices of the
    same store-build rack runs in one process.  The floor sits under the
    ~4.4x measured on a 2-vCPU Xeon."""
    from repro.fleet.rackrun import sketch_estimates
    from tests.fleet.sketch_reference import sketch_estimates as sketch_reference

    model = DemandModel()
    synthesizer = RackRunSynthesizer(demand_model=model)
    connections = []
    for workload, hour, rng in _store_build_items():
        buckets = synthesizer._run_length(rng)
        connections.append(model.generate(workload, hour, buckets, rng).connections)

    def estimate_all(estimate=sketch_estimates):
        rng = np.random.default_rng(0)
        return [estimate(counts, rng) for counts in connections]

    reference_s = _best_of(2, tuple, lambda: estimate_all(sketch_reference))
    estimates = benchmark.pedantic(estimate_all, rounds=3)
    new_s = benchmark.stats.stats.min

    assert all(e.shape == c.shape for e, c in zip(estimates, connections))
    benchmark.extra_info["rack_runs"] = len(estimates)
    benchmark.extra_info["cells"] = sum(c.size for c in connections)
    benchmark.extra_info["reference_s"] = reference_s
    benchmark.extra_info["speedup"] = reference_s / new_s
    assert reference_s / new_s >= 3.0


def test_bench_summarize_run(benchmark):
    """``summarize_run`` (one segment pass over the stacked run) vs the
    historical per-server loop the test suite keeps as its ``==``
    oracle, on the same store-build rack runs in one process.  The floor
    sits under the ~3x measured on a 2-vCPU Xeon."""
    from repro.analysis.summary import summarize_run
    from tests.analysis.summary_reference import summarize_run_reference

    sync_runs = RackRunSynthesizer().synthesize_batch(_store_build_items())

    def summarize_all(summarize=summarize_run):
        return [summarize(sync_run) for sync_run in sync_runs]

    reference_s = _best_of(2, tuple, lambda: summarize_all(summarize_run_reference))
    summaries = benchmark.pedantic(summarize_all, rounds=3)
    new_s = benchmark.stats.stats.min

    assert repr(summaries) == repr(summarize_all(summarize_run_reference))
    benchmark.extra_info["rack_runs"] = len(summaries)
    benchmark.extra_info["bursts"] = sum(len(summary.bursts) for summary in summaries)
    benchmark.extra_info["reference_s"] = reference_s
    benchmark.extra_info["speedup"] = reference_s / new_s
    assert reference_s / new_s >= 2.0


def test_bench_store_path(benchmark):
    """The store path — ``synthesize_batch(reduce=run_rows)``, which
    builds each run's stacked series straight from the fluid batch and
    asks the loop for its core outputs only — vs synthesizing raw
    SyncRuns (egress echo, ECN series, 92 server runs each) and reducing
    their stacked series, on the same store-build rack runs in one
    process.  The two sides alternate round by round, and the speedup is
    the median of the five paired ratios, so drift on a shared machine
    hits both sides alike.  The rows are equal byte for byte; the floor
    sits under the 1.2-1.3x measured on a 2-vCPU Xeon."""
    from repro.analysis.summary import run_rows

    synthesizer = RackRunSynthesizer()

    def raw_path(items):
        return [run_rows(sync_run.stacked()) for sync_run in synthesizer.synthesize_batch(items)]

    def store_path(items):
        return synthesizer.synthesize_batch(items, reduce=run_rows)

    raw_times = []

    def raw_round_then_items():
        # A raw round right before each store round.
        raw_times.append(_best_of(1, lambda: (_store_build_items(),), raw_path))
        return (_store_build_items(),), {}

    rows = benchmark.pedantic(store_path, setup=raw_round_then_items, rounds=5)
    speedup = float(np.median(np.array(raw_times) / np.array(benchmark.stats.stats.data)))

    raw_rows = raw_path(_store_build_items())
    assert [[part.tobytes() for part in run] for run in rows] == [
        [part.tobytes() for part in run] for run in raw_rows
    ]
    benchmark.extra_info["rack_runs"] = len(rows)
    benchmark.extra_info["raw_s"] = float(np.median(raw_times))
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 1.15


def test_bench_region_generation_fluid_batching(benchmark, monkeypatch):
    """End-to-end region-day generation with the batched fluid loop
    vs the same pipeline forced to one-run batches.  Bench scale matches the acceptance bar: 20 racks x 4
    runs, one worker."""
    config = FleetConfig(racks_per_region=20, runs_per_rack=4, seed=11)

    def generate(fluid_batch):
        monkeypatch.setattr("repro.fleet.shards.FLUID_BATCH", fluid_batch)
        return generate_region_dataset(REGION_A, config)

    start = time.perf_counter()
    serial = generate(fluid_batch=1)
    serial_s = time.perf_counter() - start

    dataset = benchmark.pedantic(generate, args=(FLUID_BATCH,), rounds=2)
    batch_s = benchmark.stats.stats.min

    assert len(dataset.summaries) == len(serial.summaries) == 80
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["speedup"] = serial_s / batch_s
    assert serial_s / batch_s >= 1.5


def test_bench_packet_sim_tcp_transfer(benchmark):
    """Packet-level simulator throughput: a 1 MB DCTCP transfer."""

    def run():
        rack = build_rack(servers=2)
        sender, _ = open_connection(rack.hosts[0], rack.hosts[1], DctcpControl(mss=1448))
        sender.send(1_000_000)
        rack.engine.run_until(1.0)
        return sender

    sender = benchmark.pedantic(run, rounds=5, iterations=1)
    assert sender.done


def test_bench_shard_generation(benchmark, tmp_path):
    """Generating and writing one shard of the out-of-core region store
    (synthesis + row reduction + atomic writes + hashing) — a serial
    store build's work for one shard: its build tasks' table rows, cut
    into the shard's tables and written.  The per-shard run throughput
    in extra_info is what the CI gate tracks."""
    from repro.fleet.shards import (
        _write_shard,
        plan_build_tasks,
        plan_region_shards,
        synthesize_shard,
        task_tables,
    )
    from repro.obs.metrics import Metrics

    config = FleetConfig(racks_per_region=4, runs_per_rack=3, seed=7)
    _plans, shards = plan_region_shards(REGION_A, config, shard_racks=4, shard_hours=24)
    (shard,) = shards
    synthesizer = RackRunSynthesizer()

    def run():
        metrics = Metrics()
        parts = [
            (task.start, task_tables(task, config, synthesizer, metrics))
            for task in plan_build_tasks(shards, jobs=1)
        ]
        return _write_shard(str(tmp_path), shard, synthesize_shard(shard, 0, parts), metrics)

    record = benchmark.pedantic(run, rounds=3, iterations=1)
    assert record["runs"] == shard.total_runs == 12
    benchmark.extra_info["runs_per_shard"] = record["runs"]
    benchmark.extra_info["runs_per_s"] = record["runs"] / benchmark.stats.stats.mean


def test_bench_store_views(benchmark, bench_ctx):
    """Table 1 and the four figure views over both regions' warm shard
    stores — the read side of the store, every shard loaded through
    ``columns()`` per view."""
    datasets = [bench_ctx.dataset(region) for region in ("RegA", "RegB")]

    def run():
        return [
            (
                dataset.table1_row(),
                dataset.rack_profiles(),
                dataset.hourly_boxes(),
                dataset.run_contention(),
                dataset.burst_contention(),
            )
            for dataset in datasets
        ]

    views = benchmark(run)
    runs = 0
    for (row, profiles, boxes, contention, bursts), dataset in zip(views, datasets):
        assert contention.total == row.runs == dataset.manifest["total_runs"]
        assert len(profiles) == row.racks
        assert sum(box.count for box in boxes.values()) == row.runs
        assert bursts.lossy.size == row.bursts
        runs += row.runs
    benchmark.extra_info["runs_per_s"] = runs / benchmark.stats.stats.mean


def test_bench_serve_latency(benchmark, bench_ctx):
    """Warm-path query latency of the ``repro serve`` core: one table1
    stream against a memoized dataset — flight setup, event replay, and
    result serialization, no generation."""
    from repro.service.core import Query, QueryService, ServiceConfig

    service = QueryService(
        ServiceConfig(
            fleet=bench_ctx.fleet,
            store_dir=bench_ctx.store_dir,
            request_threads=1,
        )
    )
    try:
        query = Query(kind="table1", region="RegA")
        warm = list(service.stream(query))  # builds the memo (store reopen)
        assert warm[-1]["event"] == "result"

        def run():
            return list(service.stream(query))

        events = benchmark.pedantic(run, rounds=10, iterations=1)
        assert events[-1] == warm[-1]
        assert events[0]["coalesced"] is False
        benchmark.extra_info["queries_per_s"] = 1.0 / benchmark.stats.stats.mean
    finally:
        service.shutdown()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a 2-worker pool needs 2 cores")
def test_bench_pool_build(benchmark, tmp_path):
    """A pool build of both regions at ``repro serve``'s benchmark
    config (4 racks x 4 runs per region, 2 x 4 shards, 2 workers on one
    persistent pool) the store's way — build tasks that are 8-run fluid
    batches and return table rows — vs the rack-day fan-out kept in
    ``tests/fleet/dataset_reference.py`` (4-run batches, summary objects
    pickled back and encoded one tuple per row).  The two sides
    alternate round by round and the speedup is the median of the five
    paired ratios; every shard's sha256 is equal on both sides."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.fleet.shards import RegionShardStore
    from tests.fleet.dataset_reference import rack_day_build

    config = FleetConfig(racks_per_region=4, runs_per_rack=4, seed=11)
    rounds = iter(range(10))

    def stores(kind: str) -> list[RegionShardStore]:
        root = str(tmp_path / f"{kind}-{next(rounds)}")
        return [
            RegionShardStore(root=root, spec=spec, config=config, shard_racks=2, shard_hours=4)
            for spec in (REGION_A, REGION_B)
        ]

    with ProcessPoolExecutor(max_workers=2) as pool:
        for _ in pool.map(abs, range(2)):
            pass  # both workers forked before the first timed round
        day_times, day_hashes = [], []

        def rack_days_round():
            start = time.perf_counter()
            records = [rack_day_build(store, 2, pool=pool) for store in stores("rack-days")]
            day_times.append(time.perf_counter() - start)
            day_hashes.append([[record["sha256"] for record in shard] for shard in records])
            return (stores("tasks"),), {}

        def task_build(targets):
            return [[r["sha256"] for r in store.build(jobs=2, pool=pool)["shards"]] for store in targets]

        hashes = benchmark.pedantic(task_build, setup=rack_days_round, rounds=5)

    speedup = float(np.median(np.array(day_times) / np.array(benchmark.stats.stats.data)))
    assert all(round_hashes == hashes for round_hashes in day_hashes)
    benchmark.extra_info["rack_days_s"] = float(np.median(day_times))
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 1.2
