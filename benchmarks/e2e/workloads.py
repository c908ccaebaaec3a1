"""The benchmark's four workloads, driven from one process.

Each repetition runs in a fresh child process, one at a time, so its
peak RSS (``os.wait4`` rusage) and import state are its own.  Worker
processes and connections never exceed ``min(2, nproc)``.

End-to-end metrics come from untraced repetitions.  With tracing on,
one more repetition runs with the layer targets in :data:`TARGETS`
wrapped (``tracer.py``), and the per-layer metrics are derived from its
spans, from the telemetry the program already emits (the CLI manifest,
the store and service registries) and from exact counts in its outputs.

Every workload counts its operations: timed operations plus one per
output check.  ``failed`` counts operations that failed or produced a
wrong output; a run with any failure is not ``correct``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import common
from tracer import chrome_events, layer_stats, write_chrome_trace

#: The paper's primary dataset: 2 regions x ~1000 racks x 24 hourly runs.
PAPER_RACK_RUNS = 2 * 1000 * 24

#: The serve workload's warm query mix: Table 1 plus the four figure
#: endpoints, for both regions.
FIGURES = ("hourly_boxes", "run_contention", "burst_contention", "profiles")
SERVE_QUERIES = [("table1", region, None) for region in ("RegA", "RegB")] + [
    ("figure", region, name) for region in ("RegA", "RegB") for name in FIGURES
]

_ACCUMULATORS = (
    "Table1Accumulator",
    "RackProfileAccumulator",
    "HourlyBoxAccumulator",
    "RunContentionAccumulator",
    "BurstContentionAccumulator",
)
_SERIALIZERS = ("table1", "hourly_boxes", "run_contention", "burst_contention", "profiles")

#: Public functions wrapped in a traced repetition, per workload, each
#: named by the module (layer) it belongs to.  Several targets may feed
#: one layer; the layer is missing if any of them is.
TARGETS: dict[str, list[dict]] = {
    "cli-cold": [
        {"layer": "cli.main", "target": "repro.experiments.cli:main"},
        {"layer": "experiments.orchestrator", "target": "repro.experiments.orchestrator:run_experiments"},
        {"layer": "experiments.dataset", "target": "repro.experiments.context:ExperimentContext.dataset"},
        {"layer": "obs.manifest", "target": "repro.obs.manifest:build_manifest"},
        {"layer": "obs.manifest", "target": "repro.obs.manifest:write_manifest"},
    ],
    "store-build": [
        {"layer": "fleet.demand", "target": "repro.fleet.demand:DemandModel.generate"},
        {
            "layer": "fleet.buffermodel",
            "target": "repro.fleet.buffermodel:FluidBufferModel.run_batch",
            "weight": "fluid_cells",
        },
        {"layer": "fleet.rackrun", "target": "repro.fleet.rackrun:RackRunSynthesizer.synthesize_batch"},
        {"layer": "fleet.rackrun.sketch", "target": "repro.fleet.rackrun:sketch_estimates"},
        {"layer": "analysis.summary", "target": "repro.fleet.dataset:summarize_run"},
        {"layer": "fleet.shards.synthesize", "target": "repro.fleet.shards:synthesize_shard"},
        {"layer": "fleet.shards.build", "target": "repro.fleet.shards:RegionShardStore.build"},
    ],
    "serve-warm": [
        {
            "layer": "fleet.shards.load",
            "target": "repro.fleet.shards:ShardedRegionDataset.iter_frames",
            "kind": "gen",
        },
        *[
            {"layer": "analysis.streaming", "target": f"repro.analysis.streaming:{accumulator}.{method}"}
            for accumulator in _ACCUMULATORS
            for method in ("add_columns", "merge", "finalize")
        ],
        *[
            {"layer": "service.serialize", "target": f"repro.service.core:serialize_{name}"}
            for name in _SERIALIZERS
        ],
    ],
    "packet-incast": [
        {"layer": "simnet.topology", "target": "repro.simnet.topology:build_rack"},
        {"layer": "simnet.fabric", "target": "repro.experiments.fig04_burst_validation:build_pod"},
        {"layer": "simnet.engine", "target": "repro.simnet.engine:Engine.run_until"},
        {"layer": "core.syncsampler", "target": "repro.core.syncsampler:SampledHost.poll"},
        {"layer": "core.syncsampler", "target": "repro.core.syncsampler:SyncMillisampler.assemble"},
    ],
}

#: Seconds one workload run may take before its children are killed;
#: a run must end within 180 s.
RUN_BUDGET_S = 170.0

#: Synthesis stages the fleet records as ``synthesis/<stage>`` timers.
SYNTHESIS_STAGES = ("demand", "fluid", "assemble", "summarize")


class WorkloadError(RuntimeError):
    """A repetition could not run to completion."""


# -- results ------------------------------------------------------------------


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Measurement:
    """Everything the untraced repetitions of one run produced."""

    setup_s: list[float] = field(default_factory=list)
    #: One latency per timed operation.
    latency_s: list[float] = field(default_factory=list)
    #: Work units completed by each operation (rack-runs, queries,
    #: simulated events), aligned with ``latency_s``.
    work: list[float] = field(default_factory=list)
    #: The repetition (child process or server) each operation ran in,
    #: aligned with ``latency_s``.
    rep: list[int] = field(default_factory=list)
    #: Cores each operation may use.
    cores: int = 1
    rss_mb: list[float] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    failed_ops: int = 0
    #: Workload-specific outputs the traced repetition compares against.
    extra: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), "" if ok else detail))

    def op(self, rep: int, latency_s: float, work: float) -> None:
        self.rep.append(rep)
        self.latency_s.append(latency_s)
        self.work.append(work)

    @property
    def attempted(self) -> int:
        return len(self.latency_s) + self.failed_ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(not check.ok for check in self.checks)


def e2e_metrics(m: Measurement) -> dict[str, dict]:
    """The end-to-end metrics of one run.

    Latency quantiles are taken over every operation and throughput is
    total work over total busy core-time.  Each metric's ``q1``/``q3``
    are the quartiles of the same statistic computed per repetition, so
    they show repetition-to-repetition noise, not the spread of a mixed
    query workload; ``n`` counts repetitions and ``ops`` operations.
    """
    reps: dict[int, list[int]] = {}
    for index, rep in enumerate(m.rep):
        reps.setdefault(rep, []).append(index)
    latency_ms = [s * 1e3 for s in m.latency_s]

    def per_rep(statistic) -> list[float]:
        return [statistic(indices) for indices in reps.values()]

    def rate(indices) -> float:
        return sum(m.work[i] for i in indices) / (sum(m.latency_s[i] for i in indices) * m.cores)

    def with_value(samples: list[float], value: float) -> dict:
        return dict(common.summary(samples), value=value, ops=len(latency_ms))

    return {
        "setup_s": common.summary(m.setup_s),
        "latency_p50_ms": with_value(
            per_rep(lambda ix: common.quartiles([latency_ms[i] for i in ix])[1]),
            common.quartiles(latency_ms)[1],
        ),
        "throughput_per_core_s": with_value(per_rep(rate), rate(range(len(latency_ms)))),
        "peak_rss_mb": common.summary(m.rss_mb),
    }


# -- processes ----------------------------------------------------------------


class Deadline:
    """The run's time budget; children still running past it are killed."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return max(0.0, self.end - time.perf_counter())


@dataclass
class Exited:
    code: int
    wall_s: float
    rss_mb: float
    spawned_at: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv: list[str], **popen) -> tuple[subprocess.Popen, float]:
    """Start a child in its own process group; returns it and its spawn time."""
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=common.ROOT, env=common.child_env(), start_new_session=True, **popen
    )
    return proc, spawned_at


def reap(proc: subprocess.Popen, spawned_at: float, deadline: Deadline) -> Exited:
    """Wait for ``proc`` (killing its group at the deadline), then kill
    anything it left behind in its group."""
    timer = threading.Timer(deadline.left(), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - spawned_at
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return Exited(proc.returncode, wall, usage.ru_maxrss / 1024.0, spawned_at)


def run_process(argv: list[str], deadline: Deadline) -> Exited:
    proc, spawned_at = spawn(argv, stdout=subprocess.DEVNULL)
    return reap(proc, spawned_at, deadline)


def run_child(kind: str, spec: dict, work_dir: str, deadline: Deadline) -> tuple[dict, Exited]:
    """One ``child.py`` repetition; returns its result and exit record."""
    spec = dict(spec, kind=kind)
    stem = os.path.join(work_dir, f"{kind}-{time.perf_counter_ns()}")
    with open(f"{stem}.spec.json", "w", encoding="utf-8") as stream:
        json.dump(spec, stream)
    exited = run_process(
        [sys.executable, str(common.HERE / "child.py"), f"{stem}.spec.json", f"{stem}.out.json"],
        deadline,
    )
    if exited.code != 0:
        raise WorkloadError(f"{kind} repetition exited with code {exited.code}")
    with open(f"{stem}.out.json", encoding="utf-8") as stream:
        return json.load(stream), exited


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


# -- shared reductions ----------------------------------------------------------


def timer_total(telemetry: dict, suffix: str) -> float:
    """Sum of every timer whose name is ``suffix`` or ends in ``/suffix``."""
    return sum(
        stats["total_s"]
        for name, stats in telemetry.get("timers", {}).items()
        if name == suffix or name.endswith("/" + suffix)
    )


def synthesis_ms_per_rack_run(telemetry: dict, rack_runs: int) -> dict[str, float]:
    """Per-stage synthesis milliseconds per rack-run from fleet timers."""
    return {
        stage: timer_total(telemetry, f"synthesis/{stage}") * 1e3 / rack_runs
        for stage in SYNTHESIS_STAGES
    }


class Layers:
    """Per-layer metrics of one traced repetition, built from its spans.

    A metric that depends on a layer whose target was missing is None.
    """

    def __init__(self, trace: dict) -> None:
        self.stats = layer_stats(trace["spans"])
        self.missing = trace["missing"]

    def has(self, *layers: str) -> bool:
        return not any(layer in self.missing for layer in layers)

    def self_s(self, layer: str) -> float:
        return self.stats.get(layer, {}).get("self_s", 0.0)

    def total_s(self, layer: str) -> float:
        return self.stats.get(layer, {}).get("total_s", 0.0)

    def weight(self, layer: str) -> float:
        return self.stats.get(layer, {}).get("weight", 0.0)

    def per(self, layer: str, count: float, scale: float = 1e3) -> float | None:
        """``layer``'s self time per unit of ``count`` (ms by default)."""
        if not self.has(layer):
            return None
        return self.self_s(layer) * scale / count

    def coverage(self) -> tuple[float, float]:
        """(share of the traced operation inside layer spans, untimed s)."""
        untimed = self.self_s("bench.op")
        return 1.0 - untimed / self.total_s("bench.op"), untimed


def trace_metrics(overhead: float, coverage: float, untimed: float) -> dict[str, float]:
    return {"trace.overhead_frac": overhead, "trace.coverage": coverage, "trace.untimed_s": untimed}


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: ``measure`` runs the untraced repetitions for the
    run's time budget; ``trace`` runs one traced repetition."""

    name = ""

    def __init__(self, seed: int, seconds: float, smoke: bool, work_dir: str, deadline: Deadline) -> None:
        self.seed = seed
        # A smoke run stops after its minimum repetitions.
        self.seconds = 0.0 if smoke else seconds
        self.smoke = smoke
        self.work_dir = work_dir
        self.deadline = deadline
        self.jobs = common.jobs()

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.work_dir, f"{label}-{time.perf_counter_ns()}")
        os.makedirs(path)
        return path

    def repeat(self, min_ops: int, step) -> None:
        """Call ``step(index)`` until the time budget is spent and at
        least ``min_ops`` repetitions have run."""
        start = time.perf_counter()
        index = 0
        while index < min_ops or time.perf_counter() - start < self.seconds:
            step(index)
            index += 1

    def measure(self) -> Measurement:
        raise NotImplementedError

    def trace(self, m: Measurement) -> tuple[dict[str, float | None], dict]:
        """Per-layer metric values (None where a traced layer is
        missing) and the traced child's exported spans."""
        raise NotImplementedError


class CliCold(Workload):
    """A cold ``repro run table1 fig16`` with no dataset cache."""

    name = "cli-cold"
    racks = 2
    runs_per_rack = 2
    experiments = ("table1", "fig16")

    def argv(self, manifest: str) -> list[str]:
        return [
            "run", *self.experiments,
            "--racks", str(self.racks), "--runs-per-rack", str(self.runs_per_rack),
            "--seed", str(self.seed), "--jobs", str(self.jobs),
            "--no-cache", "--quiet", "--manifest", manifest,
        ]

    @property
    def rack_runs(self) -> int:
        return 2 * self.racks * self.runs_per_rack

    def measure(self) -> Measurement:
        m = Measurement(cores=self.jobs)
        for _ in range(1 if self.smoke else 3):
            m.setup_s.append(run_process(repro_argv("list"), self.deadline).wall_s)
        manifests = []

        def step(index: int) -> None:
            path = os.path.join(self.work_dir, f"manifest-{index}.json")
            exited = run_process(repro_argv(*self.argv(path)), self.deadline)
            if exited.code != 0 or not os.path.exists(path):
                m.failed_ops += 1
                return
            with open(path, encoding="utf-8") as stream:
                manifests.append(json.load(stream))
            m.op(index, exited.wall_s, self.rack_runs)
            m.rss_mb.append(exited.rss_mb)

        self.repeat(1 if self.smoke else 2, step)
        if not manifests:
            raise WorkloadError("no cli run completed")
        outcomes = [o for manifest in manifests for o in manifest["experiments"]]
        m.check(
            "cli.outcomes_ok",
            all(o["status"] == "ok" for o in outcomes),
            str([(o["experiment_id"], o["status"], o["error"]) for o in outcomes if o["status"] != "ok"]),
        )
        fig16 = [metrics_of(manifest, "fig16") for manifest in manifests]
        m.check("cli.fig16_repeatable", all(metrics == fig16[0] for metrics in fig16), str(fig16))
        served = serve_table1(self, {"racks": self.racks, "runs_per_rack": self.runs_per_rack})
        expected = table1_metrics(served)
        got = metrics_of(manifests[0], "table1")
        m.check(
            "cli.table1_matches_serve",
            got == expected,
            f"cli {got} != serve {expected}",
        )
        m.extra["manifest"] = manifests[0]
        return m

    def trace(self, m: Measurement) -> tuple[dict, dict]:
        manifest_path = os.path.join(self.work_dir, "manifest-traced.json")
        result, exited = run_child(
            "cli",
            {"argv": self.argv(manifest_path), "targets": TARGETS[self.name]},
            self.work_dir,
            self.deadline,
        )
        if result["exit_code"] != 0:
            raise WorkloadError(f"traced cli run exited with code {result['exit_code']}")
        layers = Layers(result["trace"])
        wall = exited.wall_s
        timed = sum(stats["self_s"] for stats in layers.stats.values())

        # Layer times inside the CLI come from the manifest telemetry
        # the program writes anyway (summed over pool workers).
        telemetry = m.extra["manifest"]["telemetry"]
        runs = telemetry["counters"].get("dataset.generated_runs", self.rack_runs)
        stages = synthesis_ms_per_rack_run(telemetry, runs)
        synthesis_ms = sum(stages.values())
        timers = telemetry["timers"]
        dataset_s = sum(
            stats["total_s"] for name, stats in timers.items() if re.fullmatch(r"experiment/[^/]+/dataset/[^/]+", name)
        )
        experiments_s = sum(
            stats["total_s"] for name, stats in timers.items() if re.fullmatch(r"experiment/[^/]+", name)
        )
        reference, _ = run_child(
            "store-build",
            {"root": self.fresh_dir("reference"), "racks": self.racks,
             "runs_per_rack": self.runs_per_rack, "seed": self.seed},
            self.work_dir,
            self.deadline,
        )
        reference_runs = sum(region["runs"] for region in reference["regions"].values())
        reference_ms = sum(synthesis_ms_per_rack_run(reference["telemetry"], reference_runs).values())
        core_s = m.latency_s[0] * self.jobs  # the run that wrote the manifest
        metrics = {
            "demand.ms_per_rack_run": stages["demand"],
            "demand.share": stages["demand"] * runs / 1e3 / core_s,
            "fluid.ms_per_rack_run": stages["fluid"],
            "fluid.share": stages["fluid"] * runs / 1e3 / core_s,
            "assemble.ms_per_rack_run": stages["assemble"],
            "assemble.share": stages["assemble"] * runs / 1e3 / core_s,
            "summarize.ms_per_rack_run": stages["summarize"],
            "summarize.share": stages["summarize"] * runs / 1e3 / core_s,
            "experiments.dataset_s": dataset_s,
            "experiments.analysis_s": experiments_s - dataset_s,
            "cli.synthesis_ms_per_rack_run": synthesis_ms,
            "orchestrator.synthesis_slowdown": synthesis_ms / reference_ms,
            "parallel.efficiency": synthesis_ms * runs / 1e3 / (dataset_s * self.jobs),
            **trace_metrics(wall / common.quartiles(m.latency_s)[1] - 1.0, timed / wall, wall - timed),
        }
        return metrics, result["trace"]


def metrics_of(manifest: dict, experiment_id: str) -> dict:
    for outcome in manifest["experiments"]:
        if outcome["experiment_id"] == experiment_id:
            return outcome["metrics"]
    return {}


def table1_metrics(rows: dict[str, dict]) -> dict[str, float]:
    """The ``table1`` experiment's headline metrics, computed from the
    service's ``/v1/table1`` rows the way the experiment computes them."""
    metrics = {}
    for region in ("RegA", "RegB"):
        row = rows[region]
        metrics[f"{region}_bursts_per_bursty_run"] = (
            row["bursts"] / row["bursty_server_runs"] if row["bursty_server_runs"] else 0.0
        )
        metrics[f"{region}_bursty_fraction"] = row["bursty_run_fraction"]
        metrics[f"{region}_runs"] = float(row["runs"])
        metrics[f"{region}_server_runs"] = float(row["server_runs"])
    return metrics


# -- serve ------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on a fresh store directory."""

    SHARD_RACKS = 2
    SHARD_HOURS = 4

    def __init__(self, workload: Workload, config: dict) -> None:
        self.deadline = workload.deadline
        self.proc, self.spawned_at = spawn(
            repro_argv(
                "serve", "--store-dir", workload.fresh_dir("serve"),
                "--racks", str(config["racks"]), "--runs-per-rack", str(config["runs_per_rack"]),
                "--seed", str(workload.seed),
                "--shard-racks", str(self.SHARD_RACKS), "--shard-hours", str(self.SHARD_HOURS),
                "--jobs", str(workload.jobs), "--request-threads", "1",
                "--no-cache", "--port", "0",
            ),
            stdout=subprocess.PIPE,
            text=True,
        )
        # A server that never announces its port must not hang the run.
        self._watchdog = threading.Timer(self.deadline.left(), _kill_group, (self.proc.pid,))
        self._watchdog.start()
        line = self.proc.stdout.readline()
        found = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if not found:
            self.stop()
            raise WorkloadError(f"repro serve did not start: {line!r}")
        self.port = int(found.group(1))

    def query(self, kind: str, region: str, name: str | None) -> dict:
        """One closed-loop NDJSON query; returns the terminal event."""
        path = f"/v1/{kind}?region={region}" + (f"&name={name}" if name else "")
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=max(1.0, self.deadline.left()))
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        events = [json.loads(line) for line in body.splitlines() if line]
        return events[-1]

    def peak_rss_mb(self) -> float | None:
        """The server process's own RSS high-water mark so far.

        ``wait4`` would report the largest of the server and its reaped
        pool workers, and the workers peak while synthesizing the cold
        build, which is set-up, not serving."""
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def stop(self) -> tuple[Exited, str]:
        """SIGTERM (graceful drain), then wait; returns the exit record
        and what the server printed after starting."""
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        exited = reap(self.proc, self.spawned_at, self.deadline)
        self._watchdog.cancel()
        output = self.proc.stdout.read()
        self.proc.stdout.close()
        return exited, output


def serve_table1(workload: Workload, config: dict) -> dict[str, dict]:
    """Cold ``/v1/table1`` rows for both regions from a fresh server."""
    server = Server(workload, config)
    try:
        rows = {region: server.query("table1", region, None) for region in ("RegA", "RegB")}
    finally:
        server.stop()
    for region, event in rows.items():
        if event.get("event") != "result":
            raise WorkloadError(f"serve table1 {region} failed: {event}")
    return {region: event["data"] for region, event in rows.items()}


class ServeWarm(Workload):
    """Warm queries against ``repro serve`` over a finely sharded store."""

    name = "serve-warm"

    @property
    def config(self) -> dict:
        return {"racks": 1, "runs_per_rack": 2} if self.smoke else {"racks": 4, "runs_per_rack": 4}

    def measure(self) -> Measurement:
        m = Measurement(cores=1)
        servers = 1 if self.smoke else 3
        first: dict[tuple, dict] = {}
        drained = []
        for rep in range(servers):
            server = Server(self, self.config)
            try:
                for region in ("RegA", "RegB"):
                    server.query("table1", region, None)
                m.setup_s.append(time.perf_counter() - server.spawned_at)
                stop_at = time.perf_counter() + self.seconds / servers
                while True:
                    for query in SERVE_QUERIES:
                        started = time.perf_counter()
                        event = server.query(*query)
                        elapsed = time.perf_counter() - started
                        if event.get("event") != "result":
                            m.failed_ops += 1
                            continue
                        m.op(rep, elapsed, 1.0)
                        if first.setdefault(query, event["data"]) != event["data"]:
                            m.failed_ops += 1
                    if self.smoke or time.perf_counter() >= stop_at:
                        break
            finally:
                peak = server.peak_rss_mb()
                exited, output = server.stop()
            m.rss_mb.append(peak if peak is not None else exited.rss_mb)
            drained.append(exited.code == 0 and "drained cleanly" in output)
        m.check("serve.drained_cleanly", all(drained), str(drained))
        m.check("serve.all_queries_answered", len(first) == len(SERVE_QUERIES), str(sorted(first)))
        return m

    def trace(self, m: Measurement) -> tuple[dict, dict]:
        result, _ = run_child(
            "serve",
            {
                "root": self.fresh_dir("serve-traced"),
                **self.config,
                "seed": self.seed,
                "jobs": self.jobs,
                "shard_racks": Server.SHARD_RACKS,
                "shard_hours": Server.SHARD_HOURS,
                "queries": SERVE_QUERIES * (1 if self.smoke else 10),
                "targets": TARGETS[self.name],
            },
            self.work_dir,
            self.deadline,
        )
        layers = Layers(result["trace"])
        queries = len(result["traced_s"])
        coverage, untimed = layers.coverage()
        runs = 2 * self.config["racks"] * self.config["runs_per_rack"]
        stages = synthesis_ms_per_rack_run(result["telemetry"], runs)
        shards = result["telemetry"]["counters"].get("dataset.shards.generated", 0)
        # In-process (untraced) vs HTTP medians come from different
        # processes: this is a cross-run difference, not a span.
        inprocess_p50 = common.quartiles(result["untraced_s"])[1]
        metrics = {
            "demand.ms_per_rack_run": stages["demand"],
            "fluid.ms_per_rack_run": stages["fluid"],
            "assemble.ms_per_rack_run": stages["assemble"],
            "summarize.ms_per_rack_run": stages["summarize"],
            "shards.write_ms_per_shard": timer_total(result["telemetry"], "shards/write") * 1e3 / shards,
            "shards.load_ms_per_query": layers.per("fleet.shards.load", queries),
            "shards.frames_per_query": (
                layers.weight("fleet.shards.load") / queries if layers.has("fleet.shards.load") else None
            ),
            "streaming.fold_ms_per_query": layers.per("analysis.streaming", queries),
            "service.serialize_ms_per_query": layers.per("service.serialize", queries),
            "service.flight_ms_per_query": layers.per("service.stream", queries),
            "service.http_ms_per_query": (common.quartiles(m.latency_s)[1] - inprocess_p50) * 1e3,
            # The tail over every untraced HTTP query of the run (the
            # other workloads have too few operations for a p99).
            "service.query_p99_ms": common.percentile(m.latency_s, 99) * 1e3,
            **trace_metrics(sum(result["traced_s"]) / sum(result["untraced_s"]) - 1.0, coverage, untimed),
        }
        return metrics, result["trace"]


# -- store-build ----------------------------------------------------------------


class StoreBuild(Workload):
    """Serial shard-store builds of both regions, no orchestrator or reads."""

    name = "store-build"

    @property
    def spec(self) -> dict:
        scale = {"racks": 2, "runs_per_rack": 1} if self.smoke else {"racks": 16, "runs_per_rack": 2}
        return dict(scale, seed=self.seed)

    def measure(self) -> Measurement:
        m = Measurement(cores=1)
        results = []
        first_root = self.fresh_dir("store")

        def step(index: int) -> None:
            root = first_root if index == 0 else self.fresh_dir("store")
            result, exited = run_child("store-build", dict(self.spec, root=root), self.work_dir, self.deadline)
            results.append(result)
            m.setup_s.append(result["setup_end"] - exited.spawned_at)
            m.op(index, result["op_end"] - result["op_start"], sum(r["runs"] for r in result["regions"].values()))
            m.rss_mb.append(exited.rss_mb)
            if index:
                shutil.rmtree(root)

        self.repeat(1 if self.smoke else 2, step)
        # Checked in its own process, so the check's memory never counts
        # towards a build's peak RSS.
        checked, _ = run_child("store-check", dict(self.spec, root=first_root), self.work_dir, self.deadline)
        m.check(
            "store.hashes_verified",
            all(region["hashes_verified"] for region in checked.values()),
            str(checked),
        )
        m.check(
            "store.table1_streaming_matches_oracle",
            all(region["table1_streaming_matches_oracle"] for region in checked.values()),
            str(checked),
        )
        hashes = [{name: r["sha256"] for name, r in result["regions"].items()} for result in results]
        m.check("store.shards_repeatable", all(h == hashes[0] for h in hashes), "shard sha256 differ")
        return m

    def trace(self, m: Measurement) -> tuple[dict, dict]:
        result, _ = run_child(
            "store-build",
            dict(self.spec, root=self.fresh_dir("store-traced"), targets=TARGETS[self.name]),
            self.work_dir,
            self.deadline,
        )
        layers = Layers(result["trace"])
        wall = result["op_end"] - result["op_start"]
        regions = result["regions"].values()
        runs = sum(region["runs"] for region in regions)
        shards = sum(region["shards"] for region in regions)
        coverage, untimed = layers.coverage()
        rate = sum(m.work) / sum(m.latency_s)

        def share(*names: str) -> float | None:
            if not layers.has(*names):
                return None
            return sum(layers.self_s(name) for name in names) / wall

        cells = layers.weight("fleet.buffermodel")
        metrics = {
            "demand.ms_per_rack_run": layers.per("fleet.demand", runs),
            "demand.share": share("fleet.demand"),
            "fluid.ms_per_rack_run": layers.per("fleet.buffermodel", runs),
            "fluid.ns_per_cell": layers.per("fleet.buffermodel", cells, 1e9) if cells else None,
            "fluid.share": share("fleet.buffermodel"),
            "assemble.ms_per_rack_run": layers.per("fleet.rackrun", runs),
            "sketch.ms_per_rack_run": layers.per("fleet.rackrun.sketch", runs),
            "assemble.share": share("fleet.rackrun", "fleet.rackrun.sketch"),
            "summarize.ms_per_rack_run": layers.per("analysis.summary", runs),
            "summarize.share": share("analysis.summary"),
            "summarize.bursts": sum(region["bursts"] for region in regions),
            "shards.write_ms_per_shard": layers.per("fleet.shards.build", shards),
            "shards.bytes_written": sum(region["bytes"] for region in regions),
            "paper_footprint_core_h": PAPER_RACK_RUNS / rate / 3600.0,
            **trace_metrics(wall / common.quartiles(m.latency_s)[1] - 1.0, coverage, untimed),
        }
        return metrics, result["trace"]


# -- packet-incast ----------------------------------------------------------------


class PacketIncast(Workload):
    """DCTCP incast into a 93-server rack's shared buffer, plus Figure 4."""

    name = "packet-incast"

    @property
    def spec(self) -> dict:
        return {
            "seed": self.seed,
            "servers": 93,
            "fanins": [16, 92] if self.smoke else [16, 64, 92],
            "bytes_per_sender": 400_000,
            # A 32-segment initial window makes the synchronized first
            # round overflow the shared buffer at high fan-in only.
            "initial_cwnd_segments": 32,
            "horizon_s": 0.5,
        }

    @staticmethod
    def outputs(result: dict) -> dict:
        """What must repeat exactly across repetitions."""
        return {"scenarios": result["scenarios"], "fig4_events": result["fig4_events"]}

    def measure(self) -> Measurement:
        m = Measurement(cores=1)
        results = []

        def step(index: int) -> None:
            result, exited = run_child("packet", self.spec, self.work_dir, self.deadline)
            results.append(result)
            m.setup_s.append(result["setup_end"] - exited.spawned_at)
            events = sum(s["events"] for s in result["scenarios"]) + result["fig4_events"]
            m.op(index, result["op_end"] - result["op_start"], events)
            m.rss_mb.append(exited.rss_mb)

        self.repeat(1 if self.smoke else 3, step)
        scenarios = {s["fanin"]: s for s in results[0]["scenarios"]}
        m.check(
            "packet.all_senders_completed",
            all(s["completed"] == s["fanin"] for r in results for s in r["scenarios"]),
        )
        m.check("packet.fanin16_lossless", scenarios[16]["discard_packets"] == 0, str(scenarios[16]))
        m.check("packet.fanin92_drops", scenarios[92]["discard_packets"] > 0, str(scenarios[92]))
        m.check(
            "packet.fig4_five_bursty_servers",
            all(r["fig4_max_concurrent"] == 5 for r in results),
            str([r["fig4_max_concurrent"] for r in results]),
        )
        first = self.outputs(results[0])
        m.check(
            "packet.repeatable",
            all(self.outputs(r) == first for r in results),
            "event or drop counts differ across repetitions",
        )
        m.extra["result"] = results[0]
        return m

    def trace(self, m: Measurement) -> tuple[dict, dict]:
        result, _ = run_child("packet", dict(self.spec, targets=TARGETS[self.name]), self.work_dir, self.deadline)
        layers = Layers(result["trace"])
        wall = result["op_end"] - result["op_start"]
        scenarios = m.extra["result"]["scenarios"]
        events = sum(s["events"] for s in scenarios) + m.extra["result"]["fig4_events"]
        coverage, untimed = layers.coverage()
        metrics = {
            "simnet.events": events,
            "simnet.ns_per_event": layers.per("simnet.engine", events, 1e9),
            "simnet.build_ms": (
                (layers.self_s("simnet.topology") + layers.self_s("simnet.fabric")) * 1e3
                if layers.has("simnet.topology", "simnet.fabric")
                else None
            ),
            "switch.discard_bytes": sum(s["discard_bytes"] for s in scenarios),
            "switch.ecn_marked_bytes": sum(s["ecn_marked_bytes"] for s in scenarios),
            "tcp.retransmissions": sum(s["retransmissions"] for s in scenarios),
            "tcp.timeouts": sum(s["timeouts"] for s in scenarios),
            **trace_metrics(wall / common.quartiles(m.latency_s)[1] - 1.0, coverage, untimed),
        }
        return metrics, result["trace"]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CliCold, StoreBuild, ServeWarm, PacketIncast)
}


# -- one run ------------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    trace_dir: str | None = None,
) -> dict:
    """Measure one workload (and trace it); returns its result record."""
    started = time.perf_counter()
    benchmark = common.load_benchmark()
    units = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    layer_units = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
    os.makedirs(common.WORK_ROOT, exist_ok=True)
    work_dir = os.path.join(common.WORK_ROOT, f"{name}-{os.getpid()}-{time.perf_counter_ns()}")
    os.makedirs(work_dir)
    workload = WORKLOADS[name](seed, seconds, smoke, work_dir, Deadline(RUN_BUDGET_S))
    warnings: list[str] = []
    try:
        m = workload.measure()
        record = {
            "e2e": {
                metric: dict(entry, unit=units[metric]) for metric, entry in e2e_metrics(m).items()
            },
            "checks": [check.__dict__ for check in m.checks],
        }
        if trace:
            values, traced = workload.trace(m)
            unknown = set(values) - set(layer_units)
            if unknown:
                raise WorkloadError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
            # A layer this workload never reaches did no work here: 0.
            record["layers"] = {
                metric: {"value": values.get(metric, 0.0), "unit": unit}
                for metric, unit in layer_units.items()
            }
            for layer, reason in sorted(traced["missing"].items()):
                warnings.append(f"layer {layer} not traced ({reason}); metrics that need it are null")
            if trace_dir:
                os.makedirs(trace_dir, exist_ok=True)
                write_chrome_trace(
                    os.path.join(trace_dir, f"{name}.trace.json"),
                    chrome_events(traced["pid"], traced["spans"], f"{name} (traced repetition)"),
                )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(common.WORK_ROOT)  # only if no other run is using it
        except OSError:
            pass
    record.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        smoke=smoke,
        attempted=m.attempted,
        failed=m.failed,
        correct=m.failed == 0,
        warnings=warnings,
        elapsed_s=time.perf_counter() - started,
    )
    return record
