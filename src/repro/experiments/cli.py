"""Command-line entry point: regenerate paper tables and figures.

Examples::

    millisampler-repro list
    millisampler-repro run fig9 fig16 --racks 60
    millisampler-repro run all --out results/ --racks 150
    millisampler-repro run all --manifest out/manifest.json
    millisampler-repro run fig9 --trace-memory --manifest out/manifest.json

Suite runs (`run`, `report`) go through the experiment orchestrator:
every experiment executes inside its own failure boundary, so one
broken experiment never kills the rest — the suite completes, prints a
failure summary, and exits nonzero.  ``--manifest`` leaves a
machine-readable JSON record (config, telemetry, per-experiment
outcomes); ``--profile`` prints the timer/counter profile.  Memory is
reported as peak RSS; ``--trace-memory`` adds a per-experiment
``tracemalloc`` peak at the cost of a much slower run.
"""

from __future__ import annotations

import argparse
import sys

from ..config import FleetConfig
from ..errors import ConfigError, StorageError
from ..fleet.shards import (
    DEFAULT_SHARD_HOURS,
    DEFAULT_SHARD_RACKS,
    RegionDataset,
    default_store_dir,
    private_store_root,
)
from .context import ExperimentContext
from .registry import EXPERIMENTS, ordered_ids


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line on stderr, like the
    ``error:`` line :func:`main` prints for a bad configuration (the
    usage stays available through ``--help``).  Subcommand parsers
    inherit the class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="millisampler-repro",
        description=(
            "Reproduce the tables and figures of 'A Microscopic View of "
            "Bursts, Buffer Contention, and Loss in Data Centers' (IMC 2022)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (fig1..fig19, table1, table2, perf) or 'all'",
    )
    run_parser.add_argument("--racks", type=int, default=100,
                            help="racks per region for the synthetic dataset")
    run_parser.add_argument("--runs-per-rack", type=int, default=10)
    run_parser.add_argument("--seed", type=int, default=20221025)
    run_parser.add_argument("--out", type=str, default=None,
                            help="directory for CSV series and text reports")
    run_parser.add_argument("--quiet", action="store_true")
    _add_generation_args(run_parser)
    _add_orchestration_args(run_parser)

    export_parser = sub.add_parser(
        "export",
        help="generate a synthetic region-day and write it in the "
             "Millisampler dataset format (NDJSON.gz per rack run)",
    )
    export_parser.add_argument("out", help="output directory")
    export_parser.add_argument("--region", choices=("RegA", "RegB"), default="RegA")
    export_parser.add_argument("--racks", type=int, default=10)
    export_parser.add_argument("--runs-per-rack", type=int, default=4)
    export_parser.add_argument("--seed", type=int, default=20221025)
    export_parser.add_argument(
        "--policy", type=_policy_arg, default=None, metavar="NAME[:K=V,...]",
        help="buffer-sharing policy for the exported runs "
             "(see `run`'s --policy)",
    )

    analyze_parser = sub.add_parser(
        "analyze",
        help="run the paper's burst/contention/loss analysis on a "
             "directory of Millisampler dataset files (released or exported)",
    )
    analyze_parser.add_argument("directory")

    serve_parser = sub.add_parser(
        "serve",
        help="run the persistent query service: one shard store, one "
             "worker pool, dataset/table1/figure queries over local HTTP "
             "or a unix socket with NDJSON streaming (see repro.service)",
    )
    serve_parser.add_argument("--racks", type=int, default=100,
                              help="racks per region for the synthetic dataset")
    serve_parser.add_argument("--runs-per-rack", type=int, default=10)
    serve_parser.add_argument("--seed", type=int, default=20221025)
    serve_parser.add_argument("--host", type=str, default="127.0.0.1",
                              help="TCP bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8787,
                              help="TCP port (0 picks a free port; default 8787)")
    serve_parser.add_argument(
        "--unix-socket", type=str, default=None, metavar="PATH",
        help="also (or instead) listen on a unix domain socket",
    )
    serve_parser.add_argument(
        "--no-tcp", action="store_true",
        help="listen only on --unix-socket (requires it)",
    )
    serve_parser.add_argument(
        "--request-threads", type=int, default=2,
        help="threads executing query bodies; counted as reserved cores "
             "when --jobs 0 sizes the worker pool, so pool + request "
             "threads never oversubscribe the machine (default 2)",
    )
    _add_generation_args(serve_parser)

    report_parser = sub.add_parser(
        "report", help="run every experiment and write one markdown report"
    )
    report_parser.add_argument("out", help="output markdown path (e.g. REPORT.md)")
    report_parser.add_argument("--racks", type=int, default=60)
    report_parser.add_argument("--runs-per-rack", type=int, default=8)
    report_parser.add_argument("--seed", type=int, default=20221025)
    _add_generation_args(report_parser)
    _add_orchestration_args(report_parser)
    return parser


def _add_orchestration_args(parser: argparse.ArgumentParser) -> None:
    """Orchestration/observability knobs shared by `run` and `report`."""
    parser.add_argument(
        "--trace-memory", action="store_true",
        help="also record each experiment's tracemalloc peak (analysis "
             "only: datasets are built first, untraced); slows the run, "
             "so peak RSS is the default memory figure",
    )
    parser.add_argument(
        "--manifest", type=str, default=None, metavar="PATH",
        help="write a JSON run manifest (config, telemetry, "
             "per-experiment status/timing/memory) to PATH",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the timer/counter profile after the run",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="continuously check simulator conservation laws (buffer "
             "occupancy, byte accounting, admission release, time "
             "monotonicity) while experiments run; violations fail the "
             "experiment and audit totals land in the manifest telemetry",
    )


def _policy_arg(text: str):
    """argparse type for ``--policy``: a validated PolicySpec."""
    from ..fleet.policies import parse_policy_arg

    try:
        return parse_policy_arg(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_generation_args(parser: argparse.ArgumentParser) -> None:
    """Dataset-generation knobs shared by `run`, `report` and `serve`.

    The per-(rack, run) seed streams make generation identical for any
    --jobs value or shard geometry, and the store's dataset key covers
    everything that shapes the data, so these flags change cost, never
    results.  ``--policy`` is the exception by design: the sharing
    policy shapes the data, so it feeds the dataset key and per-policy
    stores never collide.
    """
    parser.add_argument(
        "--policy", type=_policy_arg, default=None, metavar="NAME[:K=V,...]",
        help="buffer-sharing policy every synthesized rack runs under, "
             "as a registered name with optional parameters, e.g. "
             "'delay-driven:alpha=1,target_delay_steps=2' (default: the "
             "deployed dynamic threshold; see repro.fleet.policies)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for dataset generation "
             "(0 = all cores, 1 = serial; default 0)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always regenerate datasets: build into a private temporary "
             "store (inside --store-dir when given) that no other run "
             "opens, removed when the command exits",
    )
    parser.add_argument(
        "--store-dir", type=str, default=None, metavar="DIR",
        help="root of the sharded out-of-core region store that "
             "region-days are generated into, reused from, and aggregated "
             "from shard by shard (default $MILLISAMPLER_STORE_DIR or "
             "~/.cache/millisampler-shards)",
    )
    parser.add_argument(
        "--shard-racks", type=int, default=DEFAULT_SHARD_RACKS, metavar="N",
        help=f"racks per shard (default {DEFAULT_SHARD_RACKS})",
    )
    parser.add_argument(
        "--shard-hours", type=int, default=DEFAULT_SHARD_HOURS, metavar="N",
        help=f"hours per shard (default {DEFAULT_SHARD_HOURS})",
    )


def _store_dir(args) -> str:
    """The shard-store root a command builds into and reads from.

    ``--no-cache`` reuses and keeps nothing: it gets a fresh private
    root that no other run opens.  The parsed arguments own it, so it
    is removed when the command returns.
    """
    if args.no_cache:
        return private_store_root(args, parent=args.store_dir)
    return args.store_dir or default_store_dir()


def _export(args) -> int:
    """Handle `export`: write a synthetic region in dataset format."""
    import numpy as np

    from ..fleet.rackrun import RackRunSynthesizer
    from ..io.msdata import write_sync_run
    from ..workload.region import REGION_A, REGION_B, build_region_workloads

    # Run hours are drawn without replacement from the 24 hours of the
    # region-day; validate here so the limit surfaces as a CLI error,
    # not an opaque numpy ValueError from rng.choice.
    if not 1 <= args.runs_per_rack <= 24:
        print(
            f"error: --runs-per-rack must be between 1 and 24 "
            f"(each rack is sampled at distinct hours of one 24-hour "
            f"day), got {args.runs_per_rack}",
            file=sys.stderr,
        )
        return 2
    # The seed feeds np.random.default_rng, which takes no negative ints.
    if args.seed < 0:
        print(f"error: --seed cannot be negative, got {args.seed}", file=sys.stderr)
        return 2

    spec = REGION_A if args.region == "RegA" else REGION_B
    rng = np.random.default_rng(args.seed)
    synthesizer = RackRunSynthesizer(policy=args.policy)
    workloads = build_region_workloads(spec, args.racks, rng)
    written = 0
    for workload in workloads:
        hours = np.sort(rng.choice(24, size=args.runs_per_rack, replace=False))
        for hour in hours:
            sync_run = synthesizer.synthesize(workload, int(hour), rng)
            write_sync_run(sync_run, args.out)
            written += 1
    print(f"wrote {written} rack runs to {args.out}")
    return 0


def _analyze(args) -> int:
    """Handle `analyze`: the Section 5-8 pipeline over dataset files."""
    import numpy as np

    from .. import units
    from ..analysis.stats import percentile
    from ..analysis.summary import run_rows
    from ..io.msdata import load_rack_directory
    from ..viz.table import render_table

    try:
        sync_runs = load_rack_directory(args.directory)
    except StorageError as exc:
        # A missing, empty or unreadable dataset is a usage error, like
        # a bad configuration: one line, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reduced = [run_rows(run.stacked()) for run in sync_runs]
    if not any(len(rows.bursts) for rows in reduced):
        print("no bursts found in the dataset")
        return 0
    racks: dict[str, int] = {}
    dataset = RegionDataset.from_rows(
        sync_runs[0].region, reduced, [racks.setdefault(run.rack, len(racks)) for run in sync_runs]
    )
    table1 = dataset.table1_row()
    runs = dataset.columns("runs", ("sampling_interval", "contention_mean"))
    bursts = dataset.columns("bursts", ("run_row", "length", "max_contention", "lossy"))
    # A burst's length counts sample buckets; convert via its run's own
    # sampling interval so e.g. a 100 us export is not reported 10x long.
    lengths_ms = (
        bursts["length"] * runs["sampling_interval"][bursts["run_row"].astype(np.int64)] / units.MSEC
    )
    contended = int(np.count_nonzero(bursts["max_contention"] >= 2))
    lossy = int(np.count_nonzero(bursts["lossy"]))
    contention = runs["contention_mean"]
    rows = [
        ["rack runs", table1.runs],
        ["server runs", table1.server_runs],
        ["bursts", table1.bursts],
        ["median burst length (ms)", percentile(lengths_ms, 50)],
        ["p90 burst length (ms)", percentile(lengths_ms, 90)],
        ["contended bursts", f"{contended / table1.bursts * 100:.1f}%"],
        ["lossy bursts", f"{lossy / table1.bursts * 100:.2f}%"],
        ["mean avg contention", f"{float(np.mean(contention)):.2f}"],
        ["p90 avg contention", percentile(contention, 90)],
    ]
    print(render_table(["metric", "value"], rows,
                       title=f"Millisampler dataset analysis: {args.directory}"))
    return 0


def _context(args, verbose: bool = False) -> ExperimentContext:
    """Build the shared context from `run`/`report` CLI arguments."""
    policy = getattr(args, "policy", None)
    return ExperimentContext(
        fleet=FleetConfig(
            racks_per_region=args.racks,
            runs_per_rack=args.runs_per_rack,
            seed=args.seed,
            jobs=args.jobs,
            **({"policy": policy} if policy is not None else {}),
        ),
        store_dir=_store_dir(args),
        shard_racks=args.shard_racks,
        shard_hours=args.shard_hours,
        verbose=verbose,
        audit=getattr(args, "audit", False),
    )


def _finish_orchestrated(args, ctx, orchestration) -> int:
    """Manifest / profile / failure-summary epilogue for `run`/`report`."""
    if args.manifest:
        from ..obs.manifest import build_manifest, write_manifest

        manifest = build_manifest(
            ctx.fleet,
            orchestration.outcomes,
            store_dir=ctx.store_dir,
            shard_racks=ctx.shard_racks,
            shard_hours=ctx.shard_hours,
            telemetry=ctx.metrics.snapshot(),
            trace_memory=args.trace_memory,
        )
        print(f"wrote manifest {write_manifest(manifest, args.manifest)}")
    if args.profile:
        print(ctx.metrics.render_profile())
    if not orchestration.ok:
        print(orchestration.failure_summary(), file=sys.stderr)
        return 1
    return 0


def _serve(args) -> int:
    """Handle `serve`: run the persistent query service until signaled."""
    from ..service import QueryService, ServiceConfig, run_server

    if args.no_tcp and not args.unix_socket:
        print("error: --no-tcp requires --unix-socket", file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print(f"error: --port must be between 0 and 65535, got {args.port}", file=sys.stderr)
        return 2
    service = QueryService(
        ServiceConfig(
            fleet=FleetConfig(
                racks_per_region=args.racks,
                runs_per_rack=args.runs_per_rack,
                seed=args.seed,
                jobs=args.jobs,
                **({"policy": args.policy} if args.policy is not None else {}),
            ),
            store_dir=_store_dir(args),
            shard_racks=args.shard_racks,
            shard_hours=args.shard_hours,
            request_threads=args.request_threads,
        )
    )

    def ready(port: int | None) -> None:
        where = [] if port is None else [f"http://{args.host}:{port}"]
        if args.unix_socket:
            where.append(f"unix:{args.unix_socket}")
        print(f"repro serve listening on {', '.join(where)} "
              f"(pool={service.pool_jobs()} workers, "
              f"{args.request_threads} request threads)", flush=True)

    run_server(
        service,
        host=None if args.no_tcp else args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        ready=ready,
    )
    print("repro serve drained cleanly")
    return 0


def _report(args) -> int:
    """Handle `report`: run everything, write one markdown report."""
    from .orchestrator import run_experiments
    from .report import render_markdown

    ctx = _context(args)
    orchestration = run_experiments(
        ctx,
        ordered_ids(),
        progress=lambda outcome, _result: print(
            f"  {outcome.experiment_id}: {outcome.wall_time_s:.1f}s"
        ),
        trace_memory=args.trace_memory,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_markdown(orchestration.results, ctx, orchestration.outcomes))
    print(f"wrote {args.out}")
    return _finish_orchestrated(args, ctx, orchestration)


def _run(args) -> int:
    """Handle `run`: orchestrate the requested experiments."""
    from .orchestrator import run_experiments

    requested = args.experiments
    if requested == ["all"]:
        requested = ordered_ids()
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2

    ctx = _context(args, verbose=not args.quiet)

    def progress(outcome, result) -> None:
        if outcome.status == "failed":
            print(
                f"[{outcome.experiment_id} FAILED after "
                f"{outcome.wall_time_s:.1f}s: {outcome.error}]",
                file=sys.stderr,
            )
            return
        if outcome.status == "skipped":
            print(
                f"[{outcome.experiment_id} skipped: {outcome.error}]",
                file=sys.stderr,
            )
            return
        if not args.quiet:
            print(result.render())
            print(f"[{outcome.experiment_id} finished in {outcome.wall_time_s:.1f}s]\n")
        if args.out:
            for path in result.save(args.out):
                if not args.quiet:
                    print(f"  wrote {path}")

    orchestration = run_experiments(
        ctx,
        requested,
        progress=progress,
        trace_memory=args.trace_memory,
    )
    return _finish_orchestrated(args, ctx, orchestration)


_COMMANDS = {"export": _export, "analyze": _analyze, "serve": _serve,
             "report": _report, "run": _run}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A bad configuration (a negative ``--racks``, a shard geometry below
    one rack x one hour, ...) exits 2 with one ``error:`` line.
    """
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in ordered_ids():
            print(f"{experiment_id:8s} {EXPERIMENTS[experiment_id].title}")
        return 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
