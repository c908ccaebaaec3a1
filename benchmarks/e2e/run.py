"""End-to-end, layer-attributed benchmark of the reproduction.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload store-build --seed 11 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 11 --trace 1 --out r.json --trace-dir traces/

``--workload`` is one of the workloads in ``BENCHMARK.json`` or ``all``
(the default).  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` adds one traced repetition per workload and reports the per-layer
metrics (``--trace-dir`` keeps its spans as Chrome Trace Event JSON).
``--smoke`` shrinks every workload to a seconds-long self-test.

Every metric is printed as ``<workload> <metric> <value> <unit>``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` writes the full
record (quartiles, sample counts, checks, machine fingerprint) that
``compare.py`` reads.  The exit code is 0 only if every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common


def _parser(benchmark: dict) -> argparse.ArgumentParser:
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measured time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None, help="write <workload>.trace.json files here")
    parser.add_argument("--out", default=None, help="write the full result record here")
    parser.add_argument("--smoke", action="store_true", help="tiny scales, one repetition each")
    return parser


def main(argv: list[str] | None = None) -> int:
    if not (common.SRC / "repro").is_dir():
        print(f"error: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    import workloads

    benchmark = common.load_benchmark()
    args = _parser(benchmark).parse_args(argv)
    names = [entry["name"] for entry in benchmark["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    started = time.perf_counter()
    records = {}
    try:
        for name in selected:
            records[name] = workloads.run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke, args.trace_dir
            )
    except workloads.WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    key = "layers" if args.trace else "e2e"
    metrics = {}
    for name, record in records.items():
        for check in record["checks"]:
            if not check["ok"]:
                print(f"{name} CHECK FAILED {check['name']}: {check['detail']}", file=sys.stderr)
        for warning in record["warnings"]:
            print(f"{name} warning: {warning}", file=sys.stderr)
        for metric, entry in record[key].items():
            print(f"{name} {metric} {entry['value']} {entry['unit']}")
            label = metric if len(selected) == 1 else f"{name}.{metric}"
            metrics[label] = {"value": entry["value"], "unit": entry["unit"]}

    if args.out:
        document = {
            "schema": "millisampler-repro/e2e-benchmark",
            "schema_version": 1,
            "fingerprint": common.fingerprint(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "elapsed_s": time.perf_counter() - started,
            "workloads": records,
        }
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=1)
            stream.write("\n")

    correct = all(record["correct"] for record in records.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(record["attempted"] for record in records.values()),
                "failed": sum(record["failed"] for record in records.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
