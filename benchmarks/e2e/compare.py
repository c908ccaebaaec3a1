"""Compare two benchmark result files (``run.py --out``)::

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

For every workload and end-to-end metric it prints both medians with
their quartiles and a verdict, judged against the metric's ``bound``
in ``BENCHMARK.json``:

* ``unresolved`` - either side's interquartile spread, as a share of
  its median, exceeds the bound: the runs are too noisy to tell.
  ``setup_s`` is measured only a few times per run, so it is judged
  on its median alone;
* ``worse`` / ``better`` - NEW's median is more than the bound away
  from BASE's, in the metric's bad / good direction;
* ``same`` - otherwise.

Per-layer metrics that are exact counts (unit ``count`` or ``bytes``)
must be equal when both files were traced.  The exit code is 1 if any
verdict is worse or unresolved or any count differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

EXACT_UNITS = ("count", "bytes")


def verdict(base: dict, new: dict, bound: float, better: str, judge_spread: bool = True) -> str:
    if judge_spread and max(common.spread(base), common.spread(new)) > bound:
        return "unresolved"
    change = (new["value"] - base["value"]) / abs(base["value"])
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def _fmt(entry: dict) -> str:
    return f"{entry['value']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}]"


def compare(base: dict, new: dict, benchmark: dict) -> tuple[list[str], bool]:
    """Report lines and whether NEW passes against BASE."""
    lines: list[str] = []
    ok = True
    if base.get("fingerprint") != new.get("fingerprint"):
        lines.append(f"note: fingerprints differ: {base.get('fingerprint')} vs {new.get('fingerprint')}")
    units = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
    for workload in benchmark["workloads"]:
        name = workload["name"]
        a = base["workloads"].get(name)
        b = new["workloads"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: not in both files")
            continue
        for metric in benchmark["end_to_end"]:
            x, y = a["e2e"][metric["name"]], b["e2e"][metric["name"]]
            result = verdict(x, y, metric["bound"], metric["better"], metric["name"] != "setup_s")
            ok &= result not in ("worse", "unresolved")
            lines.append(
                f"{name:14s} {metric['name']:22s} {_fmt(x):>34s} -> {_fmt(y):>34s} "
                f"{metric['unit']:5s} {result}"
            )
        if "layers" in a and "layers" in b:
            for metric, unit in units.items():
                if unit not in EXACT_UNITS:
                    continue
                x, y = a["layers"][metric]["value"], b["layers"][metric]["value"]
                if x != y:
                    ok = False
                    lines.append(f"{name:14s} {metric:22s} count {x} -> {y} DIFFERS")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two e2e benchmark result files.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as stream:
            documents.append(json.load(stream))
    lines, ok = compare(*documents, common.load_benchmark())
    print("\n".join(lines))
    print("PASS" if ok else "FAIL: worse, unresolved or differing counts above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
