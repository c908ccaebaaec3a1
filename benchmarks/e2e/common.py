"""Helpers shared by the benchmark's parent process, its children and
``compare.py``: repository paths, the benchmark declaration, sample
statistics and the machine fingerprint.

Nothing here imports ``repro``: ``compare.py`` must run on result files
alone, and ``run.py`` reports a missing source tree itself.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout root: ``benchmarks/e2e/`` sits two levels below it.
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Working space for stores, manifests and child specs; always inside
#: the checkout, emptied at the end of every run.
WORK_ROOT = ROOT / ".e2e_work"


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        return json.load(stream)


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    ``src`` goes first on ``PYTHONPATH`` so the checkout's own code
    runs, and both repro cache locations point into the working
    directory so nothing is read from or written to the home directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["MILLISAMPLER_CACHE_DIR"] = str(WORK_ROOT / "cache")
    env["MILLISAMPLER_STORE_DIR"] = str(WORK_ROOT / "store")
    return env


def jobs() -> int:
    """Worker processes and connections: ``min(2, nproc)``."""
    return max(1, min(2, nproc()))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- statistics ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of a run's few repetitions.  The inclusive
    method keeps the quartiles inside the data, where the default
    method would extrapolate past two or three samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: with fewer than ``100 / (100 - pct)``
    samples this is the largest one."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(entry: dict) -> float:
    """Interquartile distance as a share of the metric's value."""
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


# -- fingerprint -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint() -> dict:
    """What the numbers depend on besides the code under test."""
    import importlib.util

    import numpy

    from repro.fleet.kernels import resolve_kernel

    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "jobs": jobs(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": resolve_kernel("auto"),
        "git_commit": _git_commit(),
    }
