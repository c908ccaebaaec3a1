#!/usr/bin/env python3
"""Analyzing Millisampler dataset files (released-data workflow).

The paper's authors released an anonymized Millisampler dataset; this
example shows the exact workflow for analyzing it with this library:

1. point :func:`repro.io.load_rack_directory` at a directory of
   NDJSON(.gz) host-record files (a ``FieldMap`` adapts any column
   naming — see ``repro/io/msdata.py``),
2. runs are trimmed and aligned exactly like live SyncMillisampler
   collections, and
3. the full Section 5-8 analysis pipeline applies unchanged.

Since the real download is not bundled, the example first *exports* a
small synthetic region in the same format and then analyzes it — swap
the directory for the real data and everything downstream is
identical.

Run:  python examples/released_data_pipeline.py [existing-data-dir]
"""

import sys
import tempfile

import numpy as np

from repro.analysis.bursts import BURST_FIELDS
from repro.analysis.stats import percentile
from repro.analysis.summary import RUN_FIELDS, run_rows
from repro.fleet.rackrun import RackRunSynthesizer
from repro.io import load_rack_directory, write_sync_run
from repro.viz.ascii import ascii_cdf
from repro.workload.region import REGION_A, build_region_workloads


def export_stand_in(directory: str, racks: int = 6, runs_per_rack: int = 3) -> None:
    """Write a synthetic region slice in the released-data format."""
    rng = np.random.default_rng(1)
    synthesizer = RackRunSynthesizer()
    for workload in build_region_workloads(REGION_A, racks, rng):
        for hour in np.sort(rng.choice(24, size=runs_per_rack, replace=False)):
            write_sync_run(synthesizer.synthesize(workload, int(hour), rng), directory)
    print(f"(stand-in dataset exported to {directory})\n")


def main() -> None:
    if len(sys.argv) > 1:
        directory = sys.argv[1]
    else:
        directory = tempfile.mkdtemp(prefix="msdata-")
        export_stand_in(directory)

    sync_runs = load_rack_directory(directory)
    print(f"Loaded {len(sync_runs)} rack runs "
          f"({sum(r.servers for r in sync_runs)} host records)\n")

    # Each rack run reduced to its run row and burst rows; columns of
    # every run's rows side by side.
    reduced = [run_rows(run.stacked()) for run in sync_runs]
    runs = dict(zip(RUN_FIELDS, np.array([rows.run for rows in reduced]).T))
    bursts = dict(zip(BURST_FIELDS, np.concatenate([rows.bursts for rows in reduced]).T))
    lengths = bursts["length"]  # 1 ms buckets
    is_contended = bursts["max_contention"] >= 2
    contended = lengths[is_contended]
    non_contended = lengths[~is_contended]

    if non_contended.size and contended.size:
        print(ascii_cdf(
            {"all": lengths, "contended": contended, "non-contended": non_contended},
            x_label="burst length (ms)",
            title="Burst length distribution (cf. Figure 7)",
            height=12,
        ))

    lossy = int(np.count_nonzero(bursts["lossy"]))
    print(f"\n{lengths.size} bursts | median length "
          f"{percentile(lengths, 50):.0f} ms | "
          f"{contended.size / lengths.size * 100:.1f}% contended | "
          f"{lossy / lengths.size * 100:.2f}% lossy")
    contention = runs["contention_mean"]
    print(f"per-run average contention: median "
          f"{percentile(contention, 50):.2f}, p90 {percentile(contention, 90):.2f}")


if __name__ == "__main__":
    main()
