#!/usr/bin/env python3
"""Diurnal study: how contention tracks the daily load curve (Section 7.2).

Generates a compact RegA day, classifies racks, and renders the hourly
contention box plots of Figure 13 plus the contention-vs-volume
relationship of Figure 14 — showing that diurnal effects are real but
secondary to placement (the same racks stay high or low all day).

Run:  python examples/diurnal_study.py [racks]
"""

import sys
import tempfile

import numpy as np

from repro.analysis.diurnal import peak_window_increase
from repro.analysis.racks import RackClass, classify_racks
from repro.analysis.stats import pearson_correlation
from repro.config import FleetConfig
from repro.errors import AnalysisError
from repro.fleet.shards import generate_region_shards
from repro.viz.ascii import ascii_boxplot
from repro.workload.region import REGION_A


def main() -> None:
    racks = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    config = FleetConfig(racks_per_region=racks, runs_per_rack=10, seed=11)
    print(f"Generating a RegA day: {racks} racks x 10 runs...")
    with tempfile.TemporaryDirectory() as store_dir:
        dataset = generate_region_shards(REGION_A, config, store_dir)
        profiles = dataset.rack_profiles()
        classes = classify_racks(profiles)
        high_racks = {p.rack for p in classes[RackClass.HIGH]}
        boxes = dataset.hourly_boxes(racks=high_racks) if high_racks else {}
        runs = dataset.columns(
            "runs", ("buckets", "sampling_interval", "switch_ingress_bytes", "contention_mean")
        )
    print(f"{len(high_racks)} high-contention racks "
          f"of {len(profiles)} (paper: ~20%)\n")

    if high_racks:
        print(ascii_boxplot(
            {f"h{hour:02d}": stats for hour, stats in boxes.items()},
            title="RegA-High: contention by hour (cf. Figure 13 top)",
        ))
        means = {hour: stats.mean for hour, stats in boxes.items()}
        try:
            increase = peak_window_increase(means, window=(4, 10))
            print(f"\nhours 4-10 vs rest: {increase * +100:.1f}% "
                  f"(paper: +27.6%)")
        except AnalysisError:
            pass

    # Figure 14: contention vs per-minute ingress volume.
    duration_s = runs["buckets"] * runs["sampling_interval"]
    sampled = duration_s > 0
    volumes = runs["switch_ingress_bytes"][sampled] / duration_s[sampled] * 60
    r = pearson_correlation(volumes, runs["contention_mean"][sampled])
    print(f"\ncontention vs per-minute rack ingress: Pearson r = {r:.2f} "
          f"(paper: clear but loose positive correlation)")

    # Persistence: the paper's larger point.
    if high_racks:
        high_mins = [p.min_contention for p in classes[RackClass.HIGH]]
        typical_means = [p.mean_contention for p in classes[RackClass.TYPICAL]]
        print(f"\npersistence: min run-average on high racks "
              f"{min(high_mins):.1f} vs typical-rack p75 "
              f"{np.percentile(typical_means, 75):.1f} — diurnal swings do "
              f"not move racks between classes (Figure 12).")


if __name__ == "__main__":
    main()
