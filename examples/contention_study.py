#!/usr/bin/env python3
"""Region-scale contention study on the fleet model.

Generates a small synthetic region-day per the paper's Section 5 setup
(SyncMillisampler runs across racks, 1 ms sampling), then walks the
Section 7 analysis: contention across racks, its persistence over the
day, and the per-run buffer-share swings — printing CDFs and the
headline statistics next to the paper's numbers.

Run:  python examples/contention_study.py [racks-per-region]
"""

import sys
import tempfile

import numpy as np

from repro.analysis.contention import buffer_share_drop
from repro.analysis.racks import classify_racks, RackClass
from repro.config import FleetConfig
from repro.fleet.shards import generate_region_shards
from repro.viz.ascii import ascii_cdf
from repro.workload.region import REGION_A


def main() -> None:
    racks = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    config = FleetConfig(racks_per_region=racks, runs_per_rack=8, seed=42)
    print(f"Generating RegA: {racks} racks x {config.runs_per_rack} runs "
          f"(92 servers each, ~1.85 s at 1 ms)...")
    with tempfile.TemporaryDirectory() as store_dir:
        dataset = generate_region_shards(REGION_A, config, store_dir)
        table1 = dataset.table1_row()
        profiles = dataset.rack_profiles()
        runs = dataset.run_contention()
    print(f"  {table1.runs} rack runs, {table1.bursts:,} bursts\n")

    # --- Figure 9 view: contention across racks --------------------------
    contention = np.array([p.mean_contention for p in profiles])
    print(ascii_cdf(
        {"RegA racks": contention},
        x_label="day-mean avg contention",
        title="Average contention across racks (cf. Figure 9: bimodal)",
        height=12,
    ))

    classes = classify_racks(profiles)
    typical = classes[RackClass.TYPICAL]
    high = classes[RackClass.HIGH]
    print(f"\nRack classes: {len(typical)} typical, {len(high)} high "
          f"(paper: 80% / 20%)")
    if high:
        gap = np.mean([p.mean_contention for p in high]) / max(
            np.mean([p.mean_contention for p in typical]), 1e-9
        )
        print(f"High-to-typical contention gap: {gap:.1f}x (paper 3.4x)")
        ml_dense = sum(1 for p in high if p.dominant_share >= 0.55)
        print(f"High racks with one task on >=55% of servers: "
              f"{ml_dense}/{len(high)} (paper: ML co-location)")

    # --- Figure 12 view: persistence over the day ------------------------
    if high:
        high_mins = min(p.min_contention for p in high)
        typical_p75 = np.percentile([p.mean_contention for p in typical], 75)
        print(f"\nPersistence: lowest run-average on any high rack is "
              f"{high_mins:.1f}, vs typical-rack p75 {typical_p75:.1f} — "
              f"{'non-overlapping' if high_mins > typical_p75 else 'overlapping'} "
              f"(paper: well separated)")

    # --- Figure 15 view: within-run buffer swings -------------------------
    # Runs with any bursty sample.  On a mostly idle run the p90 (over
    # every sample) can land below the minimum over active samples; its
    # share then does not drop.
    drops_arr = np.array([
        buffer_share_drop(low, max(p90, low))
        for low, p90 in zip(runs.mins.tolist(), runs.p90s.tolist())
    ])
    print(f"\nPer-run buffer-share drop between calmest and p90 contention:")
    print(f"  median {np.median(drops_arr) * 100:.1f}% (paper 33.3%), "
          f">=70% drop in {np.mean(drops_arr >= 0.7) * 100:.1f}% of runs "
          f"(paper 15%)")


if __name__ == "__main__":
    main()
