"""Calibration harness: is the synthesis still inside the paper's bands?

The fluid model's service catalog and demand parameters were tuned so
the synthetic fleet lands near the paper's aggregate statistics.  This
module makes that tuning testable: :data:`PAPER_TARGETS` records the
published values with acceptance bands, :func:`measure` computes the
same statistics from a fresh synthesis, and :func:`check` reports what
moved out of band — the regression guard that keeps future parameter
changes honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workload.region import REGION_A, build_region_workloads
from ..analysis.summary import run_rows
from ..errors import AnalysisError
from .rackrun import RackRunSynthesizer
from .shards import RegionDataset


@dataclass(frozen=True)
class Target:
    """One published statistic with an acceptance band."""

    name: str
    paper_value: float
    low: float
    high: float

    def holds(self, measured: float) -> bool:
        return self.low <= measured <= self.high


#: The Section 6-8 statistics the synthesis is calibrated against.
#: Bands are deliberately wide — shape fidelity, not curve fitting.
PAPER_TARGETS: tuple[Target, ...] = (
    Target("bursty_server_run_fraction", 0.34, 0.2, 0.55),
    Target("median_burst_length_ms", 2.0, 1.0, 4.0),
    Target("median_burst_volume_mb", 1.8, 0.8, 3.5),
    Target("conn_ratio_inside_outside", 2.7, 1.5, 4.5),
    Target("outside_burst_utilization", 0.055, 0.02, 0.12),
    Target("rega_typical_lossy_pct", 1.05, 0.3, 2.5),
    Target("rega_coloc_lossy_pct", 0.36, 0.05, 1.0),
    Target("loss_inversion_ratio", 2.9, 1.3, 8.0),
    Target("rega_typical_contended_pct", 70.9, 55.0, 90.0),
    Target("rega_coloc_contended_pct", 100.0, 90.0, 100.0),
)


@dataclass
class CalibrationReport:
    """Measured statistics plus per-target verdicts."""

    measured: dict[str, float]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = ["calibration report:"]
        for target in PAPER_TARGETS:
            value = self.measured.get(target.name, float("nan"))
            status = "ok " if target.holds(value) else "OUT"
            lines.append(
                f"  [{status}] {target.name}: measured {value:.3g} "
                f"(paper {target.paper_value:g}, band {target.low:g}-{target.high:g})"
            )
        return "\n".join(lines)


def measure(racks: int = 20, hour: int = 6, seed: int = 7) -> dict[str, float]:
    """Synthesize a busy-hour RegA slice and compute the calibration
    statistics (RegB enters only through the loss-inversion targets'
    generality; RegA carries both rack classes)."""
    if racks < 6:
        raise AnalysisError("calibration needs enough racks for both classes")
    rng = np.random.default_rng(seed)
    synthesizer = RackRunSynthesizer()
    workloads = build_region_workloads(REGION_A, racks=racks, rng=rng)

    rows = [run_rows(synthesizer.synthesize(workload, hour, rng).stacked()) for workload in workloads]
    # One run per rack, so rack ids are run indices.
    dataset = RegionDataset.from_rows(REGION_A.name, rows, range(len(rows)), workloads)
    bursts = dataset.columns("bursts", ("rack_id", "length", "volume", "max_contention", "lossy"))
    servers = dataset.columns(
        "servers", ("bursty", "utilization_outside_bursts", "conns_inside", "conns_outside")
    )
    bursty = servers["bursty"] > 0
    outside_util = servers["utilization_outside_bursts"][bursty]
    outside_util = outside_util[np.isfinite(outside_util)]
    inside, outside = servers["conns_inside"][bursty], servers["conns_outside"][bursty]
    with_ratio = np.isfinite(inside) & np.isfinite(outside) & (outside > 0)
    conn_ratios = inside[with_ratio] / outside[with_ratio]

    colocated = np.array([workload.colocated for workload in workloads])
    burst_coloc = colocated[bursts["rack_id"].astype(np.int64)]
    contended = bursts["max_contention"] >= 2
    lossy = bursts["lossy"] > 0

    def class_pcts(members: np.ndarray) -> tuple[float, float]:
        """The lossy and the contended share of one class's bursts, in %."""
        count = int(np.count_nonzero(members))
        if not count:
            return 0.0, 0.0
        return (
            int(np.count_nonzero(members & lossy)) / count * 100,
            int(np.count_nonzero(members & contended)) / count * 100,
        )

    spread_lossy, spread_contended = class_pcts(~burst_coloc)
    coloc_lossy, coloc_contended = class_pcts(burst_coloc)

    def median(values: np.ndarray) -> float:
        return float(np.median(values)) if values.size else 0.0

    return {
        "bursty_server_run_fraction": (
            int(np.count_nonzero(bursty)) / bursty.size if bursty.size else 0.0
        ),
        "median_burst_length_ms": median(bursts["length"]),
        "median_burst_volume_mb": median(bursts["volume"]) / 1e6,
        "conn_ratio_inside_outside": median(conn_ratios),
        "outside_burst_utilization": median(outside_util),
        "rega_typical_lossy_pct": spread_lossy,
        "rega_coloc_lossy_pct": coloc_lossy,
        "loss_inversion_ratio": spread_lossy / coloc_lossy if coloc_lossy else float("inf"),
        "rega_typical_contended_pct": spread_contended,
        "rega_coloc_contended_pct": coloc_contended,
    }


def check(racks: int = 20, hour: int = 6, seed: int = 7) -> CalibrationReport:
    """Measure and compare against every target."""
    measured = measure(racks=racks, hour=hour, seed=seed)
    failures = [
        target.name
        for target in PAPER_TARGETS
        if not target.holds(measured.get(target.name, float("nan")))
    ]
    return CalibrationReport(measured=measured, failures=failures)
