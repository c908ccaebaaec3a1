"""Object-based placement scores: the ``==`` oracle for the column
scorer :func:`repro.analysis.placement_metrics.score_racks`.

These are the historical per-``RunSummary`` loops; the column scorer
must reproduce every value bit for bit.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.errors import AnalysisError
from tests.analysis.summary_reference import RunSummary


def volume_score(summaries: list[RunSummary]) -> float:
    """Mean per-minute ingress gigabytes across a rack's runs."""
    if not summaries:
        raise AnalysisError("no runs")
    rates = [
        s.switch_ingress_bytes / s.duration_s * 60 / 1e9
        for s in summaries
        if s.duration_s > 0
    ]
    return float(np.mean(rates)) if rates else 0.0


def contention_score(summaries: list[RunSummary]) -> float:
    """Mean average contention across a rack's runs."""
    if not summaries:
        raise AnalysisError("no runs")
    return float(np.mean([s.contention.mean for s in summaries]))


def burst_risk_score(
    summaries: list[RunSummary],
    length_band_ms: tuple[float, float] = (3.0, 12.0),
    fanin_floor: float = 30.0,
) -> float:
    """Fraction of burst volume in the loss-prone regime.

    Section 8.3 locates losses in contended bursts of intermediate
    length (6-10 ms) with high connection counts (50-60); the band here
    is set slightly wider.  A burst contributes its volume to the risk
    numerator when it is (i) contended, (ii) of intermediate length,
    and (iii) high fan-in — the slow-start incast signature.
    """
    if not summaries:
        raise AnalysisError("no runs")
    risky = 0.0
    total = 0.0
    for summary in summaries:
        ms = summary.sampling_interval / 1e-3
        for burst in summary.bursts:
            total += burst.volume
            length = burst.length * ms
            if (
                burst.contended
                and length_band_ms[0] <= length <= length_band_ms[1]
                and burst.avg_connections >= fanin_floor
            ):
                risky += burst.volume
    return risky / total if total else 0.0


def realized_loss(summaries: list[RunSummary]) -> float:
    """Ground truth: the rack's lossy-burst fraction."""
    bursts = sum(len(s.bursts) for s in summaries)
    lossy = sum(1 for s in summaries for b in s.bursts if b.lossy)
    return lossy / bursts if bursts else 0.0


def score_racks(
    summaries: list[RunSummary],
) -> dict[str, dict[str, float]]:
    """All candidate scores plus realized loss, per rack."""
    grouped: dict[str, list[RunSummary]] = defaultdict(list)
    for summary in summaries:
        grouped[summary.rack].append(summary)
    if not grouped:
        raise AnalysisError("no runs to score")
    return {
        rack: {
            "volume": volume_score(runs),
            "contention": contention_score(runs),
            "burst_risk": burst_risk_score(runs),
            "realized_loss": realized_loss(runs),
        }
        for rack, runs in grouped.items()
    }
