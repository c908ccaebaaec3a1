"""Rack-level aggregation and classification (Section 7.1, 8.1).

The paper splits RegA's bimodal distribution into **RegA-High** (the
~20% of racks with busy-hour average contention above ~7.5, all dense
ML placements) and **RegA-Typical** (the rest).  Classification here
uses a contention threshold on the busy-hour (or whole-day) per-rack
average, with the paper's gap — the distribution is bimodal, so any
threshold inside the gap yields the same split.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import AnalysisError


class RackClass(enum.Enum):
    """The paper's two RegA rack classes (Section 7.1)."""

    TYPICAL = "RegA-Typical"
    HIGH = "RegA-High"


#: Default split point: inside the bimodal gap (paper: 75% of racks
#: below 2.2, top 20% above 7.5 during the busy hour).
DEFAULT_CONTENTION_SPLIT = 4.5


@dataclass
class RackProfile:
    """Per-rack aggregates across its runs (folded from the run table by
    :class:`~repro.analysis.streaming.RackProfileAccumulator`)."""

    rack: str
    region: str
    mean_contention: float
    min_contention: float  # min over runs of per-run average
    max_contention: float  # max over runs of per-run average
    runs: int
    distinct_tasks: int
    dominant_share: float
    colocated: bool
    total_discard_bytes: float
    total_ingress_bytes: float

    @property
    def contention_range(self) -> float:
        return self.max_contention - self.min_contention

    @property
    def normalized_discards(self) -> float:
        """Discarded bytes per ingress byte (Figure 17's metric)."""
        if self.total_ingress_bytes == 0:
            return 0.0
        return self.total_discard_bytes / self.total_ingress_bytes


def classify_racks(
    profiles: list[RackProfile],
    split: float = DEFAULT_CONTENTION_SPLIT,
) -> dict[RackClass, list[RackProfile]]:
    """Split rack profiles into Typical/High by mean contention."""
    if not profiles:
        raise AnalysisError("no rack profiles to classify")
    result: dict[RackClass, list[RackProfile]] = {
        RackClass.TYPICAL: [],
        RackClass.HIGH: [],
    }
    for profile in profiles:
        bucket = RackClass.HIGH if profile.mean_contention >= split else RackClass.TYPICAL
        result[bucket].append(profile)
    return result
