"""Diurnal aggregation (Figures 12 and 13).

Figure 13's per-hour boxes of per-run average contention are the
store's ``hourly_boxes`` view
(:class:`~repro.analysis.streaming.HourlyBoxAccumulator`); this module
compares their means inside and outside the paper's peak window.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError


def peak_window_increase(
    means: dict[int, float], window: tuple[int, int] = (4, 10)
) -> float:
    """Relative contention increase inside an hour window versus outside
    (Section 7.2: 27.6% between hours 4 and 10 for RegA-High)."""
    if not means:
        raise AnalysisError("no hourly means")
    inside = [value for hour, value in means.items() if window[0] <= hour <= window[1]]
    outside = [value for hour, value in means.items() if not window[0] <= hour <= window[1]]
    if not inside or not outside:
        raise AnalysisError("window leaves one side empty")
    outside_mean = float(np.mean(outside))
    if outside_mean == 0:
        return 0.0
    return (float(np.mean(inside)) - outside_mean) / outside_mean
