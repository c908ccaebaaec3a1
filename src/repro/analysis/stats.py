"""Statistical helpers: CDFs, percentiles, box statistics.

Everything the figures need, in one place, with consistent conventions:
CDF y-values are *percentages* (0-100), matching the paper's axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


def cdf(values: np.ndarray | list) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative percentage).

    ``plot(x, y)`` of the result reproduces the paper's "% of X" axes.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise AnalysisError("cannot build a CDF of nothing")
    ordered = np.sort(array)
    percent = np.arange(1, ordered.size + 1) / ordered.size * 100.0
    return ordered, percent


def running_sum(values: np.ndarray) -> float:
    """``total = 0.0; for v in values: total += v``, bit for bit.

    ``np.sum`` adds pairwise, so it can differ from the loop in the last
    bits; ``np.cumsum`` adds left to right like the loop.
    """
    return float(np.cumsum(np.append(0.0, values))[-1])


def percentile(values: np.ndarray | list, q: float) -> float:
    """The q-th percentile (q in [0, 100])."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise AnalysisError("cannot take a percentile of nothing")
    if not 0 <= q <= 100:
        raise AnalysisError("percentile must be in [0, 100]")
    return float(np.percentile(array, q))


def cdf_value_at(values: np.ndarray | list, threshold: float) -> float:
    """Fraction (0-100%) of values <= ``threshold``."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise AnalysisError("cannot evaluate a CDF of nothing")
    return float((array <= threshold).mean() * 100.0)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary for box plots (Figure 13)."""

    low_whisker: float
    q1: float
    median: float
    q3: float
    high_whisker: float
    mean: float
    count: int

    @classmethod
    def from_values(cls, values: np.ndarray | list) -> "BoxStats":
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            raise AnalysisError("cannot summarize nothing")
        q1, median, q3 = np.percentile(array, [25, 50, 75])
        iqr = q3 - q1
        low = float(array[array >= q1 - 1.5 * iqr].min())
        high = float(array[array <= q3 + 1.5 * iqr].max())
        return cls(
            low_whisker=low,
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            high_whisker=high,
            mean=float(array.mean()),
            count=int(array.size),
        )


def box_stats(values: np.ndarray | list) -> BoxStats:
    """Convenience wrapper over :meth:`BoxStats.from_values`."""
    return BoxStats.from_values(values)


def bucket_means(
    x: np.ndarray | list, y: np.ndarray | list, edges: np.ndarray | list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``y`` by which ``edges``-bucket ``x`` falls into.

    Returns (bucket centers, mean of y per bucket, count per bucket);
    empty buckets yield NaN means.  Used by the scatter-to-trend
    figures (14, 16, 18, 19).
    """
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    edge_arr = np.asarray(edges, dtype=np.float64)
    if x_arr.shape != y_arr.shape:
        raise AnalysisError("x and y must align")
    if edge_arr.size < 2:
        raise AnalysisError("need at least two bucket edges")
    indices = np.digitize(x_arr, edge_arr) - 1
    buckets = edge_arr.size - 1
    means = np.full(buckets, np.nan)
    counts = np.zeros(buckets, dtype=np.int64)
    for b in range(buckets):
        mask = indices == b
        counts[b] = int(mask.sum())
        if counts[b] > 0:
            means[b] = float(y_arr[mask].mean())
    centers = 0.5 * (edge_arr[:-1] + edge_arr[1:])
    return centers, means, counts


def pearson_correlation(x: np.ndarray | list, y: np.ndarray | list) -> float:
    """Pearson's r, guarding degenerate inputs."""
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.size != y_arr.size or x_arr.size < 2:
        raise AnalysisError("correlation needs two aligned samples of size >= 2")
    if np.std(x_arr) == 0 or np.std(y_arr) == 0:
        return 0.0
    return float(np.corrcoef(x_arr, y_arr)[0, 1])
