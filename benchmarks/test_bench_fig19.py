"""Benchmark — Figure 19: loss rate vs burst connection count.

Regenerates the paper artifact on the cached benchmark dataset and
reports how long the analysis takes.
"""

from repro.experiments import fig19_incast_loss as experiment


def test_bench_fig19(benchmark, bench_ctx):
    result = benchmark(experiment.run, bench_ctx)
    assert result.metric("pooled_contended_to_nc_ratio") >= 0
