"""Tests for the dataset-driven experiments, on one shared small dataset.

These assert the paper's *qualitative* claims hold in the synthesis:
the RegA bimodality, the persistence of rack classes, the loss
inversion, and the burst-property/loss shapes.  Absolute numbers are
checked only loosely (the dataset here is tiny).
"""

import hashlib
import math

import pytest

from repro.analysis.stats import BoxStats
from repro.experiments import (
    fig06_burst_frequency,
    fig07_burst_length,
    fig08_connections,
    fig09_contention_cdf,
    fig10_task_diversity,
    fig11_dominant_task,
    fig12_rack_variation,
    fig13_diurnal,
    fig14_volume_correlation,
    fig15_run_variation,
    fig16_contention_loss,
    fig17_switch_discards,
    fig18_length_loss,
    fig19_incast_loss,
    implication_placement,
    table1_dataset,
    table2_burst_summary,
)

# Each experiment runs once per module on the session-scoped context.


@pytest.fixture(scope="module")
def results(small_ctx):
    return {
        "fig6": fig06_burst_frequency.run(small_ctx),
        "fig7": fig07_burst_length.run(small_ctx),
        "fig8": fig08_connections.run(small_ctx),
        "fig9": fig09_contention_cdf.run(small_ctx),
        "fig10": fig10_task_diversity.run(small_ctx),
        "fig11": fig11_dominant_task.run(small_ctx),
        "fig12": fig12_rack_variation.run(small_ctx),
        "fig13": fig13_diurnal.run(small_ctx),
        "fig14": fig14_volume_correlation.run(small_ctx),
        "fig15": fig15_run_variation.run(small_ctx),
        "fig16": fig16_contention_loss.run(small_ctx),
        "fig17": fig17_switch_discards.run(small_ctx),
        "fig18": fig18_length_loss.run(small_ctx),
        "fig19": fig19_incast_loss.run(small_ctx),
        "table1": table1_dataset.run(small_ctx),
        "table2": table2_burst_summary.run(small_ctx),
    }


class TestBurstCharacterization:
    def test_fig6_burst_frequency_band(self, results):
        median = results["fig6"].metric("median_bursts_per_sec")
        assert 3 <= median <= 30  # paper 7.5
        assert results["fig6"].metric("p90_bursts_per_sec") > median

    def test_fig6_bursty_fraction_band(self, results):
        fraction = results["fig6"].metric("bursty_server_run_fraction")
        assert 0.15 <= fraction <= 0.6  # paper 0.34

    def test_fig6_utilization_contrast(self, results):
        inside = results["fig6"].metric("median_in_burst_utilization")
        outside = results["fig6"].metric("median_outside_burst_utilization")
        assert inside > 0.5
        assert outside < 0.15

    def test_fig7_length_band(self, results):
        assert 1 <= results["fig7"].metric("median_length_ms") <= 4  # paper 2
        assert results["fig7"].metric("p90_length_ms") <= 16  # paper 8

    def test_fig7_non_contended_shorter(self, results):
        assert results["fig7"].metric("non_contended_under_3ms_pct") >= 70  # paper 88

    def test_fig7_non_contended_smaller(self, results):
        assert (
            results["fig7"].metric("nc_median_volume_mb")
            <= results["fig7"].metric("median_volume_mb")
        )

    def test_fig8_more_connections_inside(self, results):
        assert results["fig8"].metric("median_ratio") > 1.5  # paper 2.7


class TestContentionCharacterization:
    def test_fig9_rega_bimodal(self, results):
        gap = results["fig9"].metric("bimodal_gap_ratio")
        assert gap > 2.0  # paper 3.4x

    def test_fig9_regb_above_rega_typical(self, results):
        assert (
            results["fig9"].metric("regb_median")
            > results["fig9"].metric("rega_bottom75_mean") * 0.8
        )

    def test_fig10_high_racks_fewer_tasks(self, results):
        assert (
            results["fig10"].metric("median_tasks_RegA-High")
            < results["fig10"].metric("median_tasks_RegA-Typical")
        )

    def test_fig11_dominant_share_separation(self, results):
        assert results["fig11"].metric("high_median_share_pct") >= 55
        assert results["fig11"].metric("typical_median_share_pct") <= 45

    def test_fig12_high_racks_persistent(self, results):
        persistence = results["fig12"].metrics.get("RegA_high_min_over_low_p75", 0.0)
        assert persistence >= 0.5  # most high racks never dip into the low band

    def test_fig13_diurnal_peak(self, results):
        assert results["fig13"].metric("rega_high_peak_increase") > 0.05  # paper 0.276

    def test_fig14_volume_correlates(self, results):
        assert results["fig14"].metric("pearson_r") > 0.3

    def test_fig15_share_drop_median(self, results):
        drop = results["fig15"].metric("median_share_drop")
        assert 0.2 <= drop <= 0.7  # paper 0.333


class TestLossAnalysis:
    def test_table2_loss_inversion(self, results):
        """The paper's headline: RegA-Typical lossier than RegA-High."""
        typical = results["table2"].metric("lossy_pct_RegA-Typical")
        high = results["table2"].metric("lossy_pct_RegA-High")
        assert typical > high

    def test_table2_high_racks_all_contended(self, results):
        assert results["table2"].metric("contended_pct_RegA-High") >= 95  # paper 100

    def test_table2_most_bursts_contended(self, results):
        assert results["table2"].metric("overall_contended_pct") >= 60  # paper 91.4

    def test_table2_high_racks_overrepresented_in_bursts(self, results):
        """20% of racks produce ~half the bursts (paper 47.8%)."""
        assert results["table2"].metric("rega_high_burst_share") >= 0.3

    def test_fig16_inversion_at_low_contention(self, results):
        typical_low = results["fig16"].metric("typical_loss_at_contention_le5")
        high_overall = results["fig16"].metric("high_loss_overall")
        assert typical_low > high_overall

    def test_fig17_switch_counters_agree(self, results):
        typical = results["fig17"].metrics.get(
            "median_discards_per_mb_RegA-Typical", 0.0
        )
        high = results["fig17"].metrics.get("median_discards_per_mb_RegA-High", 0.0)
        assert high <= typical

    def test_fig18_short_bursts_rarely_lose(self, results):
        assert results["fig18"].metric("short_burst_loss_pct") < 2.0

    def test_fig18_contended_lossier_at_length(self, results):
        assert results["fig18"].metric("contended_minus_nc_at_long") >= 0.0

    def test_fig19_contended_lossier_at_fanin(self, results):
        ratio = results["fig19"].metric("pooled_contended_to_nc_ratio")
        assert ratio > 1.0  # paper 3-4x


class TestDatasetAccounting:
    def test_table1_scales(self, results, small_ctx):
        expected_runs = small_ctx.fleet.racks_per_region * small_ctx.fleet.runs_per_rack
        assert results["table1"].metric("RegA_runs") == expected_runs
        assert results["table1"].metric("RegA_server_runs") == expected_runs * 92

    def test_table1_bursty_fraction_band(self, results):
        fraction = results["table1"].metric("RegA_bursty_fraction")
        assert 0.1 <= fraction <= 0.6


class TestColumnExperimentsPinned:
    """The eight experiments that read burst and server-run columns
    (figs 6/7/8/14/18/19, Table 2, implication-placement), pinned by a
    digest of every metric captured while they still read
    ``RunSummary`` objects: the column formulas must reproduce each
    value bit for bit.  Re-captured for sketch noise v2, which moved
    only fig8, fig19 and implication-placement, and for fig19's pooled
    (Mantel–Haenszel) ratio, which replaced its median of per-bucket
    ratios and left the other seven experiments' metrics unchanged."""

    METRICS_DIGEST = (
        "a50fc8acb30259d7502baaeee3c73b714e953b4d9a34d5b4275cc0983b03d6d3"
    )

    def test_metrics_digest_pinned(self, results, small_ctx):
        pinned = {
            name: results[name]
            for name in ("fig6", "fig7", "fig8", "fig14", "fig18", "fig19", "table2")
        }
        pinned["implication-placement"] = implication_placement.run(small_ctx)
        digest = hashlib.sha256()
        for name in sorted(pinned):
            for metric, value in sorted(pinned[name].metrics.items()):
                digest.update(f"{name}.{metric}={value!r};".encode())
        assert digest.hexdigest() == self.METRICS_DIGEST


class TestShardLoads:
    """table2, fig18 and fig19 read each table a region at a time; the
    object path re-read every shard once per RegA run to classify it."""

    def test_load_at_most_three_passes(self, tmp_path):
        from repro.config import FleetConfig
        from repro.experiments.context import ExperimentContext
        from repro.fleet.shards import RegionShardStore
        from repro.workload.region import REGION_A, REGION_B
        from tests.fleet.test_failfast import FastSynthesizer

        config = FleetConfig(racks_per_region=16, runs_per_rack=4, seed=11)
        shards = 0
        for spec in (REGION_A, REGION_B):
            store = RegionShardStore(
                root=str(tmp_path), spec=spec, config=config, shard_racks=4, shard_hours=12
            )
            shards += len(store.build(jobs=1, synthesizer=FastSynthesizer())["shards"])
        assert shards == 16
        ctx = ExperimentContext(
            fleet=config, store_dir=str(tmp_path), shard_racks=4, shard_hours=12
        )
        loads = {}
        for module in (table2_burst_summary, fig18_length_loss, fig19_incast_loss):
            before = ctx.metrics.counter("dataset.shards.loaded")
            module.run(ctx)
            loads[module] = ctx.metrics.counter("dataset.shards.loaded") - before
            assert loads[module] <= 3 * shards, f"{module.__name__} loaded {loads[module]} shards"
        # One bursts pass per region plus the RegA class split, the
        # 24 loads fig18 and fig19 take: no runs pass of its own.
        assert loads[table2_burst_summary] <= 24


class Fig13Ctx:
    """The two context calls fig13 makes, over fixed hourly boxes."""

    def __init__(self, high_racks, hours):
        self.high_racks = high_racks
        self.hours = hours

    def rega_high_racks(self):
        return self.high_racks

    def hourly_boxes(self, region, racks=None):
        return {hour: BoxStats.from_values([1.0 + hour]) for hour in self.hours}


class TestFig13SmallScale:
    """At scales too small for a class, fig13 reports nan with a note."""

    def test_no_high_racks(self):
        result = fig13_diurnal.run(Fig13Ctx(high_racks=set(), hours=[2, 6, 18]))
        assert math.isnan(result.metric("rega_high_peak_increase"))
        assert result.metric("regb_peak_increase") > 0
        assert "RegA-High has no racks" in result.notes

    def test_window_with_one_side_empty(self):
        result = fig13_diurnal.run(Fig13Ctx(high_racks={"r0"}, hours=[1, 2, 18]))
        assert math.isnan(result.metric("rega_high_peak_increase"))
        assert result.metric("regb_peak_increase") > 0
        assert "RegA-High has no sampled hour inside hours 4-10" in result.notes

    def test_real_small_context_is_ok(self):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.orchestrator import run_experiments

        ctx = ExperimentContext.small(racks=4, runs_per_rack=2, seed=11)
        (outcome,) = run_experiments(ctx, ["fig13"]).outcomes
        assert outcome.status == "ok", outcome.error


class TestEmptyRegion:
    """A region without runs: fig9, fig13 and fig16 all report that no
    run matched, instead of an unrelated error."""

    @pytest.mark.parametrize("racks,runs_per_rack", [(0, 2), (2, 0)])
    def test_fig9_fig13_fig16_report_no_matching_runs(self, racks, runs_per_rack):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.orchestrator import run_experiments

        ctx = ExperimentContext.small(racks=racks, runs_per_rack=runs_per_rack, seed=11)
        outcomes = run_experiments(ctx, ["fig9", "fig13", "fig16"]).outcomes
        assert [o.error for o in outcomes] == [
            "AnalysisError: no runs matched the requested hours"
        ] * 3
