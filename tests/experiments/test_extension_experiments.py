"""Tests for the extension experiments (crossval, gso, policy ablation)
and the CLI."""

import pytest

from repro.experiments import ablation_policies, crossval_fluid, gso_inflation
from repro.experiments.cli import main as cli_main
from repro.experiments.context import ExperimentContext
from tests.conftest import metrics_digest


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.small(racks=6, runs_per_rack=2)


class TestCrossValidation:
    def test_fluid_tracks_packet_level(self, ctx):
        result = crossval_fluid.run(ctx)
        # Shapes must agree: loss grows with contention on both sides,
        # and the absolute gap stays small.
        assert result.metric("packet_loss_s16") > result.metric("packet_loss_s1") * 0.99
        assert result.metric("fluid_loss_s16") > result.metric("fluid_loss_s1")
        assert result.metric("max_gap") < 0.06

    def test_both_substrates_lose_under_overload(self, ctx):
        result = crossval_fluid.run(ctx)
        assert result.metric("packet_loss_s8") > 0
        assert result.metric("fluid_loss_s8") > 0


class TestGsoInflation:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return gso_inflation.run(ctx)

    def test_fine_buckets_alias_most(self, result):
        assert (
            result.metric("peak_utilization_100us")
            > result.metric("peak_utilization_1ms")
        )
        assert result.metric("peak_utilization_100us") > 1.0

    def test_coarse_buckets_near_line_rate(self, result):
        assert result.metric("peak_utilization_10ms") < 1.1

    def test_peaks_pinned(self, result):
        """The experiment draws its own generator (seed 0), so its peaks
        are exact: a sampler change that moves a counted byte moves
        them."""
        assert result.metrics == {
            "peak_utilization_10ms": 1.035993088,
            "peak_utilization_1ms": 1.13246208,
            "peak_utilization_100us": 1.2582912,
        }


class TestPolicyAblation:
    def test_dynamic_beats_static_on_spread_racks(self, ctx):
        result = ablation_policies.run(ctx)
        assert (
            result.metric("spread_loss_dynamic-threshold")
            <= result.metric("spread_loss_static-partition")
        )

    def test_all_policies_evaluated(self, ctx):
        result = ablation_policies.run(ctx)
        for name in ("dynamic-threshold", "static-partition", "complete-sharing",
                     "enhanced-dt", "flow-aware"):
            assert f"spread_loss_{name}" in result.metrics
            assert f"coloc_loss_{name}" in result.metrics


class TestFabricSmoothing:
    def test_fabric_absorbs_what_the_tor_drops(self, ctx):
        from repro.experiments import fabric_smoothing

        result = fabric_smoothing.run(ctx)
        assert (
            result.metric("fabric_tor_discards")
            < result.metric("direct_tor_discards")
        )
        assert result.metric("span_stretch") > 1.5

    def test_direct_fanin_overflows_tor(self, ctx):
        from repro.experiments import fabric_smoothing

        result = fabric_smoothing.run(ctx)
        assert result.metric("direct_tor_discards") > 0.1


class TestThresholdAblation:
    #: Every metric at this module's ``ctx``, captured while the
    #: experiment still reduced its runs to summary objects.
    METRICS_DIGEST = "bc1eed7eb0c8020b43ae606b8fc54e59c662b6d61aef74631bf6e17ab2dd836b"

    def test_metrics_pinned(self, ctx):
        from repro.experiments import ablation_threshold

        result = ablation_threshold.run(ctx)
        assert metrics_digest(result.metrics) == self.METRICS_DIGEST, result.metrics

    def test_inversion_robust_across_thresholds(self, ctx):
        from repro.experiments import ablation_threshold

        result = ablation_threshold.run(ctx)
        for threshold in (30, 50, 70):
            assert result.metric(f"inversion_holds_{threshold}pct") == 1.0

    def test_higher_threshold_fewer_bursts(self, ctx):
        from repro.experiments import ablation_threshold

        result = ablation_threshold.run(ctx)
        # Fewer samples exceed a higher cut, but contended fraction
        # stays in the same regime.
        assert (
            abs(
                result.metric("contended_fraction_50pct")
                - result.metric("contended_fraction_70pct")
            )
            < 0.25
        )


class TestSketchAblation:
    def test_precise_to_a_dozen_and_saturates(self, ctx):
        from repro.experiments import ablation_sketch

        result = ablation_sketch.run(ctx)
        assert result.metric("rel_error_at_12") < 0.15
        assert 400 < result.metric("mean_estimate_at_800") < 700

    def test_fleet_noise_model_matches_real_sketch(self, ctx):
        """The binomial approximation the fleet synthesis uses must
        mean-match the true sketch across the operating range."""
        from repro.experiments import ablation_sketch

        result = ablation_sketch.run(ctx)
        assert result.metric("max_fleet_model_gap") < 0.05


class TestFig15EdgeCases:
    def test_mostly_idle_run_does_not_crash(self):
        """Percentile interpolation can put a run's p90 contention just
        below its minimum over active samples; the buffer-share drop is
        then zero, not an error."""
        from repro.analysis.contention import ContentionStats
        from tests.analysis.summary_reference import RunSummary
        from repro.experiments import fig15_run_variation
        from repro.experiments.context import ExperimentContext

        summary = RunSummary(
            rack="r0", region="RegA", hour=6, servers=4, buckets=100,
            sampling_interval=1e-3,
            contention=ContentionStats(
                mean=0.2, min_active=2.0, p90=1.8, max=3.0, frac_zero=0.9
            ),
            bursts=[], server_stats=[],
            switch_discard_bytes=0, switch_ingress_bytes=1,
        )

        class FakeCtx:
            def run_contention(self, region):
                from tests.analysis.streaming_reference import run_contention_from_summaries

                return run_contention_from_summaries([summary])

        result = fig15_run_variation.run(FakeCtx())
        assert result.metric("median_share_drop") == 0.0


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table2" in out and "crossval" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["run", "fig99"]) == 2

    def test_run_writes_outputs(self, tmp_path, capsys):
        code = cli_main(
            ["run", "fig1", "--racks", "4", "--runs-per-rack", "2",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.txt").exists()

    def test_export_then_analyze(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        assert cli_main(["export", out, "--racks", "2", "--runs-per-rack", "1"]) == 0
        assert cli_main(["analyze", out]) == 0
        report = capsys.readouterr().out
        assert "bursts" in report
        assert "contended" in report
