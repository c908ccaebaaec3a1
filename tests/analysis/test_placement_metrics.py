"""Tests for the Section 9 placement-metric candidates.

Hand-made summaries reach the column scorer through the shard encoder,
the same tables a store holds; on real stores the scorer must equal the
object-based oracle in ``placement_reference`` exactly.
"""

import pytest

from repro.analysis.contention import ContentionStats
from repro.analysis.placement_metrics import (
    SCORE_BURST_COLUMNS,
    SCORE_RUN_COLUMNS,
    rank_correlation,
    score_racks,
)
from repro.config import FleetConfig
from repro.errors import AnalysisError
from repro.fleet.shards import TABLES, generate_region_shards
from repro.workload.region import REGION_A
from tests.analysis.summary_reference import Burst, RunSummary
from tests.fleet.dataset_reference import decode_summaries, encode_tables

from . import placement_reference


def make_summary(rack="r0", bursts=None, ingress=1e9, mean_contention=1.0):
    return RunSummary(
        rack=rack,
        region="RegA",
        hour=6,
        servers=4,
        buckets=1000,
        sampling_interval=1e-3,
        contention=ContentionStats(
            mean=mean_contention, min_active=1, p90=2, max=3, frac_zero=0.5
        ),
        bursts=bursts or [],
        server_stats=[],
        switch_discard_bytes=0.0,
        switch_ingress_bytes=ingress,
    )


def make_burst(length=5, conns=50.0, contention=3, lossy=False, volume=1e6):
    burst = Burst(
        server=0, start=0, length=length, volume=volume, avg_connections=conns,
        lossy=lossy,
    )
    burst.max_contention = contention
    return burst


def scores_of(summaries):
    """score_racks over the shard tables of ``summaries``."""
    names = sorted({summary.rack for summary in summaries})
    tables = encode_tables(summaries, [names.index(s.rack) for s in summaries])
    columns = {
        kind: {name: tables[kind][:, TABLES[kind].index(name)] for name in wanted}
        for kind, wanted in (("runs", SCORE_RUN_COLUMNS), ("bursts", SCORE_BURST_COLUMNS))
    }
    return score_racks(names, columns["runs"], columns["bursts"])


class TestScores:
    def test_volume_score_per_minute(self):
        summary = make_summary(ingress=2e9)  # over 1 s
        assert scores_of([summary])["r0"]["volume"] == pytest.approx(120.0)  # GB/min

    def test_contention_score_mean(self):
        summaries = [make_summary(mean_contention=1.0), make_summary(mean_contention=3.0)]
        assert scores_of(summaries)["r0"]["contention"] == 2.0

    def test_burst_risk_selects_the_loss_regime(self):
        risky = make_burst(length=6, conns=55, contention=4)
        safe_short = make_burst(length=1, conns=55, contention=4)
        safe_fanin = make_burst(length=6, conns=5, contention=4)
        safe_uncontended = make_burst(length=6, conns=55, contention=1)
        summary = make_summary(
            bursts=[risky, safe_short, safe_fanin, safe_uncontended]
        )
        assert scores_of([summary])["r0"]["burst_risk"] == pytest.approx(0.25)

    def test_realized_loss(self):
        summary = make_summary(bursts=[make_burst(lossy=True), make_burst()])
        assert scores_of([summary])["r0"]["realized_loss"] == 0.5

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            scores_of([])

    def test_score_racks_groups(self):
        scores = scores_of([make_summary(rack="a"), make_summary(rack="b")])
        assert set(scores) == {"a", "b"}
        assert set(scores["a"]) == {"volume", "contention", "burst_risk", "realized_loss"}


class TestRankCorrelation:
    def test_perfect_monotone(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_monotone_nonlinear_still_perfect(self):
        assert rank_correlation([1, 2, 3, 4], [1, 100, 101, 1e6]) == pytest.approx(1.0)

    def test_ties_handled(self):
        rho = rank_correlation([1, 1, 2, 3], [5, 5, 6, 7])
        assert 0.9 <= rho <= 1.0

    def test_constant_is_zero(self):
        assert rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_too_small_rejected(self):
        with pytest.raises(AnalysisError):
            rank_correlation([1, 2], [1, 2])


def dataset_scores(dataset):
    return score_racks(
        dataset.rack_names,
        dataset.columns("runs", SCORE_RUN_COLUMNS),
        dataset.columns("bursts", SCORE_BURST_COLUMNS),
    )


class TestOnDataset:
    def test_burst_risk_predicts_loss_best(self, small_ctx):
        """The Section 9 claim: the combined metric outperforms plain
        contention and volume at predicting rack loss."""
        scores = dataset_scores(small_ctx.dataset("RegA"))
        racks = sorted(scores)
        losses = [scores[r]["realized_loss"] for r in racks]
        rho_risk = rank_correlation([scores[r]["burst_risk"] for r in racks], losses)
        rho_contention = rank_correlation(
            [scores[r]["contention"] for r in racks], losses
        )
        assert rho_risk > rho_contention
        assert rho_risk > 0.4

    @pytest.mark.parametrize("racks, runs_per_rack", [(4, 2), (8, 4)])
    def test_columns_equal_object_oracle(self, tmp_path, racks, runs_per_rack):
        config = FleetConfig(racks_per_region=racks, runs_per_rack=runs_per_rack, seed=11)
        dataset = generate_region_shards(
            REGION_A, config, str(tmp_path), shard_racks=3, shard_hours=12, jobs=1
        )
        expected = placement_reference.score_racks(decode_summaries(dataset.to_region_dataset()))
        assert dataset_scores(dataset) == expected
