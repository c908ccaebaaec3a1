"""Tests for the combined report: ``repro report`` and its markdown."""

import pytest

from repro.experiments import cli, orchestrator
from repro.experiments.orchestrator import run_experiments
from repro.experiments.report import render_markdown

#: A context for the CLI's report: the experiments below need no dataset.
TINY = ["--racks", "2", "--runs-per-rack", "1", "--jobs", "1", "--no-cache"]


def report_only(monkeypatch, experiment_ids):
    """Make ``repro report`` run ``experiment_ids`` instead of the whole
    registry."""
    monkeypatch.setattr(cli, "ordered_ids", lambda: list(experiment_ids))


class TestReport:
    @pytest.fixture(scope="class")
    def subset_results(self, small_ctx):
        # A fast, representative subset: analytic, packet-level, dataset.
        return run_experiments(small_ctx, ["fig1", "fig4", "table2"]).results

    def test_markdown_structure(self, subset_results, small_ctx):
        text = render_markdown(subset_results, small_ctx)
        assert text.startswith("# Millisampler reproduction report")
        assert "## Summary" in text
        assert "## table2:" in text
        assert "**Paper:**" in text
        assert "loss_inversion_ratio" in text

    def test_write_report(self, tmp_path, monkeypatch, capsys):
        report_only(monkeypatch, ["fig1"])
        path = str(tmp_path / "REPORT.md")
        assert cli.main(["report", path, *TINY]) == 0
        out = capsys.readouterr().out
        assert out.startswith("  fig1: ")
        assert f"wrote {path}" in out
        with open(path) as handle:
            assert "## fig1:" in handle.read()


class TestReportFailureIsolation:
    def test_report_completes_with_failure_section(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.registry import get_experiment as real

        def fake(experiment_id):
            if experiment_id == "fig4":
                def boom(ctx):
                    raise RuntimeError("report stub failure")
                return boom
            return real(experiment_id)

        monkeypatch.setattr(orchestrator, "get_experiment", fake)
        report_only(monkeypatch, ["fig1", "fig4"])
        path = str(tmp_path / "REPORT.md")
        assert cli.main(["report", path, *TINY]) == 1
        assert "report stub failure" in capsys.readouterr().err
        with open(path) as handle:
            text = handle.read()
        assert "## Failures" in text
        assert "report stub failure" in text
        assert "## fig1:" in text  # the healthy experiment still rendered
        assert "## fig4:" not in text

    def test_orchestrate_records_wall_time_in_markdown(self, small_ctx):
        orchestration = run_experiments(small_ctx, ["fig1"])
        text = render_markdown(
            orchestration.results, small_ctx, orchestration.outcomes
        )
        assert "*Completed in" in text
