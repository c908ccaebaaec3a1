"""Calibration regression tests: the synthesis must stay inside the
paper's bands.

These are the guard rails on the fluid model's tuning: any future
change to the service catalog, the demand model, or the buffer
dynamics that drifts a published statistic out of band fails here —
with the full report in the assertion message.
"""

import pytest

from repro.fleet.calibration import PAPER_TARGETS, Target, check, measure
from repro.errors import AnalysisError
from tests.conftest import metrics_digest


class TestTargets:
    def test_target_bands_contain_paper_values(self):
        for target in PAPER_TARGETS:
            assert target.low <= target.paper_value <= target.high, target.name

    def test_target_holds(self):
        target = Target("x", 1.0, 0.5, 2.0)
        assert target.holds(1.0)
        assert not target.holds(0.4)
        assert not target.holds(2.1)


class TestCalibration:
    @pytest.fixture(scope="class")
    def report(self):
        return check(racks=16, seed=7)

    #: ``measure(racks=16, seed=7)``, captured while it still reduced
    #: its runs to summary objects.
    MEASURED_DIGEST = "f28036529be9327c3ef67ea10a71ef712c641e829b43d65375ea53cfce77dbe4"

    def test_measured_pinned(self, report):
        assert metrics_digest(report.measured) == self.MEASURED_DIGEST, report.measured

    def test_all_targets_in_band(self, report):
        assert report.ok, "\n" + report.render()

    def test_loss_inversion_present(self, report):
        """The headline result must survive any retuning."""
        assert report.measured["rega_typical_lossy_pct"] > report.measured[
            "rega_coloc_lossy_pct"
        ], "\n" + report.render()

    def test_report_renders_every_target(self, report):
        text = report.render()
        for target in PAPER_TARGETS:
            assert target.name in text

    def test_too_few_racks_rejected(self):
        with pytest.raises(AnalysisError):
            measure(racks=2)
