"""Tests for the Millisampler-dataset reader/writer."""

import gzip
import os

import numpy as np
import pytest

from repro.errors import StorageError
from repro.io.msdata import (
    FieldMap,
    load_rack_directory,
    read_host_records,
    record_from_run,
    run_from_record,
    write_sync_run,
)
from tests.conftest import BURSTY, QUIET, make_run, make_sync_run


class TestRecordRoundtrip:
    def test_run_record_roundtrip(self):
        run = make_run([1.0, 2.0, 3.0], retx=[0, 1, 0], conns=[5, 5, 5])
        restored = run_from_record(record_from_run(run))
        np.testing.assert_allclose(restored.in_bytes, run.in_bytes)
        np.testing.assert_allclose(restored.in_retx_bytes, run.in_retx_bytes)
        assert restored.meta.host == run.meta.host
        assert restored.meta.sampling_interval == pytest.approx(
            run.meta.sampling_interval
        )
        assert restored.meta.line_rate == pytest.approx(run.meta.line_rate)

    def test_missing_optional_fields_zero_filled(self):
        record = {
            "host": "h0",
            "timestamp": 0.0,
            "interval_us": 1000,
            "ingress_bytes": [1, 2, 3],
        }
        run = run_from_record(record)
        assert run.out_bytes.sum() == 0
        assert run.conn_estimate.sum() == 0

    def test_missing_required_field_rejected(self):
        with pytest.raises(StorageError):
            run_from_record({"host": "h0", "interval_us": 1000})

    def test_bad_interval_rejected(self):
        with pytest.raises(StorageError):
            run_from_record(
                {"host": "h", "interval_us": 0, "ingress_bytes": [1]}
            )

    def test_misaligned_series_rejected(self):
        with pytest.raises(StorageError):
            run_from_record(
                {
                    "host": "h",
                    "interval_us": 1000,
                    "ingress_bytes": [1, 2],
                    "connections": [1],
                }
            )

    def test_custom_field_map(self):
        """A released dataset with different column names loads via a
        FieldMap, not a code change."""
        fields = FieldMap(
            host="hostname", ingress_bytes="inBytes", interval_us="binSizeUs"
        )
        record = {
            "hostname": "web-123",
            "binSizeUs": 1000,
            "inBytes": [100, 200],
        }
        run = run_from_record(record, fields)
        assert run.meta.host == "web-123"
        assert run.in_bytes.tolist() == [100, 200]


class TestFileIo:
    def test_write_and_load_directory(self, tmp_path):
        sync = make_sync_run([[BURSTY, QUIET], [QUIET, BURSTY]], hour=7)
        directory = str(tmp_path)
        path = write_sync_run(sync, directory)
        assert path.endswith(".ndjson.gz")
        loaded = load_rack_directory(directory)
        assert len(loaded) == 1
        assert loaded[0].hour == 7
        assert loaded[0].servers == 2
        assert loaded[0].rack == sync.rack

    def test_uncompressed_roundtrip(self, tmp_path):
        sync = make_sync_run([[1, 2, 3]])
        write_sync_run(sync, str(tmp_path), compress=False)
        loaded = load_rack_directory(str(tmp_path))
        np.testing.assert_allclose(loaded[0].runs[0].in_bytes, [1, 2, 3])

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            load_rack_directory(str(tmp_path))

    def test_corrupt_line_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"host": "h", "interval_us": 1000, "ingress_bytes": [1]}\nnot-json\n')
        with pytest.raises(StorageError):
            read_host_records(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.ndjson"
        path.write_text(
            '\n{"host": "h", "interval_us": 1000, "ingress_bytes": [1]}\n\n'
        )
        assert len(read_host_records(str(path))) == 1

    def test_gzip_content_is_actually_compressed(self, tmp_path):
        sync = make_sync_run([np.zeros(2000)])
        path = write_sync_run(sync, str(tmp_path))
        raw_size = os.path.getsize(path)
        with gzip.open(path) as handle:
            expanded = len(handle.read())
        assert raw_size < expanded


class TestPipelineOnLoadedData:
    def test_full_analysis_on_reloaded_dataset(self, tmp_path):
        """Export a synthetic rack run, reload it, and run the paper's
        analysis — the pipeline is identical for real released data."""
        from tests.analysis.summary_reference import summarize_run

        sync = make_sync_run(
            [
                [BURSTY, BURSTY, QUIET, QUIET],
                [QUIET, BURSTY, QUIET, QUIET],
            ],
            hour=6,
        )
        write_sync_run(sync, str(tmp_path))
        loaded = load_rack_directory(str(tmp_path))[0]
        summary = summarize_run(loaded)
        assert summary.bursty_server_runs() == 2
        assert summary.contention.max == 2
