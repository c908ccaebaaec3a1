"""Data model for Millisampler runs.

A :class:`MillisamplerRun` is the read-out of one sampler run on one
server: aggregated (cross-CPU) per-bucket series for every counter kind
plus metadata.  A :class:`SyncRun` is a rack-wide collection of runs
that SyncMillisampler has aligned onto a common time base; it is the
unit every analysis in Sections 5-8 consumes.  A :class:`StackedRun`
is the part of a rack run that summarizing reads, with each series
stacked into one ``(servers, buckets)`` matrix.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .. import units
from ..errors import AnalysisError, StorageError


@dataclass(frozen=True)
class RunMetadata:
    """Identity and context recorded with each run.

    Host-side collection is what makes service context ("rich context
    such as service information", Section 1) available — the task name
    travels with the data.
    """

    host: str
    rack: str = ""
    region: str = ""
    task: str = ""
    start_time: float = 0.0
    sampling_interval: float = units.ANALYSIS_INTERVAL
    line_rate: float = units.SERVER_LINK_RATE

    def with_start(self, start_time: float) -> "RunMetadata":
        return replace(self, start_time=start_time)


@dataclass
class MillisamplerRun:
    """One sampler run: per-bucket counter series plus metadata.

    All byte series share one length (the number of buckets actually
    recorded).  ``conn_estimate`` is the sketch's per-bucket estimate of
    active connections.
    """

    meta: RunMetadata
    in_bytes: np.ndarray
    out_bytes: np.ndarray
    in_retx_bytes: np.ndarray
    out_retx_bytes: np.ndarray
    in_ecn_bytes: np.ndarray
    conn_estimate: np.ndarray

    _SERIES = (
        "in_bytes",
        "out_bytes",
        "in_retx_bytes",
        "out_retx_bytes",
        "in_ecn_bytes",
        "conn_estimate",
    )

    def __post_init__(self) -> None:
        lengths = {len(getattr(self, name)) for name in self._SERIES}
        if len(lengths) != 1:
            raise AnalysisError(f"series lengths differ: {sorted(lengths)}")

    @classmethod
    def empty(cls, meta: RunMetadata, buckets: int) -> "MillisamplerRun":
        """An all-zero run: what a host that saw no packet contributes
        to a SyncMillisampler collection."""
        zero = lambda: np.zeros(buckets, dtype=np.float64)  # noqa: E731
        return cls(meta, zero(), zero(), zero(), zero(), zero(), zero())

    @property
    def buckets(self) -> int:
        return len(self.in_bytes)

    @property
    def duration(self) -> float:
        """Observed duration in seconds."""
        return self.buckets * self.meta.sampling_interval

    @property
    def end_time(self) -> float:
        return self.meta.start_time + self.duration

    def timestamps(self) -> np.ndarray:
        """Absolute start time of each bucket."""
        return self.meta.start_time + np.arange(self.buckets) * self.meta.sampling_interval

    def ingress_utilization(self) -> np.ndarray:
        """Per-bucket ingress utilization as a fraction of line rate."""
        capacity = self.meta.line_rate * self.meta.sampling_interval
        return np.asarray(self.in_bytes, dtype=np.float64) / capacity

    def egress_utilization(self) -> np.ndarray:
        """Per-bucket egress utilization as a fraction of line rate."""
        capacity = self.meta.line_rate * self.meta.sampling_interval
        return np.asarray(self.out_bytes, dtype=np.float64) / capacity

    def bursty_mask(self, threshold: float = units.BURST_UTILIZATION_THRESHOLD) -> np.ndarray:
        """Boolean per-bucket mask: ingress utilization exceeds ``threshold``
        (the paper's burst definition, Section 5)."""
        return self.ingress_utilization() > threshold

    def slice(self, start_bucket: int, end_bucket: int) -> "MillisamplerRun":
        """A new run covering buckets ``[start_bucket, end_bucket)``."""
        if not 0 <= start_bucket <= end_bucket <= self.buckets:
            raise AnalysisError("slice out of range")
        new_meta = self.meta.with_start(
            self.meta.start_time + start_bucket * self.meta.sampling_interval
        )
        kwargs = {
            name: getattr(self, name)[start_bucket:end_bucket] for name in self._SERIES
        }
        return MillisamplerRun(meta=new_meta, **kwargs)

    # -- serialization ------------------------------------------------------

    def to_record(self) -> dict:
        """A JSON-serializable record (lists, not arrays)."""
        return {
            "meta": {
                "host": self.meta.host,
                "rack": self.meta.rack,
                "region": self.meta.region,
                "task": self.meta.task,
                "start_time": self.meta.start_time,
                "sampling_interval": self.meta.sampling_interval,
                "line_rate": self.meta.line_rate,
            },
            "series": {name: getattr(self, name).tolist() for name in self._SERIES},
        }

    @classmethod
    def from_record(cls, record: dict) -> "MillisamplerRun":
        try:
            meta = RunMetadata(**record["meta"])
            series = {
                name: np.asarray(values, dtype=np.float64)
                for name, values in record["series"].items()
            }
            return cls(meta=meta, **series)
        except (KeyError, TypeError) as exc:
            raise StorageError(f"malformed run record: {exc}") from exc

    def to_compressed(self) -> bytes:
        """Compressed wire/storage form (Section 4.1: data is compressed
        and stored on the host)."""
        return zlib.compress(json.dumps(self.to_record()).encode("utf-8"), level=6)

    @classmethod
    def from_compressed(cls, blob: bytes) -> "MillisamplerRun":
        try:
            record = json.loads(zlib.decompress(blob).decode("utf-8"))
        except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StorageError(f"corrupt run blob: {exc}") from exc
        return cls.from_record(record)


@dataclass
class SyncRun:
    """A rack-wide set of Millisampler runs on a common, uniform time base.

    Produced by :class:`~repro.core.syncsampler.SyncMillisampler` (or
    synthesized directly by the fleet model).  All member runs share
    ``start_time``, ``sampling_interval`` and bucket count after
    alignment, so cross-server comparisons are per-bucket.
    """

    rack: str
    region: str
    runs: list[MillisamplerRun]
    #: Wall-clock hour-of-day at which the run was collected (0-23).
    hour: int = 0
    #: Per-minute switch discard/volume counters for the rack, if the
    #: substrate exports them (used by Figure 17).
    switch_discard_bytes: float = 0.0
    switch_ingress_bytes: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.runs:
            raise AnalysisError("a SyncRun must contain at least one server run")
        buckets = {run.buckets for run in self.runs}
        if len(buckets) != 1:
            raise AnalysisError(f"aligned runs must share bucket count, got {sorted(buckets)}")
        intervals = {run.meta.sampling_interval for run in self.runs}
        if len(intervals) != 1:
            raise AnalysisError("aligned runs must share sampling interval")

    @property
    def buckets(self) -> int:
        return self.runs[0].buckets

    def stacked(self) -> "StackedRun":
        """This run as a :class:`StackedRun`: each server's ingress,
        retransmitted-ingress and connection-estimate series become one
        row of a stacked matrix."""
        runs = self.runs
        return StackedRun(
            rack=self.rack,
            region=self.region,
            hour=self.hour,
            sampling_interval=self.sampling_interval,
            tasks=[run.meta.task for run in runs],
            capacity=np.array([run.meta.line_rate * run.meta.sampling_interval for run in runs]),
            in_bytes=np.vstack([run.in_bytes for run in runs]),
            in_retx_bytes=np.vstack([run.in_retx_bytes for run in runs]),
            conn_estimate=np.vstack([run.conn_estimate for run in runs]),
            switch_discard_bytes=self.switch_discard_bytes,
            switch_ingress_bytes=self.switch_ingress_bytes,
            extras=self.extras,
        )

    @property
    def sampling_interval(self) -> float:
        return self.runs[0].meta.sampling_interval

    @property
    def duration(self) -> float:
        return self.runs[0].duration

    @property
    def servers(self) -> int:
        return len(self.runs)

    def bursty_matrix(self, threshold: float = units.BURST_UTILIZATION_THRESHOLD) -> np.ndarray:
        """``servers x buckets`` boolean matrix of bursty samples."""
        return np.vstack([run.bursty_mask(threshold) for run in self.runs])

    def contention_series(
        self, threshold: float = units.BURST_UTILIZATION_THRESHOLD
    ) -> np.ndarray:
        """Per-bucket contention: number of simultaneously bursty servers
        (the paper's definition, Section 5)."""
        return self.bursty_matrix(threshold).sum(axis=0)


@dataclass
class StackedRun:
    """A rack run as summarizing reads it: its identity, the switch
    counters, and three ``(servers, buckets)`` matrices whose row ``i``
    is server ``i``'s ingress bytes, retransmitted ingress bytes and
    connection estimates.

    :meth:`SyncRun.stacked` builds one from any aligned run.  The fleet
    synthesizer builds one straight from a fluid batch, so a shard-store
    build never assembles a :class:`SyncRun`.
    """

    rack: str
    region: str
    hour: int
    sampling_interval: float
    #: Each server's task, in server order.
    tasks: Sequence[str]
    #: ``(servers,)``: the bytes each server's link carries in one
    #: bucket at line rate.
    capacity: np.ndarray
    in_bytes: np.ndarray
    in_retx_bytes: np.ndarray
    conn_estimate: np.ndarray
    switch_discard_bytes: float = 0.0
    switch_ingress_bytes: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def servers(self) -> int:
        return self.in_bytes.shape[0]

    @property
    def buckets(self) -> int:
        return self.in_bytes.shape[1]

    @property
    def duration(self) -> float:
        """Observed duration in seconds."""
        return self.buckets * self.sampling_interval
