"""Reference oracles for burst detection and run summaries: the
historical per-server loops, kept verbatim so the whole-run burst core
in ``repro.analysis.bursts`` and ``summarize_run`` can be checked ``==``
against them."""

from __future__ import annotations

import numpy as np

from repro import units
from repro.analysis.bursts import Burst
from repro.analysis.contention import contention_stats
from repro.analysis.summary import RunSummary, ServerRunStats
from repro.core.run import MillisamplerRun, SyncRun
from repro.errors import AnalysisError


def _mask_segments(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) pairs of consecutive-True segments."""
    if mask.size == 0:
        return []
    padded = np.concatenate([[False], mask, [False]])
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(changes[i]), int(changes[i + 1])) for i in range(0, len(changes), 2)]


def detect_bursts_reference(
    run: MillisamplerRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
    server: int = 0,
) -> list[Burst]:
    """The historical one-server burst detector."""
    if loss_lag_buckets < 0:
        raise AnalysisError("loss lag cannot be negative")
    mask = run.bursty_mask(threshold)
    bursts: list[Burst] = []
    segments = _mask_segments(mask)
    for index, (start, end) in enumerate(segments):
        window_end = min(end + loss_lag_buckets, run.buckets)
        if index + 1 < len(segments):
            window_end = min(window_end, segments[index + 1][0])
        retx = float(run.in_retx_bytes[start:window_end].sum())
        bursts.append(
            Burst(
                server=server,
                start=start,
                length=end - start,
                volume=float(run.in_bytes[start:end].sum()),
                avg_connections=float(run.conn_estimate[start:end].mean()),
                retx_bytes=retx,
                lossy=retx > 0,
            )
        )
    return bursts


def annotate_contention_reference(
    burst: Burst,
    run: MillisamplerRun,
    contention: np.ndarray,
    loss_lag_buckets: int = 2,
) -> None:
    """The historical per-burst contention annotation."""
    burst.max_contention = int(contention[burst.start : burst.end].max())
    if not burst.lossy:
        burst.first_loss_contention = -1
        return
    window_end = min(burst.end + loss_lag_buckets, run.buckets)
    retx_window = run.in_retx_bytes[burst.start : window_end]
    first_retx = burst.start + int(np.argmax(retx_window > 0))
    loss_bucket = max(first_retx - loss_lag_buckets, burst.start)
    loss_bucket = min(loss_bucket, burst.end - 1)
    burst.first_loss_contention = int(contention[loss_bucket])


def detect_run_bursts_reference(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> list[Burst]:
    """The historical rack-run burst detector: one server at a time."""
    contention = sync_run.contention_series(threshold)
    bursts: list[Burst] = []
    for index, run in enumerate(sync_run.runs):
        for burst in detect_bursts_reference(run, threshold, loss_lag_buckets, server=index):
            annotate_contention_reference(burst, run, contention, loss_lag_buckets)
            bursts.append(burst)
    return bursts


def summarize_run_reference(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> RunSummary:
    """The historical ``summarize_run``: a loop over servers."""
    if sync_run.buckets == 0:
        raise AnalysisError("cannot summarize an empty run")
    contention = sync_run.contention_series(threshold)
    stats = contention_stats(contention)
    duration = sync_run.duration

    all_bursts: list[Burst] = []
    server_stats: list[ServerRunStats] = []
    for index, run in enumerate(sync_run.runs):
        bursts = detect_bursts_reference(run, threshold, loss_lag_buckets, server=index)
        for burst in bursts:
            annotate_contention_reference(burst, run, contention, loss_lag_buckets)
        all_bursts.extend(bursts)

        utilization = run.ingress_utilization()
        mask = run.bursty_mask(threshold)
        inside = utilization[mask]
        outside = utilization[~mask]
        conns = run.conn_estimate
        total_in = float(run.in_bytes.sum())
        in_burst = float(run.in_bytes[mask].sum())
        server_stats.append(
            ServerRunStats(
                server=index,
                task=run.meta.task,
                bursty=bool(mask.any()),
                avg_utilization=float(utilization.mean()),
                utilization_in_bursts=float(inside.mean()) if inside.size else float("nan"),
                utilization_outside_bursts=(
                    float(outside.mean()) if outside.size else float("nan")
                ),
                bursts_per_second=len(bursts) / duration,
                conns_inside=float(conns[mask].mean()) if mask.any() else float("nan"),
                conns_outside=float(conns[~mask].mean()) if (~mask).any() else float("nan"),
                total_in_bytes=total_in,
                in_burst_bytes=in_burst,
            )
        )

    return RunSummary(
        rack=sync_run.rack,
        region=sync_run.region,
        hour=sync_run.hour,
        servers=sync_run.servers,
        buckets=sync_run.buckets,
        sampling_interval=sync_run.sampling_interval,
        contention=stats,
        bursts=all_bursts,
        server_stats=server_stats,
        switch_discard_bytes=sync_run.switch_discard_bytes,
        switch_ingress_bytes=sync_run.switch_ingress_bytes,
        extras=dict(sync_run.extras),
    )
