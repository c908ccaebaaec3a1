"""Section 4.6 discussion: GSO super-segments inflate fine-timescale
burstiness.

"The tc layer sees segments before the sending NIC's segmentation
offload and after the receiver's offloaded reassembly.  Thus, the
filter may see 64 KB segments, potentially inflating burstiness at
very fine timescales (e.g., 100 us buckets).  At such rates, we often
see periods of data rates in excess of line speed."

This experiment samples the same wire traffic at 10 ms, 1 ms, and
100 us with GRO-coalesced super-segments and shows that (i) apparent
per-bucket rates exceed line speed only at 100 us, and (ii) the 1 ms
interval the paper standardizes on is immune.
"""

from __future__ import annotations

import numpy as np

from .. import units
from ..core.millisampler import Direction, Millisampler, PacketObservation
from ..core.run import RunMetadata
from .base import ExperimentResult, ResultTable
from .context import ExperimentContext

INTERVALS = {"10ms": 10e-3, "1ms": 1e-3, "100us": 100e-6}


def _simulate_sampling(interval: float, rng: np.random.Generator) -> float:
    """Feed line-rate wire traffic, delivered as 64 KB GRO
    super-segments, to a sampler at ``interval``; return the maximum
    apparent utilization of any bucket."""
    line_rate = units.SERVER_LINK_RATE
    segment = units.GSO_MAX_BYTES
    sampler = Millisampler(
        RunMetadata(host="gso", line_rate=line_rate),
        sampling_interval=interval,
        buckets=200,
        cpus=1,
    )
    sampler.attach()
    sampler.enable()
    # The wire carries MTU packets at line rate; GRO hands the stack one
    # 64 KB super-segment when its last wire packet arrives — so the
    # tap's observation time is quantized to segment boundaries with
    # small jitter from interrupt coalescing.
    time = 0.0
    duration = 150 * interval
    while time < duration:
        time += segment / line_rate * float(rng.uniform(0.7, 1.3))
        sampler.observe(PacketObservation(time, Direction.INGRESS, segment, "bulk"))
    assert sampler.start_time is not None
    sampler.finish(now=sampler.start_time + sampler.duration)
    run = sampler.read_run()
    # Ignore the tail buckets the stream did not fill.
    filled = run.in_bytes[: int(duration / interval) - 1]
    return float(filled.max() / (line_rate * interval))


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    rng = np.random.default_rng(0)
    rows = []
    metrics = {}
    for name, interval in INTERVALS.items():
        peaks = [_simulate_sampling(interval, rng) for _ in range(5)]
        peak = float(np.max(peaks))
        rows.append([name, f"{peak * 100:.1f}%", "YES" if peak > 1.0 else "no"])
        metrics[f"peak_utilization_{name}"] = peak

    table = ResultTable(
        title="Apparent peak utilization of line-rate traffic vs sampling interval",
        headers=["interval", "max apparent utilization", "exceeds line rate?"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="gso",
        title="GSO inflation at fine timescales (Section 4.6)",
        paper_claim=(
            "64 KB super-segments make 100 us buckets show rates above line "
            "speed; 1 ms sampling avoids the issue — one reason the paper "
            "standardizes on 1 ms."
        ),
        tables=[table],
        metrics=metrics,
        notes=(
            f"100 us peak {metrics['peak_utilization_100us'] * 100:.0f}% vs "
            f"1 ms peak {metrics['peak_utilization_1ms'] * 100:.0f}% of line "
            f"rate: segment-boundary quantization only aliases above the "
            f"segment service time (~42 us at 12.5 Gbps)."
        ),
    )
