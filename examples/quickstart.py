#!/usr/bin/env python3
"""Quickstart: sample real (simulated) traffic with Millisampler.

Builds a 4-server rack behind a shared-buffer ToR, runs a DCTCP
transfer and a synchronized incast through it, collects a rack-wide
SyncMillisampler run, and prints what the sampler saw — the full
Section 4 pipeline in ~60 lines of API.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import units
from repro.analysis import run_rows
from repro.analysis.bursts import BURST_FIELDS
from repro.analysis.summary import RUN_FIELDS
from repro.config import SamplerConfig
from repro.core.syncsampler import SyncMillisampler
from repro.simnet.topology import build_rack
from repro.simnet.tcp import DctcpControl, open_connection
from repro.viz.ascii import sparkline
from repro.workload.flows import BackgroundTrickle, IncastApp


def main() -> None:
    # A rack: 4 hosts, ToR with dynamic-threshold shared buffer, each
    # host carrying a Millisampler (1 ms x 400 buckets here).
    sampler_config = SamplerConfig(buckets=400, cpus=4)
    rack = build_rack(servers=4, sampler_config=sampler_config,
                      rng=np.random.default_rng(7))

    # Background traffic keeps every sampler's run clock honest.
    BackgroundTrickle(rack.hosts).start()

    # Schedule a rack-synchronous collection 1.2 s from now.
    sync = SyncMillisampler()
    start_at = 3 * sampler_config.duration
    sync_id = sync.request_collection(
        rack.sampled_hosts, rack.name, "RegA", start_at, now=0.0
    )

    # Traffic: a bulk DCTCP transfer plus a 3-way incast mid-window.
    sender, _ = open_connection(rack.hosts[0], rack.hosts[1], DctcpControl(mss=1448))
    rack.engine.at(start_at + 0.05, lambda: sender.send(4_000_000))
    incast = IncastApp(rack.hosts[1:4], rack.hosts[0], bytes_per_sender=500_000)
    incast.start(at_time=start_at + 0.15)

    # Drive the simulation, polling the user-space sampler agents.
    end = start_at + sampler_config.duration + 0.2
    tick = 0
    while rack.engine.now < end:
        rack.engine.run_until(min(tick * 5e-3, end))
        rack.poll_samplers()
        tick += 1
    rack.poll_samplers()

    # Assemble: trim to the common window, align onto one time base.
    sync_run = sync.assemble(sync_id)
    print(f"SyncMillisampler run: {sync_run.servers} servers x "
          f"{sync_run.buckets} x 1 ms buckets\n")
    for run in sync_run.runs:
        gbps = run.in_bytes / sync_run.sampling_interval * 8 / 1e9
        print(f"  {run.meta.host}  ingress {sparkline(gbps[:120])}  "
              f"peak {gbps.max():.1f} Gbps")

    # Analysis: bursts, contention, loss — the Section 5-8 pipeline.
    # run_rows reduces the run to a run row, one row per burst and one
    # per server: the rows a fleet dataset stores.
    rows = run_rows(sync_run.stacked())
    run = dict(zip(RUN_FIELDS, rows.run))
    print(f"\nDetected {len(rows.bursts)} bursts; "
          f"avg contention {run['contention_mean']:.2f}, "
          f"p90 {run['contention_p90']:.0f}")
    for row in rows.bursts[:8]:
        burst = dict(zip(BURST_FIELDS, row))
        host = sync_run.runs[int(burst["server"])].meta.host
        print(f"  {host}: {burst['length']:.0f} ms, {burst['volume'] / units.MB:.2f} MB, "
              f"max contention {burst['max_contention']:.0f}, "
              f"{'LOSSY' if burst['lossy'] else 'clean'}")


if __name__ == "__main__":
    main()
