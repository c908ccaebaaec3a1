"""Pinned outputs of the packet simulator.

The packet-incast benchmark's scenario (DCTCP incast into one 93-server
rack's shared buffer) and the Figure 4 burst validation, with their
network counts and byte series held to exact values.  A change to the
simulator's hot path must run the same events in the same order, so
every number here stays put; a moved pin means the simulation changed.

Only network counts and byte series are pinned: TCP ports come from
process-global counters, so anything keyed by a port depends on which
tests ran before.

The fan-in 64 and 92 pins (and the audited totals) moved once, with a
TCP fix: after a go-back-N timeout the retransmission fills the
receiver's hole and the cumulative ACK jumps past ``snd_nxt``; the
sender now resumes at ``snd_una`` instead of resending acknowledged
bytes from the old ``snd_nxt``.  Events fell 34,975 -> 33,565 (fan-in
64) and 192,170 -> 125,682 (fan-in 92), and ECN-marked bytes with them;
discards, retransmissions and timeouts did not move.  Fan-in 16 never
times out, and Figure 4 runs no incast, so neither moved.
"""

import cProfile
import hashlib
import pstats

import numpy as np
import pytest

from repro.experiments import fig04_burst_validation as fig4
from repro.simnet.audit import audited
from repro.simnet.topology import build_rack
from repro.workload.flows import IncastApp

SERVERS = 93
SEED = 11
#: How long each incast scenario runs (simulated seconds).
HORIZON = 0.5


def incast(fanin: int, index: int):
    """One packet-incast scenario, built and started but not yet run:
    rack ``index`` of the seed-11 run, ``fanin`` senders pushing 400 KB
    each to one receiver from a 32-segment initial window."""
    rack = build_rack(servers=SERVERS, rng=np.random.default_rng([SEED, index]))
    order = np.random.default_rng([SEED, index, 1]).permutation(SERVERS)
    app = IncastApp(
        [rack.hosts[i] for i in order[1 : 1 + fanin]],
        rack.hosts[order[0]],
        bytes_per_sender=400_000,
        initial_cwnd_segments=32,
    )
    app.start(at_time=1e-3)
    return rack, app


def run_incast(fanin: int, index: int) -> dict:
    rack, app = incast(fanin, index)
    rack.engine.run_until(HORIZON)
    return counts(rack, app)


def counts(rack, app) -> dict:
    counters = rack.switch.counters
    return {
        "events": rack.engine.events_run,
        "completed": app.result.completed,
        "discard_packets": counters.discard_packets,
        "discard_bytes": counters.discard_bytes,
        "ecn_marked_bytes": counters.ecn_marked_bytes,
        "retransmissions": app.result.total_retransmissions,
        "timeouts": app.result.total_timeouts,
    }


FANIN_64 = {
    "events": 33_565,
    "completed": 64,
    "discard_packets": 56,
    "discard_bytes": 784_576,
    "ecn_marked_bytes": 19_509_704,
    "retransmissions": 56,
    "timeouts": 49,
}

PINNED = {
    16: {
        "events": 3_377,
        "completed": 16,
        "discard_packets": 0,
        "discard_bytes": 0,
        "ecn_marked_bytes": 6_031_432,
        "retransmissions": 0,
        "timeouts": 0,
    },
    64: FANIN_64,
    92: {
        "events": 125_682,
        "completed": 92,
        "discard_packets": 143,
        "discard_bytes": 2_095_192,
        "ecn_marked_bytes": 35_946_505,
        "retransmissions": 91,
        "timeouts": 90,
    },
}


@pytest.mark.parametrize("index, fanin", [(0, 16), (1, 64), (2, 92)])
def test_incast_counts_pinned(index, fanin):
    assert run_incast(fanin, index) == PINNED[fanin]


def test_audited_incast_keeps_counts_and_hook_totals():
    """Under an auditor the same run calls every hook: its event and
    check totals are pinned, so a hook call lost on the fast path (or a
    hook called twice) moves them."""
    with audited() as auditor:
        result = run_incast(64, 1)
    assert result == FANIN_64
    assert auditor.violations == []
    assert auditor.events == 156_202
    assert auditor.checks == 345_870


def test_python_calls_per_event():
    """The fan-in-64 run's Python calls per simulated event, as cProfile
    counts them.  The count repeats exactly on one Python version, so
    the per-event cost is gated by a ratio measured within the run, on
    any machine: ≈11.5 on CPython 3.11, against ≈19.2 while every
    packet was dispatched to detached samplers and TCP rescanned its
    send times on each ACK."""
    rack, _ = incast(64, 1)
    profile = cProfile.Profile()
    profile.runcall(rack.engine.run_until, HORIZON)
    calls = pstats.Stats(profile).total_calls
    assert calls / rack.engine.events_run <= 13.0


def test_figure4_simulation_pinned(monkeypatch):
    pods = []
    build_pod = fig4.build_pod

    def keep_pod(*args, **kwargs):
        pods.append(build_pod(*args, **kwargs))
        return pods[-1]

    monkeypatch.setattr(fig4, "build_pod", keep_pod)
    sync_run = fig4.run_simulation()
    assert pods[-1].engine.events_run == 162_800
    assert int(sync_run.contention_series().max()) == 5
    digest = hashlib.sha256()
    for run in sync_run.runs:
        digest.update(np.ascontiguousarray(run.in_bytes).tobytes())
    assert digest.hexdigest().startswith("a53a2533b1b0")
