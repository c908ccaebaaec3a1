"""Millisampler core: the paper's primary contribution.

This package models the host-side sampler exactly as Section 4
describes it: a tc-filter-like packet hook with per-CPU counter arrays,
a fixed number of time buckets, an enabled flag that self-clears when a
run completes, a 128-bit connection-counting sketch, host-local
compressed storage with week retention, a periodic run scheduler, and
the SyncMillisampler control plane that aligns simultaneous runs across
a rack.
"""

from .counters import CounterKind, CounterSet, PerCpuCounters
from .millisampler import CostModel, Millisampler, PacketObservation
from .run import MillisamplerRun, RunMetadata, StackedRun, SyncRun
from .scheduler import RunScheduler, ScheduledRun
from .sketch import FlowSketch
from .storage import HostRunStore
from .syncsampler import SyncMillisampler
from .alignment import align_runs

__all__ = [
    "CounterKind",
    "CounterSet",
    "PerCpuCounters",
    "CostModel",
    "Millisampler",
    "PacketObservation",
    "MillisamplerRun",
    "RunMetadata",
    "StackedRun",
    "SyncRun",
    "RunScheduler",
    "ScheduledRun",
    "FlowSketch",
    "HostRunStore",
    "SyncMillisampler",
    "align_runs",
]
