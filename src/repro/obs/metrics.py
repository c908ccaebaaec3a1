"""Lightweight named counters, timers, and scoped spans.

One :class:`Metrics` instance rides on an
:class:`~repro.experiments.context.ExperimentContext` and is threaded
through dataset generation, the cache, and every experiment.  The
design constraints, in order:

* **Always on** — recording a counter is a dict update under a lock;
  a span is two ``perf_counter`` calls.  Nothing here is worth a
  feature flag.
* **Thread-safe** — ``repro serve`` answers queries on several request
  threads against one shared context, hence one registry.
* **Serializable** — :meth:`Metrics.snapshot` is plain JSON-ready data,
  which is what the run manifest embeds.

Spans nest: entering ``span("report")`` then ``span("fig9")`` on the
same thread records the inner timer as ``report/fig9``, so the profile
reads as a call tree without any tracing machinery.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class TimerStats:
    """Aggregate of every observation of one named timer."""

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class Metrics:
    """Thread-safe registry of named counters and timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._timers: dict[str, TimerStats] = {}
        self._span_stack = threading.local()

    # -- counters ---------------------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, float]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counters)

    # -- timers and spans -------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        """Record one observation of the named timer."""
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                stats = self._timers[name] = TimerStats()
            stats.observe(seconds)

    @contextmanager
    def span(self, name: str):
        """Time a scope; nested spans record under ``outer/inner``."""
        stack = getattr(self._span_stack, "names", None)
        if stack is None:
            stack = self._span_stack.names = []
        qualified = "/".join(stack + [name])
        stack.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            self.observe(qualified, elapsed)

    def timers(self) -> dict[str, TimerStats]:
        """A point-in-time copy of every timer's aggregate."""
        with self._lock:
            return {
                name: TimerStats(stats.count, stats.total_s, stats.max_s)
                for name, stats in self._timers.items()
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used to bring telemetry across process boundaries: dataset
        workers record stage timers into a local registry and return its
        snapshot with their results; the parent merges so ``--manifest``
        sees the whole fleet's cost breakdown.  Counters add; timers
        combine count/total and keep the larger max.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.incr(name, value)
        with self._lock:
            for name, data in snapshot.get("timers", {}).items():
                stats = self._timers.get(name)
                if stats is None:
                    stats = self._timers[name] = TimerStats()
                stats.count += int(data["count"])
                stats.total_s += float(data["total_s"])
                stats.max_s = max(stats.max_s, float(data["max_s"]))

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready projection of every counter and timer."""
        return {
            "counters": self.counters(),
            "timers": {
                name: {
                    "count": stats.count,
                    "total_s": stats.total_s,
                    "mean_s": stats.mean_s,
                    "max_s": stats.max_s,
                }
                for name, stats in sorted(self.timers().items())
            },
        }

    def render_profile(self) -> str:
        """Human-readable profile: timers by total time, then counters."""
        lines = ["-- profile: timers (by total time) --"]
        timers = self.timers()
        if not timers:
            lines.append("  (none recorded)")
        width = max((len(name) for name in timers), default=0)
        for name, stats in sorted(
            timers.items(), key=lambda kv: kv[1].total_s, reverse=True
        ):
            lines.append(
                f"  {name:<{width}}  total {stats.total_s:8.3f}s  "
                f"n={stats.count:<5d} mean {stats.mean_s:7.3f}s  "
                f"max {stats.max_s:7.3f}s"
            )
        counters = self.counters()
        lines.append("-- profile: counters --")
        if not counters:
            lines.append("  (none recorded)")
        cwidth = max((len(name) for name in counters), default=0)
        for name, value in sorted(counters.items()):
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{cwidth}}  {rendered}")
        return "\n".join(lines)
