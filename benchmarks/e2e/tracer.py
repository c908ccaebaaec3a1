"""Layer spans recorded from outside the program under test.

The benchmark never edits ``src/``.  To attribute time to layers it
replaces public functions, where their callers look them up, with
wrappers that open a span around each call; :meth:`Tracer.restore`
puts the originals back.  A target that no longer exists (a renamed or
deleted function) is recorded as missing instead of failing the run,
so the layer metrics that depend on it read ``null`` while everything
else is still measured.

Spans nest per thread.  A span opened on a thread with no open span of
its own (the query service runs query bodies on a request thread)
becomes a child of whatever span the tracing thread has open, because
that thread is blocked waiting for the answer.  A span's *self time*
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable

#: Functions that turn a wrapped call's arguments into a work count
#: recorded with its span (``args[0]`` is ``self`` for methods).
WEIGHTS: dict[str, Callable[[tuple, dict], float]] = {
    # FluidBufferModel.run_batch(demand, ...): one cell per
    # (run, bucket, server) the time loop updates.
    "fluid_cells": lambda args, kwargs: float(math.prod(kwargs.get("demand", args[1]).shape)),
}

# Span record fields: [name, thread id, start, end, parent index, weight].
NAME, TID, START, END, PARENT, WEIGHT = range(6)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: layer -> why one of its targets could not be installed.
        self.missing: dict[str, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, weight: float = 0.0):
        """Record one span; yields its record so a caller can set the
        weight once the work is known."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = -1
        record = [name, threading.get_ident(), time.perf_counter(), None, parent, weight]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer: str, target: str, kind: str = "call", weight: str | None = None) -> bool:
        """Replace ``target`` ("module:Qual.name") with a span-recording
        wrapper named ``layer``.  ``kind`` is ``"call"`` (one span per
        call) or ``"gen"`` (one span per item a generator produces,
        weighted 1 per item).  Returns False, and records the layer as
        missing, when the target cannot be found."""
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attribute = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError, ValueError) as exc:
            self.missing[layer] = f"{target}: {type(exc).__name__}: {exc}"
            return False
        weigh = WEIGHTS[weight] if weight else None
        setattr(owner, attribute, self._wrapper(layer, original, kind, weigh))
        self._undo.append((owner, attribute, original))
        return True

    def _wrapper(self, layer: str, original, kind: str, weigh):
        tracer = self

        if kind == "gen":
            def traced_gen(*args, **kwargs):
                inner = original(*args, **kwargs)
                try:
                    while True:
                        with tracer.span(layer) as record:
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            record[WEIGHT] = 1.0
                        yield item
                finally:
                    inner.close()

            return traced_gen

        def traced(*args, **kwargs):
            with tracer.span(layer, weigh(args, kwargs) if weigh else 0.0):
                return original(*args, **kwargs)

        return traced

    def install(self, targets: list[dict]) -> None:
        """Wrap every entry of a layer table (see ``workloads.TARGETS``)."""
        for entry in targets:
            self.wrap(entry["layer"], entry["target"], entry.get("kind", "call"), entry.get("weight"))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def export(self) -> dict:
        """JSON-ready spans, for the parent process to reduce; call it
        after every span has closed."""
        return {"pid": os.getpid(), "spans": self.spans, "missing": self.missing}


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed weight."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stats: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(
            span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "weight": 0.0}
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[index]
        entry["weight"] += span[WEIGHT]
    return stats


def chrome_events(pid: int, spans: list[list], process_name: str) -> list[dict]:
    """Chrome Trace Event "complete" events (microseconds) for spans."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": process_name}}
    ]
    for span in spans:
        event = {
            "name": span[NAME],
            "cat": span[NAME].split(".", 1)[0],
            "ph": "X",
            "ts": span[START] * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "pid": pid,
            "tid": span[TID],
        }
        if span[WEIGHT]:
            event["args"] = {"weight": span[WEIGHT]}
        events.append(event)
    return events


def write_chrome_trace(path: str, events: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, stream)
