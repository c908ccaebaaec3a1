"""Query execution core of ``repro serve``.

The service turns the one-shot CLI pipeline into a persistent process:
one :class:`~repro.experiments.context.ExperimentContext` (hence one
shard store root and one metrics registry) plus one long-lived worker
pool answer every query,
so the expensive region-day builds are paid once and shared.

Three properties define the core, independent of any transport:

* **Single-flight** — identical queries that arrive while one is
  already executing subscribe to the in-flight :class:`_Flight` instead
  of starting a second generation.  A flight records every event it
  publishes, so a late subscriber replays the full stream and all
  subscribers observe byte-identical event sequences.  Subscribers are
  non-blocking callables the flight hands each event to, down to the
  terminal ``result`` or ``error``.
* **Bit-exactness** — query bodies call the same context methods the
  CLI uses and serialize through the module-level ``serialize_*``
  functions below; tests compare service responses against direct
  serializer output to pin the equivalence.
* **Crash containment** — a worker process dying surfaces as
  :class:`~repro.errors.WorkerCrashError` (naming the rack in flight);
  the service replaces the broken pool and retries the query once
  before failing it, and a crashed build leaves the shard store
  consistent (manifest-last atomicity) so the retry regenerates.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import FleetConfig
from ..errors import ConfigError, WorkerCancelled, WorkerCrashError
from ..experiments.context import ExperimentContext
from ..fleet.dataset import DatasetSummary
from ..fleet.parallel import stop_inherited_tracer
from ..fleet.shards import DEFAULT_SHARD_HOURS, DEFAULT_SHARD_RACKS, check_shard_geometry
from ..obs.manifest import build_service_metrics

logger = logging.getLogger(__name__)

#: The events that end a query's stream, exactly one per subscriber.
TERMINAL_EVENTS = ("result", "error")

#: A subscriber: called with each event of a flight, must not block.
Deliver = Callable[[dict], None]


def _worker_pid() -> int:
    """No-op pool warm-up task (must be a top-level function to pickle)."""
    import os

    return os.getpid()

#: Figure-query names -> how the result is produced and serialized.
FIGURE_NAMES = ("hourly_boxes", "run_contention", "burst_contention", "profiles")

#: Counter names exported in the ``/metrics`` service block.
REQUESTS = "service.requests"
EXECUTED = "service.queries.executed"
COALESCED = "service.queries.coalesced"
FAILED = "service.queries.failed"
POOL_REPLACED = "service.pool.replaced"


# -- result serializers ------------------------------------------------------
#
# Module-level pure functions so tests can feed the one-shot CLI path
# through the exact same projection and assert the service's HTTP body
# is bit-identical.  Scalars pass through as Python values (a float's
# repr round-trips every bit); columns stay 1-D numpy arrays, which the
# transport's encoder (``repro.service.server.encode_json``) writes as
# the JSON of their ``tolist()``, so no serializer builds a list.


def serialize_table1(row: DatasetSummary) -> dict:
    return {
        "region": row.region,
        "runs": row.runs,
        "server_runs": row.server_runs,
        "bursty_server_runs": row.bursty_server_runs,
        "bursty_run_fraction": row.bursty_run_fraction,
        "bursts": row.bursts,
        "racks": row.racks,
    }


def serialize_hourly_boxes(boxes: dict) -> dict:
    return {
        "hours": {
            str(hour): {
                "low_whisker": box.low_whisker,
                "q1": box.q1,
                "median": box.median,
                "q3": box.q3,
                "high_whisker": box.high_whisker,
                "mean": box.mean,
                "count": box.count,
            }
            for hour, box in sorted(boxes.items())
        }
    }


def serialize_run_contention(view) -> dict:
    return {
        "total": view.total,
        "excluded": view.excluded,
        "mins": np.asarray(view.mins, dtype=np.float64),
        "p90s": np.asarray(view.p90s, dtype=np.float64),
    }


def serialize_burst_contention(view) -> dict:
    return {
        "racks": np.asarray(view.racks, dtype=str),
        "max_contention": np.asarray(view.max_contention, dtype=np.int64),
        "lossy": np.asarray(view.lossy, dtype=bool),
        "first_loss_contention": np.asarray(view.first_loss_contention, dtype=np.int64),
    }


def serialize_profiles(profiles: list) -> dict:
    return {
        "profiles": [
            {
                "rack": p.rack,
                "region": p.region,
                "mean_contention": p.mean_contention,
                "min_contention": p.min_contention,
                "max_contention": p.max_contention,
                "runs": p.runs,
                "distinct_tasks": p.distinct_tasks,
                "dominant_share": p.dominant_share,
                "colocated": p.colocated,
                "total_discard_bytes": p.total_discard_bytes,
                "total_ingress_bytes": p.total_ingress_bytes,
            }
            for p in profiles
        ]
    }


def serialize_dataset(dataset) -> dict:
    """The ``/v1/dataset`` result: presence/shape, not the data itself."""
    runs = dataset.columns("runs", ("rack_id", "hour"))
    return {
        "region": dataset.region,
        "runs": int(runs["rack_id"].size),
        "racks": int(np.unique(runs["rack_id"]).size),
        "hours": np.unique(runs["hour"]).astype(np.int64),
    }


# -- queries -----------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One service query, hashable so identical requests coalesce."""

    kind: str  # "dataset" | "table1" | "figure"
    region: str = "RegA"
    name: str | None = None  # figure name when kind == "figure"

    def __post_init__(self) -> None:
        if self.kind not in ("dataset", "table1", "figure"):
            raise ConfigError(f"unknown query kind {self.kind!r}")
        if self.region not in ("RegA", "RegB"):
            raise ConfigError(f"unknown region {self.region!r}")
        if self.kind == "figure":
            if self.name not in FIGURE_NAMES:
                raise ConfigError(
                    f"unknown figure {self.name!r}; known: {FIGURE_NAMES}"
                )
        elif self.name is not None:
            raise ConfigError(f"{self.kind} query takes no figure name")

    @property
    def tag(self) -> str:
        return "/".join(filter(None, (self.kind, self.region, self.name)))


class _Flight:
    """One in-flight generation shared by every identical query.

    Hands each event to every subscriber (a non-blocking callable) and
    records it, so a subscriber that joins mid-flight replays the prefix
    it missed — every subscriber sees the same event sequence regardless
    of when it arrived.  :meth:`finish` ends the flight with one
    terminal ``result`` or ``error`` event; only its first call counts.
    """

    def __init__(self, key: Query) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._subscribers: list[Deliver] = []
        self._done = False

    def subscribe(self, deliver: Deliver) -> None:
        with self._lock:
            replayed = all(_handed(deliver, event) for event in self._events)
            if replayed and not self._done:
                self._subscribers.append(deliver)

    def publish(self, event: dict) -> None:
        with self._lock:
            if not self._done:
                self._send(event)

    def finish(self, result: dict | None, error: BaseException | None) -> None:
        if error is not None:
            event = {"event": "error", "error": type(error).__name__, "detail": str(error)}
        else:
            event = {"event": "result", "data": result}
        with self._lock:
            if not self._done:
                self._done = True
                self._send(event)
                self._subscribers.clear()

    def _send(self, event: dict) -> None:
        self._events.append(event)
        self._subscribers = [deliver for deliver in self._subscribers if _handed(deliver, event)]


def _handed(deliver: Deliver, event: dict) -> bool:
    """Hand ``event`` to one subscriber; False if it raised (say, its
    event loop has closed), which drops it and never stops delivery to
    the others."""
    try:
        deliver(event)
    except Exception:
        logger.warning("dropped a query subscriber that raised", exc_info=True)
        return False
    return True


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs beyond the fleet config."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    #: Shard-store root; None means a private temporary root (see
    #: :attr:`ExperimentContext.store_dir`).
    store_dir: str | None = None
    shard_racks: int = DEFAULT_SHARD_RACKS
    shard_hours: int = DEFAULT_SHARD_HOURS
    #: Threads executing query bodies (and hence the most queries that
    #: generate concurrently).  Counted as reserved cores when sizing
    #: the worker pool — see :meth:`QueryService.pool_jobs`.
    request_threads: int = 2

    def __post_init__(self) -> None:
        check_shard_geometry(self.shard_racks, self.shard_hours)
        if self.request_threads < 1:
            raise ConfigError(
                f"request threads must be at least 1, got {self.request_threads}"
            )


class QueryService:
    """The transport-independent service: flights, pool, telemetry.

    The HTTP layer (:mod:`repro.service.server`) maps requests onto
    :meth:`subscribe` and renders the delivered events as NDJSON lines;
    tests and the benchmark drive :meth:`stream`, a blocking iterator
    over the same subscription.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.cancel_event = threading.Event()
        self.context = ExperimentContext(
            fleet=config.fleet,
            store_dir=config.store_dir,
            shard_racks=config.shard_racks,
            shard_hours=config.shard_hours,
            reserved_cores=config.request_threads,
            cancel_event=self.cancel_event,
        )
        self.metrics = self.context.metrics
        self._flights: dict[Query, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._started = time.monotonic()
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=config.request_threads,
            thread_name_prefix="repro-serve",
        )
        self.context.pool = self._new_pool()

    # -- worker pool ------------------------------------------------------

    def pool_jobs(self) -> int:
        """Persistent-pool size: the resolved job count minus the cores
        the request threads occupy.

        ``resolve_jobs(0)`` alone would size the pool to every core;
        with ``request_threads`` threads also running query bodies (and
        folding shard results) the process would oversubscribe the
        machine by exactly that many cores.  ``reserved_cores`` applies
        the discount only to the auto-size case — an explicit ``--jobs``
        is taken literally.
        """
        return self.context.resolved_jobs()

    def _new_pool(self) -> ProcessPoolExecutor:
        """A fully warmed pool: every worker forks *now*.

        ProcessPoolExecutor spawns workers lazily, one per submission —
        which would fork them mid-request, and under the fork start
        method a worker forked while a client connection is open
        inherits that socket fd and keeps it alive long after the
        parent closes it.  Warming at creation (service start / pool
        replacement) pins every fork to a moment with no connections.
        """
        pool = ProcessPoolExecutor(
            max_workers=self.pool_jobs(), initializer=stop_inherited_tracer
        )
        for future in [pool.submit(_worker_pid) for _ in range(pool._max_workers)]:
            future.result()
        return pool

    def _replace_pool(self) -> None:
        """Swap in a fresh pool after a worker crash poisoned this one."""
        with self._pool_lock:
            broken, self.context.pool = self.context.pool, self._new_pool()
        self.metrics.incr(POOL_REPLACED)
        broken.shutdown(wait=False, cancel_futures=True)

    # -- query execution --------------------------------------------------

    def subscribe(self, query: Query, deliver: Deliver) -> None:
        """Start or join this query's flight; ``deliver`` (non-blocking)
        then gets each of its events, in order, from whichever thread
        produces it, the last being ``result`` or ``error``.

        The leader for a key executes the body on the request executor;
        coalesced followers only subscribe.  Events:

        ``{"event": "start", "query": ..., "coalesced": bool}``
        ``{"event": "shard", "tag": ..., "runs": ...}``  (per shard built)
        ``{"event": "result", "data": {...}}``
        ``{"event": "error", "error": type, "detail": str}``

        Raises :class:`ConfigError`, delivering nothing, once the
        service is shut down.
        """
        if self._closed:
            raise ConfigError("service is shut down")
        self.metrics.incr(REQUESTS)
        flight, leader = self._acquire_flight(query)
        if leader:
            try:
                future = self._executor.submit(self._run_flight, flight, query)
            except RuntimeError:  # the executor shut down since the check
                self._cancel_flight(flight, query)
                raise ConfigError("service is shut down") from None

            def cancelled(done) -> None:
                # A flight the drain cancels before it starts still ends.
                if done.cancelled():
                    self._cancel_flight(flight, query)

            future.add_done_callback(cancelled)
        deliver({"event": "start", "query": query.tag, "coalesced": not leader})
        flight.subscribe(deliver)

    def stream(self, query: Query):
        """Yield this query's events (see :meth:`subscribe`), blocking
        for each; the last is ``result`` or ``error``."""
        events: queue.SimpleQueue = queue.SimpleQueue()
        self.subscribe(query, events.put)
        while True:
            event = events.get()
            yield event
            if event["event"] in TERMINAL_EVENTS:
                return

    def _acquire_flight(self, query: Query) -> tuple[_Flight, bool]:
        with self._flights_lock:
            flight = self._flights.get(query)
            if flight is not None:
                self.metrics.incr(COALESCED)
                return flight, False
            flight = self._flights[query] = _Flight(query)
            return flight, True

    def _run_flight(self, flight: _Flight, query: Query) -> None:
        result: dict | None = None
        error: BaseException | None = None
        try:
            with self.metrics.span(f"serve/{query.kind}"):
                try:
                    result = self._execute(query, flight.publish)
                except WorkerCrashError as exc:
                    # The pool is poisoned; worker death is assumed
                    # transient (OOM kill, operator signal) exactly once
                    # per query.  The store's manifest-last atomicity
                    # means the crashed build reads as a miss, so the
                    # retry regenerates the missing shards.
                    self._replace_pool()
                    flight.publish(
                        {
                            "event": "retry",
                            "error": type(exc).__name__,
                            "detail": str(exc),
                        }
                    )
                    result = self._execute(query, flight.publish)
            self.metrics.incr(EXECUTED)
        except BaseException as exc:  # surfaced to every subscriber
            error = exc
            self.metrics.incr(FAILED)
        finally:
            self._end_flight(flight, query, result, error)

    def _end_flight(
        self, flight: _Flight, query: Query, result: dict | None, error: BaseException | None
    ) -> None:
        with self._flights_lock:
            self._flights.pop(query, None)
        flight.finish(result, error)

    def _cancel_flight(self, flight: _Flight, query: Query) -> None:
        """End a flight whose body never ran: the service is draining."""
        self.metrics.incr(FAILED)
        self._end_flight(
            flight, query, None, WorkerCancelled(0, 1, "the service is shutting down")
        )

    def _execute(self, query: Query, publish) -> dict:
        def on_shard(record: dict) -> None:
            publish(
                {
                    "event": "shard",
                    "tag": record.get("tag"),
                    "runs": record.get("runs"),
                    "bursts": record.get("bursts"),
                }
            )

        dataset = self.context.dataset(query.region, on_shard=on_shard)
        if query.kind == "dataset":
            return serialize_dataset(dataset)
        if query.kind == "table1":
            return serialize_table1(self.context.table1_row(query.region))
        if query.name == "hourly_boxes":
            return serialize_hourly_boxes(self.context.hourly_boxes(query.region))
        if query.name == "run_contention":
            return serialize_run_contention(self.context.run_contention(query.region))
        if query.name == "burst_contention":
            return serialize_burst_contention(
                self.context.burst_contention(query.region)
            )
        return serialize_profiles(self.context.profiles(query.region))

    # -- health and metrics ----------------------------------------------

    def healthz(self) -> dict:
        return {
            "status": "draining" if self._closed or self.cancel_event.is_set()
            else "ok",
            "uptime_s": time.monotonic() - self._started,
            "in_flight": len(self._flights),
        }

    def metrics_document(self) -> dict:
        """The ``/metrics`` body — schema-checked against the manifest
        family (see :mod:`repro.obs.manifest`)."""
        counters = self.metrics.counters()
        return build_service_metrics(
            self.config.fleet,
            {
                "requests": int(counters.get(REQUESTS, 0)),
                "queries_executed": int(counters.get(EXECUTED, 0)),
                "queries_coalesced": int(counters.get(COALESCED, 0)),
                "queries_failed": int(counters.get(FAILED, 0)),
                "pool_replaced": int(counters.get(POOL_REPLACED, 0)),
                "uptime_s": time.monotonic() - self._started,
                "request_threads": self.config.request_threads,
                "pool_jobs": self.pool_jobs(),
            },
            telemetry=self.metrics.snapshot(),
            store_dir=self.context.store_dir,
            shard_racks=self.context.shard_racks,
            shard_hours=self.context.shard_hours,
        )

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Graceful drain: stop admitting queries, cancel queued fleet
        work (in-flight build tasks finish; see ``run_windowed``), and
        release both executors.  A query still queued for a request
        thread ends with a ``WorkerCancelled`` error event.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.cancel_event.set()
        self._executor.shutdown(wait=wait, cancel_futures=True)
        with self._pool_lock:
            pool = self.context.pool
            self.context.pool = None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
