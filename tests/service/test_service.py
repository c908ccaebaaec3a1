"""Concurrency, exactness, and crash-recovery suite for ``repro serve``.

Covers the service contracts end to end:

* query validation and the flight-key tag;
* single-flight coalescing — N identical concurrent queries run ONE
  generation and every subscriber sees the same event sequence; a
  subscriber that raises never stops delivery to the others;
* bit-exactness — each NDJSON ``result`` line over real HTTP equals
  ``json.dumps(..., sort_keys=True)`` of the module serializers'
  output (columns as lists) on a one-shot :class:`ExperimentContext`
  (the CLI path) on a separate store;
* crash containment — SIGKILLing the pool's workers (idle and
  mid-build) yields a ``retry`` event, a replaced pool, a correct
  result, and a consistent shard store;
* the ``/metrics`` schema and the draining-shutdown behaviour: a query
  still queued at the drain ends with an ``error`` event (and the
  server exits), and a query that arrives after it gets ``503``.
"""

import copy
import glob
import http.client
import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.config import FleetConfig
from repro.errors import ConfigError, ManifestError
from repro.experiments.context import ExperimentContext
from repro.fleet import shards
from repro.obs.manifest import validate_service_metrics
from repro.service.core import (
    COALESCED,
    EXECUTED,
    FAILED,
    POOL_REPLACED,
    REQUESTS,
    Query,
    QueryService,
    ServiceConfig,
    _Flight,
    serialize_burst_contention,
    serialize_dataset,
    serialize_hourly_boxes,
    serialize_profiles,
    serialize_run_contention,
    serialize_table1,
)
from repro.service.server import encode_json
from tests.fleet.dataset_reference import decode_summaries
from tests.test_properties_encoder import reference

FLEET = FleetConfig(racks_per_region=2, runs_per_rack=2, seed=90125)


def _wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- query keys --------------------------------------------------------------


class TestQueryValidation:
    def test_tags(self):
        assert Query(kind="table1", region="RegB").tag == "table1/RegB"
        assert (
            Query(kind="figure", region="RegA", name="profiles").tag
            == "figure/RegA/profiles"
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "tables"},
            {"kind": "table1", "region": "RegC"},
            {"kind": "figure", "name": "pie_chart"},
            {"kind": "figure", "name": None},
            {"kind": "dataset", "name": "hourly_boxes"},
        ],
    )
    def test_invalid_queries_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Query(**{"region": "RegA", **kwargs})


# -- single flight -----------------------------------------------------------


class TestSingleFlight:
    def test_identical_concurrent_queries_share_one_generation(
        self, tmp_path, monkeypatch
    ):
        service = QueryService(
            ServiceConfig(fleet=FLEET, store_dir=str(tmp_path), request_threads=2)
        )
        try:
            release = threading.Event()
            calls = []

            def gated_execute(query, publish):
                calls.append(query)
                publish({"event": "shard", "tag": "t0", "runs": 1, "bursts": 0})
                assert release.wait(timeout=60)
                publish({"event": "shard", "tag": "t1", "runs": 2, "bursts": 0})
                return {"answer": 42}

            monkeypatch.setattr(service, "_execute", gated_execute, raising=False)

            query = Query(kind="table1", region="RegA")
            streams: list[list[dict] | None] = [None] * 5

            def client(slot: int) -> None:
                streams[slot] = list(service.stream(query))

            threads = [
                threading.Thread(target=client, args=(slot,)) for slot in range(5)
            ]
            for thread in threads:
                thread.start()
            # Hold the leader inside the body until every client has
            # requested — the late ones must coalesce, not regenerate.
            assert _wait_for(lambda: service.metrics.counter(REQUESTS) >= 5)
            release.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()

            assert len(calls) == 1  # ONE generation for five requests
            assert service.metrics.counter(COALESCED) == 4
            assert service.metrics.counter(EXECUTED) == 1
            coalesced_flags = sorted(events[0]["coalesced"] for events in streams)
            assert coalesced_flags == [False, True, True, True, True]
            # Identical event sequences for every subscriber, whether it
            # watched live or replayed the recorded prefix.
            reference = streams[0][1:]
            assert reference == [
                {"event": "shard", "tag": "t0", "runs": 1, "bursts": 0},
                {"event": "shard", "tag": "t1", "runs": 2, "bursts": 0},
                {"event": "result", "data": {"answer": 42}},
            ]
            for events in streams[1:]:
                assert events[1:] == reference
        finally:
            service.shutdown()

    def test_subscribers_racing_a_flight_see_every_event_once(self):
        """Threads that subscribe while a flight publishes (a short
        switch interval forces interleavings) each get the whole event
        sequence in order, with exactly one terminal event last."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(20):
                flight = _Flight(Query(kind="table1", region="RegA"))
                seen: list[list[dict]] = [[] for _ in range(8)]
                go = threading.Barrier(len(seen) + 1)

                def subscriber(events: list[dict]) -> None:
                    go.wait(timeout=30)
                    flight.subscribe(events.append)

                threads = [threading.Thread(target=subscriber, args=(events,)) for events in seen]
                for thread in threads:
                    thread.start()
                go.wait(timeout=30)
                for index in range(50):
                    flight.publish({"event": "shard", "index": index})
                flight.finish({"answer": 42}, None)
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                expected = [{"event": "shard", "index": index} for index in range(50)]
                expected.append({"event": "result", "data": {"answer": 42}})
                assert all(events == expected for events in seen)
        finally:
            sys.setswitchinterval(interval)

    def test_a_raising_subscriber_never_breaks_delivery(self):
        """A subscriber whose delivery raises (say, its event loop has
        closed) is dropped; the others get every event, the terminal
        one exactly once, whether they joined live or replayed."""
        flight = _Flight(Query(kind="table1", region="RegA"))
        before, after = [], []

        def broken(event):
            raise RuntimeError("Event loop is closed")

        flight.subscribe(broken)
        flight.subscribe(before.append)
        flight.publish({"event": "shard", "tag": "t0"})
        flight.subscribe(broken)
        flight.finish({"answer": 42}, None)
        flight.finish(None, RuntimeError("late"))  # only the first counts
        flight.subscribe(after.append)
        assert before == after == [
            {"event": "shard", "tag": "t0"},
            {"event": "result", "data": {"answer": 42}},
        ]


# -- result serializers ------------------------------------------------------


class TestSerializers:
    def test_burst_body_encodes_to_per_element_bytes(self, tmp_path):
        """The burst body's columns stay numpy arrays, and the transport
        encodes them to the bytes of converting every element to a
        Python value (rack names to ``str``) and ``json.dumps``."""
        ctx = ExperimentContext(fleet=FLEET, store_dir=str(tmp_path))
        view = ctx.burst_contention("RegA")
        body = serialize_burst_contention(view)
        assert view.racks.size > 0
        per_element = {
            "racks": [str(rack) for rack in view.racks],
            "max_contention": [int(value) for value in view.max_contention],
            "lossy": [bool(value) for value in view.lossy],
            "first_loss_contention": [int(value) for value in view.first_loss_contention],
        }
        assert encode_json(body) == json.dumps(per_element, sort_keys=True)


# -- HTTP transport and CLI equivalence --------------------------------------


@pytest.fixture
def served(tmp_path):
    """A real server (TCP + unix socket) on its own thread, plus the
    loop handle needed to stop it from the test thread."""
    import asyncio

    from repro.service.server import ReproServer

    service = QueryService(
        ServiceConfig(
            fleet=FLEET,
            store_dir=str(tmp_path / "store"),
            shard_racks=1,
            shard_hours=12,
            request_threads=2,
        )
    )
    socket_path = str(tmp_path / "repro.sock")
    server = ReproServer(service, host="127.0.0.1", port=0, unix_socket=socket_path)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_until_complete(server.serve_forever(install_signals=False))
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=30)
    yield server, service, socket_path
    loop.call_soon_threadsafe(server.request_stop)
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert service.healthz()["status"] == "draining"


def _get_lines(port: int, target: str, timeout: float = 300) -> list[str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        body = response.read()  # http.client strips the chunked framing
    finally:
        conn.close()
    return body.decode("utf-8").splitlines()


def _get_ndjson(port: int, target: str, timeout: float = 300) -> list[dict]:
    return [json.loads(line) for line in _get_lines(port, target, timeout)]


def _get_json(port: int, target: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHTTPService:
    def test_serve_matches_one_shot_cli_bit_for_bit(self, served, tmp_path):
        server, _service, socket_path = served
        port = server.bound_port

        status, health = _get_json(port, "/healthz")
        assert status == 200 and health["status"] == "ok"

        events = _get_ndjson(port, "/v1/table1?region=RegA")
        assert events[0] == {
            "event": "start",
            "query": "table1/RegA",
            "coalesced": False,
        }
        assert any(e["event"] == "shard" for e in events)
        assert events[-1]["event"] == "result"

        # The one-shot CLI path: a fresh context on a separate store,
        # serialized through the same module-level projection.
        oracle_ctx = ExperimentContext(
            fleet=FLEET, store_dir=str(tmp_path / "oracle-store")
        )
        oracle = serialize_table1(oracle_ctx.table1_row("RegA"))
        assert json.dumps(events[-1]["data"], sort_keys=True) == json.dumps(
            oracle, sort_keys=True
        )

        # Re-issuing the query hits the memoized dataset and returns the
        # identical payload (no shard events: nothing is rebuilt).
        again = _get_ndjson(port, "/v1/table1?region=RegA")
        assert again[-1] == events[-1]
        assert not any(e["event"] == "shard" for e in again)

    def test_result_lines_equal_the_reference_encoding(self, served, tmp_path):
        """Every query's ``result`` line over HTTP is exactly
        ``json.dumps(..., sort_keys=True)`` of the serializer output
        with its columns as lists, computed on a one-shot context."""
        server, _service, _socket_path = served
        oracle_ctx = ExperimentContext(
            fleet=FLEET, store_dir=str(tmp_path / "oracle-store")
        )
        for region in ("RegA", "RegB"):
            expected = {
                "/v1/dataset": serialize_dataset(oracle_ctx.dataset(region)),
                "/v1/table1": serialize_table1(oracle_ctx.table1_row(region)),
                "/v1/figure?name=hourly_boxes": serialize_hourly_boxes(
                    oracle_ctx.hourly_boxes(region)
                ),
                "/v1/figure?name=run_contention": serialize_run_contention(
                    oracle_ctx.run_contention(region)
                ),
                "/v1/figure?name=burst_contention": serialize_burst_contention(
                    oracle_ctx.burst_contention(region)
                ),
                "/v1/figure?name=profiles": serialize_profiles(oracle_ctx.profiles(region)),
            }
            for route, data in expected.items():
                separator = "&" if "?" in route else "?"
                lines = _get_lines(server.bound_port, f"{route}{separator}region={region}")
                assert lines[-1] == reference({"event": "result", "data": data}), route

    def test_dataset_body_matches_decoded_summaries(self, served, tmp_path):
        """``/v1/dataset`` answers from the run table; its body equals
        the shape of the summaries decoded from a one-shot store."""
        server, _service, _socket_path = served
        events = _get_ndjson(server.bound_port, "/v1/dataset?region=RegA")
        oracle_ctx = ExperimentContext(
            fleet=FLEET, store_dir=str(tmp_path / "oracle-store")
        )
        summaries = decode_summaries(oracle_ctx.dataset("RegA").to_region_dataset())
        assert events[-1]["data"] == {
            "region": "RegA",
            "runs": len(summaries),
            "racks": len({s.rack for s in summaries}),
            "hours": sorted({s.hour for s in summaries}),
        }

    def test_error_routes(self, served):
        server, _service, _socket_path = served
        port = server.bound_port
        status, body = _get_json(port, "/v1/figure?region=RegA&name=pie_chart")
        assert status == 400 and "pie_chart" in body["error"]
        status, _body = _get_json(port, "/nope")
        assert status == 404

    def test_metrics_endpoint_is_schema_valid(self, served):
        server, service, _socket_path = served
        port = server.bound_port
        _get_ndjson(port, "/v1/dataset?region=RegA")
        status, document = _get_json(port, "/metrics")
        assert status == 200
        validate_service_metrics(document)  # must not raise
        assert document["service"]["requests"] >= 1
        assert document["config"]["racks_per_region"] == FLEET.racks_per_region
        assert service.pool_jobs() == document["service"]["pool_jobs"]

    def test_unix_socket_listener(self, served):
        _server, _service, socket_path = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(socket_path)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: repro\r\n\r\n")
            raw = b""
            while True:  # Connection: close — read to EOF
                piece = sock.recv(65536)
                if not piece:
                    break
                raw += piece
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head.split(b"\r\n", 1)[0]
        assert json.loads(body)["status"] == "ok"


# -- crash containment -------------------------------------------------------


class TestCrashRecovery:
    @pytest.fixture(autouse=True)
    def one_run_batches(self, monkeypatch):
        """One-run fluid batches cut each region into one build task per
        run, so a build is still in flight when its first shard lands
        (the batch size never shapes data: the store is FLEET's)."""
        monkeypatch.setattr(shards, "FLUID_BATCH", 1)

    def _service(self, tmp_path) -> QueryService:
        return QueryService(
            ServiceConfig(
                fleet=FLEET,
                store_dir=str(tmp_path / "store"),
                shard_racks=1,
                shard_hours=12,
                request_threads=1,
            )
        )

    def _kill_workers(self, service: QueryService) -> None:
        for pid in list(service.context.pool._processes):
            os.kill(pid, signal.SIGKILL)

    def test_idle_worker_kill_is_retried_transparently(self, tmp_path):
        service = self._service(tmp_path)
        try:
            self._kill_workers(service)
            assert _wait_for(lambda: service.context.pool._broken)
            events = list(service.stream(Query(kind="table1", region="RegA")))
            assert any(e.get("event") == "retry" for e in events)
            assert events[-1]["event"] == "result"
            assert service.metrics.counter(POOL_REPLACED) == 1
            # The replacement pool serves subsequent queries normally.
            again = list(service.stream(Query(kind="table1", region="RegA")))
            assert again[-1] == events[-1]
            assert service.metrics.counter(POOL_REPLACED) == 1
        finally:
            service.shutdown()

    def test_mid_build_worker_kill_leaves_store_consistent(self, tmp_path):
        service = self._service(tmp_path)
        try:
            box: dict = {}

            def client() -> None:
                box["events"] = list(
                    service.stream(Query(kind="table1", region="RegB"))
                )

            thread = threading.Thread(target=client)
            thread.start()
            # Kill the moment the first shard file lands: the build is
            # mid-flight, the manifest (written last) does not exist yet.
            store_glob = os.path.join(str(tmp_path / "store"), "**", "*.npy")
            assert _wait_for(lambda: glob.glob(store_glob, recursive=True))
            self._kill_workers(service)
            thread.join(timeout=300)
            assert not thread.is_alive()

            events = box["events"]
            assert any(e.get("event") == "retry" for e in events)
            assert events[-1]["event"] == "result"
            assert service.metrics.counter(POOL_REPLACED) == 1
            # Store consistency: the crashed build read as a miss and the
            # retry republished; a fresh one-shot context on the same
            # store now opens it without rebuilding and agrees exactly.
            verify_ctx = ExperimentContext(
                fleet=FLEET,
                store_dir=str(tmp_path / "store"),
                shard_racks=1,
                shard_hours=12,
            )
            oracle = serialize_table1(verify_ctx.table1_row("RegB"))
            assert json.dumps(events[-1]["data"], sort_keys=True) == json.dumps(
                oracle, sort_keys=True
            )
        finally:
            service.shutdown()


# -- metrics schema and lifecycle --------------------------------------------


class TestLifecycleAndMetrics:
    def test_metrics_document_round_trip_and_tamper(self, tmp_path):
        service = QueryService(
            ServiceConfig(fleet=FLEET, store_dir=str(tmp_path), request_threads=1)
        )
        try:
            document = service.metrics_document()
            validate_service_metrics(document)  # must not raise
            tampered = copy.deepcopy(document)
            tampered["service"]["requests"] = "many"
            with pytest.raises(ManifestError):
                validate_service_metrics(tampered)
            missing = copy.deepcopy(document)
            del missing["service"]["pool_jobs"]
            with pytest.raises(ManifestError):
                validate_service_metrics(missing)
        finally:
            service.shutdown()

    def test_shutdown_drains_and_rejects_new_queries(self, tmp_path):
        service = QueryService(
            ServiceConfig(fleet=FLEET, store_dir=str(tmp_path), request_threads=1)
        )
        service.shutdown()
        service.shutdown()  # idempotent
        assert service.healthz()["status"] == "draining"
        assert service.cancel_event.is_set()
        with pytest.raises(ConfigError):
            list(service.stream(Query(kind="table1", region="RegA")))


def _gate(service: QueryService, monkeypatch) -> tuple[threading.Event, threading.Event]:
    """Replace the service's query body with one that blocks until
    released: returns (started, release)."""
    started, release = threading.Event(), threading.Event()

    def gated_execute(query, publish):
        started.set()
        assert release.wait(timeout=60)
        return {"answer": query.tag}

    monkeypatch.setattr(service, "_execute", gated_execute, raising=False)
    return started, release


class TestDrain:
    """A drain ends every query it admitted; later ones are refused.

    Each wait is bounded: a query that never ends fails the test."""

    def test_query_queued_at_drain_ends_with_an_error(self, tmp_path, monkeypatch):
        service = QueryService(
            ServiceConfig(fleet=FLEET, store_dir=str(tmp_path), request_threads=1)
        )
        started, release = _gate(service, monkeypatch)
        streams: dict[str, list[dict]] = {"running": [], "queued": []}

        def client(slot: str, query: Query) -> None:
            for event in service.stream(query):
                streams[slot].append(event)

        running = threading.Thread(
            target=client, args=("running", Query(kind="table1", region="RegA")), daemon=True
        )
        running.start()
        assert started.wait(timeout=30)
        queued = threading.Thread(
            target=client, args=("queued", Query(kind="table1", region="RegB")), daemon=True
        )
        queued.start()
        # Its start event follows the submit: the query is queued.
        assert _wait_for(lambda: streams["queued"])
        drain = threading.Thread(target=service.shutdown, daemon=True)
        drain.start()
        try:
            queued.join(timeout=30)
            assert not queued.is_alive(), "the queued query never ended"
        finally:
            release.set()
        drain.join(timeout=60)
        running.join(timeout=60)
        assert not drain.is_alive() and not running.is_alive()

        start, error = streams["queued"]
        assert start == {"event": "start", "query": "table1/RegB", "coalesced": False}
        assert error["event"] == "error" and error["error"] == "WorkerCancelled"
        assert "shutting down" in error["detail"]
        assert streams["running"][-1] == {"event": "result", "data": {"answer": "table1/RegA"}}
        assert service.metrics.counter(FAILED) == 1
        assert service.healthz()["in_flight"] == 0

    def test_server_exits_after_ending_a_queued_query(self, tmp_path, monkeypatch):
        """``repro serve``'s loop (``asyncio.run``) ends once a drain
        has cancelled a queued query, whose client reads an error."""
        import asyncio

        from repro.service.server import ReproServer

        service = QueryService(
            ServiceConfig(fleet=FLEET, store_dir=str(tmp_path), request_threads=1)
        )
        started, release = _gate(service, monkeypatch)
        server = ReproServer(service, host="127.0.0.1", port=0)
        ready = threading.Event()
        loops = []

        async def main() -> None:
            loops.append(asyncio.get_running_loop())
            await server.start()
            ready.set()
            await server.serve_forever(install_signals=False)

        serving = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
        serving.start()
        assert ready.wait(timeout=30)
        port = server.bound_port
        answers: dict[str, list[dict]] = {}

        def client(slot: str, region: str) -> None:
            answers[slot] = _get_ndjson(port, f"/v1/table1?region={region}", timeout=30)

        running = threading.Thread(target=client, args=("running", "RegA"), daemon=True)
        running.start()
        assert started.wait(timeout=30)
        queued = threading.Thread(target=client, args=("queued", "RegB"), daemon=True)
        queued.start()
        assert _wait_for(lambda: service.metrics.counter(REQUESTS) >= 2)
        loops[0].call_soon_threadsafe(server.request_stop)
        try:
            queued.join(timeout=40)
            assert not queued.is_alive()
        finally:
            release.set()
            running.join(timeout=60)
            serving.join(timeout=60)
            # A flight the drain left unended blocks a loop executor
            # thread, which the interpreter joins at exit: end it, so a
            # failure here fails the test instead of hanging the run.
            for flight in list(service._flights.values()):
                flight.finish(None, RuntimeError("left unended by the drain"))
        assert not running.is_alive()
        assert not serving.is_alive(), "the server never exited"
        assert [event["event"] for event in answers["queued"]] == ["start", "error"]
        assert answers["queued"][-1]["error"] == "WorkerCancelled"
        assert answers["running"][-1]["event"] == "result"

    @pytest.mark.parametrize("drained", ["service", "executor"])
    def test_query_after_drain_gets_503(self, served, drained):
        """A query the drained service cannot run is refused before any
        response head, never a ``200`` with a truncated body; so is one
        that finds only the request executor shut down."""
        server, service, _socket_path = served
        if drained == "service":
            service.shutdown()
        else:
            service._executor.shutdown(wait=True)
        status, body = _get_json(server.bound_port, "/v1/table1?region=RegA")
        assert (status, body) == (503, {"error": "service is shut down"})
        assert service.healthz()["in_flight"] == 0
