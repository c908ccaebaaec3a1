"""Asyncio transport for ``repro serve``.

A deliberately small HTTP/1.0-style server over ``asyncio.start_server``
(TCP) and/or ``asyncio.start_unix_server`` (unix socket) — GET only,
``Connection: close``, no keep-alive — because the service is a local
sidecar, not an internet-facing daemon, and the standard library has no
HTTP server that streams from an asyncio loop without extra deps.

Endpoints::

    GET /healthz                       -> application/json
    GET /metrics                       -> application/json
        (schema millisampler-repro/service-metrics; see repro.obs.manifest)
    GET /v1/dataset?region=RegA        -> application/x-ndjson
    GET /v1/table1?region=RegA         -> application/x-ndjson
    GET /v1/figure?name=hourly_boxes&region=RegA -> application/x-ndjson

NDJSON responses stream one JSON object per line as the query
progresses — a ``start`` event (with ``"coalesced": true`` when the
request joined an in-flight identical query), one ``shard`` event per
shard the build lands, then exactly one terminal ``result`` or
``error`` event.  Identical concurrent requests receive bit-identical
event sequences (single-flight replay; see
:class:`repro.service.core._Flight`).  Every body is encoded by
:func:`encode_json`, which writes numpy result columns without building
a Python list.

Query bodies are blocking (process-pool fan-out, shard folds), so they
run on the service's request-thread executor, which hands each event to
the loop thread (``call_soon_threadsafe``); the loop thread only encodes
events and writes them to sockets.  SIGTERM/SIGINT trigger a graceful
drain: stop accepting, cancel queued fleet work, let in-flight build
tasks finish, then exit.  A query still queued for a request thread
ends with an ``error`` event, and a query that arrives after the drain
is refused with ``503``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import urllib.parse
from functools import partial

import numpy as np

from ..errors import ConfigError
from .core import TERMINAL_EVENTS, Query, QueryService

#: NDJSON routes -> query kind.
_QUERY_ROUTES = {
    "/v1/dataset": "dataset",
    "/v1/table1": "table1",
    "/v1/figure": "figure",
}

_MAX_REQUEST_BYTES = 65536


def _response_head(
    status: int, reason: str, content_type: str, framing: str
) -> bytes:
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{framing}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")


#: ``json.dumps(..., sort_keys=True)``'s encoder: sorted keys make
#: identical events byte-identical across requests.
_JSON = json.JSONEncoder(sort_keys=True)

#: A bool column's element encodings, indexed by value.
_BOOLS = np.array(["false", "true"], dtype=object)


def encode_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True)`` of ``obj`` with every numpy
    array in it replaced by its ``tolist()``, byte for byte: the one
    encoder of every body the server writes.

    A 1-D int, bool or str column encodes each distinct value once and
    joins the texts, so no Python object is built or escape-checked per
    element; a float column (its values need ``repr``) and any other
    array encode their ``tolist()``.  Containers without an array go to
    ``json`` whole.
    """
    if isinstance(obj, np.ndarray):
        return _encode_column(obj)
    if not _holds_array(obj):
        return _JSON.encode(obj)
    if isinstance(obj, dict):
        fields = (f"{_encode_key(key)}: {encode_json(value)}" for key, value in sorted(obj.items()))
        return "{" + ", ".join(fields) + "}"
    return "[" + ", ".join(map(encode_json, obj)) + "]"


def _holds_array(obj) -> bool:
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(map(_holds_array, obj))


def _encode_key(key) -> str:
    # json writes an int, float, bool or None key as its own encoding, quoted.
    return _JSON.encode(key if isinstance(key, str) else _JSON.encode(key))


def _encode_column(column: np.ndarray) -> str:
    kind = column.dtype.kind
    if column.ndim != 1 or column.size == 0 or kind not in "biuU":
        return _JSON.encode(column.tolist())
    if kind == "U":
        return _encode_strs(column)
    if kind == "b":
        parts = _BOOLS[column.astype(np.intp)]
    else:
        parts = _int_parts(column)
    return "[" + ", ".join(parts.tolist()) + "]"


def _int_parts(column: np.ndarray) -> np.ndarray:
    """Each element's text, from one text per value of the column's
    range when it is no wider than the column, else per distinct value."""
    low, high = int(column.min()), int(column.max())
    if high - low < column.size:
        # A narrow range: encode every value in it, index by offset.
        if column.dtype.itemsize < 8:
            column = column.astype(np.int64)
        offsets = column - column.dtype.type(low)
        texts = [str(value) for value in range(low, high + 1)]
    else:
        values, offsets = np.unique(column, return_inverse=True)
        texts = [str(value) for value in values.tolist()]
    return np.array(texts, dtype=object)[offsets.astype(np.intp)]


def _encode_strs(column: np.ndarray) -> str:
    # Runs of equal strings (one per rack in a rack-major column): each
    # distinct string is escaped once and each run repeats its text.
    starts = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    names = column[starts].tolist()
    lengths = np.diff(starts, append=column.size).tolist()
    texts = {name: _JSON.encode(name) + ", " for name in set(names)}
    return "[" + "".join([texts[name] * length for name, length in zip(names, lengths)])[:-2] + "]"


def _json_line(payload: dict) -> bytes:
    return (encode_json(payload) + "\n").encode("utf-8")


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


class ReproServer:
    """One :class:`QueryService` behind TCP and/or unix-socket listeners."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: str | None = None,
    ) -> None:
        if host is None and unix_socket is None:
            raise ConfigError("server needs a TCP listener or a unix socket")
        self.service = service
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self._servers: list[asyncio.base_events.Server] = []
        self._stopping: asyncio.Event | None = None

    @property
    def bound_port(self) -> int | None:
        """The actual TCP port (after binding port 0); None when
        serving only a unix socket."""
        for server in self._servers:
            for sock in server.sockets or ():
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return name[1]
        return None

    async def start(self) -> None:
        self._stopping = asyncio.Event()
        if self.host is not None:
            self._servers.append(
                await asyncio.start_server(self._handle, self.host, self.port)
            )
        if self.unix_socket is not None:
            self._servers.append(
                await asyncio.start_unix_server(self._handle, path=self.unix_socket)
            )

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until :meth:`request_stop` (or SIGTERM/SIGINT) fires,
        then drain gracefully."""
        if self._stopping is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):
                    pass
        await self._stopping.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Signal-safe stop request (idempotent)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        # Blocking drain (pool + executor teardown) off the loop thread.
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.shutdown
        )

    # -- request handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            writer.close()
            return
        if len(request) > _MAX_REQUEST_BYTES:
            await self._finish(writer, 400, "Bad Request", {"error": "oversized"})
            return
        try:
            line = request.split(b"\r\n", 1)[0].decode("ascii")
            method, target, _version = line.split(" ", 2)
        except ValueError:
            await self._finish(writer, 400, "Bad Request", {"error": "malformed"})
            return
        if method != "GET":
            await self._finish(
                writer, 405, "Method Not Allowed", {"error": "GET only"}
            )
            return
        parsed = urllib.parse.urlsplit(target)
        params = dict(urllib.parse.parse_qsl(parsed.query))
        try:
            await self._route(writer, parsed.path, params)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self, writer: asyncio.StreamWriter, path: str, params: dict
    ) -> None:
        if path == "/healthz":
            await self._finish(writer, 200, "OK", self.service.healthz())
            return
        if path == "/metrics":
            await self._finish(writer, 200, "OK", self.service.metrics_document())
            return
        kind = _QUERY_ROUTES.get(path)
        if kind is None:
            await self._finish(writer, 404, "Not Found", {"error": f"no route {path}"})
            return
        try:
            query = Query(
                kind=kind,
                region=params.get("region", "RegA"),
                name=params.get("name"),
            )
        except ConfigError as exc:
            await self._finish(writer, 400, "Bad Request", {"error": str(exc)})
            return
        await self._stream_query(writer, query)

    async def _stream_query(
        self, writer: asyncio.StreamWriter, query: Query
    ) -> None:
        # The flight hands each event to this loop from whichever thread
        # produces it.  Subscribing before the head goes out lets a
        # drained service refuse with a status, not a truncated 200.
        events: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()
        try:
            self.service.subscribe(query, partial(loop.call_soon_threadsafe, events.put_nowait))
        except ConfigError as exc:
            await self._finish(writer, 503, "Service Unavailable", {"error": str(exc)})
            return
        # Chunked framing, not read-to-EOF: long-lived pool workers can
        # hold an inherited duplicate of this socket (fork), so clients
        # must be able to recognize end-of-response without the FIN.
        writer.write(
            _response_head(
                200, "OK", "application/x-ndjson", "Transfer-Encoding: chunked"
            )
        )
        while True:
            event = await events.get()
            writer.write(_chunk(_json_line(event)))
            await writer.drain()
            if event["event"] in TERMINAL_EVENTS:
                break
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _finish(
        self, writer: asyncio.StreamWriter, status: int, reason: str, payload: dict
    ) -> None:
        body = _json_line(payload)
        writer.write(
            _response_head(
                status, reason, "application/json",
                f"Content-Length: {len(body)}",
            )
        )
        writer.write(body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


def run_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8787,
    unix_socket: str | None = None,
    ready=None,
) -> None:
    """Blocking entry point used by ``repro serve``.

    ``ready`` (optional callable) receives the bound TCP port once
    listeners are up — the CI smoke test and the concurrency suite use
    it to synchronize with port-0 binding.
    """

    async def _main() -> None:
        server = ReproServer(
            service, host=host, port=port, unix_socket=unix_socket
        )
        await server.start()
        if ready is not None:
            ready(server.bound_port)
        await server.serve_forever()

    asyncio.run(_main())
