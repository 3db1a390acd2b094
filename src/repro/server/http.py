"""Asyncio HTTP/1.1 front end for :class:`~repro.server.service.QueryService`.

Stdlib only — a hand-rolled request parser over ``asyncio.start_server``
instead of a web framework, because the protocol surface is four routes::

    GET  /health   -> {"status": "ok"}
    GET  /tables   -> {"tables": [...]}
    GET  /metrics  -> the service's full metrics snapshot (JSON);
                      ?format=prometheus serves the text exposition format
    POST /query    -> execute a JSON query body ("trace": true attaches spans)

The event loop never blocks on a query: request handling decodes bytes and
dispatches :meth:`QueryService.execute` onto a thread pool sized to the
service's admission limits (the gate inside the service, not the pool, is
what bounds concurrency — the pool merely needs enough threads that every
admitted-or-waiting query can hold one).  :class:`ServerError` subclasses
carry their own HTTP status; malformed JSON and validation failures map to
400, everything unexpected to 500 with the error message in the body.

:class:`BackgroundServer` hosts the whole loop on a daemon thread for
tests, benchmarks and examples: entering the context manager yields the
bound ``(host, port)`` (pass ``port=0`` for an ephemeral port), leaving it
stops the loop and joins the thread.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

from ..errors import CorraError
from .metrics import PROMETHEUS_CONTENT_TYPE, prometheus_exposition
from .service import QueryService, ServerError

__all__ = ["BackgroundServer", "CorraHttpServer"]

#: Largest accepted request body; queries are small JSON objects.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


def _raw_response(status: int, body: bytes, content_type: str) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _response(status: int, payload: dict) -> bytes:
    return _raw_response(status, json.dumps(payload).encode("utf-8"), "application/json")


class CorraHttpServer:
    """One service instance behind an asyncio TCP listener."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 8265):
        self._service = service
        self._host = host
        self._port = port
        # The service's own gate bounds concurrency; the pool just needs a
        # thread for every query that may be running or queue-waiting.
        cfg = service.config
        self._executor = ThreadPoolExecutor(
            max_workers=cfg.max_concurrency + cfg.queue_depth + 2,
            thread_name_prefix="corra-serve",
        )
        self._bound: tuple[str, int] | None = None

    @property
    def service(self) -> QueryService:
        return self._service

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` once :meth:`serve` has started."""
        if self._bound is None:
            raise RuntimeError("server is not running")
        return self._bound

    # -- request handling ------------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request: (method, path, body) or ``None`` on EOF."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > MAX_BODY_BYTES:
            raise ValueError("request body too large")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    async def _dispatch(self, method: str, path: str, body: bytes) -> bytes:
        path, _, query_string = path.partition("?")
        if method == "GET" and path == "/health":
            return _response(200, {"status": "ok"})
        if method == "GET" and path == "/tables":
            return _response(200, {"tables": list(self._service.tables())})
        if method == "GET" and path == "/metrics":
            snapshot = self._service.snapshot_metrics()
            if query_string == "format=prometheus":
                text = prometheus_exposition(snapshot, stages=snapshot.get("stages"))
                return _raw_response(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            return _response(200, snapshot)
        if path == "/query":
            if method != "POST":
                return _response(405, {"error": "use POST for /query"})
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                # RecursionError: a body nested too deep for the JSON parser.
                return _response(400, {"error": f"invalid JSON body: {exc}"})
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(
                    self._executor, self._service.execute, payload
                )
            except ServerError as exc:
                return _response(exc.status, {"error": str(exc)})
            except CorraError as exc:
                return _response(400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - defensive
                return _response(500, {"error": f"{type(exc).__name__}: {exc}"})
            return _response(200, result)
        return _response(404, {"error": f"no route {method} {path}"})

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, path, body = request
                writer.write(await self._dispatch(method, path, body))
                await writer.drain()
        except (ValueError, asyncio.IncompleteReadError) as exc:
            try:
                writer.write(_response(400, {"error": str(exc)}))
                await writer.drain()
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    # -- lifecycle -------------------------------------------------------------

    async def serve(self, stop: "asyncio.Event | None" = None, ready=None) -> None:
        """Accept connections until ``stop`` is set (forever when ``None``).

        ``ready(host, port)`` — if given — is called once the socket is
        bound, which is how ``port=0`` callers learn the ephemeral port.
        """
        server = await asyncio.start_server(self._handle, self._host, self._port)
        sockname = server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        if ready is not None:
            ready(*self._bound)
        try:
            async with server:
                if stop is None:
                    await server.serve_forever()
                else:
                    await stop.wait()
        finally:
            self._bound = None
            self._executor.shutdown(wait=True)


class BackgroundServer:
    """Run a :class:`CorraHttpServer` on a daemon thread (for tests/benchmarks).

    ::

        with BackgroundServer(service, port=0) as (host, port):
            http.client.HTTPConnection(host, port).request("GET", "/health")
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        self._server = CorraHttpServer(service, host=host, port=port)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server is not running")
        return self._address

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def ready(host: str, port: int) -> None:
            self._address = (host, port)
            self._ready.set()

        await self._server.serve(stop=self._stop, ready=ready)

    def _signal_stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    def __enter__(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="corra-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self.address

    def __exit__(self, *exc_info) -> None:
        self._signal_stop()
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._address = None
