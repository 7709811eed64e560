"""The HTTP/JSON front door for the serving cluster.

``python -m repro serve --port N`` binds this server in front of a
:class:`ClusterService`.  It is stdlib-only by design (the container
bakes no web framework): an :mod:`asyncio` streams server with a small
hand-rolled HTTP/1.1 parser, JSON bodies in and out.

Endpoints::

    POST /query    {"algorithm": "sssp", "params": {"source": 0},
                    "version": null, "deadline_cycles": null}
                -> terminal response: status, worker, warm/cache flags,
                   latency in simulated cycles, state digest
    POST /update   a GraphDelta dict (add_edges/add_weights/
                   remove_edges/reweight/add_vertices)
                -> {"version": <new latest>}
    POST /compact  {"keep_last": 8}   -> {"pruned": <versions dropped>}
    GET  /healthz  liveness (the process answers)
    GET  /readyz   readiness (every worker slot alive; 503 otherwise)
    GET  /metrics  the aggregated obs.* snapshot across all workers

Bad input fails at the edge: a body over :data:`_MAX_BODY` gets a 413
and the connection is closed (its body is never read), and a body that
is not a JSON object gets a 400.  A batch the cluster cannot serve gets a
500 for each request of that batch only.

Concurrency model — the **admission/dispatch loop**: the event loop
owns the service.  Every query handler performs *admission* (a
``submit`` call, which applies the bounded-queue shed-newest policy)
and then parks on a future; a single background dispatcher task pulls
batches with ``dispatch_next`` and resolves the futures of every
request a batch answered.  Queries that arrive while a batch is in
flight coalesce in the service's batcher exactly as they do offline.
All service interaction runs on one single-threaded executor, so the
deterministic dispatcher is never entered concurrently while the event
loop stays free to answer health and metrics probes.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..service import STATUS_FAILED, ServeResponse
from ..store import GraphDelta
from .dispatch import ClusterService

_MAX_BODY = 8 * 1024 * 1024


class _RequestError(Exception):
    """A request rejected while it is read: answered with ``status``;
    ``close`` drops the connection (its body was left unread)."""

    def __init__(self, status: str, message: str, close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


def response_payload(response: ServeResponse) -> dict:
    """The JSON form of one terminal :class:`ServeResponse`."""
    return {
        "request_id": response.request_id,
        "status": response.status,
        "ok": response.ok,
        "query": response.key.label() if response.key else None,
        "worker": response.worker,
        "cache_hit": response.cache_hit,
        "warm": response.warm,
        "inherited": response.inherited,
        "fallback_reason": response.fallback_reason,
        "latency_cycles": response.latency_cycles,
        "completed_cycles": response.completed_cycles,
        "summary": response.summary,
    }


class ClusterHTTPServer:
    """Asyncio front door over one :class:`ClusterService`."""

    def __init__(
        self,
        service: ClusterService,
        host: str = "127.0.0.1",
        port: int = 8080,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: all service calls funnel through this one thread: admission
        #: and dispatch stay serialized (the service is not re-entrant)
        #: without blocking the event loop
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch"
        )
        self._waiters: Dict[int, asyncio.Future] = {}
        self._work = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port) —
        meaningful with ``port=0`` (ephemeral port)."""
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # The admission/dispatch loop.
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Drain the service's batcher whenever admissions signal work."""
        loop = asyncio.get_event_loop()
        while True:
            await self._work.wait()
            # a batch the cluster cannot serve comes back as ``failed``
            # responses for that batch's requests alone
            responses = await loop.run_in_executor(
                self._pool, self.service.dispatch_next
            )
            if responses is None:
                self._work.clear()
                continue
            for response in responses:
                waiter = self._waiters.pop(response.request_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(response)

    async def _serve_query(self, body: dict) -> ServeResponse:
        loop = asyncio.get_event_loop()
        outcome = await loop.run_in_executor(
            self._pool,
            lambda: self.service.submit(
                body.get("algorithm", ""),
                body.get("params") or {},
                body.get("version"),
                body.get("deadline_cycles"),
            ),
        )
        if isinstance(outcome, ServeResponse):
            return outcome  # shed at admission
        waiter: asyncio.Future = loop.create_future()
        self._waiters[outcome] = waiter
        self._work.set()
        return await waiter

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            close = False
            while not close:
                try:
                    request = await self._read_request(reader)
                except _RequestError as exc:
                    status, payload = exc.status, {"error": str(exc)}
                    close = exc.close
                else:
                    if request is None:
                        break
                    status, payload = await self._route(*request)
                data = (json.dumps(payload, sort_keys=True) + "\n").encode()
                writer.write(
                    (
                        f"HTTP/1.1 {status}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        f"Connection: {'close' if close else 'keep-alive'}\r\n"
                        "\r\n"
                    ).encode()
                    + data
                )
                await writer.drain()
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, dict]]:
        """Parse one request; ``None`` on a cleanly closed connection.

        Raises :class:`_RequestError` for a body over :data:`_MAX_BODY`
        (left unread) and for a body that is not a JSON object.
        """
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length > _MAX_BODY:
            raise _RequestError(
                "413 Payload Too Large",
                f"body of {content_length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit",
                close=True,
            )
        if content_length <= 0:
            return method, path, {}
        raw = await reader.readexactly(content_length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError included
            raise _RequestError(
                "400 Bad Request", "request body is not valid JSON"
            ) from None
        if not isinstance(body, dict):
            raise _RequestError(
                "400 Bad Request", "request body must be a JSON object"
            )
        return method, path, body

    async def _route(
        self, method: str, path: str, body: dict
    ) -> Tuple[str, dict]:
        loop = asyncio.get_event_loop()
        service = self.service
        try:
            if method == "GET" and path == "/healthz":
                return "200 OK", {
                    "status": "ok",
                    "workers": len(service.routing),
                    "transport": service.transport,
                }
            if method == "GET" and path == "/readyz":
                alive = await loop.run_in_executor(
                    self._pool, service.workers_alive
                )
                ready = all(alive.values())
                return (
                    "200 OK" if ready else "503 Service Unavailable",
                    {"ready": ready, "workers": alive},
                )
            if method == "GET" and path == "/metrics":
                snapshot = await loop.run_in_executor(
                    self._pool, service.metrics_snapshot
                )
                return "200 OK", {"metrics": snapshot}
            if method == "POST" and path == "/query":
                if not body.get("algorithm"):
                    return "400 Bad Request", {
                        "error": "missing 'algorithm'"
                    }
                response = await self._serve_query(body)
                if response.status == STATUS_FAILED:
                    return "500 Internal Server Error", {
                        **response_payload(response),
                        "error": response.error,
                    }
                return "200 OK", response_payload(response)
            if method == "POST" and path == "/update":
                delta = GraphDelta.from_dict(body)
                version = await loop.run_in_executor(
                    self._pool, service.apply_update, delta
                )
                return "200 OK", {
                    "version": version.version,
                    "delta": delta.describe(),
                }
            if method == "POST" and path == "/compact":
                keep_last = int(body.get("keep_last", 8))
                pruned = await loop.run_in_executor(
                    self._pool, service.compact, keep_last
                )
                return "200 OK", {
                    "pruned": pruned,
                    "first_version": service.store.first_version,
                }
            return "404 Not Found", {"error": f"no route {method} {path}"}
        except KeyError as exc:
            return "404 Not Found", {"error": str(exc)}
        except (ValueError, TypeError) as exc:
            return "400 Bad Request", {"error": str(exc)}
        except RuntimeError as exc:
            return "500 Internal Server Error", {"error": str(exc)}


async def run_server(
    service: ClusterService, host: str, port: int
) -> None:  # pragma: no cover - CLI glue, exercised by cluster-smoke
    """Start the front door and serve until cancelled (the CLI body)."""
    server = ClusterHTTPServer(service, host=host, port=port)
    bound_host, bound_port = await server.start()
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(workers={len(service.routing)}, transport={service.transport})",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.stop()
        service.close()
