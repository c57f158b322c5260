"""The asyncio HTTP server: routing, batching, backpressure, drain.

Stdlib only — :func:`asyncio.start_server` plus a small HTTP/1.1
request parser (``Connection: close`` per response; the service is a
compile server, not a CDN). The request path:

1. **Admission** — draining → 503; body over the cap → 413; malformed
   JSON / schema / source → 400 (parse diagnostics included).
2. **Cache** — the canonical content address (endpoint + nest digest +
   params digest) is looked up in the shared :class:`ResultCache`; a
   hit replays the stored bytes (``X-Repro-Cache: hit``).
3. **Single flight** — concurrent identical misses share one
   computation; only the leader enqueues work.
4. **Bounded queue** — a full queue answers 429 + ``Retry-After``
   instead of accepting unbounded work.
5. **Batched dispatch** — one dispatcher task drains the queue into
   batches (``batch_max`` / ``batch_window_ms``) and runs them through
   :func:`repro.experiments.common.run_sharded` on a worker thread
   with ``return_exceptions=True``: one poison request becomes a
   :class:`ShardFailure` row (→ 500 with traceback + input digest)
   while its batch siblings complete.
6. **Observability** — each completed job's pipeline counters are
   added into the server's long-lived ``Obs`` (its spans and remarks
   went into the response or nowhere, so the server retains none per
   request), a ``kind="server"`` ledger record is appended per request,
   and ``/metrics`` exports those counters with cache, queue,
   single-flight, and request counts.

Graceful shutdown (:meth:`ReproServer.shutdown`) stops accepting,
drains the queue and every in-flight response within
``drain_timeout_s``, then stops the dispatcher — in-flight requests
get their answers, not a reset connection.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

from repro.experiments.common import ShardFailure, run_sharded
# Not called here (requests carry their canonical text); perfbench's
# traced run wraps this name, so it stays importable.
from repro.ir.pretty import pretty_program  # noqa: F401
from repro.obs import NULL_OBS, Obs, use_obs
from repro.server.cache import ResultCache, SingleFlight
from repro.server.config import ServerConfig
from repro.server.handlers import execute
from repro.server.protocol import (
    SCHEMA_VERSION,
    ProtocolError,
    error_body,
    parse_request,
    render_body,
)

__all__ = ["ReproServer", "serve"]

_SENTINEL = None


class _Backpressure(Exception):
    """Raised by the enqueue supplier when the bounded queue is full."""


@dataclass
class _WorkItem:
    """One enqueued compile job awaiting dispatch."""

    endpoint: str
    key: str
    digest: str
    text: str  # canonical mini-Fortran text (picklable job input)
    params: dict
    fault: str
    future: asyncio.Future = field(repr=False)


@dataclass
class _Response:
    status: int
    body: bytes
    headers: dict


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ReproServer:
    """The compile service: one instance, one event loop, one cache.

    Lifecycle::

        server = ReproServer(ServerConfig.from_env(port=0))
        host, port = await server.start()
        ...
        await server.shutdown()   # graceful: drains in-flight work

    All mutable state (queue, single-flight table, counters) lives on
    the event loop; the only off-loop work is the batched compile call
    itself (``asyncio.to_thread`` → ``run_sharded``).
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig.from_env()
        self.cache = ResultCache(cap=self.config.cache_cap)
        self.flight = SingleFlight()
        self.obs = Obs()
        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.queue_depth
        )
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._draining = False
        self._open_requests = 0
        self._started_monotonic = 0.0
        self.requests_total = 0
        self.requests_by_status: dict[int, int] = {}
        self.requests_by_endpoint: dict[str, int] = {}

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start the dispatcher, return the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-server-dispatch"
        )
        self._started_monotonic = time.monotonic()
        return self.address

    async def shutdown(self) -> None:
        """Graceful stop: no new work, in-flight work drained, then halt.

        The drain budget is ``config.drain_timeout_s``; work still
        running past it is abandoned (its connections see a close), but
        within the budget every accepted request gets its response.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while (self._open_requests or not self._queue.empty()) and (
            time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        await self._queue.put(_SENTINEL)
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- HTTP plumbing ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            response = await self._respond(reader)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a handler bug must not kill the loop
            response = self._error(500, "internal-error", f"unhandled: {exc}")
        try:
            self._count(response)
            writer.write(self._render_http(response))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    def _render_http(self, response: _Response) -> bytes:
        reason = _REASONS.get(response.status, "Unknown")
        lines = [f"HTTP/1.1 {response.status} {reason}"]
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(response.body)),
            "Connection": "close",
            **response.headers,
        }
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + response.body

    def _count(self, response: _Response) -> None:
        self.requests_total += 1
        self.requests_by_status[response.status] = (
            self.requests_by_status.get(response.status, 0) + 1
        )

    def _error(
        self, status: int, code: str, message: str, detail: str = "",
        headers: dict | None = None,
    ) -> _Response:
        body = render_body(error_body(status, code, message, detail))
        return _Response(status, body, headers or {})

    async def _respond(self, reader) -> _Response:
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return self._error(400, "bad-request", "connection dropped")
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return self._error(400, "bad-request", "malformed request line")
        method, raw_path = parts[0], parts[1]
        path = raw_path.split("?", 1)[0]

        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()

        if method == "GET":
            if path == "/healthz":
                return self._healthz()
            if path == "/metrics":
                return self._metrics()
            return self._error(404, "not-found", f"no such path {path!r}")
        if method != "POST":
            return self._error(405, "method-not-allowed", f"{method} unsupported")
        if not path.startswith("/v1/"):
            return self._error(404, "not-found", f"no such path {path!r}")
        endpoint = path[len("/v1/"):]

        length_text = headers.get("content-length")
        if length_text is None:
            return self._error(411, "length-required", "Content-Length required")
        try:
            length = int(length_text)
        except ValueError:
            return self._error(400, "bad-request", "malformed Content-Length")
        if length > self.config.max_body_bytes:
            return self._error(
                413,
                "body-too-large",
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte cap "
                "(REPRO_SERVER_MAX_BODY_BYTES)",
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return self._error(400, "bad-request", "body shorter than declared")

        return await self._compile(endpoint, body)

    # -- introspection endpoints --------------------------------------

    def _healthz(self) -> _Response:
        payload = {
            "schema": SCHEMA_VERSION,
            "status": "draining" if self._draining else "ok",
        }
        return _Response(200, render_body(payload), {})

    def _metrics(self) -> _Response:
        payload = {
            "schema": SCHEMA_VERSION,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "draining": self._draining,
            "requests": {
                "total": self.requests_total,
                "by_status": {
                    str(status): count
                    for status, count in sorted(self.requests_by_status.items())
                },
                "by_endpoint": dict(sorted(self.requests_by_endpoint.items())),
            },
            "cache": self.cache.stats(),
            "singleflight": {
                "led": self.flight.led,
                "coalesced": self.flight.coalesced,
                "inflight": self.flight.leader_count(),
            },
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.config.queue_depth,
            },
            "counters": dict(
                sorted(self.obs.metrics.snapshot()["counters"].items())
            ),
            "config": self.config.describe(),
        }
        return _Response(200, render_body(payload), {})

    # -- the compile path ---------------------------------------------

    async def _compile(self, endpoint: str, body: bytes) -> _Response:
        started = time.monotonic()
        if self._draining:
            return self._error(
                503, "draining", "server is shutting down; no new work"
            )
        try:
            request = parse_request(endpoint, body, self.config.debug_faults)
        except ProtocolError as exc:
            return self._error(exc.status, exc.code, exc.message, exc.detail)
        if endpoint == "autotune":
            budget = min(
                request.params["budget"], self.config.max_autotune_budget
            )
            if budget != request.params["budget"]:
                request = replace(
                    request, params={**request.params, "budget": budget}
                )
        self.requests_by_endpoint[endpoint] = (
            self.requests_by_endpoint.get(endpoint, 0) + 1
        )

        # Fault-injected requests (test-only) bypass the result cache —
        # both lookup and fill — and coalesce only with each other.
        key = request.cache_key
        if request.fault:
            key = f"{key}:fault:{request.fault}"
        cached = self.cache.get(key) if not request.fault else None
        if cached is not None:
            self._ledger_record(
                endpoint, request.digest, request.params, 200, "hit", started
            )
            return _Response(
                200, cached, self._compile_headers("hit", request.digest, started)
            )

        item = _WorkItem(
            endpoint=endpoint,
            key=key,
            digest=request.digest,
            text=request.text,
            params=request.params,
            fault=request.fault,
            future=asyncio.get_running_loop().create_future(),
        )

        async def supplier() -> bytes:
            try:
                self._queue.put_nowait(item)
            except asyncio.QueueFull:
                raise _Backpressure()
            return await asyncio.shield(item.future)

        self._open_requests += 1
        try:
            raw = await asyncio.wait_for(
                self.flight.run(key, supplier), self.config.request_timeout_s
            )
        except _Backpressure:
            return self._error(
                429,
                "queue-full",
                f"request queue at capacity ({self.config.queue_depth}); "
                "retry shortly",
                headers={"Retry-After": "1"},
            )
        except (asyncio.TimeoutError, TimeoutError):
            self._ledger_record(
                endpoint, request.digest, request.params, 504, "timeout", started
            )
            return self._error(
                504,
                "timeout",
                f"request exceeded {self.config.request_timeout_s}s "
                "(REPRO_SERVER_REQUEST_TIMEOUT_S); the result may be "
                "cached when you retry",
            )
        except asyncio.CancelledError:
            # A coalesced follower whose leader timed out: same verdict.
            return self._error(
                504, "timeout", "shared in-flight computation timed out"
            )
        finally:
            self._open_requests -= 1

        status, response_body = raw
        cache_state = "miss" if status == 200 else "error"
        self._ledger_record(
            endpoint, request.digest, request.params, status, cache_state,
            started,
        )
        return _Response(
            status,
            response_body,
            self._compile_headers(cache_state, request.digest, started),
        )

    def _compile_headers(self, state: str, digest: str, started: float) -> dict:
        return {
            "X-Repro-Cache": state,
            "X-Repro-Digest": digest,
            "X-Repro-Elapsed-Ms": f"{(time.monotonic() - started) * 1000:.3f}",
        }

    # -- dispatcher ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the queue into batches and run them off-loop.

        One long-lived task; batches are cut at ``batch_max`` items or
        when ``batch_window_ms`` elapses after the first item arrives,
        whichever is first.
        """
        loop = asyncio.get_running_loop()
        window = self.config.batch_window_ms / 1000.0
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                return
            batch = [item]
            deadline = loop.time() + window
            while len(batch) < self.config.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    extra = await asyncio.wait_for(
                        self._queue.get(), remaining
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    break
                if extra is _SENTINEL:
                    await self._queue.put(_SENTINEL)
                    break
                batch.append(extra)
            calls = [
                (it.endpoint, it.text, it.digest, it.params, it.fault)
                for it in batch
            ]
            try:
                results = await asyncio.to_thread(self._run_batch, calls)
            except Exception as exc:  # defensive: the pool layer captures
                results = [
                    ShardFailure(error=f"batch dispatch failed: {exc}")
                ] * len(batch)
            for work, result in zip(batch, results):
                self._complete(work, result)

    def _run_batch(self, calls: list) -> list:
        """Run one batch through the experiment pool (worker thread).

        Under the *null* obs context, so ``run_sharded`` merges nothing on
        this thread: each job's metrics come back in its result tuple and
        ``_complete`` adds them on the event loop.
        """
        with use_obs(NULL_OBS):
            return run_sharded(
                execute, calls, jobs=self.config.jobs, return_exceptions=True
            )

    def _complete(self, work: _WorkItem, result) -> None:
        """Resolve one work item: cache + count on success, 500 on failure."""
        if isinstance(result, ShardFailure):
            self.obs.remark(
                "server",
                "failed",
                f"{work.endpoint} worker failure: {result.error}",
                reason="worker-failure",
                input_digest=result.input_digest,
            )
            payload = error_body(
                500,
                "worker-failure",
                f"compile job raised: {result.error}",
                detail=result.traceback,
            )
            payload["error"]["input_digest"] = result.input_digest
            outcome = (500, render_body(payload))
        else:
            payload, metrics = result
            self.obs.metrics.merge(metrics)
            body = render_body(payload)
            if not work.fault:
                self.cache.put(work.key, body)
            outcome = (200, body)
        if not work.future.done():
            work.future.set_result(outcome)

    # -- ledger --------------------------------------------------------

    def _ledger_record(
        self,
        endpoint: str,
        digest: str,
        params: dict,
        status: int,
        cache_state: str,
        started: float,
    ) -> None:
        """Append one ``kind="server"`` record (best-effort, never fatal)."""
        if not self.config.ledger:
            return
        from repro.obs import ledger

        if not ledger.ledger_enabled():
            return
        try:
            record = ledger.make_record(
                "server",
                argv=(endpoint, digest),
                config=dict(params),
                metrics={
                    "status": status,
                    "cache": cache_state,
                    "elapsed_ms": round(
                        (time.monotonic() - started) * 1000, 3
                    ),
                },
            )
            ledger.append_record(record)
        except Exception:
            pass


def serve(config: ServerConfig | None = None) -> int:
    """Blocking entry point: boot, run until SIGINT/SIGTERM, drain, exit."""
    import signal

    config = config or ServerConfig.from_env()

    async def _run() -> None:
        server = ReproServer(config)
        host, port = await server.start()
        print(
            f"repro.server listening on http://{host}:{port} "
            f"(jobs={config.jobs}, queue={config.queue_depth}, "
            f"cache={config.cache_cap})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        serving = asyncio.create_task(server.serve_forever(), name="repro-serve")
        await stop.wait()
        serving.cancel()
        try:
            await serving
        except (asyncio.CancelledError, RuntimeError):
            pass
        await server.shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0
