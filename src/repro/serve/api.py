"""Asyncio HTTP streaming front-end over the serving engine.

The measured scale-out tier's front door: a stdlib-only
(:func:`asyncio.start_server`) HTTP/1.1 server that turns POSTed prompts
into :class:`~repro.serve.ServingEngine` requests (or
:class:`~repro.serve.replica.ReplicaPool` submissions) and streams tokens
back SSE-style as the continuous scheduler emits them.

Routes
------
``GET /healthz``
    Liveness probe: ``{"ok": true}``, or **503** once the driver has
    failed (see below) or, for a pool, once every replica is dead.
``GET /v1/stats``
    The engine's :meth:`~repro.serve.ServingStats.as_dict` snapshot (or
    the pool's outstanding/requeue counters).
``POST /v1/generate``
    Body: ``{"prompt": [int, ...], "max_new_tokens": int,
    "stream": bool, "priority": int | str, "deadline_s": float,
    "session": str}``.  ``stream: true`` responds as
    ``text/event-stream`` with one ``data: {"token": t}`` event per
    emitted token and a final ``data: {"done": ...}`` event carrying the
    full result; otherwise a single JSON body.

Driver supervision: an exception escaping the target's ``step``/``poll``
stops the driver thread and fails every in-flight request — **500** JSON,
or an SSE ``event: error`` on a stream already under way.  From then on
``/healthz`` and ``/v1/generate`` answer **503**.  A pool request that
resolves with an error (:attr:`~repro.serve.replica.PoolResult.error`)
gets the same 500 or SSE error, and the driver keeps running.  A client
that stalls mid-header is answered **408** after ``HEADER_TIMEOUT_S``.

Admission control (:class:`AdmissionPolicy`): a queue-depth bound that
returns **503** the moment queued + in-flight work passes the limit (the
open-loop load generator's back-pressure signal), named priority classes
mapped onto the engine's priority-ordered queue, and a default
per-request deadline after which a queued request expires unserved and a
decoding one is preempted (see :mod:`repro.serve.continuous`).

Threading model: the asyncio loop owns sockets only.  A dedicated driver
thread steps the engine (or polls the pool); tokens and completions cross
back into the loop via ``loop.call_soon_threadsafe`` onto per-request
``asyncio.Queue``\\ s.  Both targets lock their own book-keeping
(``ServingEngine`` submit/pop_result, ``ReplicaPool``'s internal RLock),
so the handler thread and driver thread never race.  Handlers never hold
``_waiters_lock`` across ``submit`` — a full replica inbox makes
``pool.submit`` poll (and fire token callbacks) on the submitting thread,
so the callbacks write straight to their captured queue instead.

The module also ships the blocking socket clients the tests and the
open-loop benchmark use (:func:`api_request`, :func:`stream_generate`) —
measured TTFT is *client-observed* (first SSE event arrival), not an
engine-side estimate.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdmissionPolicy", "ApiServer", "api_request", "stream_generate"]

#: Largest request body the server reads; a longer ``Content-Length`` is
#: answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20
#: Seconds a client gets to send the request line and headers; a slower
#: one is answered 408 and its connection closed.
HEADER_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class AdmissionPolicy:
    """SLO-aware admission knobs for :class:`ApiServer`.

    Parameters
    ----------
    max_queue_depth:
        Reject new generate requests with **503** once queued + in-flight
        requests reach this bound; ``None`` admits unconditionally.
    default_priority:
        Priority assigned when the request names none.
    default_deadline_s:
        Deadline attached when the request names none; ``None`` = no SLO.
    priority_classes:
        Named classes a request may use instead of a raw integer
        (``"priority": "interactive"``), e.g.
        ``{"interactive": 10, "batch": 0}``.
    """

    max_queue_depth: int | None = None
    default_priority: int = 0
    default_deadline_s: float | None = None
    priority_classes: dict = field(default_factory=dict)

    def resolve_priority(self, raw) -> int:
        """Map a request's raw priority (int, class name or None) to int."""
        if raw is None:
            return self.default_priority
        if isinstance(raw, str):
            if raw not in self.priority_classes:
                raise ValueError(f"unknown priority class {raw!r}")
            return int(self.priority_classes[raw])
        return int(raw)


def _json_response(status: int, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 408: "Request Timeout",
              413: "Content Too Large", 500: "Internal Server Error",
              503: "Service Unavailable"}.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


_SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\nConnection: close\r\n\r\n"
)


def _sse_event(payload: dict, event: str | None = None) -> bytes:
    head = b"" if event is None else f"event: {event}\n".encode()
    return head + b"data: " + json.dumps(payload).encode() + b"\n\n"


class ApiServer:
    """Streaming HTTP front-end over one engine or a replica pool.

    ``target`` is either a :class:`~repro.serve.ServingEngine` (driven by
    a background step thread; priority/deadline admission supported) or a
    :class:`~repro.serve.replica.ReplicaPool` (driven by a poll thread;
    requests are routed across replicas, SLO fields ignored by the
    workers).  Start with :meth:`start_in_thread` (tests/benchmarks) or
    await :meth:`start` inside an existing event loop.
    """

    def __init__(self, target, policy: AdmissionPolicy | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.target = target
        self.policy = policy or AdmissionPolicy()
        self.host = host
        self.port = port
        self.is_pool = hasattr(target, "poll")
        self.rejected = 0  # 503s issued by the queue-depth bound
        # Set (under _waiters_lock) when the driver thread died: the error
        # every in-flight and later request is failed with.
        self._failure: str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._waiters: dict[int, asyncio.Queue] = {}
        self._waiters_lock = threading.Lock()
        self._driver: threading.Thread | None = None
        self._running = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and launch the engine driver thread."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._running.set()
        self._driver = threading.Thread(target=self._drive, daemon=True)
        self._driver.start()

    async def stop(self) -> None:
        """Stop accepting, stop the driver, close the socket."""
        self._running.clear()
        if self._driver is not None:
            self._driver.join(timeout=5.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def start_in_thread(self) -> None:
        """Run the server on a dedicated event-loop thread; returns when ready."""
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            ready.set()
            loop.run_forever()
            loop.run_until_complete(self.stop())
            loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError("API server failed to start within 10s")

    def stop_in_thread(self) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    # Driver thread: steps the engine / polls the pool, pushes events
    # into the owning request's asyncio queue via the loop.
    # ------------------------------------------------------------------
    def _drive(self) -> None:
        try:
            while self._running.is_set():
                worked = False
                if self.is_pool:
                    worked = bool(self.target.poll())
                    self._collect_done()
                elif self.target.busy:
                    self.target.step(force=True)
                    self._collect_done()
                    worked = True
                if not worked:
                    time.sleep(0.0005)
        except Exception as exc:  # noqa: BLE001 - any target failure ends serving
            logging.getLogger(__name__).exception("API driver stopped")
            self._fail(f"{type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> None:
        """Record the driver's death and fail every in-flight waiter."""
        with self._waiters_lock:
            self._failure = message
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for queue in waiters:
            self._loop.call_soon_threadsafe(queue.put_nowait, ("error", message))

    def _collect_done(self) -> None:
        with self._waiters_lock:
            pending = list(self._waiters.keys())
        for request_id in pending:
            result = self.target.pop_result(request_id)
            if result is not None:
                error = getattr(result, "error", None)  # a pool's failed request
                self._push(request_id, ("error", error) if error else ("done", result))
                with self._waiters_lock:
                    self._waiters.pop(request_id, None)

    def _push(self, request_id: int, event) -> None:
        with self._waiters_lock:
            queue = self._waiters.get(request_id)
        if queue is not None and self._loop is not None:
            self._loop.call_soon_threadsafe(queue.put_nowait, event)

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> tuple[list[str], dict]:
        """The request line's fields and the lower-cased header dict."""
        parts = (await reader.readline()).decode("latin-1").split()
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return parts, headers

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                parts, headers = await asyncio.wait_for(
                    self._read_head(reader), HEADER_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                writer.write(_json_response(
                    408, {"error": f"headers not received within {HEADER_TIMEOUT_S}s"}
                ))
                await writer.drain()
                return
            if len(parts) < 2:
                return
            method, path = parts[0], parts[1]
            try:
                length = int(headers.get("content-length", 0))
            except ValueError:
                length = -1
            if length < 0:
                writer.write(_json_response(400, {"error": "malformed Content-Length"}))
                await writer.drain()
                return
            if length > MAX_BODY_BYTES:
                writer.write(_json_response(
                    413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
                ))
                await writer.drain()
                return
            body = await reader.readexactly(length) if length else b""
            await self._route(method, path, body, writer)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if method == "GET" and path == "/healthz":
            failure = self._failure
            if failure is None and self.is_pool and all(
                load is None for load in self.target.outstanding_tokens()
            ):
                failure = "every replica is dead"
            if failure is not None:
                writer.write(_json_response(503, {"ok": False, "error": failure}))
            else:
                writer.write(_json_response(200, {"ok": True}))
            await writer.drain()
            return
        if method == "GET" and path == "/v1/stats":
            writer.write(_json_response(200, self._stats()))
            await writer.drain()
            return
        if method == "POST" and path == "/v1/generate":
            await self._generate(body, writer)
            return
        writer.write(_json_response(404, {"error": f"no route {method} {path}"}))
        await writer.drain()

    def _stats(self) -> dict:
        if self.is_pool:
            return {
                "outstanding": self.target.outstanding,
                "requeues": self.target.requeues,
                "outstanding_tokens": self.target.outstanding_tokens(),
                "rejected": self.rejected,
            }
        stats = self.target.stats.as_dict()
        stats["pending"] = self.target.pending
        stats["in_flight"] = self.target.in_flight
        stats["rejected"] = self.rejected
        return stats

    def _depth(self) -> int:
        if self.is_pool:
            return self.target.outstanding
        return self.target.pending + self.target.in_flight

    async def _generate(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        if self._failure is not None:
            writer.write(_json_response(503, {"error": self._failure}))
            await writer.drain()
            return
        try:
            payload = json.loads(body.decode() or "{}")
            prompt = np.asarray(payload["prompt"], dtype=np.int64)
            max_new = int(payload.get("max_new_tokens", 16))
            stream = bool(payload.get("stream", False))
            priority = self.policy.resolve_priority(payload.get("priority"))
            deadline_s = payload.get("deadline_s", self.policy.default_deadline_s)
            if deadline_s is not None:
                deadline_s = float(deadline_s)
            session = payload.get("session")
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            writer.write(_json_response(400, {"error": str(exc)}))
            await writer.drain()
            return
        depth = self._depth()
        if self.policy.max_queue_depth is not None and depth >= self.policy.max_queue_depth:
            self.rejected += 1
            writer.write(_json_response(503, {"error": "overloaded", "depth": depth}))
            await writer.drain()
            return

        queue: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()

        def on_token(rid: int, token: int) -> None:
            # Fires on the driver thread — or on *this* thread when a full
            # replica inbox makes pool.submit() poll for back-pressure.
            # The queue is captured directly, so token delivery needs no
            # waiter registration and no lock (which is what lets submit()
            # run outside _waiters_lock below without dropping tokens).
            loop.call_soon_threadsafe(queue.put_nowait, ("token", int(token)))

        try:
            if self.is_pool:
                request_id = self.target.submit(
                    prompt, max_new, session=session, on_token=on_token)
            else:
                request_id = self.target.submit(
                    prompt, max_new, on_token=on_token,
                    priority=priority, deadline_s=deadline_s)
        except ValueError as exc:
            writer.write(_json_response(400, {"error": str(exc)}))
            await writer.drain()
            return
        # Register the waiter *after* submit: completions are retained by
        # the target until pop_result, and _collect_done only pops ids it
        # finds registered, so a result that lands in this gap is simply
        # delivered on the driver thread's next sweep.  Holding the lock
        # across submit instead would deadlock when pool back-pressure
        # re-enters via on_token on this same thread.  A driver that died
        # since the check above never sees this waiter, so fail it here.
        with self._waiters_lock:
            failure = self._failure
            if failure is None:
                self._waiters[request_id] = queue
        if failure is not None:
            queue.put_nowait(("error", failure))

        if stream:
            writer.write(_SSE_HEAD)
            await writer.drain()
        tokens: list[int] = []
        while True:
            kind, value = await queue.get()
            if kind == "token":
                tokens.append(int(value))
                if stream:
                    writer.write(_sse_event({"token": int(value)}))
                    await writer.drain()
                continue
            if kind == "error":
                if stream:
                    writer.write(_sse_event({"error": value}, event="error"))
                else:
                    writer.write(_json_response(500, {"error": value}))
                await writer.drain()
                return
            result = value  # "done"
            summary = {
                "done": True,
                "request_id": request_id,
                "tokens": [int(t) for t in result.tokens],
                "preempted": bool(result.preempted),
                "queued_s": result.queued_s,
                "latency_s": result.latency_s,
                "ttft_s": result.ttft_s,
                "tpot_s": result.tpot_s,
            }
            if stream:
                writer.write(_sse_event(summary))
            else:
                writer.write(_json_response(200, summary))
            await writer.drain()
            return


# ----------------------------------------------------------------------
# Blocking clients (tests + open-loop load generator)
# ----------------------------------------------------------------------
def _read_http_response(sock: socket.socket) -> tuple[int, bytes]:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body


def api_request(host: str, port: int, path: str, payload: dict | None = None,
                timeout_s: float = 30.0) -> tuple[int, dict]:
    """One blocking JSON request: ``(status, parsed body)``.

    GET when ``payload`` is None, POST otherwise.
    """
    body = b"" if payload is None else json.dumps(payload).encode()
    method = "GET" if payload is None else "POST"
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(head.encode() + body)
        status, raw = _read_http_response(sock)
    return status, json.loads(raw.decode() or "{}")


def stream_generate(host: str, port: int, payload: dict,
                    timeout_s: float = 60.0) -> dict:
    """POST ``/v1/generate`` with ``stream: true``; parse the SSE stream.

    Returns the final ``done`` summary plus *client-observed* timing:
    ``client_ttft_s`` (send -> first token event on the wire) and
    ``client_latency_s`` (send -> done event) — the measured numbers the
    open-loop benchmark records, as opposed to the engine's own view.  A
    non-200 reply returns its status and JSON body; a stream that ends in
    an SSE ``error`` event returns status 500, its ``error`` and the
    tokens received before it.
    """
    payload = dict(payload)
    payload["stream"] = True
    body = json.dumps(payload).encode()
    head = (
        f"POST /v1/generate HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    sent_at = time.perf_counter()
    first_token_at = None
    tokens: list[int] = []
    summary: dict = {}
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(head.encode() + body)
        buffer = b""
        header_seen = False
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
            if not header_seen:
                head_part, sep, rest = buffer.partition(b"\r\n\r\n")
                if not sep:
                    continue
                status = int(head_part.split()[1])
                if status != 200:
                    while chunk:
                        chunk = sock.recv(65536)
                        buffer += chunk
                    _, _, err_body = buffer.partition(b"\r\n\r\n")
                    return {"status": status, **json.loads(err_body.decode() or "{}")}
                buffer = rest
                header_seen = True
            while b"\n\n" in buffer:
                event, _, buffer = buffer.partition(b"\n\n")
                kind = b"message"
                if event.startswith(b"event: "):
                    line, _, event = event.partition(b"\n")
                    kind = line[len(b"event: "):]
                if not event.startswith(b"data: "):
                    continue
                data = json.loads(event[len(b"data: "):].decode())
                if kind == b"error":
                    return {"status": 500, "tokens": tokens, **data}
                if "token" in data:
                    if first_token_at is None:
                        first_token_at = time.perf_counter()
                    tokens.append(data["token"])
                elif data.get("done"):
                    summary = data
            if summary:
                break
    done_at = time.perf_counter()
    summary.setdefault("tokens", tokens)
    summary["status"] = 200
    summary["client_ttft_s"] = (
        (first_token_at or done_at) - sent_at
    )
    summary["client_latency_s"] = done_at - sent_at
    return summary
