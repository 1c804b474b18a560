"""ApiServer: routes, SSE streaming, SLO-aware admission over the engine.

The streaming front door of the scale-out tier: every route is exercised
through real sockets against a server running on its own event-loop
thread, with the engine stepped by the driver thread — exactly the
production wiring.  Streaming responses must deliver the same tokens a
non-streaming request (and a bare ``DecoderLM.generate``) produces; the
admission policy's queue-depth bound must convert saturation into 503s;
priority classes and deadlines must thread through to the continuous
scheduler (a 0-deadline request comes back preempted).  A target whose
``step`` raises fails every in-flight request and turns the server
unhealthy; a client that stalls mid-header gets a 408.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.serve import AdmissionPolicy, ApiServer, ReplicaPool, ServingEngine
from repro.serve import api
from repro.serve.api import MAX_BODY_BYTES, stream_generate

VOCAB = 48


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


def _model(seed: int = 0) -> DecoderLM:
    return DecoderLM(
        TransformerConfig(
            vocab_size=VOCAB,
            d_model=32,
            num_heads=4,
            num_layers=2,
            d_ff=64,
            max_seq_len=32,
            seed=seed,
        )
    )


@pytest.fixture
def server():
    engine = ServingEngine(_model(), max_batch_size=4)
    srv = ApiServer(
        engine,
        policy=AdmissionPolicy(priority_classes={"interactive": 10, "batch": 0}),
    )
    srv.start_in_thread()
    yield srv
    srv.stop_in_thread()


def _prompt(rng, n=6):
    return [int(t) for t in rng.integers(0, VOCAB, size=n)]


class TestRoutes:
    def test_healthz(self, server):
        status, body = api_request(server.host, server.port, "/healthz")
        assert status == 200 and body == {"ok": True}

    def test_unknown_route_404(self, server):
        status, body = api_request(server.host, server.port, "/nope")
        assert status == 404 and "error" in body

    def test_bad_json_400(self, server):
        status, body = api_request(
            server.host, server.port, "/v1/generate", {"max_new_tokens": 4}
        )
        assert status == 400 and "error" in body

    def test_non_numeric_deadline_400(self, server, rng):
        status, body = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": _prompt(rng), "max_new_tokens": 2, "deadline_s": "1s"},
        )
        assert status == 400 and "error" in body

    def test_unknown_priority_class_400(self, server, rng):
        status, body = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": _prompt(rng), "max_new_tokens": 2, "priority": "warp"},
        )
        assert status == 400 and "warp" in body["error"]

    def test_out_of_vocabulary_token_400_then_serves(self, server, rng):
        status, body = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": [1, VOCAB, 2], "max_new_tokens": 2},
        )
        assert status == 400 and "token ids" in body["error"]
        status, body = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": _prompt(rng), "max_new_tokens": 2},
        )
        assert status == 200 and len(body["tokens"]) == 2

    def test_stats_reports_engine_counters(self, server, rng):
        status, _ = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": _prompt(rng), "max_new_tokens": 2},
        )
        assert status == 200
        status, stats = api_request(server.host, server.port, "/v1/stats")
        assert status == 200
        assert stats["requests_completed"] >= 1
        assert {"pending", "in_flight", "rejected"} <= stats.keys()


def _raw_post_status_line(server, content_length: str) -> bytes:
    """POST headers only (no body, write side closed); the reply's first
    line, empty when the server answers with nothing at all."""
    head = (
        f"POST /v1/generate HTTP/1.1\r\nHost: {server.host}\r\n"
        f"Content-Length: {content_length}\r\nConnection: close\r\n\r\n"
    )
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(head.encode())
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply.split(b"\r\n", 1)[0]


def _raw_post_status(server, content_length: str) -> int | None:
    """The status of :func:`_raw_post_status_line`'s reply, or None when
    the server answers with no HTTP status line at all."""
    parts = _raw_post_status_line(server, content_length).split()
    return int(parts[1]) if len(parts) >= 2 else None


class TestBodyLength:
    @pytest.mark.parametrize(
        "content_length, expected",
        [("abc", 400), ("-5", 400), (str(MAX_BODY_BYTES + 1), 413)],
        ids=["malformed", "negative", "oversize"],
    )
    def test_bad_content_length_gets_status_and_server_survives(
        self, server, content_length, expected
    ):
        assert _raw_post_status(server, content_length) == expected
        status, body = api_request(server.host, server.port, "/healthz")
        assert status == 200 and body == {"ok": True}

    def test_oversize_reply_names_its_status(self, server):
        line = _raw_post_status_line(server, str(MAX_BODY_BYTES + 1))
        assert line == b"HTTP/1.1 413 Content Too Large"


class TestHeaderTimeout:
    def test_stalled_request_line_gets_408(self, server, monkeypatch):
        """Half a request line and then silence: the server answers 408
        once the header time limit passes instead of holding the
        connection forever, and keeps serving."""
        monkeypatch.setattr(api, "HEADER_TIMEOUT_S", 0.2)
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /heal")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 408 Request Timeout"
        status, body = api_request(server.host, server.port, "/healthz")
        assert status == 200 and body == {"ok": True}

    def test_stalled_headers_get_408(self, server, monkeypatch):
        """A complete request line but headers that never end: the limit
        bounds the whole head, not just its first line."""
        monkeypatch.setattr(api, "HEADER_TIMEOUT_S", 0.2)
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nAcc")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 408 Request Timeout"
        status, body = api_request(server.host, server.port, "/healthz")
        assert status == 200 and body == {"ok": True}


class TestDriverSupervision:
    def test_step_exception_fails_in_flight_requests(self, rng):
        """An exception escaping ``step`` on the serving thread fails both
        in-flight requests — 500 JSON and an SSE error event — and from
        then on ``/healthz`` and ``/v1/generate`` answer 503."""
        engine = ServingEngine(_model(), max_batch_size=4)

        def step(force: bool = False) -> list:
            if engine.pending >= 2:  # both requests are in flight
                raise RuntimeError("backend exploded")
            return []

        engine.step = step
        server = ApiServer(engine)
        server.start_in_thread()
        try:
            plain: dict = {}

            def post() -> None:
                plain["reply"] = api_request(
                    server.host, server.port, "/v1/generate",
                    {"prompt": _prompt(rng), "max_new_tokens": 4}, timeout_s=10.0,
                )

            thread = threading.Thread(target=post)
            thread.start()
            while engine.pending < 1 and thread.is_alive():
                time.sleep(0.001)
            streamed = stream_generate(
                server.host, server.port,
                {"prompt": _prompt(rng), "max_new_tokens": 4}, timeout_s=10.0,
            )
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            status, body = plain["reply"]
            assert status == 500 and "backend exploded" in body["error"]
            assert streamed["status"] == 500 and "backend exploded" in streamed["error"]
            status, body = api_request(server.host, server.port, "/healthz")
            assert status == 503 and body["ok"] is False
            status, body = api_request(
                server.host, server.port, "/v1/generate",
                {"prompt": _prompt(rng), "max_new_tokens": 2},
            )
            assert status == 503 and "backend exploded" in body["error"]
        finally:
            server.stop_in_thread()

    def test_pool_poll_exception_fails_in_flight_request(self, rng):
        """The replica-pool target: an exception escaping ``poll``
        fails the waiting request with a 500 and leaves the server
        unhealthy."""
        pool = ReplicaPool(
            lambda index: ServingEngine(_model(), max_batch_size=4),
            replicas=1,
            processes=False,
        )
        poll = pool.poll

        def failing_poll() -> list:
            if pool._outstanding:
                raise RuntimeError("replica ring corrupted")
            return poll()

        pool.poll = failing_poll
        server = ApiServer(pool)
        server.start_in_thread()
        try:
            status, body = api_request(
                server.host, server.port, "/v1/generate",
                {"prompt": _prompt(rng), "max_new_tokens": 4}, timeout_s=10.0,
            )
            assert status == 500 and "replica ring corrupted" in body["error"]
            status, body = api_request(server.host, server.port, "/healthz")
            assert status == 503 and body["ok"] is False
        finally:
            server.stop_in_thread()
            pool.shutdown()


class TestGenerate:
    def test_tokens_match_bare_generate(self, server, rng):
        prompt = _prompt(rng)
        status, body = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": prompt, "max_new_tokens": 5},
        )
        assert status == 200 and body["done"]
        solo = _model().generate(np.array(prompt), 5)[len(prompt):]
        assert body["tokens"] == [int(t) for t in solo]
        assert body["latency_s"] >= body["queued_s"] >= 0.0

    def test_streaming_matches_non_streaming(self, server, rng):
        prompt = _prompt(rng)
        payload = {"prompt": prompt, "max_new_tokens": 6}
        _, plain = api_request(server.host, server.port, "/v1/generate", payload)
        streamed = stream_generate(server.host, server.port, payload)
        assert streamed["status"] == 200
        assert streamed["tokens"] == plain["tokens"]
        # Client-observed TTFT is measured on the wire and precedes e2e.
        assert 0.0 < streamed["client_ttft_s"] <= streamed["client_latency_s"]

    def test_deadline_zero_preempts_via_api(self, server, rng):
        status, body = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": _prompt(rng), "max_new_tokens": 8, "deadline_s": 0.0},
        )
        assert status == 200
        assert body["preempted"] is True
        assert len(body["tokens"]) < 8

    def test_priority_class_accepted(self, server, rng):
        status, body = api_request(
            server.host,
            server.port,
            "/v1/generate",
            {"prompt": _prompt(rng), "max_new_tokens": 3, "priority": "interactive"},
        )
        assert status == 200 and len(body["tokens"]) == 3


class TestAdmission:
    def test_queue_depth_bound_returns_503(self, rng):
        engine = ServingEngine(_model(), max_batch_size=4)
        server = ApiServer(engine, policy=AdmissionPolicy(max_queue_depth=0))
        server.start_in_thread()
        try:
            status, body = api_request(
                server.host,
                server.port,
                "/v1/generate",
                {"prompt": _prompt(rng), "max_new_tokens": 2},
            )
            assert status == 503 and body["error"] == "overloaded"
            _, stats = api_request(server.host, server.port, "/v1/stats")
            assert stats["rejected"] == 1
        finally:
            server.stop_in_thread()

    def test_streaming_client_surfaces_503(self, rng):
        engine = ServingEngine(_model(), max_batch_size=4)
        server = ApiServer(engine, policy=AdmissionPolicy(max_queue_depth=0))
        server.start_in_thread()
        try:
            out = stream_generate(
                server.host,
                server.port,
                {"prompt": _prompt(rng), "max_new_tokens": 2},
            )
            assert out["status"] == 503
        finally:
            server.stop_in_thread()

    def test_default_deadline_applies_when_request_names_none(self, rng):
        engine = ServingEngine(_model(), max_batch_size=4)
        server = ApiServer(engine, policy=AdmissionPolicy(default_deadline_s=0.0))
        server.start_in_thread()
        try:
            status, body = api_request(
                server.host,
                server.port,
                "/v1/generate",
                {"prompt": _prompt(rng), "max_new_tokens": 8},
            )
            assert status == 200 and body["preempted"] is True
        finally:
            server.stop_in_thread()

    def test_resolve_priority(self):
        policy = AdmissionPolicy(default_priority=3, priority_classes={"hi": 9})
        assert policy.resolve_priority(None) == 3
        assert policy.resolve_priority(7) == 7
        assert policy.resolve_priority("hi") == 9
        with pytest.raises(ValueError):
            policy.resolve_priority("nope")


class _SubmitTimeStreamTarget:
    """Engine stand-in whose submit() fires on_token *synchronously*.

    Models the replica-pool back-pressure path: a full inbox makes
    ``pool.submit`` poll, delivering token callbacks on the submitting
    (event-loop) thread before submit returns.  A handler holding a
    non-reentrant lock across submit while the callback re-acquires it
    would deadlock here — this target makes that path deterministic.
    """

    busy = True
    pending = 0
    in_flight = 0

    def __init__(self, n_tokens: int = 3) -> None:
        self.n_tokens = n_tokens
        self._results: dict[int, object] = {}
        self._next = 0
        self._lock = threading.Lock()

    def submit(self, prompt, max_new, on_token=None, **_ignored) -> int:
        with self._lock:
            rid = self._next
            self._next += 1
        tokens = list(range(self.n_tokens))
        if on_token is not None:
            for token in tokens:
                on_token(rid, token)
        with self._lock:
            self._results[rid] = SimpleNamespace(
                tokens=np.array(tokens, dtype=np.int64),
                preempted=False,
                queued_s=0.0,
                latency_s=0.0,
                ttft_s=0.0,
                tpot_s=0.0,
            )
        return rid

    def step(self, force: bool = False) -> list:
        return []

    def pop_result(self, request_id: int):
        with self._lock:
            return self._results.pop(request_id, None)


class TestSubmitTimeCallbacks:
    def test_synchronous_on_token_during_submit_does_not_deadlock(self):
        server = ApiServer(_SubmitTimeStreamTarget(n_tokens=4))
        server.start_in_thread()
        try:
            out = stream_generate(
                server.host,
                server.port,
                {"prompt": [1, 2, 3], "max_new_tokens": 4},
                timeout_s=10.0,
            )
            assert out["status"] == 200
            assert out["tokens"] == [0, 1, 2, 3]
        finally:
            server.stop_in_thread()


class TestPoolTarget:
    def test_server_over_inline_pool(self, rng):
        pool = ReplicaPool(
            lambda index: ServingEngine(_model(), max_batch_size=4),
            replicas=2,
            processes=False,
        )
        server = ApiServer(pool, policy=AdmissionPolicy(max_queue_depth=32))
        server.start_in_thread()
        try:
            prompt = _prompt(rng)
            status, body = api_request(
                server.host,
                server.port,
                "/v1/generate",
                {"prompt": prompt, "max_new_tokens": 4, "session": "s1"},
            )
            assert status == 200
            solo = _model().generate(np.array(prompt), 4)[len(prompt):]
            assert body["tokens"] == [int(t) for t in solo]
            _, stats = api_request(server.host, server.port, "/v1/stats")
            assert stats["outstanding"] == 0
            assert stats["requeues"] == 0
            assert len(stats["outstanding_tokens"]) == 2
        finally:
            server.stop_in_thread()
            pool.shutdown()

    def test_healthz_fails_once_every_replica_is_dead(self):
        pool = ReplicaPool(
            lambda index: ServingEngine(_model(), max_batch_size=4),
            replicas=1,
            processes=False,
        )
        server = ApiServer(pool)
        server.start_in_thread()
        try:
            status, body = api_request(server.host, server.port, "/healthz")
            assert (status, body) == (200, {"ok": True})
            pool.kill_replica(0)
            status, body = api_request(server.host, server.port, "/healthz")
            assert status == 503
            assert body == {"ok": False, "error": "every replica is dead"}
        finally:
            server.stop_in_thread()
            pool.shutdown()

    def test_failed_pool_request_fails_alone(self, rng):
        """A pool request that resolves with an error (its only replica
        died) is answered 500 with that error; the driver keeps running."""
        pool = ReplicaPool(
            lambda index: ServingEngine(_model(), max_batch_size=4),
            replicas=1,
            processes=False,
        )
        poll = pool.poll

        def killing_poll() -> list:
            if pool._outstanding and pool._alive[0]:
                pool.kill_replica(0)
            return poll()

        pool.poll = killing_poll
        server = ApiServer(pool)
        server.start_in_thread()
        try:
            status, body = api_request(
                server.host, server.port, "/v1/generate",
                {"prompt": _prompt(rng), "max_new_tokens": 4}, timeout_s=10.0,
            )
            assert status == 500
            assert body["error"] == "replica 0 died; the request was sent to all 1 replicas"
            assert server._failure is None
        finally:
            server.stop_in_thread()
            pool.shutdown()
