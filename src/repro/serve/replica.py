"""Multi-process replica pool: data-parallel engines behind shared-memory rings.

The paper's replication case 2 deploys the *same* model onto N HyFlexPIM
chip sets, each programmed with its **own** conductance noise draw, and
load-balances requests across them.  :class:`ReplicaPool` is the serving
realization: N worker *processes*, each running one
:class:`~repro.serve.ServingEngine` built by a caller-supplied
``engine_factory(replica_index)`` (seed the backend per replica there —
independent draws come from the factory, not the pool), fed over
:mod:`multiprocessing.shared_memory` token/result rings.

Transport: one inbox + one outbox :class:`ShmRing` per replica — fixed
int64-word ring buffers with head/tail cursors, guarded by a
``multiprocessing.Lock`` each.  Requests travel parent -> inbox; emitted
tokens stream back one record at a time (outbox), and a final ``DONE``
record carries the authoritative token array plus timing, so streaming
callbacks and results both work across the process boundary.

Routing is pluggable (:class:`RoundRobinRouter`,
:class:`LeastOutstandingTokensRouter`, :class:`SessionAffinityRouter`) and
duck-typed: anything with ``pick(outstanding_tokens, session) -> index``.

Fault handling: :meth:`ReplicaPool.poll` detects a dead worker process
(``is_alive()`` false with work outstanding), marks it dead and
*requeues* its outstanding requests onto surviving replicas.  A
requeued request resumes: the survivor decodes after the prompt plus the
tokens already streamed, with the rest of the budget, so no token is
delivered twice.  A request whose stream already ended (budget spent, or
a token the worker flagged as its engine's ``eos_id``) completes in the
pool.  A request that has already been sent to every replica is not sent
again: it resolves with an error result (:attr:`PoolResult.error`).  A
request the replica's engine refuses at submit (say, a token id outside
the vocabulary) resolves with an error too, and the replica keeps
serving.

``processes=False`` runs every replica in-process but through the *same*
ring serialization, router and requeue code — the fast path the
hypothesis equivalence harness uses.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from multiprocessing import Lock, get_all_start_methods, get_context
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

__all__ = [
    "LeastOutstandingTokensRouter",
    "PoolResult",
    "ReplicaPool",
    "RoundRobinRouter",
    "SessionAffinityRouter",
    "ShmRing",
]

# Record kinds on the rings (first payload word after the length prefix).
KIND_REQUEST = 1
KIND_TOKEN = 2
KIND_DONE = 3
KIND_SHUTDOWN = 4
KIND_REJECTED = 5  # the replica's engine refused the request; reason follows

_HEADER_WORDS = 2  # [head, tail] cursors, in words past the header


def _f2i(x: float) -> int:
    """Bitcast a float64 to an int64 ring word."""
    return int(np.float64(x).view(np.int64))


def _i2f(x: int) -> float:
    """Bitcast an int64 ring word back to float64."""
    return float(np.int64(x).view(np.float64))


class ShmRing:
    """Fixed-capacity int64 record ring over a shared-memory segment.

    Single-producer/single-consumer in this repo's usage (one side of one
    replica), but every cursor update happens under the ring's
    ``multiprocessing.Lock`` so the implementation is safe regardless.
    Records are ``[n_words, *payload]``; the ring never splits a record's
    length prefix from its payload — readers see whole records or
    nothing.  ``push`` returns ``False`` when the record does not fit
    (caller backs off and retries); capacity must exceed the largest
    record by at least one word.
    """

    def __init__(self, capacity_words: int = 1 << 15, name: str | None = None) -> None:
        if capacity_words < 16:
            raise ValueError(f"capacity_words must be >= 16, got {capacity_words}")
        self.capacity = capacity_words
        nbytes = (capacity_words + _HEADER_WORDS) * 8
        if name is None:
            self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self.owner = True
        else:
            self.shm = shared_memory.SharedMemory(name=name)
            self.owner = False
        self.words = np.ndarray(
            (capacity_words + _HEADER_WORDS,), dtype=np.int64, buffer=self.shm.buf
        )
        if self.owner:
            self.words[:_HEADER_WORDS] = 0
        self.lock = Lock()

    @property
    def name(self) -> str:
        """Shared-memory segment name (attach handle for other processes)."""
        return self.shm.name

    def _used(self, head: int, tail: int) -> int:
        return (tail - head) % self.capacity

    def push(self, payload: list[int]) -> bool:
        """Append one record; False when the ring lacks space right now."""
        record = [len(payload)] + list(payload)
        if len(record) >= self.capacity:
            raise ValueError(
                f"record of {len(record)} words exceeds ring capacity {self.capacity}"
            )
        with self.lock:
            head, tail = int(self.words[0]), int(self.words[1])
            if self._used(head, tail) + len(record) >= self.capacity:
                return False
            for word in record:
                self.words[_HEADER_WORDS + tail] = word
                tail = (tail + 1) % self.capacity
            self.words[1] = tail
        return True

    def pop(self) -> list[int] | None:
        """Remove and return one record's payload, or None when empty."""
        with self.lock:
            head, tail = int(self.words[0]), int(self.words[1])
            if head == tail:
                return None
            n = int(self.words[_HEADER_WORDS + head])
            head = (head + 1) % self.capacity
            payload = []
            for _ in range(n):
                payload.append(int(self.words[_HEADER_WORDS + head]))
                head = (head + 1) % self.capacity
            self.words[0] = head
        return payload

    def close(self, unlink: bool = False) -> None:
        """Release the mapping (and the segment itself when ``unlink``)."""
        self.words = None
        self.shm.close()
        if unlink and self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # already unlinked by a racing close
                pass


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class RoundRobinRouter:
    """Cycle through live replicas in order, one request each."""

    def __init__(self) -> None:
        self._next = 0

    def pick(self, outstanding_tokens: list[int | None], session=None) -> int:
        """Next live replica index (dead replicas report ``None`` load)."""
        n = len(outstanding_tokens)
        for _ in range(n):
            index = self._next % n
            self._next += 1
            if outstanding_tokens[index] is not None:
                return index
        raise RuntimeError("no live replicas")


class LeastOutstandingTokensRouter:
    """Send each request to the replica with the fewest reserved tokens."""

    def pick(self, outstanding_tokens: list[int | None], session=None) -> int:
        """Live replica with minimal outstanding (prompt + budget) tokens."""
        live = [(load, i) for i, load in enumerate(outstanding_tokens) if load is not None]
        if not live:
            raise RuntimeError("no live replicas")
        return min(live)[1]


class SessionAffinityRouter:
    """Pin each session to one replica; spill sessions round-robin.

    Requests without a session fall back to the inner router, as do
    sessions whose pinned replica has died (they are re-pinned to the
    fallback's next pick).
    """

    def __init__(self, fallback=None) -> None:
        self.fallback = fallback if fallback is not None else RoundRobinRouter()
        self._pin: dict[object, int] = {}

    def pick(self, outstanding_tokens: list[int | None], session=None) -> int:
        """Pinned replica for the session (re-pinned if it died)."""
        if session is not None:
            pinned = self._pin.get(session)
            if pinned is not None and outstanding_tokens[pinned] is not None:
                return pinned
        choice = self.fallback.pick(outstanding_tokens, session)
        if session is not None:
            self._pin[session] = choice
        return choice


ROUTERS = {
    "round_robin": RoundRobinRouter,
    "least_outstanding_tokens": LeastOutstandingTokensRouter,
    "session_affinity": SessionAffinityRouter,
}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _serve_rings_once(engine, inbox: ShmRing, outbox: ShmRing) -> bool:
    """One worker iteration: drain inbox, step the engine, emit results.

    Returns False when a SHUTDOWN record was consumed (drain first, then
    exit).  Shared by the process worker loop and the inline pump, so
    both modes exercise identical serialization.
    """
    running = True
    eos_id = getattr(engine, "eos_id", None)
    while True:
        record = inbox.pop()
        if record is None:
            break
        kind = record[0]
        if kind == KIND_SHUTDOWN:
            running = False
            continue
        req_id, max_new, prompt_len = record[1], record[2], record[3]
        prompt = np.array(record[4 : 4 + prompt_len], dtype=np.int64)

        def stream(engine_rid: int, token: int, rid: int = req_id) -> None:
            # The last word flags a token that ends the request (EOS).
            while not outbox.push([KIND_TOKEN, rid, token, int(token == eos_id)]):
                time.sleep(0.0002)

        try:
            engine_rid = engine.submit(prompt, max_new, on_token=stream)
        except ValueError as exc:
            # Only this request fails; the worker keeps serving the rest.
            reason = list(str(exc).encode()[:256])
            while not outbox.push([KIND_REJECTED, req_id, *reason]):
                time.sleep(0.0002)
            continue
        engine._ring_ids = getattr(engine, "_ring_ids", {})
        engine._ring_ids[engine_rid] = req_id
    if engine.busy:
        ring_ids = getattr(engine, "_ring_ids", {})
        for result in engine.step():
            rid = ring_ids.pop(result.request_id, result.request_id)
            engine.pop_result(result.request_id)
            record = [
                KIND_DONE,
                rid,
                int(result.preempted),
                _f2i(result.queued_s),
                _f2i(result.latency_s),
                _f2i(result.ttft_s),
                _f2i(result.tpot_s),
                int(result.tokens.size),
                *(int(t) for t in result.tokens),
            ]
            while not outbox.push(record):
                time.sleep(0.0002)
    return running


def _replica_worker(engine_factory, index: int, inbox: ShmRing, outbox: ShmRing) -> None:
    """Worker process entry: build the replica's engine and serve forever."""
    engine = engine_factory(index)
    while True:
        busy_before = engine.busy
        if not _serve_rings_once(engine, inbox, outbox):
            # Shutdown requested: finish in-flight work, then exit.
            while engine.busy:
                _drain_results(engine, outbox)
            return
        if not busy_before and not engine.busy:
            time.sleep(0.0005)  # idle — don't spin the CPU


def _drain_results(engine, outbox: ShmRing) -> None:
    """Step once and flush completed results to the outbox (shutdown path)."""
    ring_ids = getattr(engine, "_ring_ids", {})
    for result in engine.step():
        rid = ring_ids.pop(result.request_id, result.request_id)
        engine.pop_result(result.request_id)
        record = [
            KIND_DONE,
            rid,
            int(result.preempted),
            _f2i(result.queued_s),
            _f2i(result.latency_s),
            _f2i(result.ttft_s),
            _f2i(result.tpot_s),
            int(result.tokens.size),
            *(int(t) for t in result.tokens),
        ]
        while not outbox.push(record):
            time.sleep(0.0002)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class PoolResult:
    """One completed request as seen by the pool's caller."""

    request_id: int
    replica: int
    tokens: np.ndarray
    queued_s: float
    latency_s: float
    ttft_s: float
    tpot_s: float
    preempted: bool = False
    #: why the request failed (its tokens are those streamed before), or
    #: None when it was served
    error: str | None = None


@dataclass
class _Outstanding:
    """Parent-side state of one routed-but-unfinished request."""

    request_id: int
    replica: int
    prompt: np.ndarray
    max_new_tokens: int
    session: object
    on_token: Callable[[int, int], None] | None
    #: tokens already delivered (streamed) for this request, in order
    streamed: list[int] = field(default_factory=list)
    #: streamed tokens the current replica was sent as prompt (its output
    #: continues after them)
    resumed: int = 0
    #: the last streamed token was flagged as ending the request (EOS)
    ended: bool = False
    #: replicas the request has been sent to
    sent_to: set[int] = field(default_factory=set)
    #: pool-clock times of submission and of the first and last streamed
    #: token (the submission time until a token arrives)
    submitted_at: float = field(default_factory=time.monotonic)
    first_token_at: float = field(init=False)
    last_token_at: float = field(init=False)
    token_need: int = field(init=False)

    def __post_init__(self) -> None:
        self.token_need = int(self.prompt.size) + self.max_new_tokens
        self.first_token_at = self.last_token_at = self.submitted_at


class ReplicaPool:
    """N data-parallel serving engines behind shared-memory rings.

    Parameters
    ----------
    engine_factory:
        ``factory(replica_index) -> ServingEngine``.  Build each replica's
        engine here — including its per-replica backend seed, which is
        what makes the paper's replication case 2 noise draws independent.
        With process workers the factory runs *in the child* (fork), so it
        may close over parent state.
    replicas:
        Number of engine workers.
    router:
        A router name from ``ROUTERS`` or any object with
        ``pick(outstanding_tokens, session) -> replica_index``.
    processes:
        True (default) forks one worker process per replica; False runs
        the replicas in-process through the identical ring/router path
        (deterministic and fast — what the equivalence tests use).
    ring_words:
        Per-ring capacity in int64 words (two rings per replica).

    Thread safety: :meth:`submit`, :meth:`poll`, :meth:`pop_result`,
    :meth:`outstanding_tokens` and :meth:`drain` may be called from
    different threads concurrently (e.g. an asyncio handler submitting
    while a driver thread polls) — all book-keeping runs under one
    internal re-entrant lock.  Streaming ``on_token`` callbacks fire with
    that lock held, so they must not call back into the pool.
    """

    def __init__(
        self,
        engine_factory: Callable[[int], object],
        replicas: int = 2,
        router="round_robin",
        processes: bool = True,
        ring_words: int = 1 << 15,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if processes and "fork" not in get_all_start_methods():
            raise RuntimeError(
                "ReplicaPool(processes=True) requires the 'fork' start "
                "method: workers inherit the live ShmRing mappings, "
                "which cannot be pickled for spawn. Use processes=False "
                "on this platform."
            )
        self.replicas = replicas
        self.router = ROUTERS[router]() if isinstance(router, str) else router
        self.processes = processes
        self.inboxes = [ShmRing(ring_words) for _ in range(replicas)]
        self.outboxes = [ShmRing(ring_words) for _ in range(replicas)]
        self._alive = [True] * replicas
        self._outstanding: dict[int, _Outstanding] = {}
        self._results: dict[int, PoolResult] = {}
        self._resolved: list[PoolResult] = []  # completed in the pool, for poll()
        self._next_id = 0
        self.requeues = 0  # requests re-routed off dead replicas
        self._engines = None
        self._workers: list = []
        # Re-entrant: submit() -> _send() back-pressure -> poll() re-enters
        # on the same thread; a concurrent driver-thread poll() serializes.
        self._lock = threading.RLock()
        if processes:
            ctx = get_context("fork")
            for index in range(replicas):
                worker = ctx.Process(
                    target=_replica_worker,
                    args=(engine_factory, index, self.inboxes[index], self.outboxes[index]),
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        else:
            self._engines = [engine_factory(index) for index in range(replicas)]

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Routed requests not yet completed."""
        with self._lock:
            return len(self._outstanding)

    def outstanding_tokens(self) -> list[int | None]:
        """Per-replica reserved (prompt + budget) tokens; None when dead."""
        with self._lock:
            loads: list[int | None] = [0] * self.replicas
            for index in range(self.replicas):
                if not self._alive[index]:
                    loads[index] = None
            for entry in self._outstanding.values():
                if loads[entry.replica] is not None:
                    loads[entry.replica] += entry.token_need
            return loads

    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        session=None,
        on_token: Callable[[int, int], None] | None = None,
    ) -> int:
        """Route one prompt to a replica; returns the pool request id.

        ``session`` feeds session-affinity routing; ``on_token`` streams
        tokens as :meth:`poll` drains them off the replica's outbox.
        """
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        with self._lock:
            replica = self.router.pick(self.outstanding_tokens(), session)
            request_id = self._next_id
            self._next_id += 1
            entry = _Outstanding(
                request_id=request_id,
                replica=replica,
                prompt=prompt,
                max_new_tokens=int(max_new_tokens),
                session=session,
                on_token=on_token,
            )
            self._outstanding[request_id] = entry
            self._send(entry)
        return request_id

    def _send(self, entry: _Outstanding) -> None:
        """Route ``entry`` to its replica, resuming after its streamed tokens.

        The replica sees the prompt plus every token already delivered, and
        only the rest of the budget, so a requeued stream continues where
        the client's copy ends.
        """
        entry.resumed = len(entry.streamed)
        entry.sent_to.add(entry.replica)
        record = [
            KIND_REQUEST,
            entry.request_id,
            entry.max_new_tokens - len(entry.streamed),
            int(entry.prompt.size) + len(entry.streamed),
            *(int(t) for t in entry.prompt),
            *entry.streamed,
        ]
        deadline = time.monotonic() + 5.0
        while not self.inboxes[entry.replica].push(record):
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"replica {entry.replica} inbox full for 5s — worker stuck?"
                )
            self.poll()
            time.sleep(0.0005)

    # ------------------------------------------------------------------
    def _pump_inline(self) -> None:
        for index, engine in enumerate(self._engines or []):
            if self._alive[index]:
                _serve_rings_once(engine, self.inboxes[index], self.outboxes[index])

    def poll(self) -> list[PoolResult]:
        """Drain replica outboxes: fire streaming callbacks, collect results.

        Also runs dead-replica detection — outstanding requests of a dead
        worker are requeued onto surviving replicas.  A requeued request
        resumes: the survivor decodes after the prompt plus the tokens
        already streamed, so no token is delivered twice, and a request
        whose stream already ended completes without a replica (and is
        returned by the same call).
        """
        with self._lock:
            if self._engines is not None:
                self._pump_inline()
            completed: list[PoolResult] = []
            for index in range(self.replicas):
                if not self._alive[index]:
                    continue
                while True:
                    record = self.outboxes[index].pop()
                    if record is None:
                        break
                    kind = record[0]
                    if kind == KIND_TOKEN:
                        entry = self._outstanding.get(record[1])
                        if entry is not None:
                            now = time.monotonic()
                            if not entry.streamed:
                                entry.first_token_at = now
                            entry.last_token_at = now
                            entry.streamed.append(record[2])
                            entry.ended = bool(record[3])
                            if entry.on_token is not None:
                                entry.on_token(entry.request_id, record[2])
                    elif kind == KIND_DONE:
                        entry = self._outstanding.pop(record[1], None)
                        if entry is None:
                            continue  # raced with a requeue — stale completion
                        # A resumed request's replica produced only the tail.
                        n = record[7]
                        tokens = entry.streamed[: entry.resumed] + record[8 : 8 + n]
                        result = PoolResult(
                            request_id=entry.request_id,
                            replica=index,
                            tokens=np.array(tokens, dtype=np.int64),
                            preempted=bool(record[2]),
                            queued_s=_i2f(record[3]),
                            latency_s=_i2f(record[4]),
                            ttft_s=_i2f(record[5]),
                            tpot_s=_i2f(record[6]),
                        )
                        self._results[entry.request_id] = result
                        completed.append(result)
                    elif kind == KIND_REJECTED:
                        entry = self._outstanding.get(record[1])
                        if entry is not None:
                            reason = bytes(record[2:]).decode(errors="replace")
                            self._finish_locally(
                                entry, f"replica {index} rejected the request: {reason}"
                            )
            self._detect_dead()
            completed.extend(self._resolved)
            self._resolved = []
            return completed

    def _detect_dead(self) -> None:
        if not self.processes:
            return
        for index, worker in enumerate(self._workers):
            if self._alive[index] and not worker.is_alive():
                self._alive[index] = False
                self._requeue_from(index)

    def _requeue_from(self, dead: int) -> None:
        """Finish, fail (sent to every replica) or re-send the requests on replica ``dead``."""
        victims = [e for e in self._outstanding.values() if e.replica == dead]
        resend = []
        for entry in victims:
            if entry.ended or len(entry.streamed) >= entry.max_new_tokens:
                # The whole stream already reached the client: finish here.
                self._finish_locally(entry)
            elif len(entry.sent_to) == self.replicas:
                error = f"replica {dead} died; the request was sent to all {self.replicas} replicas"
                self._finish_locally(entry, error)
            else:
                resend.append(entry)
        if resend and not any(self._alive):
            raise RuntimeError("all replicas dead with requests outstanding")
        for entry in resend:
            entry.replica = self.router.pick(self.outstanding_tokens(), entry.session)
            self.requeues += 1
            self._send(entry)

    def _finish_locally(self, entry: _Outstanding, error: str | None = None) -> None:
        """Resolve a request its replica cannot finish, with the tokens it streamed.

        The replica died or refused the request.  Served in full when its
        stream had ended, or failed with ``error``.
        Timings are the pool's: from submission to the first and last
        streamed token.  The replica's queueing is not observable here, so
        ``queued_s`` is 0.
        """
        del self._outstanding[entry.request_id]
        tokens = len(entry.streamed)
        result = PoolResult(
            request_id=entry.request_id,
            replica=entry.replica,
            tokens=np.array(entry.streamed, dtype=np.int64),
            queued_s=0.0,
            latency_s=entry.last_token_at - entry.submitted_at,
            ttft_s=entry.first_token_at - entry.submitted_at,
            tpot_s=(entry.last_token_at - entry.first_token_at) / max(1, tokens - 1),
            error=error,
        )
        self._results[entry.request_id] = result
        self._resolved.append(result)

    def kill_replica(self, index: int) -> None:
        """Forcefully terminate one replica (fault-injection test hook)."""
        if self.processes:
            self._workers[index].terminate()
            self._workers[index].join(timeout=5.0)
        else:
            with self._lock:
                self._alive[index] = False
                self._requeue_from(index)

    # ------------------------------------------------------------------
    def pop_result(self, request_id: int) -> PoolResult | None:
        """Claim (and forget) a completed request's result, if any."""
        with self._lock:
            return self._results.pop(request_id, None)

    def drain(self, timeout_s: float = 60.0) -> list[PoolResult]:
        """Poll until every outstanding request completed; results returned.

        Requests finished by earlier :meth:`poll` calls stay claimable via
        :meth:`pop_result` — only completions observed *during* the drain
        are returned here.
        """
        completed: list[PoolResult] = []
        deadline = time.monotonic() + timeout_s
        while self.outstanding or self._resolved:
            completed.extend(self.poll())
            if not self.outstanding:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{self.outstanding} requests outstanding after {timeout_s}s"
                )
            if self.processes:
                time.sleep(0.001)
        return completed

    def shutdown(self) -> None:
        """Drain-free stop: signal workers, join, release the rings."""
        if self.processes:
            for index in range(self.replicas):
                if self._alive[index]:
                    self.inboxes[index].push([KIND_SHUTDOWN])
            for worker in self._workers:
                worker.join(timeout=10.0)
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=5.0)
        for ring in self.inboxes + self.outboxes:
            ring.close(unlink=True)

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
