"""Iteration-level (continuous) batching over one shared KV cache.

A static batcher cuts a batch, decodes it to completion, and only then
looks at the queue again — one long generation stalls the whole chip while
short requests queue behind it.  :class:`ContinuousScheduler` instead
re-forms the in-flight batch on *every decode step*:

- newly-submitted requests are admitted the moment a row is free, paying
  only a prefill (the paper's deploy-once hybrid SLC/MLC mapping means
  joining mid-flight never reprograms a crossbar — static weights stay
  put, only digital-PIM K/V rows are written);
- each live row decodes one token per iteration at its own sequence
  length (the ragged KV-cache path);
- finished rows retire immediately, their cache rows are compacted
  (swap-with-last via :meth:`~repro.nn.kv_cache.KVCache.copy_row`) and
  handed to the next queued request.

All rows live in ONE shared :class:`~repro.nn.kv_cache.KVCache` of
``max_batch_size`` rows, acquired from the engine's
:class:`~repro.serve.slots.CacheSlotPool` while work is in flight and
released back when the scheduler drains.  Live rows always occupy the
contiguous prefix ``[0, n_live)`` (managed by
:class:`~repro.serve.slots.RowSlotManager`), so the decode forward runs
over a zero-copy ``rows_view`` — no per-iteration reallocation.

Admission policy: strict FIFO under two limits — ``max_batch_size`` rows,
and an optional ``max_tokens`` budget bounding the total KV positions
(prompt + full budget) reserved by in-flight requests.  The head of the
queue never jumps; if it does not fit, admission waits for retirements.

Per-request outputs are token-for-token identical to one-shot
``DecoderLM.generate`` for greedy decoding: prefill runs the same
full-prompt forward, token selection goes through the same
``select_tokens``, and the ragged cached forward is the same code path
``generate`` uses (verified bitwise in the golden-trace tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.kv_cache import KVCache
from repro.nn.tensor import no_grad
from repro.nn.transformer import DecoderLM
from repro.serve.requests import GenerationRequest, RequestResult
from repro.serve.slots import CacheSlotPool, RowSlotManager

__all__ = ["ContinuousScheduler"]


@dataclass
class _RowState:
    """Bookkeeping for one in-flight request occupying one cache row."""

    request: GenerationRequest
    row: int
    admitted_at: float
    tokens: list[int] = field(default_factory=list)
    feed: int = 0  # last emitted token; input of the next decode forward
    remaining: int = 0  # budget left
    first_token_at: float | None = None
    finished: bool = False
    preempted: bool = False  # cut short by its deadline, not its budget


class ContinuousScheduler:
    """Iteration-level scheduler: admit / decode-one-token / retire.

    Driven by :meth:`ServingEngine.step`; one :meth:`step` call performs
    one scheduler iteration.  The engine owns the request queue, the
    result retention buffer and the stats; the scheduler owns the shared
    cache, the row slots and the per-row decode state.
    """

    def __init__(
        self,
        model: DecoderLM,
        slot_pool: CacheSlotPool,
        max_batch_size: int,
        clock: Callable[[], float],
        rng: np.random.Generator | None = None,
        eos_id: int | None = None,
        max_tokens: int | None = None,
    ) -> None:
        if max_tokens is not None and max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
        self.model = model
        self.slot_pool = slot_pool
        self.max_batch_size = max_batch_size
        self.clock = clock
        self.rng = rng
        self.eos_id = eos_id
        self.max_tokens = max_tokens
        self.slots = RowSlotManager(max_batch_size)
        self._rows: list[_RowState | None] = [None] * max_batch_size
        self._cache: KVCache | None = None
        self._reserved_tokens = 0  # sum of token_need over live rows
        self.last_decode_rows = 0  # rows advanced by the latest step()
        self.last_prefill_tokens = 0  # prompt tokens prefilled by the latest step()

    # ------------------------------------------------------------------
    @property
    def live(self) -> int:
        """Requests currently decoding (occupying cache rows)."""
        return self.slots.n_live

    @property
    def reserved_tokens(self) -> int:
        """KV positions (prompt + full budget) reserved by live rows."""
        return self._reserved_tokens

    def step(self, queue: list[GenerationRequest]) -> list[RequestResult]:
        """One scheduler iteration: admit, decode one token per row, retire.

        Admitted requests are popped from ``queue`` (FIFO).  Returns the
        requests that completed during this iteration.  Runs in eval mode
        under ``no_grad`` — decoding is inference, and dropout must stay
        frozen so continuous scheduling emits exactly what one-shot
        ``generate`` (which also decodes in eval mode) emits.
        """
        completed: list[RequestResult] = []
        self.last_decode_rows = 0
        self.last_prefill_tokens = 0
        # Module.eval() walks the whole module tree, so skip it when the
        # model is already in eval mode (the served steady state).
        was_training = self.model.training
        if was_training:
            self.model.eval()
        try:
            with no_grad():
                self._preempt_overdue(completed)  # frees rows before admission
                self._admit(queue, completed)
                self._sweep_finished(completed)  # budget-1 / instant-EOS rows
                self._decode_once()
                self._sweep_finished(completed)
        finally:
            if was_training:
                self.model.train()
        if self.live == 0 and self._cache is not None:
            # Drained: hand the shared cache back so other engines can
            # reuse the buffers; re-acquired on the next
            # admission (a pool hit).
            self.slot_pool.release(self._cache)
            self._cache = None
        return completed

    # ------------------------------------------------------------------
    # Deadline enforcement (SLO preemption)
    # ------------------------------------------------------------------
    def _preempt_overdue(self, completed: list[RequestResult]) -> None:
        """Preempt live rows whose deadline has passed.

        A preempted request is finalized with the tokens emitted so far
        (``preempted=True``) and retired by the following sweep, freeing
        its cache row for queued work.  The clock is only read when some
        live row actually carries a deadline, so deadline-free serving
        performs exactly the historical clock-call sequence (the
        deterministic fake-clock tests depend on that).
        """
        states = [s for s in self._rows[: self.live] if s is not None]
        if not any(s.request.deadline_at is not None for s in states):
            return
        now = self.clock()
        for state in states:
            deadline = state.request.deadline_at
            if not state.finished and deadline is not None and now > deadline:
                state.finished = True
                state.preempted = True
        self._sweep_finished(completed)

    def _expire_queued(
        self, queue: list[GenerationRequest], completed: list[RequestResult]
    ) -> None:
        """Expire queue-head requests that are already past their deadline.

        Only the head is examined (admission is strict FIFO within the
        engine's priority ordering); deeper over-deadline requests expire
        when they reach the head.  Expired requests complete unserved with
        empty tokens and ``preempted=True``.
        """
        while queue and queue[0].deadline_at is not None:
            if self.clock() <= queue[0].deadline_at:
                break
            request = queue.pop(0)
            result = self._empty_result(request, self.clock())
            result.preempted = True
            completed.append(result)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _fits(self, request: GenerationRequest) -> bool:
        if self.max_tokens is None or self.live == 0:
            # An empty scheduler always admits the head — otherwise a
            # request whose reservation alone exceeds max_tokens could
            # deadlock the queue (submit() rejects those up front; this is
            # defense in depth).
            return True
        return self._reserved_tokens + request.token_need <= self.max_tokens

    def _admit(self, queue: list[GenerationRequest], completed: list[RequestResult]) -> None:
        self._expire_queued(queue, completed)
        while queue and self.slots.free > 0 and self._fits(queue[0]):
            request = queue.pop(0)
            admitted_at = self.clock()
            if request.max_new_tokens == 0:
                completed.append(self._empty_result(request, admitted_at))
                continue
            if self._cache is None:
                self._cache = self.slot_pool.acquire(self.max_batch_size)
                self._cache.reset()
            row = self.slots.checkout()
            self._reserved_tokens += request.token_need
            state = _RowState(
                request=request,
                row=row,
                admitted_at=admitted_at,
                remaining=request.max_new_tokens,
            )
            self._rows[row] = state
            # Prefill through a zero-copy row view: other rows' K/V and
            # lengths are untouched while this request joins mid-flight.
            view = self._cache.row_view(row)
            view.reset()
            logits = self.model.prefill(request.prompt, view)
            token = self.model.select_tokens(logits, self.rng)
            self.last_prefill_tokens += int(request.prompt.size)
            self._emit(state, int(token[0]))
            self._expire_queued(queue, completed)

    def _empty_result(self, request: GenerationRequest, admitted_at: float) -> RequestResult:
        finished_at = self.clock()
        return RequestResult(
            request_id=request.request_id,
            prompt=request.prompt,
            tokens=np.array([], dtype=np.int64),
            queued_s=admitted_at - request.submitted_at,
            latency_s=finished_at - request.submitted_at,
            batch_size=max(1, self.live),
            ttft_s=finished_at - request.submitted_at,
            tpot_s=0.0,
        )

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def _emit(self, state: _RowState, token: int) -> None:
        """Record one generated token for a live row (callbacks included)."""
        now = self.clock()
        state.tokens.append(token)
        state.feed = token
        state.remaining -= 1
        if state.first_token_at is None:
            state.first_token_at = now
        if state.request.on_token is not None:
            state.request.on_token(state.request.request_id, token)
        if state.remaining == 0 or (self.eos_id is not None and token == self.eos_id):
            state.finished = True

    def _decode_once(self) -> None:
        """Advance every live row by one token (single ragged forward)."""
        n = self.live
        if n == 0:
            return
        self.last_decode_rows = n
        feeds = np.array([[self._rows[i].feed] for i in range(n)], dtype=np.int64)
        view = self._cache.rows_view(0, n)
        logits = self.model.forward(feeds, cache=view).data[:, -1]
        tokens = self.model.select_tokens(logits, self.rng)
        for i in range(n):
            self._emit(self._rows[i], int(tokens[i]))

    # ------------------------------------------------------------------
    # Retirement / compaction
    # ------------------------------------------------------------------
    def _sweep_finished(self, completed: list[RequestResult]) -> None:
        finished = [s for s in self._rows[: self.live] if s is not None and s.finished]
        if not finished:
            return
        batch_size = self.live  # concurrency during the finishing iteration
        for state in finished:
            completed.append(self._finalize(state, batch_size))
            self._retire_row(state)

    def _finalize(self, state: _RowState, batch_size: int) -> RequestResult:
        finished_at = self.clock()
        request = state.request
        n = len(state.tokens)
        tpot = (
            (finished_at - state.first_token_at) / (n - 1) if n > 1 else 0.0
        )
        return RequestResult(
            request_id=request.request_id,
            prompt=request.prompt,
            tokens=np.array(state.tokens, dtype=np.int64),
            queued_s=state.admitted_at - request.submitted_at,
            latency_s=finished_at - request.submitted_at,
            batch_size=batch_size,
            ttft_s=state.first_token_at - request.submitted_at,
            tpot_s=tpot,
            preempted=state.preempted,
        )

    def _retire_row(self, state: _RowState) -> None:
        row = state.row
        self._reserved_tokens -= state.request.token_need
        moved_src = self.slots.retire(row)
        if moved_src is None:
            self._rows[row] = None
            self._cache.clear_row(row)
            return
        # Swap-with-last compaction: relocate the old last live row into
        # the freed slot so live rows stay a contiguous prefix.
        self._cache.copy_row(moved_src, row)
        mover = self._rows[moved_src]
        mover.row = row
        self._rows[row] = mover
        self._rows[moved_src] = None
        self._cache.clear_row(moved_src)
