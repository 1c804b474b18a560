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
``max_batch_size`` rows, allocated on the first admission and reset
whenever a busy period starts, so its buffers serve every busy period of
the scheduler's life.  Live rows always occupy the contiguous prefix
``[0, live)`` — a retiring middle row is refilled by the last live row —
so the decode forward runs over a zero-copy ``rows_view``, with no
per-iteration reallocation.

Admission rule: strict FIFO while a row is free and the pack (below)
still fits the model's ``max_seq_len``.  The queue head never jumps.  The
cache is sized once, like the paper's deploy-time KV arrays, so no
per-request position budget applies.

Admitted requests prefill in *packs*: consecutive admissions whose
prompt tokens sum to at most the model's ``max_seq_len`` share one
:meth:`~repro.nn.transformer.DecoderLM.prefill` forward into their
contiguous rows (a pack always holds at least one request; zero-budget
requests complete without one).  A wave of short prompts thus pays one
forward's fixed cost, not one per request, and the rows already decoding
wait behind one forward instead of several.  The pack's static layers
run once over its real prompt positions — no padding, so only real
tokens reach the KV cells — while attention stays per request, over
exactly its own prompt on its own row, so each request's first-token
logits are its solo prefill's (bit for bit where the row-wise products
are exact).  A queue head whose deadline passes while a pack prefills
expires before the next pack forms.

Per-request outputs are token-for-token identical to one-shot
``DecoderLM.generate`` for greedy decoding: prefill attends over exactly
each prompt, token selection goes through the same ``select_tokens``,
and the ragged cached forward is the same code path ``generate`` uses
(verified in the golden-trace tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.kv_cache import KVCache
from repro.nn.tensor import no_grad
from repro.nn.transformer import DecoderLM
from repro.serve.requests import GenerationRequest, RequestResult

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
    cache, the live-row count and the per-row decode state.
    """

    def __init__(
        self,
        model: DecoderLM,
        max_batch_size: int,
        clock: Callable[[], float],
        rng: np.random.Generator | None = None,
        eos_id: int | None = None,
    ) -> None:
        self.model = model
        self.max_batch_size = max_batch_size
        self.clock = clock
        self.rng = rng
        self.eos_id = eos_id
        self.live = 0  # rows [0, live) hold in-flight requests
        self.compaction_moves = 0  # swap-with-last moves applied on retire
        self._rows: list[_RowState | None] = [None] * max_batch_size
        self._cache: KVCache | None = None
        self.last_decode_rows = 0  # rows advanced by the latest step()
        self.last_prefill_tokens = 0  # prompt tokens prefilled by the latest step()
        self.last_prefill_forwards = 0  # prefill forwards (packs) run by the latest step()

    # ------------------------------------------------------------------
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
        self.last_prefill_forwards = 0
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
    def _admit(self, queue: list[GenerationRequest], completed: list[RequestResult]) -> None:
        """Admit queued requests pack by pack, one prefill forward per pack."""
        self._expire_queued(queue, completed)
        while pack := self._take_pack(queue, completed):
            self._prefill(pack)
            self._expire_queued(queue, completed)

    def _take_pack(
        self, queue: list[GenerationRequest], completed: list[RequestResult]
    ) -> list[_RowState]:
        """Pop the next pack: queued requests whose prompts fit one forward.

        Requests are popped in FIFO order while a row is free and the
        pack's prompt tokens stay within the model's ``max_seq_len`` (a
        pack is never taller than the tallest prompt one request may
        bring, so its first request always fits).  Each popped request
        takes the next row, ``live``, so a pack's rows are contiguous.
        Zero-budget requests complete on the spot and never enter a pack.
        """
        pack: list[_RowState] = []
        budget = self.model.config.max_seq_len
        used = 0
        while queue and self.live < self.max_batch_size:
            request = queue[0]
            if request.max_new_tokens > 0 and used + request.prompt.size > budget:
                break
            queue.pop(0)
            admitted_at = self.clock()
            if request.max_new_tokens == 0:
                completed.append(self._empty_result(request, admitted_at))
                continue
            if self._cache is None:
                self._cache = self.model.new_cache(self.max_batch_size)
            elif self.live == 0:  # a busy period starts
                self._cache.reset()
            row = self.live
            self.live += 1
            state = _RowState(
                request=request,
                row=row,
                admitted_at=admitted_at,
                remaining=request.max_new_tokens,
            )
            self._rows[row] = state
            pack.append(state)
            used += request.prompt.size
        return pack

    def _prefill(self, pack: list[_RowState]) -> None:
        """Prefill a pack through a zero-copy view of its rows; emit first tokens.

        Other rows' K/V and lengths are untouched while the pack joins
        mid-flight.
        """
        view = self._cache.rows_view(pack[0].row, pack[-1].row + 1)
        view.reset()
        prompts = [state.request.prompt for state in pack]
        lengths = [prompt.size for prompt in prompts]
        logits = self.model.prefill(np.concatenate(prompts), view, lengths)
        tokens = self.model.select_tokens(logits, self.rng)
        self.last_prefill_tokens += sum(lengths)
        self.last_prefill_forwards += 1
        for state, token in zip(pack, tokens):
            self._emit(state, int(token))

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
        self.live -= 1
        moved_src = self.live
        if row == moved_src:
            self._rows[row] = None
            self._cache.clear_row(row)
            return
        # Swap-with-last compaction: relocate the old last live row into
        # the freed slot so live rows stay a contiguous prefix.
        self.compaction_moves += 1
        self._cache.copy_row(moved_src, row)
        mover = self._rows[moved_src]
        mover.row = row
        self._rows[row] = mover
        self._rows[moved_src] = None
        self._cache.clear_row(moved_src)
