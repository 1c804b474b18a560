"""Churn tests for the cache rows under the continuous scheduler.

The scheduler keeps its live rows a contiguous prefix ``[0, live)`` by
swap-with-last compaction.  Across hundreds of randomized admissions,
budgets and deadlines its row bookkeeping must stay consistent — no
leaked rows, every live state on the row it claims — and its completions
and compaction count must agree with an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.serve import ServingEngine


@pytest.fixture
def model():
    return DecoderLM(
        TransformerConfig(
            vocab_size=16,
            d_model=8,
            num_heads=2,
            num_layers=1,
            d_ff=16,
            max_seq_len=16,
            seed=0,
        )
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@dataclass
class _Row:
    request_id: int
    remaining: int
    deadline: float | None
    finished: bool = False


class RowOracle:
    """Pure-python model of one scheduler step's row lifecycle.

    Admission is FIFO while a row is free and the pack fits
    ``max_seq_len``; the prefill emits each admitted row's first token and
    the decode one more per live row; deadlines expire queue heads and
    preempt live rows; finished rows retire swap-with-last.  ``step``
    returns the request ids completed, in completion order.
    """

    def __init__(self, rows: int, max_seq_len: int) -> None:
        self.rows = rows
        self.max_seq_len = max_seq_len
        self.queue: list[tuple[int, int, int, float | None]] = []
        self.live: list[_Row] = []  # in row order
        self.moves = 0

    def submit(self, request_id, prompt_len, budget, deadline) -> None:
        self.queue.append((request_id, prompt_len, budget, deadline))

    def _sweep(self, done: list[int]) -> None:
        for row in [r for r in self.live if r.finished]:
            index = self.live.index(row)
            done.append(row.request_id)
            last = self.live.pop()
            if index < len(self.live):
                self.live[index] = last
                self.moves += 1

    def _expire(self, now: float, done: list[int]) -> None:
        while self.queue and self.queue[0][3] is not None and now > self.queue[0][3]:
            done.append(self.queue.pop(0)[0])

    def _take_pack(self, done: list[int]) -> list[_Row]:
        pack, used = [], 0
        while self.queue and len(self.live) < self.rows:
            request_id, prompt_len, budget, deadline = self.queue[0]
            if budget > 0 and used + prompt_len > self.max_seq_len:
                break
            self.queue.pop(0)
            if budget == 0:
                done.append(request_id)
                continue
            row = _Row(request_id, budget - 1, deadline, finished=budget == 1)
            self.live.append(row)
            pack.append(row)
            used += prompt_len
        return pack

    def step(self, now: float) -> list[int]:
        done: list[int] = []
        if not self.live and not self.queue:
            return done
        if any(r.deadline is not None for r in self.live):
            for row in self.live:
                if row.deadline is not None and now > row.deadline:
                    row.finished = True
            self._sweep(done)
        self._expire(now, done)
        while self._take_pack(done):
            self._expire(now, done)
        self._sweep(done)
        for row in self.live:
            row.remaining -= 1
            row.finished = row.remaining == 0
        self._sweep(done)
        return done


class TestSchedulerRowChurn:
    def test_randomized_churn_matches_oracle(self, model):
        """600 random submit/step ops against the oracle: after every step
        the live states fill rows ``[0, live)`` each on its own index, the
        rest are empty, and completions and compaction moves agree."""
        rng = np.random.default_rng(42)
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=4, clock=clock)
        scheduler = engine._continuous
        oracle = RowOracle(4, model.config.max_seq_len)
        steps = 0
        for _ in range(600):
            if rng.random() < 0.45:
                prompt = rng.integers(0, 16, size=int(rng.integers(1, 9)))
                budget = int(rng.integers(0, 17 - prompt.size))
                deadline_s = float(rng.integers(1, 12)) if rng.random() < 0.3 else None
                rid = engine.submit(prompt, budget, deadline_s=deadline_s)
                deadline = None if deadline_s is None else clock.now + deadline_s
                oracle.submit(rid, prompt.size, budget, deadline)
                continue
            clock.now += float(rng.integers(0, 3))
            completed = [r.request_id for r in engine.step()]
            steps += 1
            assert completed == oracle.step(clock.now)
            live = scheduler.live
            assert live == len(oracle.live)
            for index, state in enumerate(scheduler._rows[:live]):
                assert state is not None and state.row == index
                assert state.request.request_id == oracle.live[index].request_id
            assert all(state is None for state in scheduler._rows[live:])
            assert engine.stats.compaction_moves == oracle.moves
        engine.run_until_idle()
        assert scheduler.live == 0 and not engine.busy
        assert all(state is None for state in scheduler._rows)
        assert steps > 250 and oracle.moves > 50

    def test_admission_never_takes_more_rows_than_exist(self, model, rng):
        """Five queued requests over three rows: the three oldest fill
        rows 0..2, the rest stay queued, and the row table never grows."""
        engine = ServingEngine(model, max_batch_size=3)
        scheduler = engine._continuous
        ids = [engine.submit(rng.integers(0, 16, size=3), 4) for _ in range(5)]
        engine.step()
        assert scheduler.live == 3 and engine.pending == 2
        assert len(scheduler._rows) == 3
        assert [state.request.request_id for state in scheduler._rows] == ids[:3]
        engine.run_until_idle()
        assert scheduler.live == 0 and len(scheduler._rows) == 3
    def test_engine_churn_leaves_no_leaks(self, model, rng):
        """End-to-end: continuous serving over many tiny busy periods
        leaves no live row behind, and the compaction count reaches the
        stats snapshot."""
        engine = ServingEngine(model, max_batch_size=3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            prompts = [rng.integers(0, 16, size=int(rng.integers(1, 6))) for _ in range(n)]
            engine.serve(prompts, max_new_tokens=int(rng.integers(1, 5)))
            assert engine.in_flight == 0
        assert engine._continuous.live == 0
        stats = engine.stats
        assert stats.compaction_moves > 0
        assert stats.as_dict()["compaction_moves"] == stats.compaction_moves
