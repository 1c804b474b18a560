"""Thread-safe ingress: concurrent submit/pop_result against a stepping engine.

PR-10 regression: ``ServingEngine.submit`` and ``pop_result`` are called
from API handler threads while a driver thread runs ``step`` — the
ingress deque, completion buffer and counters must tolerate that without
losing, duplicating or corrupting requests.  The hammer drives many
producer threads against a dedicated stepper and checks every request
completes exactly once with exactly the tokens a serial engine produces.
Also covers the latency split that rode along: ``queued_s`` (admission
wait) vs service time, threaded through ``RequestResult`` and
``ServingStats``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.serve import ServingEngine

VOCAB = 48


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


class TestConcurrentSubmit:
    def test_hammer_submit_while_stepping(self, rng):
        """4 producer threads x 8 requests against a free-running stepper."""
        producers, per_producer, budget = 4, 8, 4
        prompts = {
            (p, i): rng.integers(0, VOCAB, size=int(rng.integers(2, 8)))
            for p in range(producers)
            for i in range(per_producer)
        }
        # Serial reference: same prompts, one engine, no threads.
        reference = ServingEngine(_model(), max_batch_size=4)
        ref_ids = {key: reference.submit(prompt, budget) for key, prompt in prompts.items()}
        ref = {r.request_id: r for r in reference.run_until_idle()}
        expected = {key: ref[rid].tokens for key, rid in ref_ids.items()}

        engine = ServingEngine(_model(), max_batch_size=4)
        ids: dict[tuple[int, int], int] = {}
        ids_lock = threading.Lock()
        stop = threading.Event()
        errors: list[BaseException] = []

        def stepper() -> None:
            try:
                while not stop.is_set() or engine.busy:
                    if engine.busy:
                        engine.step()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        def producer(p: int) -> None:
            try:
                for i in range(per_producer):
                    rid = engine.submit(prompts[p, i], budget)
                    with ids_lock:
                        ids[p, i] = rid
            except BaseException as exc:
                errors.append(exc)

        step_thread = threading.Thread(target=stepper)
        step_thread.start()
        threads = [threading.Thread(target=producer, args=(p,)) for p in range(producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        stop.set()
        step_thread.join(timeout=60.0)
        assert not errors, errors

        assert len(ids) == producers * per_producer
        assert len(set(ids.values())) == len(ids)  # no duplicated request ids
        for key, rid in ids.items():
            result = engine.pop_result(rid)
            assert result is not None, f"request {key} never completed"
            np.testing.assert_array_equal(result.tokens, expected[key])
            assert engine.pop_result(rid) is None  # claimed exactly once
        assert engine.stats.requests_completed >= producers * per_producer
        assert not engine.busy

    def test_pop_result_races_with_stepper(self, rng):
        """Consumers polling pop_result concurrently with the stepper."""
        engine = ServingEngine(_model(), max_batch_size=4)
        rids = [engine.submit(rng.integers(0, VOCAB, size=4), 3) for _ in range(8)]
        claimed: dict[int, np.ndarray] = {}
        claimed_lock = threading.Lock()
        done = threading.Event()

        def consumer() -> None:
            while not done.is_set() or any(r not in claimed for r in rids):
                for rid in rids:
                    result = engine.pop_result(rid)
                    if result is not None:
                        with claimed_lock:
                            assert rid not in claimed  # never delivered twice
                            claimed[rid] = result.tokens

        consumers = [threading.Thread(target=consumer) for _ in range(2)]
        for t in consumers:
            t.start()
        while engine.busy:
            engine.step()
        done.set()
        for t in consumers:
            t.join(timeout=60.0)
        assert sorted(claimed) == sorted(rids)
        for tokens in claimed.values():
            assert tokens.size == 3


class TestLatencySplit:
    def test_queued_vs_service_split(self):
        clock_now = [0.0]
        engine = ServingEngine(
            _model(), max_batch_size=1, clock=lambda: clock_now[0]
        )
        first = engine.submit(np.arange(4) % VOCAB, 2)
        second = engine.submit(np.arange(4) % VOCAB, 2)
        # max_batch_size=1: the second request queues behind the first.
        while engine.pop_result(second) is None:
            clock_now[0] += 1.0
            engine.step()
            engine.pop_result(first)
        stats = engine.stats
        assert stats.mean_queued_s > 0.0
        assert stats.p95_queued_s >= stats.mean_queued_s
        # Service TTFT excludes queueing: strictly below the raw TTFT mean.
        assert stats.mean_service_ttft_s < stats.mean_ttft_s
        payload = stats.as_dict()
        assert {"mean_queued_s", "p95_queued_s", "mean_service_ttft_s", "p95_service_ttft_s"} <= (
            payload.keys()
        )

    def test_result_carries_split_properties(self):
        clock_now = [0.0]
        engine = ServingEngine(
            _model(), max_batch_size=4, clock=lambda: clock_now[0]
        )
        rid = engine.submit(np.arange(4) % VOCAB, 3)
        while True:
            clock_now[0] += 0.5
            engine.step()
            result = engine.pop_result(rid)
            if result is not None:
                break
        assert result.service_ttft_s == pytest.approx(result.ttft_s - result.queued_s)
        assert result.queued_s >= 0.0

    def test_preempted_counter_in_stats(self):
        clock_now = [0.0]
        engine = ServingEngine(
            _model(), max_batch_size=4, clock=lambda: clock_now[0]
        )
        engine.submit(np.arange(4) % VOCAB, 8, deadline_s=1.0)
        clock_now[0] = 10.0  # decode starts after the deadline passed
        while engine.busy:
            engine.step()
        assert engine.stats.preempted == 1
        assert engine.stats.as_dict()["preempted"] == 1
