"""ReplicaPool: shared-memory rings, routers, fault handling, equivalence.

The scale-out contract of replication case 2: a pool of data-parallel
engines behind ``ShmRing`` transports must be *observably identical* to a
single local engine — per-request token streams bitwise-equal regardless
of replica count or router (hypothesis-driven over request mixes in the
inline mode, plus real fork-worker coverage), with dead replicas detected
and their outstanding requests requeued onto survivors without changing
any caller-visible tokens.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import DecoderLM, TransformerConfig
from repro.serve import (
    LeastOutstandingTokensRouter,
    ReplicaPool,
    RoundRobinRouter,
    ServingEngine,
    SessionAffinityRouter,
    ShmRing,
)
from repro.serve.replica import KIND_DONE

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


def _factory(index: int) -> ServingEngine:
    return ServingEngine(_model(), max_batch_size=4)


class TestShmRing:
    def test_push_pop_roundtrip(self):
        ring = ShmRing(capacity_words=64)
        try:
            assert ring.pop() is None
            assert ring.push([1, 2, 3])
            assert ring.push([7])
            assert ring.pop() == [1, 2, 3]
            assert ring.pop() == [7]
            assert ring.pop() is None
        finally:
            ring.close(unlink=True)

    def test_full_ring_rejects_until_drained(self):
        ring = ShmRing(capacity_words=16)
        try:
            payload = [1, 2, 3, 4, 5, 6]  # 7 words per record with prefix
            assert ring.push(payload)
            assert ring.push(payload)
            assert not ring.push(payload)  # 14 words used, no room
            assert ring.pop() == payload
            assert ring.push(payload)
        finally:
            ring.close(unlink=True)

    def test_wraparound_preserves_records(self):
        ring = ShmRing(capacity_words=16)
        try:
            for i in range(50):  # many times around the ring
                assert ring.push([i, i + 1])
                assert ring.pop() == [i, i + 1]
        finally:
            ring.close(unlink=True)

    def test_oversized_record_raises(self):
        ring = ShmRing(capacity_words=16)
        try:
            with pytest.raises(ValueError, match="exceeds ring capacity"):
                ring.push(list(range(16)))
        finally:
            ring.close(unlink=True)

    def test_attach_by_name_shares_segment(self):
        owner = ShmRing(capacity_words=32)
        try:
            attached = ShmRing(capacity_words=32, name=owner.name)
            assert attached.push([11, 22])
            assert owner.pop() == [11, 22]
            attached.close()
        finally:
            owner.close(unlink=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShmRing(capacity_words=8)


class TestRouters:
    def test_round_robin_cycles_live_replicas(self):
        router = RoundRobinRouter()
        loads = [0, 0, 0]
        assert [router.pick(loads) for _ in range(4)] == [0, 1, 2, 0]

    def test_round_robin_skips_dead(self):
        router = RoundRobinRouter()
        assert router.pick([None, 0, 0]) == 1
        assert router.pick([None, 0, 0]) == 2

    def test_round_robin_all_dead_raises(self):
        with pytest.raises(RuntimeError, match="no live replicas"):
            RoundRobinRouter().pick([None, None])

    def test_least_outstanding_picks_min_load(self):
        router = LeastOutstandingTokensRouter()
        assert router.pick([30, 10, 20]) == 1
        assert router.pick([30, None, 20]) == 2

    def test_session_affinity_pins_and_repins(self):
        router = SessionAffinityRouter()
        first = router.pick([0, 0], session="a")
        assert router.pick([99, 99], session="a") == first  # pinned, load ignored
        # Pinned replica dies: the session re-pins via the fallback.
        loads = [None, None]
        loads[1 - first] = 0
        repinned = router.pick(loads, session="a")
        assert repinned == 1 - first
        assert router.pick([0, 0], session="a") == repinned

    def test_session_affinity_without_session_falls_back(self):
        router = SessionAffinityRouter(fallback=LeastOutstandingTokensRouter())
        assert router.pick([20, 5], session=None) == 1


class TestInlineEquivalence:
    """Pool (any replica count/router) ≡ single local engine, bitwise."""

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.data(),
        replicas=st.integers(min_value=1, max_value=3),
        router=st.sampled_from(["round_robin", "least_outstanding_tokens", "session_affinity"]),
    )
    def test_pool_token_streams_match_single_engine(self, data, replicas, router):
        n = data.draw(st.integers(min_value=1, max_value=6), label="requests")
        prompts = [
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=VOCAB - 1),
                    min_size=1,
                    max_size=8,
                ),
                label=f"prompt{i}",
            )
            for i in range(n)
        ]
        budgets = [
            data.draw(st.integers(min_value=1, max_value=8), label=f"budget{i}")
            for i in range(n)
        ]
        sessions = [
            data.draw(st.sampled_from([None, "a", "b"]), label=f"session{i}")
            for i in range(n)
        ]

        reference = ServingEngine(_model(), max_batch_size=4)
        ref_ids = [
            reference.submit(np.array(p, dtype=np.int64), b)
            for p, b in zip(prompts, budgets)
        ]
        ref_results = {r.request_id: r for r in reference.run_until_idle()}

        streamed: dict[int, list[int]] = {}

        def on_token(rid: int, token: int) -> None:
            streamed.setdefault(rid, []).append(token)

        with ReplicaPool(_factory, replicas=replicas, router=router, processes=False) as pool:
            ids = [
                pool.submit(np.array(p, dtype=np.int64), b, session=s, on_token=on_token)
                for p, b, s in zip(prompts, budgets, sessions)
            ]
            results = {r.request_id: r for r in pool.drain()}

        for ref_id, pool_id in zip(ref_ids, ids):
            expected = ref_results[ref_id].tokens
            got = results[pool_id].tokens
            np.testing.assert_array_equal(got, expected)
            # The streamed prefix is exactly the result tokens, in order.
            assert streamed.get(pool_id, []) == [int(t) for t in expected]


class TestThreadSafety:
    """submit()/poll() from different threads — the ApiServer wiring."""

    def test_concurrent_submit_and_poll(self, rng):
        """A poller thread races 40 submits; no corruption, all bitwise.

        This is exactly how ApiServer drives a pool: the asyncio handler
        thread submits while the driver thread polls.  Unsynchronized,
        outstanding_tokens() iterating _outstanding during a poll()-side
        pop raised 'dictionary changed size during iteration'.
        """
        prompts = [rng.integers(0, VOCAB, size=int(n)) for n in rng.integers(2, 8, size=40)]
        reference = ServingEngine(_model(), max_batch_size=4)
        ref_ids = [reference.submit(p, 4) for p in prompts]
        ref = {r.request_id: r for r in reference.run_until_idle()}
        expected = [ref[rid].tokens for rid in ref_ids]

        pool = ReplicaPool(_factory, replicas=2, processes=False)
        stop = threading.Event()
        errors: list[BaseException] = []

        def poller() -> None:
            try:
                while not stop.is_set():
                    pool.poll()
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        thread = threading.Thread(target=poller)
        thread.start()
        try:
            ids = [pool.submit(p, 4) for p in prompts]
            results: dict[int, object] = {}
            start = time.monotonic()
            while len(results) < len(ids) and not errors:
                for rid in ids:
                    got = pool.pop_result(rid)
                    if got is not None:
                        results[rid] = got
                assert time.monotonic() - start < 60.0
                time.sleep(0.0005)
        finally:
            stop.set()
            thread.join(timeout=10.0)
            for ring in pool.inboxes + pool.outboxes:
                ring.close(unlink=True)
        assert not errors, f"poller thread raised: {errors[0]!r}"
        for rid, want in zip(ids, expected):
            np.testing.assert_array_equal(results[rid].tokens, want)


class TestProcessPool:
    def test_fork_workers_match_single_engine(self, rng):
        prompts = [rng.integers(0, VOCAB, size=int(n)) for n in rng.integers(2, 8, size=5)]
        reference = ServingEngine(_model(), max_batch_size=4)
        ref_ids = [reference.submit(p, 6) for p in prompts]
        ref = {r.request_id: r for r in reference.run_until_idle()}
        expected = [ref[rid].tokens for rid in ref_ids]

        with ReplicaPool(_factory, replicas=2, processes=True) as pool:
            ids = [pool.submit(p, 6) for p in prompts]
            results = {r.request_id: r for r in pool.drain(timeout_s=60.0)}
        for i, rid in enumerate(ids):
            np.testing.assert_array_equal(results[rid].tokens, expected[i])
            assert results[rid].latency_s >= 0.0

    def test_kill_replica_requeues_onto_survivor(self, rng):
        prompts = [rng.integers(0, VOCAB, size=4) for _ in range(4)]
        reference = ServingEngine(_model(), max_batch_size=4)
        ref_ids = [reference.submit(p, 5) for p in prompts]
        ref = {r.request_id: r for r in reference.run_until_idle()}

        with ReplicaPool(_factory, replicas=2, router="round_robin", processes=True) as pool:
            ids = [pool.submit(p, 5) for p in prompts]
            pool.kill_replica(0)
            results = {r.request_id: r for r in pool.drain(timeout_s=60.0)}
            assert pool.requeues >= 1
            assert pool.outstanding_tokens()[0] is None  # dead replica reports None
        for ref_id, pool_id in zip(ref_ids, ids):
            np.testing.assert_array_equal(results[pool_id].tokens, ref[ref_id].tokens)

    def test_all_dead_with_outstanding_raises(self, rng):
        pool = ReplicaPool(_factory, replicas=2, processes=False)
        try:
            tried = pool.submit(rng.integers(0, VOCAB, size=4), 64)  # never completes
            pool.submit(rng.integers(0, VOCAB, size=4), 64)
            pool.kill_replica(0)  # the first request moves to replica 1
            with pytest.raises(RuntimeError, match="all replicas dead"):
                pool.kill_replica(1)  # the second was never sent to replica 0
            [failed] = pool.poll()  # the first had been sent to every replica
            assert failed.request_id == tried and failed.error is not None
        finally:
            for ring in pool.inboxes + pool.outboxes:
                ring.close(unlink=True)

    def test_request_sent_to_every_replica_fails_instead_of_requeueing(self, rng):
        streamed: list[int] = []
        pool = ReplicaPool(_factory, replicas=1, processes=False)
        try:
            rid = pool.submit(rng.integers(0, VOCAB, size=4), 20, on_token=lambda _r, t: streamed.append(t))
            pool.poll()
            pool.kill_replica(0)
            [result] = pool.poll()
            assert pool.requeues == 0 and pool.outstanding == 0
            assert result.request_id == rid
            assert result.error == "replica 0 died; the request was sent to all 1 replicas"
            assert result.tokens.tolist() == streamed and streamed
            assert pool.pop_result(rid) is result
        finally:
            for ring in pool.inboxes + pool.outboxes:
                ring.close(unlink=True)

    def test_poison_request_resolves_once_and_the_rest_are_served(self, rng):
        """A request whose replica is killed every time it lands there is
        sent to each of the 3 replicas once, then resolves with an error,
        once; every other request is served with the tokens one engine
        gives it, the ones requeued off dying replicas included."""
        poison = np.array([1, 2, 3, 4, 5])
        others = [rng.integers(6, VOCAB, size=int(n)) for n in rng.integers(2, 6, size=6)]
        reference = ServingEngine(_model(), max_batch_size=8)
        ref_ids = [reference.submit(p, 3) for p in others]
        ref = {r.request_id: r.tokens.tolist() for r in reference.run_until_idle()}
        landings: list[int] = []

        def factory(index: int) -> ServingEngine:
            engine = _factory(index)
            submit = engine.submit

            def watched(prompt, *args, **kwargs):
                if prompt[: poison.size].tolist() == poison.tolist():
                    landings.append(index)
                return submit(prompt, *args, **kwargs)

            engine.submit = watched
            return engine

        with ReplicaPool(factory, replicas=3, router="round_robin", processes=False) as pool:
            poison_id = pool.submit(poison, 20)
            ids = [pool.submit(p, 3) for p in others]
            results, killed = [], 0
            while pool.outstanding:
                results += pool.poll()
                for index in landings[killed:]:
                    pool.kill_replica(index)
                killed = len(landings)
            results += pool.poll()
            assert landings == [0, 1, 2]
            assert pool.requeues >= 2
        resolved = [r.request_id for r in results]
        assert sorted(resolved) == sorted([poison_id] + ids)  # each exactly once
        by_id = {r.request_id: r for r in results}
        assert by_id[poison_id].error == "replica 2 died; the request was sent to all 3 replicas"
        for ref_id, pool_id in zip(ref_ids, ids):
            assert by_id[pool_id].error is None
            assert by_id[pool_id].tokens.tolist() == ref[ref_id]

    def test_requeued_stream_resumes_after_delivered_tokens(self, rng):
        """A request killed mid-decode continues; no token is streamed twice."""
        prompt = rng.integers(0, VOCAB, size=4)
        streamed: list[int] = []
        with ReplicaPool(_factory, replicas=2, processes=False) as pool:
            rid = pool.submit(prompt, 10, on_token=lambda _rid, token: streamed.append(token))
            while len(streamed) < 4:
                pool.poll()
            delivered = list(streamed)
            pool.kill_replica(0)
            results = {r.request_id: r for r in pool.drain()}
            assert pool.requeues == 1
        tokens = results[rid].tokens.tolist()
        assert len(streamed) == 10
        assert streamed == tokens
        assert tokens[: len(delivered)] == delivered

    @staticmethod
    def _expected(prompt, budget, **engine_kwargs) -> list[int]:
        engine = ServingEngine(_model(), max_batch_size=4, **engine_kwargs)
        engine.submit(prompt, budget)
        [result] = engine.run_until_idle()
        return result.tokens.tolist()

    @staticmethod
    def _lose_done_records(pool, index: int) -> None:
        """Replica ``index`` streams its tokens but dies before each DONE record."""
        outbox = pool.outboxes[index]
        push = outbox.push
        outbox.push = lambda record: record[0] == KIND_DONE or push(record)

    def test_drain_returns_a_request_finished_after_its_replica_died(self, rng):
        prompt = rng.integers(0, VOCAB, size=4)
        expected = self._expected(prompt, 6)
        streamed: list[int] = []
        with ReplicaPool(_factory, replicas=2, processes=False) as pool:
            self._lose_done_records(pool, 0)
            rid = pool.submit(prompt, 6, on_token=lambda _rid, token: streamed.append(token))
            while len(streamed) < 6:
                pool.poll()
            assert pool.outstanding == 1
            pool.kill_replica(0)
            results = {r.request_id: r for r in pool.drain()}
            assert pool.requeues == 0
        result = results[rid]
        assert result.tokens.tolist() == streamed == expected
        assert result.latency_s >= result.ttft_s >= 0.0 and result.tpot_s >= 0.0

    def test_requeue_after_a_streamed_eos_decodes_nothing_more(self, rng):
        """A replica dying between its EOS token and its DONE record ends the stream."""
        prompt = rng.integers(0, VOCAB, size=4)
        free = self._expected(prompt, 10)
        stop = next(k for k in range(1, 10) if free[k] not in free[:k])
        eos = free[stop]

        def factory(index: int) -> ServingEngine:
            return ServingEngine(_model(), max_batch_size=4, eos_id=eos)

        streamed: list[int] = []
        with ReplicaPool(factory, replicas=2, processes=False) as pool:
            self._lose_done_records(pool, 0)
            rid = pool.submit(prompt, 10, on_token=lambda _rid, token: streamed.append(token))
            while eos not in streamed:
                pool.poll()
            pool.kill_replica(0)
            results = {r.request_id: r for r in pool.drain()}
            assert pool.requeues == 0
        assert results[rid].tokens.tolist() == streamed == free[: stop + 1]

    def test_fully_streamed_request_completes_without_a_replica(self, rng):
        pool = ReplicaPool(_factory, replicas=2, processes=False)
        try:
            rid = pool.submit(rng.integers(0, VOCAB, size=4), 3)
            pool._outstanding[rid].streamed.extend([5, 6, 7])  # all 3 delivered
            pool.kill_replica(0)
            assert pool.requeues == 0 and pool.outstanding == 0
            [result] = pool.poll()
            assert result.request_id == rid and result.tokens.tolist() == [5, 6, 7]
            assert pool.pop_result(rid) is result
        finally:
            for ring in pool.inboxes + pool.outboxes:
                ring.close(unlink=True)

    @pytest.mark.parametrize("processes", [True, False], ids=["processes", "inline"])
    def test_refused_request_fails_alone(self, rng, processes):
        """A request the replica's engine refuses at submit (a token id
        outside the vocabulary) resolves once with the refusal; no replica
        dies, nothing is requeued, and both replicas go on serving."""
        prompts = [rng.integers(0, VOCAB, size=5) for _ in range(2)]
        expected = [self._expected(prompt, 4) for prompt in prompts]
        with ReplicaPool(_factory, replicas=2, processes=processes) as pool:
            bad = pool.submit(np.array([1000]), 3)
            [refused] = pool.drain(timeout_s=60.0)
            assert refused.request_id == bad and refused.tokens.size == 0
            assert refused.error == (
                f"replica 0 rejected the request: prompt token ids must lie in [0, {VOCAB})"
            )
            ids = [pool.submit(prompt, 4) for prompt in prompts]  # replicas 1, 0
            results = {r.request_id: r for r in pool.drain(timeout_s=60.0)}
            assert pool._alive == [True, True] and pool.requeues == 0
        for rid, tokens in zip(ids, expected):
            assert results[rid].error is None
            assert results[rid].tokens.tolist() == tokens

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaPool(_factory, replicas=0, processes=False)

    def test_processes_require_fork_start_method(self, monkeypatch):
        """Fork-less platforms get a clear error, not a pickling crash."""
        import repro.serve.replica as replica_mod

        monkeypatch.setattr(replica_mod, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(RuntimeError, match="'fork' start method"):
            ReplicaPool(_factory, replicas=1, processes=True)
