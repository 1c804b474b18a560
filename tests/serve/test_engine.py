"""Tests for the batched serving engine and its KV-cache slot pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.serve import CacheSlotPool, ServingEngine


@pytest.fixture
def model():
    return DecoderLM(
        TransformerConfig(
            vocab_size=40,
            d_model=32,
            num_heads=4,
            num_layers=2,
            d_ff=64,
            max_seq_len=32,
            seed=5,
        )
    )


class FakeClock:
    """Deterministic injectable time source for batching-policy tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSubmitValidation:
    def test_rejects_empty_prompt(self, model):
        engine = ServingEngine(model)
        with pytest.raises(ValueError):
            engine.submit(np.array([], dtype=int), 4)

    def test_rejects_over_capacity_request(self, model, rng):
        engine = ServingEngine(model)
        with pytest.raises(ValueError):
            engine.submit(rng.integers(0, 40, size=30), 10)

    def test_ids_are_unique_and_ordered(self, model, rng):
        engine = ServingEngine(model)
        ids = [engine.submit(rng.integers(0, 40, size=4), 2) for _ in range(3)]
        assert ids == [0, 1, 2]
        assert engine.pending == 3

    @pytest.mark.parametrize(
        "option, value", [("scheduler", "static"), ("pipeline", 2), ("plane_cache", True)]
    )
    def test_removed_serving_forks_are_rejected(self, model, option, value):
        """Continuous decode is the only serving path: the static
        scheduler, the pipelined executor and the plane cache have no
        constructor option left to select them."""
        with pytest.raises(TypeError, match=option):
            ServingEngine(model, **{option: value})


class TestDynamicBatching:
    """``max_wait_s`` and a full queue gate starting work from idle.

    One step admits (prefill emits the first token) and decodes one more
    token, so a 2-token request completes within the step that admits it.
    """

    def test_full_batch_runs_immediately(self, model, rng):
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=2, max_wait_s=10.0, clock=clock)
        engine.submit(rng.integers(0, 40, size=4), 2)
        assert engine.step() == []  # partial batch, wait budget not exhausted
        assert engine.in_flight == 0
        engine.submit(rng.integers(0, 40, size=4), 2)
        results = engine.step()  # max_batch reached -> start now
        assert len(results) == 2
        assert all(r.batch_size == 2 for r in results)

    def test_max_wait_cuts_partial_batch(self, model, rng):
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=4, max_wait_s=1.0, clock=clock)
        engine.submit(rng.integers(0, 40, size=4), 2)
        assert engine.step() == []
        clock.now = 1.5  # oldest request has now waited past max_wait_s
        results = engine.step()
        assert len(results) == 1
        assert results[0].batch_size == 1

    def test_run_until_idle_drains_everything(self, model, rng):
        engine = ServingEngine(model, max_batch_size=3, max_wait_s=100.0)
        for _ in range(7):
            engine.submit(rng.integers(0, 40, size=5), 3)
        results = engine.run_until_idle()
        assert len(results) == 7
        assert engine.pending == 0
        assert max(r.batch_size for r in results) == 3
        # Rows of 3 tokens live for 2 steps; 7 requests fill 3 + 3 + 1 rows.
        assert engine.stats.iterations == 6

    def test_queue_is_fifo(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2)
        ids = [engine.submit(rng.integers(0, 40, size=4), 2) for _ in range(4)]
        first = engine.step(force=True)
        assert sorted(r.request_id for r in first) == ids[:2]
        assert engine.pending == 2


class TestServedOutputs:
    def test_engine_matches_per_prompt_generate(self, model, rng):
        """Dynamic-batched ragged serving ≡ one-at-a-time generation."""
        engine = ServingEngine(model, max_batch_size=4)
        prompts = [rng.integers(0, 40, size=n) for n in (3, 9, 5, 7, 4)]
        results = engine.serve(prompts, max_new_tokens=6)
        for prompt, result in zip(prompts, results):
            solo = model.generate(prompt, 6)
            np.testing.assert_array_equal(result.tokens, solo[len(prompt) :])
            np.testing.assert_array_equal(result.full_sequence, solo)

    def test_eos_truncates_result(self, model, rng):
        prompt = rng.integers(0, 40, size=5)
        free = model.generate(prompt, 6)
        eos = int(free[5])
        engine = ServingEngine(model, eos_id=eos)
        [result] = engine.serve([prompt], max_new_tokens=6)
        assert result.tokens.tolist() == [eos]

    def test_per_request_budgets(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2)
        a = engine.submit(rng.integers(0, 40, size=4), 3)
        b = engine.submit(rng.integers(0, 40, size=6), 8)
        results = {r.request_id: r for r in engine.run_until_idle()}
        assert results[a].tokens.size == 3
        assert results[b].tokens.size == 8


class TestStats:
    def test_throughput_accounting(self, model, rng):
        engine = ServingEngine(model, max_batch_size=4)
        engine.serve([rng.integers(0, 40, size=4) for _ in range(4)], max_new_tokens=5)
        stats = engine.stats
        assert stats.requests_completed == 4
        assert stats.tokens_generated == 20
        assert stats.tokens_per_s > 0
        assert stats.mean_batch_size == 4.0
        assert len(stats.latencies_s) == 4
        payload = stats.as_dict()
        assert payload["tokens_generated"] == 20

    def test_gemv_stats_zero_without_pim(self, model, rng):
        engine = ServingEngine(model)
        engine.serve([rng.integers(0, 40, size=4)], max_new_tokens=2)
        assert not engine.is_pim_deployed()
        assert engine.gemv_stats().adc_conversions == 0


class TestSlotPool:
    def test_hits_after_first_batch(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2)
        for _ in range(3):
            engine.serve([rng.integers(0, 40, size=4), rng.integers(0, 40, size=4)], 2)
        pool = engine.slot_pool.stats
        assert pool.misses == 1
        assert pool.hits == 2

    def test_eviction_when_full(self, model):
        pool = CacheSlotPool(model, max_slots=1)
        a = pool.acquire(1)
        b = pool.acquire(2)
        pool.release(a)
        pool.release(b)  # evicts a (LRU)
        assert pool.stats.evictions == 1
        assert pool.free_slots == 1
        # batch-2 slot survived; batch-1 must be re-allocated
        pool.acquire(2)
        assert pool.stats.hits == 1

    def test_rejects_bad_max_slots(self, model):
        with pytest.raises(ValueError):
            CacheSlotPool(model, max_slots=0)


class TestPimDeployment:
    def test_deploy_attaches_calibrates_and_serves(self, rng):
        from repro.core import HyFlexPim
        from repro.datasets import wikitext2_like

        corpus = wikitext2_like(seed=0)
        config = TransformerConfig(
            vocab_size=corpus.spec.vocab_size,
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
            max_seq_len=corpus.spec.seq_len,
            seed=0,
        )
        lm = DecoderLM(config)
        hfp = HyFlexPim(protect_fraction=0.2, epochs=1, batch_size=16, seed=0)
        compiled = hfp.compile(lm, corpus.train, task_type="lm")
        engine = ServingEngine.deploy(
            compiled.model,
            compiled.plan.layers,
            calibration_prompts=corpus.train.inputs[:2],
            mode="crossbar",
            max_batch_size=2,
        )
        assert engine.is_pim_deployed()
        assert all(layer.is_calibrated for layer in engine.hybrid_layers.values())
        results = engine.serve([corpus.train.inputs[0][:5]], max_new_tokens=3)
        assert results[0].tokens.size == 3
        # Served traffic accumulates crossbar operation counts for the
        # energy/latency models.
        stats = engine.gemv_stats()
        assert stats.adc_conversions > 0
        assert stats.wordline_activations > 0

    def test_deploy_fast_mode_skips_activation_calibration(self, rng):
        from repro.svd.pipeline import LayerPlan

        config = TransformerConfig(
            vocab_size=40, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_seq_len=16, seed=0,
        )
        lm = DecoderLM(config)
        plans = {}
        for name, linear in lm.iter_static_linears():
            out_f, in_f = linear.weight.data.shape
            r = min(out_f, in_f)
            mask = np.zeros(r, dtype=bool)
            mask[: r // 4] = True
            plans[name] = LayerPlan(
                name=name,
                a_matrix=rng.normal(size=(r, in_f)) / np.sqrt(in_f),
                b_matrix=rng.normal(size=(out_f, r)) / np.sqrt(r),
                bias=None,
                protected_ranks=mask,
                sigma_gradients=rng.random(r),
            )
        engine = ServingEngine.deploy(
            lm, plans, calibration_prompts=rng.integers(0, 40, size=(2, 6)), mode="fast"
        )
        assert engine.is_pim_deployed()
        assert not any(layer.is_calibrated for layer in engine.hybrid_layers.values())
        [result] = engine.serve([rng.integers(0, 40, size=4)], max_new_tokens=2)
        assert result.tokens.size == 2


class TestReviewRegressions:
    def test_serve_preserves_earlier_submissions(self, model, rng):
        """serve() drains earlier submit()s too; their results must remain
        claimable instead of being silently discarded."""
        engine = ServingEngine(model, max_batch_size=4)
        prompt_early = rng.integers(0, 40, size=5)
        early = engine.submit(prompt_early, 4)
        [late_result] = engine.serve([rng.integers(0, 40, size=6)], max_new_tokens=3)
        assert late_result.tokens.size == 3
        early_result = engine.pop_result(early)
        assert early_result is not None
        np.testing.assert_array_equal(
            early_result.tokens, model.generate(prompt_early, 4)[5:]
        )
        assert engine.pop_result(early) is None  # claimed exactly once

    def test_per_row_budget_rows_stop_early(self, model, rng):
        """Array max_new_tokens: each row decodes to its own budget and
        matches the same prompt generated alone with that budget."""
        prompts = rng.integers(0, 40, size=(3, 6))
        budgets = np.array([2, 7, 4])
        out = model.generate(prompts, budgets)
        assert out.shape == (3, 6 + 7)
        for i in range(3):
            solo = model.generate(prompts[i], int(budgets[i]))
            np.testing.assert_array_equal(out[i, : 6 + budgets[i]], solo)
            # Tail past a row's own budget stays padded.
            np.testing.assert_array_equal(
                out[i, 6 + budgets[i] :], np.zeros(7 - budgets[i], dtype=np.int64)
            )

    def test_all_rows_done_stops_decode_forwards(self, model, rng):
        """Once every row's budget is spent the decode loop must not keep
        running forwards to some batch-wide maximum."""
        calls = {"n": 0}
        original = type(model).forward

        def counting(self_, token_ids, cache=None):
            calls["n"] += 1
            return original(self_, token_ids, cache=cache)

        type(model).forward = counting
        try:
            model.generate(rng.integers(0, 40, size=(2, 5)), np.array([1, 1]))
        finally:
            type(model).forward = original
        assert calls["n"] == 1  # prefill only; both rows spent after step 0

    def test_calibration_traffic_excluded_from_gemv_stats(self, rng):
        """Deploy-time calibration forwards must not pollute the served-
        traffic energy accounting."""
        from repro.svd.pipeline import LayerPlan

        config = TransformerConfig(
            vocab_size=40, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_seq_len=16, seed=0,
        )
        lm = DecoderLM(config)
        plans = {}
        for name, linear in lm.iter_static_linears():
            out_f, in_f = linear.weight.data.shape
            r = min(out_f, in_f)
            mask = np.zeros(r, dtype=bool)
            mask[: r // 4] = True
            plans[name] = LayerPlan(
                name=name,
                a_matrix=rng.normal(size=(r, in_f)) / np.sqrt(in_f),
                b_matrix=rng.normal(size=(out_f, r)) / np.sqrt(r),
                bias=None,
                protected_ranks=mask,
                sigma_gradients=rng.random(r),
            )
        engine = ServingEngine.deploy(
            lm, plans,
            calibration_prompts=rng.integers(0, 40, size=(4, 8)),
            mode="crossbar",
        )
        assert engine.gemv_stats().adc_conversions == 0  # calibration wiped
        engine.serve([rng.integers(0, 40, size=4)], max_new_tokens=2)
        assert engine.gemv_stats().adc_conversions > 0  # served traffic counts

    def test_submit_rejects_negative_budget(self, model, rng):
        """A bad budget must be rejected at submit() — inside a batch it
        would crash generate() and destroy co-batched requests."""
        engine = ServingEngine(model)
        with pytest.raises(ValueError):
            engine.submit(rng.integers(0, 40, size=4), -1)
        good = engine.submit(rng.integers(0, 40, size=4), 0)
        results = {r.request_id: r for r in engine.run_until_idle()}
        assert results[good].tokens.size == 0

    def test_calibration_runs_in_eval_mode(self, rng):
        """Calibration must observe dropout-free activations: two deploys of
        the same dropout>0 model freeze identical scales."""
        from repro.svd.pipeline import LayerPlan

        config = TransformerConfig(
            vocab_size=40, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_seq_len=16, dropout=0.3, seed=0,
        )
        lm = DecoderLM(config)
        plans = {}
        for name, linear in lm.iter_static_linears():
            out_f, in_f = linear.weight.data.shape
            r = min(out_f, in_f)
            mask = np.zeros(r, dtype=bool)
            mask[: r // 4] = True
            plans[name] = LayerPlan(
                name=name,
                a_matrix=rng.normal(size=(r, in_f)) / np.sqrt(in_f),
                b_matrix=rng.normal(size=(out_f, r)) / np.sqrt(r),
                bias=None,
                protected_ranks=mask,
                sigma_gradients=rng.random(r),
            )
        calib = rng.integers(0, 40, size=(4, 8))
        scales = []
        for _ in range(2):
            engine = ServingEngine.deploy(
                lm, plans, calibration_prompts=calib, mode="crossbar"
            )
            scales.append(
                [float(np.asarray(layer._x_params.scale)) for layer in engine.hybrid_layers.values()]
            )
        assert scales[0] == scales[1]
