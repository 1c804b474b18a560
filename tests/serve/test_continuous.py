"""Tests for iteration-level (continuous) batching in the serving engine.

Covers the golden-trace equivalence (continuous ≡ per-request one-shot
generate, across GEMV kernel modes), deterministic fake-clock admission
edges (every engine timestamp rides the injectable clock), TTFT/TPOT
accounting, streaming callbacks and the max_tokens admission budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.rram import KernelPolicy, kernel_policy
from repro.serve import ServingEngine
from repro.svd.pipeline import LayerPlan


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
    """Deterministic injectable time source for scheduler tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _golden_trace(vocab: int, seed: int = 77) -> list[tuple[np.ndarray, int]]:
    """Fixed seeded mixed-length request trace (prompt, budget)."""
    rng = np.random.default_rng(seed)
    trace = []
    for i in range(7):
        prompt = rng.integers(0, vocab, size=int(rng.integers(2, 9)))
        budget = 12 if i % 3 == 2 else int(rng.integers(2, 6))
        trace.append((prompt, budget))
    return trace


def _replay(engine: ServingEngine, trace) -> dict[int, list[int]]:
    ids = [engine.submit(prompt, budget) for prompt, budget in trace]
    results = {r.request_id: r for r in engine.run_until_idle()}
    return {i: results[rid].tokens.tolist() for i, rid in enumerate(ids)}


def _solo(model: DecoderLM, trace, eos_id: int | None = None) -> dict[int, list[int]]:
    """Per-request one-shot ``generate``, cut after the first EOS."""
    solo = {}
    for i, (prompt, budget) in enumerate(trace):
        tokens = model.generate(prompt, budget, eos_id=eos_id)[len(prompt) :].tolist()
        if eos_id in tokens:
            tokens = tokens[: tokens.index(eos_id) + 1]
        solo[i] = tokens
    return solo


class TestGoldenTrace:
    def test_continuous_matches_solo_generate(self, model):
        """The deterministic trace emits, per request, exactly the tokens
        of a one-shot generate of that prompt and budget."""
        trace = _golden_trace(model.config.vocab_size)
        continuous = _replay(ServingEngine(model, max_batch_size=3), trace)
        assert continuous == _solo(model, trace)

    def test_trace_with_eos_identical(self, model):
        trace = _golden_trace(model.config.vocab_size, seed=13)
        # Pick an EOS id that actually occurs in free-running generation so
        # early stopping is exercised, not vacuous.
        free = model.generate(trace[0][0], 12)
        eos = int(free[len(trace[0][0])])
        continuous = _replay(ServingEngine(model, max_batch_size=3, eos_id=eos), trace)
        assert continuous == _solo(model, trace, eos_id=eos)
        assert any(tokens and tokens[-1] == eos for tokens in continuous.values())

    @pytest.mark.slow
    def test_trace_identical_across_kernel_modes(self):
        """Crossbar-deployed trace replay: reference ≡ fast kernels, and
        continuous ≡ per-request generate on the deployed model within
        each mode."""
        rng = np.random.default_rng(3)
        config = TransformerConfig(
            vocab_size=16, d_model=8, num_heads=2, num_layers=1, d_ff=16,
            max_seq_len=24, seed=3,
        )
        lm = DecoderLM(config)
        plans = {}
        for name, linear in lm.iter_static_linears():
            out_f, in_f = linear.weight.data.shape
            r = min(out_f, in_f)
            mask = np.zeros(r, dtype=bool)
            mask[: r // 2] = True
            plans[name] = LayerPlan(
                name=name,
                a_matrix=rng.normal(size=(r, in_f)) / np.sqrt(in_f),
                b_matrix=rng.normal(size=(out_f, r)) / np.sqrt(r),
                bias=None,
                protected_ranks=mask,
                sigma_gradients=rng.random(r),
            )
        calib = rng.integers(0, 16, size=(2, 8))
        trace = [
            (np.array([1, 5, 3]), 4),
            (np.array([2, 2, 7, 9, 4]), 6),
            (np.array([8, 1]), 3),
            (np.array([4, 11, 6, 2]), 5),
        ]
        outputs = {}
        for mode in ("reference", "fast"):
            with kernel_policy(KernelPolicy(mode=mode)):
                engine = ServingEngine.deploy(
                    lm, plans, calibration_prompts=calib, mode="crossbar",
                    max_batch_size=2,
                )
                outputs[mode] = _replay(engine, trace)
                assert outputs[mode] == _solo(engine.model, trace), mode
        assert outputs["fast"] == outputs["reference"]


class TestContinuousSemantics:
    def test_long_request_does_not_stall_short_ones(self, model, rng):
        """The headline behaviour: a long generation keeps decoding while
        short requests admitted later finish and new ones join mid-flight."""
        engine = ServingEngine(model, max_batch_size=2)
        long_id = engine.submit(rng.integers(0, 40, size=4), 24)
        short_a = engine.submit(rng.integers(0, 40, size=4), 2)
        # Fill both rows, decode until the short request retires.
        results: dict[int, object] = {}
        while short_a not in results:
            for r in engine.step(force=True):
                results[r.request_id] = r
        assert engine.in_flight == 1  # long request still decoding
        # A request submitted now joins mid-flight (no batch boundary).
        # One step = admission prefill (first token) + one decode token, so
        # a budget of 4 is still in flight after a single step.
        short_b = engine.submit(rng.integers(0, 40, size=4), 4)
        engine.step()
        assert engine.in_flight == 2
        for r in engine.run_until_idle():
            results[r.request_id] = r
        assert results[long_id].tokens.size == 24
        assert results[short_b].tokens.size == 4

    def test_no_joint_geometry_constraint(self, model, rng):
        """Long-prompt/short-budget + short-prompt/long-budget could not
        share a static batch (32 positions) but decode concurrently under
        continuous scheduling, each row at its own length."""
        engine = ServingEngine(model, max_batch_size=2)
        a = engine.submit(rng.integers(0, 40, size=24), 8)
        b = engine.submit(rng.integers(0, 40, size=4), 28)
        engine.step(force=True)
        assert engine.in_flight == 2  # admitted together; a static batch would split
        results = {r.request_id: r for r in engine.run_until_idle()}
        assert results[a].tokens.size == 8
        assert results[b].tokens.size == 28

    def test_zero_budget_request_completes_immediately(self, model, rng):
        engine = ServingEngine(model)
        rid = engine.submit(rng.integers(0, 40, size=4), 0)
        [result] = engine.run_until_idle()
        assert result.request_id == rid
        assert result.tokens.size == 0
        assert engine.in_flight == 0

    def test_row_compaction_under_churn(self, model, rng):
        """Mixed budgets force mid-prefix retirements; every request still
        matches its solo generation (compaction must not corrupt rows)."""
        engine = ServingEngine(model, max_batch_size=4)
        prompts = [rng.integers(0, 40, size=int(n)) for n in rng.integers(2, 9, size=10)]
        budgets = [int(b) for b in rng.integers(1, 14, size=10)]
        ids = [engine.submit(p, b) for p, b in zip(prompts, budgets)]
        results = {r.request_id: r for r in engine.run_until_idle()}
        for rid, prompt, budget in zip(ids, prompts, budgets):
            solo = model.generate(prompt, budget)
            np.testing.assert_array_equal(results[rid].tokens, solo[len(prompt) :])
        churn = engine._continuous.slots.stats
        assert churn.checkouts == 10
        assert churn.retirements == 10
        assert churn.compaction_moves > 0  # mid-prefix retirements happened
        assert engine._continuous.live == 0
        assert engine._continuous.reserved_tokens == 0


class TestFakeClockAdmission:
    def test_idle_engine_respects_max_wait_edge(self, model, rng):
        """Admission edge: strictly below max_wait_s nothing starts; at
        exactly max_wait_s the oldest request is admitted."""
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=4, max_wait_s=1.0, clock=clock)
        engine.submit(rng.integers(0, 40, size=4), 3)
        assert engine.step() == []
        assert engine.in_flight == 0
        clock.now = 0.999999
        assert engine.step() == []
        clock.now = 1.0  # inclusive edge: waited >= max_wait_s
        engine.step()
        assert engine.in_flight == 1

    def test_full_queue_starts_without_waiting(self, model, rng):
        clock = FakeClock()
        engine = ServingEngine(
            model, max_batch_size=2, max_wait_s=100.0, clock=clock
        )
        engine.submit(rng.integers(0, 40, size=4), 4)
        assert engine.step() == []
        engine.submit(rng.integers(0, 40, size=4), 4)
        engine.step()  # queue reached max_batch_size -> start immediately
        assert engine.in_flight == 2

    def test_mid_flight_join_ignores_max_wait(self, model, rng):
        """Once rows are live, a fresh request joins the moment a row is
        free — max_wait_s only gates starting from idle."""
        clock = FakeClock()
        engine = ServingEngine(
            model, max_batch_size=2, max_wait_s=100.0, clock=clock
        )
        engine.submit(rng.integers(0, 40, size=4), 6)
        clock.now = 100.0  # let the first request start
        engine.step()
        assert engine.in_flight == 1
        late = engine.submit(rng.integers(0, 40, size=4), 4)
        engine.step()  # clock has NOT advanced past 100 + max_wait
        assert engine.in_flight == 2
        results = {r.request_id: r for r in engine.run_until_idle()}
        assert results[late].tokens.size == 4

    def test_all_timing_rides_the_injected_clock(self, model, rng):
        """submitted_at / TTFT / latency are deterministic functions of the
        fake clock — no wall-clock flakiness anywhere in the pipeline."""
        clock = FakeClock()
        engine = ServingEngine(model, clock=clock)
        rid = engine.submit(rng.integers(0, 40, size=4), 3)
        assert engine._ingress[0].submitted_at == 0.0
        clock.now = 5.0
        engine.step(force=True)  # prefill + tokens 1 and 2 at t=5
        clock.now = 6.0
        [result] = engine.run_until_idle()  # third token at t=6
        assert result.request_id == rid
        assert result.ttft_s == 5.0
        assert result.latency_s == 6.0
        assert result.tpot_s == 0.5  # (6 - 5) / (3 - 1)
        assert result.queued_s == 5.0
        assert engine.stats.mean_ttft_s == 5.0


class TestLatencyStats:
    def test_ttft_precedes_completion_for_long_requests(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2)
        [result] = engine.serve([rng.integers(0, 40, size=4)], max_new_tokens=12)
        assert 0 < result.ttft_s < result.latency_s
        assert result.tpot_s > 0
        stats = engine.stats.as_dict()
        assert stats["mean_ttft_s"] < stats["mean_latency_s"]
        assert stats["iterations"] > 0


class TestStreamingCallbacks:
    def test_tokens_stream_in_emission_order(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2)
        seen: list[tuple[int, int]] = []
        ids = [
            engine.submit(
                rng.integers(0, 40, size=4), 5, on_token=lambda r, t: seen.append((r, t))
            )
            for _ in range(2)
        ]
        results = {r.request_id: r for r in engine.run_until_idle()}
        for rid in ids:
            streamed = [t for r, t in seen if r == rid]
            assert streamed == results[rid].tokens.tolist()

    def test_streaming_starts_before_completion(self, model, rng):
        """Continuous scheduling delivers the first token while decode is
        still in flight — the whole point of iteration-level batching."""
        engine = ServingEngine(model)
        seen: list[int] = []
        engine.submit(rng.integers(0, 40, size=4), 8, on_token=lambda r, t: seen.append(t))
        engine.step(force=True)
        assert len(seen) >= 1  # first token already out
        assert engine.in_flight == 1  # …but the request is not done
        [result] = engine.run_until_idle()
        assert seen == result.tokens.tolist()


class TestTokenBudgetAdmission:
    def test_budget_limits_concurrency(self, model, rng):
        """max_tokens bounds reserved KV positions; the third request waits
        even though a row is free."""
        engine = ServingEngine(model, max_batch_size=4, max_tokens=20)
        for _ in range(3):
            engine.submit(rng.integers(0, 40, size=4), 6)  # 10 tokens each
        engine.step(force=True)
        assert engine.in_flight == 2  # 2 x 10 <= 20; a third would overflow
        assert engine.pending == 1
        results = engine.run_until_idle()
        assert len(results) == 3
        assert all(r.tokens.size == 6 for r in results)

    def test_head_of_line_keeps_fifo(self, model, rng):
        """A big head request never lets smaller later ones jump the queue."""
        engine = ServingEngine(model, max_batch_size=4, max_tokens=24)
        small_a = engine.submit(rng.integers(0, 40, size=4), 6)  # 10
        big = engine.submit(rng.integers(0, 40, size=8), 12)  # 20: must wait
        small_b = engine.submit(rng.integers(0, 40, size=4), 2)  # 6: fits, but FIFO
        engine.step(force=True)
        assert engine.in_flight == 1  # only small_a; big blocks the line
        results = {r.request_id: r for r in engine.run_until_idle()}
        assert results[big].tokens.size == 12
        assert results[small_a].tokens.size == 6
        assert results[small_b].tokens.size == 2

    def test_submit_rejects_request_over_budget(self, model, rng):
        engine = ServingEngine(model, max_batch_size=4, max_tokens=10)
        with pytest.raises(ValueError):
            engine.submit(rng.integers(0, 40, size=8), 8)


class TestSlotPoolIntegration:
    def test_cache_released_between_busy_periods(self, model, rng):
        engine = ServingEngine(model, max_batch_size=4)
        for _ in range(3):
            engine.serve([rng.integers(0, 40, size=4)], max_new_tokens=2)
            assert engine.slot_pool.in_flight == 0  # returned on drain
        assert engine.slot_pool.stats.misses == 1
        assert engine.slot_pool.stats.hits == 2  # buffers reused across periods

    def test_pim_deployed_continuous_serving_counts_traffic(self, rng):
        config = TransformerConfig(
            vocab_size=16, d_model=8, num_heads=2, num_layers=1, d_ff=16,
            max_seq_len=16, seed=0,
        )
        lm = DecoderLM(config)
        plans = {}
        for name, linear in lm.iter_static_linears():
            out_f, in_f = linear.weight.data.shape
            r = min(out_f, in_f)
            mask = np.zeros(r, dtype=bool)
            mask[: r // 2] = True
            plans[name] = LayerPlan(
                name=name,
                a_matrix=rng.normal(size=(r, in_f)) / np.sqrt(in_f),
                b_matrix=rng.normal(size=(out_f, r)) / np.sqrt(r),
                bias=None,
                protected_ranks=mask,
                sigma_gradients=rng.random(r),
            )
        engine = ServingEngine.deploy(
            lm, plans, calibration_prompts=rng.integers(0, 16, size=(2, 6)),
            mode="crossbar", max_batch_size=2,
        )
        assert engine.gemv_stats().adc_conversions == 0
        [result] = engine.serve([rng.integers(0, 16, size=3)], max_new_tokens=2)
        assert result.tokens.size == 2
        assert engine.gemv_stats().adc_conversions > 0


class TestEvalModeToggle:
    """step() walks the module tree for eval()/train() only when it must."""

    @staticmethod
    def _count_mode_calls(monkeypatch) -> dict[str, int]:
        from repro.nn.modules import Module

        calls = {"eval": 0, "train": 0}
        real_eval, real_train = Module.eval, Module.train

        def eval_spy(self):
            calls["eval"] += 1
            return real_eval(self)

        def train_spy(self, mode=True):
            calls["train"] += 1
            return real_train(self, mode)

        monkeypatch.setattr(Module, "eval", eval_spy)
        monkeypatch.setattr(Module, "train", train_spy)
        return calls

    def test_eval_mode_model_is_not_toggled(self, model, rng, monkeypatch):
        model.eval()
        engine = ServingEngine(model, max_batch_size=2)
        engine.submit(rng.integers(0, 40, size=4), 3)
        calls = self._count_mode_calls(monkeypatch)
        engine.step(force=True)
        assert calls == {"eval": 0, "train": 0}
        assert not model.training

    def test_training_model_decodes_in_eval_and_is_restored(
        self, model, rng, monkeypatch
    ):
        model.train()
        modes = []
        real_prefill = model.prefill

        def prefill_spy(*args, **kwargs):
            modes.append(model.training)
            return real_prefill(*args, **kwargs)

        monkeypatch.setattr(model, "prefill", prefill_spy)
        engine = ServingEngine(model, max_batch_size=2)
        engine.submit(rng.integers(0, 40, size=4), 3)
        calls = self._count_mode_calls(monkeypatch)
        engine.step(force=True)
        assert modes == [False]  # admission prefill ran in eval mode
        assert calls["eval"] == 1
        assert model.training  # restored after the step
