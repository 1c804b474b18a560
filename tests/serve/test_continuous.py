"""Tests for iteration-level (continuous) batching in the serving engine.

Covers the golden-trace equivalence (continuous ≡ per-request one-shot
generate, across GEMV kernel modes), deterministic fake-clock admission
and timing (every engine timestamp rides the injectable clock), prefill-pack
boundaries, TTFT/TPOT accounting and streaming callbacks.
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
            for r in engine.step():
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
        engine.step()
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
        assert engine.stats.compaction_moves > 0  # mid-prefix retirements happened
        assert engine._continuous.live == 0


class TestFakeClockAdmission:
    def test_idle_engine_starts_without_the_clock_moving(self, model, rng):
        """A lone queued request is admitted by the next step, with the
        clock never advanced: nothing waits for a batch to fill."""
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=4, clock=clock)
        rid = engine.submit(rng.integers(0, 40, size=4), 3)
        assert engine.step() == []  # prefill + one decode: 2 of 3 tokens
        assert engine.in_flight == 1 and engine.pending == 0
        [result] = engine.step()
        assert result.request_id == rid
        assert result.queued_s == 0.0 and result.ttft_s == 0.0

    def test_queue_beyond_free_rows_waits_for_a_retirement(self, model, rng):
        """Admission stops at the row count; the rest of the queue joins
        at the step a row retires, clock unmoved."""
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=2, clock=clock)
        first = [engine.submit(rng.integers(0, 40, size=4), 3) for _ in range(2)]
        third = engine.submit(rng.integers(0, 40, size=4), 3)
        assert engine.step() == []
        assert engine.in_flight == 2 and engine.pending == 1
        done = engine.step()  # both rows retire; the third admits next
        assert sorted(r.request_id for r in done) == first
        assert engine.in_flight == 0 and engine.pending == 1
        engine.step()
        assert engine.in_flight == 1 and engine.pending == 0
        [result] = engine.run_until_idle()
        assert result.request_id == third and result.tokens.size == 3

    def test_mid_flight_join_without_clock_advance(self, model, rng):
        """Once rows are live, a fresh request joins the moment a row is
        free, with the clock where it was."""
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=2, clock=clock)
        engine.submit(rng.integers(0, 40, size=4), 6)
        clock.now = 100.0
        engine.step()
        assert engine.in_flight == 1
        late = engine.submit(rng.integers(0, 40, size=4), 4)
        engine.step()
        assert engine.in_flight == 2
        results = {r.request_id: r for r in engine.run_until_idle()}
        assert results[late].tokens.size == 4
        assert results[late].queued_s == 0.0

    def test_all_timing_rides_the_injected_clock(self, model, rng):
        """submitted_at / TTFT / latency are deterministic functions of the
        fake clock — no wall-clock flakiness anywhere in the pipeline."""
        clock = FakeClock()
        engine = ServingEngine(model, clock=clock)
        rid = engine.submit(rng.integers(0, 40, size=4), 3)
        assert engine._ingress[0].submitted_at == 0.0
        clock.now = 5.0
        engine.step()  # prefill + tokens 1 and 2 at t=5
        clock.now = 6.0
        [result] = engine.run_until_idle()  # third token at t=6
        assert result.request_id == rid
        assert result.ttft_s == 5.0
        assert result.latency_s == 6.0
        assert result.tpot_s == 0.5  # (6 - 5) / (3 - 1)
        assert result.queued_s == 5.0
        assert engine.stats.mean_ttft_s == 5.0


class TestPackedAdmission:
    """Admissions of one step prefill in packs of at most ``max_seq_len``
    prompt tokens (32 here), one forward per pack."""

    @staticmethod
    def _spy_packs(model, monkeypatch, clock=None, tick=0.0) -> list[list[int]]:
        """Record each prefill forward's prompt lengths; advance ``clock``
        by ``tick`` per forward."""
        packs: list[list[int]] = []
        real_prefill = model.prefill

        def prefill_spy(tokens, cache, lengths=None):
            packs.append(list(lengths))
            if clock is not None:
                clock.now += tick
            return real_prefill(tokens, cache, lengths)

        monkeypatch.setattr(model, "prefill", prefill_spy)
        return packs

    def _serve(self, model, monkeypatch, rng, lengths, budgets, **engine_kwargs):
        engine = ServingEngine(model, max_batch_size=4, clock=FakeClock(), **engine_kwargs)
        prompts = [rng.integers(0, 40, size=n) for n in lengths]
        # Solo references first: generate prefills by pack too, and the spy
        # must count the engine's packs alone.
        solos = [
            model.generate(p, b)[len(p) :] if b else [] for p, b in zip(prompts, budgets)
        ]
        packs = self._spy_packs(model, monkeypatch)
        ids = [engine.submit(p, b) for p, b in zip(prompts, budgets)]
        results = {r.request_id: r for r in engine.step()}
        results.update({r.request_id: r for r in engine.run_until_idle()})
        for rid, solo in zip(ids, solos):
            np.testing.assert_array_equal(results[rid].tokens, solo)
        assert engine.stats.prefill_forwards == len(packs)
        return packs

    def test_prompts_summing_to_max_seq_len_run_as_one_forward(self, model, monkeypatch, rng):
        packs = self._serve(model, monkeypatch, rng, (8, 8, 8, 8), (3, 3, 3, 3))
        assert packs == [[8, 8, 8, 8]]

    def test_one_more_token_splits_the_pack(self, model, monkeypatch, rng):
        packs = self._serve(model, monkeypatch, rng, (8, 8, 8, 9), (3, 3, 3, 3))
        assert packs == [[8, 8, 8], [9]]

    def test_prompt_longer_than_half_prefills_alone(self, model, monkeypatch, rng):
        packs = self._serve(model, monkeypatch, rng, (17, 17, 17), (2, 2, 2))
        assert packs == [[17], [17], [17]]

    def test_head_of_line_keeps_fifo(self, model, monkeypatch, rng):
        """A head that does not fit the open pack closes it; the small
        request behind it would fit but does not jump the queue."""
        packs = self._serve(model, monkeypatch, rng, (20, 20, 4), (3, 3, 3))
        assert packs == [[20], [20, 4]]

    def test_rows_bound_the_wave_before_the_pack_does(self, model, monkeypatch, rng):
        """Six short prompts fit one pack, but four rows take four; the
        other two pack together once the rows retire."""
        packs = self._serve(model, monkeypatch, rng, (2,) * 6, (3,) * 6)
        assert packs == [[2, 2, 2, 2], [2, 2]]

    def test_zero_budget_requests_never_enter_a_pack(self, model, monkeypatch, rng):
        packs = self._serve(model, monkeypatch, rng, (4, 5, 6, 7), (0, 3, 0, 3))
        assert packs == [[5, 7]]

    def test_head_expiring_between_packs_expires_as_before(self, model, monkeypatch, rng):
        """The first pack's forward moves the clock past the next head's
        deadline: that head expires unserved instead of forming a pack."""
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=4, clock=clock)
        packs = self._spy_packs(model, monkeypatch, clock=clock, tick=1.0)
        first = engine.submit(rng.integers(0, 40, size=20), 2)
        late = engine.submit(rng.integers(0, 40, size=20), 2, deadline_s=0.5)
        after = engine.submit(rng.integers(0, 40, size=6), 2)
        results = {r.request_id: r for r in engine.step()}
        assert results[late].preempted and results[late].tokens.size == 0
        assert packs == [[20], [6]]
        results.update({r.request_id: r for r in engine.run_until_idle()})
        assert results[first].tokens.size == 2 and results[after].tokens.size == 2


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
        engine.step()
        assert len(seen) >= 1  # first token already out
        assert engine.in_flight == 1  # …but the request is not done
        [result] = engine.run_until_idle()
        assert seen == result.tokens.tolist()


class TestSharedCache:
    def test_busy_periods_reuse_one_cache(self, model, rng, monkeypatch):
        """The scheduler allocates its shared cache on the first admission
        only; each later busy period resets and reuses it."""
        prompts = [rng.integers(0, 40, size=size) for size in (6, 3, 5)]
        expected = [model.generate(prompt, 2)[len(prompt) :].tolist() for prompt in prompts]
        engine = ServingEngine(model, max_batch_size=4)
        allocations = []
        new_cache = model.new_cache

        def counted(batch):
            allocations.append(batch)
            return new_cache(batch)

        monkeypatch.setattr(model, "new_cache", counted)
        for prompt, tokens in zip(prompts, expected):
            (result,) = engine.serve([prompt], max_new_tokens=2)
            assert result.tokens.tolist() == tokens
            assert engine.in_flight == 0
        assert allocations == [4]

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
        engine.step()
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
        engine.step()
        assert modes == [False]  # admission prefill ran in eval mode
        assert calls["eval"] == 1
        assert model.training  # restored after the step
