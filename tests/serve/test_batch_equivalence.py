"""Ragged batched decode ≡ per-row decode ≡ per-request ``generate``.

The continuous scheduler advances every live row with one
``model.forward(feeds, cache=rows_view)`` over a ragged KV cache, and rows
join and retire between steps, so a decode step's width changes from step
to step — down to a single row, where BLAS takes its gemv path instead of
gemm.  Batched logits agree with each row decoded alone up to float64
rounding (the accumulation order follows the width), and the served tokens
equal a one-shot ``generate`` per request: across batch widths, ragged
cache lengths, admission shapes, and arbitrary submit/step interleavings
on a noisy crossbar deployment.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import DecoderLM, TransformerConfig
from repro.nn.kv_cache import KVCache
from repro.serve import ServingEngine

from tests.serve.test_dispatch_counters import _engine, _prompt

VOCAB = 48
MAX_SEQ = 32
ATOL = 1e-12  # float64 rounding of a different accumulation order


def _model(num_layers: int = 4, seed: int = 0) -> DecoderLM:
    return DecoderLM(
        TransformerConfig(
            vocab_size=VOCAB,
            d_model=32,
            num_heads=4,
            num_layers=num_layers,
            d_ff=64,
            max_seq_len=MAX_SEQ,
            seed=seed,
        )
    )


def _cache(model: DecoderLM, batch: int) -> KVCache:
    config = model.config
    return KVCache(
        num_layers=config.num_layers,
        batch=batch,
        num_heads=config.num_heads,
        head_dim=config.d_model // config.num_heads,
        capacity=MAX_SEQ,
    )


def _prefilled(model: DecoderLM, prompts: list[np.ndarray]) -> KVCache:
    """One cache row per prompt, each prefilled through its own row view
    the way the scheduler admits a request."""
    cache = _cache(model, len(prompts))
    for row, prompt in enumerate(prompts):
        model.prefill(prompt, cache.row_view(row))
    return cache


def _decode(model: DecoderLM, cache: KVCache, feeds: np.ndarray) -> np.ndarray:
    """The scheduler's decode step: one forward over the live-row view."""
    return model.forward(feeds, cache=cache.rows_view(0, len(feeds))).data[:, -1]


def _prompts(rng, n: int, ragged: bool) -> list[np.ndarray]:
    lengths = rng.integers(2, 10, size=n) if ragged else [6] * n
    return [rng.integers(0, VOCAB, size=int(length)) for length in lengths]


class TestRaggedDecodeStep:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_matches_per_row_decode(self, rng, n, ragged):
        model = _model()
        prompts = _prompts(rng, n, ragged)
        feeds = rng.integers(0, VOCAB, size=(n, 1))
        cache = _prefilled(model, prompts)
        got = _decode(model, cache, feeds)

        expected = np.stack(
            [
                _decode(model, _prefilled(model, [prompt]), feeds[row : row + 1])[0]
                for row, prompt in enumerate(prompts)
            ]
        )
        np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)
        np.testing.assert_array_equal(got.argmax(-1), expected.argmax(-1))
        # The step advanced every row exactly once.
        np.testing.assert_array_equal(
            cache.lengths[:n], [len(prompt) + 1 for prompt in prompts]
        )

    def test_multi_step_decode_tracks_per_row(self, rng):
        """Greedy decode over several consecutive ragged steps: the batch
        feeds back the same tokens each row would feed back alone."""
        n, steps = 4, 5
        model = _model()
        prompts = _prompts(rng, n, ragged=True)
        batched = _prefilled(model, prompts)
        rows = [_prefilled(model, [prompt]) for prompt in prompts]
        feeds = rng.integers(0, VOCAB, size=(n, 1))
        row_feeds = [feeds[row : row + 1] for row in range(n)]
        for _ in range(steps):
            got = _decode(model, batched, feeds)
            expected = np.stack(
                [_decode(model, rows[row], row_feeds[row])[0] for row in range(n)]
            )
            np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)
            feeds = got.argmax(-1)[:, None]
            row_feeds = [expected[row].argmax()[None, None] for row in range(n)]
            np.testing.assert_array_equal(feeds[:, 0], [f[0, 0] for f in row_feeds])


def _trace(seed: int = 5) -> list[tuple[np.ndarray, int]]:
    """Seven ragged requests (odd, so the tail decodes one row alone)."""
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, VOCAB, size=int(rng.integers(2, 10))), int(rng.integers(2, 13)))
        for _ in range(7)
    ]


def _served(engine: ServingEngine, trace) -> list[list[int]]:
    ids = [engine.submit(prompt, budget) for prompt, budget in trace]
    results = {r.request_id: r for r in engine.run_until_idle()}
    return [results[rid].tokens.tolist() for rid in ids]


def _solo(model: DecoderLM, trace) -> list[list[int]]:
    return [model.generate(prompt, budget)[len(prompt) :].tolist() for prompt, budget in trace]


class TestServedTokens:
    @pytest.mark.parametrize("max_batch", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_tokens", [None, 24, 40])
    def test_admission_shapes_match_solo_generate(self, max_batch, max_tokens):
        """Whatever batch widths the row and token budgets produce, each
        request gets exactly its one-shot ``generate`` tokens."""
        model = _model(num_layers=2)
        trace = _trace()
        engine = ServingEngine(model, max_batch_size=max_batch, max_tokens=max_tokens)
        assert _served(engine, trace) == _solo(model, trace)
        assert engine.stats.requests_completed == len(trace)

    def test_long_tail_decodes_alone_after_retirements(self):
        """Short requests retire around a long one, which then finishes as
        a single-row batch — the gemv width — with unchanged tokens."""
        model = _model(num_layers=2)
        rng = np.random.default_rng(9)
        trace = [(rng.integers(0, VOCAB, size=3 + i), 2 + i) for i in range(3)]
        trace.append((rng.integers(0, VOCAB, size=4), 16))
        engine = ServingEngine(model, max_batch_size=4)
        ids = [engine.submit(prompt, budget) for prompt, budget in trace]
        widths, results = [], {}
        while engine.busy:
            for result in engine.step(force=True):
                results[result.request_id] = result
            widths.append(engine._continuous.last_decode_rows)
        assert [results[rid].tokens.tolist() for rid in ids] == _solo(model, trace)
        assert max(widths) == 4 and widths[-1] == 1
        assert results[ids[-1]].batch_size == 1


# An op is either a submission (prompt length, token budget, prompt seed)
# or one forced engine step; interleavings admit mid-flight, retire at
# ragged lengths and leave rows live between ops.
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=0, max_value=2**16),
        ),
        st.just("step"),
    ),
    min_size=2,
    max_size=10,
)


class TestInterleavedServing:
    @settings(max_examples=10, deadline=None)
    @given(ops=_OPS)
    def test_noisy_crossbar_interleavings_match_solo_generate(self, ops):
        """Under programming noise and batched bit-serial dispatch, any
        admit/retire/decode interleaving serves each request the tokens of
        a one-shot ``generate`` on the same deployed model."""
        engine = _engine()
        submitted, finished = [], {}
        for op in ops:
            if op == "step":
                for result in engine.step(force=True):
                    finished[result.request_id] = result
            else:
                length, budget, seed = op
                prompt = _prompt(seed, length)
                submitted.append((engine.submit(prompt, budget), prompt, budget))
        for result in engine.run_until_idle():
            finished[result.request_id] = result
        for rid, prompt, budget in submitted:
            solo = engine.model.generate(prompt, budget)[len(prompt) :]
            assert finished[rid].tokens.tolist() == solo.tolist()
