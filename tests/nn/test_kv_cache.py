"""Tests for the KV cache and the incremental (O(L)-per-token) decode path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    DecoderLM,
    KVCache,
    MultiHeadAttention,
    Tensor,
    TransformerConfig,
    causal_mask,
    set_default_dtype,
)


@pytest.fixture
def lm_config():
    return TransformerConfig(
        vocab_size=50,
        d_model=32,
        num_heads=4,
        num_layers=3,
        d_ff=64,
        max_seq_len=24,
        seed=7,
    )


class TestCausalMaskGeneralization:
    def test_square_mask_unchanged(self):
        np.testing.assert_array_equal(causal_mask(5), causal_mask(5, 5))

    def test_incremental_mask_alignment(self):
        # 2 queries at positions 3, 4 of a 5-key prefix.
        mask = causal_mask(2, 5)
        np.testing.assert_array_equal(
            mask,
            [[False, False, False, False, True], [False, False, False, False, False]],
        )

    def test_single_query_sees_whole_prefix(self):
        assert not causal_mask(1, 7).any()

    def test_rejects_kv_shorter_than_queries(self):
        with pytest.raises(ValueError):
            causal_mask(4, 3)


class TestKVCache:
    def test_append_and_views(self):
        cache = KVCache(num_layers=2, batch=2, num_heads=3, head_dim=4, capacity=8)
        k = np.ones((2, 3, 5, 4))
        k_view, v_view = cache.append(0, k, 2 * k)
        assert k_view.shape == (2, 3, 5, 4)
        # lengths advance only on commit, so the second layer writes at the
        # same offsets.
        assert cache.max_length == 0
        cache.append(1, k, 2 * k)
        cache.advance(5)
        assert cache.max_length == 5

    def test_overflow_raises(self):
        cache = KVCache(num_layers=1, batch=1, num_heads=1, head_dim=2, capacity=4)
        cache.append(0, np.zeros((1, 1, 3, 2)), np.zeros((1, 1, 3, 2)))
        cache.advance(3)
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2)))

    def test_ragged_multi_token_append_rejected(self):
        cache = KVCache(num_layers=1, batch=2, num_heads=1, head_dim=2, capacity=8)
        cache.append(0, np.zeros((2, 1, 4, 2)), np.zeros((2, 1, 4, 2)))
        cache.advance(4)
        cache.lengths[...] = np.array([4, 2])
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 2, 2)))

    def test_ragged_scatter_writes_at_row_offsets(self):
        cache = KVCache(num_layers=1, batch=2, num_heads=1, head_dim=2, capacity=8)
        cache.lengths[...] = np.array([3, 1])
        k = np.arange(4.0).reshape(2, 1, 1, 2)
        cache.append(0, k, k)
        np.testing.assert_array_equal(cache.keys[0][0, 0, 3], [0.0, 1.0])
        np.testing.assert_array_equal(cache.keys[0][1, 0, 1], [2.0, 3.0])

    def test_key_padding_mask(self):
        cache = KVCache(num_layers=1, batch=2, num_heads=1, head_dim=2, capacity=8)
        cache.lengths[...] = np.array([4, 2])
        mask = cache.key_padding_mask(5)  # after a 1-token append
        np.testing.assert_array_equal(
            mask, [[False] * 5, [False, False, False, True, True]]
        )

    def test_aligned_rows_need_no_mask(self):
        cache = KVCache(num_layers=1, batch=2, num_heads=1, head_dim=2, capacity=8)
        cache.lengths[...] = np.array([3, 3])
        assert cache.key_padding_mask(4) is None

    def test_reset_reuses_buffers(self):
        cache = KVCache(num_layers=1, batch=1, num_heads=1, head_dim=2, capacity=4)
        buf = cache.keys[0]
        cache.append(0, np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2)))
        cache.advance(2)
        cache.reset()
        assert cache.max_length == 0
        assert cache.keys[0] is buf

    def test_dtype_follows_default_policy(self):
        prev = set_default_dtype("float32")
        try:
            cache = KVCache(num_layers=1, batch=1, num_heads=1, head_dim=2, capacity=4)
            assert cache.dtype == np.dtype("float32")
        finally:
            set_default_dtype(prev)


class TestIncrementalAttention:
    def test_cached_equals_full_context(self, rng):
        mha = MultiHeadAttention(16, 4, causal=True, rng=rng)
        x = rng.normal(size=(2, 7, 16))
        full = mha(Tensor(x)).data
        cache = KVCache(num_layers=1, batch=2, num_heads=4, head_dim=4, capacity=7)
        outs = [mha(Tensor(x[:, :3]), cache=cache.layer(0)).data]
        cache.advance(3)
        for t in range(3, 7):
            outs.append(mha(Tensor(x[:, t : t + 1]), cache=cache.layer(0)).data)
            cache.advance(1)
        np.testing.assert_allclose(np.concatenate(outs, axis=1), full, atol=1e-12)


class TestIncrementalDecoder:
    def test_cached_logits_equal_full_context(self, lm_config, rng):
        """KV-cached incremental forward ≡ full-context forward (tentpole)."""
        model = DecoderLM(lm_config)
        ids = rng.integers(0, 50, size=(3, 12))
        full = model.forward(ids).data
        cache = model.new_cache(3)
        parts = [model.forward(ids[:, :5], cache=cache).data]
        for t in range(5, 12):
            parts.append(model.forward(ids[:, t : t + 1], cache=cache).data)
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full, atol=1e-10)

    def test_cached_logits_equal_full_context_float32(self, lm_config, rng):
        """Equivalence holds at the float32 compute-dtype policy too."""
        prev = set_default_dtype("float32")
        try:
            model = DecoderLM(lm_config)
            ids = rng.integers(0, 50, size=(2, 10))
            full = model.forward(ids).data
            cache = model.new_cache(2)
            parts = [model.forward(ids[:, :4], cache=cache).data]
            for t in range(4, 10):
                parts.append(model.forward(ids[:, t : t + 1], cache=cache).data)
            inc = np.concatenate(parts, axis=1)
            assert inc.dtype == np.dtype("float32")
            np.testing.assert_allclose(inc, full, rtol=2e-5, atol=2e-5)
        finally:
            set_default_dtype(prev)

    def test_cache_capacity_guard(self, lm_config, rng):
        model = DecoderLM(lm_config)
        cache = model.new_cache(1, capacity=6)
        model.forward(rng.integers(0, 50, size=(1, 4)), cache=cache)
        with pytest.raises(ValueError):
            model.forward(rng.integers(0, 50, size=(1, 3)), cache=cache)


class TestGenerate:
    def test_cached_matches_naive_greedy(self, lm_config, rng):
        model = DecoderLM(lm_config)
        prompts = rng.integers(0, 50, size=(4, 8))
        cached = model.generate(prompts, 12, use_cache=True)
        naive = model.generate(prompts, 12, use_cache=False)
        np.testing.assert_array_equal(cached, naive)

    def test_batched_equals_per_prompt_loop(self, lm_config, rng):
        """Batched ragged generate ≡ running every prompt alone."""
        model = DecoderLM(lm_config)
        prompts = rng.integers(0, 50, size=(3, 9))
        lengths = np.array([9, 6, 3])
        batched = model.generate(prompts, 7, prompt_lengths=lengths)
        for i in range(3):
            solo = model.generate(prompts[i, : lengths[i]], 7)
            np.testing.assert_array_equal(
                solo[lengths[i] :], batched[i, lengths[i] : lengths[i] + 7]
            )

    def test_one_dimensional_prompt_back_compat(self, lm_config, rng):
        model = DecoderLM(lm_config)
        prompt = rng.integers(0, 50, size=6)
        out = model.generate(prompt, 5)
        assert out.shape == (11,)
        np.testing.assert_array_equal(out[:6], prompt)

    def test_naive_sliding_window_past_max_seq_len(self, lm_config, rng):
        model = DecoderLM(lm_config)
        out = model.generate(rng.integers(0, 50, size=4), 40, use_cache=False)
        assert out.shape == (44,)

    def test_cached_overflow_falls_back_to_sliding_window(self, lm_config, rng):
        """A request past max_seq_len degrades to the naive recompute (the
        historical behaviour) instead of raising."""
        model = DecoderLM(lm_config)
        prompt = rng.integers(0, 50, size=4)
        out = model.generate(prompt, 40, use_cache=True)
        np.testing.assert_array_equal(out, model.generate(prompt, 40, use_cache=False))

    def test_dropout_frozen_during_generation(self, rng):
        """Decoding must be deterministic and cached ≡ naive even for models
        built with dropout > 0 (generation runs in eval mode)."""
        config = TransformerConfig(
            vocab_size=50, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_seq_len=24, dropout=0.2, seed=4,
        )
        model = DecoderLM(config)
        assert model.training
        prompts = rng.integers(0, 50, size=(2, 6))
        a = model.generate(prompts, 8, use_cache=True)
        b = model.generate(prompts, 8, use_cache=True)
        c = model.generate(prompts, 8, use_cache=False)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
        assert model.training  # restored afterwards

    def test_eos_stops_row_early_and_pads(self, lm_config, rng):
        model = DecoderLM(lm_config)
        prompts = rng.integers(0, 50, size=(2, 5))
        # Discover what greedy emits first, then declare it the EOS token.
        free = model.generate(prompts, 6)
        eos = int(free[0, 5])
        out = model.generate(prompts, 6, eos_id=eos, pad_id=0)
        assert out[0, 5] == eos
        np.testing.assert_array_equal(out[0, 6:], np.zeros(5, dtype=np.int64))

    def test_sampled_generation_respects_rng(self, lm_config, rng):
        model = DecoderLM(lm_config)
        prompt = rng.integers(0, 50, size=6)
        a = model.generate(prompt, 8, rng=np.random.default_rng(0))
        b = model.generate(prompt, 8, rng=np.random.default_rng(0))
        c = model.generate(prompt, 8, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_prompt_lengths_validation(self, lm_config, rng):
        model = DecoderLM(lm_config)
        prompts = rng.integers(0, 50, size=(2, 5))
        with pytest.raises(ValueError):
            model.generate(prompts, 3, prompt_lengths=np.array([5, 6]))
        with pytest.raises(ValueError):
            model.generate(prompts, 3, prompt_lengths=np.array([5]))


class TestNaiveSlidingWindowDivergence:
    def test_early_finished_rows_survive_window_slide(self, rng):
        """Rows that stop early (per-row budget) must not crash or corrupt
        the naive sliding-window path once decoding passes max_seq_len."""
        config = TransformerConfig(
            vocab_size=50, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_seq_len=16, seed=2,
        )
        model = DecoderLM(config)
        prompts = rng.integers(0, 50, size=(2, 4))
        out = model.generate(prompts, np.array([1, 30]), use_cache=False)
        # Row 1's long generation matches running it alone; row 0 produced
        # exactly its single token and padded the rest.
        solo = model.generate(prompts[1], 30, use_cache=False)
        np.testing.assert_array_equal(out[1], solo)
        np.testing.assert_array_equal(out[0, 5:], np.zeros(29, dtype=np.int64))

    def test_eos_divergence_past_window_also_survives(self, rng):
        config = TransformerConfig(
            vocab_size=50, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_seq_len=16, seed=2,
        )
        model = DecoderLM(config)
        prompts = rng.integers(0, 50, size=(2, 4))
        free = model.generate(prompts, 30, use_cache=False)
        eos = int(free[0, 4])  # row 0's first emission becomes EOS
        out = model.generate(prompts, 30, use_cache=False, eos_id=eos)
        assert out[0, 4] == eos

    def test_active_ragged_rows_past_window_still_rejected(self, rng):
        config = TransformerConfig(
            vocab_size=50, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_seq_len=16, seed=2,
        )
        model = DecoderLM(config)
        prompts = rng.integers(0, 50, size=(2, 6))
        with pytest.raises(ValueError):
            model.generate(
                prompts, 30, prompt_lengths=np.array([6, 3]), use_cache=False
            )


class TestRowLevelOps:
    """Row views / copy / clear — the continuous-batching cache primitives."""

    def test_rows_view_shares_buffers_and_lengths(self):
        cache = KVCache(num_layers=1, batch=3, num_heads=1, head_dim=2, capacity=8)
        view = cache.rows_view(0, 2)
        assert view.batch == 2
        view.append(0, np.ones((2, 1, 2, 2)), np.ones((2, 1, 2, 2)))
        view.advance(2)
        # Writes and length commits land in the parent.
        np.testing.assert_array_equal(cache.lengths, [2, 2, 0])
        assert cache.keys[0][0, 0, 1, 0] == 1.0
        assert cache.keys[0][2].max() == 0.0  # untouched row

    def test_row_view_prefills_one_row_of_a_live_cache(self):
        cache = KVCache(num_layers=1, batch=3, num_heads=1, head_dim=2, capacity=8)
        cache.lengths[...] = np.array([4, 0, 2])  # rows 0/2 mid-decode
        view = cache.row_view(1)
        view.append(0, np.full((1, 1, 3, 2), 7.0), np.full((1, 1, 3, 2), 7.0))
        view.advance(3)
        np.testing.assert_array_equal(cache.lengths, [4, 3, 2])
        assert cache.keys[0][1, 0, 2, 0] == 7.0
        assert cache.keys[0][0].max() == 0.0  # neighbours untouched

    def test_length_writes_keep_views_coherent(self):
        cache = KVCache(num_layers=1, batch=2, num_heads=1, head_dim=2, capacity=8)
        view = cache.rows_view(0, 2)
        cache.lengths[...] = np.array([3, 1])
        np.testing.assert_array_equal(view.lengths, [3, 1])
        view.reset()
        assert cache.max_length == 0

    def test_copy_row_moves_valid_prefix(self):
        cache = KVCache(num_layers=2, batch=3, num_heads=1, head_dim=2, capacity=8)
        k = np.arange(6.0).reshape(1, 1, 3, 2)
        cache.row_view(2).append(0, k, 2 * k)
        cache.row_view(2).append(1, 3 * k, 4 * k)
        cache.lengths[...] = np.array([0, 0, 3])
        cache.copy_row(2, 0)
        np.testing.assert_array_equal(cache.lengths, [3, 0, 3])
        np.testing.assert_array_equal(cache.keys[0][0, :, :3], k[0])
        np.testing.assert_array_equal(cache.values[1][0, :, :3], 4 * k[0])
        cache.copy_row(1, 1)  # src == dst is a no-op
        cache.clear_row(2)
        np.testing.assert_array_equal(cache.lengths, [3, 0, 0])

    def test_row_op_bounds_are_checked(self):
        cache = KVCache(num_layers=1, batch=2, num_heads=1, head_dim=2, capacity=4)
        with pytest.raises(ValueError):
            cache.rows_view(0, 3)
        with pytest.raises(ValueError):
            cache.rows_view(1, 1)
        with pytest.raises(ValueError):
            cache.copy_row(0, 2)
        with pytest.raises(ValueError):
            cache.clear_row(-1)

    def test_view_of_view_addresses_parent_rows(self):
        cache = KVCache(num_layers=1, batch=4, num_heads=1, head_dim=2, capacity=4)
        inner = cache.rows_view(1, 4).rows_view(1, 3)  # parent rows 2..3
        inner.lengths[...] = np.array([2, 1])
        np.testing.assert_array_equal(cache.lengths, [0, 0, 2, 1])


class TestPrefill:
    def test_prefill_matches_forward_last_logits(self, lm_config, rng):
        model = DecoderLM(lm_config)
        prompt = rng.integers(0, 50, size=6)
        cache = model.new_cache(1)
        logits = model.prefill(prompt, cache)
        full = model.forward(prompt[None, :]).data[:, -1]
        np.testing.assert_allclose(logits, full, atol=1e-12)
        np.testing.assert_array_equal(cache.lengths, [6])

    def test_prefill_into_row_view_of_live_cache(self, lm_config, rng):
        """Prefilling one row must not disturb a neighbouring mid-decode row."""
        model = DecoderLM(lm_config)
        cache = model.new_cache(2)
        model.prefill(rng.integers(0, 50, size=5), cache.row_view(0))
        before = [k.copy() for k in cache.keys]
        logits = model.prefill(rng.integers(0, 50, size=3), cache.row_view(1))
        assert logits.shape == (1, 50)
        np.testing.assert_array_equal(cache.lengths, [5, 3])
        for layer, k in enumerate(cache.keys):  # row 0 untouched
            np.testing.assert_array_equal(k[0], before[layer][0])

    def test_pack_fills_one_row_per_prompt(self, lm_config, rng):
        model = DecoderLM(lm_config)
        prompts = [rng.integers(0, 50, size=n) for n in (3, 6, 1)]
        cache = model.new_cache(4)
        logits = model.prefill(np.concatenate(prompts), cache.rows_view(1, 4), [3, 6, 1])
        assert logits.shape == (3, 50)
        np.testing.assert_array_equal(cache.lengths, [0, 3, 6, 1])
        for i, prompt in enumerate(prompts):
            full = model.forward(prompt[None, :]).data[0, -1]
            np.testing.assert_allclose(logits[i], full, atol=1e-12)

    @pytest.mark.parametrize(
        "tokens, rows, lengths",
        [
            (np.zeros((2, 3), dtype=int), 2, None),  # aligned batch: concatenate instead
            (np.zeros(6, dtype=int), 2, [3, 2]),  # lengths miss a token
            (np.zeros(6, dtype=int), 3, [3, 3]),  # a row without a prompt
            (np.zeros(6, dtype=int), 2, [6, 0]),  # an empty prompt
        ],
    )
    def test_malformed_pack_rejected(self, lm_config, tokens, rows, lengths):
        model = DecoderLM(lm_config)
        with pytest.raises(ValueError):
            model.prefill(tokens, model.new_cache(rows), lengths)

    def test_prefill_requires_empty_rows(self, lm_config, rng):
        model = DecoderLM(lm_config)
        cache = model.new_cache(1)
        model.prefill(rng.integers(0, 50, size=4), cache)
        with pytest.raises(ValueError):
            model.prefill(rng.integers(0, 50, size=4), cache)
