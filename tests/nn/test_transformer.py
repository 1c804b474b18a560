"""Tests for the three Transformer variants and their static-linear plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    DecoderLM,
    EncoderClassifier,
    Linear,
    TransformerConfig,
    VisionTransformer,
    cross_entropy,
    lm_cross_entropy,
)


@pytest.fixture
def tiny_config():
    return TransformerConfig(
        vocab_size=30,
        d_model=16,
        num_heads=2,
        num_layers=2,
        d_ff=32,
        max_seq_len=12,
        num_classes=3,
        seed=0,
    )


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            TransformerConfig(d_model=10, num_heads=3)

    def test_rejects_bad_activation(self):
        with pytest.raises(ValueError):
            TransformerConfig(activation="swish")

    def test_rejects_bad_patch_size(self):
        with pytest.raises(ValueError):
            TransformerConfig(image_size=30, patch_size=8)

    def test_derived_dimensions(self):
        cfg = TransformerConfig(d_model=64, num_heads=4, image_size=32, patch_size=8)
        assert cfg.d_head == 16
        assert cfg.num_patches == 16
        assert cfg.patch_dim == 3 * 64


class TestEncoderClassifier:
    def test_logit_shape(self, tiny_config, rng):
        model = EncoderClassifier(tiny_config)
        ids = rng.integers(0, 30, size=(4, 10))
        assert model(ids).shape == (4, 3)

    def test_rejects_overlong_sequence(self, tiny_config, rng):
        model = EncoderClassifier(tiny_config)
        with pytest.raises(ValueError):
            model(rng.integers(0, 30, size=(1, 13)))

    def test_static_linear_count_is_six_per_layer(self, tiny_config):
        model = EncoderClassifier(tiny_config)
        linears = list(model.iter_static_linears())
        assert len(linears) == 6 * tiny_config.num_layers
        names = [name for name, _ in linears]
        assert "blocks.0.w_q" in names and "blocks.1.ffn2" in names

    def test_replace_static_linear(self, tiny_config, rng):
        model = EncoderClassifier(tiny_config)
        new_layer = Linear(16, 16, rng=rng)
        model.replace_static_linear("blocks.0.w_q", new_layer)
        assert model.blocks[0].attn.w_q is new_layer
        model.replace_static_linear("blocks.1.ffn1", Linear(16, 32, rng=rng))
        ids = rng.integers(0, 30, size=(2, 8))
        assert model(ids).shape == (2, 3)

    def test_replace_rejects_unknown_name(self, tiny_config):
        model = EncoderClassifier(tiny_config)
        with pytest.raises(KeyError):
            model.replace_static_linear("blocks.0.nope", Linear(4, 4))
        with pytest.raises(KeyError):
            model.replace_static_linear("head", Linear(4, 4))

    def test_trains_on_trivial_task(self, tiny_config, rng):
        """One-batch overfit: loss must drop substantially."""
        from repro.nn import AdamW

        model = EncoderClassifier(tiny_config)
        ids = rng.integers(0, 30, size=(8, 10))
        labels = rng.integers(0, 3, size=8)
        opt = AdamW(model.parameters(), lr=5e-3)
        first_loss = None
        for _ in range(30):
            logits = model(ids)
            loss = cross_entropy(logits, labels)
            if first_loss is None:
                first_loss = float(loss.data)
            model.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.5 * first_loss


class TestDecoderLM:
    def test_logits_shape(self, tiny_config, rng):
        model = DecoderLM(tiny_config)
        ids = rng.integers(0, 30, size=(2, 8))
        assert model(ids).shape == (2, 8, 30)

    def test_causality_end_to_end(self, tiny_config, rng):
        model = DecoderLM(tiny_config)
        ids = rng.integers(0, 30, size=(1, 8))
        base = model(ids).data
        perturbed = ids.copy()
        perturbed[0, 7] = (perturbed[0, 7] + 1) % 30
        out = model(perturbed).data
        np.testing.assert_allclose(out[0, :7], base[0, :7], atol=1e-10)

    def test_generate_extends_prompt(self, tiny_config):
        model = DecoderLM(tiny_config)
        out = model.generate(np.array([1, 2, 3]), max_new_tokens=4)
        assert out.shape == (7,)
        np.testing.assert_array_equal(out[:3], [1, 2, 3])

    def test_generate_sampling_is_seeded(self, tiny_config):
        model = DecoderLM(tiny_config)
        a = model.generate(np.array([1]), 5, rng=np.random.default_rng(0))
        b = model.generate(np.array([1]), 5, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "lengths, budgets",
        [((1,), 5), ((7, 2), 4), ((3, 3, 3), (1, 4, 2)), ((1, 6, 4), (5, 0, 3))],
        ids=["single", "ragged", "even-staggered", "ragged-staggered"],
    )
    def test_cached_matches_naive_generate(self, tiny_config, rng, lengths, budgets):
        """The packed prefill plus cached decode emits the executable
        spec's tokens: the naive full-context recompute."""
        model = DecoderLM(tiny_config)
        padded = np.zeros((len(lengths), max(lengths)), dtype=np.int64)
        for row, n in zip(padded, lengths):
            row[:n] = rng.integers(1, 30, size=n)
        cached = model.generate(padded, np.array(budgets), prompt_lengths=lengths)
        naive = model.generate(
            padded, np.array(budgets), prompt_lengths=lengths, use_cache=False
        )
        np.testing.assert_array_equal(cached, naive)

    def test_generate_prefills_one_pack_of_real_tokens(self, tiny_config, rng, monkeypatch):
        """One prefill for the whole batch, of the unpadded prompts, even
        when the pack is longer than ``max_seq_len``; no padded forward
        runs, and every later forward feeds one token per row."""
        model = DecoderLM(tiny_config)
        lengths = np.array([9, 2, 8])  # 19 tokens > max_seq_len 12
        padded = np.zeros((3, 9), dtype=np.int64)
        for row, n in zip(padded, lengths):
            row[:n] = rng.integers(1, 30, size=n)
        packs, fed = [], []
        prefill, forward = model.prefill, model.forward

        def prefill_spy(tokens, cache, row_lengths, *args, **kwargs):
            packs.append((np.array(tokens), np.array(row_lengths)))
            return prefill(tokens, cache, row_lengths, *args, **kwargs)

        def forward_spy(token_ids, *args, **kwargs):
            fed.append(np.asarray(token_ids).shape)
            return forward(token_ids, *args, **kwargs)

        monkeypatch.setattr(model, "prefill", prefill_spy)
        monkeypatch.setattr(model, "forward", forward_spy)
        model.generate(padded, 3, prompt_lengths=lengths)
        assert len(packs) == 1
        tokens, row_lengths = packs[0]
        np.testing.assert_array_equal(row_lengths, lengths)
        np.testing.assert_array_equal(
            tokens, np.concatenate([row[:n] for row, n in zip(padded, lengths)])
        )
        # The pack's own forward, then two one-token decode feeds.
        assert fed == [(1, int(lengths.sum())), (3, 1), (3, 1)]

    def test_generate_cache_holds_only_fed_tokens(self, tiny_config, rng, monkeypatch):
        """Each row's cache ends holding its prompt and every emitted token
        but the last (emitted, never fed back): no pad position."""
        model = DecoderLM(tiny_config)
        lengths = np.array([5, 1, 3])
        padded = np.zeros((3, 5), dtype=np.int64)
        for row, n in zip(padded, lengths):
            row[:n] = rng.integers(1, 30, size=n)
        caches = []
        new_cache = model.new_cache

        def new_cache_spy(*args, **kwargs):
            caches.append(new_cache(*args, **kwargs))
            return caches[-1]

        monkeypatch.setattr(model, "new_cache", new_cache_spy)
        model.generate(padded, 4, prompt_lengths=lengths)
        (cache,) = caches
        np.testing.assert_array_equal(cache.lengths, lengths + 4 - 1)

    def test_lm_loss_decreases_with_training(self, tiny_config, rng):
        from repro.nn import AdamW

        model = DecoderLM(tiny_config)
        ids = rng.integers(0, 30, size=(4, 9))
        inputs, targets = ids[:, :-1], ids[:, 1:]
        opt = AdamW(model.parameters(), lr=5e-3)
        losses = []
        for _ in range(25):
            loss = lm_cross_entropy(model(inputs), targets)
            losses.append(float(loss.data))
            model.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < 0.5 * losses[0]


class TestVisionTransformer:
    @pytest.fixture
    def vit_config(self):
        return TransformerConfig(
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
            image_size=16,
            patch_size=8,
            in_channels=3,
            num_classes=4,
            max_seq_len=8,
        )

    def test_patchify_shape_and_content(self):
        images = np.arange(2 * 3 * 8 * 8, dtype=float).reshape(2, 3, 8, 8)
        patches = VisionTransformer.patchify(images, 4)
        assert patches.shape == (2, 4, 3 * 16)
        # First patch of first image, first channel = top-left 4x4 block.
        np.testing.assert_allclose(patches[0, 0, :16], images[0, 0, :4, :4].reshape(-1))

    def test_patchify_rejects_indivisible(self):
        with pytest.raises(ValueError):
            VisionTransformer.patchify(np.zeros((1, 3, 9, 9)), 4)

    def test_forward_shape(self, vit_config, rng):
        model = VisionTransformer(vit_config)
        out = model(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 4)

    def test_static_linears_exclude_patch_and_head(self, vit_config):
        model = VisionTransformer(vit_config)
        names = [name for name, _ in model.iter_static_linears()]
        assert all(name.startswith("blocks.") for name in names)
        assert len(names) == 6

    def test_vit_learns_to_separate_classes(self, vit_config, rng):
        from repro.nn import AdamW

        model = VisionTransformer(vit_config)
        # Two classes: bright top-half vs bright bottom-half images.
        images = rng.normal(size=(8, 3, 16, 16)) * 0.1
        labels = np.array([0, 1] * 4)
        images[labels == 0, :, :8, :] += 2.0
        images[labels == 1, :, 8:, :] += 2.0
        opt = AdamW(model.parameters(), lr=5e-3)
        for _ in range(25):
            loss = cross_entropy(model(images), labels)
            model.zero_grad()
            loss.backward()
            opt.step()
        preds = np.argmax(model(images).data, axis=1)
        assert (preds == labels).mean() >= 0.9
