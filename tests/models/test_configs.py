"""Tests for the paper model zoo and Table 1 hyper-parameters."""

from __future__ import annotations

import pytest

from repro.models import (
    PAPER_MODELS,
    TABLE1_HYPERPARAMS,
    downscaled_config,
    paper_model,
)
from repro.models.configs import ModelSpec


class TestPaperModels:
    def test_all_five_benchmarks_present(self):
        assert set(PAPER_MODELS) == {"bert-base", "bert-large", "gpt2", "llama3-1b", "vit-base"}

    def test_bert_base_dimensions(self):
        spec = paper_model("bert-base")
        assert (spec.num_layers, spec.d_model, spec.num_heads, spec.d_ff) == (12, 768, 12, 3072)
        assert spec.max_seq_len == 128  # GLUE MSL per Section 5.1

    def test_gpt2_msl_is_1024(self):
        assert paper_model("gpt2").max_seq_len == 1024  # WikiText-2 MSL

    def test_llama3_msl_is_100(self):
        assert paper_model("llama3-1b").max_seq_len == 100  # PTB MSL

    def test_d_head_consistency(self):
        for spec in PAPER_MODELS.values():
            assert spec.d_head * spec.num_heads == spec.d_model

    def test_static_weight_count_bert_base(self):
        spec = paper_model("bert-base")
        per_layer = 4 * 768 * 768 + 2 * 768 * 3072
        assert spec.static_weight_params() == 12 * per_layer
        assert spec.static_weight_bytes() == spec.static_weight_params()  # INT8

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            paper_model("t5")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("x", "rnn", 1, 8, 2, 16, 10, 8)
        with pytest.raises(ValueError):
            ModelSpec("x", "encoder", 1, 10, 3, 16, 10, 8)


class TestTable1:
    def test_matches_paper_rows(self):
        assert TABLE1_HYPERPARAMS["bert-base"].batch_size == 32
        assert TABLE1_HYPERPARAMS["bert-base"].learning_rate == 2e-5
        assert TABLE1_HYPERPARAMS["bert-large"].learning_rate == 5e-6
        assert TABLE1_HYPERPARAMS["gpt2"].batch_size == 2
        assert TABLE1_HYPERPARAMS["llama3-1b"].learning_rate == 2e-5
        assert TABLE1_HYPERPARAMS["vit-base"].batch_size == 10
        assert all(p.optimizer == "AdamW" for p in TABLE1_HYPERPARAMS.values())


class TestDownscaling:
    def test_preserves_ffn_ratio(self):
        cfg = downscaled_config("bert-base", d_model=32)
        assert cfg.d_ff == 4 * 32  # BERT uses 4x expansion

    def test_preserves_head_divisibility(self):
        for name in PAPER_MODELS:
            cfg = downscaled_config(name, d_model=32)
            assert cfg.d_model % cfg.num_heads == 0

    def test_mini_model_is_trainable_size(self):
        from repro.nn import EncoderClassifier

        cfg = downscaled_config("bert-base", d_model=32, num_layers=2)
        model = EncoderClassifier(cfg)
        assert sum(p.size for p in model.parameters()) < 200_000
