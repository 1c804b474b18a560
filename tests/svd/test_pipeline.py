"""Integration tests for the gradient-redistribution pipeline (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_glue_task
from repro.nn import EncoderClassifier, TransformerConfig
from repro.svd import (
    GradientRedistributionPipeline,
    SVDLinear,
    apply_svd,
    finetune,
    sigma_gradient_snapshot,
)


@pytest.fixture(scope="module")
def task_and_model():
    """Tiny encoder + sst2-like task reused across tests (training is slow)."""
    data = make_glue_task("sst2", seed=0)
    config = TransformerConfig(
        vocab_size=data.spec.vocab_size,
        d_model=32,
        num_heads=4,
        num_layers=2,
        d_ff=64,
        max_seq_len=data.spec.seq_len,
        num_classes=2,
        seed=0,
    )
    return data, config


class TestApplySVD:
    def test_replaces_all_static_linears(self, task_and_model):
        _, config = task_and_model
        model = EncoderClassifier(config)
        replaced = apply_svd(model)
        assert len(replaced) == 6 * config.num_layers
        for _, layer in model.iter_static_linears():
            assert isinstance(layer, SVDLinear)

    def test_model_still_runs_after_replacement(self, task_and_model, rng):
        data, config = task_and_model
        model = EncoderClassifier(config)
        before = model(data.test.inputs[:4]).data
        apply_svd(model, rank=config.d_model)  # full rank: lossless
        after = model(data.test.inputs[:4]).data
        np.testing.assert_allclose(after, before, atol=1e-8)

    def test_truncation_changes_output(self, task_and_model):
        data, config = task_and_model
        model = EncoderClassifier(config)
        before = model(data.test.inputs[:4]).data
        apply_svd(model, rank=4)
        after = model(data.test.inputs[:4]).data
        assert not np.allclose(after, before)


class TestFinetune:
    def test_recovers_accuracy_after_truncation(self, task_and_model):
        """The paper's core recovery claim, at mini scale: fine-tuning brings
        the truncated model's loss back down."""
        data, config = task_and_model
        model = EncoderClassifier(config)
        apply_svd(model)  # hard-threshold truncation
        result = finetune(
            model, data.train, task_type="classification",
            epochs=2, batch_size=32, learning_rate=2e-3,
        )
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        assert result.steps == 2 * ((len(data.train) + 31) // 32)

    def test_sigma_gradients_recorded_per_layer(self, task_and_model):
        data, config = task_and_model
        model = EncoderClassifier(config)
        apply_svd(model)
        result = finetune(
            model, data.train, task_type="classification",
            epochs=1, batch_size=64, learning_rate=1e-3,
        )
        assert len(result.sigma_gradients) == 6 * config.num_layers
        for grads in result.sigma_gradients.values():
            assert (grads >= 0).all()
            assert grads.sum() > 0

    def test_rejects_unknown_task(self, task_and_model):
        data, config = task_and_model
        model = EncoderClassifier(config)
        with pytest.raises(ValueError):
            finetune(model, data.train, task_type="ranking")


class TestGradientSnapshot:
    def test_snapshot_does_not_change_weights(self, task_and_model):
        data, config = task_and_model
        model = EncoderClassifier(config)
        apply_svd(model)
        state_before = model.state_dict()
        sigma_gradient_snapshot(model, data.test, "classification", max_batches=2)
        state_after = model.state_dict()
        for key in state_before:
            np.testing.assert_array_equal(state_before[key], state_after[key])


class TestPipeline:
    @pytest.fixture(scope="class")
    def plan(self, task_and_model):
        data, config = task_and_model
        model = EncoderClassifier(config)
        pipeline = GradientRedistributionPipeline(
            protect_fraction=0.2, epochs=1, batch_size=32, learning_rate=2e-3,
        )
        return pipeline.run(model, data.train, task_type="classification")

    def test_plan_covers_all_layers(self, plan, task_and_model):
        _, config = task_and_model
        assert len(plan.layers) == 6 * config.num_layers

    def test_protection_rate_respected(self, plan):
        for layer in plan.layers.values():
            expected = max(1, int(round(layer.rank * 0.2)))
            assert int(layer.protected_ranks.sum()) == expected

    def test_merged_factor_shapes(self, plan):
        for layer in plan.layers.values():
            rank, in_f = layer.a_matrix.shape
            out_f, rank_b = layer.b_matrix.shape
            assert rank == rank_b == layer.rank

    def test_protected_ranks_have_largest_gradients(self, plan):
        for layer in plan.layers.values():
            protected = layer.sigma_gradients[layer.protected_ranks]
            unprotected = layer.sigma_gradients[~layer.protected_ranks]
            if len(protected) and len(unprotected):
                assert protected.min() >= unprotected.max() - 1e-12

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            GradientRedistributionPipeline(policy="random")

    def test_totals_consistent(self, plan):
        assert plan.protected_ranks() <= plan.total_ranks()
        assert plan.protected_ranks() > 0


class TestGradientRedistributionEffect:
    """Fig. 11's qualitative claims at mini scale.

    The paper starts from large *pretrained* models whose weight spectra
    decay steeply; our from-scratch mini models have flatter spectra, so we
    assert the load-bearing directional invariants rather than the paper's
    absolute concentration levels (see EXPERIMENTS.md for the measured gap):

    1. after truncation + fine-tuning, the gradient mass over ranks is
       markedly non-uniform, and
    2. it is biased toward the *leading* ranks (larger singular values),
       which is what makes a small SLC-protection budget effective.
    """

    @pytest.fixture(scope="class")
    def finetuned_layers(self, task_and_model):
        data, config = task_and_model
        model = EncoderClassifier(config)
        # Pre-train the dense model first (the paper fine-tunes pretrained
        # models; an untrained model has no information to redistribute).
        from repro.nn import AdamW, BatchIterator, cross_entropy

        opt = AdamW(model.parameters(), lr=2e-3, weight_decay=0.05)
        gen = np.random.default_rng(0)
        for _ in range(4):
            for x, y in BatchIterator(data.train, 32, rng=gen):
                loss = cross_entropy(model(x), y.astype(int))
                model.zero_grad()
                loss.backward()
                opt.step()
        layers = apply_svd(model)
        finetune(
            model, data.train, task_type="classification",
            epochs=2, batch_size=32, learning_rate=2e-3,
        )
        return layers

    def test_gradient_mass_is_nonuniform(self, finetuned_layers):
        ratios = []
        for layer in finetuned_layers.values():
            grads = layer.mean_sigma_gradient()
            ratios.append(grads.max() / max(grads.mean(), 1e-12))
        # Uniform gradients would give ratio 1; demand clear structure.
        assert np.mean(ratios) > 1.5

    def test_leading_ranks_carry_excess_mass(self, finetuned_layers):
        """Mass in the first 25% of ranks should exceed the uniform share."""
        shares = []
        for layer in finetuned_layers.values():
            grads = layer.mean_sigma_gradient()
            k = max(1, len(grads) // 4)
            shares.append(grads[:k].sum() / max(grads.sum(), 1e-12))
        assert np.mean(shares) > 0.25

    def test_gradient_rank_correlation_is_negative(self, finetuned_layers):
        """Spearman(rank index, |grad|) < 0: gradients shrink down the ranks."""
        from scipy import stats

        correlations = []
        for layer in finetuned_layers.values():
            grads = layer.mean_sigma_gradient()
            correlations.append(
                stats.spearmanr(np.arange(len(grads)), grads).statistic
            )
        assert np.mean(correlations) < -0.05
