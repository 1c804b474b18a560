"""Tests for the module system, layers and parameter management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    ReLU,
    Sequential,
    Tensor,
)


class TestLinear:
    def test_forward_matches_numpy(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(layer(Tensor(x)).data, x @ layer.weight.data.T)

    def test_weight_shape_is_out_by_in(self):
        layer = Linear(7, 3)
        assert layer.weight.shape == (3, 7)

    def test_gradients_flow_to_weight_and_bias(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None and layer.weight.grad.shape == (2, 4)
        assert layer.bias.grad is not None and layer.bias.grad.shape == (2,)

    def test_batched_3d_input(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 2)

    def test_init_scale_depends_on_fan_in(self):
        wide = Linear(10000, 4, rng=np.random.default_rng(0))
        narrow = Linear(4, 4, rng=np.random.default_rng(0))
        assert np.abs(wide.weight.data).max() < np.abs(narrow.weight.data).max()


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 6, rng=rng)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_out_of_range_raises(self, rng):
        emb = Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_accumulates_per_row(self, rng):
        emb = Embedding(5, 3, rng=rng)
        emb(np.array([1, 1, 2])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], 2 * np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[2], np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))


class TestLayerNorm:
    def test_output_is_normalized(self, rng):
        ln = LayerNorm(8)
        out = ln(Tensor(rng.normal(loc=3.0, scale=5.0, size=(4, 8)))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)

    def test_affine_parameters_apply(self, rng):
        ln = LayerNorm(4)
        ln.weight.data = np.array([2.0, 2.0, 2.0, 2.0])
        ln.bias.data = np.array([1.0, 1.0, 1.0, 1.0])
        out = ln(Tensor(rng.normal(size=(3, 4)))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.ones(3), atol=1e-6)

    def test_gradcheck(self, rng):
        ln = LayerNorm(5)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        ln(x).sum().backward()
        # LayerNorm of x + c is invariant in c, so the row-grad sums to ~0.
        np.testing.assert_allclose(x.grad.sum(axis=-1), np.zeros(2), atol=1e-8)


class TestDropoutModule:
    def test_train_vs_eval(self, rng):
        drop = Dropout(0.5, rng=np.random.default_rng(3))
        x = Tensor(np.ones((8, 8)))
        train_out = drop(x)
        drop.eval()
        eval_out = drop(x)
        assert (train_out.data == 0).any()
        np.testing.assert_allclose(eval_out.data, x.data)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestModuleProtocol:
    def test_named_parameters_nested(self):
        model = Sequential(Linear(4, 8), GELU(), Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.2.bias" in names
        assert len(names) == 4

    def test_zero_grad_clears(self, rng):
        layer = Linear(3, 2, rng=rng)
        layer(Tensor(rng.normal(size=(1, 3)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), Sequential(Dropout(0.5)))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self, rng):
        src = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        dst = Sequential(Linear(4, 4), ReLU(), Linear(4, 2))
        dst.load_state_dict(src.state_dict())
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(dst(x).data, src(x).data)

    def test_load_state_dict_rejects_mismatch(self):
        model = Linear(3, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 3))})  # missing bias

    def test_load_state_dict_rejects_bad_shape(self):
        model = Linear(3, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_modulelist_indexing_and_replacement(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 2)])
        replacement = Linear(2, 2)
        ml[1] = replacement
        assert ml[1] is replacement
        assert len(ml) == 2

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
