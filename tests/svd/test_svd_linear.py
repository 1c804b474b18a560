"""Tests for the factored SVDLinear layer and its gradient bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, Tensor
from repro.svd import SVDLinear, hard_threshold_rank


class TestConstruction:
    def test_from_linear_full_rank_matches_dense(self, rng):
        linear = Linear(6, 4, rng=rng)
        svd = SVDLinear.from_linear(linear, rank=4)
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(
            svd(Tensor(x)).data, linear(Tensor(x)).data, atol=1e-10
        )

    def test_default_rank_is_hard_threshold(self, rng):
        linear = Linear(16, 8, rng=rng)
        svd = SVDLinear.from_linear(linear)
        assert svd.rank == hard_threshold_rank(8, 16)

    def test_preserves_bias(self, rng):
        linear = Linear(5, 3, rng=rng)
        linear.bias.data = np.array([1.0, 2.0, 3.0])
        svd = SVDLinear.from_linear(linear, rank=3)
        np.testing.assert_allclose(svd.bias.data, [1.0, 2.0, 3.0])

    def test_no_bias_supported(self, rng):
        linear = Linear(5, 3, bias=False, rng=rng)
        svd = SVDLinear.from_linear(linear, rank=2)
        assert svd.bias is None
        out = svd(Tensor(rng.normal(size=(2, 5))))
        assert out.shape == (2, 3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SVDLinear(np.zeros((4, 3)), np.zeros(2), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            SVDLinear(np.zeros((4, 3)), np.zeros((3, 1)), np.zeros((3, 5)))

    def test_truncated_output_close_for_lowrank_weight(self, rng):
        # If the true weight is rank-2, a rank-2 SVDLinear is lossless.
        linear = Linear(8, 6, bias=False, rng=rng)
        linear.weight.data = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 8))
        svd = SVDLinear.from_linear(linear, rank=2)
        x = rng.normal(size=(4, 8))
        np.testing.assert_allclose(svd(Tensor(x)).data, linear(Tensor(x)).data, atol=1e-9)


class TestGradients:
    def test_sigma_gradient_matches_analytic(self, rng):
        """dL/dsigma_i = sum_batch (x@v_i) * (dL/dy @ u_i) for L = sum(y)."""
        linear = Linear(5, 4, bias=False, rng=rng)
        svd = SVDLinear.from_linear(linear, rank=3)
        x = rng.normal(size=(7, 5))
        svd(Tensor(x)).sum().backward()
        # For L = sum(y): dL/dy = 1, so dL/dsigma_i = sum(x @ v_i) * sum(u_i).
        expected = (x @ svd.vt.data.T).sum(axis=0) * svd.u.data.sum(axis=0)
        np.testing.assert_allclose(svd.sigma.grad, expected, atol=1e-9)

    def test_record_requires_backward(self, rng):
        svd = SVDLinear.from_linear(Linear(4, 4, rng=rng), rank=2)
        with pytest.raises(RuntimeError):
            svd.record_sigma_gradient()

    def test_accumulation_and_mean(self, rng):
        svd = SVDLinear.from_linear(Linear(4, 4, rng=rng), rank=2)
        for _ in range(3):
            svd.zero_grad()
            svd(Tensor(rng.normal(size=(2, 4)))).sum().backward()
            svd.record_sigma_gradient()
        mean = svd.mean_sigma_gradient()
        assert mean.shape == (2,)
        assert (mean >= 0).all()
        svd.reset_sigma_gradient()
        np.testing.assert_allclose(svd.mean_sigma_gradient(), np.zeros(2))

    def test_all_factors_are_trainable(self, rng):
        svd = SVDLinear.from_linear(Linear(4, 4, rng=rng), rank=3)
        names = [name for name, _ in svd.named_parameters()]
        assert {"u", "sigma", "vt", "bias"} <= set(names)
        svd(Tensor(rng.normal(size=(2, 4)))).sum().backward()
        assert svd.u.grad is not None
        assert svd.vt.grad is not None
        assert svd.sigma.grad is not None


def _effective_weight(svd: SVDLinear) -> np.ndarray:
    """Dense weight the factors represent: ``U diag(σ) Vᵀ``."""
    return (svd.u.data * svd.sigma.data) @ svd.vt.data


class TestDeploymentViews:
    def test_merged_factors_compose_to_effective_weight(self, rng):
        svd = SVDLinear.from_linear(Linear(6, 5, rng=rng), rank=3)
        a, b = svd.merged_factors()
        np.testing.assert_allclose(b @ a, _effective_weight(svd), atol=1e-12)

    def test_effective_weight_drifts_after_update(self, rng):
        from repro.nn import AdamW

        svd = SVDLinear.from_linear(Linear(4, 4, rng=rng), rank=2)
        before = _effective_weight(svd)
        svd(Tensor(rng.normal(size=(2, 4)))).sum().backward()
        AdamW(list(svd.parameters()), lr=1e-2).step()
        after = _effective_weight(svd)
        assert not np.allclose(before, after)

    def test_factors_return_copies(self, rng):
        svd = SVDLinear.from_linear(Linear(4, 4, rng=rng), rank=2)
        factors = svd.factors()
        factors.s[:] = 0.0
        assert svd.sigma.data.max() > 0
