"""float32 vs float64 fine-tuning: the nn.tensor dtype policy in practice.

The perf-tuned training path runs the whole loop under
``default_dtype(float32)`` (``finetune(compute_dtype="float32")``); these
tests pin down the policy mechanics and the convergence tolerance between
the two precisions on the mini encoder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_glue_task
from repro.nn import (
    EncoderClassifier,
    Tensor,
    TransformerConfig,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.svd import apply_svd, finetune


@pytest.fixture(scope="module")
def task_and_config():
    data = make_glue_task("sst2", seed=0)
    config = TransformerConfig(
        vocab_size=data.spec.vocab_size,
        d_model=32,
        num_heads=4,
        num_layers=1,
        d_ff=64,
        max_seq_len=data.spec.seq_len,
        num_classes=2,
        seed=0,
    )
    return data, config


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor([1.0]).dtype == np.float64

    def test_context_manager_scopes_new_tensors(self):
        with default_dtype(np.float32):
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_set_returns_previous_and_validates(self):
        previous = set_default_dtype("float32")
        try:
            assert previous == np.float64
            assert get_default_dtype() == np.float32
        finally:
            set_default_dtype(previous)
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_float64_parameters_keep_their_grad_dtype_under_float32(self):
        weight = Tensor(np.ones((3, 3)), requires_grad=True)
        with default_dtype(np.float32):
            out = (Tensor(np.ones((2, 3))) @ weight.T).sum()
            out.backward()
        assert weight.grad is not None
        assert weight.grad.dtype == np.float64


class TestFinetuneConvergenceTolerance:
    def _run(self, task_and_config, compute_dtype):
        data, config = task_and_config
        model = EncoderClassifier(config)
        apply_svd(model)
        result = finetune(
            model,
            data.train,
            task_type="classification",
            epochs=2,
            batch_size=32,
            learning_rate=2e-3,
            compute_dtype=compute_dtype,
        )
        return result

    def test_float32_converges_like_float64(self, task_and_config):
        """Same recovery trajectory in either precision: the final losses
        agree within a small relative tolerance and both strictly improve.

        float32 forward/backward noise (~1e-7 per op) is invisible next to
        the INT8 quantization every deployed layer undergoes anyway."""
        f64 = self._run(task_and_config, None)
        f32 = self._run(task_and_config, "float32")
        assert f64.epoch_losses[-1] < f64.epoch_losses[0]
        assert f32.epoch_losses[-1] < f32.epoch_losses[0]
        assert f32.epoch_losses[-1] == pytest.approx(f64.epoch_losses[-1], rel=0.05)
        # Gradient-redistribution signal survives the precision switch: the
        # same ranks dominate |dL/dsigma| in both runs.
        for name, grads64 in f64.sigma_gradients.items():
            grads32 = f32.sigma_gradients[name]
            top64 = set(np.argsort(grads64)[-3:])
            top32 = set(np.argsort(grads32)[-3:])
            assert top64 & top32, name

    def test_finetune_restores_process_dtype(self, task_and_config):
        self._run(task_and_config, "float32")
        assert get_default_dtype() == np.float64
