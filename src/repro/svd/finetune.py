"""Fine-tuning loop with singular-value gradient accumulation.

Implements Algorithm 1 steps 3-4: after truncation, the model is re-trained
for 1-3 epochs with AdamW; during training the magnitude of the loss gradient
with respect to every singular value is accumulated.  Those accumulated
magnitudes drive the SLC/MLC rank split, and their concentration into the
top ranks is the *gradient redistribution* effect of Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.data import ArrayDataset, BatchIterator
from repro.nn.losses import cross_entropy, lm_cross_entropy, mse_loss
from repro.nn.modules import Module
from repro.nn.optim import AdamW, clip_grad_norm
from repro.nn.tensor import Tensor, default_dtype
from repro.svd.svd_linear import SVDLinear

__all__ = ["FinetuneResult", "finetune", "task_loss", "GradientSnapshot", "sigma_gradient_snapshot"]


@dataclass
class FinetuneResult:
    """Outcome of the fine-tuning stage."""

    epoch_losses: list[float]
    sigma_gradients: dict[str, np.ndarray]  # layer name -> mean |dL/dsigma|
    steps: int


@dataclass
class GradientSnapshot:
    """Per-layer gradient magnitudes from a single evaluation pass (Fig. 11)."""

    per_layer: dict[str, np.ndarray] = field(default_factory=dict)


def task_loss(task_type: str) -> Callable[[Tensor, np.ndarray], Tensor]:
    """Loss builder for the three task families used in the paper."""
    if task_type == "classification":
        return cross_entropy
    if task_type == "regression":
        return lambda logits, targets: mse_loss(logits.reshape(-1), targets)
    if task_type == "lm":
        return lm_cross_entropy
    raise ValueError(f"unknown task_type {task_type!r}")


def _svd_layers(model: Module) -> dict[str, SVDLinear]:
    return {
        name: module
        for name, module in model.named_modules()
        if isinstance(module, SVDLinear)
    }


def finetune(
    model: Module,
    train_data: ArrayDataset,
    task_type: str,
    epochs: int = 2,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    weight_decay: float = 0.01,
    max_grad_norm: float = 1.0,
    rng: np.random.Generator | None = None,
    compute_dtype: str | None = None,
) -> FinetuneResult:
    """Fine-tune ``model`` and accumulate ``|dL/dσ|`` on every SVDLinear.

    Works for all three task families: ``classification`` (integer labels),
    ``regression`` (float targets) and ``lm`` (next-token id matrices).

    ``compute_dtype`` ("float32"/"float64", default: leave the process-wide
    tensor dtype alone) scopes the training loop's activation/gradient
    precision via :func:`repro.nn.tensor.default_dtype`.  float32 roughly
    halves training memory traffic; its convergence stays within tolerance
    of float64 (unit-tested) because INT8 deployment quantization dominates
    any float32 rounding.  Parameters keep the dtype they were created with.
    """
    rng = rng or np.random.default_rng(0)
    loss_fn = task_loss(task_type)
    svd_layers = _svd_layers(model)
    for layer in svd_layers.values():
        layer.reset_sigma_gradient()

    optimizer = AdamW(model.parameters(), lr=learning_rate, weight_decay=weight_decay)
    model.train()
    epoch_losses: list[float] = []
    steps = 0
    with default_dtype(compute_dtype):
        for _ in range(epochs):
            batches = BatchIterator(train_data, batch_size, shuffle=True, rng=rng)
            running, count = 0.0, 0
            for inputs, targets in batches:
                logits = model(inputs)
                loss = loss_fn(logits, targets)
                model.zero_grad()
                loss.backward()
                clip_grad_norm(model.parameters(), max_grad_norm)
                for layer in svd_layers.values():
                    layer.record_sigma_gradient()
                optimizer.step()
                running += float(loss.data)
                count += 1
                steps += 1
            epoch_losses.append(running / max(count, 1))
    model.eval()

    sigma_gradients = {
        name: layer.mean_sigma_gradient() for name, layer in svd_layers.items()
    }
    return FinetuneResult(
        epoch_losses=epoch_losses, sigma_gradients=sigma_gradients, steps=steps
    )


def sigma_gradient_snapshot(
    model: Module,
    eval_data: ArrayDataset,
    task_type: str,
    batch_size: int = 32,
    max_batches: int = 4,
    rng: np.random.Generator | None = None,
) -> GradientSnapshot:
    """One-shot gradient magnitudes per rank without updating weights.

    Used to reproduce Fig. 11(b) (post-SVD, pre-fine-tune) and as a generic
    probe of gradient concentration.
    """
    rng = rng or np.random.default_rng(0)
    loss_fn = task_loss(task_type)
    svd_layers = _svd_layers(model)
    for layer in svd_layers.values():
        layer.reset_sigma_gradient()

    was_training = model.training
    model.eval()
    batches = BatchIterator(eval_data, batch_size, shuffle=False, rng=rng)
    for i, (inputs, targets) in enumerate(batches):
        if i >= max_batches:
            break
        loss = loss_fn(model(inputs), targets)
        model.zero_grad()
        loss.backward()
        for layer in svd_layers.values():
            layer.record_sigma_gradient()
    model.zero_grad()
    model.train(was_training)

    snapshot = GradientSnapshot(
        per_layer={name: layer.mean_sigma_gradient() for name, layer in svd_layers.items()}
    )
    for layer in svd_layers.values():
        layer.reset_sigma_gradient()
    return snapshot
