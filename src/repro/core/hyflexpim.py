"""Public API: compile a Transformer for HyFlexPIM and evaluate it.

The full workflow of the paper in four calls:

>>> from repro.core import HyFlexPim
>>> hfp = HyFlexPim(protect_fraction=0.1)
>>> compiled = hfp.compile(model, task.train, task_type="classification")
>>> deployed = hfp.deploy(compiled)           # hybrid SLC/MLC inference form
>>> score = hfp.evaluate(deployed, task.test, metric="accuracy")

``compile`` runs Algorithm 1 (SVD -> hard-threshold truncation -> fine-tune
-> gradient-based rank selection) on the host; ``deploy`` swaps the factored
layers for noisy hybrid PIM layers; ``evaluate`` scores the deployed model.
:meth:`HyFlexPim.protection_sweep` regenerates the Fig. 12/13 accuracy-vs-
SLC-rate curves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.eval.metrics import metric_for_task
from repro.nn.data import ArrayDataset
from repro.nn.modules import Module
from repro.pim.hybrid import attach_hybrid_layers
from repro.rram.cell import CellType, MLC2
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec
from repro.svd.pipeline import GradientRedistributionPipeline, RedistributionPlan
from repro.svd.selection import (
    select_ranks_by_gradient,
    select_ranks_by_rank,
)
from repro.utils.parallel import map_with_pool

__all__ = ["CompiledModel", "HyFlexPim"]


@dataclass
class CompiledModel:
    """Output of :meth:`HyFlexPim.compile`: fine-tuned model + mapping plan."""

    model: Module
    plan: RedistributionPlan
    task_type: str

    def with_protection(self, protect_fraction: float, policy: str = "gradient") -> "CompiledModel":
        """Re-derive the SLC/MLC split at a new rate without re-fine-tuning.

        The expensive part of Algorithm 1 (SVD + fine-tuning) is rate
        independent; only step 5 (mask selection) changes — so sweeping the
        protection rate (Fig. 12) reuses one compilation.
        """
        new_plan = copy.deepcopy(self.plan)
        new_plan.protect_fraction = protect_fraction
        new_plan.policy = policy
        for layer in new_plan.layers.values():
            if policy == "gradient":
                layer.protected_ranks = select_ranks_by_gradient(
                    layer.sigma_gradients, protect_fraction
                )
            elif policy == "rank":
                sigma_proxy = np.linalg.norm(layer.a_matrix, axis=1)
                layer.protected_ranks = select_ranks_by_rank(sigma_proxy, protect_fraction)
            else:
                raise ValueError(f"unknown policy {policy!r}")
        return CompiledModel(model=self.model, plan=new_plan, task_type=self.task_type)


@dataclass
class HyFlexPim:
    """Facade over the compile -> deploy -> evaluate workflow."""

    protect_fraction: float = 0.1
    policy: str = "gradient"
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 1e-3
    noise: NoiseSpec = field(default_factory=lambda: DEFAULT_NOISE)
    mlc_cell: CellType = MLC2
    mode: str = "fast"  # "fast" (Eq. 5 weight noise) or "crossbar" (bit-serial)
    # Tensor precision for the compile-time fine-tuning loop ("float32" /
    # "float64"; None leaves the process-wide nn.tensor default untouched).
    train_dtype: str | None = None
    seed: int = 0

    # ------------------------------------------------------------------
    def compile(
        self,
        model: Module,
        train_data: ArrayDataset,
        task_type: str,
        rank: int | None = None,
    ) -> CompiledModel:
        """Run Algorithm 1 on ``model`` (mutates it to the factored form)."""
        pipeline = GradientRedistributionPipeline(
            protect_fraction=self.protect_fraction,
            policy=self.policy,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            rng=np.random.default_rng(self.seed),
            compute_dtype=self.train_dtype,
        )
        plan = pipeline.run(model, train_data, task_type=task_type, rank=rank)
        return CompiledModel(model=model, plan=plan, task_type=task_type)

    def deploy(
        self,
        compiled: CompiledModel,
        noise: NoiseSpec | None = None,
        mode: str | None = None,
    ) -> Module:
        """Instantiate the hybrid SLC/MLC inference model (a deep copy)."""
        deployed = copy.deepcopy(compiled.model)
        attach_hybrid_layers(
            deployed,
            compiled.plan.layers,
            noise=noise or self.noise,
            mode=mode or self.mode,
            mlc_cell=self.mlc_cell,
            seed=self.seed,
        )
        return deployed

    def evaluate(
        self,
        deployed: Module,
        test_data: ArrayDataset,
        task_type: str,
        metric: str = "accuracy",
    ) -> float:
        """Score a deployed model on held-out data."""
        evaluator = metric_for_task(task_type, metric)
        return evaluator(deployed, test_data)

    # ------------------------------------------------------------------
    def protection_sweep(
        self,
        compiled: CompiledModel,
        test_data: ArrayDataset,
        rates: tuple[float, ...],
        metric: str = "accuracy",
        policy: str | None = None,
        workers: int = 0,
    ) -> dict[float, float]:
        """Metric vs SLC protection rate — the Fig. 12/13 experiment.

        ``workers > 1`` fans the rate points out over a process pool.  Each
        point re-derives its mask, deployment noise and score from the spec
        alone (the per-layer RNG is seeded by ``self.seed``, never by
        execution order), so the parallel path is bitwise identical to the
        serial one.
        """
        points = [
            (self, compiled, test_data, rate, metric, policy or self.policy)
            for rate in rates
        ]
        scores = map_with_pool(_protection_point, points, workers)
        return dict(zip(rates, scores))

    # ------------------------------------------------------------------
    def ideal_reference(
        self,
        compiled: CompiledModel,
        test_data: ArrayDataset,
        metric: str = "accuracy",
    ) -> float:
        """Noise-free INT8 baseline (the 'Baseline' series of Fig. 12)."""
        deployed = self.deploy(compiled, noise=NoiseSpec.noiseless())
        return self.evaluate(deployed, test_data, compiled.task_type, metric=metric)


def _protection_point(
    point: tuple["HyFlexPim", CompiledModel, ArrayDataset, float, str, str],
) -> float:
    """Evaluate one protection rate (module-level so pools can pickle it)."""
    hfp, compiled, test_data, rate, metric, policy = point
    variant = compiled.with_protection(rate, policy=policy)
    deployed = hfp.deploy(variant)
    return hfp.evaluate(deployed, test_data, compiled.task_type, metric=metric)
