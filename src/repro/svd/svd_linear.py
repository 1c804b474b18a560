"""Factored linear layer with trainable singular values.

:class:`SVDLinear` is the fine-tuning form of a decomposed static weight
(Algorithm 1 steps 2-3).  It keeps ``U``, ``σ`` and ``Vᵀ`` as separate
parameters so that:

- fine-tuning can redistribute information across ranks, and
- the gradient of the loss w.r.t. each singular value ``σ_i`` is directly
  observable — the quantity the paper uses to pick SLC-protected ranks
  (Algorithm 1 step 4, Fig. 11).
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Linear, Module
from repro.nn.tensor import Parameter, Tensor
from repro.svd.decompose import (
    SVDFactors,
    hard_threshold_rank,
    merge_sigma,
    svd_decompose,
    truncate_factors,
)

__all__ = ["SVDLinear"]


class SVDLinear(Module):
    """``y = ((x @ Vtᵀ) * σ) @ Uᵀ + b`` with U, σ, Vᵀ all trainable."""

    def __init__(
        self,
        u: np.ndarray,
        sigma: np.ndarray,
        vt: np.ndarray,
        bias: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        u = np.asarray(u, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        vt = np.asarray(vt, dtype=float)
        if u.ndim != 2 or vt.ndim != 2 or sigma.ndim != 1:
            raise ValueError("u and vt must be 2-D, sigma 1-D")
        if u.shape[1] != len(sigma) or vt.shape[0] != len(sigma):
            raise ValueError(
                f"rank mismatch: u {u.shape}, sigma {sigma.shape}, vt {vt.shape}"
            )
        self.in_features = vt.shape[1]
        self.out_features = u.shape[0]
        self.u = Parameter(u)
        self.sigma = Parameter(sigma)
        self.vt = Parameter(vt)
        self.bias = Parameter(bias) if bias is not None else None
        # Accumulated |dL/dσ| across fine-tuning steps (Algorithm 1 step 3).
        self.sigma_grad_accum = np.zeros_like(sigma)
        self._accum_steps = 0

    @property
    def rank(self) -> int:
        return len(self.sigma.data)

    # ------------------------------------------------------------------
    @classmethod
    def from_linear(cls, linear: Linear, rank: int | None = None) -> "SVDLinear":
        """Decompose a dense :class:`Linear`; default rank is the hard threshold."""
        weight = linear.weight.data
        if rank is None:
            rank = hard_threshold_rank(linear.out_features, linear.in_features)
        factors = truncate_factors(svd_decompose(weight), rank)
        bias = linear.bias.data.copy() if linear.bias is not None else None
        return cls(factors.u, factors.s, factors.vt, bias=bias)

    def forward(self, x: Tensor) -> Tensor:
        h = x @ self.vt.T
        h = h * self.sigma
        out = h @ self.u.T
        if self.bias is not None:
            out = out + self.bias
        return out

    # ------------------------------------------------------------------
    # Gradient bookkeeping for rank selection
    # ------------------------------------------------------------------
    def record_sigma_gradient(self) -> None:
        """Accumulate ``|dL/dσ|`` after a backward pass (call once per step)."""
        if self.sigma.grad is None:
            raise RuntimeError("record_sigma_gradient called before backward()")
        self.sigma_grad_accum += np.abs(self.sigma.grad)
        self._accum_steps += 1

    def mean_sigma_gradient(self) -> np.ndarray:
        """Average accumulated gradient magnitude per rank."""
        if self._accum_steps == 0:
            return np.zeros_like(self.sigma_grad_accum)
        return self.sigma_grad_accum / self._accum_steps

    def reset_sigma_gradient(self) -> None:
        self.sigma_grad_accum = np.zeros_like(self.sigma.data)
        self._accum_steps = 0

    # ------------------------------------------------------------------
    # Deployment views
    # ------------------------------------------------------------------
    def factors(self) -> SVDFactors:
        return SVDFactors(
            u=self.u.data.copy(), s=self.sigma.data.copy(), vt=self.vt.data.copy()
        )

    def merged_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Inference matrices ``A = Σ·Vt`` (k×in) and ``B = U`` (out×k)."""
        return merge_sigma(self.factors())

    def __repr__(self) -> str:
        return (
            f"SVDLinear(in={self.in_features}, out={self.out_features}, "
            f"rank={self.rank})"
        )
