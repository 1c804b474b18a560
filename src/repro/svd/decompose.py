"""SVD decomposition, hard-threshold truncation and sigma-merging.

Implements Section 4.1 / Fig. 10 of the paper:

1. ``W = U Σ Vᵀ`` (full SVD of a static weight matrix);
2. truncation at the *hard threshold* rank
   ``D_Th = D_h1 · D_h2 / (D_h1 + D_h2)``, chosen so that the factored layer
   ``x → (x Vᵀᵀ Σ) Uᵀ`` performs exactly the same number of MACs (and stores
   the same number of parameters) as the original dense layer;
3. merging ``Σ`` into ``Vᵀ`` for inference, so the hardware stores just two
   matrices ``A = Σ Vᵀ`` (k×in) and ``B = U`` (out×k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SVDFactors",
    "svd_decompose",
    "hard_threshold_rank",
    "truncate_factors",
    "merge_sigma",
    "reconstruction_error",
    "factored_mac_count",
    "dense_mac_count",
]


@dataclass
class SVDFactors:
    """Factors of a (possibly truncated) SVD, ``W ≈ U @ diag(s) @ Vt``."""

    u: np.ndarray  # (out, k)
    s: np.ndarray  # (k,), non-negative, descending
    vt: np.ndarray  # (k, in)

    @property
    def rank(self) -> int:
        return len(self.s)

    def reconstruct(self) -> np.ndarray:
        """Dense matrix represented by these factors."""
        return (self.u * self.s) @ self.vt


def svd_decompose(weight: np.ndarray) -> SVDFactors:
    """Full (thin) SVD of a 2-D weight matrix with descending singular values."""
    weight = np.asarray(weight, dtype=float)
    if weight.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weight.shape}")
    u, s, vt = np.linalg.svd(weight, full_matrices=False)
    return SVDFactors(u=u, s=s, vt=vt)


def hard_threshold_rank(out_features: int, in_features: int) -> int:
    """The paper's compute-preserving rank ``D_h1·D_h2 / (D_h1 + D_h2)``.

    At this rank the factored GEMV costs ``L·D_h2·D_Th + L·D_Th·D_h1`` MACs,
    equal to the dense ``L·D_h2·D_h1``, and parameter count is preserved.
    """
    if out_features <= 0 or in_features <= 0:
        raise ValueError("feature dimensions must be positive")
    rank = (out_features * in_features) // (out_features + in_features)
    return max(1, rank)


def truncate_factors(factors: SVDFactors, rank: int) -> SVDFactors:
    """Keep the top-``rank`` singular triplets."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rank = min(rank, factors.rank)
    return SVDFactors(
        u=factors.u[:, :rank].copy(),
        s=factors.s[:rank].copy(),
        vt=factors.vt[:rank, :].copy(),
    )


def merge_sigma(factors: SVDFactors) -> tuple[np.ndarray, np.ndarray]:
    """Pre-compute the inference matrices ``A = Σ·Vt`` (k×in), ``B = U`` (out×k).

    This is Fig. 10 step 3: only two matrices are written to the RRAM arrays.
    """
    return factors.s[:, None] * factors.vt, factors.u.copy()


def reconstruction_error(weight: np.ndarray, rank: int) -> float:
    """Relative Frobenius error of the rank-``rank`` approximation."""
    factors = truncate_factors(svd_decompose(weight), rank)
    diff = weight - factors.reconstruct()
    denom = np.linalg.norm(weight)
    return float(np.linalg.norm(diff) / max(denom, 1e-12))


def dense_mac_count(seq_len: int, out_features: int, in_features: int) -> int:
    """MACs of the dense layer over a length-``seq_len`` input."""
    return seq_len * out_features * in_features


def factored_mac_count(seq_len: int, out_features: int, in_features: int, rank: int) -> int:
    """MACs of the two factored GEMVs over a length-``seq_len`` input."""
    return seq_len * rank * in_features + seq_len * out_features * rank
