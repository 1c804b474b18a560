"""Special Function Unit: pipelined non-linear operators (Section 3.1).

The digital PIM module hosts an SFU that evaluates the non-linearities
(the paper lists Softmax, LayerNorm and GELU; Softmax and GELU are modelled
here) with a fixed repertoire of pipelined floating-point primitives: max
search, subtraction, exponentiation *via Taylor series*, addition, division,
multiplication and square root.  Results are FP16-rounded between pipeline
stages (the paper computes non-linearities in FP16) and converted back to
integers afterwards.  Each SFU processes 256 inputs per cycle — the rate
chosen to balance digital-PIM GEMV throughput (256·1024/(64·3)/5 ≈ 273
operations per cycle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SfuConfig", "SfuStats", "SpecialFunctionUnit"]

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class SfuConfig:
    """SFU arithmetic and throughput parameters."""

    taylor_terms: int = 8  # terms of the exp() Taylor expansion
    inputs_per_cycle: int = 256  # Section 3.1's throughput balance
    fp16_rounding: bool = True  # round intermediate results to FP16

    def __post_init__(self) -> None:
        if self.taylor_terms < 2:
            raise ValueError("taylor_terms must be at least 2")
        if self.inputs_per_cycle < 1:
            raise ValueError("inputs_per_cycle must be positive")


@dataclass
class SfuStats:
    """Cycle and primitive-operation accounting."""

    cycles: int = 0
    primitive_ops: int = 0

    def charge(self, elements: int, stages: int, config: SfuConfig) -> None:
        """Count ``stages`` pipelined passes over ``elements`` inputs."""
        waves = -(-elements // config.inputs_per_cycle)
        self.cycles += waves * stages
        self.primitive_ops += elements * stages


class SpecialFunctionUnit:
    """Functional + cost model of the SFU.

    All operators take and return float64 numpy arrays, but intermediate
    values are squeezed through FP16 when ``fp16_rounding`` is on, modelling
    the hardware datapath.  Accuracy against exact math is unit-tested.
    """

    def __init__(self, config: SfuConfig | None = None) -> None:
        self.config = config or SfuConfig()
        self.stats = SfuStats()

    # -- primitive helpers -------------------------------------------------
    def _round(self, x: np.ndarray) -> np.ndarray:
        if self.config.fp16_rounding:
            return x.astype(np.float16).astype(np.float64)
        return x

    def _exp_taylor(self, x: np.ndarray) -> np.ndarray:
        """exp(x) via range reduction and an N-term Taylor series.

        ``exp(x) = 2^k * exp(r)`` with ``r = x - k ln2, |r| <= ln2/2`` keeps
        the truncated series accurate across the softmax input range.
        """
        x = np.asarray(x, dtype=np.float64)
        k = np.rint(x / _LN2)
        r = self._round(x - k * _LN2)
        term = np.ones_like(r)
        acc = np.ones_like(r)
        for n in range(1, self.config.taylor_terms):
            term = self._round(term * r / n)
            acc = self._round(acc + term)
        return np.ldexp(acc, k.astype(int))

    # -- public operators ---------------------------------------------------
    def exp(self, x: np.ndarray) -> np.ndarray:
        """Pipelined exponential (Taylor series, FP16 datapath)."""
        x = np.asarray(x, dtype=np.float64)
        self.stats.charge(x.size, stages=self.config.taylor_terms, config=self.config)
        return self._exp_taylor(x)

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """max-subtract → exp (Taylor) → sum → divide, all pipelined."""
        x = np.asarray(x, dtype=np.float64)
        peak = x.max(axis=axis, keepdims=True)
        shifted = self._round(x - peak)
        exps = self._exp_taylor(shifted)
        total = self._round(exps.sum(axis=axis, keepdims=True))
        out = self._round(exps / total)
        # Stages: max search, subtract, taylor_terms, accumulate, divide.
        self.stats.charge(x.size, stages=self.config.taylor_terms + 4, config=self.config)
        return out

    def gelu(self, x: np.ndarray) -> np.ndarray:
        """GELU via the sigmoid form ``x * σ(1.702 x)`` (exp-based pipeline)."""
        x = np.asarray(x, dtype=np.float64)
        z = self._round(1.702 * x)
        sig = self._round(1.0 / (1.0 + self._exp_taylor(-z)))
        out = self._round(x * sig)
        self.stats.charge(x.size, stages=self.config.taylor_terms + 3, config=self.config)
        return out

    def sqrt(self, x: np.ndarray) -> np.ndarray:
        """Elementwise square root; negative inputs raise ValueError."""
        x = np.asarray(x, dtype=np.float64)
        if (x < 0).any():
            raise ValueError("sqrt of negative input")
        self.stats.charge(x.size, stages=1, config=self.config)
        return self._round(np.sqrt(x))

    def reset_stats(self) -> None:
        """Zero the SFU's cycle and operation counters."""
        self.stats = SfuStats()
