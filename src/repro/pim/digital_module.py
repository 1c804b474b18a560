"""Digital RRAM PIM module (Fig. 5(d)): attention operands + SFU.

Digital PIM computes *exactly* (bit-wise NOR logic has full noise margin),
so the functional result of ``Q·Kᵀ`` and ``S·V`` equals integer matrix
multiplication.  What the module adds over plain arithmetic is the paper's
cost model and capacity accounting:

- 256 arrays of 1024x1024 SLC bitcells (128 KB each, 32 MB per module);
- one INT8xINT8 multiply costs 64 NOR operations, each NOR occupying
  3 columns and each row pass taking 5 cycles (4 writes + 1 read);
- real-time operands (Q, K, V, scores) are *written* before computing, so
  the module tracks write traffic for the endurance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pim.nor_logic import COLUMNS_PER_NOR, CYCLES_PER_ROW, NOR_OPS_PER_INT8_MULT
from repro.pim.sfu import SfuConfig, SpecialFunctionUnit

__all__ = ["DigitalModuleConfig", "DigitalPimStats", "DigitalPimModule"]


@dataclass(frozen=True)
class DigitalModuleConfig:
    """Geometry of one digital PIM module (Table 2)."""

    num_arrays: int = 256
    array_rows: int = 1024
    array_cols: int = 1024
    cell_bits: int = 1  # digital modules use SLC only (Section 3.3)

    @property
    def array_bytes(self) -> int:
        """Bytes one digital array stores."""
        return self.array_rows * self.array_cols * self.cell_bits // 8

    @property
    def capacity_bytes(self) -> int:
        """Bytes the whole module stores."""
        return self.num_arrays * self.array_bytes

    @property
    def throughput_ops_per_cycle(self) -> float:
        """The paper's balance: 256·1024 / (64·3) / 5 ≈ 273 ops/cycle."""
        return (
            self.num_arrays
            * self.array_cols
            / (NOR_OPS_PER_INT8_MULT * COLUMNS_PER_NOR)
            / CYCLES_PER_ROW
        )


@dataclass
class DigitalPimStats:
    """Work and storage accounting for one digital module."""

    nor_ops: int = 0
    int8_macs: int = 0
    bytes_written: int = 0
    compute_cycles: int = 0
    sfu_cycles: int = 0


class DigitalPimModule:
    """Functional digital PIM: exact integer attention math plus cost model."""

    def __init__(
        self,
        config: DigitalModuleConfig | None = None,
        sfu_config: SfuConfig | None = None,
    ) -> None:
        self.config = config or DigitalModuleConfig()
        self.sfu = SpecialFunctionUnit(sfu_config)
        self.stats = DigitalPimStats()
        self._stored_bytes = 0

    # -- storage ------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        """Bytes still available for real-time operands."""
        return self.config.capacity_bytes - self._stored_bytes

    def write(self, num_bytes: int) -> None:
        """Store real-time operands (Q/K/V, scores, intermediates)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes > self.free_bytes:
            raise MemoryError(
                f"digital module overflow: need {num_bytes} B, free {self.free_bytes} B"
            )
        self._stored_bytes += num_bytes
        self.stats.bytes_written += num_bytes

    # -- compute --------------------------------------------------------------
    def matmul_int(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact integer matmul ``a @ b`` with NOR-level cost accounting.

        ``a`` is (m, k), ``b`` is (k, n); both INT8-range integers.  The
        operands are written into the arrays first (real-time data), then
        multiplied with NOR-synthesized arithmetic.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible matmul shapes {a.shape} x {b.shape}")
        for name, operand in (("a", a), ("b", b)):
            if operand.min(initial=0) < -128 or operand.max(initial=0) > 127:
                raise ValueError(f"operand {name} exceeds INT8 range")
        macs = a.shape[0] * a.shape[1] * b.shape[1]
        self.stats.int8_macs += macs
        self.stats.nor_ops += macs * NOR_OPS_PER_INT8_MULT
        self.stats.compute_cycles += int(
            np.ceil(macs / self.config.throughput_ops_per_cycle)
        )
        self.write(a.size + b.size)  # INT8 operands: one byte per element
        return a @ b

    def attention_scores(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """``Q @ Kᵀ`` (the paper's first dynamic product, INT8 x INT8)."""
        return self.matmul_int(q, np.asarray(k).T)

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Softmax on the in-module SFU (FP16 pipeline)."""
        before = self.sfu.stats.cycles
        out = self.sfu.softmax(x, axis=axis)
        self.stats.sfu_cycles += self.sfu.stats.cycles - before
        return out

    def gelu(self, x: np.ndarray) -> np.ndarray:
        """GELU on the SFU, charging its cycles to this module."""
        before = self.sfu.stats.cycles
        out = self.sfu.gelu(x)
        self.stats.sfu_cycles += self.sfu.stats.cycles - before
        return out
