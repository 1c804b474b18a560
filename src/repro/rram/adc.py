"""Reconfigurable 6-bit / 7-bit SAR ADC model (Fig. 8).

The paper shares one successive-approximation ADC across 128 bitlines via a
multiplexer and sample-and-hold bank.  Precision follows the rule

    bits = ceil(log2(R)) + w - 1

for ``R`` crossbar rows and ``w`` bits per cell: 6 b for SLC and 7 b for MLC
at R = 64.  The 7-b design runs as a 6-b converter by bypassing the MSB
capacitor (C7), with <1 % area/energy overhead versus a dedicated 6-b ADC.
Per the survey cited in the paper, each extra bit doubles conversion energy
(:mod:`repro.arch.energy` prices a 7-b conversion at twice a 6-b one); MLC
halves the number of conversions, so total ADC energy is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["required_adc_bits", "SarAdc"]


def required_adc_bits(rows: int, cell_bits: int) -> int:
    """The paper's precision rule ``ceil(log2 R) + w - 1``."""
    if rows < 1 or cell_bits < 1:
        raise ValueError("rows and cell_bits must be positive")
    return math.ceil(math.log2(rows)) + cell_bits - 1


@dataclass(frozen=True)
class SarAdc:
    """Unit-step quantizer over bitline level-sums.

    One ADC code corresponds to one cell-level unit of bitline current; reads
    clip at the full-scale code ``2^bits - 1``.  ``max_bits`` models the
    physical capacitor array: requesting more bits than the hardware has is
    an error, while fewer bits engage the MSB-bypass mode.
    """

    bits: int
    max_bits: int = 7

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= self.max_bits:
            raise ValueError(
                f"bits must be in [1, {self.max_bits}], got {self.bits}"
            )

    @property
    def full_scale(self) -> int:
        """Largest code the converter can emit (2^bits - 1)."""
        return 2**self.bits - 1

    def convert(self, analog_sums: np.ndarray) -> np.ndarray:
        """Quantize analog level-sums to integer codes (round, clip, floor at 0)."""
        codes = np.rint(np.asarray(analog_sums, dtype=float))
        np.clip(codes, 0, self.full_scale, out=codes)
        return codes.astype(np.int64)
