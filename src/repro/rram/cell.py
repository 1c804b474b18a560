"""RRAM cell models: SLC and multi-level cells (Fig. 3(b,c)).

A cell stores an integer *level* in ``[0, 2^bits - 1]`` as a programmable
conductance.  Physical constants follow Section 5.4: on-state resistance
``R_ON = 6 kΩ`` with an on/off ratio of 150, SET/RESET voltages of
1.62 V / 3.63 V.  Computation in :mod:`repro.rram.crossbar` operates on
normalized level values (conductance expressed in units of one level step),
with programming noise applied multiplicatively per the paper's Eq. (5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CellType", "SLC", "MLC2", "MLC3", "MLC4", "CELL_TYPES", "RramDeviceParams"]


@dataclass(frozen=True)
class RramDeviceParams:
    """Electrical constants of the RRAM device (Section 5.4)."""

    r_on_ohm: float = 6_000.0
    on_off_ratio: float = 150.0
    set_voltage: float = 1.62
    reset_voltage: float = 3.63
    endurance_cycles: float = 1e8  # typical RRAM endurance (Grossi et al.)


@dataclass(frozen=True)
class CellType:
    """A storage-cell configuration (bits per cell and write behaviour)."""

    name: str
    bits: int
    # MLC programming needs iterative verify-read/write pulses to hit the
    # target conductance (Section 3.2); SLC writes in a single pulse.
    write_pulses: int

    def __post_init__(self) -> None:
        if self.bits < 1 or self.bits > 4:
            raise ValueError(f"bits per cell must be in [1, 4], got {self.bits}")

    @property
    def levels(self) -> int:
        """Number of programmable conductance levels (2^bits)."""
        return 2**self.bits

    @property
    def max_level(self) -> int:
        """Highest programmable level index."""
        return self.levels - 1

    def validate_levels(self, levels: np.ndarray) -> None:
        """Raise ``ValueError`` if any level is outside this cell's range."""
        levels = np.asarray(levels)
        if levels.size == 0:
            return
        if levels.min() < 0 or levels.max() > self.max_level:
            raise ValueError(
                f"levels out of range [0, {self.max_level}] for {self.name}: "
                f"min={levels.min()}, max={levels.max()}"
            )


SLC = CellType("SLC", bits=1, write_pulses=1)
MLC2 = CellType("MLC2", bits=2, write_pulses=4)
MLC3 = CellType("MLC3", bits=3, write_pulses=8)
MLC4 = CellType("MLC4", bits=4, write_pulses=16)

CELL_TYPES: dict[str, CellType] = {c.name: c for c in (SLC, MLC2, MLC3, MLC4)}
