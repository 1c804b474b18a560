"""Analog RRAM PIM module (Fig. 5(c)): 512 reconfigurable SLC/MLC arrays.

One analog module owns 512 crossbar arrays of 64x128 cells plus their
peripherals (IR/OR registers, wordline drivers, sample-and-hold bank, a
shared 6/7-bit reconfigurable SAR ADC per array, shift-and-add).  Placement
reserves a module's arrays for static weight matrices by shape and enforces
its array budget; it programs nothing.  The served arrays are programmed by
:class:`~repro.pim.hybrid.HybridLinear` on the engine's backend.

A single module mixes SLC-configured and MLC-configured arrays freely: the
paper's reconfigurability means switching costs <1 % area/energy, realized
here by each placed matrix carrying its own cell type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rram.cell import CellType
from repro.rram.crossbar import CrossbarConfig
from repro.rram.mapping import array_footprint

__all__ = ["AnalogModuleConfig", "AnalogPimModule"]


@dataclass(frozen=True)
class AnalogModuleConfig:
    """Geometry of one analog PIM module (Table 2)."""

    num_arrays: int = 512
    array: CrossbarConfig = field(default_factory=CrossbarConfig)
    adc_sample_rate_hz: float = 1.28e9  # one ADC per array, 1.28 GSps
    conversion_window_ns: float = 100.0  # 128 bitlines converted per 100 ns


class AnalogPimModule:
    """One module's array budget: the weight matrices placed on it by shape."""

    def __init__(self, config: AnalogModuleConfig | None = None) -> None:
        self.config = config or AnalogModuleConfig()
        self._arrays: dict[str, int] = {}  # placed matrix name -> arrays

    @property
    def arrays_used(self) -> int:
        """Arrays reserved by placed matrices."""
        return sum(self._arrays.values())

    @property
    def arrays_free(self) -> int:
        """Arrays still unreserved."""
        return self.config.num_arrays - self.arrays_used

    def place(
        self, name: str, out_features: int, in_features: int, cell: CellType
    ) -> None:
        """Reserve the arrays an ``(out, in)`` matrix of ``cell`` occupies.

        Raises :class:`KeyError` for a name already placed and
        :class:`MemoryError` when the array budget is exceeded — callers
        (the PU/chip mappers) then spill to another module.
        """
        if name in self._arrays:
            raise KeyError(f"matrix {name!r} already placed")
        needed = array_footprint(out_features, in_features, cell, self.config.array)
        if needed > self.arrays_free:
            raise MemoryError(
                f"analog module full: {name!r} needs {needed} arrays, "
                f"{self.arrays_free} free of {self.config.num_arrays}"
            )
        self._arrays[name] = needed

    def utilization(self) -> float:
        """Fraction of the module's arrays holding weights."""
        return self.arrays_used / self.config.num_arrays
