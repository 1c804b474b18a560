"""Processing Unit (Fig. 5(b)): 24 analog + 8 digital PIM modules.

Each PU is dedicated to one Transformer layer (or collaborates with other
PUs under tensor parallelism, Section 3.1).  The PU's job in the functional
simulator is *placement*: distributing a layer's factored weight matrices
across its analog modules (spilling between modules as array budgets fill)
and its dynamic operands across digital modules, with validation against
the hardware's capacity.  Analog placement is arithmetic on the fragments'
shapes (:func:`~repro.rram.mapping.rank_fragments`); it programs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pim.analog_module import AnalogModuleConfig, AnalogPimModule
from repro.pim.digital_module import DigitalModuleConfig, DigitalPimModule
from repro.rram.adc import SarAdc, required_adc_bits
from repro.rram.cell import CellType, MLC2
from repro.rram.mapping import array_footprint, rank_fragments
from repro.svd.pipeline import LayerPlan

__all__ = ["ProcessingUnitConfig", "PlacementRecord", "ProcessingUnit"]


@dataclass(frozen=True)
class ProcessingUnitConfig:
    """PU composition per Fig. 5(b) and Table 2."""

    num_analog_modules: int = 24
    num_digital_modules: int = 8
    analog: AnalogModuleConfig = field(default_factory=AnalogModuleConfig)
    digital: DigitalModuleConfig = field(default_factory=DigitalModuleConfig)

    @property
    def digital_capacity_bytes(self) -> int:
        """Bytes of dynamic-operand storage across all digital modules."""
        return self.num_digital_modules * self.digital.capacity_bytes


@dataclass
class PlacementRecord:
    """Where one factored matrix fragment landed."""

    layer: str
    fragment: str  # e.g. "A/slc", "B/mlc"
    module_index: int
    arrays: int
    cell: str


class ProcessingUnit:
    """Capacity-checked placement of one layer's weights onto PIM modules."""

    def __init__(self, config: ProcessingUnitConfig | None = None) -> None:
        self.config = config or ProcessingUnitConfig()
        self.analog_modules = [
            AnalogPimModule(self.config.analog)
            for _ in range(self.config.num_analog_modules)
        ]
        self.digital_modules = [
            DigitalPimModule(self.config.digital)
            for _ in range(self.config.num_digital_modules)
        ]
        self.placements: list[PlacementRecord] = []

    # -- analog placement -----------------------------------------------------
    def _fragments(
        self, plan: LayerPlan, mlc_cell: CellType
    ) -> list[tuple[str, int, int, CellType]]:
        """The layer's SLC/MLC fragments, as ``split_by_rank`` programs them.

        Raises ``ValueError`` when a fragment's cell needs more ADC bits on
        this PU's arrays than the SAR ADC resolves (``SarAdc.max_bits``).
        """
        fragments = rank_fragments(
            plan.protected_ranks, plan.a_matrix.shape[1], plan.b_matrix.shape[0], mlc_cell
        )
        rows = self.config.analog.array.rows
        for cell in dict.fromkeys(cell for *_, cell in fragments):
            if (bits := required_adc_bits(rows, cell.bits)) > SarAdc.max_bits:
                raise ValueError(
                    f"layer {plan.name!r}: {cell.name} cells on {rows}-row arrays need "
                    f"{bits} ADC bits; the SAR ADC resolves at most {SarAdc.max_bits}"
                )
        return fragments

    def _place_fragment(
        self, layer: str, fragment: str, out_f: int, in_f: int, cell: CellType
    ) -> None:
        array = self.config.analog.array
        needed = array_footprint(out_f, in_f, cell, array)
        for index, module in enumerate(self.analog_modules):
            if module.arrays_free >= needed:
                module.place(f"{layer}/{fragment}", out_f, in_f, cell)
                self.placements.append(
                    PlacementRecord(layer, fragment, index, needed, cell.name)
                )
                return
        # No single module can hold the fragment: split it into row-tile
        # chunks (input dim) and, if still too wide, per-array output chunks.
        # Hardware recombines the chunks' partial results over the inner-unit
        # shared bus (Section 3.1).
        if in_f > array.rows:
            for start in range(0, in_f, array.rows):
                self._place_fragment(
                    layer, f"{fragment}/rows{start}", out_f, min(array.rows, in_f - start), cell
                )
            return
        slices = -(-8 // cell.bits)  # INT8 weights
        outs_per_array = max(1, array.cols // slices)
        if out_f > outs_per_array:
            for start in range(0, out_f, outs_per_array):
                self._place_fragment(
                    layer, f"{fragment}/outs{start}", min(outs_per_array, out_f - start), in_f, cell
                )
            return
        raise MemoryError(
            f"PU cannot place {layer}/{fragment}: needs {needed} arrays, "
            f"free per module: {[m.arrays_free for m in self.analog_modules]}"
        )

    def place_layer(self, plan: LayerPlan, mlc_cell: CellType = MLC2) -> None:
        """Place one factored layer's four fragments on analog modules.

        Uses first-fit over the PU's modules, on the fragments' shapes.
        Raises ``ValueError`` for a cell the array's ADC cannot resolve.
        """
        for fragment, out_f, in_f, cell in self._fragments(plan, mlc_cell):
            self._place_fragment(plan.name, fragment, out_f, in_f, cell)

    # -- capacity queries -----------------------------------------------------
    def arrays_used(self) -> int:
        """Arrays reserved across the PU's analog modules."""
        return sum(m.arrays_used for m in self.analog_modules)

    def arrays_free(self) -> int:
        """Arrays still unreserved across the PU's analog modules."""
        return sum(m.arrays_free for m in self.analog_modules)

    def can_fit_layer(self, plan: LayerPlan, mlc_cell: CellType = MLC2) -> bool:
        """Whole-PU feasibility check (ignores per-module fragmentation); see :meth:`_fragments`."""
        array = self.config.analog.array
        needed = sum(
            array_footprint(out_f, in_f, cell, array)
            for _, out_f, in_f, cell in self._fragments(plan, mlc_cell)
        )
        return needed <= self.arrays_free()

    # -- digital side -----------------------------------------------------------
    def digital_capacity_bytes(self) -> int:
        """Bytes of dynamic-operand storage across the PU's digital modules."""
        return self.config.digital_capacity_bytes

    def store_dynamic(self, num_bytes: int) -> None:
        """Spread real-time operand storage across digital modules."""
        remaining = num_bytes
        for module in self.digital_modules:
            chunk = min(remaining, module.free_bytes)
            if chunk:
                module.write(chunk)
                remaining -= chunk
            if remaining == 0:
                return
        raise MemoryError(
            f"digital capacity exceeded: {num_bytes} B requested, "
            f"{self.digital_capacity_bytes()} B total"
        )
