"""HyFlexPIM chip (Fig. 5(a)): 24 processing units and the model mapper.

A chip pipelines one Transformer layer per PU.  The mapper implements the
paper's three flexibility cases (Section 3.1):

1. a layer too large for one PU spans multiple PUs (tensor parallelism);
2. a model with fewer layers than PUs replicates layers over spare PUs for
   throughput (tensor parallelism across the batch/sequence);
3. a model with more layers than available PUs cascades across chips
   (pipeline parallelism) — handled by :mod:`repro.arch.scaling`.

Placement reserves arrays by shape (:meth:`ProcessingUnit.place_layer`);
it programs no crossbar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.arch.interconnect import OCI_LINK, PCIE6_LINK
from repro.pim.processing_unit import ProcessingUnit, ProcessingUnitConfig
from repro.rram.cell import CellType, MLC2
from repro.svd.pipeline import LayerPlan, RedistributionPlan

__all__ = ["ChipConfig", "LayerAssignment", "HyFlexPimChip", "group_layers_by_block"]


def group_layers_by_block(names: Iterable[str]) -> dict[int, list[str]]:
    """Group layer-plan names ('blocks.<i>.<leaf>') by block index.

    Shared by the single-chip mapper below and the multi-chip
    :class:`~repro.dist.ShardPlan` builder, which derives its pipeline
    (layer-to-chip) assignment from the same block structure.
    """
    groups: dict[int, list[str]] = {}
    for name in names:
        parts = name.split(".")
        if parts[0] != "blocks":
            raise ValueError(f"unexpected layer name {name!r}")
        groups.setdefault(int(parts[1]), []).append(name)
    return dict(sorted(groups.items()))


@dataclass(frozen=True)
class ChipConfig:
    """Chip composition per Fig. 5(a) and Section 5.4.

    Bus bandwidths are derived from the canonical
    :mod:`repro.arch.interconnect` links (PCIe-6.0 x16 global bus, on-chip
    OCI) so the paper's numbers live in exactly one place.
    """

    num_processing_units: int = 24
    pu: ProcessingUnitConfig = field(default_factory=ProcessingUnitConfig)
    global_bus_gbps: float = PCIE6_LINK.bandwidth_gbps  # PCIe-6.0 x16 (Section 3.1)
    inner_bus_gbps: float = OCI_LINK.bandwidth_gbps  # on-chip interconnect (OCI)


@dataclass
class LayerAssignment:
    """Mapping of one model layer (all its matrices) to processing units."""

    layer_index: int
    pu_indices: list[int]
    matrices: list[str]


class HyFlexPimChip:
    """Deployment target: place a whole redistribution plan onto 24 PUs."""

    def __init__(self, config: ChipConfig | None = None) -> None:
        self.config = config or ChipConfig()
        self.processing_units = [
            ProcessingUnit(self.config.pu)
            for _ in range(self.config.num_processing_units)
        ]
        self.assignments: list[LayerAssignment] = []

    def deploy(
        self,
        plan: RedistributionPlan | Mapping[str, LayerPlan],
        mlc_cell: CellType = MLC2,
    ) -> list[LayerAssignment]:
        """Place every Transformer block on processing units.

        ``plan`` is a :class:`RedistributionPlan` or a bare name ->
        :class:`LayerPlan` mapping (the form the sharded deployment planner
        hands in after slicing ranks).  One PU per block when it fits; a
        block that exceeds one PU's arrays spills onto subsequent PUs (the
        paper's case 1).  Raises :class:`MemoryError` when the chip is
        exhausted (callers then scale out to more chips — the paper's
        case 3).
        """
        layers = plan.layers if isinstance(plan, RedistributionPlan) else dict(plan)
        groups = group_layers_by_block(layers)
        next_pu = 0
        self.assignments = []
        for block_index, names in groups.items():
            used_pus: list[int] = []
            for name in names:
                layer_plan = layers[name]
                placed = False
                probe = next_pu
                while probe < len(self.processing_units):
                    pu = self.processing_units[probe]
                    if pu.can_fit_layer(layer_plan, mlc_cell):
                        pu.place_layer(layer_plan, mlc_cell)
                        if probe not in used_pus:
                            used_pus.append(probe)
                        placed = True
                        break
                    probe += 1
                if not placed:
                    raise MemoryError(
                        f"chip exhausted while placing block {block_index} ({name}); "
                        "scale out with pipeline parallelism"
                    )
            self.assignments.append(
                LayerAssignment(layer_index=block_index, pu_indices=used_pus, matrices=names)
            )
            # The next block starts at the furthest PU used so far: blocks
            # are pipelined PU-by-PU (Fig. 5), sharing only when spilling.
            next_pu = max(used_pus) + 1 if used_pus else next_pu
        return self.assignments

    # -- chip-level queries -------------------------------------------------
    def arrays_used(self) -> int:
        """Arrays reserved across every processing unit."""
        return sum(pu.arrays_used() for pu in self.processing_units)
