"""ShardPlan: tensor/pipeline-parallel placement over a :class:`DeviceMesh`.

Two axes of parallelism, straight from paper Section 3.1:

- **Tensor parallelism (cases 1-2)** — each crossbar-deployed layer's rank
  dimension is partitioned into ``tensor_parallel`` contiguous shards
  (:func:`repro.rram.mapping.partition_rank`); shard ``s`` holds rows
  ``[start, stop)`` of ``A`` and columns ``[start, stop)`` of ``B``, and
  the per-shard stage-2 partial sums are aggregated over the OCI.
- **Pipeline parallelism (case 3)** — whole Transformer blocks are
  assigned to chips contiguously; each chip boundary costs one
  hidden-vector PCIe-6.0 handoff per token.

Placement is **derived from the existing** :class:`~repro.pim.chip.HyFlexPimChip`
mapper rather than re-invented: every (chip, shard) pair gets its own
capacity-checked mapper over its slice of the chip's PUs, and the per-shard
rank-sliced :class:`~repro.svd.pipeline.LayerPlan`\\ s are placed through the
same first-fit logic (and raise the same :class:`MemoryError` when a mesh
is too small — the signal to scale out).  Placement reserves arrays by
shape and programs nothing; :func:`~repro.dist.deploy_sharded` programs
the served shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dist.mesh import DeviceMesh
from repro.pim.chip import ChipConfig, HyFlexPimChip, group_layers_by_block
from repro.rram.cell import CellType, MLC2
from repro.rram.mapping import partition_rank, partition_rank_compacted
from repro.svd.pipeline import LayerPlan

__all__ = [
    "LayerShardAssignment",
    "ShardPlan",
    "compacted_tile_aligned",
    "shard_layer_plan",
]


def compacted_tile_aligned(
    protected: np.ndarray, rank_slices: list[tuple[int, int]], tile: int
) -> bool:
    """Whether shard boundaries stay tile-aligned after SLC/MLC compaction.

    :func:`~repro.rram.mapping.split_by_rank` compacts a layer's protected
    and unprotected ranks into *separate* matrices before tiling, so the
    accumulation-tile boundaries the ADC clips at live in compacted space.
    A shard boundary at logical rank ``b`` preserves the unsharded tiling
    only when both the number of protected ranks below ``b`` and the number
    of unprotected ranks below ``b`` are multiples of ``tile`` — then every
    shard's matrices start on a whole-tile boundary of the unsharded
    compacted matrices.  Where that fails, a sharded deployment silently
    falls back to sub-tile accumulation: still exact for saturation-free
    GEMVs, but divergent from the unsharded mapping wherever an MLC bitline
    saturates.  :meth:`ShardPlan.build` surfaces this per layer as
    :attr:`LayerShardAssignment.tile_aligned`.
    """
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    protected = np.asarray(protected, dtype=bool)
    prefix_protected = np.concatenate([[0], np.cumsum(protected)])
    for _, stop in rank_slices[:-1]:
        n_protected = int(prefix_protected[stop])
        if n_protected % tile or (stop - n_protected) % tile:
            return False
    return True


def _compacted_aligned_slices(
    plan: LayerPlan, parts: int, tile: int
) -> list[tuple[int, int]]:
    """Rank slices for one layer, compacted-aligned whenever reachable.

    The plain :func:`~repro.rram.mapping.partition_rank` slices win when
    they are already aligned in compacted SLC/MLC space — that keeps every
    historically-aligned layer's boundaries byte-identical.  Only layers
    that would fall back to sub-tile accumulation retry with
    :func:`~repro.rram.mapping.partition_rank_compacted`; the retry is
    accepted when it exists, matches the plain shard count (so shard-group
    placement keeps its shape), and stays reasonably balanced (no shard
    wider than twice the plain maximum, which would shift capacity
    pressure onto one PU group).
    """
    plain = partition_rank(plan.rank, parts, tile=tile)
    if compacted_tile_aligned(plan.protected_ranks, plain, tile):
        return plain
    aligned = partition_rank_compacted(plan.protected_ranks, parts, tile=tile)
    if aligned is None or len(aligned) != len(plain):
        return plain
    plain_max = max(stop - start for start, stop in plain)
    if max(stop - start for start, stop in aligned) > 2 * plain_max:
        return plain
    return aligned


def shard_layer_plan(plan: LayerPlan, start: int, stop: int) -> LayerPlan:
    """Rank-slice one :class:`LayerPlan` into the shard ``[start, stop)``.

    The bias stays with the logical layer (it is added once, after the
    shards' partial sums recombine), so shard plans carry ``bias=None``.
    """
    return LayerPlan(
        name=plan.name,
        a_matrix=plan.a_matrix[start:stop, :],
        b_matrix=plan.b_matrix[:, start:stop],
        bias=None,
        protected_ranks=plan.protected_ranks[start:stop],
        sigma_gradients=plan.sigma_gradients[start:stop],
    )


@dataclass
class LayerShardAssignment:
    """Where one logical layer's shards landed on the mesh.

    ``tile_aligned`` is False when this layer's shard boundaries fall back
    to sub-tile accumulation in compacted SLC/MLC space (see
    :func:`compacted_tile_aligned`): the sharded mapping then only matches
    the unsharded one where no MLC bitline saturates.
    """

    name: str
    block: int
    chip: int
    rank_slices: list[tuple[int, int]]
    pu_ids: list[list[int]] = field(default_factory=list)  # global ids, per shard
    tile_aligned: bool = True

    @property
    def num_shards(self) -> int:
        """Number of tensor-parallel shards this layer was split into."""
        return len(self.rank_slices)

    def pus_assigned(self) -> set[int]:
        """Global ids of every processing unit holding a shard fragment."""
        return {pu for group in self.pu_ids for pu in group}


@dataclass
class ShardPlan:
    """A complete tensor/pipeline-parallel deployment of one model."""

    mesh: DeviceMesh
    tensor_parallel: int
    layers: dict[str, LayerShardAssignment]
    chip_of_block: dict[int, int]
    arrays_used: int

    # ------------------------------------------------------------------
    @property
    def chips_used(self) -> int:
        """Chips holding at least one Transformer block."""
        return len(set(self.chip_of_block.values())) if self.chip_of_block else 0

    @property
    def pipeline_boundaries(self) -> int:
        """Chip boundaries a token crosses end to end (case 3 handoffs)."""
        return max(0, self.chips_used - 1)

    @property
    def num_blocks(self) -> int:
        """Transformer blocks covered by the plan."""
        return len(self.chip_of_block)

    def pus_assigned(self) -> int:
        """Distinct processing units holding at least one shard fragment."""
        return len({pu for a in self.layers.values() for pu in a.pus_assigned()})

    @property
    def subtile_layers(self) -> list[str]:
        """Layers whose shard boundaries fell back to sub-tile accumulation.

        Sorted names of every layer with ``tile_aligned=False`` — the
        deployments whose sharded GEMVs can diverge from the unsharded
        mapping where an MLC bitline saturates.  Empty means the whole plan
        preserves the unsharded accumulation tiling.
        """
        return sorted(
            name for name, a in self.layers.items() if not a.tile_aligned
        )

    @property
    def fully_tile_aligned(self) -> bool:
        """True when no layer fell back to sub-tile shard boundaries."""
        return not self.subtile_layers

    def describe(self) -> dict:
        """JSON-friendly summary of the deployment's shape and placement."""
        return {
            "num_chips": self.mesh.num_chips,
            "tensor_parallel": self.tensor_parallel,
            "chips_used": self.chips_used,
            "pipeline_boundaries": self.pipeline_boundaries,
            "num_blocks": self.num_blocks,
            "num_layers": len(self.layers),
            "pus_assigned": self.pus_assigned(),
            "arrays_used": self.arrays_used,
            "subtile_fallback_layers": len(self.subtile_layers),
            "fully_tile_aligned": self.fully_tile_aligned,
        }

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        plans: dict[str, LayerPlan],
        mesh: DeviceMesh,
        tensor_parallel: int = 1,
        mlc_cell: CellType = MLC2,
    ) -> "ShardPlan":
        """Derive a shard plan for ``plans`` on ``mesh``.

        Blocks are split contiguously over the mesh's chips (balanced, in
        block order — pipeline order is model order).  Within a chip, that
        chip's PU budget (:meth:`~repro.dist.mesh.DeviceMesh.pu_budget` —
        heterogeneous meshes carry per-chip budgets) is divided into
        ``tensor_parallel`` contiguous groups; shard ``s`` of every layer
        on that chip is placed into group ``s`` by a dedicated
        :class:`HyFlexPimChip` mapper restricted to that group's PU budget.
        A chip whose budget cannot host ``tensor_parallel`` groups raises
        a :class:`ValueError` naming the exhausted chip.
        """
        if tensor_parallel < 1:
            raise ValueError(f"tensor_parallel must be >= 1, got {tensor_parallel}")
        too_small = [
            chip
            for chip in range(mesh.num_chips)
            if mesh.pu_budget(chip) < tensor_parallel
        ]
        if too_small:
            chip = too_small[0]
            raise ValueError(
                f"tensor_parallel={tensor_parallel} exceeds chip {chip}'s "
                f"budget of {mesh.pu_budget(chip)} processing units "
                f"(per-chip budgets: {list(mesh.chip_pus)})"
            )
        groups = group_layers_by_block(plans)
        blocks = list(groups)
        num_chips = min(mesh.num_chips, len(blocks)) or 1
        # Balanced contiguous block -> chip assignment (pipeline order).
        chip_of_block: dict[int, int] = {}
        for position, block in enumerate(blocks):
            chip_of_block[block] = (position * num_chips) // max(1, len(blocks))

        # Global PU ids: chips own contiguous ranges in budget order, so a
        # heterogeneous mesh's ids stay stable and non-overlapping.
        chip_pu_base = [0] * mesh.num_chips
        for chip in range(1, mesh.num_chips):
            chip_pu_base[chip] = chip_pu_base[chip - 1] + mesh.pu_budget(chip - 1)

        layers: dict[str, LayerShardAssignment] = {}
        arrays_used = 0
        for chip in range(num_chips):
            chip_blocks = [b for b in blocks if chip_of_block[b] == chip]
            if not chip_blocks:
                continue
            pus_per_group = mesh.pu_budget(chip) // tensor_parallel
            chip_names = [name for b in chip_blocks for name in groups[b]]
            # Rank slices are a property of each logical layer, shared by
            # every shard group; boundaries align to whole array row tiles
            # whenever possible (shards split mapped arrays, not wordlines).
            # Logical-space alignment is not enough once split_by_rank
            # compacts protected/unprotected ranks into separate matrices,
            # so layers whose balanced boundaries land sub-tile in
            # compacted space retry with compacted-aligned boundaries
            # (already-aligned layers keep their slices untouched).
            slices_of = {
                name: _compacted_aligned_slices(
                    plans[name],
                    tensor_parallel,
                    mesh.hardware.array_rows,
                )
                for name in chip_names
            }
            for name in chip_names:
                block = int(name.split(".")[1])
                layers[name] = LayerShardAssignment(
                    name=name,
                    block=block,
                    chip=chip,
                    rank_slices=slices_of[name],
                    pu_ids=[[] for _ in slices_of[name]],
                    tile_aligned=compacted_tile_aligned(
                        plans[name].protected_ranks,
                        slices_of[name],
                        mesh.hardware.array_rows,
                    ),
                )
            for shard in range(tensor_parallel):
                shard_plans = {}
                for name in chip_names:
                    if shard < len(slices_of[name]):
                        start, stop = slices_of[name][shard]
                        shard_plans[name] = shard_layer_plan(plans[name], start, stop)
                if not shard_plans:
                    continue
                mapper = HyFlexPimChip(
                    config=ChipConfig(
                        num_processing_units=pus_per_group,
                        pu=mesh.chip_config.pu,
                        global_bus_gbps=mesh.chip_config.global_bus_gbps,
                        inner_bus_gbps=mesh.chip_config.inner_bus_gbps,
                    )
                )
                try:
                    assignments = mapper.deploy(shard_plans, mlc_cell=mlc_cell)
                except MemoryError as exc:
                    raise MemoryError(
                        f"mesh exhausted on chip {chip}, shard group {shard} "
                        f"({pus_per_group} of the chip's {mesh.pu_budget(chip)} "
                        f"PUs): {exc}; scale out with more chips or lower "
                        "tensor_parallel"
                    ) from None
                arrays_used += mapper.arrays_used()
                base = chip_pu_base[chip] + shard * pus_per_group
                for assignment in assignments:
                    for name in assignment.matrices:
                        if shard < len(layers[name].rank_slices):
                            layers[name].pu_ids[shard] = [
                                base + local for local in assignment.pu_indices
                            ]
        return cls(
            mesh=mesh,
            tensor_parallel=tensor_parallel,
            layers=layers,
            chip_of_block=chip_of_block,
            arrays_used=arrays_used,
        )
