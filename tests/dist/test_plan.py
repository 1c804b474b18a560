"""Tests for rank partitioning and the mapper-derived ShardPlan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import (
    DeviceMesh,
    ShardPlan,
    compacted_tile_aligned,
    deploy_sharded,
    shard_layer_plan,
)
from repro.pim.chip import ChipConfig, group_layers_by_block
from repro.rram.cell import MLC3, MLC4
from repro.rram.mapping import partition_rank, partition_rank_compacted
from repro.svd.pipeline import LayerPlan


def make_plans(rng, num_blocks=2, d=16, ff=32, protected_quarter=True):
    """Synthetic per-block LayerPlans shaped like a tiny Transformer."""
    plans = {}
    for block in range(num_blocks):
        for leaf, (out_f, in_f) in {
            "attn.q": (d, d),
            "ffn1": (ff, d),
        }.items():
            rank = min(out_f, in_f)
            mask = np.zeros(rank, dtype=bool)
            if protected_quarter:
                mask[: max(1, rank // 4)] = True
            name = f"blocks.{block}.{leaf}"
            plans[name] = LayerPlan(
                name=name,
                a_matrix=rng.normal(size=(rank, in_f)) / np.sqrt(in_f),
                b_matrix=rng.normal(size=(out_f, rank)) / np.sqrt(rank),
                bias=rng.normal(size=out_f),
                protected_ranks=mask,
                sigma_gradients=rng.random(rank),
            )
    return plans


class TestPartitionRank:
    def test_balanced_and_contiguous(self):
        slices = partition_rank(10, 4)
        assert slices == [(0, 2), (2, 5), (5, 7), (7, 10)]
        widths = [b - a for a, b in slices]
        assert max(widths) - min(widths) <= 1

    def test_drops_empty_slices(self):
        assert partition_rank(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_single_part_is_identity(self):
        assert partition_rank(7, 1) == [(0, 7)]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_rank(-1, 2)
        with pytest.raises(ValueError):
            partition_rank(4, 0)


class TestShardLayerPlan:
    def test_slices_rank_dim_and_drops_bias(self, rng):
        plans = make_plans(rng)
        plan = plans["blocks.0.attn.q"]
        shard = shard_layer_plan(plan, 4, 12)
        assert shard.a_matrix.shape == (8, plan.a_matrix.shape[1])
        assert shard.b_matrix.shape == (plan.b_matrix.shape[0], 8)
        assert shard.bias is None
        np.testing.assert_array_equal(shard.protected_ranks, plan.protected_ranks[4:12])
        np.testing.assert_array_equal(shard.a_matrix, plan.a_matrix[4:12])


class TestGroupLayersByBlock:
    def test_groups_and_sorts(self):
        groups = group_layers_by_block(["blocks.1.a", "blocks.0.b", "blocks.0.a"])
        assert list(groups) == [0, 1]
        assert groups[0] == ["blocks.0.b", "blocks.0.a"]

    def test_rejects_foreign_names(self):
        with pytest.raises(ValueError):
            group_layers_by_block(["embedding.weight"])


class TestShardPlanBuild:
    def test_single_chip_single_way(self, rng):
        plans = make_plans(rng)
        plan = ShardPlan.build(plans, DeviceMesh())
        assert plan.tensor_parallel == 1
        assert plan.chips_used == 1
        assert plan.pipeline_boundaries == 0
        assert set(plan.layers) == set(plans)
        assert plan.arrays_used > 0
        # Two blocks pipeline onto two PUs of one chip.
        assert plan.pus_assigned() >= 2

    def test_tensor_parallel_partitions_every_layer(self, rng):
        plans = make_plans(rng)
        plan = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=4)
        for assignment in plan.layers.values():
            assert assignment.num_shards == 4
            covered = [s for pair in assignment.rank_slices for s in pair]
            assert covered[0] == 0
            assert covered[-1] == plans[assignment.name].rank
        # Shard groups occupy disjoint PU ranges.
        for assignment in plan.layers.values():
            flat = [pu for group in assignment.pu_ids for pu in group]
            assert len(flat) == len(set(flat))

    def test_more_ways_assign_more_pus(self, rng):
        plans = make_plans(rng)
        one = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=1)
        four = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=4)
        assert four.pus_assigned() > one.pus_assigned()

    def test_pipeline_splits_blocks_over_chips(self, rng):
        plans = make_plans(rng, num_blocks=4)
        plan = ShardPlan.build(plans, DeviceMesh(num_chips=2))
        assert plan.chips_used == 2
        assert plan.pipeline_boundaries == 1
        chips = [plan.chip_of_block[b] for b in sorted(plan.chip_of_block)]
        assert chips == sorted(chips)  # contiguous, in block order
        assert chips == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "num_blocks, num_chips", [(3, 2), (4, 2), (5, 2), (5, 3), (6, 4), (4, 4)]
    )
    def test_chips_hold_balanced_contiguous_block_runs(self, rng, num_blocks, num_chips):
        """Pipeline stages are chips: every chip holds one contiguous run
        of blocks, in block order, and run lengths differ by at most one."""
        plan = ShardPlan.build(make_plans(rng, num_blocks=num_blocks), DeviceMesh(num_chips=num_chips))
        chips = [plan.chip_of_block[b] for b in range(num_blocks)]
        assert chips == sorted(chips)
        assert sorted(set(chips)) == list(range(num_chips))
        runs = [chips.count(chip) for chip in range(num_chips)]
        assert max(runs) - min(runs) <= 1
        assert plan.chips_used == num_chips
        assert plan.pipeline_boundaries == num_chips - 1

    def test_excess_chips_stay_idle(self, rng):
        plans = make_plans(rng, num_blocks=2)
        plan = ShardPlan.build(plans, DeviceMesh(num_chips=8))
        assert plan.chips_used == 2

    def test_describe_payload(self, rng):
        plans = make_plans(rng)
        plan = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=2)
        desc = plan.describe()
        assert desc["tensor_parallel"] == 2
        assert desc["num_layers"] == len(plans)
        assert desc["pus_assigned"] == plan.pus_assigned()

    def test_validation(self, rng):
        plans = make_plans(rng)
        with pytest.raises(ValueError):
            ShardPlan.build(plans, DeviceMesh(), tensor_parallel=0)
        with pytest.raises(ValueError):
            ShardPlan.build(plans, DeviceMesh(), tensor_parallel=25)

    @pytest.mark.parametrize("tensor_parallel", [1, 2])
    @pytest.mark.parametrize(("cell", "bits"), [(MLC3, 8), (MLC4, 9)])
    def test_rejects_cells_the_adc_cannot_resolve(self, rng, tensor_parallel, cell, bits):
        """On 64-row arrays MLC3 needs an 8-bit ADC and MLC4 a 9-bit one;
        the SAR ADC resolves 7 bits, so the plan is refused up front."""
        with pytest.raises(ValueError) as caught:
            ShardPlan.build(
                make_plans(rng), DeviceMesh(num_chips=1), tensor_parallel=tensor_parallel, mlc_cell=cell
            )
        assert str(caught.value) == (
            f"layer 'blocks.0.attn.q': {cell.name} cells on 64-row arrays need {bits} ADC bits; "
            "the SAR ADC resolves at most 7"
        )

    def test_exhausted_mesh_raises_memoryerror(self, rng):
        plans = make_plans(rng, num_blocks=3)
        tiny = ChipConfig(num_processing_units=1)
        mesh = DeviceMesh(chip_config=tiny)
        with pytest.raises(MemoryError, match="scale out"):
            ShardPlan.build(plans, mesh)


class TestCompactedTileAlignment:
    """Regression: sub-tile shard boundaries are surfaced, not silent."""

    def test_aligned_when_both_compacted_counts_hit_tile_boundaries(self):
        protected = np.zeros(16, dtype=bool)
        protected[:8] = True  # boundary at 8: 8 protected, 0 unprotected
        assert compacted_tile_aligned(protected, [(0, 8), (8, 16)], tile=4)

    def test_misaligned_when_protected_prefix_is_not_a_tile_multiple(self):
        protected = np.zeros(16, dtype=bool)
        protected[:6] = True  # boundary at 8: 6 protected, 2 unprotected
        assert not compacted_tile_aligned(protected, [(0, 8), (8, 16)], tile=4)

    def test_misaligned_when_unprotected_prefix_is_not_a_tile_multiple(self):
        protected = np.zeros(16, dtype=bool)
        protected[:4] = True  # boundary at 10: 4 protected, 6 unprotected
        assert not compacted_tile_aligned(protected, [(0, 10), (10, 16)], tile=4)

    def test_single_shard_has_no_interior_boundary(self):
        protected = np.ones(5, dtype=bool)
        assert compacted_tile_aligned(protected, [(0, 5)], tile=64)

    def test_tile_of_one_is_always_aligned(self):
        protected = np.zeros(7, dtype=bool)
        protected[::2] = True
        assert compacted_tile_aligned(protected, [(0, 3), (3, 7)], tile=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            compacted_tile_aligned(np.zeros(4, dtype=bool), [(0, 4)], tile=0)

    def test_build_flags_subtile_fallback_layers(self, rng):
        # Rank-16 layers sharded 2-way over 64-row arrays force every
        # boundary into compacted sub-tile space.
        plans = make_plans(rng)
        plan = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=2)
        assert not plan.fully_tile_aligned
        assert plan.subtile_layers == sorted(plans)
        for assignment in plan.layers.values():
            assert not assignment.tile_aligned
        desc = plan.describe()
        assert desc["subtile_fallback_layers"] == len(plans)
        assert desc["fully_tile_aligned"] is False

    def test_unsharded_build_is_fully_aligned(self, rng):
        plans = make_plans(rng)
        plan = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=1)
        assert plan.fully_tile_aligned
        assert plan.subtile_layers == []
        assert plan.describe()["subtile_fallback_layers"] == 0


class TestCompactedAlignedPartitioning:
    """Niggle regression: unaligned boundaries retry in compacted space.

    ``ShardPlan.build`` used to take :func:`partition_rank`'s logical-space
    balanced boundaries as final, so any layer whose protected/unprotected
    prefix counts missed a tile multiple at the balanced split silently
    fell back to sub-tile accumulation.  Now such layers retry with
    :func:`partition_rank_compacted` and ``describe()`` reports fewer
    ``subtile_fallback_layers`` — while already-aligned layers keep their
    historical slices byte-identical.
    """

    #: protected ranks [0, 1, 8, 9] of a rank-16 layer on 4-row arrays:
    #: the balanced 2-way boundary at 8 sees 2 protected / 6 unprotected
    #: below (neither a tile multiple), but the boundary at 12 sees 4 / 8.
    INTERLEAVED = [0, 1, 8, 9]

    def _mesh(self):
        from repro.arch.config import HardwareConfig

        return DeviceMesh(hardware=HardwareConfig(array_rows=4))

    def _interleaved_plans(self, rng):
        plans = make_plans(rng, num_blocks=1)
        for plan in plans.values():
            plan.protected_ranks[:] = False
            plan.protected_ranks[self.INTERLEAVED] = True
        return plans

    def test_partition_rank_compacted_lands_on_aligned_boundaries(self):
        protected = np.zeros(16, dtype=bool)
        protected[self.INTERLEAVED] = True
        assert not compacted_tile_aligned(protected, partition_rank(16, 2, tile=4), 4)
        slices = partition_rank_compacted(protected, 2, tile=4)
        assert slices == [(0, 12), (12, 16)]
        assert compacted_tile_aligned(protected, slices, 4)

    def test_partition_rank_compacted_returns_none_when_impossible(self):
        # A protected total that is not a tile multiple poisons every
        # boundary past the last protected rank.
        protected = np.zeros(16, dtype=bool)
        protected[:6] = True
        assert partition_rank_compacted(protected, 2, tile=64) is None

    def test_partition_rank_compacted_single_part(self):
        protected = np.zeros(5, dtype=bool)
        assert partition_rank_compacted(protected, 1, tile=64) == [(0, 5)]

    def test_partition_rank_compacted_validation(self):
        protected = np.zeros(8, dtype=bool)
        with pytest.raises(ValueError):
            partition_rank_compacted(protected, 0, tile=4)
        with pytest.raises(ValueError):
            partition_rank_compacted(protected, 2, tile=0)

    def test_build_rescues_subtile_layers(self, rng):
        plans = self._interleaved_plans(rng)
        # Sanity: the plain balanced partition is sub-tile for every layer.
        for plan in plans.values():
            assert not compacted_tile_aligned(
                plan.protected_ranks, partition_rank(plan.rank, 2, tile=4), 4
            )
        built = ShardPlan.build(plans, self._mesh(), tensor_parallel=2)
        assert built.fully_tile_aligned
        assert built.describe()["subtile_fallback_layers"] == 0
        for assignment in built.layers.values():
            assert assignment.tile_aligned
            assert assignment.rank_slices == [(0, 12), (12, 16)]

    def test_build_keeps_already_aligned_slices_byte_identical(self, rng):
        # Prefix masks of 4 protected ranks are aligned at the balanced
        # boundary already — the retry must not touch their slices.
        plans = make_plans(rng, num_blocks=1)
        built = ShardPlan.build(plans, self._mesh(), tensor_parallel=2)
        for name, assignment in built.layers.items():
            assert assignment.rank_slices == partition_rank(
                plans[name].rank, 2, tile=4
            )
            assert assignment.tile_aligned

    def test_build_keeps_plain_slices_when_unrescuable(self, rng):
        # Rank-16 layers on 64-row arrays have no interior aligned
        # boundary at all: the fallback keeps partition_rank's slices.
        plans = make_plans(rng, num_blocks=1)
        built = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=2)
        for name, assignment in built.layers.items():
            assert not assignment.tile_aligned
            assert assignment.rank_slices == partition_rank(
                plans[name].rank, 2, tile=64
            )


class TestDeploySharded:
    def test_deploys_known_layers_and_skips_unknown(self, rng):
        from repro.pim.hybrid import HybridLinear
        from repro.rram.noise import NoiseSpec

        plans = make_plans(rng)
        plan = ShardPlan.build(plans, DeviceMesh(), tensor_parallel=2)
        name = "blocks.0.attn.q"
        known = HybridLinear(plans[name], noise=NoiseSpec.noiseless(), mode="crossbar")
        stray = HybridLinear(plans[name], noise=NoiseSpec.noiseless(), mode="crossbar")
        deploy_sharded({name: known, "blocks.9.x": stray}, plan)
        assert known.num_shards == 2
        assert stray._mesh is None

    @pytest.mark.parametrize("tensor_parallel", [1, 2, 4])
    def test_engine_deploy_programs_each_fragment_once(self, rng, tensor_parallel):
        """The backend holds exactly the deployed shards' fragments: no
        layer is programmed before sharding and again after it."""
        from repro.nn import DecoderLM, TransformerConfig
        from repro.rram.backend import SimBackend
        from repro.rram.mapping import rank_fragments
        from repro.serve import ServingEngine

        model = DecoderLM(
            TransformerConfig(
                vocab_size=40, d_model=16, num_heads=2, num_layers=2,
                d_ff=32, max_seq_len=32, seed=0,
            )
        )
        plans = {}
        for name, linear in model.iter_static_linears():
            out_f, in_f = linear.weight.data.shape
            rank = min(out_f, in_f)
            plans[name] = _layer(name, rank, in_f, out_f, range(0, rank, 5), rng)
        backend = SimBackend()
        engine = ServingEngine.deploy(
            model, plans, mode="crossbar", backend=backend,
            mesh=DeviceMesh(num_chips=2), tensor_parallel=tensor_parallel,
        )
        layers = engine.hybrid_layers.values()
        fragments = sum(
            len(rank_fragments(
                layer.plan.protected_ranks[start:stop], layer.in_features,
                layer.out_features, layer.mlc_cell,
            ))
            for layer in layers
            for start, stop in layer._rank_slices
        )
        assert {layer.num_shards for layer in layers} == {tensor_parallel}
        assert backend.health_report()["programs"] == fragments


# ----------------------------------------------------------------------
# Placement is capacity arithmetic on shapes
# ----------------------------------------------------------------------
def _layer(name, rank, in_f, out_f, protected, rng):
    """A LayerPlan with the given shape and protected rank indices."""
    mask = np.zeros(rank, dtype=bool)
    mask[list(protected)] = True
    return LayerPlan(
        name=name,
        a_matrix=rng.normal(size=(rank, in_f)),
        b_matrix=rng.normal(size=(out_f, rank)),
        bias=None,
        protected_ranks=mask,
        sigma_gradients=np.zeros(rank),
    )


#: The perfbench ``analog_stream`` model's compiled layers (2 blocks,
#: d_model 64, d_ff 128): (rank, in, out, protected ranks) per layer.
ANALOG_STREAM_LAYERS = {
    "blocks.0.w_q": (32, 64, 64, (0, 3, 8)),
    "blocks.0.w_k": (32, 64, 64, (0, 2, 4)),
    "blocks.0.w_v": (32, 64, 64, (3, 19, 24)),
    "blocks.0.w_proj": (32, 64, 64, (0, 1, 3)),
    "blocks.0.ffn1": (42, 64, 128, (0, 1, 3, 11)),
    "blocks.0.ffn2": (42, 128, 64, (0, 1, 3, 6)),
    "blocks.1.w_q": (32, 64, 64, (1, 3, 19)),
    "blocks.1.w_k": (32, 64, 64, (0, 4, 12)),
    "blocks.1.w_v": (32, 64, 64, (9, 10, 21)),
    "blocks.1.w_proj": (32, 64, 64, (7, 17, 23)),
    "blocks.1.ffn1": (42, 64, 128, (0, 5, 7, 22)),
    "blocks.1.ffn2": (42, 128, 64, (2, 4, 8, 9)),
}


def analog_stream_plans(rng):
    """Layer plans shaped like the perfbench ``analog_stream`` model."""
    return {
        name: _layer(name, rank, in_f, out_f, protected, rng)
        for name, (rank, in_f, out_f, protected) in ANALOG_STREAM_LAYERS.items()
    }


def block_plans(num_blocks, d, ff, protect_fraction, seed):
    """Seeded Transformer-shaped plans with randomly placed protected ranks."""
    rng = np.random.default_rng(seed)
    plans = {}
    for block in range(num_blocks):
        for leaf, (out_f, in_f) in {
            "w_q": (d, d),
            "w_k": (d, d),
            "w_v": (d, d),
            "w_proj": (d, d),
            "ffn1": (ff, d),
            "ffn2": (d, ff),
        }.items():
            rank = min(out_f, in_f)
            protected = rng.permutation(rank)[: round(protect_fraction * rank)]
            name = f"blocks.{block}.{leaf}"
            plans[name] = _layer(name, rank, in_f, out_f, protected, rng)
    return plans


def small_pu_chip(num_analog_modules, num_arrays):
    """A chip whose PUs hold only a few small analog modules."""
    from repro.pim import AnalogModuleConfig, ProcessingUnitConfig

    return ChipConfig(
        pu=ProcessingUnitConfig(
            num_analog_modules=num_analog_modules,
            analog=AnalogModuleConfig(num_arrays=num_arrays),
        )
    )


def plan_digest(plan):
    """sha256 of ``describe()`` plus every layer's rank slices and PU ids."""
    import hashlib
    import json

    payload = {
        "describe": plan.describe(),
        "layers": {
            name: [a.rank_slices, a.pu_ids] for name, a in sorted(plan.layers.items())
        },
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPlacementProgramsNothing:
    """Placement reserves arrays by shape; it writes no crossbar tile."""

    @staticmethod
    def _default_backend_writes():
        from repro.rram.backend import get_default_backend

        report = get_default_backend().health_report()
        return report["tiles"], report["programs"], report["total_write_pulses"]

    def test_build_leaves_default_backend_untouched(self, rng):
        before = self._default_backend_writes()
        plan = ShardPlan.build(
            analog_stream_plans(rng), DeviceMesh(num_chips=2), tensor_parallel=2
        )
        assert plan.arrays_used > 0
        assert self._default_backend_writes() == before

    def test_engine_deploy_adds_no_default_backend_tile(self, rng):
        from repro.nn import DecoderLM, TransformerConfig
        from repro.rram.backend import SimBackend
        from repro.serve import ServingEngine

        model = DecoderLM(
            TransformerConfig(
                vocab_size=40, d_model=16, num_heads=2, num_layers=2,
                d_ff=32, max_seq_len=32, seed=0,
            )
        )
        plans = {}
        for name, linear in model.iter_static_linears():
            out_f, in_f = linear.weight.data.shape
            rank = min(out_f, in_f)
            plans[name] = _layer(name, rank, in_f, out_f, range(rank // 4), rng)
        before = self._default_backend_writes()[0]
        own = SimBackend()
        engine = ServingEngine.deploy(
            model, plans, mode="crossbar", backend=own,
            mesh=DeviceMesh(num_chips=2), tensor_parallel=2,
        )
        assert engine.shard_plan.tensor_parallel == 2
        assert own.health_report()["tiles"] > 0
        assert self._default_backend_writes()[0] == before


#: Plans recorded when placement still programmed a crossbar per fragment.
ANALOG_STREAM_ARRAYS = 183
ANALOG_STREAM_DIGEST = "e9336aa8f431682ee04f0c8ba29d690cb90b193b5b39333b4a7829e850bf6fa2"
HETEROGENEOUS_PUS = 16
HETEROGENEOUS_DIGEST = "5e92352f8d085854b36621c3a9e5a695df27242728f5a894a38d963e9f73d3b4"
EXHAUSTED_MESSAGE = (
    "mesh exhausted on chip 0, shard group 0 (2 of the chip's 4 PUs): chip "
    "exhausted while placing block 0 (blocks.0.w_v); scale out with pipeline "
    "parallelism; scale out with more chips or lower tensor_parallel"
)


class TestPinnedPlans:
    """Shape-based placement reproduces the pinned plans exactly."""

    def test_analog_stream_plan(self, rng):
        plan = ShardPlan.build(
            analog_stream_plans(rng), DeviceMesh(num_chips=2), tensor_parallel=2
        )
        assert plan.describe()["arrays_used"] == ANALOG_STREAM_ARRAYS
        assert plan_digest(plan) == ANALOG_STREAM_DIGEST

    def test_heterogeneous_plan(self):
        mesh = DeviceMesh(
            num_chips=3, chip_pus=[8, 6, 4], chip_config=small_pu_chip(4, 16)
        )
        plan = ShardPlan.build(block_plans(4, 96, 192, 0.3, seed=1), mesh, tensor_parallel=2)
        assert plan.describe()["pus_assigned"] == HETEROGENEOUS_PUS
        assert plan_digest(plan) == HETEROGENEOUS_DIGEST

    def test_exhausted_mesh_message(self):
        mesh = DeviceMesh(
            num_chips=2, chip_pus=[4, 2], chip_config=small_pu_chip(2, 16)
        )
        with pytest.raises(MemoryError) as caught:
            ShardPlan.build(block_plans(2, 128, 256, 0.5, seed=2), mesh, tensor_parallel=2)
        assert str(caught.value) == EXHAUSTED_MESSAGE

