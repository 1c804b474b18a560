"""Heterogeneous meshes, batched pipeline handoffs, sharded fused traces.

Three ISSUE-7 contracts live here:

- :class:`~repro.dist.mesh.DeviceMesh` accepts per-chip PU budgets
  (``chip_pus``) and :meth:`~repro.dist.plan.ShardPlan.build` honours them:
  global PU ids stay disjoint across unequal chips and a chip whose budget
  cannot host ``tensor_parallel`` groups raises a :class:`ValueError`
  naming that chip.
- :meth:`~repro.dist.mesh.DeviceMesh.record_batched_pipeline_handoff`
  ships a whole decode step's rows in **one** launch per boundary:
  ``rows * boundaries * hidden`` bytes, ``transfers == boundaries``.
- The batched≡per-row serving contract survives sharding: a calibrated
  crossbar :class:`~repro.pim.hybrid.HybridLinear` forwarded once for a
  whole batch (one fast-kernel call per stage)
  equals the same deployment forwarded row by row — bitwise, noiseless
  (sha256-pinned, invariant across 1/2/4-way tensor parallelism) and
  under calibrated programming noise.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dist import DeviceMesh, ShardPlan
from repro.pim.hybrid import HybridLinear
from repro.rram import KernelPolicy, kernel_policy
from repro.rram.cell import CELL_TYPES
from repro.rram.crossbar import CrossbarConfig
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec
from repro.svd.pipeline import LayerPlan

from tests.dist.test_plan import make_plans

CELLS = ["SLC", "MLC2", "MLC3", "MLC4"]
#: 1/2/4-way tensor parallelism (the golden-trace grid of the issue).
WAYS = (1, 2, 4)
#: Per-cell geometry mirroring tests/dist/test_sharded.py: SLC/MLC2 run the
#: paper arrays (noiseless => saturation-free), MLC3/MLC4 use 4-row arrays
#: so every shard width in WAYS lands on whole row tiles.
CELL_CONFIGS = {
    "SLC": CrossbarConfig(),
    "MLC2": CrossbarConfig(),
    "MLC3": CrossbarConfig(rows=4, cols=32),
    "MLC4": CrossbarConfig(rows=4, cols=32),
}
CELL_RANKS = {"SLC": 24, "MLC2": 24, "MLC3": 32, "MLC4": 32}
CELL_PROTECTED = {"SLC": 6, "MLC2": 6, "MLC3": 8, "MLC4": 8}


# ----------------------------------------------------------------------
# Heterogeneous DeviceMesh
# ----------------------------------------------------------------------
class TestHeterogeneousMesh:
    def test_defaults_are_homogeneous(self):
        mesh = DeviceMesh(num_chips=3)
        assert not mesh.is_heterogeneous
        assert mesh.chip_pus == (24, 24, 24)
        assert mesh.pus_per_chip == 24
        assert mesh.total_pus == 72
        assert "pus_per_chip=24" in repr(mesh)

    def test_explicit_uniform_budgets_stay_homogeneous(self):
        mesh = DeviceMesh(num_chips=2, chip_pus=[8, 8])
        assert not mesh.is_heterogeneous
        assert mesh.pus_per_chip == 8

    def test_per_chip_budgets(self):
        mesh = DeviceMesh(num_chips=3, chip_pus=[24, 8, 4])
        assert mesh.is_heterogeneous
        assert mesh.total_pus == 36
        assert [mesh.pu_budget(c) for c in range(3)] == [24, 8, 4]
        assert "chip_pus=[24, 8, 4]" in repr(mesh)

    def test_pus_per_chip_refuses_heterogeneous(self):
        mesh = DeviceMesh(num_chips=2, chip_pus=[24, 4])
        with pytest.raises(ValueError, match="pu_budget"):
            mesh.pus_per_chip

    def test_budget_list_length_must_match(self):
        with pytest.raises(ValueError, match="one PU budget per chip"):
            DeviceMesh(num_chips=3, chip_pus=[24, 24])

    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            DeviceMesh(num_chips=2, chip_pus=[24, 0])

    def test_pu_budget_range_checked(self):
        mesh = DeviceMesh(num_chips=2)
        with pytest.raises(ValueError, match="out of range"):
            mesh.pu_budget(2)
        with pytest.raises(ValueError, match="out of range"):
            mesh.pu_budget(-1)


class TestBatchedPipelineHandoff:
    def test_one_pcie_launch_per_boundary(self):
        mesh = DeviceMesh(num_chips=3)
        rows, hidden = 8, 16
        mesh.record_batched_pipeline_handoff(hidden, rows=rows)
        ledger = mesh.traffic["pcie6"]
        assert ledger.num_bytes == rows * 2 * hidden
        assert ledger.transfers == 2  # one launch per boundary for the whole step
        assert mesh.traffic["oci"].num_bytes == 0.0

    def test_explicit_boundaries_override(self):
        mesh = DeviceMesh(num_chips=4)
        mesh.record_batched_pipeline_handoff(8, rows=3, boundaries=1)
        ledger = mesh.traffic["pcie6"]
        assert ledger.num_bytes == 3 * 8
        assert ledger.transfers == 1

    def test_degenerate_steps_record_nothing(self):
        mesh = DeviceMesh(num_chips=2)
        assert mesh.record_batched_pipeline_handoff(8, rows=0) == 0.0
        assert mesh.record_batched_pipeline_handoff(8, rows=4, boundaries=0) == 0.0
        assert DeviceMesh(num_chips=1).record_batched_pipeline_handoff(8, rows=4) == 0.0
        assert mesh.traffic["pcie6"].num_bytes == 0.0


# ----------------------------------------------------------------------
# ShardPlan over heterogeneous meshes
# ----------------------------------------------------------------------
class TestHeterogeneousShardPlan:
    def test_chip_local_pu_ids_respect_budgets(self, rng):
        plans = make_plans(rng, num_blocks=4)
        mesh = DeviceMesh(num_chips=2, chip_pus=[24, 4])
        plan = ShardPlan.build(plans, mesh, tensor_parallel=2)
        assert plan.chips_used == 2
        chip0_ids, chip1_ids = set(), set()
        for assignment in plan.layers.values():
            ids = assignment.pus_assigned()
            (chip0_ids if assignment.chip == 0 else chip1_ids).update(ids)
        # Chip 0 owns global ids [0, 24); chip 1 the trailing [24, 28).
        assert chip0_ids and chip0_ids <= set(range(24))
        assert chip1_ids and chip1_ids <= set(range(24, 28))

    def test_shard_groups_partition_each_chips_budget(self, rng):
        plans = make_plans(rng, num_blocks=2)
        mesh = DeviceMesh(num_chips=2, chip_pus=[8, 4])
        plan = ShardPlan.build(plans, mesh, tensor_parallel=2)
        for assignment in plan.layers.values():
            base = 0 if assignment.chip == 0 else 8
            group_width = mesh.pu_budget(assignment.chip) // 2
            for shard, ids in enumerate(assignment.pu_ids):
                lo = base + shard * group_width
                assert set(ids) <= set(range(lo, lo + group_width))

    def test_exhausted_chip_named_in_error(self, rng):
        plans = make_plans(rng, num_blocks=4)
        mesh = DeviceMesh(num_chips=2, chip_pus=[24, 1])
        with pytest.raises(ValueError, match=r"chip 1's budget of 1"):
            ShardPlan.build(plans, mesh, tensor_parallel=2)

    def test_homogeneous_build_unchanged_by_budget_plumbing(self, rng):
        plans = make_plans(rng, num_blocks=2)
        explicit = ShardPlan.build(
            plans, DeviceMesh(num_chips=2, chip_pus=[24, 24]), tensor_parallel=2
        )
        implicit = ShardPlan.build(
            plans, DeviceMesh(num_chips=2), tensor_parallel=2
        )
        for name in plans:
            assert explicit.layers[name].pu_ids == implicit.layers[name].pu_ids
            assert explicit.layers[name].chip == implicit.layers[name].chip


# ----------------------------------------------------------------------
# Sharded batched ≡ per-row golden traces (cells × noise × ways)
# ----------------------------------------------------------------------
def _make_layer_plan(cell_name: str) -> LayerPlan:
    rank = CELL_RANKS[cell_name]
    rng = np.random.default_rng(0xD157 + rank)
    mask = np.zeros(rank, dtype=bool)
    mask[: CELL_PROTECTED[cell_name]] = True
    return LayerPlan(
        name="blocks.0.test",
        a_matrix=rng.normal(size=(rank, 40)) / np.sqrt(40),
        b_matrix=rng.normal(size=(48, rank)) / np.sqrt(rank),
        bias=rng.normal(size=48),
        protected_ranks=mask,
        sigma_gradients=rng.random(rank),
    )


def _deployed_layer(cell_name: str, noisy: bool, ways: int) -> HybridLinear:
    layer = HybridLinear(
        _make_layer_plan(cell_name),
        noise=DEFAULT_NOISE if noisy else NoiseSpec.noiseless(),
        mode="crossbar",
        mlc_cell=CELL_TYPES[cell_name],
        config=CELL_CONFIGS[cell_name],
        seed=3,
    )
    layer.deploy(DeviceMesh(), tensor_parallel=ways)
    # Freeze activation scales on the probe batch: per-row replay must
    # quantize each row exactly like the batched call does.
    layer.begin_calibration()
    layer.forward(_probe(cell_name))
    layer.finish_calibration()
    return layer


def _probe(cell_name: str) -> np.ndarray:
    rng = np.random.default_rng(0xBA7C4 + CELL_TYPES[cell_name].bits)
    return rng.normal(size=(6, 40))


def _fused_forward(layer: HybridLinear, x: np.ndarray) -> np.ndarray:
    with kernel_policy(KernelPolicy(mode="fast")):
        return layer.forward(x).data.copy()


def _per_row_forward(layer: HybridLinear, x: np.ndarray) -> np.ndarray:
    with kernel_policy(KernelPolicy(mode="fast")):
        return np.vstack([layer.forward(x[i : i + 1]).data for i in range(len(x))])


class TestShardedBatchedGoldenTraces:
    #: sha256 of the batched noiseless float64 output bytes per cell.  One
    #: hash covers all of WAYS: with tile-aligned shard boundaries the
    #: noiseless sharded forward is bitwise ways-invariant, so any drift in
    #: either the batched kernel call or the shard recombination trips this.
    GOLDEN_FUSED_SHA256 = {
        "SLC": "4e896244a0e139040ae3325621951ea988d99c96e5c50d88f7e7091463c34158",
        "MLC2": "c73fb92ea38b0d5b2daa8c22a1655839a1e0835555a9d0f99ffede9c50727447",
        "MLC3": "094f7b036624ee60dad95c3fa914ddc5e8b12518f846b3c8783c8678104390d0",
        "MLC4": "3f79b68eef6a3bad673cef7fb06018cbda7373a71b7a0d4331ce8acd000a3687",
    }

    @pytest.mark.parametrize("ways", WAYS)
    @pytest.mark.parametrize("cell_name", CELLS)
    def test_noiseless_fused_equals_per_row_bitwise(self, cell_name, ways):
        x = _probe(cell_name)
        layer = _deployed_layer(cell_name, noisy=False, ways=ways)
        fused = _fused_forward(layer, x)
        per_row = _per_row_forward(layer, x)
        np.testing.assert_array_equal(fused, per_row)
        digest = hashlib.sha256(np.ascontiguousarray(fused).tobytes()).hexdigest()
        assert digest == self.GOLDEN_FUSED_SHA256[cell_name]

    @pytest.mark.parametrize("ways", WAYS)
    @pytest.mark.parametrize("cell_name", CELLS)
    def test_noisy_fused_equals_per_row_bitwise(self, cell_name, ways):
        """Calibrated noise draws are seed-deterministic, shared by both
        dispatches, and every analog sum is an exact float64 sum of stored
        cells, so batching the rows changes no bit."""
        x = _probe(cell_name)
        layer = _deployed_layer(cell_name, noisy=True, ways=ways)
        fused = _fused_forward(layer, x)
        per_row = _per_row_forward(layer, x)
        np.testing.assert_array_equal(fused, per_row)

    def test_fused_forward_is_deterministic(self):
        layer = _deployed_layer("MLC2", noisy=True, ways=2)
        x = _probe("MLC2")
        np.testing.assert_array_equal(
            _fused_forward(layer, x), _fused_forward(layer, x)
        )
