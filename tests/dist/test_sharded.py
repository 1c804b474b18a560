"""Sharded-execution correctness: the ISSUE-5 equivalence grid.

The contract: a tensor-parallel deployment of a crossbar-mode
``HybridLinear`` is **bitwise-equal** to the unsharded fast-kernel forward
whenever the deployment is noiseless and either (a) saturation-free — the
exact-short-circuit regime, SLC/MLC2 on the default 64x128 arrays — or
(b) tile-aligned: :func:`~repro.rram.mapping.partition_rank` places shard
boundaries on whole array row tiles whenever enough tiles exist, and the
protected-rank prefix also ends on a tile boundary (the SLC/MLC placement
compacts protected columns before tiling), so every ADC conversion sums
exactly the rows it sums unsharded and equality survives even where
MLC3/MLC4 bitlines clip (a mid-array split would legitimately move
tile-local clipping — hardware never splits an array's wordlines, and
neither does the planner when it can avoid it).

Under calibrated programming noise the sharded forward is deterministic
(per-shard seeded draws) and statistically close; a 1-way deployment
reproduces the unsharded noise draws bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DeviceMesh
from repro.pim.hybrid import HybridLinear
from repro.rram.cell import CELL_TYPES
from repro.rram.crossbar import CrossbarConfig
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec
from repro.svd.pipeline import LayerPlan

WAYS = (1, 2, 4, 8)

#: Per-cell crossbar geometry.  SLC/MLC2 run the paper's 64x128 arrays
#: (noiseless => saturation-free => the exact short-circuit); MLC3/MLC4
#: use 4-row arrays so a 32-rank layer has 8 row tiles and every shard
#: width in WAYS is tile-aligned (see module docstring).
CELL_CONFIGS = {
    "SLC": CrossbarConfig(),
    "MLC2": CrossbarConfig(),
    "MLC3": CrossbarConfig(rows=4, cols=32),
    "MLC4": CrossbarConfig(rows=4, cols=32),
}
#: MLC3/MLC4 also tile-align the *protected region* (8 = two 4-row tiles):
#: the SLC/MLC placement compacts protected and unprotected columns into
#: separate matrices, so rank-space tile alignment only survives the
#: compaction when the protected prefix ends on a tile boundary.
CELL_RANKS = {"SLC": 24, "MLC2": 24, "MLC3": 32, "MLC4": 32}
CELL_PROTECTED = {"SLC": 6, "MLC2": 6, "MLC3": 8, "MLC4": 8}


def make_layer_plan(rng, out_f=48, in_f=40, rank=24, protected=6):
    mask = np.zeros(rank, dtype=bool)
    mask[:protected] = True
    return LayerPlan(
        name="blocks.0.test",
        a_matrix=rng.normal(size=(rank, in_f)) / np.sqrt(in_f),
        b_matrix=rng.normal(size=(out_f, rank)) / np.sqrt(rank),
        bias=rng.normal(size=out_f),
        protected_ranks=mask,
        sigma_gradients=rng.random(rank),
    )


class TestBitwiseEquivalenceGrid:
    @pytest.mark.parametrize("cell_name", ["SLC", "MLC2", "MLC3", "MLC4"])
    @pytest.mark.parametrize("ways", WAYS)
    def test_noiseless_sharded_equals_unsharded_fast_kernel(self, rng, cell_name, ways):
        plan = make_layer_plan(
            rng, rank=CELL_RANKS[cell_name], protected=CELL_PROTECTED[cell_name]
        )
        x = rng.normal(size=(5, 40))
        kwargs = dict(
            noise=NoiseSpec.noiseless(),
            mode="crossbar",
            mlc_cell=CELL_TYPES[cell_name],
            config=CELL_CONFIGS[cell_name],
            seed=3,
        )
        baseline = HybridLinear(plan, **kwargs)
        reference = baseline.forward(x).data

        sharded = HybridLinear(plan, **kwargs)
        mesh = DeviceMesh()
        sharded.deploy(mesh, tensor_parallel=ways)
        np.testing.assert_array_equal(sharded.forward(x).data, reference)
        # Every mapped shard knows its slice of the logical rank dimension.
        if ways > 1:
            specs = [s.shard for s in sharded._splits]
            assert all(spec is not None for spec in specs)
            assert [spec.index for spec in specs] == list(range(len(specs)))
            assert specs[0].start == 0
            assert specs[-1].stop == plan.rank

    @pytest.mark.parametrize("ways", (2, 4))
    def test_batched_3d_input_matches(self, rng, ways):
        plan = make_layer_plan(rng)
        x = rng.normal(size=(2, 3, 40))
        kwargs = dict(noise=NoiseSpec.noiseless(), mode="crossbar", seed=1)
        reference = HybridLinear(plan, **kwargs).forward(x).data
        sharded = HybridLinear(plan, **kwargs)
        sharded.deploy(DeviceMesh(), tensor_parallel=ways)
        np.testing.assert_array_equal(sharded.forward(x).data, reference)

    def test_all_protected_and_none_protected_edges(self, rng):
        for protected in (0, 24):
            plan = make_layer_plan(rng, protected=protected)
            x = rng.normal(size=(4, 40))
            kwargs = dict(noise=NoiseSpec.noiseless(), mode="crossbar", seed=2)
            reference = HybridLinear(plan, **kwargs).forward(x).data
            sharded = HybridLinear(plan, **kwargs)
            sharded.deploy(DeviceMesh(), tensor_parallel=4)
            np.testing.assert_array_equal(sharded.forward(x).data, reference)

    def test_calibrated_scales_preserved_across_sharding(self, rng):
        """Frozen activation scales must flow through the sharded forward."""
        plan = make_layer_plan(rng)
        x = rng.normal(size=(4, 40))
        kwargs = dict(noise=NoiseSpec.noiseless(), mode="crossbar", seed=5)

        def calibrated(layer):
            layer.begin_calibration()
            layer.forward(x)
            layer.finish_calibration()
            return layer

        baseline = calibrated(HybridLinear(plan, **kwargs))
        sharded = HybridLinear(plan, **kwargs)
        sharded.deploy(DeviceMesh(), tensor_parallel=4)
        calibrated(sharded)
        assert sharded.is_calibrated
        np.testing.assert_array_equal(sharded.forward(x).data, baseline.forward(x).data)


class TestNoisyDeployment:
    def test_one_way_reproduces_unsharded_noise_bitwise(self, rng):
        plan = make_layer_plan(rng)
        x = rng.normal(size=(5, 40))
        kwargs = dict(noise=DEFAULT_NOISE, mode="crossbar", seed=3)
        reference = HybridLinear(plan, **kwargs).forward(x).data
        sharded = HybridLinear(plan, **kwargs)
        sharded.deploy(DeviceMesh(), tensor_parallel=1)
        np.testing.assert_array_equal(sharded.forward(x).data, reference)

    @pytest.mark.parametrize("ways", (2, 4, 8))
    def test_noisy_sharding_is_deterministic_and_close(self, rng, ways):
        plan = make_layer_plan(rng)
        x = rng.normal(size=(5, 40))
        kwargs = dict(noise=DEFAULT_NOISE, mode="crossbar", seed=3)
        reference = HybridLinear(plan, **kwargs).forward(x).data

        def run():
            layer = HybridLinear(plan, **kwargs)
            layer.deploy(DeviceMesh(), tensor_parallel=ways)
            return layer.forward(x).data

        first, second = run(), run()
        # Per-shard seeded draws: reproducible across deployments...
        np.testing.assert_array_equal(first, second)
        # ...and statistically close to the unsharded noisy forward: the
        # draws differ but the calibrated-noise distribution does not, so
        # the relative deviation stays at the noise scale (MLC2's
        # BER-calibrated sigma puts independent draws of this layer ~0.5
        # apart in relative Frobenius norm; 0.8 bounds that with margin
        # while still failing on any structural error).
        rel = np.linalg.norm(first - reference) / np.linalg.norm(reference)
        assert rel < 0.8, rel


class TestFastModeSharding:
    @pytest.mark.parametrize("ways", WAYS)
    def test_fast_mode_allclose(self, rng, ways):
        plan = make_layer_plan(rng)
        x = rng.normal(size=(5, 40))
        layer = HybridLinear(plan, mode="fast", seed=7)
        reference = layer.forward(x).data.copy()
        layer.deploy(DeviceMesh(), tensor_parallel=ways)
        got = layer.forward(x).data
        if ways == 1:
            # The constructed layer already is the 1-way plan.
            np.testing.assert_array_equal(got, reference)
        # Same noised factors, partial sums recombined additively — equal
        # up to float summation order.
        np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-12)


class TestDeployLifecycle:
    def test_deploy_validation(self, rng):
        plan = make_layer_plan(rng)
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        mesh = DeviceMesh()
        with pytest.raises(ValueError):
            layer.deploy(mesh, rank_slices=[])
        with pytest.raises(ValueError):
            layer.deploy(mesh, rank_slices=[(0, 10)])  # does not cover rank
        with pytest.raises(ValueError):
            layer.deploy(mesh, rank_slices=[(0, 10), (12, 24)])  # gap
        with pytest.raises(ValueError):
            layer.deploy(mesh, rank_slices=[(0, 10), (10, 10), (10, 24)])  # empty

    @pytest.mark.parametrize("mode", ["fast", "crossbar"])
    def test_one_way_redeploy_restores_unsharded_forward(self, rng, mode):
        plan = make_layer_plan(rng)
        x = rng.normal(size=(3, 40))
        kwargs = dict(noise=DEFAULT_NOISE, mode=mode, seed=3)
        reference = HybridLinear(plan, **kwargs).forward(x).data
        layer = HybridLinear(plan, **kwargs)
        layer.deploy(DeviceMesh(), tensor_parallel=4)
        assert layer.num_shards > 1
        # Going back to one shard re-deploys the plan the layer was built
        # with, noise draws included.
        layer.deploy(DeviceMesh(), tensor_parallel=1)
        assert layer.num_shards == 1
        np.testing.assert_array_equal(layer.forward(x).data, reference)

    def test_arrays_used_recomputed_per_shard_tiling(self, rng):
        plan = make_layer_plan(rng)
        kwargs = dict(noise=NoiseSpec.noiseless(), mode="crossbar")
        layer = HybridLinear(plan, **kwargs)
        unsharded = layer.arrays_used()
        layer.deploy(DeviceMesh(), tensor_parallel=8)
        assert layer.arrays_used() >= unsharded  # per-shard tiling rounds up

        # A fresh layer is its own 1-way plan: deploying that plan
        # explicitly changes neither the footprint nor the tile layout.
        fresh = HybridLinear(plan, **kwargs)
        one_way = HybridLinear(plan, **kwargs)
        one_way.deploy(DeviceMesh(), tensor_parallel=1)
        assert fresh.arrays_used() == one_way.arrays_used() == unsharded
        assert len(fresh.shard_stats()) == len(one_way.shard_stats()) == 1

        def tiles(report):
            return {name: entry["tiles"] for name, entry in report["members"].items()}

        assert tiles(fresh.wear_report()) == tiles(one_way.wear_report())
        assert tiles(fresh.wear_report())

    def test_fast_mode_arrays_used_matches_crossbar(self, rng):
        plan = make_layer_plan(rng)
        fast = HybridLinear(plan, mode="fast")
        crossbar = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        for ways in (2, 4):
            fast.deploy(DeviceMesh(), tensor_parallel=ways)
            crossbar.deploy(DeviceMesh(), tensor_parallel=ways)
            assert fast.arrays_used() == crossbar.arrays_used()


class TestShardStatsAndTraffic:
    def test_per_shard_stats_and_merged_total(self, rng):
        plan = make_layer_plan(rng)
        x = rng.normal(size=(4, 40))
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        layer.deploy(DeviceMesh(), tensor_parallel=4)
        layer.forward(x)
        per_shard = layer.shard_stats()
        assert len(per_shard) == 4
        assert all(s.adc_conversions > 0 for s in per_shard)
        assert sum(s.adc_conversions for s in per_shard) == (
            layer.merged_stats().adc_conversions
        )
        layer.reset_stats()
        assert layer.merged_stats().adc_conversions == 0

    def test_sharded_forward_records_oci_traffic(self, rng):
        plan = make_layer_plan(rng)
        x = rng.normal(size=(4, 40))
        mesh = DeviceMesh()
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        layer.deploy(mesh, tensor_parallel=4)
        layer.forward(x)
        ledger = mesh.traffic["oci"]
        # 3 non-aggregating shards x batch x out_features x 4 B partial sums
        # + 3 x 8 B scale sync (uncalibrated per-call quantization).
        assert ledger.num_bytes == pytest.approx(3 * 4 * 48 * 4 + 3 * 8)
        assert mesh.traffic["pcie6"].num_bytes == 0.0

    def test_one_way_records_no_traffic(self, rng):
        plan = make_layer_plan(rng)
        mesh = DeviceMesh()
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        layer.deploy(mesh, tensor_parallel=1)
        layer.forward(rng.normal(size=(4, 40)))
        assert mesh.transfer_seconds() == 0.0
