"""Tests for digital/analog PIM modules, the PU and the chip mapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pim import (
    AnalogModuleConfig,
    AnalogPimModule,
    ChipConfig,
    DigitalModuleConfig,
    DigitalPimModule,
    HyFlexPimChip,
    ProcessingUnit,
    ProcessingUnitConfig,
)
from repro.rram import MLC2, SLC
from repro.svd.pipeline import LayerPlan


def make_plan(name: str, rank: int, in_f: int, out_f: int, protect: int, rng) -> LayerPlan:
    mask = np.zeros(rank, dtype=bool)
    mask[:protect] = True
    return LayerPlan(
        name=name,
        a_matrix=rng.normal(size=(rank, in_f)),
        b_matrix=rng.normal(size=(out_f, rank)),
        bias=np.zeros(out_f),
        protected_ranks=mask,
        sigma_gradients=rng.random(rank),
    )


class TestDigitalModule:
    def test_capacity_math(self):
        cfg = DigitalModuleConfig()
        assert cfg.array_bytes == 128 * 1024  # 1024x1024 SLC = 128 KB
        assert cfg.capacity_bytes == 256 * 128 * 1024  # 32 MB per module

    def test_throughput_balance_matches_paper(self):
        """Section 3.1: 256x1024 / (64x3) / 5 ≈ 273 ops/cycle."""
        assert DigitalModuleConfig().throughput_ops_per_cycle == pytest.approx(273.07, abs=0.1)

    def test_matmul_is_exact(self, rng):
        module = DigitalPimModule()
        a = rng.integers(-128, 128, size=(6, 9))
        b = rng.integers(-128, 128, size=(9, 5))
        np.testing.assert_array_equal(module.matmul_int(a, b), a @ b)

    def test_matmul_counts_nor_ops(self, rng):
        module = DigitalPimModule()
        a = rng.integers(-128, 128, size=(4, 8))
        b = rng.integers(-128, 128, size=(8, 3))
        module.matmul_int(a, b)
        assert module.stats.int8_macs == 4 * 8 * 3
        assert module.stats.nor_ops == 4 * 8 * 3 * 64
        assert module.stats.compute_cycles >= 1
        assert module.stats.bytes_written == a.size + b.size

    def test_matmul_validates_range(self):
        module = DigitalPimModule()
        with pytest.raises(ValueError):
            module.matmul_int(np.array([[200]]), np.array([[1]]))

    def test_attention_helpers(self, rng):
        module = DigitalPimModule()
        q = rng.integers(-128, 128, size=(4, 8))
        k = rng.integers(-128, 128, size=(4, 8))
        scores = module.attention_scores(q, k)
        np.testing.assert_array_equal(scores, q @ k.T)

    def test_storage_overflow(self):
        module = DigitalPimModule(DigitalModuleConfig(num_arrays=1))
        with pytest.raises(MemoryError):
            module.write(module.config.capacity_bytes + 1)

    def test_sfu_integration_counts_cycles(self, rng):
        module = DigitalPimModule()
        module.softmax(rng.normal(size=(4, 300)))
        assert module.stats.sfu_cycles > 0


class TestAnalogModule:
    def test_place_reserves_arrays_by_shape(self):
        module = AnalogPimModule()
        module.place("w_q", 16, 64, SLC)
        assert module.arrays_used == 1
        assert module.arrays_free == 511

    def test_duplicate_name_rejected(self):
        module = AnalogPimModule()
        module.place("w", 4, 16, SLC)
        with pytest.raises(KeyError):
            module.place("w", 4, 16, SLC)

    def test_capacity_enforced(self):
        small = AnalogPimModule(AnalogModuleConfig(num_arrays=2))
        with pytest.raises(MemoryError, match="needs 8 arrays, 2 free of 2"):
            small.place("big", 128, 64, SLC)
        assert small.arrays_used == 0

    def test_mlc_fits_where_slc_does_not(self):
        slc_module = AnalogPimModule(AnalogModuleConfig(num_arrays=4))
        with pytest.raises(MemoryError):
            slc_module.place("w", 128, 64, SLC)  # needs 8
        mlc_module = AnalogPimModule(AnalogModuleConfig(num_arrays=4))
        mlc_module.place("w", 128, 64, MLC2)  # needs 4
        assert mlc_module.arrays_used == 4

    def test_utilization(self):
        module = AnalogPimModule(AnalogModuleConfig(num_arrays=8))
        module.place("w", 16, 64, SLC)
        assert module.utilization() == pytest.approx(1 / 8)


class TestProcessingUnit:
    def test_config_matches_paper(self):
        cfg = ProcessingUnitConfig()
        assert cfg.num_analog_modules == 24
        assert cfg.num_digital_modules == 8
        assert cfg.num_analog_modules * cfg.analog.num_arrays == 24 * 512
        assert cfg.digital_capacity_bytes == 8 * 32 * 1024 * 1024

    def test_place_layer_fragments(self, rng):
        pu = ProcessingUnit()
        plan = make_plan("blocks.0.w_q", rank=16, in_f=64, out_f=64, protect=4, rng=rng)
        pu.place_layer(plan)
        fragments = {p.fragment for p in pu.placements}
        assert fragments == {"A/slc", "A/mlc", "B/slc", "B/mlc"}
        assert pu.arrays_used() > 0

    def test_zero_protection_skips_slc_fragments(self, rng):
        pu = ProcessingUnit()
        plan = make_plan("blocks.0.ffn1", rank=16, in_f=64, out_f=64, protect=0, rng=rng)
        pu.place_layer(plan)
        fragments = {p.fragment for p in pu.placements}
        assert fragments == {"A/mlc", "B/mlc"}

    def test_can_fit_layer(self, rng):
        tiny_cfg = ProcessingUnitConfig(
            num_analog_modules=1,
            analog=AnalogModuleConfig(num_arrays=8),
        )
        pu = ProcessingUnit(tiny_cfg)
        small = make_plan("blocks.0.w_q", rank=8, in_f=32, out_f=16, protect=2, rng=rng)
        big = make_plan("blocks.0.ffn1", rank=256, in_f=1024, out_f=1024, protect=32, rng=rng)
        assert pu.can_fit_layer(small)
        assert not pu.can_fit_layer(big)

    @pytest.mark.parametrize(
        ("cell_name", "rows", "bits"), [("MLC3", 64, 8), ("MLC4", 64, 9), ("MLC4", 32, 8)]
    )
    def test_rejects_cells_the_adc_cannot_resolve(self, rng, cell_name, rows, bits):
        """Placement needs ceil(log2 rows) + w - 1 ADC bits; the SAR ADC has 7."""
        from repro.rram import CELL_TYPES, CrossbarConfig

        pu = ProcessingUnit(
            ProcessingUnitConfig(analog=AnalogModuleConfig(array=CrossbarConfig(rows=rows)))
        )
        plan = make_plan("blocks.1.ffn2", rank=8, in_f=32, out_f=16, protect=2, rng=rng)
        message = (
            f"layer 'blocks.1.ffn2': {cell_name} cells on {rows}-row arrays need "
            f"{bits} ADC bits; the SAR ADC resolves at most 7"
        )
        for check in (pu.can_fit_layer, pu.place_layer):
            with pytest.raises(ValueError) as caught:
                check(plan, CELL_TYPES[cell_name])
            assert str(caught.value) == message
        assert pu.placements == [] and pu.arrays_used() == 0

    @pytest.mark.parametrize(("cell_name", "rows"), [("MLC3", 32), ("MLC4", 16)])
    def test_accepts_cells_at_the_adc_limit(self, rng, cell_name, rows):
        from repro.rram import CELL_TYPES, CrossbarConfig

        pu = ProcessingUnit(
            ProcessingUnitConfig(analog=AnalogModuleConfig(array=CrossbarConfig(rows=rows)))
        )
        plan = make_plan("blocks.1.ffn2", rank=8, in_f=32, out_f=16, protect=2, rng=rng)
        assert pu.can_fit_layer(plan, CELL_TYPES[cell_name])
        pu.place_layer(plan, CELL_TYPES[cell_name])
        assert {p.cell for p in pu.placements} == {"SLC", cell_name}

    def test_spills_to_next_module(self, rng):
        cfg = ProcessingUnitConfig(
            num_analog_modules=4, analog=AnalogModuleConfig(num_arrays=2)
        )
        pu = ProcessingUnit(cfg)
        plan = make_plan("blocks.0.w_q", rank=16, in_f=64, out_f=64, protect=8, rng=rng)
        pu.place_layer(plan)
        modules_hit = {p.module_index for p in pu.placements}
        assert len(modules_hit) > 1  # fragments spread over modules

    def test_unplaceable_chunk_message(self):
        """Output chunks of 3-bit cells round up per array, so a layer that
        fits the PU in total can still run out mid-fragment."""
        from repro.rram import MLC3, CrossbarConfig

        cfg = ProcessingUnitConfig(
            num_analog_modules=2,
            analog=AnalogModuleConfig(num_arrays=2, array=CrossbarConfig(rows=32)),
        )
        pu = ProcessingUnit(cfg)
        plan = make_plan(
            "blocks.0.ffn1", rank=16, in_f=32, out_f=128, protect=0, rng=np.random.default_rng(0)
        )
        assert pu.can_fit_layer(plan, MLC3)
        with pytest.raises(MemoryError) as caught:
            pu.place_layer(plan, MLC3)
        assert str(caught.value) == (
            "PU cannot place blocks.0.ffn1/B/mlc/outs126: needs 1 arrays, "
            "free per module: [0, 0]"
        )
        assert [(p.fragment, p.module_index, p.arrays) for p in pu.placements] == [
            ("A/mlc", 0, 1),
            ("B/mlc/outs0", 0, 1),
            ("B/mlc/outs42", 1, 1),
            ("B/mlc/outs84", 1, 1),
        ]

    def test_store_dynamic_spreads_over_digital_modules(self):
        cfg = ProcessingUnitConfig(
            num_digital_modules=2,
            digital=DigitalModuleConfig(num_arrays=1),
        )
        pu = ProcessingUnit(cfg)
        per_module = cfg.digital.capacity_bytes
        pu.store_dynamic(per_module + 10)
        assert pu.digital_modules[0].free_bytes == 0
        assert pu.digital_modules[1].free_bytes == per_module - 10
        with pytest.raises(MemoryError):
            pu.store_dynamic(per_module)


class TestChip:
    def test_config_matches_paper(self):
        cfg = ChipConfig()
        assert cfg.num_processing_units == 24
        assert cfg.global_bus_gbps == 128.0
        assert cfg.inner_bus_gbps == 1000.0

    def test_deploys_one_block_per_pu(self, rng):
        from repro.svd.pipeline import RedistributionPlan
        from repro.svd.finetune import FinetuneResult

        layers = {}
        for block in range(3):
            for leaf in ("w_q", "ffn1"):
                name = f"blocks.{block}.{leaf}"
                layers[name] = make_plan(name, rank=16, in_f=64, out_f=64, protect=4, rng=rng)
        plan = RedistributionPlan(
            layers=layers,
            finetune_result=FinetuneResult([0.0], {}, 0),
            protect_fraction=0.25,
            policy="gradient",
        )
        chip = HyFlexPimChip()
        assignments = chip.deploy(plan)
        assert len(assignments) == 3
        # Pipelined blocks occupy consecutive distinct PUs.
        all_pus = [i for a in assignments for i in a.pu_indices]
        assert len(set(all_pus)) == len(all_pus)
        assert len(set(all_pus)) == 3
        pu = chip.config.pu
        total = chip.config.num_processing_units * pu.num_analog_modules * pu.analog.num_arrays
        assert 0 < chip.arrays_used() < total

    def test_rejects_unexpected_layer_names(self, rng):
        from repro.svd.pipeline import RedistributionPlan
        from repro.svd.finetune import FinetuneResult

        plan = RedistributionPlan(
            layers={"head": make_plan("head", 4, 8, 8, 1, rng)},
            finetune_result=FinetuneResult([0.0], {}, 0),
            protect_fraction=0.25,
            policy="gradient",
        )
        with pytest.raises(ValueError):
            HyFlexPimChip().deploy(plan)
