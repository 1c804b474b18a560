"""One footprint formula: ``rank_fragments`` sizes every hybrid layer's arrays.

The fragments :func:`~repro.rram.mapping.rank_fragments` lists for a rank
slice, summed through :func:`~repro.rram.mapping.array_footprint`, must
equal what :func:`~repro.rram.mapping.split_by_rank` actually programs,
what :meth:`HybridLinear.arrays_used` reports in both modes, and what
:meth:`ProcessingUnit.place_layer` reserves; ``can_fit_layer`` must accept
a layer exactly when that footprint fits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import DeviceMesh, shard_layer_plan
from repro.pim import AnalogModuleConfig, HybridLinear, ProcessingUnit, ProcessingUnitConfig
from repro.quant.quantizer import quantize
from repro.rram import MLC2, MLC3, MLC4, SLC, CrossbarConfig
from repro.rram.backend import SimBackend
from repro.rram.mapping import array_footprint, partition_rank, rank_fragments, split_by_rank
from repro.rram.noise import NoiseSpec
from repro.svd.pipeline import LayerPlan

#: Array heights whose bitline sums each cell's ADC can still resolve.
ROWS_FOR_CELL = {MLC2: (16, 32, 64), MLC3: (16, 32), MLC4: (16,)}


@st.composite
def layer_cases(draw):
    """A factored layer, its array geometry and a 1/2/4-way rank partition."""
    rank = draw(st.integers(1, 40))
    in_f = draw(st.integers(1, 150))
    out_f = draw(st.integers(1, 150))
    kind = draw(st.sampled_from(["none", "all", "mixed"]))
    if kind == "mixed":
        protected = np.array(draw(st.lists(st.booleans(), min_size=rank, max_size=rank)))
    else:
        protected = np.full(rank, kind == "all")
    mlc_cell = draw(st.sampled_from([MLC2, MLC3, MLC4]))
    config = CrossbarConfig(
        rows=draw(st.sampled_from(ROWS_FOR_CELL[mlc_cell])),
        cols=draw(st.sampled_from([64, 128])),
    )
    parts = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    plan = LayerPlan(
        name="blocks.0.w",
        a_matrix=rng.normal(size=(rank, in_f)),
        b_matrix=rng.normal(size=(out_f, rank)),
        bias=None,
        protected_ranks=protected,
        sigma_gradients=np.zeros(rank),
    )
    return plan, mlc_cell, config, partition_rank(rank, parts, tile=config.rows)


def footprint(protected, in_f, out_f, mlc_cell, config):
    return sum(
        array_footprint(o, i, cell, config)
        for _, o, i, cell in rank_fragments(protected, in_f, out_f, mlc_cell)
    )


def one_module_pu(num_arrays, config):
    return ProcessingUnit(
        ProcessingUnitConfig(
            num_analog_modules=1,
            analog=AnalogModuleConfig(num_arrays=num_arrays, array=config),
        )
    )


class TestOneFootprintFormula:
    @settings(max_examples=40, deadline=None)
    @given(layer_cases())
    def test_every_caller_agrees(self, case):
        plan, mlc_cell, config, slices = case
        in_f, out_f = plan.a_matrix.shape[1], plan.b_matrix.shape[0]
        a_codes, _ = quantize(plan.a_matrix, num_bits=8)
        b_codes, _ = quantize(plan.b_matrix, num_bits=8)
        backend = SimBackend()
        total = 0
        for index, (start, stop) in enumerate(slices):
            local = plan.protected_ranks[start:stop]
            expected = footprint(local, in_f, out_f, mlc_cell, config)
            programmed = split_by_rank(
                a_codes, b_codes, plan.protected_ranks,
                noise=NoiseSpec.noiseless(), config=config, mlc_cell=mlc_cell,
                rank_range=(start, stop), shard_index=index, num_shards=len(slices),
                backend=backend,
            )
            assert programmed.arrays_used == expected

            shard = shard_layer_plan(plan, start, stop)
            pu = one_module_pu(10_000, config)
            pu.place_layer(shard, mlc_cell)
            assert pu.arrays_used() == expected
            assert one_module_pu(expected, config).can_fit_layer(shard, mlc_cell)
            assert not one_module_pu(expected - 1, config).can_fit_layer(shard, mlc_cell)
            total += expected

        for mode in ("fast", "crossbar"):
            layer = HybridLinear(
                plan, noise=NoiseSpec.noiseless(), mode=mode, mlc_cell=mlc_cell,
                config=config, backend=backend,
            )
            layer.deploy(DeviceMesh(), rank_slices=slices)
            assert layer.arrays_used() == total

    def test_fragments_in_order_and_empty_ones_left_out(self):
        protected = np.array([True, False, False])
        assert rank_fragments(protected, 5, 7, MLC3) == [
            ("A/slc", 1, 5, SLC),
            ("A/mlc", 2, 5, MLC3),
            ("B/slc", 7, 1, SLC),
            ("B/mlc", 7, 2, MLC3),
        ]
        assert [f[0] for f in rank_fragments(np.zeros(4, dtype=bool), 5, 7)] == [
            "A/mlc",
            "B/mlc",
        ]
        assert [f[0] for f in rank_fragments(np.ones(4, dtype=bool), 5, 7)] == [
            "A/slc",
            "B/slc",
        ]
