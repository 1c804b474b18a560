"""GemvStack: the fast kernel's column axis, bitwise against the spec.

A :class:`~repro.rram.kernels.GemvStack` member holds matrices that read
one input side by side along the outputs; :func:`fast_gemv` runs a whole
stack in one bit-serial pass per row tile.  Every constituent must stay
bitwise-equal to :func:`reference_gemv` on that matrix alone, outputs and
every compare=True :class:`GemvStats` field, with the ADC clipping each
column at its own constituent's full scale and saturations counted over
its own columns.  The stacked cells are cached against every constituent's
backend epoch.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.rram import (
    MLC2,
    SLC,
    CrossbarConfig,
    FaultModel,
    FaultySimBackend,
    GemvStack,
    GemvStats,
    KernelPolicy,
    ProgrammedMatrix,
    kernel_policy,
)
from repro.rram.cell import CELL_TYPES
from repro.rram.kernels import fast_gemv, reference_gemv, run_gemv_stack

#: SLC/MLC2 on the paper's arrays; 16 rows keep MLC3/MLC4 within a 7-bit
#: ADC; 4 rows saturate both SLC (full scale 3) and MLC2 (full scale 7).
CONFIGS = {
    "paper": CrossbarConfig(),
    "narrow": CrossbarConfig(rows=16, cols=32),
    "saturating": CrossbarConfig(rows=4, cols=32),
}


def _matrices(cells, outs, in_features, config, sigma, seed, backend=None):
    rng = np.random.default_rng(seed)
    return [
        ProgrammedMatrix(
            rng.integers(-128, 128, size=(out, in_features)),
            cell,
            noise_sigma=sigma,
            rng=rng,
            config=config,
            backend=backend,
        )
        for cell, out in zip(cells, outs)
    ]


def _inputs(seed, n, batch, in_features):
    return np.random.default_rng(seed).integers(-128, 128, size=(n, batch, in_features))


def _assert_matches_reference(stack, x):
    """Each constituent of ``stack`` equals reference_gemv on its own."""
    sinks = [GemvStats() for _ in stack.matrices]
    out = fast_gemv(stack, x, 8, sinks)
    starts = np.cumsum([0] + stack.widths)
    for k, matrix in enumerate(stack.matrices):
        i, j = divmod(k, stack.per_member)
        expected_stats = GemvStats()
        expected = reference_gemv(matrix, x[i, :, : matrix.in_features], 8, expected_stats)
        columns = out[i, :, starts[j] : starts[j + 1]]
        np.testing.assert_array_equal(columns[:, : matrix.out_features], expected)
        assert not columns[:, matrix.out_features :].any()  # padding stays 0
        assert sinks[k] == expected_stats
    return out, sinks


class TestColumnAxis:
    @pytest.mark.parametrize("mlc", ["MLC2", "MLC3", "MLC4"])
    @pytest.mark.parametrize("sigma", [0.0, 0.08])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_slc_beside_mlc_matches_reference(self, mlc, sigma, batch):
        config = CONFIGS["paper" if mlc == "MLC2" else "narrow"]
        seed = zlib.crc32(repr((mlc, sigma, batch)).encode())
        cells = [SLC, CELL_TYPES[mlc], SLC, CELL_TYPES[mlc]]
        stack = GemvStack([_matrices(cells, (3, 9, 1, 5), 70, config, sigma, seed)])
        _assert_matches_reference(stack, _inputs(seed, 1, batch, 70))

    @pytest.mark.parametrize("sigma", [0.0, 0.08])
    @pytest.mark.parametrize("batch", [1, 8, 40])
    def test_saturating_tiles_clip_each_column_at_its_own_full_scale(self, sigma, batch):
        """SLC columns clip at 3, MLC2 columns of the same tile at 7."""
        matrices = _matrices((SLC, MLC2), (6, 5), 13, CONFIGS["saturating"], sigma, 7)
        assert matrices[0].adc.full_scale != matrices[1].adc.full_scale
        _, sinks = _assert_matches_reference(GemvStack([matrices]), _inputs(3, 1, batch, 13))
        assert all(sink.saturated_conversions > 0 for sink in sinks)

    @pytest.mark.parametrize("sigma", [0.0, 0.08])
    def test_members_of_column_stacks(self, sigma):
        """Two members, each an SLC and an MLC2 matrix, with their own inputs."""
        config = CONFIGS["saturating"]
        members = [
            _matrices((SLC, MLC2), (4, 6), 10, config, sigma, seed) for seed in (1, 2)
        ]
        _assert_matches_reference(GemvStack(members), _inputs(5, 2, 6, 10))

    def test_lone_matrices_pad_to_the_widest(self):
        members = [
            _matrices((MLC2,), (out,), width, CONFIGS["narrow"], 0.05, seed)
            for seed, (out, width) in enumerate(((3, 20), (7, 33), (5, 9)))
        ]
        x = _inputs(9, 3, 4, 33)
        for i, (matrix,) in enumerate(members):
            x[i, :, matrix.in_features :] = 0
        _assert_matches_reference(GemvStack(members), x)

    def test_reference_policy_loops_the_constituents(self):
        matrices = _matrices((SLC, MLC2), (4, 6), 30, CONFIGS["paper"], 0.08, 4)
        stack = GemvStack([matrices])
        x = _inputs(2, 1, 5, 30)
        fast = run_gemv_stack(stack, x, 8, [GemvStats(), GemvStats()])
        spec_stats = [GemvStats(), GemvStats()]
        with kernel_policy(KernelPolicy(mode="reference")):
            spec = run_gemv_stack(stack, x, 8, spec_stats)
        np.testing.assert_array_equal(fast, spec)
        _, sinks = _assert_matches_reference(stack, x)
        assert sinks == spec_stats

    def test_rejects_misaligned_stacks(self):
        config = CONFIGS["paper"]
        wide, narrow = _matrices((SLC, SLC), (4, 4), 30, config, 0.0, 1)
        other_in = _matrices((SLC,), (4,), 20, config, 0.0, 2)[0]
        with pytest.raises(ValueError):
            GemvStack([(wide, other_in)])  # one member, two input widths
        with pytest.raises(ValueError):
            GemvStack([(wide,), (wide, narrow)])  # ragged members
        mlc = _matrices((MLC2,), (4,), 30, config, 0.0, 3)[0]
        with pytest.raises(ValueError):
            GemvStack([(wide,), (mlc,)])  # one slot, two cell types
        small = _matrices((SLC, SLC), (2, 4), 30, config, 0.0, 4)
        with pytest.raises(ValueError):
            GemvStack([(wide, narrow), small])  # multi-matrix members differ in width
        with pytest.raises(ValueError):
            GemvStack([])


class TestStackCache:
    def test_advance_and_reprogram_rebuild_the_stacked_cells(self):
        fault = FaultModel(drift_nu=0.1, temperature_c=60.0, temp_sigma_per_c=0.002)
        backend = FaultySimBackend(fault, seed=5)
        matrices = _matrices((SLC, MLC2), (5, 8), 70, CONFIGS["paper"], 0.05, 6, backend)
        stack = GemvStack([matrices])
        x = _inputs(1, 1, 8, 70)
        before, _ = _assert_matches_reference(stack, x)
        cells = stack.plan()[-1]
        assert stack.plan()[-1] is cells  # cached within an epoch
        backend.advance(seconds=30 * 86_400.0)
        drifted, _ = _assert_matches_reference(stack, x)
        assert not np.array_equal(before, drifted)
        matrices[1].reprogram()
        _assert_matches_reference(stack, x)
        assert stack.plan()[-1] is not cells
