"""Batched bit-serial GEMV: one call per batch ≡ one call per row.

The batched-decode contract: pushing a whole live batch through
:func:`~repro.rram.kernels.fast_gemv` in one call (one BLAS matmul per row
tile over every kept bit-plane of every row) is **bitwise-equal** to
calling it row by row — noiseless and under programming noise, because
every analog sum is an exact float64 sum of stored cell values.  The
``"gemm"`` policy mode is a legacy alias of the same kernel.  Noiseless
batched traces are additionally pinned by sha256 so the batched data path
cannot drift silently.

Also covered: the bit-plane pack counter and the all-zero bit-plane skip.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest

from repro.rram import (
    CrossbarConfig,
    GemvStats,
    KernelPolicy,
    ProgrammedMatrix,
    kernel_policy,
)
from repro.rram.cell import CELL_TYPES
from repro.rram.kernels import GemvStack, reference_gemv
from repro.rram.kernels import fast_gemv as stacked_fast_gemv

CELLS = ["SLC", "MLC2", "MLC3", "MLC4"]
#: (batch, in_features, out_features): single tile, tile-spanning, ragged.
SHAPES = [(1, 16, 4), (5, 70, 33), (3, 200, 7)]


def fast_gemv(matrix, inputs, input_bits, stats=None):
    """One matrix through the stacked fast kernel, as a one-member stack."""
    return stacked_fast_gemv(GemvStack([(matrix,)]), inputs[None], input_bits, (stats,))[0]


def _config_for(cell_name: str) -> CrossbarConfig:
    # >2-bit cells need small tiles to stay inside a 7-bit ADC range, and
    # small tiles also put the noiseless pipeline OUTSIDE the saturation-free
    # shortcut — the bit-serial path is exercised for real.
    if CELL_TYPES[cell_name].bits > 2:
        return CrossbarConfig(rows=16, cols=32)
    return CrossbarConfig()


def _data(cell_name: str, shape, sigma: float, low: int = -128, high: int = 128):
    seed = zlib.crc32(repr((cell_name, shape, sigma, low, high)).encode())
    rng = np.random.default_rng(seed)
    batch, in_f, out_f = shape
    weights = rng.integers(-128, 128, size=(out_f, in_f))
    inputs = rng.integers(low, high, size=(batch, in_f))
    matrix = ProgrammedMatrix(
        weights,
        CELL_TYPES[cell_name],
        noise_sigma=sigma,
        rng=np.random.default_rng(seed + 1),
        config=_config_for(cell_name),
    )
    return matrix, inputs


class TestBatchedEquivalence:
    @pytest.mark.parametrize("cell_name", CELLS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sigma", [0.0, 0.08])
    def test_batched_call_matches_per_row_loop(self, cell_name, shape, sigma):
        """fast_gemv(batch) vs a per-row fast_gemv loop: bitwise, noisy too."""
        matrix, inputs = _data(cell_name, shape, sigma)
        batched = fast_gemv(matrix, inputs, 8)
        per_row = np.vstack(
            [fast_gemv(matrix, inputs[i : i + 1], 8) for i in range(shape[0])]
        )
        np.testing.assert_array_equal(batched, per_row)

    def test_gemm_alias_runs_the_fast_kernel(self):
        matrix, inputs = _data("MLC3", (3, 70, 9), 0.05)
        stats = GemvStats()
        with kernel_policy(KernelPolicy(mode="gemm")):
            via_policy = matrix.gemv(inputs, stats=stats)
        np.testing.assert_array_equal(via_policy, fast_gemv(matrix, inputs, 8))
        assert stats.fused_rows == 3

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            KernelPolicy(mode="fused")


#: sha256 of the noiseless batched int64 outputs — exact integers, so the
#: hash is platform-stable.  Any drift in the batched data path (packing,
#: float planes, ADC, shift-and-add) breaks these.
GOLDEN_FUSED_SHA256 = {
    "SLC": "f68e7c76a46b03fd09099ce84e548f80649bf5b9ee32301d603c59f505dc5401",
    "MLC2": "245636c824dc796e1814d4d0736adc755f5c2800c61993d8a424b075d3a2fb93",
    "MLC3": "32c8c1b41675f79740de077cda92e5b6493bc26993455c430163c3a826ece6f2",
    "MLC4": "79de385425c773c53e98d302a1dba5b29db932726ad0727e510150738888dd7a",
}


class TestGoldenTraces:
    @pytest.mark.parametrize("cell_name", CELLS)
    def test_pinned_noiseless_fused_trace(self, cell_name):
        matrix, inputs = _data(cell_name, (5, 70, 33), 0.0)
        batched = fast_gemv(matrix, inputs, 8)
        digest = hashlib.sha256(np.ascontiguousarray(batched).tobytes()).hexdigest()
        assert digest == GOLDEN_FUSED_SHA256[cell_name], (
            f"batched {cell_name} trace drifted: {digest}"
        )


class TestZeroPlaneSkip:
    def test_skips_counted_and_output_unchanged(self):
        matrix, _ = _data("MLC2", (3, 40, 16), 0.05)
        rng = np.random.default_rng(9)
        inputs = rng.integers(0, 4, size=(3, 40))  # bits 2..7 all-zero
        s_fast, s_ref = GemvStats(), GemvStats()
        out_fast = fast_gemv(matrix, inputs, 8, stats=s_fast)
        out_ref = reference_gemv(matrix, inputs, 8, stats=s_ref)
        np.testing.assert_array_equal(out_fast, out_ref)
        num_tiles = -(-40 // matrix.config.rows)
        assert s_fast.zero_planes_skipped == 6 * num_tiles
        assert s_ref.zero_planes_skipped == 0  # reference never skips

    def test_all_zero_inputs(self):
        matrix, _ = _data("MLC3", (2, 70, 9), 0.05)
        zeros = np.zeros((2, 70), dtype=np.int64)
        expected = reference_gemv(matrix, zeros, 8)
        stats = GemvStats()
        np.testing.assert_array_equal(fast_gemv(matrix, zeros, 8, stats=stats), expected)
        assert stats.zero_planes_skipped == 8 * -(-70 // matrix.config.rows)

    def test_hardware_counters_unaffected_by_skip(self):
        """Skipping a zero plane changes no hardware counter: the analytic
        counts and saturations agree with the skip-free reference."""
        matrix, _ = _data("MLC4", (2, 70, 9), 0.06)
        rng = np.random.default_rng(11)
        inputs = rng.integers(0, 8, size=(2, 70))
        s_fast, s_ref = GemvStats(), GemvStats()
        fast_gemv(matrix, inputs, 8, stats=s_fast)
        reference_gemv(matrix, inputs, 8, stats=s_ref)
        assert s_fast == s_ref  # compare=False hides only dispatch counters
        assert s_fast.zero_planes_skipped > 0


class TestPackCounters:
    def test_gemv_stats_carry_pack_counters(self):
        """Every call packs its own input planes, counted per call."""
        matrix, inputs = _data("MLC3", (2, 70, 9), 0.05)
        stats = GemvStats()
        fast_gemv(matrix, inputs, 8, stats=stats)
        fast_gemv(matrix, inputs, 8, stats=stats)
        assert stats.planes_packed == 16
        merged = GemvStats()
        merged.merge(stats)
        assert merged.planes_packed == 16
        assert merged.fused_rows == 4
