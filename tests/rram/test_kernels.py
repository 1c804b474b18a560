"""Kernel-engine tests: fast/reference bitwise equivalence, policy plumbing.

The fast kernel is only allowed to exist because it is *indistinguishable*
from the reference pipeline: the grids below check bitwise-equal outputs and
identical :class:`GemvStats` over every cell type, noise level, batch size
and tile-spanning shape, including the noiseless shortcut and its saturation
fallback, saturating inputs and the zero-plane skip.  The fast kernel's
cached float64 cells are checked to follow every way the programmed cells
can change (clock advance, re-program, dynamic append and truncate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram import (
    CELL_TYPES,
    CrossbarConfig,
    DEFAULT_NOISE,
    GemvStats,
    KernelPolicy,
    MLC2,
    ProgrammedMatrix,
    SLC,
    bit_serial_gemv,
    get_default_kernel_policy,
    kernel_policy,
    set_default_kernel_policy,
)

REFERENCE = KernelPolicy(mode="reference")
FAST = KernelPolicy(mode="fast")

# Odd shapes spanning multiple row and column tiles: (batch, in, out).
SHAPES = [(1, 16, 4), (5, 70, 33), (3, 200, 7), (2, 129, 65)]


def _config_for(cell_name: str) -> CrossbarConfig:
    """3-/4-bit cells need fewer rows to fit the 7-bit physical SAR ADC."""
    if CELL_TYPES[cell_name].bits <= 2:
        return CrossbarConfig()
    return CrossbarConfig(rows=16, cols=32)


class TestFastReferenceEquivalence:
    @pytest.mark.parametrize("cell_name", sorted(CELL_TYPES))
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "calibrated"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_bitwise_equal_with_identical_stats(self, cell_name, noisy, shape):
        cell = CELL_TYPES[cell_name]
        sigma = DEFAULT_NOISE.sigma(cell) if noisy else 0.0
        batch, in_f, out_f = shape
        import zlib

        data_rng = np.random.default_rng(zlib.crc32(repr((cell_name, noisy, shape)).encode()))
        x = data_rng.integers(-128, 128, size=(batch, in_f))
        w = data_rng.integers(-128, 128, size=(out_f, in_f))
        matrix = ProgrammedMatrix(
            w,
            cell,
            noise_sigma=sigma,
            rng=np.random.default_rng(7),
            config=_config_for(cell_name),
        )
        ref_stats, fast_stats = GemvStats(), GemvStats()
        ref = matrix.gemv(x, stats=ref_stats, policy=REFERENCE)
        fast = matrix.gemv(x, stats=fast_stats, policy=FAST)
        np.testing.assert_array_equal(ref, fast)
        assert ref_stats == fast_stats

    def test_noiseless_shortcut_is_exact(self, rng):
        x = rng.integers(-128, 128, size=(6, 100))
        w = rng.integers(-128, 128, size=(12, 100))
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0)
        assert matrix.saturation_free  # random SLC columns stay below full scale
        np.testing.assert_array_equal(matrix.gemv(x, policy=FAST), x @ w.T)

    def test_saturating_matrix_falls_back_and_still_matches_reference(self):
        """All-max weights drive bitlines to full scale: the shortcut must
        not engage, and the general fast path must track the reference's
        clipping exactly (including the saturated-conversion count)."""
        w = np.full((4, 64), 127, dtype=np.int64)
        x = np.full((2, 64), 127, dtype=np.int64)
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0)
        assert not matrix.saturation_free
        ref_stats, fast_stats = GemvStats(), GemvStats()
        ref = matrix.gemv(x, stats=ref_stats, policy=REFERENCE)
        fast = matrix.gemv(x, stats=fast_stats, policy=FAST)
        np.testing.assert_array_equal(ref, fast)
        assert ref_stats == fast_stats
        assert fast_stats.saturated_conversions > 0

    def test_one_shot_wrapper_accepts_policy(self, rng):
        x = rng.integers(-128, 128, size=(2, 32))
        w = rng.integers(-128, 128, size=(5, 32))
        a = bit_serial_gemv(x, w, MLC2, 0.05, rng=np.random.default_rng(3), policy=REFERENCE)
        b = bit_serial_gemv(x, w, MLC2, 0.05, rng=np.random.default_rng(3), policy=FAST)
        np.testing.assert_array_equal(a, b)


class TestKernelPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelPolicy(mode="einsum")
        with pytest.raises(ValueError):
            KernelPolicy(compute_dtype="float16")

    def test_default_policy_roundtrip(self):
        original = get_default_kernel_policy()
        previous = set_default_kernel_policy(KernelPolicy(mode="reference"))
        try:
            assert previous == original
            assert get_default_kernel_policy().mode == "reference"
        finally:
            set_default_kernel_policy(original)

    def test_context_manager_restores(self):
        original = get_default_kernel_policy()
        with kernel_policy(KernelPolicy(mode="reference", compute_dtype="float64")):
            assert get_default_kernel_policy().compute_dtype == "float64"
        assert get_default_kernel_policy() == original

    def test_matrix_level_policy_wins_over_default(self, rng):
        x = rng.integers(-128, 128, size=(2, 16))
        w = rng.integers(-128, 128, size=(3, 16))
        matrix = ProgrammedMatrix(w, SLC, policy=REFERENCE)
        # Dispatch must not blow up and must match the fast default result.
        np.testing.assert_array_equal(matrix.gemv(x), matrix.gemv(x, policy=FAST))


class TestProgrammedMemoryLayout:
    def test_noiseless_keeps_single_integer_copy(self, rng):
        w = rng.integers(-128, 128, size=(4, 16))
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0)
        assert matrix.is_noiseless
        assert matrix.planes is matrix.slices.values  # no redundant float copy

    def test_noisy_planes_use_policy_compute_dtype(self, rng):
        w = rng.integers(-128, 128, size=(4, 16))
        f32 = ProgrammedMatrix(w, MLC2, noise_sigma=0.05)
        assert f32.planes.dtype == np.float32  # default policy
        f64 = ProgrammedMatrix(
            w, MLC2, noise_sigma=0.05, policy=KernelPolicy(compute_dtype="float64")
        )
        assert f64.planes.dtype == np.float64

    def test_programmed_backcompat_view_is_float(self, rng):
        w = rng.integers(-128, 128, size=(4, 16))
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0)
        assert matrix.programmed.dtype == np.float64
        np.testing.assert_array_equal(matrix.programmed, matrix.slices.values)


#: Exact-width grid: partial (3, 29), exactly one (64), one-plus-a-row (65)
#: and multi-tile (130) inputs against 64-row (SLC/MLC2) and 16-row
#: (MLC3/MLC4) arrays, at decode (1, 8) and prefill-sized (54) batches.
GRID_IN_FEATURES = [3, 29, 64, 65, 130]
GRID_BATCHES = [1, 8, 54]
GRID_CELLS = ["SLC", "MLC2", "MLC3", "MLC4"]


def _zero_planes(x: np.ndarray, input_bits: int = 8) -> int:
    """All-zero activation bit-planes of ``x`` (the fast kernel's skip)."""
    masked = x & ((1 << input_bits) - 1)
    return sum(not np.any((masked >> k) & 1) for k in range(input_bits))


def _assert_matches_reference(matrix, x: np.ndarray) -> GemvStats:
    """Fast ≡ reference bitwise, in outputs and every GemvStats field."""
    ref_stats, fast_stats = GemvStats(), GemvStats()
    ref = matrix.gemv(x, stats=ref_stats, policy=REFERENCE)
    fast = matrix.gemv(x, stats=fast_stats, policy=FAST)
    np.testing.assert_array_equal(fast, ref)
    assert fast_stats == ref_stats  # every hardware counter
    assert fast_stats.saturated_conversions == ref_stats.saturated_conversions
    num_tiles = -(-x.shape[1] // matrix.config.rows)
    assert fast_stats.zero_planes_skipped == _zero_planes(x) * num_tiles
    assert ref_stats.zero_planes_skipped == 0  # the spec never skips
    assert fast_stats.fused_rows == x.shape[0]
    return fast_stats


class TestExactWidthGrid:
    @pytest.mark.parametrize("cell_name", GRID_CELLS)
    @pytest.mark.parametrize("in_features", GRID_IN_FEATURES)
    @pytest.mark.parametrize("batch", GRID_BATCHES)
    @pytest.mark.parametrize("inputs", ["saturating", "sparse"])
    def test_bitwise_equal_to_reference(self, cell_name, in_features, batch, inputs):
        """Noisy programming; "saturating" drives full-range inputs into
        high-level weights (negative rows set every MSB wordline), "sparse"
        leaves the high bit-planes empty so the zero-plane skip engages."""
        import zlib

        cell = CELL_TYPES[cell_name]
        rng = np.random.default_rng(
            zlib.crc32(repr((cell_name, in_features, batch, inputs)).encode())
        )
        if inputs == "saturating":
            w = rng.integers(64, 128, size=(24, in_features))
            x = rng.integers(-128, 128, size=(batch, in_features))
            x[batch // 2 :] = rng.integers(-128, 0, size=(batch - batch // 2, in_features))
        else:
            w = rng.integers(-128, 128, size=(24, in_features))
            x = rng.integers(0, 8, size=(batch, in_features))
        matrix = ProgrammedMatrix(
            w,
            cell,
            noise_sigma=DEFAULT_NOISE.sigma(cell),
            rng=np.random.default_rng(7),
            config=_config_for(cell_name),
        )
        stats = _assert_matches_reference(matrix, x)
        if inputs == "sparse":
            assert stats.zero_planes_skipped > 0
        elif in_features >= matrix.config.rows:
            assert stats.saturated_conversions > 0


def _assert_matches_reference_output(matrix, x: np.ndarray) -> np.ndarray:
    fast = matrix.gemv(x, policy=FAST)
    np.testing.assert_array_equal(fast, matrix.gemv(x, policy=REFERENCE))
    return fast


class TestTileCacheInvalidation:
    """Cached float64 cells must never outlive the cells they widen."""

    def test_faulty_backend_advance(self):
        from repro.rram import FaultModel, FaultySimBackend

        rng = np.random.default_rng(4)
        fault = FaultModel(drift_nu=0.1, temperature_c=60.0, temp_sigma_per_c=0.002)
        backend = FaultySimBackend(fault, seed=5)
        w = rng.integers(-128, 128, size=(16, 70))
        x = rng.integers(-128, 128, size=(8, 70))
        matrix = ProgrammedMatrix(w, MLC2, noise_sigma=0.05, rng=rng, backend=backend)
        before = matrix.gemv(x, policy=FAST)
        backend.advance(seconds=30 * 86_400.0)
        after = _assert_matches_reference_output(matrix, x)
        assert not np.array_equal(before, after)

    def test_reprogram(self):
        rng = np.random.default_rng(5)
        w = rng.integers(-128, 128, size=(16, 70))
        x = rng.integers(-128, 128, size=(8, 70))
        matrix = ProgrammedMatrix(w, MLC2, noise_sigma=0.08, rng=rng)
        before = matrix.gemv(x, policy=FAST)
        cached = matrix.float_planes()
        matrix.reprogram()
        assert matrix.float_planes() is not cached
        after = _assert_matches_reference_output(matrix, x)
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_dynamic_append_and_truncate(self, grow):
        from repro.rram import DynamicOperand

        rng = np.random.default_rng(6)
        op = DynamicOperand(
            40, 16, cell=MLC2, grow=grow, noise_sigma=0.08, rng=np.random.default_rng(8)
        )

        def check() -> None:
            width = op.length if grow == "wordlines" else op.width
            x = np.random.default_rng(op.length).integers(-128, 128, size=(5, width))
            np.testing.assert_array_equal(
                op.gemv(x, policy=FAST), op.gemv(x, policy=REFERENCE)
            )

        op.append(rng.integers(-128, 128, size=(12, 16)))
        check()
        # Rewrite rows 9..11: back at the length of the last read, new cells.
        op.truncate(9)
        op.append(rng.integers(-128, 128, size=(3, 16)))
        check()
        op.append(rng.integers(-128, 128, size=(9, 16)))  # grows the region
        check()
        op.truncate(7)  # shrinks it
        check()
