"""Kernel-engine tests: fast/reference bitwise equivalence, the process-wide policy.

The fast kernel is only allowed to exist because it is *indistinguishable*
from the reference pipeline: the grids below check bitwise-equal outputs and
identical :class:`GemvStats` over every cell type, noise level, batch size
and tile-spanning shape, including the noiseless shortcut and its saturation
fallback, saturating inputs and the zero-plane skip, the pattern-table
conversion of narrow tiles and the clip-free-tile proof at its threshold.
The fast kernel's cached float32 cells and clip-free flags are checked to
follow every way the programmed cells can change (clock advance,
re-program, dynamic append and truncate).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.rram.kernels as kernels
from repro.pim.hybrid import HybridLinear, SiblingGroup
from repro.rram import (
    CELL_TYPES,
    CrossbarConfig,
    DEFAULT_NOISE,
    DynamicOperand,
    GemvStats,
    KernelPolicy,
    MappedMatrix,
    MLC2,
    ProgrammedMatrix,
    SLC,
    bit_serial_gemv,
    get_default_kernel_policy,
    kernel_policy,
    set_default_kernel_policy,
)
from repro.rram.backend import on_cell_grid
from repro.rram.dynamic import PlaneBank
from repro.rram.kernels import clip_free_flags
from repro.svd.pipeline import LayerPlan

REFERENCE = KernelPolicy(mode="reference")
FAST = KernelPolicy(mode="fast")


def _gemv(surface, *args, policy: KernelPolicy, **kwargs) -> np.ndarray:
    """``surface.gemv(*args, **kwargs)`` under the process-wide ``policy``."""
    with kernel_policy(policy):
        return surface.gemv(*args, **kwargs)


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
        ref = _gemv(matrix, x, stats=ref_stats, policy=REFERENCE)
        fast = _gemv(matrix, x, stats=fast_stats, policy=FAST)
        np.testing.assert_array_equal(ref, fast)
        assert ref_stats == fast_stats

    def test_noiseless_shortcut_is_exact(self, rng):
        x = rng.integers(-128, 128, size=(6, 100))
        w = rng.integers(-128, 128, size=(12, 100))
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0)
        assert matrix.saturation_free  # random SLC columns stay below full scale
        np.testing.assert_array_equal(_gemv(matrix, x, policy=FAST), x @ w.T)

    def test_saturating_matrix_falls_back_and_still_matches_reference(self):
        """All-max weights drive bitlines to full scale: the shortcut must
        not engage, and the general fast path must track the reference's
        clipping exactly (including the saturated-conversion count)."""
        w = np.full((4, 64), 127, dtype=np.int64)
        x = np.full((2, 64), 127, dtype=np.int64)
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0)
        assert not matrix.saturation_free
        ref_stats, fast_stats = GemvStats(), GemvStats()
        ref = _gemv(matrix, x, stats=ref_stats, policy=REFERENCE)
        fast = _gemv(matrix, x, stats=fast_stats, policy=FAST)
        np.testing.assert_array_equal(ref, fast)
        assert ref_stats == fast_stats
        assert fast_stats.saturated_conversions > 0

    def test_one_shot_wrapper_follows_the_policy(self, rng):
        x = rng.integers(-128, 128, size=(2, 32))
        w = rng.integers(-128, 128, size=(5, 32))
        with kernel_policy(REFERENCE):
            a = bit_serial_gemv(x, w, MLC2, 0.05, rng=np.random.default_rng(3))
        with kernel_policy(FAST):
            b = bit_serial_gemv(x, w, MLC2, 0.05, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestKernelPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelPolicy(mode="einsum")

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
        with kernel_policy(KernelPolicy(mode="reference")):
            assert get_default_kernel_policy().mode == "reference"
        assert get_default_kernel_policy() == original


_SURFACE_X = np.random.default_rng(21).integers(-128, 128, size=(3, 24))
_SURFACE_W = np.random.default_rng(22).integers(-128, 128, size=(5, 24))


def _operands(n: int) -> list[DynamicOperand]:
    """``n`` noisy bitline-grown operands holding ``_SURFACE_W``'s rows."""
    operands = [DynamicOperand(8, 24, grow="bitlines", noise_sigma=0.05) for _ in range(n)]
    for op in operands:
        op.append(_SURFACE_W)
    return operands


def _crossbar_layer(index: int) -> HybridLinear:
    """A calibrated-noise crossbar layer, 24 -> 10 through rank 6."""
    rng = np.random.default_rng(30 + index)
    return HybridLinear(
        LayerPlan(
            name=f"blocks.0.w{index}",
            a_matrix=rng.normal(size=(6, 24)) / np.sqrt(24),
            b_matrix=rng.normal(size=(10, 6)) / np.sqrt(6),
            bias=None,
            protected_ranks=np.arange(6) < 2,
            sigma_gradients=rng.random(6),
        ),
        mode="crossbar",
    )


#: One GEMV run per surface that reads programmed cells.
GEMV_SURFACES = {
    "ProgrammedMatrix": lambda: ProgrammedMatrix(_SURFACE_W, MLC2, noise_sigma=0.05).gemv(_SURFACE_X),
    "MappedMatrix": lambda: MappedMatrix(_SURFACE_W, MLC2).gemv(_SURFACE_X),
    "DynamicOperand": lambda: _operands(1)[0].gemv(_SURFACE_X),
    "PlaneBank": lambda: PlaneBank(_operands(2)).gemv(np.stack([_SURFACE_X, _SURFACE_X])),
    "HybridLinear": lambda: _crossbar_layer(0).forward(_SURFACE_X / 128.0),
    "SiblingGroup": lambda: SiblingGroup([_crossbar_layer(0), _crossbar_layer(1)])(_SURFACE_X / 128.0),
}


class TestPolicyReachesEverySurface:
    @pytest.mark.parametrize("surface", sorted(GEMV_SURFACES))
    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_process_wide_policy_picks_the_kernel(self, surface, mode, monkeypatch):
        """The context alone routes every surface to the spec or the fast kernel."""
        calls = {"reference_gemv": 0, "fast_gemv": 0}

        def counted(name):
            original = getattr(kernels, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(kernels, name, wrapper)

        counted("reference_gemv")
        counted("fast_gemv")
        with kernel_policy(KernelPolicy(mode=mode)):
            GEMV_SURFACES[surface]()
        assert (calls["reference_gemv"] > 0) == (mode == "reference")
        assert (calls["fast_gemv"] > 0) == (mode == "fast")


class TestProgrammedMemoryLayout:
    def test_noiseless_keeps_single_integer_copy(self, rng):
        w = rng.integers(-128, 128, size=(4, 16))
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0)
        assert matrix.is_noiseless
        assert matrix.planes is matrix.slices.values  # no redundant float copy

    def test_noisy_planes_are_float32_and_read_without_a_copy(self, rng):
        w = rng.integers(-128, 128, size=(4, 16))
        matrix = ProgrammedMatrix(w, MLC2, noise_sigma=0.05)
        assert matrix.planes.dtype == np.float32
        assert np.shares_memory(matrix.float_planes(), matrix.planes)


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
    ref = _gemv(matrix, x, stats=ref_stats, policy=REFERENCE)
    fast = _gemv(matrix, x, stats=fast_stats, policy=FAST)
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


class TestNarrowTiles:
    """A 4-row array (3-b MLC2 ADC, 2-b SLC ADC) saturates on its full
    tiles, and its 4-wordline tiles have 16 patterns: the batch-1 call converts
    its 8 bit-rows one by one, larger batches through the pattern table."""

    @pytest.mark.parametrize("cell_name", ["SLC", "MLC2"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "calibrated"])
    @pytest.mark.parametrize("batch", GRID_BATCHES)
    def test_saturating_narrow_tiles_match_reference(self, cell_name, noisy, batch):
        import zlib

        cell = CELL_TYPES[cell_name]
        rng = np.random.default_rng(zlib.crc32(repr((cell_name, noisy, batch)).encode()))
        in_features = 10  # tiles of 4, 4 and 2 wordlines
        w = rng.integers(64, 128, size=(6, in_features))
        x = rng.integers(-128, 0, size=(batch, in_features))
        matrix = ProgrammedMatrix(
            w,
            cell,
            noise_sigma=DEFAULT_NOISE.sigma(cell) if noisy else 0.0,
            rng=np.random.default_rng(3),
            config=CrossbarConfig(rows=4),
        )
        assert matrix.adc.bits == cell.bits + 1
        stats = _assert_matches_reference(matrix, x)
        assert stats.saturated_conversions > 0
        flags = matrix.clip_free_tiles()
        assert flags[:2] == (False, False)  # 4 high-level cells exceed full scale
        assert stats.clip_free_tiles == sum(flags)
        # Table when 2 * 2**w < kept_bits*batch: 8 bit-rows per input row.
        widths = [4, 4, 2]
        assert stats.table_tiles == sum((2 << w_) < 8 * batch for w_ in widths)


class TestWideInputs:
    """Inputs wider than 8 bits: bit-planes packed by shifting, and the
    digital shift-and-add in float32 while ``tiles * full_scale *
    (2**input_bits - 1)`` stays below ``2**24``, float64 beyond."""

    @pytest.mark.parametrize(
        ("input_bits", "rows", "in_features"),
        [
            (12, 64, 130),  # float32: 3 tiles, the last 2 wordlines wide
            (12, 64, 4200),  # 66 tiles * 63 * 4095 >= 2**24: float64
            (20, 64, 130),  # 3 tiles * 63 * (2**20 - 1): float64
            (12, 4, 10),  # 4-row arrays (full scale 3): narrow tiles, float32
            (20, 4, 10),  # 3 tiles * 3 * (2**20 - 1) < 2**24: still float32
        ],
        ids=str,
    )
    @pytest.mark.parametrize("batch", [1, 8])
    def test_bitwise_equal_to_reference(self, input_bits, rows, in_features, batch):
        import zlib

        rng = np.random.default_rng(zlib.crc32(repr((input_bits, rows, in_features, batch)).encode()))
        half = 1 << (input_bits - 1)
        x = rng.integers(-half, half, size=(batch, in_features))
        x[::2] = rng.integers(-half, -half // 2, size=x[::2].shape)  # high wordline counts
        w = rng.integers(-128, 128, size=(6, in_features))
        matrix = ProgrammedMatrix(
            w,
            SLC,
            noise_sigma=DEFAULT_NOISE.sigma(SLC),
            rng=np.random.default_rng(5),
            config=CrossbarConfig(rows=rows),
        )
        ref_stats, fast_stats = GemvStats(), GemvStats()
        ref = _gemv(matrix, x, input_bits, stats=ref_stats, policy=REFERENCE)
        fast = _gemv(matrix, x, input_bits, stats=fast_stats, policy=FAST)
        np.testing.assert_array_equal(fast, ref)
        assert fast_stats == ref_stats
        # Narrow tiles convert per pattern: always the 2-wordline tail, and
        # the 4-wordline tiles once 8 rows bring more than 32 bit-rows.
        if rows == 4:
            assert fast_stats.table_tiles == (1 if batch == 1 else 3)
            assert fast_stats.saturated_conversions > 0


def _with_cells(cells: np.ndarray, rows: int = 64) -> ProgrammedMatrix:
    """An SLC matrix whose effective cells are exactly ``cells`` (in, out, 8)."""
    in_features, out_features, _ = cells.shape
    matrix = ProgrammedMatrix(
        np.zeros((out_features, in_features), dtype=np.int64),
        SLC,
        noise_sigma=0.01,
        config=CrossbarConfig(rows=rows),
    )
    matrix._tile.base_planes = on_cell_grid(cells)
    return matrix


class TestClipFreeTiles:
    """A tile is clip-free iff every cell is >= 0 and its rounded largest
    column sum stays below full scale (63 for the 6-b SLC ADC).  Round
    half to even sends 62.5 to 62, so the threshold sum itself is clip-free."""

    @pytest.mark.parametrize(
        ("offset", "clip_free"),
        [(-(2.0**-16), True), (0.0, True), (2.0**-16, False)],
        ids=["below", "at", "above"],
    )
    def test_largest_column_sum_around_threshold(self, offset, clip_free):
        cells = np.zeros((64, 2, 8))
        cells[:62, 0, 0] = 1.0
        cells[62, 0, 0] = 0.5 + offset  # column sum 62.5 + offset
        cells[:40, 1, 3] = 1.0
        matrix = _with_cells(cells)
        assert matrix.adc.full_scale - 0.5 == cells[:, 0, 0].sum() - offset
        assert matrix.clip_free_tiles() == (clip_free,)
        x = np.full((3, 64), -1, dtype=np.int64)  # every wordline, every plane
        x[1] = np.random.default_rng(0).integers(-128, 128, size=64)
        stats = _assert_matches_reference(matrix, x)
        assert stats.clip_free_tiles == int(clip_free)
        assert (stats.saturated_conversions > 0) == (not clip_free)

    def test_negative_cell_needs_the_clip(self):
        """A negative cell can round a sum below code 0, which the ADC clips."""
        cells = np.zeros((64, 1, 8))
        cells[5, 0, 2] = -0.7
        cells[6, 0, 2] = 0.1
        matrix = _with_cells(cells)
        assert matrix.clip_free_tiles() == (False,)
        x = np.zeros((2, 64), dtype=np.int64)
        x[:, 5] = [1, 3]
        stats = _assert_matches_reference(matrix, x)
        assert stats.clip_free_tiles == 0

    def test_flags_per_tile(self):
        cells = np.zeros((130, 1, 8))
        cells[64:128, 0, 4] = 1.0  # only the middle tile can reach 64 > 63
        matrix = _with_cells(cells)
        assert matrix.clip_free_tiles() == (True, False, True)
        assert not matrix.saturation_free
        stats = _assert_matches_reference(matrix, np.full((8, 130), -1, dtype=np.int64))
        assert stats.clip_free_tiles == 2
        assert stats.table_tiles == 1  # the 2-wordline tail: 2 * 4 < 64 bit-rows
        assert stats.saturated_conversions > 0

    @pytest.mark.parametrize("cell_name", ["SLC", "MLC2"])
    def test_noiseless_flags_are_saturation_freedom(self, cell_name, rng):
        cell = CELL_TYPES[cell_name]
        for w in (rng.integers(-128, 128, size=(9, 100)), np.full((9, 100), 127)):
            matrix = ProgrammedMatrix(w, cell, noise_sigma=0.0)
            worst = [
                matrix.slices.values[r : r + 64].sum(axis=0).max() for r in range(0, 100, 64)
            ]
            assert matrix.clip_free_tiles() == tuple(
                bool(v < matrix.adc.full_scale) for v in worst
            )


def _assert_matches_reference_output(matrix, x: np.ndarray) -> np.ndarray:
    fast = _gemv(matrix, x, policy=FAST)
    np.testing.assert_array_equal(fast, _gemv(matrix, x, policy=REFERENCE))
    return fast


class TestTileCacheInvalidation:
    """Cached float32 cells must never outlive the cells they view."""

    def test_faulty_backend_advance(self):
        from repro.rram import FaultModel, FaultySimBackend

        rng = np.random.default_rng(4)
        fault = FaultModel(drift_nu=0.1, temperature_c=60.0, temp_sigma_per_c=0.002)
        backend = FaultySimBackend(fault, seed=5)
        w = rng.integers(-128, 128, size=(16, 70))
        x = rng.integers(-128, 128, size=(8, 70))
        matrix = ProgrammedMatrix(w, MLC2, noise_sigma=0.05, rng=rng, backend=backend)
        before = _gemv(matrix, x, policy=FAST)
        backend.advance(seconds=30 * 86_400.0)
        after = _assert_matches_reference_output(matrix, x)
        assert not np.array_equal(before, after)

    def test_reprogram(self):
        rng = np.random.default_rng(5)
        w = rng.integers(-128, 128, size=(16, 70))
        x = rng.integers(-128, 128, size=(8, 70))
        matrix = ProgrammedMatrix(w, MLC2, noise_sigma=0.08, rng=rng)
        before = _gemv(matrix, x, policy=FAST)
        cached = matrix.float_planes()
        matrix.reprogram()
        assert matrix.float_planes() is not cached
        after = _assert_matches_reference_output(matrix, x)
        assert not np.array_equal(before, after)

    def test_clip_free_flags_follow_advance_and_reprogram(self):
        """All-max SLC columns sum to ~64 > 63: drift over 30 days lowers
        them to ~45 (every tile clip-free), and re-programming resets the
        drift clock so they saturate again — a stale True flag would skip
        that clip and diverge from the reference."""
        from repro.rram import FaultModel, FaultySimBackend

        backend = FaultySimBackend(FaultModel(drift_nu=0.1), seed=2)
        w = np.full((6, 128), 127, dtype=np.int64)
        x = np.full((8, 128), -1, dtype=np.int64)
        matrix = ProgrammedMatrix(
            w, SLC, noise_sigma=DEFAULT_NOISE.sigma(SLC), backend=backend
        )

        def check(clip_free: bool) -> None:
            assert matrix.clip_free_tiles() == (clip_free, clip_free)
            assert matrix.clip_free_tiles() == clip_free_flags(
                matrix.planes, 64, matrix.adc.full_scale
            )
            stats = _assert_matches_reference(matrix, x)
            assert stats.clip_free_tiles == 2 * clip_free
            assert (stats.saturated_conversions > 0) == (not clip_free)

        check(False)
        backend.advance(seconds=30 * 86_400.0)
        check(True)
        matrix.reprogram()
        check(False)

    def test_noisy_dynamic_operand_keeps_the_clip(self, monkeypatch):
        """Noisy operands derive no flags: every tile runs the clip path."""
        from repro.rram import DynamicOperand
        from repro.rram import dynamic

        def not_derived(*args):
            raise AssertionError("noisy dynamic operand derived clip-free flags")

        monkeypatch.setattr(dynamic, "clip_free_mask", not_derived)
        rng = np.random.default_rng(9)
        op = DynamicOperand(
            80,
            16,
            cell=MLC2,
            noise_sigma=DEFAULT_NOISE.sigma(MLC2),
            rng=np.random.default_rng(1),
        )
        op.append(rng.integers(64, 128, size=(70, 16)))
        x = rng.integers(-128, 0, size=(17, 70))
        ref_stats, fast_stats = GemvStats(), GemvStats()
        np.testing.assert_array_equal(
            _gemv(op, x, stats=fast_stats, policy=FAST),
            _gemv(op, x, stats=ref_stats, policy=REFERENCE),
        )
        assert fast_stats == ref_stats
        assert fast_stats.saturated_conversions > 0
        assert fast_stats.clip_free_tiles == 0
        assert fast_stats.table_tiles == 1  # the 6-wordline tail: 2 * 64 < 136 bit-rows

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
                _gemv(op, x, policy=FAST), _gemv(op, x, policy=REFERENCE)
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
