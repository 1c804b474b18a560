"""DynamicOperand correctness: exactness, accounting, cache hygiene.

The dynamic-operand seam is only admissible if (a) a noiseless operand's
GEMV is *exactly* the integer product of its appended codes on every
kernel (reference / fast, plus the legacy gemm alias) and both growth
axes, (b) every appended cell is accounted — initial programs vs re-programs in
:class:`~repro.rram.crossbar.GemvStats`, pulses in the wear ledger's
dynamic channel — and (c) partial-region writes invalidate *only* the
operand's own tile: static matrices sharing the backend must keep their
cached float planes (object identity, not just value equality).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram import (
    CrossbarConfig,
    DynamicOperand,
    FaultModel,
    FaultySimBackend,
    GemvStats,
    KernelPolicy,
    MLC2,
    ProgrammedMatrix,
    SimBackend,
)

WIDTH = 8
CAPACITY = 20


def _codes(rng: np.random.Generator, t: int) -> np.ndarray:
    return rng.integers(-128, 128, size=(t, WIDTH), dtype=np.int64)


def _inputs(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.integers(-128, 128, size=(n, dim), dtype=np.int64)


def _operand(grow: str, backend=None, **kwargs) -> DynamicOperand:
    return DynamicOperand(
        CAPACITY,
        WIDTH,
        cell=MLC2,
        grow=grow,
        backend=backend if backend is not None else SimBackend(),
        **kwargs,
    )


class TestExactness:
    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    @pytest.mark.parametrize("mode", ["reference", "fast", "gemm"])
    def test_noiseless_gemv_is_exact_integer_product(self, grow, mode):
        """Chunked appends + every kernel == x @ W.T over the valid prefix."""
        rng = np.random.default_rng(0)
        op = _operand(grow, policy=KernelPolicy(mode=mode))
        rows = []
        for t in (3, 1, 5):
            rows.append(_codes(rng, t))
            op.append(rows[-1])
        dense = np.concatenate(rows)  # (length, WIDTH)
        assert op.length == 9
        if grow == "wordlines":
            x = _inputs(rng, 4, op.length)
            expected = x @ dense
        else:
            x = _inputs(rng, 4, WIDTH)
            expected = x @ dense.T
        out = op.gemv(x)
        np.testing.assert_array_equal(np.asarray(out, dtype=np.int64), expected)

    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_append_after_truncate_overwrites_recycled_rows(self, grow):
        """Recycled rows serve the *new* codes (no stale physical levels)."""
        rng = np.random.default_rng(1)
        op = _operand(grow)
        op.append(_codes(rng, 6))
        op.truncate(2)
        fresh = _codes(rng, 3)
        op.append(fresh)
        x = np.eye(op.length if grow == "wordlines" else WIDTH, dtype=np.int64)
        out = np.asarray(op.gemv(x), dtype=np.int64)
        if grow == "wordlines":
            np.testing.assert_array_equal(out[2:5], fresh)
        else:
            np.testing.assert_array_equal(out[:, 2:5].T, fresh)

    def test_noisy_operand_deviates_but_is_seeded(self):
        """σ > 0 perturbs reads; identical seeds reproduce them exactly."""
        rng_codes = np.random.default_rng(2)
        codes = _codes(rng_codes, 10)
        x = _inputs(rng_codes, 4, 10)
        outs = []
        for _ in range(2):
            op = _operand(
                "wordlines", noise_sigma=0.05, rng=np.random.default_rng(9)
            )
            op.append(codes)
            outs.append(np.asarray(op.gemv(x)))
        np.testing.assert_array_equal(outs[0], outs[1])
        assert np.any(outs[0] != x @ codes)


class TestAccounting:
    def test_watermark_splits_initial_vs_reprogram(self):
        """Rows above the high watermark are initial programs; recycled rows
        are re-programs."""
        rng = np.random.default_rng(3)
        op = _operand("wordlines")
        cells_per_row = WIDTH * op.num_slices
        op.append(_codes(rng, 5))
        assert op.stats.cells_initial_programmed == 5 * cells_per_row
        assert op.stats.cells_reprogrammed == 0
        op.truncate(2)
        op.append(_codes(rng, 4))  # rows 2..5: one above watermark 5
        assert op.stats.cells_initial_programmed == 6 * cells_per_row
        assert op.stats.cells_reprogrammed == 3 * cells_per_row
        assert op.written == 6 and op.length == 6

    def test_explicit_stats_sink_overrides_default(self):
        rng = np.random.default_rng(4)
        op = _operand("bitlines")
        sink = GemvStats()
        op.append(_codes(rng, 2), stats=sink)
        assert sink.cells_initial_programmed == 2 * WIDTH * op.num_slices
        assert op.stats.cells_initial_programmed == 0

    def test_ledger_dynamic_channel_records_appends(self):
        rng = np.random.default_rng(5)
        backend = SimBackend()
        op = _operand("wordlines", backend=backend)
        op.append(_codes(rng, 3))
        op.append(_codes(rng, 1))
        assert backend.ledger.dynamic_writes == 2
        pulses = backend.ledger.dynamic_write_pulses
        assert set(pulses) == {op.tile_id} and pulses[op.tile_id] > 0
        assert backend.health_report()["dynamic_writes"] == 2
        assert op.wear_fraction() > 0.0


class TestCacheHygiene:
    def test_static_float_planes_survive_dynamic_appends(self):
        """Partial writes must not invalidate *other* tiles' derived planes."""
        rng = np.random.default_rng(6)
        backend = SimBackend()
        static = ProgrammedMatrix(
            rng.integers(-8, 8, size=(6, 12)).astype(np.float64),
            cell=MLC2,
            backend=backend,
        )
        before = static.float_planes()
        op = _operand("wordlines", backend=backend)
        op.append(_codes(rng, 4))
        assert static.float_planes() is before

    def test_dynamic_view_reflects_appends_immediately(self):
        """The operand's own derived cache re-keys on every append."""
        rng = np.random.default_rng(7)
        op = _operand("wordlines")
        first = _codes(rng, 3)
        op.append(first)
        x = np.eye(3, dtype=np.int64)
        np.testing.assert_array_equal(np.asarray(op.gemv(x), np.int64), first)
        second = _codes(rng, 2)
        op.append(second)
        x5 = np.eye(5, dtype=np.int64)
        np.testing.assert_array_equal(
            np.asarray(op.gemv(x5), np.int64), np.concatenate([first, second])
        )


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(ValueError, match="positive"):
            DynamicOperand(0, WIDTH, backend=SimBackend())
        with pytest.raises(ValueError, match="grow"):
            DynamicOperand(4, WIDTH, grow="diagonal", backend=SimBackend())

    def test_append_shape_capacity_and_truncate_bounds(self):
        rng = np.random.default_rng(8)
        op = _operand("wordlines")
        with pytest.raises(ValueError, match="expected"):
            op.append(np.zeros((2, WIDTH + 1), dtype=np.int64))
        with pytest.raises(ValueError, match="capacity"):
            op.append(_codes(rng, CAPACITY + 1))
        op.append(_codes(rng, 2))
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            op.truncate(3)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            op.truncate(-1)
        assert op.append(np.zeros((0, WIDTH))) == 2  # no-op append

    def test_gemv_guards(self):
        rng = np.random.default_rng(9)
        op = _operand("wordlines")
        with pytest.raises(ValueError, match="empty"):
            op.gemv(np.zeros((1, 1), dtype=np.int64))
        op.append(_codes(rng, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            op.gemv(np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="signed"):
            op.gemv(np.full((1, 3), 200, dtype=np.int64))


class TestFaultyBackend:
    def test_stuck_cells_are_deterministic_and_ignore_appends(self):
        """Same seed → bit-identical lifetime; stuck cells defy programming."""
        rng = np.random.default_rng(10)
        codes = _codes(rng, 10)
        x = _inputs(rng, 4, 10)
        outs = []
        for _ in range(2):
            backend = FaultySimBackend(
                fault=FaultModel(stuck_off_rate=0.05, stuck_on_rate=0.02), seed=11
            )
            op = _operand("wordlines", backend=backend)
            op.append(codes[:6])
            op.append(codes[6:])
            outs.append(np.asarray(op.gemv(x)))
        np.testing.assert_array_equal(outs[0], outs[1])
        clean = _operand("wordlines")
        clean.append(codes)
        assert np.any(outs[0] != np.asarray(clean.gemv(x)))
