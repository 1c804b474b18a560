"""DynamicOperand correctness: exactness, accounting, cache hygiene.

The dynamic-operand seam is only admissible if (a) a noiseless operand's
GEMV is *exactly* the integer product of its appended codes on every
kernel (reference / fast, plus the legacy gemm alias) and both growth
axes, (b) every appended cell is accounted — initial programs vs re-programs in
:class:`~repro.rram.crossbar.GemvStats`, pulses in the wear ledger's
dynamic channel — and (c) partial-region writes invalidate *only* the
operand's own tile: static matrices sharing the backend must keep their
cached float planes (object identity, not just value equality).

The stacked read (:meth:`~repro.rram.dynamic.PlaneBank.gemv`, one kernel
call over many banked operands) is held to the per-member spec: every
member of a stacked call must equal
:func:`~repro.rram.kernels.reference_gemv` on that member alone, outputs
and every compared ``GemvStats`` field, across both growth axes, ragged
lengths, noise, ADC saturation, all-zero inputs and every way the bank's
cells could go stale (clock advance, truncate and re-append).
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
    kernel_policy,
)
from repro.rram.dynamic import PlaneBank
from repro.rram.noise import DEFAULT_NOISE

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
        op = _operand(grow)
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
        with kernel_policy(KernelPolicy(mode=mode)):
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
        """The operand's view reads every appended row at once."""
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


# ----------------------------------------------------------------------
# Stacked reads: one kernel call over many operands
# ----------------------------------------------------------------------
#: Ragged member lengths; 130 straddles a row tile on the wordline axis.
STACK_LENGTHS = (1, 5, 36, 128, 130)
STACK_WIDTH = 16
STACK_CAPACITY = 136
REFERENCE = KernelPolicy(mode="reference")


def _stack(grow, lengths=STACK_LENGTHS, backend=None, sigma=0.0, config=None, seed=0):
    """Operands sharing one backend and noise generator, appended in chunks."""
    rng = np.random.default_rng(seed)
    backend = backend if backend is not None else SimBackend()
    noise_rng = np.random.default_rng(seed + 1)
    ops = []
    for length in lengths:
        op = DynamicOperand(
            STACK_CAPACITY,
            STACK_WIDTH,
            cell=MLC2,
            grow=grow,
            noise_sigma=sigma,
            rng=noise_rng,
            config=config,
            backend=backend,
        )
        first = length // 2
        for chunk in (first, length - first):
            op.append(rng.integers(-128, 128, size=(chunk, STACK_WIDTH)))
        ops.append(op)
    return ops


def _in_out(op):
    """``(in_features, out_features)`` of an operand's GEMV."""
    if op.grow == "wordlines":
        return op.length, op.width
    return op.width, op.length


def _stack_inputs(ops, seq, seed=0):
    """Padded ``(n, seq, in)`` inputs: member 1 all zero, member 2 small."""
    rng = np.random.default_rng(seed)
    widths = [_in_out(op)[0] for op in ops]
    x = np.zeros((len(ops), seq, max(widths)), dtype=np.int64)
    for i, width in enumerate(widths):
        if i == 1:
            continue  # an all-zero member: every bit-plane skipped
        high = 4 if i == 2 else 128  # few used bit-planes, no sign plane
        x[i, :, :width] = rng.integers(-128 if i != 2 else 0, high, size=(seq, width))
    return x


def _assert_stack_matches_reference(bank, x):
    """Stacked fast call == reference_gemv per member, outputs and stats."""
    ops = bank.operands
    for op in ops:
        op.stats = GemvStats()
    out = bank.gemv(x)
    assert out.shape == (len(ops), x.shape[1], max(_in_out(op)[1] for op in ops))
    for i, op in enumerate(ops):
        in_f, out_f = _in_out(op)
        ref_stats = GemvStats()
        with kernel_policy(REFERENCE):
            ref = op.gemv(x[i, :, :in_f], stats=ref_stats)
        np.testing.assert_array_equal(out[i, :, :out_f], ref)
        assert not out[i, :, out_f:].any()
        assert op.stats == ref_stats, (i, op.stats, ref_stats)
        if op.stats.fused_rows:  # bit-serial: the zero-plane skip is per member
            used = int(np.bitwise_or.reduce(x[i] & 0xFF, axis=None))
            tiles = -(-in_f // op.config.rows)
            assert op.stats.zero_planes_skipped == (8 - bin(used).count("1")) * tiles
    return out


class TestStackedEquivalence:
    @pytest.mark.parametrize("sigma", [0.0, DEFAULT_NOISE.sigma(MLC2)])
    @pytest.mark.parametrize("seq", [1, 16])
    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_ragged_stack_equals_reference_per_member(self, grow, seq, sigma):
        ops = _stack(grow, sigma=sigma)
        _assert_stack_matches_reference(PlaneBank(ops), _stack_inputs(ops, seq))

    @pytest.mark.parametrize("seq", [1, 16])
    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_saturating_stack_counts_saturations_per_member(self, grow, seq):
        """4-row arrays clip: saturation counts stay per member."""
        ops = _stack(grow, config=CrossbarConfig(rows=4), sigma=DEFAULT_NOISE.sigma(MLC2))
        for op in ops:
            op.append(np.full((1, STACK_WIDTH), 127))  # drive bitlines high
        x = _stack_inputs(ops, seq)
        x[x != 0] = -1  # every bit set: the largest bitline sums
        _assert_stack_matches_reference(PlaneBank(ops), x)
        assert sum(op.stats.saturated_conversions for op in ops) > 0

    def test_noiseless_saturating_stack_skips_the_shortcut(self):
        ops = _stack("wordlines", config=CrossbarConfig(rows=4))
        x = _stack_inputs(ops, 3)
        x[x != 0] = -1
        _assert_stack_matches_reference(PlaneBank(ops), x)
        assert sum(op.stats.saturated_conversions for op in ops) > 0

    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_fault_clock_advance_invalidates_stacked_planes(self, grow):
        backend = FaultySimBackend(
            fault=FaultModel(stuck_off_rate=0.01, drift_nu=0.05), seed=3
        )
        ops = _stack(grow, backend=backend, sigma=DEFAULT_NOISE.sigma(MLC2))
        bank = PlaneBank(ops)
        x = _stack_inputs(ops, 4)
        before = _assert_stack_matches_reference(bank, x)
        backend.advance(30 * 86_400.0)
        after = _assert_stack_matches_reference(bank, x)
        assert np.any(before != after)

    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_truncate_and_reappend_invalidates_stacked_planes(self, grow):
        rng = np.random.default_rng(5)
        ops = _stack(grow, sigma=DEFAULT_NOISE.sigma(MLC2))
        bank = PlaneBank(ops)
        _assert_stack_matches_reference(bank, _stack_inputs(ops, 2))
        for op in ops[::2]:
            op.truncate(op.length // 2)
            op.append(rng.integers(-128, 128, size=(3, STACK_WIDTH)))
        _assert_stack_matches_reference(bank, _stack_inputs(ops, 2, seed=1))

    def test_reference_policy_loops_reference_gemv(self):
        """Under the reference policy a stacked read runs the spec."""
        ops = _stack("wordlines", sigma=DEFAULT_NOISE.sigma(MLC2))
        bank = PlaneBank(ops)
        x = _stack_inputs(ops, 2)
        fast = _assert_stack_matches_reference(bank, x)
        with kernel_policy(REFERENCE):
            np.testing.assert_array_equal(bank.gemv(x), fast)

    def test_one_member_stack_is_the_single_read(self):
        ops = _stack("bitlines", lengths=(7,), sigma=DEFAULT_NOISE.sigma(MLC2))
        x = _stack_inputs(ops, 3)
        np.testing.assert_array_equal(PlaneBank(ops).gemv(x)[0], ops[0].gemv(x[0]))


class TestStackedValidation:
    def test_rejects_bad_stacks(self):
        ops = _stack("wordlines", lengths=(3, 5))
        x = _stack_inputs(ops, 1)
        with pytest.raises(ValueError, match="at least one"):
            PlaneBank([])
        bank = PlaneBank(ops)
        with pytest.raises(ValueError, match="at most one"):
            PlaneBank(ops[:1])
        with pytest.raises(ValueError, match="shape mismatch"):
            bank.gemv(x[:, :, :4])
        with pytest.raises(ValueError, match="shape mismatch"):
            bank.gemv(x, members=slice(0, 1))
        padded = x.copy()
        padded[0, 0, 4] = 1  # past member 0's 3 wordlines
        with pytest.raises(ValueError, match="must be zero"):
            bank.gemv(padded)
        wide = x.copy()
        wide[1, 0, 0] = 200
        with pytest.raises(ValueError, match="signed"):
            bank.gemv(wide)
        ops[0].truncate(0)
        with pytest.raises(ValueError, match="empty"):
            bank.gemv(x)

    def test_rejects_mixed_geometry(self):
        ops = _stack("wordlines", lengths=(3,)) + _stack(
            "wordlines", lengths=(3,), config=CrossbarConfig(rows=4)
        )
        with pytest.raises(ValueError, match="share"):
            PlaneBank(ops)


class TestWrite:
    def test_write_levels_equals_append(self):
        """Pre-sliced levels land exactly like appended codes."""
        from repro.rram.crossbar import offset_slices

        rng = np.random.default_rng(11)
        codes = _codes(rng, 4)
        for grow in ("wordlines", "bitlines"):
            a, b = _operand(grow), _operand(grow)
            a.append(codes)
            b.write(offset_slices(codes, MLC2))
            x = np.eye(a.length if grow == "wordlines" else WIDTH, dtype=np.int64)
            np.testing.assert_array_equal(a.gemv(x), b.gemv(x))
            assert a.stats == b.stats

    def test_write_checks_shape_and_levels(self):
        op = _operand("bitlines")
        with pytest.raises(ValueError, match="levels"):
            op.write(np.zeros((2, WIDTH), dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            op.write(np.full((1, WIDTH, op.num_slices), 9, dtype=np.int64))
        assert op.write(np.zeros((0, WIDTH, op.num_slices), dtype=np.int64)) == 0
