"""StackLayout.plan, checked against its inputs rather than through outputs.

Every fast GEMV read runs the plan :meth:`~repro.rram.kernels.StackLayout.plan`
assembles from a stack's cells: which row tiles cannot clip, when a
noiseless read reduces to the exact integer GEMV, and the float32 cells
otherwise.  For static :class:`~repro.rram.kernels.GemvStack` s (SLC
beside MLC, zero-padded lone members, multi-tile inputs) and plane-bank
windows (noiseless and noisy):

- each constituent's clip-free flags in the plan equal
  :func:`~repro.rram.kernels.clip_free_flags` on its own cells wherever
  flags are derived (static cells, noiseless operands); noisy operands
  prove no tile clip-free;
- each tile's clip ranges cover exactly the slots of its unproven
  constituents, at their full scales, and its counts name those
  constituents;
- the exact shortcut's operand holds each constituent's integer ``W.T``
  (zero on padded outputs); any other plan's operand holds its cells.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rram import MLC2, SLC, CrossbarConfig, GemvStack, ProgrammedMatrix, SimBackend
from repro.rram.dynamic import DynamicOperand, PlaneBank, _DynamicView, _Window
from repro.rram.kernels import clip_free_flags
from repro.rram.noise import DEFAULT_NOISE

ROWS = (4, 8, 16, 64)
#: Code ranges: any int8, near zero, and the all-MSB offset code 0.
CODE_RANGES = ((-128, 128), (-2, 2), (0, 1))


def _check_plan(stack, cells, weights_t, noiseless: bool, derived: bool) -> bool:
    """Assert ``stack.plan()`` against each constituent's own cells; returns ``exact``.

    ``cells[k]`` are constituent ``k``'s effective cells ``(in, out*n_s)``
    and ``weights_t[k]`` its integer ``W.T``; ``derived`` says whether the
    stack derives clip-free flags from its cells.
    """
    exact, clips, counts, clip_free_counts, operand = stack.plan()
    per, tiles = stack.per_member, max(stack.tiles)
    assert len(clips) == len(counts) == tiles
    unproven = [sorted(entry[0] for entry in tile) for tile in counts]
    for k, own in enumerate(cells):
        flags = tuple(k not in unproven[t] for t in range(stack.tiles[k]))
        full_scale = stack.slots[k % per][2]
        expected = clip_free_flags(own, stack.rows, full_scale) if derived else (False,) * len(flags)
        assert flags == expected
        assert clip_free_counts[k] == sum(flags)
    for t in range(tiles):
        assert all(k < len(cells) and t < stack.tiles[k] for k in unproven[t])
        assert counts[t] == tuple((k, k // per) + stack.slots[k % per] for k in unproven[t])
        clipped = np.zeros(stack.columns, dtype=np.int64)
        for first, last, full_scale in clips[t]:
            assert not clipped[first:last].any()  # ranges do not overlap
            clipped[first:last] = full_scale
        expected = np.zeros(stack.columns, dtype=np.int64)
        for j in {k % per for k in unproven[t]}:
            first, last, full_scale = stack.slots[j]
            expected[first:last] = full_scale
        np.testing.assert_array_equal(clipped, expected)
    every_tile_free = all(count == n for count, n in zip(clip_free_counts, stack.tiles))
    assert exact == (noiseless and every_tile_free)

    starts = np.cumsum([0] + stack.widths)
    for k, (own, w_t) in enumerate(zip(cells, weights_t)):
        i, j = divmod(k, per)
        rows = w_t.shape[0]
        if exact:
            block = operand[i, :rows, starts[j] : starts[j + 1]]
            np.testing.assert_array_equal(block[:, : w_t.shape[1]], w_t)
            assert not block[:, w_t.shape[1] :].any()  # padded outputs read 0
        else:
            first, last, _ = stack.slots[j]
            block = operand[i, :rows, first:last]
            np.testing.assert_array_equal(block[:, : own.shape[1]], own)
            assert not block[:, own.shape[1] :].any()
    return exact


@st.composite
def static_stacks(draw):
    """A GemvStack: SLC beside MLC2 members, or zero-padded lone members."""
    rows = draw(st.sampled_from(ROWS))
    config = CrossbarConfig(rows=rows, cols=32)
    sigma = draw(st.sampled_from([0.0, DEFAULT_NOISE.sigma(MLC2)]))
    low, high = draw(st.sampled_from(CODE_RANGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 3))
    ins = [draw(st.integers(1, 3 * rows + 1)) for _ in range(n)]
    if draw(st.booleans()):
        cells, outs = (SLC, MLC2), [(draw(st.integers(1, 5)), draw(st.integers(1, 5)))] * n
    else:
        cell = draw(st.sampled_from([SLC, MLC2]))
        cells, outs = (cell,), [(draw(st.integers(1, 6)),) for _ in range(n)]
    weights = [
        [rng.integers(low, high, size=(out, in_f)) for out in member_outs]
        for member_outs, in_f in zip(outs, ins)
    ]
    members = [
        [
            ProgrammedMatrix(w, cell, noise_sigma=sigma, rng=rng, config=config)
            for cell, w in zip(cells, member)
        ]
        for member in weights
    ]
    return GemvStack(members), [w for member in weights for w in member], sigma == 0.0


@st.composite
def windows(draw):
    """A plane bank's window over operands of different lengths."""
    rows = draw(st.sampled_from(ROWS))
    grow = draw(st.sampled_from(["wordlines", "bitlines"]))
    sigma = draw(st.sampled_from([0.0, DEFAULT_NOISE.sigma(MLC2)]))
    low, high = draw(st.sampled_from(CODE_RANGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    width = draw(st.integers(1, 6))
    capacity = 3 * rows + 1
    backend = SimBackend()
    operands, codes = [], []
    for _ in range(draw(st.integers(1, 4))):
        op = DynamicOperand(
            capacity,
            width,
            grow=grow,
            noise_sigma=sigma,
            rng=rng,
            config=CrossbarConfig(rows=rows, cols=32),
            backend=backend,
        )
        written = rng.integers(low, high, size=(draw(st.integers(1, capacity)), width))
        op.append(written)
        operands.append(op)
        codes.append(written if grow == "wordlines" else written.T)
    bank = PlaneBank(operands)
    return _Window(bank.operands, bank.lengths, bank.cells), operands, codes, sigma == 0.0


class TestStaticStackPlan:
    @settings(max_examples=60, deadline=None)
    @given(static_stacks())
    def test_plan_matches_each_matrix(self, drawn):
        stack, weights, noiseless = drawn
        cells = [np.asarray(m.planes, dtype=np.float32).reshape(m.in_features, -1) for m in stack.matrices]
        _check_plan(stack, cells, [w.T for w in weights], noiseless, derived=True)

    @pytest.mark.parametrize(("in_features", "exact"), [(10, True), (40, False)])
    def test_noiseless_shortcut_needs_every_tile_clip_free(self, in_features, exact):
        # 16-row tiles of the all-MSB code 0: a full tile's SLC sums reach
        # 16 past the 4-bit full scale 15, a 10-row one cannot.
        config = CrossbarConfig(rows=16, cols=32)
        zeros = np.zeros((3, in_features), dtype=np.int64)
        members = [[ProgrammedMatrix(zeros, cell, config=config) for cell in (SLC, MLC2)] for _ in range(2)]
        stack = GemvStack(members)
        cells = [np.asarray(m.planes, dtype=np.float32).reshape(m.in_features, -1) for m in stack.matrices]
        weights_t = [np.zeros((in_features, 3), dtype=np.int64)] * 4
        assert _check_plan(stack, cells, weights_t, noiseless=True, derived=True) == exact


class TestWindowPlan:
    @settings(max_examples=60, deadline=None)
    @given(windows())
    def test_plan_matches_each_operand(self, drawn):
        window, operands, codes, noiseless = drawn
        cells = [
            np.asarray(_DynamicView(op).planes, dtype=np.float32).reshape(len(w_t), -1)
            for op, w_t in zip(operands, codes)
        ]
        _check_plan(window, cells, codes, noiseless, derived=noiseless)

    @pytest.mark.parametrize("sigma", [0.0, DEFAULT_NOISE.sigma(MLC2)])
    def test_lone_operand_reads_a_one_member_window(self, sigma):
        op = DynamicOperand(20, 4, noise_sigma=sigma, config=CrossbarConfig(rows=8, cols=32))
        codes = np.random.default_rng(3).integers(-2, 2, size=(5, 4))
        op.append(codes)
        view = _DynamicView(op)
        window = _Window([op], np.array([op.length]), view.planes[None])
        cells = [np.asarray(view.planes, dtype=np.float32).reshape(5, -1)]
        exact = _check_plan(window, cells, [codes], sigma == 0.0, derived=sigma == 0.0)
        assert exact == (sigma == 0.0)
