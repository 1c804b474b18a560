"""Plane-bank KV cache ≡ a per-operand twin, under any cache operation.

:class:`~repro.pim.CrossbarKVCache` writes a step's every ``(row, head)``
K/V tile in one batched region write and reads each layer's operands
through its :class:`~repro.rram.dynamic.PlaneBank`.  The specification is
the plain per-operand store: each operand written on its own through
:meth:`~repro.rram.dynamic.DynamicOperand.write` (row, then head, key
before value) and read on its own through
:meth:`~repro.rram.dynamic.DynamicOperand.gemv`.

A hypothesis state machine drives both through random interleavings of
appends (one token and several), row compaction copies, row clears,
resets, row views and device-clock advances, on a noisy
and a noiseless :class:`~repro.rram.SimBackend` and on a drifting
:class:`~repro.rram.FaultySimBackend`.  After every step, the K and V
reads of every layer, the shared :class:`~repro.rram.GemvStats` and the
wear ledger (dynamic writes, per-tile pulses) must match bitwise.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.pim import CrossbarAttentionExecutor
from repro.rram import MLC2, FaultModel, FaultySimBackend, SimBackend
from repro.rram.crossbar import CrossbarConfig, offset_slices
from repro.rram.noise import DEFAULT_NOISE

LAYERS = 2
BATCH = 3
HEADS = 2
HEAD_DIM = 4
CAPACITY = 10

BACKENDS = {
    "sim-noisy": (SimBackend, DEFAULT_NOISE.sigma(MLC2)),
    "sim-noiseless": (SimBackend, 0.0),
    "faulty-drift": (
        lambda: FaultySimBackend(FaultModel(drift_nu=0.05, stuck_off_rate=0.02), seed=4),
        DEFAULT_NOISE.sigma(MLC2),
    ),
}


def _executor(kind: str) -> CrossbarAttentionExecutor:
    make_backend, sigma = BACKENDS[kind]
    # 8-row arrays: value reads past 8 tokens span two row tiles.
    return CrossbarAttentionExecutor(
        noise_sigma=sigma, backend=make_backend(), seed=9, config=CrossbarConfig(rows=8)
    )


class _PerOperandTwin:
    """The KV store one operand at a time: the specification."""

    def __init__(self, executor: CrossbarAttentionExecutor) -> None:
        self.ex = executor
        # [layer][row][head], every key operand before every value operand
        # (the cache's minting order, which fixes the noise draws).
        self.k, self.v = (
            [
                [[executor.new_operand(CAPACITY, HEAD_DIM, grow) for _ in range(HEADS)] for _ in range(BATCH)]
                for _ in range(LAYERS)
            ]
            for grow in ("bitlines", "wordlines")
        )

    def append(self, layer: int, rows: range, k_new: np.ndarray, v_new: np.ndarray) -> None:
        ex = self.ex
        k_levels = offset_slices(ex.quantize_rows(k_new)[0], ex.cell, ex.weight_bits)
        v_levels = offset_slices(ex.quantize_rows(v_new)[0], ex.cell, ex.weight_bits)
        for r, row in enumerate(rows):
            for h in range(HEADS):
                self.k[layer][row][h].write(k_levels[r, h])
                self.v[layer][row][h].write(v_levels[r, h])

    def swap(self, a: int, b: int) -> None:
        for ops in self.k + self.v:
            ops[a], ops[b] = ops[b], ops[a]

    def clear(self, row: int) -> None:
        for ops in self.k + self.v:
            for op in ops[row]:
                op.truncate()

    def length(self, row: int) -> int:
        return self.k[0][row][0].length


class PlaneBankMachine(RuleBasedStateMachine):
    """Drives a banked cache and its per-operand twin in lockstep."""

    KIND = "sim-noisy"

    @initialize()
    def setup(self) -> None:
        self.cache_ex = _executor(self.KIND)
        self.twin_ex = _executor(self.KIND)
        self.cache = self.cache_ex.make_cache(LAYERS, BATCH, HEADS, HEAD_DIM, CAPACITY)
        self.twin = _PerOperandTwin(self.twin_ex)
        self.rng = np.random.default_rng(0)

    def _window(self, data) -> tuple[int, int]:
        start = data.draw(st.integers(0, BATCH - 1), label="start")
        stop = data.draw(st.integers(start + 1, BATCH), label="stop")
        return start, stop

    def _view(self, start: int, stop: int):
        if (start, stop) == (0, BATCH):
            return self.cache
        return self.cache.rows_view(start, stop)

    # -- operations ------------------------------------------------------
    @rule(data=st.data(), many=st.booleans())
    def append(self, data, many: bool) -> None:
        start, stop = self._window(data)
        rows = range(start, stop)
        room = CAPACITY - max(
            [int(self.cache.lengths[r]) for r in rows] + [self.twin.length(r) for r in rows]
        )
        if room < 1:
            return
        # Several tokens at once only onto aligned rows (as prefill does).
        aligned = len({int(self.cache.lengths[r]) for r in rows}) == 1
        t = data.draw(st.integers(2, room), label="t") if many and aligned and room > 1 else 1
        view = self._view(start, stop)
        for layer in range(LAYERS):
            k_new = self.rng.normal(size=(len(rows), HEADS, t, HEAD_DIM))
            v_new = self.rng.normal(size=(len(rows), HEADS, t, HEAD_DIM))
            view.append(layer, k_new, v_new)
            self.twin.append(layer, rows, k_new, v_new)
        view.advance(t)

    @rule(data=st.data())
    def copy_row(self, data) -> None:
        start, stop = self._window(data)
        src = data.draw(st.integers(start, stop - 1), label="src")
        dst = data.draw(st.integers(start, stop - 1), label="dst")
        self._view(start, stop).copy_row(src - start, dst - start)
        if src != dst:
            self.twin.swap(src, dst)

    @rule(data=st.data())
    def clear_row(self, data) -> None:
        start, stop = self._window(data)
        row = data.draw(st.integers(start, stop - 1), label="row")
        self._view(start, stop).clear_row(row - start)
        self.twin.clear(row)

    @rule(data=st.data())
    def reset(self, data) -> None:
        start, stop = self._window(data)
        self._view(start, stop).reset()
        for row in range(start, stop):
            self.twin.clear(row)

    @rule(days=st.integers(1, 60))
    def advance(self, days: int) -> None:
        self.cache_ex.backend.advance(days * 86_400.0)
        self.twin_ex.backend.advance(days * 86_400.0)

    @rule(data=st.data(), seq=st.integers(1, 3))
    def read(self, data, seq: int) -> None:
        """Both products of every layer over a row window, bank vs twin."""
        start, stop = self._window(data)
        rows = range(start, stop)
        lengths = np.array([self.twin.length(r) for r in rows])
        if not lengths.all():
            return
        slot_view = self._view(start, stop)
        n = len(rows) * HEADS
        per_member = np.repeat(lengths, HEADS)
        for layer in range(LAYERS):
            slot = slot_view.layer(layer)
            q = self.rng.integers(-127, 128, size=(n, seq, HEAD_DIM))
            got = self.cache_ex.gemv(slot.k_bank, q, slot.members)
            p = self.rng.integers(-127, 128, size=(n, seq, int(lengths.max())))
            p *= np.arange(p.shape[2]) < per_member[:, None, None]
            got_v = self.cache_ex.gemv(slot.v_bank, p, slot.members)
            for i, (row, head) in enumerate((r, h) for r in rows for h in range(HEADS)):
                k_op = self.twin.k[layer][row][head]
                v_op = self.twin.v[layer][row][head]
                width = per_member[i]
                np.testing.assert_array_equal(got[i, :, :width], k_op.gemv(q[i]))
                assert not got[i, :, width:].any()
                np.testing.assert_array_equal(got_v[i], v_op.gemv(p[i, :, :width]))

    # -- invariants ------------------------------------------------------
    @invariant()
    def accounting_matches(self) -> None:
        assert self.cache_ex.stats == self.twin_ex.stats
        mine, spec = self.cache_ex.backend.ledger, self.twin_ex.backend.ledger
        assert mine.dynamic_writes == spec.dynamic_writes
        assert mine.dynamic_write_pulses == spec.dynamic_write_pulses
        assert mine.total_write_pulses == spec.total_write_pulses

    @invariant()
    def banks_hold_the_operands(self) -> None:
        """Each bank member is its operand's cells on [0, length), zero past."""
        store = self.cache._store
        for bank in store.k_banks + store.v_banks:
            if bank.epoch != bank.backend.epoch:
                continue  # rebuilt at the next read
            for member, op in enumerate(bank.operands):
                assert op.member == member and bank.lengths[member] == op.length
                expected = np.zeros_like(bank.cells[member])
                span = op._span(0, op.length)
                expected[span] = bank.backend.planes(op._tile)[span]
                np.testing.assert_array_equal(bank.cells[member], expected)


def _machine_test(kind: str):
    """The machine's TestCase on one backend kind."""
    machine = type(f"PlaneBankMachine[{kind}]", (PlaneBankMachine,), {"KIND": kind})
    machine.TestCase.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)
    return machine.TestCase


TestNoisySimBackend = _machine_test("sim-noisy")
TestNoiselessSimBackend = _machine_test("sim-noiseless")
TestDriftingFaultySimBackend = _machine_test("faulty-drift")
