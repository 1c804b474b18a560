"""Crossbar-resident KV cache: K/V rows written into MLC tiles per token.

:class:`CrossbarKVCache` subclasses :class:`~repro.nn.kv_cache.KVCache`
and mirrors every cached token into analog crossbar arrays: each
``(layer, row, head)`` owns two :class:`~repro.rram.dynamic.DynamicOperand`
tiles — a *bitline-grown* key operand (queries stream over the wordlines,
one appended column per token) and a *wordline-grown* value operand
(attention probabilities stream over the wordlines, one appended row per
token).  Appended tokens are quantized per-token to signed INT8 with the
dequantization scales kept host-side, so the analog attention path
(:class:`~repro.nn.attention.AnalogAttention`) can execute ``Q·Kᵀ`` and
``S·V`` as crossbar GEMVs and rescale exactly.

Each layer's key operands and its value operands form one
:class:`~repro.rram.dynamic.PlaneBank` apiece, members in ``(row, head)``
order: the effective cells of every tile, stacked as the fast kernel
reads them.  An append writes every ``(row, head)`` K/V tile of the step
in one batched region write
(:meth:`~repro.rram.backend.CrossbarBackend.program_regions`) that also
fills the banks' new columns and rows, and the attention reads hand a
view's run of members straight to the kernel — no per-read copy.

The host-side buffers of the parent class are kept fully coherent (every
append also lands in them), which preserves the complete row-view /
compaction contract the continuous scheduler depends on:

- :meth:`rows_view` hands out views that share the *operand store* and
  translate local row indices through a ``_row0`` offset (a contiguous
  run of bank members);
- :meth:`copy_row` (swap-with-last compaction) *swaps* the src/dst operand
  tiles and their bank members — a logical row-slot remap, free of write
  pulses, matching how a row-slot indirection table would relocate a
  stream on hardware.  The analog content of ``src`` is undefined until
  the scheduler's immediately following :meth:`clear_row`;
- :meth:`clear_row` and :meth:`reset` truncate the affected operands
  logically (no cell writes; their bank members are zeroed); recycled
  rows are overwritten by later appends and accounted as re-programs in
  :class:`~repro.rram.crossbar.GemvStats`.

Every cell write flows through the backend's partial-region primitive and
is therefore recorded in the :class:`~repro.rram.endurance.WearLedger`'s
dynamic channel, one region write per tile; KV-write interconnect traffic
is reported to the executor (and from there to the
:class:`~repro.dist.DeviceMesh` ledger) per append.
"""

from __future__ import annotations

import numpy as np

from repro.nn.kv_cache import KVCache, _LayerSlot
from repro.rram.crossbar import offset_slices
from repro.rram.dynamic import PlaneBank, write_operands

__all__ = ["CrossbarKVCache"]


class _OperandStore:
    """Shared analog state behind a :class:`CrossbarKVCache` and its views.

    Holds one key and one value :class:`~repro.rram.dynamic.PlaneBank`
    per layer, whose members are the ``(row, head)`` operands in
    row-major order, the host-side per-token dequantization scales, and
    the executor that quantizes appends and accounts traffic.  Views
    created by :meth:`CrossbarKVCache.rows_view` alias this object and
    translate local rows through their ``_row0`` offset.
    """

    __slots__ = ("executor", "k_banks", "v_banks", "k_scales", "v_scales")

    def __init__(self, executor, num_layers, batch, num_heads, head_dim, capacity):
        self.executor = executor
        members = batch * num_heads
        # Every key operand, then every value operand: minting draws from
        # the executor's noise generator, so this order fixes the cells.
        k_ops = [
            [executor.new_operand(capacity, head_dim, grow="bitlines") for _ in range(members)]
            for _ in range(num_layers)
        ]
        v_ops = [
            [executor.new_operand(capacity, head_dim, grow="wordlines") for _ in range(members)]
            for _ in range(num_layers)
        ]
        self.k_banks = [PlaneBank(ops) for ops in k_ops]
        self.v_banks = [PlaneBank(ops) for ops in v_ops]
        self.k_scales = [np.zeros((batch, num_heads, capacity)) for _ in range(num_layers)]
        self.v_scales = [np.zeros((batch, num_heads, capacity)) for _ in range(num_layers)]


class _CrossbarLayerSlot(_LayerSlot):
    """Per-layer cache handle that additionally exposes the analog operands.

    The extra surface (``analog``/``executor``/``lengths``/``k_bank``...)
    is what :class:`~repro.nn.attention.AnalogAttention` duck-checks to
    select the crossbar execution path; plain hosts see only the
    inherited :class:`~repro.nn.kv_cache._LayerSlot` contract.
    """

    __slots__ = ()

    @property
    def analog(self) -> "_CrossbarLayerSlot":
        """Marker + handle bundle for the analog attention path."""
        return self

    @property
    def executor(self):
        """The deploy-wide crossbar attention executor."""
        return self.cache._store.executor

    @property
    def lengths(self) -> np.ndarray:
        """Committed per-row valid lengths (this view's rows)."""
        return self.cache.lengths

    @property
    def _rows(self) -> slice:
        return slice(self.cache._row0, self.cache._row0 + self.cache.batch)

    @property
    def members(self) -> slice:
        """This view's ``(row, head)`` members of the layer's banks."""
        return self.cache._members

    @property
    def k_bank(self) -> PlaneBank:
        """The layer's key (bitline-grown) operand bank."""
        return self.cache._store.k_banks[self.index]

    @property
    def v_bank(self) -> PlaneBank:
        """The layer's value (wordline-grown) operand bank."""
        return self.cache._store.v_banks[self.index]

    @property
    def k_scales(self) -> np.ndarray:
        """Per-token key dequantization scales, ``(rows, heads, capacity)``."""
        return self.cache._store.k_scales[self.index][self._rows]

    @property
    def v_scales(self) -> np.ndarray:
        """Per-token value dequantization scales, ``(rows, heads, capacity)``."""
        return self.cache._store.v_scales[self.index][self._rows]


class CrossbarKVCache(KVCache):
    """KV cache whose tokens are mirrored into crossbar dynamic operands.

    Construct through
    :meth:`~repro.pim.attention.CrossbarAttentionExecutor.make_cache` —
    the executor supplies cell type, noise, kernel policy, backend, the
    shared :class:`~repro.rram.crossbar.GemvStats` sink and interconnect
    accounting.  Fully substitutable for a plain ``KVCache``: the host
    mirror buffers stay coherent, so masks, compaction and host-path
    attention all behave identically.
    """

    def __init__(
        self,
        num_layers: int,
        batch: int,
        num_heads: int,
        head_dim: int,
        capacity: int,
        dtype=None,
        executor=None,
    ) -> None:
        if executor is None:
            raise ValueError("CrossbarKVCache requires an executor (see make_cache)")
        super().__init__(num_layers, batch, num_heads, head_dim, capacity, dtype)
        self._store = _OperandStore(executor, num_layers, batch, num_heads, head_dim, capacity)
        self._row0 = 0

    # ------------------------------------------------------------------
    def layer(self, index: int) -> _CrossbarLayerSlot:
        """Per-layer handle carrying both host and analog surfaces."""
        return _CrossbarLayerSlot(self, index)

    def rows_view(self, start: int, stop: int) -> "CrossbarKVCache":
        """Zero-copy row view sharing host buffers *and* the operand store."""
        if not (0 <= start < stop <= self.batch):
            raise ValueError(
                f"rows_view [{start}, {stop}) out of range for batch {self.batch}"
            )
        view = object.__new__(type(self))
        view.num_layers = self.num_layers
        view.batch = stop - start
        view.num_heads = self.num_heads
        view.head_dim = self.head_dim
        view.capacity = self.capacity
        view.keys = [k[start:stop] for k in self.keys]
        view.values = [v[start:stop] for v in self.values]
        view.lengths = self.lengths[start:stop]
        view._store = self._store
        view._row0 = self._row0 + start
        return view

    # ------------------------------------------------------------------
    @property
    def _members(self) -> slice:
        """This view's ``(row, head)`` members of every bank."""
        heads = self.num_heads
        return slice(self._row0 * heads, (self._row0 + self.batch) * heads)

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray):
        """Append to the host mirror, then write the tokens into the operands.

        The whole ``(rows, heads, t, d)`` K and V blocks are quantized
        per token to signed INT8 and bit-sliced once; each row/head's
        ``t`` new tokens become ``t`` columns of its key operand and ``t``
        rows of its value operand (both at the row's committed length —
        the same positions the host mirror writes), all in one
        :func:`~repro.rram.dynamic.write_operands` call that also fills the
        layer's banks, and their dequantization scales are stored.  The
        block is written row by row, head by head, key before value:
        every operand draws its programming noise from the executor's one
        generator, so this order fixes the noisy cells.  Write wear and
        initial-vs-reprogram cell counts accrue to the executor's shared
        stats; KV-write bytes are reported for interconnect accounting.
        """
        start_lengths = self.lengths.copy()
        out = super().append(layer, k_new, v_new)
        store, ex = self._store, self._store.executor
        k_codes, k_s = ex.quantize_rows(k_new)
        v_codes, v_s = ex.quantize_rows(v_new)
        # (rows, heads, K|V, t, d, slices), flattened to one operand each.
        levels = offset_slices(np.stack([k_codes, v_codes], axis=2), ex.cell, ex.weight_bits)
        members = self._members
        k_ops = store.k_banks[layer].operands[members]
        v_ops = store.v_banks[layer].operands[members]
        write_operands(
            [op for pair in zip(k_ops, v_ops) for op in pair],
            levels.reshape((-1,) + levels.shape[3:]),
        )
        rows = np.arange(self._row0, self._row0 + self.batch)[:, None]
        positions = start_lengths[:, None] + np.arange(k_new.shape[2])
        store.k_scales[layer][rows, :, positions] = k_s.transpose(0, 2, 1)
        store.v_scales[layer][rows, :, positions] = v_s.transpose(0, 2, 1)
        ex.record_kv_write(layer, self.batch, k_new.shape[2], self.head_dim, self.num_heads)
        return out

    # ------------------------------------------------------------------
    # Row-level operations (continuous batching)
    # ------------------------------------------------------------------
    def copy_row(self, src: int, dst: int) -> None:
        """Relocate ``src``'s prefix into ``dst``; analog side swaps tiles.

        The operand swap is a logical row-slot remap (no write pulses) —
        after it, ``src``'s analog content is undefined until the
        scheduler's immediately following :meth:`clear_row`.
        """
        if not (0 <= src < self.batch and 0 <= dst < self.batch):
            raise ValueError(f"rows ({src}, {dst}) out of range for batch {self.batch}")
        if src == dst:
            return
        super().copy_row(src, dst)
        store = self._store
        gs, gd = self._row0 + src, self._row0 + dst
        for layer in range(self.num_layers):
            for bank in (store.k_banks[layer], store.v_banks[layer]):
                for h in range(self.num_heads):
                    bank.swap(gs * self.num_heads + h, gd * self.num_heads + h)
            store.k_scales[layer][[gs, gd]] = store.k_scales[layer][[gd, gs]]
            store.v_scales[layer][[gs, gd]] = store.v_scales[layer][[gd, gs]]

    def clear_row(self, row: int) -> None:
        """Retire one row: host prefix invalidated, operands truncated."""
        super().clear_row(row)
        self._truncate_row(row)

    def reset(self) -> None:
        """Forget all cached tokens of this view's rows, operands included."""
        super().reset()
        for r in range(self.batch):
            self._truncate_row(r)

    def _truncate_row(self, row: int) -> None:
        first = (self._row0 + row) * self.num_heads
        store = self._store
        for banks in (store.k_banks, store.v_banks):
            for bank in banks:
                for op in bank.operands[first : first + self.num_heads]:
                    op.truncate()

    def __repr__(self) -> str:
        return (
            f"CrossbarKVCache(layers={self.num_layers}, batch={self.batch}, "
            f"heads={self.num_heads}, capacity={self.capacity}, "
            f"lengths={self.lengths.tolist()}, row0={self._row0})"
        )
