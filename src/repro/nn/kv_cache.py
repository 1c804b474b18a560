"""Per-layer key/value caches for incremental (O(L)-per-token) decoding.

The paper's decoder workloads execute the dynamic attention products
``Q·Kᵀ`` and ``S·V`` on digital PIM (Fig. 9, orange box) while the static
projections live in analog RRAM.  On real hardware the K/V operands of
those dynamic GEMMs are *written once per token* into the digital-PIM
arrays and reused for every subsequent decode step — recomputing them
would re-stream every static GEMV through the crossbars L times per
emitted token.  :class:`KVCache` models exactly that reuse in software:
each transformer layer appends the keys/values of newly decoded tokens
and attends over the accumulated prefix, turning autoregressive decoding
from O(L²) full-context recompute into O(L) incremental work.

The cache is batched and supports *ragged* rows (per-row valid lengths),
which is what the serving engine (:mod:`repro.serve`) needs to batch
requests whose prompts differ in length: rows append at their own write
positions and expose a key-validity mask for attention.  Rows become
ragged only through writes of real tokens (a prefill pack, below, or
per-row decode appends); nothing shortens a row except retiring it.

For iteration-level (continuous) batching the cache additionally supports
*row-level* operations on a live cache: :meth:`rows_view` /
:meth:`row_view` hand out zero-copy views over a contiguous row range
(basic numpy slicing, so writes land in the parent buffers), letting one
request prefill into its own row while other rows are mid-decode;
:meth:`copy_row` relocates a row's valid prefix (swap-with-last
compaction when a finished request retires); :meth:`clear_row` retires a
row by invalidating its prefix without touching the buffers.

A *prefill pack* fills several empty rows in one model forward:
:class:`PackedLayer` is one layer's view of it, pairing each prompt's
span of the packed positions with its own row's layer slot.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import get_default_dtype

__all__ = ["KVCache", "PackedLayer"]


class KVCache:
    """Preallocated per-layer K/V buffers for a batch of decode streams.

    Parameters
    ----------
    num_layers:
        Number of transformer blocks sharing this cache.
    batch:
        Number of rows (decode streams) cached together.
    num_heads, head_dim:
        Attention geometry; buffers are shaped ``(B, H, capacity, head_dim)``.
    capacity:
        Maximum total tokens per row (prompt + generated); typically the
        model's ``max_seq_len``.
    dtype:
        Buffer dtype; defaults to the process-wide tensor default so cached
        decode obeys the same precision policy as full-context forward.
    """

    def __init__(
        self,
        num_layers: int,
        batch: int,
        num_heads: int,
        head_dim: int,
        capacity: int,
        dtype=None,
    ) -> None:
        if min(num_layers, batch, num_heads, head_dim, capacity) <= 0:
            raise ValueError("all KVCache dimensions must be positive")
        dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()
        shape = (batch, num_heads, capacity, head_dim)
        self.num_layers = num_layers
        self.batch = batch
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.keys = [np.zeros(shape, dtype=dtype) for _ in range(num_layers)]
        self.values = [np.zeros(shape, dtype=dtype) for _ in range(num_layers)]
        #: valid cached tokens per row; rows may diverge (ragged prompts).
        self.lengths = np.zeros(batch, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self.keys[0].dtype

    @property
    def max_length(self) -> int:
        """Longest valid prefix over all rows."""
        return int(self.lengths.max()) if self.batch else 0

    def reset(self) -> None:
        """Forget all cached tokens (buffers are reused, not reallocated)."""
        self.lengths[:] = 0

    def layer(self, index: int) -> "_LayerSlot":
        """A lightweight per-layer handle used by attention modules."""
        return _LayerSlot(self, index)

    # ------------------------------------------------------------------
    # Row-level operations (continuous batching)
    # ------------------------------------------------------------------
    def rows_view(self, start: int, stop: int) -> "KVCache":
        """Zero-copy view over rows ``[start, stop)`` of this cache.

        The view shares the parent's K/V buffers *and* its ``lengths``
        array (basic numpy slicing), so appends/advances through the view
        mutate the parent rows in place.  This is how the continuous
        scheduler prefills one request into its own row (a 1-row view)
        and decodes the live-row prefix (a ``[0, n_live)`` view) while the
        remaining rows stay untouched.
        """
        if not (0 <= start < stop <= self.batch):
            raise ValueError(
                f"rows_view [{start}, {stop}) out of range for batch {self.batch}"
            )
        view = object.__new__(KVCache)
        view.num_layers = self.num_layers
        view.batch = stop - start
        view.num_heads = self.num_heads
        view.head_dim = self.head_dim
        view.capacity = self.capacity
        view.keys = [k[start:stop] for k in self.keys]
        view.values = [v[start:stop] for v in self.values]
        view.lengths = self.lengths[start:stop]
        return view

    def row_view(self, row: int) -> "KVCache":
        """Zero-copy single-row view (see :meth:`rows_view`)."""
        return self.rows_view(row, row + 1)

    def copy_row(self, src: int, dst: int) -> None:
        """Relocate row ``src``'s valid prefix (K/V + length) into ``dst``.

        Used by swap-with-last compaction when a finished request retires
        from the middle of the live-row prefix.  Only the valid prefix is
        copied; ``src``'s buffers are left as-is (cleared separately via
        :meth:`clear_row`).
        """
        if not (0 <= src < self.batch and 0 <= dst < self.batch):
            raise ValueError(f"rows ({src}, {dst}) out of range for batch {self.batch}")
        if src == dst:
            return
        valid = int(self.lengths[src])
        for k_buf, v_buf in zip(self.keys, self.values):
            k_buf[dst, :, :valid] = k_buf[src, :, :valid]
            v_buf[dst, :, :valid] = v_buf[src, :, :valid]
        self.lengths[dst] = valid

    def clear_row(self, row: int) -> None:
        """Retire one row: invalidate its prefix (buffers are reused)."""
        if not (0 <= row < self.batch):
            raise ValueError(f"row {row} out of range for batch {self.batch}")
        self.lengths[row] = 0

    # ------------------------------------------------------------------
    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write ``T`` new tokens per row at each row's current length.

        ``k_new``/``v_new`` are ``(B, H, T, head_dim)``.  Row ``i`` is
        written at positions ``lengths[i] .. lengths[i]+T``; ``lengths`` is
        *not* advanced here (every layer of one forward pass writes at the
        same offsets) — the model calls :meth:`advance` once per pass.
        Returns views over the first ``max(lengths)+T`` cached positions.
        """
        batch, _, t_new, _ = k_new.shape
        if batch != self.batch:
            raise ValueError(f"batch mismatch: cache has {self.batch}, got {batch}")
        if int(self.lengths.max()) + t_new > self.capacity:
            raise ValueError(
                f"KVCache overflow: lengths up to {int(self.lengths.max())} + "
                f"{t_new} new tokens exceed capacity {self.capacity}"
            )
        k_buf, v_buf = self.keys[layer], self.values[layer]
        if np.all(self.lengths == self.lengths[0]):
            # Aligned rows (prefill, or decode after equal-length prompts):
            # contiguous block write.
            start = int(self.lengths[0])
            k_buf[:, :, start : start + t_new] = k_new
            v_buf[:, :, start : start + t_new] = v_new
        else:
            if t_new != 1:
                # Multi-token appends on ragged rows would need per-row causal
                # masks; prefill is always aligned and decode appends one
                # token, so this never happens in supported flows.
                raise ValueError("ragged rows only support single-token appends")
            # Ragged rows: scatter each row at its own offset.  Advanced
            # indices on axes 0/2 around the sliced head axis move the
            # indexed dims to the front, hence the transpose.
            rows = np.arange(self.batch)[:, None]
            cols = self.lengths[:, None] + np.arange(t_new)[None, :]
            k_buf[rows, :, cols] = k_new.transpose(0, 2, 1, 3)
            v_buf[rows, :, cols] = v_new.transpose(0, 2, 1, 3)
        total = self.max_length + t_new
        return k_buf[:, :, :total], v_buf[:, :, :total]

    def advance(self, t_new: int | np.ndarray) -> None:
        """Commit ``t_new`` appended tokens on every row (or per row, as an array)."""
        self.lengths += t_new

    def key_padding_mask(self, total: int) -> np.ndarray | None:
        """Boolean (B, total) mask, True where a key slot is *invalid*.

        Slot ``j`` of row ``i`` is invalid if ``j >= lengths[i] + t`` for the
        tokens appended this pass — callers pass ``total`` = key length of the
        current attention call, so invalid means ``j`` beyond that row's
        valid prefix plus its in-flight tokens.  Returns None when every row
        is aligned (nothing to mask beyond the causal structure).
        """
        if np.all(self.lengths == self.lengths[0]):
            return None
        offsets = total - self.max_length + self.lengths  # per-row valid count
        return np.arange(total)[None, :] >= offsets[:, None]

    def __repr__(self) -> str:
        return (
            f"KVCache(layers={self.num_layers}, batch={self.batch}, "
            f"heads={self.num_heads}, capacity={self.capacity}, "
            f"lengths={self.lengths.tolist()})"
        )


class _LayerSlot:
    """One layer's view of a :class:`KVCache` (what attention modules see)."""

    __slots__ = ("cache", "index")

    def __init__(self, cache: KVCache, index: int) -> None:
        self.cache = cache
        self.index = index

    @property
    def offset(self) -> int:
        """Longest already-committed prefix (query-position offset)."""
        return self.cache.max_length

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.cache.append(self.index, k_new, v_new)

    def key_padding_mask(self, total: int) -> np.ndarray | None:
        return self.cache.key_padding_mask(total)


class PackedLayer:
    """One layer's view of a prefill pack (what attention modules see).

    A pack runs several prompts, concatenated along the sequence axis,
    through one forward into consecutive empty cache rows.  ``segments``
    holds ``(start, stop, slot)`` per prompt: its span of the packed
    positions and the layer slot of its own one-row view, so attention
    reads and writes exactly that prompt's K/V on exactly its row.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: list[tuple[int, int, _LayerSlot]]) -> None:
        self.segments = segments
