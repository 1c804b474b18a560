"""KV-cache slot management: pooled decode buffers and row-level slots.

Serving traffic churns through many short-lived generation batches; without
pooling, every batch would reallocate ``num_layers * 2`` multi-megabyte K/V
buffers.  :class:`CacheSlotPool` keeps a bounded set of :class:`KVCache`
objects keyed by batch width, hands them out per serving batch, and evicts
the least-recently-used free slot when the pool is full — the software
analogue of a fixed digital-PIM K/V region being re-partitioned between
request batches.  Checked-out caches are tracked so a double release (or a
release of a cache the pool never issued) fails loudly instead of silently
corrupting the pool.

:class:`RowSlotManager` is the row-level counterpart used by continuous
(iteration-level) batching: one shared cache's rows are checked out to
in-flight requests, and the live rows are kept as a contiguous prefix
``[0, n_live)`` so the decode step can run over a zero-copy
:meth:`~repro.nn.kv_cache.KVCache.rows_view`.  Retiring a middle row
returns a swap-with-last compaction move for the caller to apply to the
cache (:meth:`~repro.nn.kv_cache.KVCache.copy_row`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.kv_cache import KVCache
from repro.nn.transformer import DecoderLM

__all__ = ["CacheSlotPool", "SlotPoolStats", "RowSlotManager", "RowSlotStats"]


@dataclass
class SlotPoolStats:
    """Allocation accounting for a :class:`CacheSlotPool`."""

    hits: int = 0  # acquire() satisfied by a pooled slot
    misses: int = 0  # acquire() had to allocate fresh buffers
    evictions: int = 0  # pooled slots dropped to make room

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly counter snapshot."""
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class CacheSlotPool:
    """Bounded LRU pool of :class:`KVCache` slots for one served model.

    Parameters
    ----------
    model:
        The decoder whose geometry (layers / heads / head_dim / max_seq_len)
        sizes every slot.
    max_slots:
        Maximum number of *free* caches retained; in-flight caches are not
        counted (the engine bounds those via its batch size).
    """

    def __init__(self, model: DecoderLM, max_slots: int = 4) -> None:
        if max_slots < 1:
            raise ValueError(f"max_slots must be >= 1, got {max_slots}")
        self._model = model
        self.max_slots = max_slots
        self.stats = SlotPoolStats()
        # LRU order: index 0 is the least recently released.
        self._free: list[KVCache] = []
        # Checked-out caches by identity: release() validates against this,
        # so leaks (never released) and double releases are detectable.
        self._checked_out: dict[int, KVCache] = {}

    def acquire(self, batch: int) -> KVCache:
        """A reset cache with ``batch`` rows (pooled if one matches)."""
        for i, cache in enumerate(self._free):
            if cache.batch == batch:
                self.stats.hits += 1
                cache = self._free.pop(i)
                cache.reset()
                break
        else:
            self.stats.misses += 1
            cache = self._model.new_cache(batch)
        self._checked_out[id(cache)] = cache
        return cache

    def release(self, cache: KVCache) -> None:
        """Return a cache to the pool, evicting the LRU slot if full.

        Releasing a cache that is not currently checked out (double release,
        or a foreign cache) raises — silently accepting it would let one
        cache be handed to two batches at once.
        """
        if self._checked_out.pop(id(cache), None) is None:
            raise ValueError("release() of a cache not checked out from this pool")
        if len(self._free) >= self.max_slots:
            self._free.pop(0)
            self.stats.evictions += 1
        self._free.append(cache)

    @property
    def free_slots(self) -> int:
        """Slots currently available for checkout."""
        return len(self._free)

    @property
    def in_flight(self) -> int:
        """Caches currently checked out (acquired and not yet released)."""
        return len(self._checked_out)


@dataclass
class RowSlotStats:
    """Churn accounting for a :class:`RowSlotManager`."""

    checkouts: int = 0  # rows handed to admitted requests
    retirements: int = 0  # rows returned by finished requests
    compaction_moves: int = 0  # swap-with-last moves applied on retire

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly counter snapshot."""
        return {
            "checkouts": self.checkouts,
            "retirements": self.retirements,
            "compaction_moves": self.compaction_moves,
        }


class RowSlotManager:
    """Tracks which rows of one shared continuous-batching cache are live.

    Live rows always occupy the contiguous prefix ``[0, n_live)`` — that is
    what lets the decode step run over a zero-copy basic-slice view of the
    cache.  :meth:`checkout` hands out the next prefix row; :meth:`retire`
    shrinks the prefix and reports the swap-with-last compaction move the
    caller must apply to the cache (and to its own per-row bookkeeping).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = RowSlotStats()
        self._n_live = 0

    @property
    def n_live(self) -> int:
        """Rows currently holding an in-flight request."""
        return self._n_live

    @property
    def free(self) -> int:
        """Rows available for admission."""
        return self.capacity - self._n_live

    def checkout(self) -> int:
        """Claim the next free row (always ``n_live``, keeping the prefix)."""
        if self._n_live >= self.capacity:
            raise ValueError(f"no free rows (capacity {self.capacity})")
        row = self._n_live
        self._n_live += 1
        self.stats.checkouts += 1
        return row

    def retire(self, row: int) -> int | None:
        """Release ``row``; returns the row to move into its place, if any.

        When ``row`` is not the last live row, the caller must relocate the
        returned source row (the old last live row) into ``row`` — e.g. via
        :meth:`KVCache.copy_row` — to restore the contiguous live prefix.
        Returns ``None`` when ``row`` was already last (no move needed).
        """
        if not (0 <= row < self._n_live):
            raise ValueError(f"row {row} is not live (n_live={self._n_live})")
        self._n_live -= 1
        self.stats.retirements += 1
        if row == self._n_live:
            return None
        self.stats.compaction_moves += 1
        return self._n_live
