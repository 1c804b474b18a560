"""Row-level KV-cache slots for continuous (iteration-level) batching.

:class:`RowSlotManager` checks the rows of the scheduler's one shared
cache out to in-flight requests and keeps the live rows as a contiguous
prefix ``[0, n_live)``, so the decode step can run over a zero-copy
:meth:`~repro.nn.kv_cache.KVCache.rows_view`.  Retiring a middle row
returns a swap-with-last compaction move for the caller to apply to the
cache (:meth:`~repro.nn.kv_cache.KVCache.copy_row`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RowSlotManager", "RowSlotStats"]


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
