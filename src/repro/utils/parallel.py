"""Process fan-out shared by the experiment runner and core sweeps."""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, TypeVar

__all__ = ["map_with_pool"]

T = TypeVar("T")
R = TypeVar("R")


def map_with_pool(fn: Callable[[T], R], items: Iterable[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]``, fanned out over ``workers`` processes.

    ``workers <= 1`` (or a single item) stays serial in-process.  Prefers the
    fork start method so callables and registry state defined in the parent
    (e.g. test-registered experiments) are visible in the children; falls
    back to the platform default where fork is unavailable.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items)
