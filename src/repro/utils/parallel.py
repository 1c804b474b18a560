"""Process fan-out shared by the experiment runner and core sweeps, plus
the stage-pipeline used by the pipelined block executor."""

from __future__ import annotations

import multiprocessing
import queue
import threading
from typing import Callable, Iterable, TypeVar

__all__ = ["StagePipeline", "map_with_pool"]

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


class StagePipeline:
    """Persistent stage-worker threads connected by FIFO queues.

    ``stages`` is an ordered list of callables ``fn(index, payload) ->
    payload``; :meth:`run` pushes every item through all stages in order,
    with stage *s* of item *i* overlapping stage *s-1* of item *i+1* —
    the classic pipeline-parallel schedule.  Within one stage items are
    processed strictly in submission order by a single dedicated thread,
    so per-stage state (a transformer stage's layers and their stats
    sinks) is never touched concurrently; only *different* stages run at
    the same time.  Threads release the GIL inside BLAS, which is where
    the overlap pays.

    A single-stage pipeline degenerates to a serial in-thread loop (no
    threads are spawned), preserving call order exactly — the sequential
    control the equivalence tests compare against.

    The first exception raised by any stage is re-raised by :meth:`run`
    after the batch drains (failed items skip their remaining stages).
    Workers are daemon threads; :meth:`close` shuts them down promptly,
    and a dropped pipeline is reclaimed at interpreter exit.
    """

    def __init__(self, stages: list[Callable[[int, object], object]]) -> None:
        if not stages:
            raise ValueError("StagePipeline needs at least one stage")
        self.stages = list(stages)
        self._queues: list[queue.Queue] = []
        self._threads: list[threading.Thread] = []
        self._closed = False
        if len(self.stages) > 1:
            # queue s feeds stage s; the extra last queue collects results.
            self._queues = [queue.Queue() for _ in range(len(self.stages) + 1)]
            for s in range(len(self.stages)):
                thread = threading.Thread(
                    target=self._worker, args=(s,), daemon=True,
                    name=f"stage-pipeline-{s}",
                )
                thread.start()
                self._threads.append(thread)

    def _worker(self, s: int) -> None:
        fn = self.stages[s]
        inbox, outbox = self._queues[s], self._queues[s + 1]
        while True:
            job = inbox.get()
            if job is None:  # shutdown sentinel: forward and exit
                outbox.put(None)
                return
            index, payload, error = job
            if error is None:
                try:
                    payload = fn(index, payload)
                except BaseException as exc:  # noqa: BLE001 - re-raised in run()
                    payload, error = None, exc
            outbox.put((index, payload, error))

    def run(self, items: list) -> list:
        """Push ``items`` through every stage; per-item results in order."""
        if self._closed:
            raise RuntimeError("StagePipeline is closed")
        if len(self.stages) == 1:
            fn = self.stages[0]
            return [fn(i, item) for i, item in enumerate(items)]
        for i, item in enumerate(items):
            self._queues[0].put((i, item, None))
        results: list = [None] * len(items)
        first_error: BaseException | None = None
        for _ in range(len(items)):
            index, payload, error = self._queues[-1].get()
            if error is not None and first_error is None:
                first_error = error
            results[index] = payload
        if first_error is not None:
            raise first_error
        return results

    def close(self) -> None:
        """Stop the worker threads (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._threads:
            self._queues[0].put(None)
            for thread in self._threads:
                thread.join(timeout=5.0)
