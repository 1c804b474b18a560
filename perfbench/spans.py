"""Outside-in span tracing of a deployed serving engine.

Spans are recorded by wrapping public methods of the deployed instances
(and, where the instances are created per call, of their classes) for the
duration of a traced window; :meth:`Tracer.close` puts every method back.
No library code is modified.  Spans nest as::

    serve.step > nn.prefill > nn.forward > nn.attention / nn.ffn
               > pim.hybrid_linear / pim.kv_append
               > rram.gemv / rram.dynamic_gemv / rram.dynamic_append

A span's self time is its duration minus the durations of its direct
children, so self times summed over every span equal the root spans' wall
time exactly.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.pim.kv_cache import CrossbarKVCache
from repro.rram.dynamic import DynamicOperand
from repro.rram.mapping import MappedMatrix

__all__ = ["Tracer", "instrument"]


def _leading_rows(array) -> int:
    """Rows of a 2-D operand, or all leading positions of an activation."""
    shape = np.shape(getattr(array, "data", array))
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """In-memory span recorder plus the method patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    def wrap(self, owner, attr: str, name: str, rows: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is an instance (the wrapper shadows the bound method) or a
        class (the wrapper receives ``self`` first).  ``rows(args)`` gives
        the work count stored on the span.
        """
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        original = getattr(owner, attr)
        clock = time.perf_counter
        names, starts, ends = self.names, self.starts, self.ends
        parents, counts, stack = self.parents, self.rows, self._stack

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            counts.append(rows(args) if rows is not None else 0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(owner, attr, traced)

    def close(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._patches:
            owner, attr, had_own, previous = self._patches.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s``, ``rows`` and ``under``.

        ``under`` splits the same calls/total/rows by parent span name
        (e.g. ``nn.forward`` under ``nn.prefill`` versus under
        ``serve.step``).
        """
        n = len(self.names)
        if n == 0:
            return {}
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        nested = parents >= 0
        child = np.zeros(n)
        np.add.at(child, parents[nested], duration[nested])
        own = duration - child
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0, "under": {}}
            )
            parent = self.names[parents[i]] if parents[i] >= 0 else ""
            under = entry["under"].setdefault(parent, {"calls": 0, "total_s": 0.0, "rows": 0})
            for slot in (entry, under):
                slot["calls"] += 1
                slot["total_s"] += float(duration[i])
                slot["rows"] += self.rows[i]
            entry["self_s"] += float(own[i])
        return out


def instrument(engine, tracer: Tracer) -> None:
    """Wrap every layer boundary of ``engine``'s deployed model."""
    model = engine.model
    tracer.wrap(engine, "step", "serve.step")
    tracer.wrap(model, "prefill", "nn.prefill", rows=lambda a: int(np.size(a[0])))
    tracer.wrap(model, "forward", "nn.forward", rows=lambda a: int(np.size(a[0])))
    for block in model.blocks:
        tracer.wrap(block.attn, "forward", "nn.attention")
        tracer.wrap(block.ffn, "forward", "nn.ffn")
    for layer in engine.hybrid_layers.values():
        tracer.wrap(layer, "forward", "pim.hybrid_linear", rows=lambda a: _leading_rows(a[0]))
    # Mapped matrices, KV operands and cache views are created inside the
    # library (and per step), so their methods are wrapped on the class.
    tracer.wrap(MappedMatrix, "gemv", "rram.gemv", rows=lambda a: _leading_rows(np.atleast_2d(a[1])))
    tracer.wrap(CrossbarKVCache, "append", "pim.kv_append", rows=lambda a: int(np.shape(a[2])[0]))
    tracer.wrap(DynamicOperand, "gemv", "rram.dynamic_gemv")
    tracer.wrap(DynamicOperand, "append", "rram.dynamic_append")
