"""Shared fixtures for the per-figure/table benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
and prints the series it produces, so `pytest benchmarks/ --benchmark-only`
doubles as the experiment log (captured into EXPERIMENTS.md).

The sweep-shaped figures all execute through :class:`repro.exp.Runner`:
results are cached under ``.repro_cache/`` (delete it — or edit any
``repro`` source, which rolls the code fingerprint — to recompute) and
uncached points fan out across a process pool (``REPRO_BENCH_WORKERS``
overrides the pool size; ``0`` forces serial).  The cheap analytic
figures (2, 14-17) use ``fresh_runner`` so their recorded timings always
measure real computation; the training figures (11-13) replay from cache,
so their timings reflect cache state by design.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, as perfbench/run.py sets it: the benchmarked GEMVs
# are too small to gain from BLAS threads, which only add run-to-run
# spread.  Set before numpy is imported; an explicit environment value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from repro.exp import Runner  # noqa: E402


def _default_workers() -> int:
    override = os.environ.get("REPRO_BENCH_WORKERS")
    if override is not None:
        return int(override)
    return min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def runner() -> Runner:
    """Session-wide experiment runner (shared cache + worker pool)."""
    return Runner(workers=_default_workers())


@pytest.fixture(scope="session")
def fresh_runner() -> Runner:
    """Cache-free runner: honest timings for the cheap analytic figs.

    ``use_cache=False`` rather than ``force=True`` so the timed iterations
    measure only the computation, not repeated cache writes — and serial
    (``workers=0``) so sub-millisecond analytic points aren't swamped by
    process-pool startup.
    """
    return Runner(workers=0, use_cache=False)


@pytest.fixture(scope="session")
def print_header(request):
    def _header(title: str) -> None:
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")

    return _header
