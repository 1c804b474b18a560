"""Tests of the benchmark itself: exact repeats, seeding, tracing, metric names.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from fixture import build_fixture  # noqa: E402
from harness import (  # noqa: E402
    VERIFY_REQUESTS,
    WORKLOADS,
    counters,
    drive,
    eval_nll,
    make_stream,
    projection,
    replay,
    set_up,
)
from repro.rram.mapping import MappedMatrix  # noqa: E402
from spans import Tracer, instrument  # noqa: E402


@pytest.fixture(scope="module")
def model():
    return build_fixture()


def _serve(model, name: str, seed: int, count: int = 6, tracer: Tracer | None = None) -> dict:
    """Serve ``count`` requests; return every simulated result."""
    workload = WORKLOADS[name]
    engine, _ = set_up(model, workload)
    stream = make_stream(model, workload, seed, count)
    before = counters(engine)
    if tracer is not None:
        instrument(engine, tracer)
    try:
        window, _ = drive(engine, stream, count=count)
    finally:
        if tracer is not None:
            tracer.close()
    after = counters(engine)
    assert len(window.requests) == count
    assert all(r.ok for r in window.requests)
    return {
        "counters": {k: v - before.get(k, 0) for k, v in after.items()},
        "digest": window.digest(),
        "projected_tok_s": projection(model, engine).pipeline_rate_tokens_per_s(),
        "eval_nll": eval_nll(model, engine),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_simulated_results_exactly(model, name):
    first = _serve(model, name, seed=3)
    assert first["counters"]["gemv.adc_conversions"] > 0
    assert first == _serve(model, name, seed=3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_replay_reproduces_the_served_subset(model, name):
    # token_match compares the first requests a timed engine served, while
    # later requests kept joining the closed loop, with a reference twin.
    workload = WORKLOADS[name]
    stream = make_stream(model, workload, seed=3, size=3 * VERIFY_REQUESTS)
    engine, _ = set_up(model, workload)
    window, _ = drive(engine, stream, count=len(stream))
    reference, _ = replay(model, workload, stream, "reference")
    served = [r.streamed for r in window.requests[:VERIFY_REQUESTS]]
    assert served == [[int(t) for t in tokens] for tokens in reference]


def test_seed_changes_the_generated_requests(model):
    for workload in WORKLOADS.values():
        a = make_stream(model, workload, 3, 16)
        b = make_stream(model, workload, 4, 16)
        assert not np.array_equal(a.tokens, b.tokens)
        again = make_stream(model, workload, 3, 16)
        assert np.array_equal(a.tokens, again.tokens)
        assert np.array_equal(a.budgets, again.budgets)


def test_tracing_changes_no_output_and_restores_methods(model):
    tracer = Tracer()
    original = vars(MappedMatrix)["gemv"]
    traced = _serve(model, "analog_stream", seed=5, count=3, tracer=tracer)
    assert vars(MappedMatrix)["gemv"] is original
    assert traced == _serve(model, "analog_stream", seed=5, count=3)
    summary = tracer.summary()
    for name in ("serve.step", "nn.forward", "nn.attention", "pim.hybrid_linear",
                 "pim.kv_append", "rram.gemv", "rram.dynamic_gemv"):
        assert summary[name]["calls"] > 0, name
    # Self times partition the root spans' wall time.
    roots = sum(e["under"].get("", {"total_s": 0.0})["total_s"] for e in summary.values())
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(roots)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def _children() -> set[int]:
    """Pids of this process's children, running or ended but not waited for."""
    me = str(os.getpid())
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = stat.read_text().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue  # the process ended meanwhile
        if ppid == me:
            children.add(int(stat.parent.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes in /proc")
def test_untraced_parts_leave_no_process_behind(model):
    stream = make_stream(model, WORKLOADS["decode_steady"], seed=3, size=200)
    before = _children()
    parts = run._serve_parts(model, "decode_steady", stream, seconds=1.5)
    assert _children() == before
    assert len(parts) == run.PARTS
    assert all(r.ok for part in parts for r in part["window"].requests)
