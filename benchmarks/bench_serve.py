"""Serving benchmark: decode paths and batching policies.

Times ``DecoderLM.generate`` under the KV-cached and naive O(L²) paths
across a batch grid (cross-checking token-for-token greedy equality at
every point), measures end-to-end ``ServingEngine`` throughput over a
ragged request stream, and replays a mixed-length trace under static
batching (one batched ``generate`` per FIFO batch) vs the engine's
continuous (iteration-level) scheduling.  The payload is written to
``BENCH_serve.json`` at the repo root — the decode-path perf-trajectory
file CI uploads as an artifact and gates on: cached decode must never be
slower than the naive recompute on the large point, and continuous
scheduling must achieve >= 1.3x the static baseline's tokens/s with
strictly lower mean TTFT on the mixed trace, and its admissions must
share prefill forwards (fewer forwards than requests).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.exp import ExperimentSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def test_bench_serve(benchmark, print_header, fresh_runner):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    params = (
        {
            "batches": (8,),
            "reps": 1,
            "engine_requests": 8,
            "trace_requests": 16,
            "trace_max_batch": 4,
        }
        if smoke
        else {}
    )
    spec = ExperimentSpec("bench_serve", params=params)

    result = benchmark.pedantic(
        lambda: fresh_runner.run(spec), rounds=1, iterations=1
    )
    value = result.value

    print_header("Serving benchmark — naive O(L²) recompute vs KV-cached decode (tokens/s)")
    print(f"{'batch':>5} {'prompt':>6} {'new':>4} {'naive':>10} {'cached':>10} {'speedup':>8}")
    for row in value["grid"]:
        print(
            f"{row['batch']:>5} {row['prompt_len']:>6} {row['new_tokens']:>4} "
            f"{row['naive_tok_s']:>10.0f} {row['cached_tok_s']:>10.0f} "
            f"{row['speedup']:>7.1f}x"
        )
    engine = value["engine"]
    print(
        f"\nengine (continuous scheduling, max_batch={engine['max_batch_size']}): "
        f"{engine['tokens_per_s']:.0f} tok/s over {engine['requests_completed']} requests, "
        f"mean batch {engine['mean_batch_size']:.1f}, "
        f"p95 latency {engine['p95_latency_s'] * 1e3:.1f}ms"
    )

    trace = value["trace"]
    print(
        f"\nmixed-length trace ({trace['num_requests']} requests, every "
        f"{trace['long_every']}th long, max_batch={trace['max_batch_size']}):"
    )
    print(f"{'scheduler':>11} {'tok/s':>8} {'mean TTFT':>10} {'p95 TTFT':>10} {'mean TPOT':>10}")
    for key in ("static", "continuous"):
        row = trace[key]
        print(
            f"{row['scheduler']:>11} {row['tok_s']:>8.0f} "
            f"{row['mean_ttft_s'] * 1e3:>9.1f}ms {row['p95_ttft_s'] * 1e3:>9.1f}ms "
            f"{row['mean_tpot_s'] * 1e3:>9.2f}ms"
        )
    print(f"continuous vs static: {trace['speedup']}x tokens/s, TTFT ratio {trace['ttft_ratio']}")

    if smoke:
        # Never clobber the committed full-grid trajectory with a smoke grid.
        print("smoke mode: skipping BENCH_serve.json update")
    else:
        BENCH_PATH.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BENCH_PATH}")

    # Perf-trajectory gates (ISSUE 3/4 acceptance criteria): cached decode
    # must never lose to naive recompute (>= 5x on the large point), and
    # continuous scheduling must beat static batching by >= 1.3x tokens/s
    # with strictly lower mean TTFT on the mixed-length trace.
    large = value["large"]
    assert large["cached_tok_s"] >= large["naive_tok_s"], large
    assert large["speedup"] >= 5.0, large
    assert trace["speedup"] >= 1.3, trace
    assert trace["continuous"]["mean_ttft_s"] < trace["static"]["mean_ttft_s"], trace
    # Packing gate: the trace's short prompts admitted in one step share
    # one prefill forward, so a fallback to per-request prefill shows up
    # as forwards == requests.
    continuous = trace["continuous"]
    assert continuous["prefill_forwards"] < continuous["requests"], continuous
