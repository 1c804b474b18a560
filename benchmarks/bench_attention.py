"""Analog-attention benchmark: dynamic-operand crossbar serving.

Serves identical ragged prompt sets through a float-host engine, an
analog deployment (``deploy(attention="analog")`` — QK^T and AV as
crossbar GEMVs over MLC dynamic operands) and the quantized numpy
reference across a batch grid, measuring tokens/s, token agreement and
KV-write wear.  The payload is written to ``BENCH_attention.json`` at
the repo root — the attention perf-trajectory file CI uploads as an
artifact and gates on: noiseless analog tokens bitwise equal to the
quantized reference at every batch point, analog tokens/s at the largest
batch above batch 1, wear counters strictly monotone across the grid, and
positive finite KV-write wear per token.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.exp import ExperimentSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_attention.json"


def test_bench_attention(benchmark, print_header, fresh_runner):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    params = (
        {"attention_batches": (1, 2), "attention_new_tokens": 6, "reps": 3}
        if smoke
        else {}
    )
    spec = ExperimentSpec("bench_attention", params=params)

    result = benchmark.pedantic(
        lambda: fresh_runner.run(spec), rounds=1, iterations=1
    )
    value = result.value

    print_header("Analog attention — host vs MLC dynamic-operand crossbar (tokens/s)")
    print(
        f"{'batch':>5} {'new':>4} {'host':>9} {'analog':>9} "
        f"{'slowdown':>9} {'ref agree':>10} {'host agree':>11}"
    )
    for row in value["grid"]:
        print(
            f"{row['batch']:>5} {row['new_tokens']:>4} {row['host_tok_s']:>9.0f} "
            f"{row['analog_tok_s']:>9.0f} {row['analog_over_host']:>8.2f}x "
            f"{row['reference_agreement']:>10.2f} {row['host_agreement']:>11.2f}"
        )
    wear = value["wear"]
    print(
        f"\nKV-write wear: {wear['kv_tokens_written']} tokens cached, "
        f"{wear['write_pulses_per_token']:.0f} write pulses/token, "
        f"max wear {wear['max_wear_fraction_per_1k_tokens']:.3g} per 1k tokens"
    )

    if smoke:
        # Never clobber the committed full-grid trajectory with a smoke grid.
        print("smoke mode: skipping BENCH_attention.json update")
    else:
        BENCH_PATH.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BENCH_PATH}")

    # Perf-trajectory gates (ISSUE 8 acceptance criteria): the noiseless
    # analog deployment must emit exactly the quantized reference's tokens
    # at every batch point, the wear counters must have grown strictly
    # monotonically across the grid (every KV write accounted), and the
    # per-token wear must be positive and finite.
    gate = value["gate"]
    assert gate["noiseless_reference_agreement"] == 1.0, gate
    assert all(row["reference_agreement"] == 1.0 for row in value["grid"]), value["grid"]
    # Stacked (row, head) tiles amortize across rows: the largest batch
    # must out-serve batch 1.
    grid = value["grid"]
    assert grid[-1]["analog_tok_s"] > grid[0]["analog_tok_s"], grid
    assert gate["wear_monotone"], gate
    snapshots = gate["wear_snapshots"]
    for prev, cur in zip(snapshots, snapshots[1:]):
        assert cur["kv_tokens_written"] > prev["kv_tokens_written"], snapshots
        assert cur["dynamic_write_pulses"] > prev["dynamic_write_pulses"], snapshots
    assert 0 < wear["write_pulses_per_token"] < float("inf"), wear
    assert wear["max_wear_fraction_per_1k_tokens"] > 0, wear
