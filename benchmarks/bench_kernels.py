"""Crossbar GEMV kernel benchmark: reference vs fast, tracked over PRs.

Times the bit-serial analog GEMV hot path under both kernels of
:mod:`repro.rram.kernels` (the ``reference`` spec and the optimized
``fast`` kernel) across the batch / out-features / cell-type / noise grid,
cross-checking bitwise equivalence at every point, times batched against
per-row decode through the fast kernel, times a Q/K/V level as one call
per programmed matrix against its sibling group's stacked calls, and
wall-clocks the Fig. 12 smoke sweep.  The payload is written to
``BENCH_kernels.json`` at the repo root — the perf-trajectory file CI
uploads as an artifact and gates on (fast must never be slower than
reference on the large-GEMV and prefill-shaped points, nor the sibling
group slower than per-matrix calls).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.exp import ExperimentSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def test_bench_kernels(benchmark, print_header, fresh_runner):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    params = {"reps": 1, "batches": (64,), "out_features": (256,)} if smoke else {}
    spec = ExperimentSpec("bench_kernels", params=params)

    result = benchmark.pedantic(
        lambda: fresh_runner.run(spec), rounds=1, iterations=1
    )
    value = result.value

    print_header("Kernel benchmark — reference vs fast bit-serial GEMV (µs/call)")
    print(f"{'cell':>5} {'noise':>10} {'batch':>5} {'out':>4} {'in':>4} "
          f"{'reference':>11} {'fast':>11} {'speedup':>8} {'shortcut':>8}")
    for row in value["grid"]:
        print(
            f"{row['cell']:>5} {row['noise']:>10} {row['batch']:>5} "
            f"{row['out_features']:>4} {row['in_features']:>4} "
            f"{row['reference_us']:>10.0f}µ {row['fast_us']:>10.0f}µ "
            f"{row['speedup']:>7.1f}x {'yes' if row['exact_shortcut'] else 'no':>8}"
        )
    print_header(f"Prefill-shaped points — calibrated noise, batch {value['prefill'][0]['batch']}")
    print(f"{'cell':>5} {'out':>4} {'in':>4} {'reference':>11} {'fast':>11} "
          f"{'speedup':>8} {'clip-free':>9} {'table':>6}")
    for row in value["prefill"]:
        print(
            f"{row['cell']:>5} {row['out_features']:>4} {row['in_features']:>4} "
            f"{row['reference_us']:>10.0f}µ {row['fast_us']:>10.0f}µ "
            f"{row['speedup']:>7.1f}x {row['clip_free_tiles']:>9} {row['table_tiles']:>6}"
        )
    decode = value["batched_decode"]
    print_header("Batched decode — one fast-kernel call per batch vs per row (tokens/s)")
    print(f"{'batch':>5} {'per-row':>9} {'batched':>9} {'speedup':>8}")
    for row in decode["grid"]:
        print(
            f"{row['batch']:>5} {row['per_row_tok_s']:>9.0f} "
            f"{row['batched_tok_s']:>9.0f} {row['speedup']:>7.1f}x"
        )
    sweep = " ".join(
        f"{p['ways']}-way={p['batched_tok_s']:.0f}" for p in decode["shard_sweep"]
    )
    print(f"shard sweep (batched, batch {decode['gate']['batch']}): {sweep} tok/s")

    print_header("Fused level — Q/K/V per-matrix calls vs the sibling group's stacked calls (µs)")
    print(f"{'TP':>3} {'matrices':>8} {'calls':>5} {'level':>19} {'stage 1':>19}")
    for row in value["fused_level"]:
        print(
            f"{row['tensor_parallel']:>3} {row['matrices']:>8} {row['group_calls']:>5} "
            f"{row['level_per_matrix_us']:>7.0f} -> {row['level_group_us']:>5.0f} "
            f"({row['level_speedup']:>3.1f}x) {row['stage1_per_matrix_us']:>7.0f} -> "
            f"{row['stage1_group_us']:>5.0f} ({row['stage1_speedup']:>3.1f}x)"
        )

    if "fig12_smoke_wall_s" in value:
        print(f"\nfig12 --smoke end-to-end wall-clock: {value['fig12_smoke_wall_s']:.1f}s")

    if smoke:
        # Never clobber the committed full-grid trajectory with a smoke grid.
        print("smoke mode: skipping BENCH_kernels.json update")
    else:
        BENCH_PATH.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BENCH_PATH}")

    # Perf-trajectory gates (ISSUE 2 acceptance criteria).
    large_clean = value["large_noiseless"]
    large_noisy = value["large_noisy"]
    assert large_clean["speedup"] >= 5.0, large_clean
    assert large_noisy["speedup"] >= 2.0, large_noisy
    # The fast kernel must never lose to the reference on a prefill shape.
    for row in value["prefill"]:
        assert row["fast_us"] <= row["reference_us"], row
    # Batched-decode gates (ISSUE 7): one batched call per stage must
    # deliver >= 2x per-row tokens/s at batch 32 and scale superlinearly
    # with batch (fixed packing/dispatch overheads amortize).
    gate, batch1 = decode["gate"], decode["batch1"]
    assert gate["speedup"] >= 2.0, gate
    assert gate["batched_tok_s"] > batch1["batched_tok_s"], decode
    # The sibling group's stacked calls must never lose to one call per
    # programmed matrix, for the level or its stage 1.
    for row in value["fused_level"]:
        assert row["level_group_us"] <= row["level_per_matrix_us"], row
        assert row["stage1_group_us"] <= row["stage1_per_matrix_us"], row
