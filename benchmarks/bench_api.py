"""Scale-out serving benchmark: replica pool, streaming API, projection.

Measures the PR-10 serving tier end to end: ``ReplicaPool`` tokens/s at
1/2/4 worker processes, client-observed p50/p99 TTFT and end-to-end
latency of the ``ApiServer`` SSE endpoint under open-loop Poisson load
(arrival rates calibrated to measured capacity), and
measured-vs-``HardwareProjection`` replica-scaling agreement.

The payload is written to ``BENCH_api.json`` at the repo root — uploaded
as a CI artifact and gated.  All perf gates are **capacity-aware**: the
payload records the host's scheduler-affinity CPU count, and the full
threshold (4-replica pool >= 2.5x one replica) only applies when the
host has enough cores to express the parallelism.  Constrained hosts (the 1-CPU container this repo grows in)
get no-collapse bounds instead — scale-out must never lose badly to the
single-engine baseline just because the host can't run it concurrently.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.exp import ExperimentSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_api.json"


def _gates(value: dict) -> dict:
    """Capacity-aware gate thresholds, recorded alongside the assertions."""
    cpus = int(value["cpus"])
    grid = value["replica_scaling"]["grid"]
    top = grid[-1]
    replicas = int(top["replicas"])
    # 2.5x at the 4-replica point when the host can actually run 4 workers;
    # scaled pro-rata for a shrunken (smoke) grid; no-collapse otherwise.
    pool_min = 0.625 * replicas if cpus >= replicas else 0.45
    return {
        "cpus": cpus,
        "replicas_gated": replicas,
        "pool_speedup_min": round(pool_min, 3),
        "p99_ttft_max_s": 1.0,
        "projection_headroom": 1.1,
    }


def test_bench_api(benchmark, print_header, fresh_runner):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    params = (
        {
            "replicas": (1, 2),
            "pool_requests": 6,
            "api_requests": 6,
            "utilizations": (0.5,),
            "new_tokens": 8,
        }
        if smoke
        else {}
    )
    spec = ExperimentSpec("bench_api", params=params)

    result = benchmark.pedantic(lambda: fresh_runner.run(spec), rounds=1, iterations=1)
    value = result.value

    print_header("Scale-out serving benchmark — replica pool, streaming API, projection")
    print(f"host cpus: {value['cpus']}")
    scaling = value["replica_scaling"]
    print(
        f"\nreplica pool ({scaling['num_requests']} requests, "
        f"prompt {scaling['prompt_len']}, new {scaling['new_tokens']}):"
    )
    print(f"{'replicas':>8} {'tok/s':>8} {'speedup':>8}")
    for row in scaling["grid"]:
        print(f"{row['replicas']:>8} {row['tok_s']:>8.0f} {row['speedup']:>7.2f}x")

    api = value["api_streaming"]
    print(
        f"\nopen-loop Poisson vs ApiServer SSE "
        f"(measured capacity {api['capacity_tok_s']:.0f} tok/s):"
    )
    print(
        f"{'util':>5} {'rate/s':>7} {'done':>5} {'p50 TTFT':>9} {'p99 TTFT':>9} "
        f"{'p50 e2e':>9} {'p99 e2e':>9}"
    )
    for row in api["sweep"]:
        print(
            f"{row['utilization']:>5.2f} {row['rate_per_s']:>7.1f} {row['completed']:>5} "
            f"{row['p50_ttft_s'] * 1e3:>8.1f}ms {row['p99_ttft_s'] * 1e3:>8.1f}ms "
            f"{row['p50_latency_s'] * 1e3:>8.1f}ms {row['p99_latency_s'] * 1e3:>8.1f}ms"
        )

    projection = value["projection"]
    print("\nmeasured vs projected replica scaling (replication case 2):")
    for row in projection["scaling"]:
        print(
            f"  {row['replicas']} replicas: measured {row['measured_speedup']}x, "
            f"projected {row['projected_speedup']}x, efficiency {row['efficiency']}"
        )

    gates = _gates(value)
    value["gates"] = gates
    print(f"\ngates: {gates}")

    if smoke:
        # Never clobber the committed full-grid trajectory with a smoke grid.
        print("smoke mode: skipping BENCH_api.json update")
    else:
        BENCH_PATH.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BENCH_PATH}")

    # Capacity-aware perf gates (PR-10 acceptance criteria).
    top = scaling["grid"][-1]
    assert top["speedup"] >= gates["pool_speedup_min"], (top, gates)
    # Bounded p99 TTFT in the under-capacity (0.5 utilization) regime, and
    # nothing rejected there (queue depth never approaches the bound).
    low = api["sweep"][0]
    assert low["p99_ttft_s"] <= gates["p99_ttft_max_s"], low
    assert low["completed"] == api["num_requests"], low
    # Measured replication never beats the ideal hardware projection.
    for row in projection["scaling"]:
        assert row["measured_speedup"] <= row["projected_speedup"] * gates["projection_headroom"], row
        assert row["efficiency"] > 0, row
