"""Scale-out serving benchmark: replica throughput, API SLOs, projection.

The ``bench_api`` study measures the PR-10 serving tier end to end:

- **replica_scaling** — wall-clocked tokens/s of a
  :class:`~repro.serve.ReplicaPool` of real worker processes at 1/2/4
  replicas over the same request set (paper replication case 2: the same
  model programmed onto N chip sets, load-balanced).
- **api_streaming** — an open-loop Poisson load generator against the
  :class:`~repro.serve.ApiServer` SSE endpoint; recorded TTFT and
  end-to-end latency are *client-observed* (socket send to first event on
  the wire), swept over arrival rates calibrated to measured capacity.
- **projection** — measured replica scaling against the
  :class:`~repro.dist.HardwareProjection` replication model (N data-parallel
  replicas project N x one replica's rate; no cross-replica coupling).

Every measured section is host-capacity dependent: the payload records
``cpus`` (the scheduler affinity count) and the benchmark driver keys its
perf gates on it — full scaling thresholds need real cores, a 1-CPU runner
only gets no-regression bounds.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

import numpy as np

from repro.exp.registry import experiment

__all__ = ["bench_api"]

#: Replica counts of the scaling sweep (the 4-replica point is the gated one).
API_REPLICAS = (1, 2, 4)
#: Open-loop utilization points (arrival rate as a fraction of measured
#: single-engine capacity).  The 0.5 point is the gated "bounded p99 TTFT"
#: regime; 0.9 documents queueing growth near saturation.
API_UTILIZATIONS = (0.5, 0.9)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _api_model_config(params: dict[str, Any], seed: int):
    from repro.nn import TransformerConfig

    return TransformerConfig(
        vocab_size=int(params.get("vocab_size", 96)),
        d_model=int(params.get("d_model", 48)),
        num_heads=int(params.get("num_heads", 4)),
        num_layers=int(params.get("num_layers", 2)),
        d_ff=int(params.get("d_ff", 128)),
        max_seq_len=int(params.get("max_seq_len", 48)),
        seed=seed,
    )


def _make_requests(
    config, num_requests: int, prompt_len: int, new_tokens: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, int]]:
    return [
        (rng.integers(0, config.vocab_size, size=prompt_len), new_tokens)
        for _ in range(num_requests)
    ]


# ----------------------------------------------------------------------
# Replica scaling (process pool, real scale-out)
# ----------------------------------------------------------------------
def _pool_point(config, requests, replicas: int, processes: bool) -> dict[str, Any]:
    from repro.nn import DecoderLM
    from repro.serve import ReplicaPool, ServingEngine

    def factory(index: int) -> ServingEngine:
        return ServingEngine(DecoderLM(config), max_batch_size=8, max_wait_s=0.0)

    with ReplicaPool(
        factory, replicas=replicas, router="least_outstanding_tokens", processes=processes
    ) as pool:
        start = time.perf_counter()
        ids = [pool.submit(prompt, budget) for prompt, budget in requests]
        results = {r.request_id: r for r in pool.drain(timeout_s=120.0)}
        wall_s = time.perf_counter() - start
        tokens = sum(int(results[rid].tokens.size) for rid in ids)
    return {
        "replicas": replicas,
        "processes": processes,
        "tokens": tokens,
        "wall_s": round(wall_s, 4),
        "tok_s": round(tokens / wall_s, 1),
    }


def _replica_scaling(config, params: dict[str, Any], rng: np.random.Generator) -> dict[str, Any]:
    replicas = tuple(int(r) for r in params.get("replicas", API_REPLICAS))
    num_requests = int(params.get("pool_requests", 16))
    prompt_len = int(params.get("prompt_len", 8))
    new_tokens = int(params.get("new_tokens", 16))
    processes = bool(params.get("pool_processes", True))
    requests = _make_requests(config, num_requests, prompt_len, new_tokens, rng)
    grid = [_pool_point(config, requests, n, processes) for n in replicas]
    base = grid[0]["tok_s"]
    for row in grid:
        row["speedup"] = round(row["tok_s"] / base, 2) if base else 0.0
    return {
        "num_requests": num_requests,
        "prompt_len": prompt_len,
        "new_tokens": new_tokens,
        "grid": grid,
    }


# ----------------------------------------------------------------------
# Open-loop Poisson load against the streaming API
# ----------------------------------------------------------------------
def _engine_capacity_tok_s(config, requests) -> float:
    """Measured single-engine tokens/s used to calibrate arrival rates."""
    from repro.nn import DecoderLM
    from repro.serve import ServingEngine

    engine = ServingEngine(DecoderLM(config), max_batch_size=8, max_wait_s=0.0)
    start = time.perf_counter()
    results = engine.serve([p for p, _ in requests], max_new_tokens=requests[0][1])
    wall_s = time.perf_counter() - start
    tokens = sum(int(r.tokens.size) for r in results)
    return tokens / wall_s


def _poisson_arrivals(n: int, rate_per_s: float, rng: np.random.Generator) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))


def _open_loop_point(
    server, requests, rate_per_s: float, rng: np.random.Generator
) -> dict[str, Any]:
    """Fire requests at Poisson arrival times; collect client-side timings."""
    from repro.serve.api import stream_generate

    arrivals = _poisson_arrivals(len(requests), rate_per_s, rng)
    outcomes: list[dict | None] = [None] * len(requests)

    def client(i: int, offset: float, prompt: np.ndarray, budget: int) -> None:
        time.sleep(max(0.0, offset - (time.perf_counter() - epoch)))
        outcomes[i] = stream_generate(
            server.host,
            server.port,
            {"prompt": [int(t) for t in prompt], "max_new_tokens": budget},
        )

    epoch = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(i, arrivals[i], prompt, budget))
        for i, (prompt, budget) in enumerate(requests)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    done = [o for o in outcomes if o is not None and o.get("status") == 200]
    rejected = sum(1 for o in outcomes if o is not None and o.get("status") == 503)
    ttft = np.array([o["client_ttft_s"] for o in done]) if done else np.zeros(1)
    e2e = np.array([o["client_latency_s"] for o in done]) if done else np.zeros(1)
    tokens = sum(len(o["tokens"]) for o in done)
    span = float(arrivals[-1] + e2e.max()) if done else 0.0
    return {
        "rate_per_s": round(rate_per_s, 2),
        "completed": len(done),
        "rejected": rejected,
        "tokens": tokens,
        "tok_s": round(tokens / span, 1) if span else 0.0,
        "p50_ttft_s": round(float(np.percentile(ttft, 50)), 6),
        "p99_ttft_s": round(float(np.percentile(ttft, 99)), 6),
        "p50_latency_s": round(float(np.percentile(e2e, 50)), 6),
        "p99_latency_s": round(float(np.percentile(e2e, 99)), 6),
    }


def _api_streaming(config, params: dict[str, Any], rng: np.random.Generator) -> dict[str, Any]:
    from repro.nn import DecoderLM
    from repro.serve import AdmissionPolicy, ApiServer, ServingEngine

    num_requests = int(params.get("api_requests", 12))
    prompt_len = int(params.get("prompt_len", 8))
    new_tokens = int(params.get("api_new_tokens", 8))
    utilizations = tuple(float(u) for u in params.get("utilizations", API_UTILIZATIONS))
    requests = _make_requests(config, num_requests, prompt_len, new_tokens, rng)
    capacity_tok_s = _engine_capacity_tok_s(config, requests)
    capacity_req_s = capacity_tok_s / new_tokens

    engine = ServingEngine(DecoderLM(config), max_batch_size=8, max_wait_s=0.0)
    server = ApiServer(engine, policy=AdmissionPolicy(max_queue_depth=256))
    server.start_in_thread()
    try:
        sweep = [
            _open_loop_point(server, requests, util * capacity_req_s, rng)
            for util in utilizations
        ]
        for util, row in zip(utilizations, sweep):
            row["utilization"] = util
    finally:
        server.stop_in_thread()
    return {
        "num_requests": num_requests,
        "new_tokens": new_tokens,
        "capacity_tok_s": round(capacity_tok_s, 1),
        "sweep": sweep,
    }


# ----------------------------------------------------------------------
# Measured vs projected replica scaling
# ----------------------------------------------------------------------
def _projection_agreement(config, scaling: dict[str, Any], seed: int) -> dict[str, Any]:
    """Replication case 2: N replicas project N x one replica's rate."""
    from repro.dist import DeviceMesh, HardwareProjection, ShardPlan
    from repro.svd.pipeline import LayerPlan

    rng = np.random.default_rng(seed)
    rank = 16
    mask = np.zeros(rank, dtype=bool)
    mask[:4] = True
    plans = {}
    for block in range(config.num_layers):
        name = f"blocks.{block}.proxy"
        plans[name] = LayerPlan(
            name=name,
            a_matrix=rng.normal(size=(rank, config.d_model)) / np.sqrt(config.d_model),
            b_matrix=rng.normal(size=(config.d_model, rank)) / np.sqrt(rank),
            bias=None,
            protected_ranks=mask,
            sigma_gradients=rng.random(rank),
        )
    plan = ShardPlan.build(plans, DeviceMesh(num_chips=1))
    rate = HardwareProjection(plan, hidden_dim=config.d_model).pipeline_rate_tokens_per_s()
    rows = []
    for row in scaling["grid"]:
        n = row["replicas"]
        rows.append(
            {
                "replicas": n,
                "measured_speedup": row["speedup"],
                "projected_speedup": float(n),
                "efficiency": round(row["speedup"] / n, 3),
            }
        )
    return {
        "projected_single_replica_tok_s": round(rate, 1),
        "scaling": rows,
    }


# ----------------------------------------------------------------------
@experiment(
    "bench_api",
    smoke={
        "replicas": (1, 2),
        "pool_requests": 6,
        "api_requests": 6,
        "utilizations": (0.5,),
        "new_tokens": 8,
    },
)
def bench_api(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Scale-out serving tier benchmark (PR-10 acceptance payload).

    Measures :class:`~repro.serve.ReplicaPool` tokens/s at 1/2/4 worker
    processes, client-observed p50/p99 TTFT and end-to-end latency of the
    :class:`~repro.serve.ApiServer` SSE endpoint under open-loop Poisson
    load (rates calibrated to measured capacity), and agreement with the
    :class:`~repro.dist.HardwareProjection` replication model.  Lands in ``BENCH_api.json``; the driver's gates
    are capacity-aware via the recorded ``cpus``.
    """
    config = _api_model_config(params, seed)
    rng = np.random.default_rng(seed)
    scaling = _replica_scaling(config, params, rng)
    return {
        "cpus": _cpus(),
        "model": {
            "d_model": config.d_model,
            "num_layers": config.num_layers,
            "num_heads": config.num_heads,
            "max_seq_len": config.max_seq_len,
            "vocab_size": config.vocab_size,
        },
        "replica_scaling": scaling,
        "api_streaming": _api_streaming(config, params, rng),
        "projection": _projection_agreement(config, scaling, seed),
    }
