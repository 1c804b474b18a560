"""Kernel-benchmark study: the repo's tracked perf trajectory.

``bench_kernels`` times the analog-crossbar GEMV hot path — the
``reference`` einsum kernel (the spec) against the optimized ``fast``
kernel of :mod:`repro.rram.kernels` — across a batch x out-features x
cell-type x noise grid, times batched against per-row decode through the
same fast kernel, times a Q/K/V level as one call per programmed matrix
against its :class:`~repro.pim.hybrid.SiblingGroup`'s stacked calls, and
additionally wall-clocks the Fig. 12 smoke sweep end to end.  Its payload
is what lands in ``BENCH_kernels.json`` (written by
``benchmarks/bench_kernels.py`` and by the CI smoke job), seeding the
perf-trajectory series future PRs are gated against: CI fails if the fast
kernel ever becomes slower than the reference kernel on the large-GEMV
points or the prefill-shaped points, or the sibling group slower than
per-matrix calls.

Every timing is the median wall-clock of repeated calls.  Cached replays
of this experiment report the machine state of the original run, so
benchmark jobs run it with caching disabled (``--no-cache`` /
``fresh_runner``).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.exp.registry import experiment
from repro.rram import (
    CELL_TYPES,
    DEFAULT_NOISE,
    GemvStats,
    KernelPolicy,
    ProgrammedMatrix,
    kernel_policy,
)

__all__ = ["bench_attention", "bench_faults", "bench_kernels", "bench_serve"]

#: The benchmark grid (overridable via params).  The "large" point is the
#: one the CI perf gate checks; it matches the ISSUE-2 acceptance criteria
#: (>=5x noiseless, >=2x noisy, fast vs reference).
DEFAULT_BATCHES = (1, 8, 64)
DEFAULT_OUT_FEATURES = (64, 256)
DEFAULT_CELLS = ("SLC", "MLC2")
LARGE_POINT = {"batch": 64, "out_features": 256, "in_features": 512, "cell": "SLC"}
#: Prefill-shaped points (calibrated noise, batch 54 like a served long
#: prompt), also gated in CI: a 4-wordline SLC tile, narrow enough for the
#: fast kernel's pattern table, and a 38-wordline MLC2 tile converted row
#: by row.
PREFILL_BATCH = 54
PREFILL_POINTS = (
    {"out_features": 128, "in_features": 4, "cell": "SLC"},
    {"out_features": 128, "in_features": 38, "cell": "MLC2"},
)


#: The decode and prefill points time calls of a few milliseconds or
#: less, so they run this many times ``reps`` calls (15 by default, 5
#: under ``--smoke``): over three such calls a timing swings by tens of
#: percent from run to run.
SHORT_POINT_REPS = 5


def _time_call(fn, reps: int) -> float:
    """Median wall-clock seconds of ``reps`` calls of ``fn()``."""
    times = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _bench_point(
    batch: int,
    out_features: int,
    in_features: int,
    cell_name: str,
    noisy: bool,
    reps: int,
    rng: np.random.Generator,
) -> dict[str, Any]:
    cell = CELL_TYPES[cell_name]
    sigma = DEFAULT_NOISE.sigma(cell) if noisy else 0.0
    x = rng.integers(-128, 128, size=(batch, in_features))
    w = rng.integers(-128, 128, size=(out_features, in_features))
    matrix = ProgrammedMatrix(w, cell, noise_sigma=sigma, rng=rng)

    # Correctness cross-check rides along with every timing: the two kernels
    # must agree bitwise (outputs and stats) on every benchmarked point.
    outs, stats, seconds = {}, {}, {}
    for mode in ("reference", "fast"):
        with kernel_policy(KernelPolicy(mode=mode)):
            stats[mode] = GemvStats()
            outs[mode] = matrix.gemv(x, stats=stats[mode])
            seconds[mode] = _time_call(lambda: matrix.gemv(x), reps)
    if not (np.array_equal(outs["reference"], outs["fast"]) and stats["reference"] == stats["fast"]):
        raise AssertionError(
            f"fast/reference kernel mismatch at batch={batch}, out={out_features}, "
            f"in={in_features}, cell={cell_name}, noisy={noisy}"
        )
    ref_s, fast_s, fast_stats = seconds["reference"], seconds["fast"], stats["fast"]
    return {
        "batch": batch,
        "out_features": out_features,
        "in_features": in_features,
        "cell": cell_name,
        "noise": "calibrated" if noisy else "none",
        # Noiseless and saturation-free: the fast kernel runs one dense
        # matmul instead of the bit-serial pipeline.
        "exact_shortcut": bool(matrix.is_noiseless and matrix.saturation_free),
        "reference_us": round(ref_s * 1e6, 2),
        "fast_us": round(fast_s * 1e6, 2),
        "speedup": round(ref_s / fast_s, 2),
        # How the fast kernel converted the row tiles of one call.
        "clip_free_tiles": fast_stats.clip_free_tiles,
        "table_tiles": fast_stats.table_tiles,
    }


#: Batched-decode study grid (overridable via params).  The gate point is
#: batch 32: one batched fast-kernel call per stage per step must deliver
#: >= 2x the per-row tokens/s, and batched throughput must scale
#: superlinearly with batch (tok/s at 32 > tok/s at 1 — fixed packing and
#: dispatch overheads amortize across the batch).
DECODE_BATCHES = (1, 8, 32)
DECODE_WAYS = (1, 2, 4, 8)
DECODE_GATE_BATCH = 32


def _decode_stack(
    num_layers: int, features: int, rank: int, seed: int, ways: int = 1
) -> list:
    """A stack of calibrated noisy crossbar ``HybridLinear`` layers.

    Square (``features -> features``) layers so hidden states chain like a
    decode step walking a Transformer's crossbar stages; calibration runs
    layer by layer on the stack's own hidden states, so the batched and
    per-row replays quantize identical activation codes.
    """
    from repro.dist import DeviceMesh
    from repro.pim.hybrid import HybridLinear
    from repro.svd.pipeline import LayerPlan

    rng = np.random.default_rng(seed)
    layers = []
    for i in range(num_layers):
        mask = np.zeros(rank, dtype=bool)
        mask[: rank // 4] = True
        plan = LayerPlan(
            name=f"blocks.0.decode{i}",
            a_matrix=rng.normal(size=(rank, features)) / np.sqrt(features),
            b_matrix=rng.normal(size=(features, rank)) / np.sqrt(rank),
            bias=None,
            protected_ranks=mask,
            sigma_gradients=rng.random(rank),
        )
        layer = HybridLinear(
            plan, noise=DEFAULT_NOISE, mode="crossbar", seed=seed + i
        )
        if ways > 1:
            layer.deploy(DeviceMesh(), tensor_parallel=ways)
        layers.append(layer)
    h = rng.normal(size=(8, features))
    for layer in layers:
        layer.begin_calibration()
        layer.forward(h)
        layer.finish_calibration()
        h = layer.forward(h).data
    return layers


def _stack_batched(layers: list, x: np.ndarray) -> np.ndarray:
    """One batched fast-kernel call per stage."""
    with kernel_policy(KernelPolicy(mode="fast")):
        h = x
        for layer in layers:
            h = layer.forward(h).data
    return h


def _stack_per_row(layers: list, x: np.ndarray) -> np.ndarray:
    """Unbatched dispatch: every row walks the stack on its own."""
    with kernel_policy(KernelPolicy(mode="fast")):
        rows = []
        for i in range(len(x)):
            h = x[i : i + 1]
            for layer in layers:
                h = layer.forward(h).data
            rows.append(h)
    return np.vstack(rows)


def _decode_point(
    layers: list, batch: int, features: int, reps: int, rng: np.random.Generator
) -> dict[str, Any]:
    x = rng.normal(size=(batch, features))
    # Correctness rides along with the timing: the batched call must
    # reproduce the per-row stack outputs bitwise.
    batched_out = _stack_batched(layers, x)
    per_row_out = _stack_per_row(layers, x)
    if not np.array_equal(batched_out, per_row_out):
        raise AssertionError(
            f"batched/per-row decode mismatch at batch={batch}: max abs diff "
            f"{np.max(np.abs(batched_out - per_row_out))}"
        )
    batched_s = _time_call(lambda: _stack_batched(layers, x), reps)
    per_row_s = _time_call(lambda: _stack_per_row(layers, x), reps)
    return {
        "batch": batch,
        "batched_tok_s": round(batch / batched_s, 1),
        "per_row_tok_s": round(batch / per_row_s, 1),
        "speedup": round(per_row_s / batched_s, 2),
    }


def _batched_decode_study(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Batched vs per-row decode through the fast kernel, plus the shard sweep."""
    batches = sorted(
        set(tuple(params.get("decode_batches", DECODE_BATCHES)))
        | {1, DECODE_GATE_BATCH}  # the gated points are always measured
    )
    ways_sweep = tuple(params.get("decode_ways", DECODE_WAYS))
    num_layers = int(params.get("decode_layers", 3))
    features = int(params.get("decode_features", 64))
    rank = int(params.get("decode_rank", 32))
    reps = SHORT_POINT_REPS * int(params.get("reps", 3))

    rng = np.random.default_rng(seed + 17)
    layers = _decode_stack(num_layers, features, rank, seed)
    grid = [_decode_point(layers, batch, features, reps, rng) for batch in batches]
    by_batch = {row["batch"]: row for row in grid}

    # ISSUE-5's 8-way scaling plateau, revisited per-step: one stage-1 GEMM
    # per shard per decode step instead of per row.
    shard_sweep = []
    for ways in ways_sweep:
        sharded = _decode_stack(num_layers, features, rank, seed, ways=ways)
        x = rng.normal(size=(DECODE_GATE_BATCH, features))
        batched_s = _time_call(lambda: _stack_batched(sharded, x), reps)
        shard_sweep.append(
            {"ways": ways, "batched_tok_s": round(DECODE_GATE_BATCH / batched_s, 1)}
        )

    return {
        "grid": grid,
        "gate": by_batch[DECODE_GATE_BATCH],
        "batch1": by_batch[1],
        "shard_sweep": shard_sweep,
        "stack": {"layers": num_layers, "features": features, "rank": rank},
    }


#: The sibling-group point: a Q/K/V level in perfbench's served geometry
#: (d_model 64, rank 32, ~10% of ranks on SLC, calibrated noise) at
#: decode batch 8, unsharded and at tensor parallelism 2.
FUSED_LEVEL = {"features": 64, "rank": 32, "protected": 3, "batch": 8, "ways": (1, 2)}


def _fused_level_point(ways: int, reps: int, seed: int) -> dict[str, Any]:
    """One kernel call per programmed matrix vs the level's stacked calls.

    Both run the same codes through every matrix of a calibrated Q/K/V
    level (stage 1: every A-factor; stage 2: every B-factor on its hidden
    slice); every call packs its own input bit-planes, as in a served
    step.  Bitwise agreement rides along with the timing.
    """
    from repro.dist import DeviceMesh
    from repro.pim.hybrid import HybridLinear, SiblingGroup
    from repro.rram.kernels import run_gemv_stack
    from repro.svd.pipeline import LayerPlan

    features, rank, batch = FUSED_LEVEL["features"], FUSED_LEVEL["rank"], FUSED_LEVEL["batch"]
    rng = np.random.default_rng(seed + 29)
    layers = []
    for i in range(3):
        mask = np.zeros(rank, dtype=bool)
        mask[rng.permutation(rank)[: FUSED_LEVEL["protected"]]] = True
        plan = LayerPlan(
            name=f"blocks.0.qkv{i}",
            a_matrix=rng.normal(size=(rank, features)) / np.sqrt(features),
            b_matrix=rng.normal(size=(features, rank)) / np.sqrt(rank),
            bias=None,
            protected_ranks=mask,
            sigma_gradients=rng.random(rank),
        )
        layer = HybridLinear(plan, noise=DEFAULT_NOISE, mode="crossbar", seed=seed + i)
        if ways > 1:
            layer.deploy(DeviceMesh(), tensor_parallel=ways)
        layers.append(layer)
    level = SiblingGroup(layers).level()
    stage1 = level.stage1
    x_codes = rng.integers(-128, 128, size=(batch, features))
    h_codes = np.zeros((batch, level.total_rank + 1), dtype=np.int64)
    h_codes[:, :-1] = rng.integers(-128, 128, size=(batch, level.total_rank))
    stage2 = [(op, h_codes[:, op.gather].transpose(1, 0, 2)) for op in level.stage2]

    def per_matrix(stage: int) -> list[np.ndarray]:
        """Every matrix's own call; ``stage`` 0 is the whole level."""
        outs = [a.gemv(x_codes) for a in stage1.mapped]
        if stage == 0:
            for op, inputs in stage2:
                outs += [b.gemv(x[:, : b.in_features]) for b, x in zip(op.mapped, inputs)]
        return outs

    def grouped(stage: int) -> list[np.ndarray]:
        """The level's stacked calls, split back into per-matrix outputs."""
        first = run_gemv_stack(stage1.stack, x_codes[None], 8)[0]
        bounds = np.cumsum([0] + [a.out_features for a in stage1.mapped])
        outs = [first[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        if stage == 0:
            for op, inputs in stage2:
                stacked = run_gemv_stack(op.stack, inputs, 8)
                outs += [out[:, : b.out_features] for b, out in zip(op.mapped, stacked)]
        return outs

    # Correctness rides along: the stacked calls reproduce every matrix.
    if not all(np.array_equal(a, b) for a, b in zip(grouped(0), per_matrix(0), strict=True)):
        raise AssertionError(f"stacked/per-matrix level mismatch at tensor_parallel={ways}")

    row: dict[str, Any] = {
        "tensor_parallel": ways,
        "batch": batch,
        "matrices": len(stage1.mapped) + sum(len(op.mapped) for op, _ in stage2),
        "group_calls": 1 + len(stage2),
    }
    for name, stage in (("level", 0), ("stage1", 1)):
        per_s = _time_call(lambda: per_matrix(stage), reps)
        group_s = _time_call(lambda: grouped(stage), reps)
        row[f"{name}_per_matrix_us"] = round(per_s * 1e6, 2)
        row[f"{name}_group_us"] = round(group_s * 1e6, 2)
        row[f"{name}_speedup"] = round(per_s / group_s, 2)
    return row


def _fig12_smoke_wall_s(seed: int) -> float:
    """End-to-end wall-clock of the Fig. 12 smoke point (uncached)."""
    from repro.exp.registry import get_experiment

    defn = get_experiment("fig12")
    start = time.perf_counter()
    defn.fn(dict(defn.smoke), seed)
    return time.perf_counter() - start


@experiment(
    "bench_kernels",
    smoke={
        "batches": (64,),
        "out_features": (256,),
        "reps": 1,
        "decode_batches": (1, 32),
        "decode_ways": (1, 8),
    },
)
def bench_kernels(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """GEMV kernel timings (reference vs fast) + Fig. 12 smoke wall-clock."""
    batches = tuple(params.get("batches", DEFAULT_BATCHES))
    out_features = tuple(params.get("out_features", DEFAULT_OUT_FEATURES))
    in_features = int(params.get("in_features", LARGE_POINT["in_features"]))
    cells = tuple(params.get("cells", DEFAULT_CELLS))
    reps = int(params.get("reps", 3))
    include_fig12 = bool(params.get("include_fig12", True))

    rng = np.random.default_rng(seed)
    grid = [
        _bench_point(batch, out_f, in_features, cell_name, noisy, reps, rng)
        for cell_name in cells
        for noisy in (False, True)
        for out_f in out_features
        for batch in batches
    ]

    # The gated large points: always measured, even if the requested grid
    # does not contain them (e.g. a shrunken custom grid).
    def _large(noisy: bool) -> dict[str, Any]:
        for row in grid:
            if (
                row["batch"] == LARGE_POINT["batch"]
                and row["out_features"] == LARGE_POINT["out_features"]
                and row["in_features"] == LARGE_POINT["in_features"]
                and row["cell"] == LARGE_POINT["cell"]
                and row["noise"] == ("calibrated" if noisy else "none")
            ):
                return row
        return _bench_point(
            LARGE_POINT["batch"],
            LARGE_POINT["out_features"],
            LARGE_POINT["in_features"],
            LARGE_POINT["cell"],
            noisy,
            reps,
            rng,
        )

    payload: dict[str, Any] = {
        "grid": grid,
        "large_noiseless": _large(False),
        "large_noisy": _large(True),
        "prefill": [
            _bench_point(
                PREFILL_BATCH,
                point["out_features"],
                point["in_features"],
                point["cell"],
                True,
                SHORT_POINT_REPS * reps,
                rng,
            )
            for point in PREFILL_POINTS
        ],
        "batched_decode": _batched_decode_study(params, seed),
        "fused_level": [
            _fused_level_point(ways, max(reps, 20), seed) for ways in FUSED_LEVEL["ways"]
        ],
    }
    if include_fig12:
        payload["fig12_smoke_wall_s"] = round(_fig12_smoke_wall_s(seed), 3)
    return payload


# ----------------------------------------------------------------------
# Serving benchmark: KV-cached incremental decode vs naive O(L²) recompute
# ----------------------------------------------------------------------

#: Decode-path benchmark grid.  The "large" point is the one the CI perf
#: gate checks (cached must never be slower than naive; the ISSUE-3
#: acceptance bar is >= 5x tokens/s at this point).
SERVE_BATCHES = (1, 8, 32)
SERVE_LARGE_POINT = {"batch": 8, "prompt_len": 16, "new_tokens": 48}


def _serve_model(params: dict[str, Any], seed: int):
    from repro.nn import DecoderLM, TransformerConfig

    config = TransformerConfig(
        vocab_size=int(params.get("vocab_size", 128)),
        d_model=int(params.get("d_model", 64)),
        num_heads=int(params.get("num_heads", 4)),
        num_layers=int(params.get("num_layers", 2)),
        d_ff=int(params.get("d_ff", 256)),
        max_seq_len=int(params.get("max_seq_len", 64)),
        seed=seed,
    )
    return DecoderLM(config)


def _time_generate(model, prompts: np.ndarray, new_tokens: int, use_cache: bool, reps: int) -> float:
    best = float("inf")
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        model.generate(prompts, new_tokens, use_cache=use_cache)
        best = min(best, time.perf_counter() - start)
    return best


def _serve_point(
    model, batch: int, prompt_len: int, new_tokens: int, reps: int, rng: np.random.Generator
) -> dict[str, Any]:
    prompts = rng.integers(0, model.config.vocab_size, size=(batch, prompt_len))
    # Correctness cross-check rides along with every timing: greedy cached
    # decode must emit exactly the tokens the naive recompute path emits.
    cached_out = model.generate(prompts, new_tokens, use_cache=True)
    naive_out = model.generate(prompts, new_tokens, use_cache=False)
    if not np.array_equal(cached_out, naive_out):
        raise AssertionError(
            f"cached/naive decode mismatch at batch={batch}, "
            f"prompt_len={prompt_len}, new_tokens={new_tokens}"
        )
    naive_s = _time_generate(model, prompts, new_tokens, False, reps)
    cached_s = _time_generate(model, prompts, new_tokens, True, reps)
    tokens = batch * new_tokens
    return {
        "batch": batch,
        "prompt_len": prompt_len,
        "new_tokens": new_tokens,
        "naive_tok_s": round(tokens / naive_s, 1),
        "cached_tok_s": round(tokens / cached_s, 1),
        "speedup": round(naive_s / cached_s, 2),
    }


def _engine_throughput(model, params: dict[str, Any], rng: np.random.Generator) -> dict[str, Any]:
    """Continuous-batching throughput over a ragged request stream."""
    from repro.serve import ServingEngine

    num_requests = int(params.get("engine_requests", 24))
    max_batch = int(params.get("engine_max_batch", 8))
    new_tokens = int(params.get("engine_new_tokens", 24))
    engine = ServingEngine(model, max_batch_size=max_batch)
    max_prompt = max(1, model.config.max_seq_len - new_tokens)
    low = min(4, max_prompt)
    prompts = [
        rng.integers(0, model.config.vocab_size, size=int(length))
        for length in rng.integers(low, max_prompt + 1, size=num_requests)
    ]
    engine.serve(prompts, max_new_tokens=new_tokens)
    payload = engine.stats.as_dict()
    payload["max_batch_size"] = max_batch
    return payload


def _mixed_trace(
    model, num_requests: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, int]]:
    """A production-shaped request mix: mostly short, every 4th one long.

    Deterministic skew (position, not chance, decides which requests are
    long) so static batching reliably pays the head-of-line cost the
    continuous scheduler is built to avoid.  Geometry scales with the
    model so shrunken custom configs (tiny test models) stay admissible.
    """
    capacity = model.config.max_seq_len
    max_prompt = max(2, min(16, capacity // 4))
    headroom = capacity - max_prompt  # largest admissible budget
    long_hi = max(2, headroom - 2)
    long_lo = max(1, long_hi - 6)
    short_hi = max(2, min(8, headroom // 5))
    short_lo = min(3, short_hi)
    prompt_lo = max(2, max_prompt // 4)
    trace = []
    for i in range(num_requests):
        prompt_len = int(rng.integers(prompt_lo, max_prompt + 1))
        if i % 4 == 3:
            budget = int(rng.integers(long_lo, long_hi + 1))
        else:
            budget = int(rng.integers(short_lo, short_hi + 1))
        trace.append(
            (rng.integers(0, model.config.vocab_size, size=prompt_len), budget)
        )
    return trace


def _trace_payload(
    scheduler: str, tokens: int, wall_s: float, ttfts, tpots, latencies, batch_sizes
) -> dict[str, Any]:
    return {
        "scheduler": scheduler,
        "tokens": tokens,
        "wall_s": round(wall_s, 4),
        "tok_s": round(tokens / wall_s, 1),
        "mean_ttft_s": round(float(np.mean(ttfts)), 6),
        "p95_ttft_s": round(float(np.percentile(ttfts, 95)), 6),
        "mean_tpot_s": round(float(np.mean(tpots)), 6),
        "mean_latency_s": round(float(np.mean(latencies)), 6),
        "mean_batch_size": round(float(np.mean(batch_sizes)), 2),
    }


def _run_continuous_trace(
    model, trace, max_batch: int
) -> tuple[dict[str, Any], list[np.ndarray]]:
    """Submit the whole trace up front to a fresh engine and drain it.

    Wall-clocked end to end; returns the payload and each request's
    tokens in trace order.
    """
    from repro.serve import ServingEngine

    engine = ServingEngine(model, max_batch_size=max_batch)
    ids = [engine.submit(prompt, budget) for prompt, budget in trace]
    start = time.perf_counter()
    results = {r.request_id: r for r in engine.run_until_idle()}
    wall_s = time.perf_counter() - start
    done = [results[rid] for rid in ids]
    payload = _trace_payload(
        "continuous",
        sum(int(r.tokens.size) for r in done),
        wall_s,
        [r.ttft_s for r in done],
        [r.tpot_s for r in done],
        [r.latency_s for r in done],
        [r.batch_size for r in done],
    )
    # Admissions that share a step prefill as one pack: fewer forwards
    # than requests whenever the trace's prompts pack.
    payload["requests"] = len(done)
    payload["prefill_forwards"] = engine.stats.prefill_forwards
    return payload, [r.tokens for r in done]


def _static_batches(model, trace, max_batch: int) -> list[list[int]]:
    """FIFO batches of at most ``max_batch`` trace indices.

    A batch decodes over ``max(prompt_len) + max(budget)`` positions, so a
    batch is cut before the first request that would push that joint
    geometry past ``max_seq_len``.
    """
    capacity = model.config.max_seq_len
    batches: list[list[int]] = []
    width = budget = 0
    for i, (prompt, new_tokens) in enumerate(trace):
        joint = max(width, len(prompt)) + max(budget, new_tokens)
        if not batches or len(batches[-1]) == max_batch or joint > capacity:
            batches.append([])
            width = budget = 0
        batches[-1].append(i)
        width, budget = max(width, len(prompt)), max(budget, new_tokens)
    return batches


def _run_static_trace(
    model, trace, max_batch: int
) -> tuple[dict[str, Any], list[np.ndarray]]:
    """Static-batching baseline: one batched ``generate`` per FIFO batch.

    Each batch decodes to completion (per-row budgets, ragged prompts,
    KV cache) before the next starts, so a request's tokens reach the
    caller only when its whole batch finishes: its TTFT and latency are
    both batch completion minus trace start.  Returns the payload and
    each request's tokens in trace order.
    """
    outputs: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(trace)
    ttfts, tpots, sizes = [], [], []
    start = time.perf_counter()
    for batch in _static_batches(model, trace, max_batch):
        lengths = np.array([len(trace[i][0]) for i in batch], dtype=np.int64)
        budgets = np.array([trace[i][1] for i in batch], dtype=np.int64)
        prompts = np.zeros((len(batch), int(lengths.max())), dtype=np.int64)
        for row, i in enumerate(batch):
            prompts[row, : lengths[row]] = trace[i][0]
        began = time.perf_counter()
        out = model.generate(prompts, budgets, prompt_lengths=lengths, use_cache=True)
        finished = time.perf_counter()
        for row, i in enumerate(batch):
            outputs[i] = out[row, lengths[row] : lengths[row] + budgets[row]]
            ttfts.append(finished - start)
            tpots.append((finished - began) / max(1, int(budgets[row])))
            sizes.append(len(batch))
    wall_s = time.perf_counter() - start
    payload = _trace_payload(
        "static", sum(int(o.size) for o in outputs), wall_s, ttfts, tpots, ttfts, sizes
    )
    return payload, outputs


def _trace_comparison(model, params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Static batching vs continuous scheduling on one mixed-length trace.

    The static row is the study-local baseline of
    :func:`_run_static_trace`; the continuous row is the serving engine.
    Each side keeps its best of ``trace_reps`` runs, and the runs
    alternate (static, continuous, static, ...) so a slow stretch of a
    shared host slows both sides rather than one.  Correctness rides
    along: both must emit, per request, exactly what a one-shot
    ``DecoderLM.generate`` emits for that prompt and budget.
    """
    num_requests = int(params.get("trace_requests", 24))
    max_batch = int(params.get("trace_max_batch", 8))
    reps = int(params.get("trace_reps", 2))
    rng = np.random.default_rng(seed + 1)
    trace = _mixed_trace(model, num_requests, rng)

    best: dict[str, dict[str, Any]] = {}
    outputs: dict[str, list[np.ndarray]] = {}
    for _ in range(max(1, reps)):
        for label, run in (("static", _run_static_trace), ("continuous", _run_continuous_trace)):
            payload, tokens = run(model, trace, max_batch)
            outputs.setdefault(label, tokens)  # the first run's, parity-checked below
            if label not in best or payload["tok_s"] > best[label]["tok_s"]:
                best[label] = payload
    static, continuous = best["static"], best["continuous"]

    for i, (prompt, budget) in enumerate(trace):
        solo = model.generate(prompt, budget)[len(prompt) :]
        for label, tokens in outputs.items():
            if not np.array_equal(tokens[i], solo):
                raise AssertionError(
                    f"{label} scheduling diverged from one-shot generate on "
                    f"trace request {i} (prompt_len={len(prompt)}, budget={budget})"
                )

    return {
        "num_requests": num_requests,
        "max_batch_size": max_batch,
        "long_every": 4,
        "static": static,
        "continuous": continuous,
        "speedup": round(continuous["tok_s"] / static["tok_s"], 2),
        "ttft_ratio": round(
            continuous["mean_ttft_s"] / static["mean_ttft_s"], 4
        )
        if static["mean_ttft_s"]
        else 0.0,
    }


@experiment(
    "bench_serve",
    smoke={
        "batches": (8,),
        "reps": 1,
        "engine_requests": 8,
        "trace_requests": 16,
        "trace_max_batch": 4,
    },
)
def bench_serve(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Decode-path timings: KV-cached incremental vs naive O(L²) recompute.

    Times ``DecoderLM.generate`` under both paths over a batch grid (greedy,
    correctness cross-checked at every point), measures end-to-end
    :class:`~repro.serve.ServingEngine` throughput over a ragged request
    stream, and replays a mixed-length trace under static batching
    (one batched ``generate`` per FIFO batch) vs the continuous engine
    (per-request outputs cross-checked against one-shot generation).  The
    payload lands in ``BENCH_serve.json`` (written by
    ``benchmarks/bench_serve.py`` and the CI smoke job), which gates:
    cached decode must never be slower than naive recompute at the large
    point, and continuous scheduling must beat static batching by >= 1.3x
    tokens/s with strictly lower mean TTFT on the trace.
    """
    batches = tuple(params.get("batches", SERVE_BATCHES))
    prompt_len = int(params.get("prompt_len", SERVE_LARGE_POINT["prompt_len"]))
    new_tokens = int(params.get("new_tokens", SERVE_LARGE_POINT["new_tokens"]))
    reps = int(params.get("reps", 2))

    rng = np.random.default_rng(seed)
    model = _serve_model(params, seed)
    grid = [
        _serve_point(model, batch, prompt_len, new_tokens, reps, rng)
        for batch in batches
    ]

    # The gated large point: always measured, even on a shrunken grid.
    large = next(
        (
            row
            for row in grid
            if row["batch"] == SERVE_LARGE_POINT["batch"]
            and row["prompt_len"] == SERVE_LARGE_POINT["prompt_len"]
            and row["new_tokens"] == SERVE_LARGE_POINT["new_tokens"]
        ),
        None,
    )
    if large is None:
        # Off-grid: measure on the default geometry (a shrunken custom model
        # may not even hold the large point's 64 positions).
        large = _serve_point(
            _serve_model({}, seed),
            SERVE_LARGE_POINT["batch"],
            SERVE_LARGE_POINT["prompt_len"],
            SERVE_LARGE_POINT["new_tokens"],
            reps,
            rng,
        )

    return {
        "model": {
            "d_model": model.config.d_model,
            "num_layers": model.config.num_layers,
            "num_heads": model.config.num_heads,
            "max_seq_len": model.config.max_seq_len,
            "vocab_size": model.config.vocab_size,
        },
        "grid": grid,
        "large": large,
        "engine": _engine_throughput(model, params, rng),
        "trace": _trace_comparison(model, params, seed),
    }


# ----------------------------------------------------------------------
# Fault-injection benchmark: hybrid GEMV accuracy under device faults
# ----------------------------------------------------------------------

#: Protection-fraction sweep (share of ranks placed on SLC) crossed with
#: the fault scenarios of :func:`_fault_scenarios`.  The clean scenario is
#: the gated curve: with calibrated programming noise (sigma roughly 7x
#: higher on MLC2 than SLC), moving ranks from MLC to SLC must
#: monotonically reduce the error — the paper's protection premise.
FAULT_PROTECT_FRACTIONS = (0.0, 0.25, 0.5, 1.0)
FAULT_YEAR_S = 365.0 * 86_400.0


def _fault_scenarios() -> dict[str, dict[str, Any]]:
    """Named fault scenarios: a FaultModel plus an elapsed-clock advance."""
    from repro.rram import FaultModel

    return {
        "clean": {"fault": FaultModel(), "advance_s": 0.0},
        "stuck": {
            "fault": FaultModel(stuck_off_rate=0.003, stuck_on_rate=0.003),
            "advance_s": 0.0,
        },
        "drift_1yr": {
            "fault": FaultModel(drift_nu=0.05, drift_t0_s=86_400.0),
            "advance_s": FAULT_YEAR_S,
        },
        "hot_85c": {
            "fault": FaultModel(temperature_c=85.0, temp_sigma_per_c=0.002),
            "advance_s": 0.0,
        },
        "aged": {
            "fault": FaultModel(
                stuck_off_rate=0.002,
                stuck_on_rate=0.002,
                drift_nu=0.05,
                drift_t0_s=86_400.0,
                temperature_c=60.0,
                temp_sigma_per_c=0.002,
            ),
            "advance_s": FAULT_YEAR_S,
        },
    }


def _hybrid_fault_error(
    protect_fraction: float,
    fault,
    advance_s: float,
    seed: int,
    rank: int,
    in_features: int,
    out_features: int,
    batch: int,
) -> float:
    """Weighted L1-relative error of one faulty hybrid GEMV deployment.

    Builds the paper's rank-split placement (protected prefix on SLC, the
    rest on MLC2) on a dedicated :class:`FaultySimBackend` with calibrated
    programming noise (so every scenario includes the SLC/MLC margin
    asymmetry), advances the backend clock, then runs both GEMV stages —
    stage 1 piecewise over the rank split, stage 2 as the additive SLC+MLC
    partial-sum recombination — and returns total |analog − ideal| over
    total |ideal| across both stages, so each rank's contribution is
    weighted by its actual share of the layer's signal energy.
    """
    from repro.rram import FaultySimBackend, split_by_rank

    rng = np.random.default_rng(seed)
    a_codes = rng.integers(-128, 128, size=(rank, in_features))
    b_codes = rng.integers(-128, 128, size=(out_features, rank))
    protected = np.zeros(rank, dtype=bool)
    protected[: round(protect_fraction * rank)] = True

    backend = FaultySimBackend(fault=fault, seed=seed)
    split = split_by_rank(
        a_codes,
        b_codes,
        protected,
        noise=DEFAULT_NOISE,
        seed=seed,
        backend=backend,
    )
    if advance_s:
        backend.advance(seconds=advance_s)

    x1 = rng.integers(-128, 128, size=(batch, in_features))
    x2 = rng.integers(-128, 128, size=(batch, rank))

    h = np.zeros((batch, rank), dtype=np.int64)
    if split.slc_a is not None:
        h[:, protected] = split.slc_a.gemv(x1)
    if split.mlc_a is not None:
        h[:, ~protected] = split.mlc_a.gemv(x1)
    h_ideal = x1 @ a_codes.T

    y = np.zeros((batch, out_features), dtype=np.int64)
    if split.slc_b is not None:
        y += split.slc_b.gemv(x2[:, protected])
    if split.mlc_b is not None:
        y += split.mlc_b.gemv(x2[:, ~protected])
    y_ideal = x2 @ b_codes.T

    err = np.abs(h - h_ideal).sum() + np.abs(y - y_ideal).sum()
    ref = np.abs(h_ideal).sum() + np.abs(y_ideal).sum()
    return float(err) / float(ref)


@experiment(
    "bench_faults",
    smoke={"protect_fractions": (0.0, 1.0)},
)
def bench_faults(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Hybrid GEMV accuracy across protection fraction x fault scenario.

    Sweeps the SLC protection fraction against the named fault scenarios
    of :func:`_fault_scenarios` (stuck cells, one year of power-law drift,
    hot-chip read noise, and their combination), measuring the weighted
    L1-relative error of the full two-stage hybrid GEMV on a
    :class:`~repro.rram.FaultySimBackend`.  Every point is computed twice
    from the same seed and cross-checked for exact determinism.  The
    payload lands in ``BENCH_faults.json`` (written by
    ``benchmarks/bench_faults.py`` and the CI smoke job), which gates:
    SLC protection monotonically reduces the clean (programming-noise)
    error, and every faulty scenario hurts strictly more than clean at
    every protection fraction.
    """
    fractions = tuple(params.get("protect_fractions", FAULT_PROTECT_FRACTIONS))
    rank = int(params.get("rank", 48))
    in_features = int(params.get("in_features", 64))
    out_features = int(params.get("out_features", 64))
    batch = int(params.get("batch", 8))
    scenarios = _fault_scenarios()

    grid = []
    for name, scenario in scenarios.items():
        for fraction in fractions:
            point_args = (
                fraction,
                scenario["fault"],
                scenario["advance_s"],
                seed,
                rank,
                in_features,
                out_features,
                batch,
            )
            error = _hybrid_fault_error(*point_args)
            # Determinism cross-check rides along with every point: an
            # identical seed must rebuild bit-identical faults and errors.
            if _hybrid_fault_error(*point_args) != error:
                raise AssertionError(
                    f"non-deterministic fault error at scenario={name}, "
                    f"protect_fraction={fraction}"
                )
            grid.append(
                {
                    "scenario": name,
                    "protect_fraction": fraction,
                    "error": round(error, 6),
                }
            )

    def _error(scenario: str, fraction: float) -> float:
        return next(
            row["error"]
            for row in grid
            if row["scenario"] == scenario
            and row["protect_fraction"] == fraction
        )

    faulty = [name for name in scenarios if name != "clean"]
    ordered = sorted(fractions)
    gate = {
        "clean_curve": [
            {"protect_fraction": f, "error": _error("clean", f)} for f in ordered
        ],
        "protection_gain": round(
            _error("clean", ordered[0]) - _error("clean", ordered[-1]), 6
        ),
        "min_fault_margin": round(
            min(
                _error(name, f) - _error("clean", f)
                for name in faulty
                for f in fractions
            ),
            6,
        ),
    }
    return {
        "geometry": {
            "rank": rank,
            "in_features": in_features,
            "out_features": out_features,
            "batch": batch,
        },
        "protect_fractions": list(fractions),
        "grid": grid,
        "gate": gate,
    }


# ----------------------------------------------------------------------
# Analog-attention benchmark: dynamic-operand crossbar attention serving
# ----------------------------------------------------------------------

#: Batch grid for host-vs-analog attention serving.  Every point is
#: correctness-gated in-study: a noiseless analog deployment must emit
#: exactly the tokens of the host engine running
#: :class:`~repro.pim.ReferenceQuantizedAttention` (the numpy
#: specification of the same INT8 math), and the executor's wear counters
#: must grow strictly monotonically across the grid.
ATTENTION_BATCHES = (1, 4, 8)

#: Default geometry keeps every dynamic operand saturation-free on MLC2
#: (64-row tiles, 7-bit ADC full scale): ``max_seq_len`` <= 42 bounds the
#: worst-case signed column sum below the ADC clip, so the noiseless fast
#: GEMV is the exact integer product the equality gate relies on.
ATTENTION_MAX_SEQ = 40


def _attention_model(params: dict[str, Any], seed: int):
    from repro.nn import DecoderLM, TransformerConfig

    config = TransformerConfig(
        vocab_size=int(params.get("vocab_size", 64)),
        d_model=int(params.get("d_model", 32)),
        num_heads=int(params.get("num_heads", 4)),
        num_layers=int(params.get("num_layers", 2)),
        d_ff=int(params.get("d_ff", 64)),
        max_seq_len=int(params.get("max_seq_len", ATTENTION_MAX_SEQ)),
        seed=seed,
    )
    return DecoderLM(config)


def _attention_plans(model, seed: int) -> dict:
    from repro.svd.pipeline import LayerPlan

    rng = np.random.default_rng(seed)
    plans = {}
    for name, linear in model.iter_static_linears():
        out_f, in_f = linear.weight.data.shape
        r = min(out_f, in_f)
        mask = np.zeros(r, dtype=bool)
        mask[: r // 2] = True
        plans[name] = LayerPlan(
            name=name,
            a_matrix=rng.normal(size=(r, in_f)) / np.sqrt(in_f),
            b_matrix=rng.normal(size=(out_f, r)) / np.sqrt(r),
            bias=None,
            protected_ranks=mask,
            sigma_gradients=rng.random(r),
        )
    return plans


def _attention_engine(attention: str, params: dict[str, Any], seed: int, max_batch: int):
    from repro.rram.backend import SimBackend
    from repro.rram.noise import NoiseSpec
    from repro.serve import ServingEngine

    model = _attention_model(params, seed)
    calib = np.random.default_rng(seed + 7).integers(
        0, model.config.vocab_size, size=(2, 6)
    )
    return ServingEngine.deploy(
        model,
        _attention_plans(model, seed),
        calibration_prompts=calib,
        noise=NoiseSpec.noiseless(),
        mode="crossbar",
        seed=seed,
        backend=SimBackend(),
        attention=attention,
        max_batch_size=max_batch,
    )


def _attention_reference_engine(params: dict[str, Any], seed: int, max_batch: int):
    """Host engine whose attention runs the quantized numpy reference."""
    from repro.pim import CrossbarAttentionExecutor, ReferenceQuantizedAttention
    from repro.rram.backend import SimBackend

    engine = _attention_engine("host", params, seed, max_batch)
    executor = CrossbarAttentionExecutor(backend=SimBackend())
    for block in engine.model.blocks:
        block.attn = ReferenceQuantizedAttention.from_host(block.attn, executor)
    return engine


def _wear_snapshot(executor) -> dict[str, Any]:
    wear = executor.wear_report()
    return {
        "kv_tokens_written": wear["kv_tokens_written"],
        "dynamic_writes": wear["dynamic_writes"],
        "dynamic_write_pulses": wear["dynamic_write_pulses"],
        "max_wear_fraction": wear["max_wear_fraction"],
    }


def _attention_point(
    engines: dict[str, Any],
    batch: int,
    new_tokens: int,
    reps: int,
    rng: np.random.Generator,
    vocab: int,
) -> dict[str, Any]:
    lengths = rng.integers(3, 11, size=batch)
    prompts = [rng.integers(0, vocab, size=int(n)) for n in lengths]

    def _toks(engine):
        return [list(r.tokens) for r in engine.serve(prompts, max_new_tokens=new_tokens)]

    # The equality gate rides along with every timing: noiseless analog
    # tokens must be bitwise identical to the quantized numpy reference
    # through the continuous scheduler at batch > 1.
    toks_analog = _toks(engines["analog"])
    toks_reference = _toks(engines["reference"])
    if toks_analog != toks_reference:
        raise AssertionError(
            f"noiseless analog/reference token mismatch at batch={batch}"
        )
    # Float host is a tolerance reference only: INT8 attention may flip
    # greedy ties, so agreement is reported, not gated at 1.0.
    toks_host = _toks(engines["host"])
    host_agree = sum(a == h for a, h in zip(toks_analog, toks_host)) / batch

    host_s = _time_call(
        lambda: engines["host"].serve(prompts, max_new_tokens=new_tokens), reps
    )
    analog_s = _time_call(
        lambda: engines["analog"].serve(prompts, max_new_tokens=new_tokens), reps
    )
    tokens = batch * new_tokens
    return {
        "batch": batch,
        "new_tokens": new_tokens,
        "host_tok_s": round(tokens / host_s, 1),
        "analog_tok_s": round(tokens / analog_s, 1),
        "analog_over_host": round(analog_s / host_s, 3),
        "reference_agreement": 1.0,
        "host_agreement": round(host_agree, 3),
    }


@experiment(
    "bench_attention",
    smoke={"attention_batches": (1, 2), "attention_new_tokens": 6, "reps": 3},
)
def bench_attention(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Host vs analog (dynamic-operand crossbar) attention serving.

    Serves identical ragged prompt sets through three engines deployed
    from the same model and plans — float host attention, analog
    attention on MLC dynamic operands (``deploy(attention="analog")``)
    and the host engine running
    :class:`~repro.pim.ReferenceQuantizedAttention` — across a batch
    grid, measuring tokens/s and token agreement.  Two checks ride along
    in-study and fail the run: noiseless analog tokens must be bitwise
    identical to the quantized reference at every point, and the
    executor's KV-write wear counters must grow strictly monotonically
    across the grid (every KV write accounted).  The payload lands in
    ``BENCH_attention.json`` (written by ``benchmarks/bench_attention.py``
    and the CI smoke job), which gates on both plus the KV-write wear per
    1k tokens staying finite and positive.
    """
    batches = tuple(params.get("attention_batches", ATTENTION_BATCHES))
    new_tokens = int(params.get("attention_new_tokens", 12))
    reps = int(params.get("reps", 2))
    max_batch = max(batches)

    engines = {
        "host": _attention_engine("host", params, seed, max_batch),
        "analog": _attention_engine("analog", params, seed, max_batch),
        "reference": _attention_reference_engine(params, seed, max_batch),
    }
    model = engines["analog"].model
    vocab = model.config.vocab_size

    rng = np.random.default_rng(seed + 29)
    executor = engines["analog"].attention_executor
    grid, snapshots = [], []
    for batch in batches:
        grid.append(
            _attention_point(engines, batch, new_tokens, reps, rng, vocab)
        )
        snapshots.append(_wear_snapshot(executor))

    # Wear monotonicity: every grid point serves more tokens through the
    # same executor, so each counter must strictly increase point over
    # point (a stalled counter means a KV write went unaccounted).
    for prev, cur in zip(snapshots, snapshots[1:]):
        for key in ("kv_tokens_written", "dynamic_writes", "dynamic_write_pulses"):
            if cur[key] <= prev[key]:
                raise AssertionError(
                    f"wear counter {key} did not grow across the batch grid: "
                    f"{prev[key]} -> {cur[key]}"
                )
        if cur["max_wear_fraction"] < prev["max_wear_fraction"]:
            raise AssertionError("max_wear_fraction regressed across the batch grid")

    final = snapshots[-1]
    kv_tokens = final["kv_tokens_written"]
    wear_per_1k = {
        "kv_tokens_written": kv_tokens,
        "write_pulses_per_token": round(
            final["dynamic_write_pulses"] / kv_tokens, 2
        ),
        "max_wear_fraction_per_1k_tokens": float(
            final["max_wear_fraction"] / kv_tokens * 1e3
        ),
    }

    return {
        "model": {
            "d_model": model.config.d_model,
            "num_layers": model.config.num_layers,
            "num_heads": model.config.num_heads,
            "max_seq_len": model.config.max_seq_len,
            "vocab_size": model.config.vocab_size,
        },
        "grid": grid,
        "wear": wear_per_1k,
        "endurance": engines["analog"].endurance_report()["attention"],
        "gate": {
            "noiseless_reference_agreement": 1.0,
            "min_host_agreement": min(row["host_agreement"] for row in grid),
            "wear_monotone": True,
            "wear_snapshots": snapshots,
        },
    }
