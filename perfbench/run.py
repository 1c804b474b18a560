"""Served-crossbar benchmark of the deployed HyFlexPIM serving engine.

Run from the repository root::

    python3 perfbench/run.py --workload decode_steady --seed 1 --seconds 24 --trace 0

``--trace 0`` serves the workload for ``--seconds``, split over three
consecutive fresh processes, and reports the end-to-end metrics.
``--trace 1`` serves half the time untraced and half with every layer
boundary wrapped in spans, in one process, and reports the per-layer
metrics.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: the served GEMVs are far too small to gain from
# BLAS threads, and one thread keeps run-to-run spread low.  Set before
# numpy is imported; an explicit environment value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Fresh processes per untraced run; their samples are pooled.
PARTS = 3
#: A part still running after this many seconds is killed and the run fails.
PART_TIMEOUT_S = 120

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "tok_s": "tok/s",
    "prompt_tok_s": "tok/s",
    "ttft_p50_s": "s",
    "ttft_p90_s": "s",
    "itl_p50_s": "s",
    "itl_p99_s": "s",
    "e2e_p50_s": "s",
    "served_frac": "share",
    "token_match": "share",
    "eval_nll": "nats",
    "peak_rss_mb": "MB",
}

#: Printed with the metrics but kept out of their JSON: it reads 0 when
#: all is well (``served_frac`` is one minus it).
PRINTED_ONLY = {"failed_frac": "share"}

#: Per-layer metrics (``--trace 1``) and their units.  ``*_s`` times of
#: spans are seconds per engine step, so a layer's time and the times of
#: the layers inside it add up.
PER_LAYER = {
    "serve.step_s": "s",
    "serve.steps": "count",
    "serve.batch_mean": "rows",
    "serve.queue_wait_p50_s": "s",
    "serve.self_s": "s",
    "serve.host_float_tok_s": "tok/s",
    "nn.prefill_s": "s",
    "nn.prefill_tokens": "count",
    "nn.decode_forward_s": "s",
    "nn.decode_rows": "count",
    "nn.attention_s": "s",
    "nn.ffn_s": "s",
    "nn.self_s": "s",
    "pim.hybrid_linear_s": "s",
    "pim.hybrid_linear_calls": "count",
    "pim.hybrid_linear_self_s": "s",
    "pim.kv_append_s": "s",
    "pim.kv_tokens_written": "count",
    "pim.measured_over_modeled": "ratio",
    "rram.gemv_s": "s",
    "rram.gemv_calls": "count",
    "rram.gemv_rows_mean": "rows",
    "rram.plane_reuse_ratio": "share",
    "rram.dynamic_append_s": "s",
    "rram.dynamic_gemv_s": "s",
    "rram.cells_written_per_token": "cells/tok",
    "rram.adc_conversions_per_token": "conv/tok",
    "rram.wordline_activations_per_token": "wl/tok",
    "rram.saturated_share": "share",
    "rram.gemm_over_fast": "ratio",
    "dist.oci_bytes_per_token": "B/tok",
    "dist.pcie_bytes_per_token": "B/tok",
    "dist.arrays_used": "count",
    "dist.projected_tok_s": "tok/s",
    "svd.compile_s": "s",
    "svd.protected_fraction": "share",
    "svd.rank_total": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "share",
}


def _pct(values, q: float) -> float:
    import numpy as np

    if len(values) == 0:
        raise RuntimeError("no samples for a percentile; lengthen --seconds")
    return float(np.percentile(values, q))


def _environment(seed: int) -> dict:
    import numpy as np

    from harness import CLIENTS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "clients": CLIENTS,
    }


def _spread(values) -> dict:
    """Median and quartiles of a sample, for the detail record."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def _served(windows, slow: float = 1.0) -> dict:
    """User-visible figures pooled over measured windows.

    Every time is divided by ``slow``, the host slowdown measured around
    the windows (``harness.probe``), so the figures read as on a host at
    reference speed.
    """
    import numpy as np

    done = [r for w in windows for r in w.completed()]
    span = sum(w.span_s for w in windows) / slow
    tokens = sum(w.tokens_in_window() for w in windows)
    prefilled = sum(
        r.prompt_len for w in windows for r in w.requests if r.times and r.times[0] <= w.end
    )
    return {
        "tok_s": tokens / span,
        "prompt_tok_s": prefilled / span,
        "ttft": [(r.times[0] - r.submitted) / slow for r in done],
        "itl": np.concatenate([np.diff(r.times) for r in done]) / slow if done else [],
        "e2e": [(r.done_at - r.submitted) / slow for r in done],
        "busy_per_token": sum(w.busy_s for w in windows) / slow / max(1, tokens),
    }


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def _layer_metrics(summary, before, after, window, tokens, wave_s) -> dict:
    """Per-layer figures from the traced window's spans and counters."""
    def span(name, field="total_s", parent=None):
        entry = summary.get(name)
        if entry is None:
            return 0
        if parent is not None:
            entry = entry["under"].get(parent, {"calls": 0, "total_s": 0.0, "rows": 0})
        return entry[field]

    steps = span("serve.step", "calls")
    per_step = 1.0 / steps
    decode_calls = span("nn.forward", "calls", parent="serve.step")
    decode_rows = span("nn.forward", "rows", parent="serve.step")
    hybrid_rows = span("pim.hybrid_linear", "rows")
    adc = _delta(before, after, "gemv.adc_conversions")
    packed = _delta(before, after, "planes_packed")
    reused = _delta(before, after, "pack_reuses")
    nn_self = sum(span(n, "self_s") for n in ("nn.prefill", "nn.forward", "nn.attention", "nn.ffn"))
    step_total = span("serve.step")
    queued = [r.result.queued_s for r in window.completed()]
    return {
        "serve.step_s": step_total * per_step,
        "serve.steps": steps,
        "serve.batch_mean": decode_rows / max(1, decode_calls),
        "serve.queue_wait_p50_s": _pct(queued, 50),
        "serve.self_s": span("serve.step", "self_s") * per_step,
        "nn.prefill_s": span("nn.prefill") * per_step,
        "nn.prefill_tokens": span("nn.prefill", "rows"),
        "nn.decode_forward_s": span("nn.forward", parent="serve.step") * per_step,
        "nn.decode_rows": decode_rows,
        "nn.attention_s": span("nn.attention") * per_step,
        "nn.ffn_s": span("nn.ffn") * per_step,
        "nn.self_s": nn_self * per_step,
        "pim.hybrid_linear_s": span("pim.hybrid_linear") * per_step,
        "pim.hybrid_linear_calls": span("pim.hybrid_linear", "calls"),
        "pim.hybrid_linear_self_s": span("pim.hybrid_linear", "self_s") * per_step,
        "pim.kv_append_s": span("pim.kv_append") * per_step,
        "pim.kv_tokens_written": _delta(before, after, "kv_tokens_written"),
        # Modeled: each row takes the A then the B wave of the hybrid pair.
        "pim.measured_over_modeled": span("pim.hybrid_linear") / max(1e-30, hybrid_rows * 2 * wave_s),
        "rram.gemv_s": span("rram.gemv") * per_step,
        "rram.gemv_calls": span("rram.gemv", "calls"),
        "rram.gemv_rows_mean": span("rram.gemv", "rows") / max(1, span("rram.gemv", "calls")),
        "rram.plane_reuse_ratio": reused / max(1, packed + reused),
        "rram.dynamic_append_s": span("rram.dynamic_append") * per_step,
        "rram.dynamic_gemv_s": span("rram.dynamic_gemv") * per_step,
        "rram.cells_written_per_token": (
            _delta(before, after, "gemv.cells_initial_programmed")
            + _delta(before, after, "gemv.cells_reprogrammed")
        )
        / tokens,
        "rram.adc_conversions_per_token": adc / tokens,
        "rram.wordline_activations_per_token": _delta(before, after, "gemv.wordline_activations")
        / tokens,
        "rram.saturated_share": _delta(before, after, "gemv.saturated_conversions") / max(1, adc),
        "dist.oci_bytes_per_token": _delta(before, after, "mesh.oci.bytes") / tokens,
        "dist.pcie_bytes_per_token": _delta(before, after, "mesh.pcie6.bytes") / tokens,
        "trace.coverage": (step_total - span("serve.step", "self_s")) / step_total,
    }


def _serve_part(fixture, name: str, stream, seconds: float, first: int) -> dict:
    """One part of an untraced run, in its own process: set up, serve, report.

    The first part also scores ``eval_nll`` on its engine, after serving.
    The host slowdown is probed before set-up and after serving.
    """
    from harness import WORKLOADS, drive, eval_nll, probe, set_up

    workload = WORKLOADS[name]
    slow_before = probe()
    engine, setup_s = set_up(fixture, workload)
    window, nxt = drive(engine, stream, first=first, duration=seconds)
    return {
        "window": window,
        "next": nxt,
        "setup_s": setup_s,
        "slow": [slow_before, probe()],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_nll": eval_nll(fixture, engine) if first == 0 else None,
    }


def _serve_parts(fixture, name: str, stream, seconds: float) -> list[dict]:
    """Serve ``PARTS`` consecutive windows, each in a fresh process.

    Speed differs between processes of one program on a shared 2-CPU host
    (the same seed's median step time moved by up to 1.5x), so every
    untraced run pools samples from several processes.  The parts run one
    after another and continue the same request stream.

    Each part is this script run with ``--part``: its arguments go in
    pickled on stdin and its report comes back pickled on stdout.
    ``subprocess.run`` waits for the part to end; on a timeout, an error or
    an interrupt it kills the part and waits for that too, so no process
    outlives the run.
    """
    parts: list[dict] = []
    nxt = 0
    for _ in range(PARTS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--part"],
            input=pickle.dumps((fixture, name, stream, seconds / PARTS, nxt)),
            stdout=subprocess.PIPE,
            timeout=PART_TIMEOUT_S,
            check=True,
        )
        part = pickle.loads(child.stdout)
        nxt = part["next"]
        parts.append(part)
    return parts


def _part_main() -> int:
    """One part of ``_serve_parts``, in the child: pickled arguments in, report out."""
    report = sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the report
    sys.path.insert(0, str(ROOT / "src"))
    args = pickle.load(sys.stdin.buffer)
    report.write(pickle.dumps(_serve_part(*args)))
    report.flush()
    return 0


def _match(tokens, expected) -> float:
    """Share of requests whose tokens equal the expected ones."""
    import numpy as np

    return float(np.mean([np.array_equal(a, b) for a, b in zip(tokens, expected, strict=True)]))


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Serve one workload; returns metrics, detail and the correctness verdict."""
    from fixture import build_fixture
    from harness import (
        VERIFY_REQUESTS,
        WORKLOADS,
        counters,
        drive,
        make_stream,
        projection,
        replay,
        set_up,
    )
    from spans import Tracer, instrument

    workload = WORKLOADS[name]
    fixture = build_fixture()
    stream = make_stream(fixture, workload, seed, size=int(seconds * 80) + 200)
    detail = {"env": _environment(seed)}

    if not trace:
        parts = _serve_parts(fixture, name, stream, seconds)
        windows = [part["window"] for part in parts]
        detail["slow"] = [k for part in parts for k in part["slow"]]
        slow = statistics.fmean(detail["slow"])
        setup_times = [part["setup_s"] / slow for part in parts]
        detail["setup_s"] = [part["setup_s"] for part in parts]
        raw = _served(windows)
        detail["unscaled"] = {
            "tok_s": raw["tok_s"],
            "itl_p50_s": _pct(raw["itl"], 50),
            "ttft_p90_s": _pct(raw["ttft"], 90),
            "e2e_p50_s": _pct(raw["e2e"], 50),
        }
    else:
        engine, detail["setup_s"] = set_up(fixture, workload)
        untraced, nxt = drive(engine, stream, duration=seconds / 2)
        tracer = Tracer()
        before = counters(engine)
        instrument(engine, tracer)
        try:
            traced, _ = drive(engine, stream, first=nxt, duration=seconds / 2)
        finally:
            tracer.close()
        after = counters(engine)
        windows = [untraced, traced]
        summary = tracer.summary()
        detail["spans"] = summary
        detail["counters"] = {k: _delta(before, after, k) for k in after}

    served = _served(windows[-1:]) if trace else _served(windows, slow)
    # The first window served the verification subset first, on the timed
    # engine; a warmed twin under the reference kernel must reproduce it.
    reference_tokens, _ = replay(fixture, workload, stream, "reference")
    token_match = _match(
        [r.streamed for r in windows[0].requests[:VERIFY_REQUESTS]], reference_tokens
    )
    requests = [r for w in windows for r in w.requests]
    attempted = len(requests)
    failed = sum(not r.ok for r in requests)

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "tok_s": served["tok_s"],
            "prompt_tok_s": served["prompt_tok_s"],
            "ttft_p50_s": _pct(served["ttft"], 50),
            "ttft_p90_s": _pct(served["ttft"], 90),
            "itl_p50_s": _pct(served["itl"], 50),
            "itl_p99_s": _pct(served["itl"], 99),
            "e2e_p50_s": _pct(served["e2e"], 50),
            "served_frac": 1.0 - failed / attempted,
            "token_match": token_match,
            "eval_nll": parts[0]["eval_nll"],
            "peak_rss_mb": max(part["rss_mb"] for part in parts),
            "failed_frac": failed / attempted,
        }
        units = END_TO_END
    else:
        traced = windows[-1]
        tokens = sum(len(r.times) for r in traced.requests)
        projected = projection(fixture, engine)
        metrics = _layer_metrics(
            summary, before, after, traced, tokens, projected.gemv_wave_s()
        )
        fast_tokens, fast_wall = replay(fixture, workload, stream, "fast")
        gemm_tokens, gemm_wall = replay(fixture, workload, stream, "gemm")
        host_tokens, host_wall = replay(fixture, workload, stream, None)
        metrics.update(
            {
                "serve.host_float_tok_s": sum(t.size for t in host_tokens) / host_wall,
                "rram.gemm_over_fast": fast_wall / gemm_wall,
                "dist.arrays_used": projected.plan.arrays_used,
                "dist.projected_tok_s": projected.pipeline_rate_tokens_per_s(),
                "svd.compile_s": fixture.compile_s,
                "svd.protected_fraction": fixture.protected_fraction,
                "svd.rank_total": fixture.rank_total,
                "trace.overhead": served["busy_per_token"]
                / _served(windows[:1])["busy_per_token"]
                - 1.0,
                "failed_frac": failed / attempted,
            }
        )
        detail["served_fast_tok_s"] = sum(t.size for t in fast_tokens) / fast_wall
        detail["gemm_token_match"] = _match(fast_tokens, gemm_tokens)
        units = PER_LAYER

    detail["token_match"] = token_match
    detail["windows"] = [
        {
            "span_s": w.span_s,
            "requests": len(w.requests),
            "completed": len(w.completed()),
            "steps": w.steps,
        }
        for w in windows
    ]
    detail["ttft_s"] = _spread(served["ttft"])
    detail["e2e_s"] = _spread(served["e2e"])
    return {
        "correct": failed == 0 and token_match == 1.0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "printed": [(k, float(metrics[k]), u) for k, u in {**units, **PRINTED_ONLY}.items()],
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one workload, print the report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so a serving part that is still
    # running is killed and waited for rather than left behind.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value, unit in report.pop("printed"):
        print(f"{args.workload:14s} {key:36s} {value:.6g} {unit}")
    print("detail " + json.dumps(report.pop("detail"), default=float))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(_part_main() if sys.argv[1:] == ["--part"] else main())
