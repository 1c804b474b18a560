"""Tests for the bench_kernels/bench_serve/bench_faults trajectory studies."""

from __future__ import annotations

import pytest

from repro.exp import ExperimentSpec, Runner, available_experiments

TINY = {
    "batches": (1,),
    "out_features": (8,),
    "in_features": 32,
    "cells": ("SLC",),
    "reps": 1,
    "include_fig12": False,
}


class TestBenchKernels:
    def test_registered_with_smoke_config(self):
        defn = available_experiments()["bench_kernels"]
        assert defn.smoke  # CI runs it via --smoke

    def test_tiny_run_payload_shape(self):
        result = Runner(use_cache=False).run(
            ExperimentSpec("bench_kernels", params=TINY)
        )
        value = result.value
        # SLC x {none, calibrated} x 1 batch x 1 out-features = 2 grid rows.
        assert len(value["grid"]) == 2
        for row in value["grid"]:
            assert row["reference_us"] > 0
            assert row["fast_us"] > 0
            assert row["speedup"] > 0
            if row["noise"] == "calibrated":
                assert row["exact_shortcut"] is False
        # Random SLC weights over 32 rows cannot saturate a 6-bit ADC.
        clean = next(r for r in value["grid"] if r["noise"] == "none")
        assert clean["exact_shortcut"] is True
        decode = value["batched_decode"]
        for row in decode["grid"]:
            assert row["batched_tok_s"] > 0 and row["per_row_tok_s"] > 0
        assert all(p["batched_tok_s"] > 0 for p in decode["shard_sweep"])
        # The gated large points are always measured, even off-grid.
        for key in ("large_noiseless", "large_noisy"):
            assert value[key]["batch"] == 64
            assert value[key]["out_features"] == 256
        # So are the prefill-shaped points: the 4-wordline SLC tile runs
        # the pattern table, and both are clip-free under calibrated noise.
        slc, mlc2 = value["prefill"]
        assert (slc["cell"], slc["in_features"], slc["batch"]) == ("SLC", 4, 54)
        assert (mlc2["cell"], mlc2["in_features"], mlc2["batch"]) == ("MLC2", 38, 54)
        assert (slc["table_tiles"], mlc2["table_tiles"]) == (1, 0)
        assert slc["clip_free_tiles"] == mlc2["clip_free_tiles"] == 1
        # The fused Q/K/V level runs in three stacked calls at TP 1 and 2,
        # against one call per programmed matrix.
        assert [row["tensor_parallel"] for row in value["fused_level"]] == [1, 2]
        for row in value["fused_level"]:
            assert row["group_calls"] == 3 and row["matrices"] >= 12
            assert row["level_group_us"] > 0 and row["stage1_per_matrix_us"] > 0
        assert "fig12_smoke_wall_s" not in value


SERVE_TINY = {
    "batches": (1,),
    "prompt_len": 4,
    "new_tokens": 6,
    "reps": 1,
    "d_model": 16,
    "num_heads": 2,
    "num_layers": 1,
    "d_ff": 32,
    "max_seq_len": 16,
    "vocab_size": 32,
    "engine_requests": 3,
    "engine_max_batch": 2,
    "engine_new_tokens": 4,
    "trace_requests": 6,
    "trace_max_batch": 2,
    "trace_reps": 1,
}


FAULTS_TINY = {
    "protect_fractions": (0.0, 1.0),
    "rank": 48,
    "in_features": 48,
    "out_features": 48,
    "batch": 4,
}


class TestBenchFaults:
    def test_registered_with_smoke_config(self):
        defn = available_experiments()["bench_faults"]
        assert defn.smoke  # CI runs it via --smoke

    def test_tiny_run_payload_shape_and_gates(self):
        result = Runner(use_cache=False).run(
            ExperimentSpec("bench_faults", params=FAULTS_TINY)
        )
        value = result.value
        # 5 scenarios x 2 protection fractions.
        assert len(value["grid"]) == 10
        for row in value["grid"]:
            assert row["error"] >= 0
        gate = value["gate"]
        # The paper's premise: SLC protection buys accuracy under
        # calibrated programming noise, and every fault mechanism hurts.
        curve = [point["error"] for point in gate["clean_curve"]]
        assert curve == sorted(curve, reverse=True)
        assert gate["protection_gain"] > 0
        assert gate["min_fault_margin"] > 0

    def test_deterministic_across_runs(self):
        runner = Runner(use_cache=False)
        spec = ExperimentSpec("bench_faults", params=FAULTS_TINY)
        first = runner.run(spec).value
        second = runner.run(spec).value
        assert first == second


class TestBenchServe:
    def test_registered_with_smoke_config(self):
        defn = available_experiments()["bench_serve"]
        assert defn.smoke  # CI runs it via --smoke

    def test_tiny_run_payload_shape(self):
        result = Runner(use_cache=False).run(
            ExperimentSpec("bench_serve", params=SERVE_TINY)
        )
        value = result.value
        assert len(value["grid"]) == 1
        row = value["grid"][0]
        assert row["naive_tok_s"] > 0 and row["cached_tok_s"] > 0
        # The gated large point is always measured, even off-grid.
        assert value["large"]["batch"] == 8
        assert value["large"]["prompt_len"] == 16
        engine = value["engine"]
        assert engine["requests_completed"] == 3
        assert engine["tokens_generated"] == 12
        assert engine["tokens_per_s"] > 0
        assert "slot_pool" in engine
        # Static vs continuous replay of the same mixed-length trace, with
        # identical total work (per-request parity is asserted inside).
        trace = value["trace"]
        assert trace["num_requests"] == 6
        assert trace["static"]["tokens"] == trace["continuous"]["tokens"] > 0
        assert trace["speedup"] > 0
        assert trace["continuous"]["mean_ttft_s"] > 0
        # The static baseline's TTFT is its batch's completion time.
        assert trace["static"]["mean_ttft_s"] == trace["static"]["mean_latency_s"]

    def test_static_batches_split_jointly_oversize_requests(self):
        """The static baseline's FIFO cut: requests that each fit alone but
        not together (32 positions) go to separate batches; compatible ones
        share one, up to ``max_batch``."""
        from types import SimpleNamespace

        import numpy as np

        from repro.exp.studies_bench import _static_batches

        model = SimpleNamespace(config=SimpleNamespace(max_seq_len=32))
        prompt = lambda n: np.zeros(n, dtype=np.int64)
        split = [(prompt(24), 8), (prompt(4), 28)]
        assert _static_batches(model, split, max_batch=2) == [[0], [1]]
        shared = [(prompt(8), 4), (prompt(6), 6), (prompt(5), 3)]
        assert _static_batches(model, shared, max_batch=2) == [[0, 1], [2]]

    @pytest.mark.parametrize("max_batch", [1, 2, 4])
    def test_static_baseline_matches_solo_generate(self, max_batch):
        """Each static batch is one ragged batched ``generate``; per request
        it emits exactly the one-shot tokens, wherever the FIFO cut falls."""
        import numpy as np

        from repro.exp.studies_bench import _mixed_trace, _run_static_trace, _static_batches
        from repro.nn import DecoderLM, TransformerConfig

        model = DecoderLM(
            TransformerConfig(
                vocab_size=32, d_model=16, num_heads=2, num_layers=1, d_ff=32,
                max_seq_len=24, seed=2,
            )
        )
        trace = _mixed_trace(model, 8, np.random.default_rng(4))
        batches = _static_batches(model, trace, max_batch)
        assert [i for batch in batches for i in batch] == list(range(len(trace)))
        assert max(len(batch) for batch in batches) <= max_batch
        payload, outputs = _run_static_trace(model, trace, max_batch, reps=1)
        for (prompt, budget), tokens in zip(trace, outputs):
            np.testing.assert_array_equal(
                tokens, model.generate(prompt, budget)[len(prompt) :]
            )
        assert payload["tokens"] == sum(budget for _, budget in trace)
