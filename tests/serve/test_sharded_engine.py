"""Serving-engine integration of the sharded (repro.dist) deployment path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DeviceMesh
from repro.nn import DecoderLM, TransformerConfig
from repro.rram.noise import NoiseSpec
from repro.serve import ServingEngine
from repro.svd.pipeline import LayerPlan


@pytest.fixture
def model():
    return DecoderLM(
        TransformerConfig(
            vocab_size=40,
            d_model=16,
            num_heads=2,
            num_layers=2,
            d_ff=32,
            max_seq_len=32,
            seed=0,
        )
    )


@pytest.fixture
def plans(model, rng):
    plans = {}
    for name, linear in model.iter_static_linears():
        out_f, in_f = linear.weight.data.shape
        rank = min(out_f, in_f)
        mask = np.zeros(rank, dtype=bool)
        mask[: max(1, rank // 4)] = True
        plans[name] = LayerPlan(
            name=name,
            a_matrix=rng.normal(size=(rank, in_f)) / np.sqrt(in_f),
            b_matrix=rng.normal(size=(out_f, rank)) / np.sqrt(rank),
            bias=None,
            protected_ranks=mask,
            sigma_gradients=rng.random(rank),
        )
    return plans


def deploy(model, plans, calib, ways=1, num_chips=1, **kwargs):
    return ServingEngine.deploy(
        model,
        plans,
        calibration_prompts=calib,
        noise=NoiseSpec.noiseless(),
        mode="crossbar",
        mesh=DeviceMesh(num_chips=num_chips),
        tensor_parallel=ways,
        max_batch_size=4,
        **kwargs,
    )


class TestShardedDeployment:
    def test_mesh_deploy_shards_every_layer(self, model, plans, rng):
        calib = rng.integers(0, 40, size=(2, 6))
        engine = deploy(model, plans, calib, ways=4)
        assert engine.shard_plan is not None
        assert engine.shard_plan.tensor_parallel == 4
        assert all(layer.is_sharded for layer in engine.hybrid_layers.values())
        assert all(layer.is_calibrated for layer in engine.hybrid_layers.values())

    def test_tokens_bitwise_equal_across_mesh_widths(self, model, plans, rng):
        """The ISSUE-5 acceptance bar, end to end through the engine."""
        calib = rng.integers(0, 40, size=(2, 6))
        prompts = [rng.integers(0, 40, size=5) for _ in range(4)]
        baseline = None
        for ways, chips in [(1, 1), (2, 1), (4, 1), (8, 1), (2, 2)]:
            engine = deploy(model, plans, calib, ways=ways, num_chips=chips)
            tokens = [r.tokens for r in engine.serve(prompts, max_new_tokens=6)]
            if baseline is None:
                baseline = tokens
            else:
                for got, want in zip(tokens, baseline):
                    np.testing.assert_array_equal(got, want)

    def test_unsharded_engine_has_no_projection(self, model, plans, rng):
        engine = ServingEngine.deploy(
            model, plans, noise=NoiseSpec.noiseless(), mode="crossbar"
        )
        assert engine.shard_plan is None
        assert engine.hardware_report() is None
        [result] = engine.serve([rng.integers(0, 40, size=4)], max_new_tokens=2)
        assert result.projected_latency_s is None
        assert engine.stats.projected_tokens_per_s == 0.0


class TestProjectedLatency:
    def test_results_carry_projected_latency(self, model, plans, rng):
        calib = rng.integers(0, 40, size=(2, 6))
        engine = deploy(model, plans, calib, ways=2)
        results = engine.serve(
            [rng.integers(0, 40, size=5) for _ in range(3)], max_new_tokens=4
        )
        for result in results:
            assert result.projected_latency_s is not None
            assert result.projected_latency_s > 0
        stats = engine.stats.as_dict()
        assert stats["projected_busy_s"] > 0
        assert stats["projected_tokens_per_s"] > 0

    def test_four_way_projects_speedup_over_one_way(self, model, plans, rng):
        """The BENCH_shard CI gate's invariant, at unit-test scale."""
        calib = rng.integers(0, 40, size=(2, 6))
        prompts = [rng.integers(0, 40, size=5) for _ in range(4)]
        rates = {}
        for ways in (1, 4):
            engine = deploy(model, plans, calib, ways=ways)
            engine.serve(prompts, max_new_tokens=4)
            rates[ways] = engine.stats.projected_tokens_per_s
        assert rates[4] >= 1.5 * rates[1]

    def test_longer_requests_project_longer_latency(self, model, plans, rng):
        calib = rng.integers(0, 40, size=(2, 6))
        engine = deploy(model, plans, calib, ways=2)
        short, long = engine.serve(
            [rng.integers(0, 40, size=3), rng.integers(0, 40, size=12)],
            max_new_tokens=3,
        )
        assert short.projected_latency_s < long.projected_latency_s


class TestInterconnectTraffic:
    def test_tensor_parallel_serving_exercises_oci(self, model, plans, rng):
        calib = rng.integers(0, 40, size=(2, 6))
        engine = deploy(model, plans, calib, ways=4)
        # Deploy-time calibration forwards must not pre-pollute the ledger:
        # served-traffic accounting starts from zero.
        assert engine.shard_plan.mesh.transfer_seconds() == 0.0
        engine.serve([rng.integers(0, 40, size=5)], max_new_tokens=3)
        report = engine.hardware_report()
        assert report["traffic"]["oci"]["bytes"] > 0
        assert report["traffic"]["pcie6"]["bytes"] == 0
        assert report["transfer_seconds"] > 0

    def test_pipeline_serving_exercises_pcie(self, model, plans, rng):
        calib = rng.integers(0, 40, size=(2, 6))
        engine = deploy(model, plans, calib, ways=1, num_chips=2)
        prompt = rng.integers(0, 40, size=5)
        [result] = engine.serve([prompt], max_new_tokens=3)
        pcie = engine.shard_plan.mesh.traffic["pcie6"]
        # One INT8 hidden vector per boundary per position actually
        # forwarded: the prompt's prefill plus one decode per generated
        # token except the last (emitted, never fed back).  The engine
        # records this per step, fused across rows — one transfer launch
        # per boundary per step, not per row.
        positions = prompt.size + int(result.tokens.size) - 1
        assert pcie.num_bytes == pytest.approx(positions * model.config.d_model)
        # Fused per-step launches: strictly fewer transfers than
        # per-position accounting would make.
        assert 0 < pcie.transfers < positions


class TestPerShardStats:
    def test_shard_gemv_stats_cover_all_shards(self, model, plans, rng):
        calib = rng.integers(0, 40, size=(2, 6))
        engine = deploy(model, plans, calib, ways=4)
        engine.serve([rng.integers(0, 40, size=5)], max_new_tokens=3)
        per_shard = engine.shard_gemv_stats()
        assert len(per_shard) == 4
        assert all(s.adc_conversions > 0 for s in per_shard)
        merged = engine.gemv_stats()
        assert merged.adc_conversions == sum(s.adc_conversions for s in per_shard)

    def test_unsharded_engine_reports_single_entry(self, model, plans, rng):
        engine = ServingEngine.deploy(
            model, plans, noise=NoiseSpec.noiseless(), mode="crossbar"
        )
        engine.serve([rng.integers(0, 40, size=4)], max_new_tokens=2)
        per_shard = engine.shard_gemv_stats()
        assert len(per_shard) == 1
        assert per_shard[0].adc_conversions == engine.gemv_stats().adc_conversions
