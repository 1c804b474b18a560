"""Served dispatch counters and the legacy ``"gemm"`` policy alias.

The :class:`~repro.serve.engine.ServingStats` dispatch counters
``planes_packed`` and ``fused_rows`` are read off the deployed layers'
:class:`~repro.rram.crossbar.GemvStats` (``pack_reuses`` stays 0); a
decode step packs each dependency level's shared input once, and the
per-row reference kernel packs none.  The ``"gemm"`` policy alias serves
exactly what ``"fast"`` serves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.rram import KernelPolicy, kernel_policy
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec
from repro.serve import ServingEngine
from repro.svd.pipeline import LayerPlan

VOCAB = 16
MAX_SEQ = 24


def _lm() -> DecoderLM:
    return DecoderLM(
        TransformerConfig(
            vocab_size=VOCAB,
            d_model=8,
            num_heads=2,
            num_layers=1,
            d_ff=16,
            max_seq_len=MAX_SEQ,
            seed=3,
        )
    )


def _plans(lm: DecoderLM) -> dict[str, LayerPlan]:
    rng = np.random.default_rng(3)
    plans = {}
    for name, linear in lm.iter_static_linears():
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


def _engine(noisy: bool = True, **kwargs) -> ServingEngine:
    lm = _lm()
    calib = np.random.default_rng(7).integers(0, VOCAB, size=(2, 8))
    return ServingEngine.deploy(
        lm,
        _plans(lm),
        calibration_prompts=calib,
        noise=DEFAULT_NOISE if noisy else NoiseSpec.noiseless(),
        mode="crossbar",
        max_batch_size=3,
        **kwargs,
    )


def _prompt(seed: int, length: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, VOCAB, size=length)


class TestServingStatsCounters:
    def test_fast_kernel_reports_dispatch_counters(self):
        engine = _engine()
        for i in range(3):
            engine.submit(_prompt(i, 3 + i), 4)
        engine.run_until_idle()
        stats = engine.stats
        assert stats.planes_packed > 0
        assert stats.planes_packed == engine.gemv_stats().planes_packed
        assert stats.pack_reuses == 0
        assert stats.fused_rows > 0
        snapshot = stats.as_dict()
        for key in ("planes_packed", "pack_reuses", "fused_rows"):
            assert snapshot[key] == getattr(stats, key)

    def test_tp2_decode_step_packs_each_level_input_once(self, monkeypatch):
        """At TP 2 both shards' SLC and MLC stage-1 arrays of a dependency
        level read one packed input: a decode step packs each level's
        shared input exactly once, packs no codes twice and reuses none,
        and every pack is counted in ``ServingStats``."""
        import repro.rram.kernels as kernels
        from repro.dist import DeviceMesh

        engine = _engine(mesh=DeviceMesh(), tensor_parallel=2)
        engine.submit(_prompt(5, 4), 4)
        engine.submit(_prompt(6, 2), 4)
        engine.step()  # admit and prefill both requests
        packed = []
        original = kernels._pack
        monkeypatch.setattr(
            kernels,
            "_pack",
            lambda codes, bits, stats: packed.append(codes.copy()) or original(codes, bits, stats),
        )
        before = (engine.stats.planes_packed, engine.stats.pack_reuses)
        engine.step()  # one pure decode step over both rows
        config = engine.model.config
        # Stage-1 inputs are the levels' activations: QKV, proj and ffn1
        # read d_model codes, ffn2 reads d_ff codes; stage-2 inputs are
        # narrower shard-local hidden slices.
        level_inputs = [c for c in packed if len(c) == 1 and c.shape[2] >= config.d_model]
        assert sorted(c.shape[2] for c in level_inputs) == [config.d_model] * 3 + [config.d_ff]
        assert all(c.shape[1] == 2 for c in packed)  # both rows, one pack
        assert len({(c.shape, c.tobytes()) for c in packed}) == len(packed)
        assert engine.stats.planes_packed - before[0] == 8 * len(packed)
        assert engine.stats.pack_reuses == before[1]

    def test_reference_kernel_packs_nothing_but_serves(self):
        """Under programming noise the fast kernel packs bit-planes; the
        per-row reference kernel reads none, so both dispatch counters stay
        0 while it serves the fast kernel's tokens."""
        tokens, stats = {}, {}
        for mode in ("reference", "fast"):
            with kernel_policy(KernelPolicy(mode=mode)):
                engine = _engine()
                rid = engine.submit(_prompt(2, 4), 4)
                results = {r.request_id: r for r in engine.run_until_idle()}
                tokens[mode] = results[rid].tokens.tolist()
                stats[mode] = engine.stats
        assert stats["reference"].planes_packed == 0
        assert stats["reference"].pack_reuses == 0
        assert stats["fast"].planes_packed > 0
        assert tokens["reference"] == tokens["fast"]

    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_planes_packed_sums_every_shard(self, ways):
        """At any tensor-parallel width, ``ServingStats.planes_packed`` is
        the sum over every deployed shard's ``GemvStats``."""
        from repro.dist import DeviceMesh

        engine = _engine(mesh=DeviceMesh(), tensor_parallel=ways)
        engine.submit(_prompt(2, 4), 4)
        engine.submit(_prompt(3, 3), 3)
        engine.run_until_idle()
        shards = engine.shard_gemv_stats()
        assert len(shards) == ways
        assert engine.stats.planes_packed > 0
        assert engine.stats.planes_packed == engine.gemv_stats().planes_packed
        assert engine.stats.planes_packed == sum(s.planes_packed for s in shards)
        assert engine.stats.pack_reuses == 0


class TestGemmPolicyEquivalence:
    def test_gemm_serving_matches_fast_serving(self):
        """The legacy ``"gemm"`` alias stays constructible and serves the
        same tokens as the fast kernel it now names."""
        trace = [(_prompt(i, 2 + i % 4), 3 + i % 3) for i in range(5)]
        outputs = {}
        for mode in ("fast", "gemm"):
            with kernel_policy(KernelPolicy(mode=mode)):
                engine = _engine(noisy=False)
                ids = [engine.submit(p, budget) for p, budget in trace]
                results = {r.request_id: r for r in engine.run_until_idle()}
                outputs[mode] = [results[rid].tokens.tolist() for rid in ids]
        assert outputs["gemm"] == outputs["fast"]
