"""End-to-end analog attention through the serving engine.

The acceptance contract for ``deploy(attention="analog")``: served tokens
from a noiseless analog deployment are **bitwise identical** to a host
engine whose attention runs :class:`~repro.pim.ReferenceQuantizedAttention`
(the numpy specification of the same INT8 math) — through the continuous
scheduler, batch > 1, ragged prompts, row compaction and pooled-cache
reuse — while every KV write shows up in ``gemv_stats()``, the wear
ledger's dynamic channel and ``endurance_report()``.  The float host
engine is a tolerance reference only (INT8 attention may flip ties).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.rram.backend import SimBackend
from repro.rram.noise import NoiseSpec
from repro.serve import ServingEngine
from repro.svd.pipeline import LayerPlan
from repro.pim import CrossbarAttentionExecutor, ReferenceQuantizedAttention

VOCAB = 32
MAX_SEQ = 24


def _lm() -> DecoderLM:
    return DecoderLM(
        TransformerConfig(
            vocab_size=VOCAB,
            d_model=16,
            num_heads=2,
            num_layers=2,
            d_ff=32,
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


def _engine(attention: str, **kwargs) -> ServingEngine:
    lm = _lm()
    calib = np.random.default_rng(7).integers(0, VOCAB, size=(2, 6))
    return ServingEngine.deploy(
        lm,
        _plans(lm),
        calibration_prompts=calib,
        noise=NoiseSpec.noiseless(),
        mode="crossbar",
        backend=SimBackend(),
        attention=attention,
        max_batch_size=3,
        **kwargs,
    )


def _reference_engine() -> ServingEngine:
    """Host engine whose attention runs the quantized numpy reference."""
    engine = _engine("host")
    ex = CrossbarAttentionExecutor(backend=SimBackend())
    for block in engine.model.blocks:
        block.attn = ReferenceQuantizedAttention.from_host(block.attn, ex)
    return engine


def _prompts(seed: int, lengths) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=n) for n in lengths]


def _tokens(engine, prompts, n=8):
    return [list(r.tokens) for r in engine.serve(prompts, max_new_tokens=n)]


class TestEndToEndEquality:
    def test_analog_matches_quantized_reference_bitwise(self):
        """Continuous scheduler, batch > 1, ragged prompts: exact tokens."""
        prompts = _prompts(11, (5, 3, 7, 4, 6, 2))
        analog = _engine("analog")
        reference = _reference_engine()
        toks_a = _tokens(analog, prompts)
        toks_r = _tokens(reference, prompts)
        assert toks_a == toks_r

    def test_analog_tracks_float_host(self):
        """INT8 attention may flip greedy ties, but most rows agree."""
        prompts = _prompts(11, (5, 3, 7, 4))
        toks_a = _tokens(_engine("analog"), prompts)
        toks_h = _tokens(_engine("host"), prompts)
        agree = sum(a == h for a, h in zip(toks_a, toks_h))
        assert agree >= len(prompts) // 2


class TestAccounting:
    def test_every_kv_write_is_accounted(self):
        engine = _engine("analog")
        prompts = _prompts(13, (4, 6, 3))
        results = engine.serve(prompts, max_new_tokens=5)
        assert all(len(r.tokens) == 5 for r in results)
        ex = engine.attention_executor
        # Every consumed token's KV is written: the prompt plus all but the
        # final generated token (emitted, never fed back).
        assert ex.kv_tokens_written == sum(len(p) + 5 - 1 for p in prompts)
        stats = engine.gemv_stats()
        assert stats.cells_initial_programmed > 0
        wear = ex.wear_report()
        assert wear["dynamic_writes"] > 0
        assert wear["max_wear_fraction"] > 0.0
        report = engine.endurance_report()
        assert report["attention"]["kv_tokens_written"] == ex.kv_tokens_written
        assert report["layers"] and report["max_layer_wear_fraction"] >= 0.0
        assert any(b["dynamic_writes"] > 0 for b in report["backends"])

    def test_pooled_cache_reuse_reprograms_recycled_rows(self):
        """A second serve() reuses pooled crossbar caches: recycled operand
        rows count as re-programs.  (A few *initial* programs may still
        occur — compaction swaps operand objects between rows, so their
        high watermarks travel and a swapped-in operand can be decoded
        past the depth it ever held — but re-programs must dominate.)"""
        engine = _engine("analog")
        prompts = _prompts(17, (4, 5))
        engine.serve(prompts, max_new_tokens=4)
        first = engine.gemv_stats()
        initial_0 = first.cells_initial_programmed
        reprogram_0 = first.cells_reprogrammed
        engine.serve(prompts, max_new_tokens=4)
        stats = engine.gemv_stats()
        d_initial = stats.cells_initial_programmed - initial_0
        d_reprogram = stats.cells_reprogrammed - reprogram_0
        assert d_reprogram > 0
        assert d_initial < d_reprogram

    def test_host_engine_reports_without_attention_channel(self):
        engine = _engine("host")
        engine.serve(_prompts(19, (4,)), max_new_tokens=3)
        assert engine.attention_executor is None
        report = engine.endurance_report()
        assert "attention" not in report
        assert engine.hardware_report() is None  # unsharded contract


class TestShardedAnalog:
    def test_mesh_deploy_records_kv_traffic_and_endurance(self):
        from repro.dist import DeviceMesh

        mesh = DeviceMesh(num_chips=2)
        engine = _engine("analog", mesh=mesh, tensor_parallel=2)
        engine.serve(_prompts(23, (4, 3)), max_new_tokens=4)
        placement = engine.attention_executor.placement
        assert placement is not None and len(placement.chips) == 2
        # Anchored round-robin on 2 chips: half the heads write remotely.
        assert mesh.traffic["oci"].num_bytes > 0
        assert mesh.traffic["pcie6"].num_bytes > 0
        report = engine.hardware_report()
        assert report is not None
        assert report["endurance"]["attention"]["kv_tokens_written"] > 0

    def test_bogus_attention_kind_rejected(self):
        lm = _lm()
        with pytest.raises(ValueError, match="attention"):
            ServingEngine.deploy(lm, _plans(lm), attention="quantum")


class TestNoisyShardedGoldenTrace:
    """Pins a noisy, TP-2, 2-chip analog serving run end to end.

    Every K/V operand draws its programming noise from the executor's one
    shared generator, so the order in which a step writes operands (row,
    then head, then K before V) decides every noisy read.  The digest
    covers the served tokens, every ``compare=True`` ``GemvStats`` field,
    the mesh traffic ledger and the wear-ledger totals, so a change to
    that order, to a noise draw or to any counted crossbar operation
    trips it.
    """

    GOLDEN_SHA256 = "66662c189f8cf05cdeb82bfff945e3ccf7270931a02d27decce278ff4f1a6d23"

    @staticmethod
    def _run() -> dict:
        import dataclasses

        from repro.dist import DeviceMesh
        from repro.rram.noise import DEFAULT_NOISE

        lm = _lm()
        calib = np.random.default_rng(7).integers(0, VOCAB, size=(2, 6))
        mesh = DeviceMesh(num_chips=2)
        engine = ServingEngine.deploy(
            lm,
            _plans(lm),
            calibration_prompts=calib,
            noise=DEFAULT_NOISE,
            mode="crossbar",
            backend=SimBackend(),
            attention="analog",
            max_batch_size=3,
            mesh=mesh,
            tensor_parallel=2,
        )
        prompts = _prompts(29, (5, 3, 7, 4, 6, 2))
        budgets = (6, 3, 8, 2, 5, 4)  # staggered retirements force compaction
        ids = [engine.submit(p, n) for p, n in zip(prompts, budgets)]
        engine.run_until_idle()
        tokens = [engine.pop_result(i).tokens.tolist() for i in ids]
        stats = engine.gemv_stats()
        ex = engine.attention_executor
        backend = ex.backend.health_report()
        return {
            "tokens": tokens,
            "gemv": {
                f.name: getattr(stats, f.name)
                for f in dataclasses.fields(stats)
                if f.compare
            },
            "mesh": {
                name: [link.transfers, link.num_bytes]
                for name, link in sorted(mesh.traffic.items())
            },
            "wear": {
                key: backend[key]
                for key in (
                    "programs",
                    "reprograms",
                    "dynamic_writes",
                    "total_write_pulses",
                    "max_wear_fraction",
                    "mean_wear_fraction",
                )
            },
            "attention_wear": ex.wear_report(),
            "compaction_moves": engine._continuous.slots.stats.compaction_moves,
        }

    def test_noisy_tp2_analog_serving_is_pinned(self):
        import hashlib
        import json

        payload = self._run()
        assert payload["compaction_moves"] > 0  # rows were compacted
        assert max(len(t) for t in payload["tokens"]) == 8
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.GOLDEN_SHA256, payload
