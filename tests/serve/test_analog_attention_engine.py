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
from repro.nn.tensor import no_grad
from repro.rram import KernelPolicy, kernel_policy
from repro.rram.backend import SimBackend
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec
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


def _engine(attention: str, noise: NoiseSpec | None = None, **kwargs) -> ServingEngine:
    lm = _lm()
    calib = np.random.default_rng(7).integers(0, VOCAB, size=(2, 6))
    return ServingEngine.deploy(
        lm,
        _plans(lm),
        calibration_prompts=calib,
        noise=noise or NoiseSpec.noiseless(),
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


def _pack_logits(model: DecoderLM, prompts) -> np.ndarray:
    """Every prompt prefilled as one pack into a fresh cache."""
    with no_grad():
        return model.prefill(
            np.concatenate(prompts), model.new_cache(len(prompts)), [len(p) for p in prompts]
        )


def _solo_logits(model: DecoderLM, prompts) -> np.ndarray:
    """Each prompt prefilled alone into its own fresh cache."""
    with no_grad():
        return np.concatenate([model.prefill(p, model.new_cache(1)) for p in prompts])


def _kv_accounting(engine: ServingEngine) -> tuple[int, ...]:
    ex = engine.attention_executor
    wear = ex.wear_report()
    return (
        ex.kv_tokens_written,
        engine.gemv_stats().cells_initial_programmed,
        wear["dynamic_writes"],
        wear["dynamic_write_pulses"],
    )


class TestPackedPrefill:
    """A prefill pack returns each prompt's solo prefill logits bitwise and
    writes exactly the K/V cells the solo prefills write."""

    PROMPT_LENGTHS = (5, 1, 7, 3)

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    @pytest.mark.parametrize(
        "attention, noise",
        [("host", None), ("host", DEFAULT_NOISE), ("analog", None)],
        ids=["host-noiseless", "host-noisy", "analog-noiseless"],
    )
    def test_pack_matches_solo_prefill_bitwise(self, mode, attention, noise):
        model = _engine(attention, noise=noise).model
        model.eval()
        prompts = _prompts(23, self.PROMPT_LENGTHS)
        with kernel_policy(KernelPolicy(mode=mode)):
            np.testing.assert_array_equal(
                _pack_logits(model, prompts), _solo_logits(model, prompts)
            )

    def test_analog_pack_matches_reference_solo_bitwise(self):
        analog = _engine("analog").model
        reference = _reference_engine().model
        for model in (analog, reference):
            model.eval()
        prompts = _prompts(29, self.PROMPT_LENGTHS)
        np.testing.assert_array_equal(
            _pack_logits(analog, prompts), _solo_logits(reference, prompts)
        )

    def test_pack_kv_accounting_equals_solo_sum(self):
        prompts = _prompts(31, self.PROMPT_LENGTHS)
        packed, solo = _engine("analog"), _engine("analog")
        for engine in (packed, solo):
            engine.model.eval()
        _pack_logits(packed.model, prompts)
        _solo_logits(solo.model, prompts)
        assert _kv_accounting(packed) == _kv_accounting(solo)
        assert packed.attention_executor.kv_tokens_written == sum(self.PROMPT_LENGTHS)

    def test_generate_writes_only_real_prompt_tokens(self):
        """``generate`` on right-padded ragged prompts writes no pad position
        to a KV cell: its writes equal the solo generates' sum, and each
        row's tokens equal its solo ``generate`` bit for bit."""
        prompts = _prompts(37, (7, 2))
        batched, solo = _engine("analog"), _engine("analog")
        padded = np.zeros((2, 7), dtype=np.int64)
        for row, prompt in zip(padded, prompts):
            row[: len(prompt)] = prompt
        out = batched.model.generate(padded, 1, prompt_lengths=[7, 2])
        solos = [solo.model.generate(p, 1) for p in prompts]
        assert batched.attention_executor.kv_tokens_written == 9
        assert _kv_accounting(batched) == _kv_accounting(solo)
        for row, prompt, alone in zip(out, prompts, solos):
            np.testing.assert_array_equal(row[: len(prompt) + 1], alone)

    @pytest.mark.parametrize("lengths", [(4,), (5, 5), (1, 6, 3)], ids=["one", "even", "ragged"])
    def test_generate_kv_writes_equal_solo_sum(self, lengths):
        """Prefill plus decode: each row writes its prompt and every fed
        token (all emitted but the last), the same cells its solo
        ``generate`` writes, and emits the same tokens."""
        budget = 3
        prompts = _prompts(41, lengths)
        batched, solo = _engine("analog"), _engine("analog")
        padded = np.zeros((len(lengths), max(lengths)), dtype=np.int64)
        for row, prompt in zip(padded, prompts):
            row[: len(prompt)] = prompt
        out = batched.model.generate(padded, budget, prompt_lengths=lengths)
        solos = [solo.model.generate(p, budget) for p in prompts]
        written = batched.attention_executor.kv_tokens_written
        assert written == sum(lengths) + len(lengths) * (budget - 1)
        assert _kv_accounting(batched) == _kv_accounting(solo)
        for row, prompt, alone in zip(out, prompts, solos):
            np.testing.assert_array_equal(row[: len(prompt) + budget], alone)


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
    shared generator, so the order in which a forward writes operands
    (layer, then row, then head, then K before V; a prefill pack's rows
    are its prompts) decides every noisy read.  The digest
    covers the served tokens, every ``compare=True`` ``GemvStats`` field,
    the mesh traffic ledger and the wear-ledger totals, so a change to
    that order, to a noise draw or to any counted crossbar operation
    trips it.
    """

    GOLDEN_SHA256 = "a3c5b1cc4d67d0cb76900fecbd1a6459728ebf04da29f8dc5d16c14b36498781"

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
            "compaction_moves": engine.stats.compaction_moves,
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
