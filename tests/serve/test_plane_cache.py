"""PlaneCache serving correctness: no stale packed planes, ever.

The batched-decode fast path packs each step's activation bit-planes once
and reuses them across every crossbar stage (``repro.rram.kernels.
PlaneCache``).  The cache is invalidated through the
:class:`~repro.serve.slots.RowSlotManager` generation counter whenever the
batch composition changes, and keys on activation *content*, so serving
with the cache must be **bitwise-indistinguishable** from packing fresh on
every layer call.  A hypothesis harness interleaves submit / step
operations on two identically-seeded crossbar engines — ``plane_cache=True``
vs the pack-every-step control — and demands identical per-request tokens.

Also covered: the :class:`~repro.serve.engine.ServingStats` dispatch
counters (``planes_packed`` / ``pack_reuses`` / ``fused_rows``) and the
legacy ``"gemm"`` policy alias serving exactly what ``"fast"`` serves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _engine(plane_cache: bool, noisy: bool = True, **kwargs) -> ServingEngine:
    lm = _lm()
    calib = np.random.default_rng(7).integers(0, VOCAB, size=(2, 8))
    return ServingEngine.deploy(
        lm,
        _plans(lm),
        calibration_prompts=calib,
        noise=DEFAULT_NOISE if noisy else NoiseSpec.noiseless(),
        mode="crossbar",
        max_batch_size=3,
        plane_cache=plane_cache,
        **kwargs,
    )


def _prompt(seed: int, length: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, VOCAB, size=length)


# An op is either a submission (prompt length, token budget, prompt seed)
# or one forced engine step; interleavings admit mid-flight, retire at
# ragged lengths and leave rows live between ops — exactly the traffic
# that would surface a stale packed plane.
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=0, max_value=2**16),
        ),
        st.just("step"),
    ),
    min_size=2,
    max_size=10,
)


class TestNoStalePlanes:
    @settings(max_examples=10, deadline=None)
    @given(ops=_OPS)
    def test_cached_serving_matches_pack_every_step(self, ops):
        """Golden equivalence vs the pack-every-step control, under noise
        and batched bit-serial dispatch, for arbitrary admit/retire/decode
        interleavings."""
        cached = _engine(plane_cache=True)
        control = _engine(plane_cache=False)
        traces = []
        for engine in (cached, control):
            submitted, finished = [], {}
            for op in ops:
                if op == "step":
                    for result in engine.step(force=True):
                        finished[result.request_id] = result
                else:
                    length, budget, seed = op
                    submitted.append(engine.submit(_prompt(seed, length), budget))
            for result in engine.run_until_idle():
                finished[result.request_id] = result
            traces.append([finished[rid].tokens.tolist() for rid in submitted])
        assert traces[0] == traces[1]

    def test_admissions_and_retirements_invalidate(self):
        """The generation-counter plumbing: batch-composition changes must
        reach the cache as invalidations."""
        engine = _engine(plane_cache=True)
        cache = engine._continuous.plane_cache
        engine.submit(_prompt(0, 4), 4)
        engine.submit(_prompt(1, 2), 2)
        engine.run_until_idle()
        assert cache.stats.invalidations > 0
        assert cache._generation == engine._continuous.slots.generation


class TestServingStatsCounters:
    def test_fast_kernel_reports_dispatch_counters(self):
        engine = _engine(plane_cache=True, max_wait_s=0.0)
        for i in range(3):
            engine.submit(_prompt(i, 3 + i), 4)
        engine.run_until_idle()
        stats = engine.stats
        assert stats.planes_packed > 0
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

        engine = _engine(plane_cache=True, mesh=DeviceMesh(), tensor_parallel=2)
        engine.submit(_prompt(5, 4), 4)
        engine.submit(_prompt(6, 2), 4)
        engine.step()  # admit and prefill both requests
        packed = []
        original = kernels._pack
        monkeypatch.setattr(
            kernels,
            "_pack",
            lambda codes, bits: packed.append(codes.copy()) or original(codes, bits),
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

    def test_cache_disabled_packs_fresh_but_still_counts_rows(self):
        engine = _engine(plane_cache=False)
        engine.submit(_prompt(2, 4), 4)
        engine.run_until_idle()
        assert engine.stats.planes_packed == 0
        assert engine.stats.pack_reuses == 0
        assert engine.stats.fused_rows > 0  # bit-serial rows, fresh packing


class TestGemmPolicyEquivalence:
    def test_gemm_serving_matches_fast_serving(self):
        """The legacy ``"gemm"`` alias stays constructible and serves the
        same tokens as the fast kernel it now names."""
        trace = [(_prompt(i, 2 + i % 4), 3 + i % 3) for i in range(5)]
        outputs = {}
        for mode in ("fast", "gemm"):
            with kernel_policy(KernelPolicy(mode=mode)):
                engine = _engine(plane_cache=True, noisy=False)
                ids = [engine.submit(p, budget) for p, budget in trace]
                results = {r.request_id: r for r in engine.run_until_idle()}
                outputs[mode] = [results[rid].tokens.tolist() for rid in ids]
        assert outputs["gemm"] == outputs["fast"]
