"""Property-based tests for row insert/retire on a live KVCache.

Randomized interleavings of admissions (row-view prefill), retirements
(swap-with-last compaction) and decode steps are driven against a live
shared cache across batch geometries; after **every** operation, the
cached next-token logits of each live row must match a from-scratch
full-context forward over that row's entire token history.  This is the
correctness core of continuous batching: row views, ragged scatter
appends, key-validity masks and compaction copies must compose in any
order.

The same harness runs against a host-float model (hypothesis-driven,
many interleavings) and against a crossbar-deployed model under both
GEMV kernel modes (``KernelPolicy(mode="reference"/"fast")``), where
frozen activation calibration plus noiseless cells make the incremental
and full-context paths agree exactly.

A ragged prefill pack prefilled into the next rows of a live cache must
return, per prompt, its solo prefill's logits and leave the cache as
solo prefills would: bitwise on the crossbar-deployed model, whose
row-wise products are exact integers, and to float rounding on the host
model, whose BLAS picks its GEMM kernel by matrix height.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import DecoderLM, TransformerConfig
from repro.nn.tensor import no_grad
from repro.pim.hybrid import attach_hybrid_layers, calibrate_activations
from repro.rram import KernelPolicy, kernel_policy
from repro.svd.pipeline import LayerPlan

VOCAB = 24
MAX_SEQ = 32


def _host_model() -> DecoderLM:
    return DecoderLM(
        TransformerConfig(
            vocab_size=VOCAB,
            d_model=16,
            num_heads=2,
            num_layers=2,
            d_ff=32,
            max_seq_len=MAX_SEQ,
            seed=11,
        )
    )


def _deployed_model(mode: str = "crossbar") -> DecoderLM:
    """A tiny crossbar-deployed decoder with frozen activation scales."""
    rng = np.random.default_rng(3)
    config = TransformerConfig(
        vocab_size=16,
        d_model=8,
        num_heads=2,
        num_layers=1,
        d_ff=16,
        max_seq_len=24,
        seed=3,
    )
    lm = DecoderLM(config)
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
    attached = attach_hybrid_layers(lm, plans, mode=mode, seed=0)
    lm.eval()

    def run_calibration() -> None:
        with no_grad():
            lm(rng.integers(0, 16, size=(2, 8)))

    # Frozen scales are what make the incremental path (1-token inputs)
    # quantize identically to the full-context path (L-token inputs).
    calibrate_activations(attached, run_calibration)
    return lm


class RowHarness:
    """Oracle-checked driver for row-level ops on one live shared cache.

    Mirrors exactly what the continuous scheduler does (row-view prefill,
    live-prefix decode, swap-with-last compaction) while keeping a
    pure-python history of every live row's tokens as the oracle.
    """

    def __init__(self, model: DecoderLM, batch: int, atol: float = 1e-10) -> None:
        self.model = model
        self.model.eval()
        self.cache = model.new_cache(batch)
        self.batch = batch
        self.live = 0  # rows [0, live) hold live histories
        self.histories: list[list[int] | None] = [None] * batch
        self.atol = atol

    @property
    def free(self) -> int:
        return self.batch - self.live

    def row_len(self, index: int) -> int:
        return len(self.histories[index])

    def admit(self, prompt: list[int]) -> None:
        row = self.live
        self.live += 1
        view = self.cache.row_view(row)
        with no_grad():
            logits = self.model.prefill(np.array(prompt, dtype=np.int64), view)
        self.histories[row] = list(prompt)
        self._assert_matches(logits[0], self.histories[row], f"admit row {row}")

    def decode(self, tokens: list[int]) -> None:
        n = self.live
        assert len(tokens) == n
        feeds = np.array(tokens, dtype=np.int64)[:, None]
        with no_grad():
            logits = self.model.forward(
                feeds, cache=self.cache.rows_view(0, n)
            ).data[:, -1]
        for i, token in enumerate(tokens):
            self.histories[i].append(int(token))
            self._assert_matches(logits[i], self.histories[i], f"decode row {i}")

    def retire(self, row: int) -> None:
        assert 0 <= row < self.live
        self.live -= 1
        moved_src = self.live
        if row == moved_src:
            self.histories[row] = None
            self.cache.clear_row(row)
        else:
            self.cache.copy_row(moved_src, row)
            self.histories[row] = self.histories[moved_src]
            self.histories[moved_src] = None
            self.cache.clear_row(moved_src)

    def check_all_rows(self) -> None:
        """Probe every live row: cached logits ≡ from-scratch forward.

        Feeds a probe token through a deep copy of the live cache (the
        real cache is untouched) and compares each row's logits against a
        full-context forward over ``history + probe``.
        """
        n = self.live
        if n == 0:
            return
        probe = 0
        dup = copy.deepcopy(self.cache)
        feeds = np.full((n, 1), probe, dtype=np.int64)
        with no_grad():
            logits = self.model.forward(feeds, cache=dup.rows_view(0, n)).data[:, -1]
        for i in range(n):
            self._assert_matches(logits[i], self.histories[i] + [probe], f"probe row {i}")

    def _assert_matches(self, cached_logits, history: list[int], label: str) -> None:
        with no_grad():
            scratch = self.model.forward(
                np.array(history, dtype=np.int64)[None, :]
            ).data[0, -1]
        np.testing.assert_allclose(
            cached_logits, scratch, atol=self.atol, rtol=self.atol, err_msg=label
        )


def _drive(harness: RowHarness, data, n_ops: int, vocab: int, max_prompt: int) -> None:
    """Draw and apply a constraint-respecting interleaving of operations."""
    for _ in range(n_ops):
        ops = []
        if harness.free > 0:
            ops.append("admit")
        if harness.live > 0:
            ops.append("retire")
        # A decode appends a token to every live row, and the probe check
        # needs one more free position on top of that.
        if harness.live > 0 and all(
            harness.row_len(i) + 2 <= harness.cache.capacity
            for i in range(harness.live)
        ):
            ops.append("decode")
        op = data.draw(st.sampled_from(ops))
        if op == "admit":
            prompt = data.draw(
                st.lists(
                    st.integers(0, vocab - 1), min_size=1, max_size=max_prompt
                )
            )
            harness.admit(prompt)
        elif op == "retire":
            harness.retire(data.draw(st.integers(0, harness.live - 1)))
        else:
            tokens = [
                data.draw(st.integers(0, vocab - 1)) for _ in range(harness.live)
            ]
            harness.decode(tokens)
        harness.check_all_rows()


class TestHostModelInterleavings:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), batch=st.integers(1, 4))
    def test_random_interleavings(self, data, batch):
        """Arbitrary admit/retire/decode orders across batch geometries."""
        harness = RowHarness(_host_model(), batch=batch)
        n_ops = data.draw(st.integers(3, 12))
        _drive(harness, data, n_ops, vocab=VOCAB, max_prompt=5)

    def test_seeded_long_interleaving(self):
        """One deep deterministic interleaving (regression anchor)."""
        rng = np.random.default_rng(99)
        harness = RowHarness(_host_model(), batch=3)
        for _ in range(40):
            choice = rng.random()
            if (harness.live == 0 or choice < 0.35) and harness.free > 0:
                harness.admit(list(rng.integers(0, VOCAB, size=rng.integers(1, 6))))
            elif choice < 0.55 and harness.live > 0:
                harness.retire(int(rng.integers(0, harness.live)))
            elif harness.live > 0 and all(
                harness.row_len(i) + 2 <= harness.cache.capacity
                for i in range(harness.live)
            ):
                harness.decode(list(rng.integers(0, VOCAB, size=harness.live)))
            harness.check_all_rows()


@pytest.mark.slow
class TestKernelModes:
    """The same harness against a crossbar deployment, both GEMV kernels."""

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_interleavings_match_from_scratch(self, mode):
        model = _deployed_model()
        rng = np.random.default_rng(7)
        with kernel_policy(KernelPolicy(mode=mode)):
            harness = RowHarness(model, batch=3, atol=1e-9)
            for _ in range(10):
                choice = rng.random()
                if (harness.live == 0 or choice < 0.4) and harness.free > 0:
                    harness.admit(list(rng.integers(0, 16, size=rng.integers(1, 5))))
                elif choice < 0.6 and harness.live > 0:
                    harness.retire(int(rng.integers(0, harness.live)))
                elif harness.live > 0 and all(
                    harness.row_len(i) + 2 <= harness.cache.capacity
                    for i in range(harness.live)
                ):
                    harness.decode(list(rng.integers(0, 16, size=harness.live)))
                harness.check_all_rows()

    def test_kernel_modes_agree_bitwise(self):
        """Noiseless fast ≡ reference on the cached decode path itself."""
        model = _deployed_model()
        prompt = np.array([1, 5, 3, 2], dtype=np.int64)
        outs = {}
        for mode in ("reference", "fast"):
            with kernel_policy(KernelPolicy(mode=mode)):
                outs[mode] = model.generate(prompt, 6)
        np.testing.assert_array_equal(outs["reference"], outs["fast"])


def _check_pack(model, live_prompts, pack_prompts, tol: float) -> None:
    """Prefill ``live_prompts`` one per row and decode one step, then
    prefill ``pack_prompts`` as one pack into the next rows: the live rows
    stay untouched, and each packed prompt's logits and K/V match its solo
    prefill within ``tol`` (0: bitwise)."""
    n = len(live_prompts)
    cache = model.new_cache(n + len(pack_prompts))
    with no_grad():
        for row, prompt in enumerate(live_prompts):
            model.prefill(np.array(prompt), cache.row_view(row))
        if n:
            model.forward(np.zeros((n, 1), dtype=np.int64), cache=cache.rows_view(0, n))
        before = [k[:n].copy() for k in cache.keys]
        logits = model.prefill(
            np.concatenate([np.array(p) for p in pack_prompts]),
            cache.rows_view(n, n + len(pack_prompts)),
            [len(p) for p in pack_prompts],
        )
    np.testing.assert_array_equal(cache.lengths[:n], [len(p) + 1 for p in live_prompts])
    for layer, k in enumerate(cache.keys):
        np.testing.assert_array_equal(k[:n], before[layer])
    for i, prompt in enumerate(pack_prompts):
        solo_cache = model.new_cache(1)
        with no_grad():
            solo = model.prefill(np.array(prompt), solo_cache)[0]
        row, length = n + i, len(prompt)
        assert cache.lengths[row] == length
        np.testing.assert_allclose(logits[i], solo, rtol=tol, atol=tol)
        for buffers, solo_buffers in ((cache.keys, solo_cache.keys), (cache.values, solo_cache.values)):
            for buf, solo_buf in zip(buffers, solo_buffers):
                np.testing.assert_allclose(
                    buf[row, :, :length], solo_buf[0, :, :length], rtol=tol, atol=tol
                )


def _pack_strategy(vocab: int, max_prompt: int, max_prompts: int):
    prompt = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=max_prompt)
    return st.lists(prompt, min_size=0, max_size=2), st.lists(
        prompt, min_size=1, max_size=max_prompts
    )


@pytest.fixture(scope="module")
def deployed_model() -> DecoderLM:
    """One deployment shared by every hypothesis example (deploying is slow)."""
    return _deployed_model()


class TestPackedPrefill:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ragged_pack_matches_solo_prefills_bitwise(self, deployed_model, data):
        """Crossbar-deployed, noiseless: each prompt of a ragged pack gets
        its solo prefill's logits and K/V bit for bit."""
        live, pack = (data.draw(s) for s in _pack_strategy(16, 6, 3))
        with kernel_policy(KernelPolicy(mode="fast")):
            _check_pack(deployed_model, live, pack, tol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_host_ragged_pack_matches_solo_prefills(self, data):
        live, pack = (data.draw(s) for s in _pack_strategy(VOCAB, 6, 4))
        _check_pack(_host_model().eval(), live, pack, tol=1e-12)
