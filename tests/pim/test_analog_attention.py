"""Analog attention + crossbar KV cache: module-level correctness.

Two equality contracts anchor the analog path:

- **exact**: a noiseless, saturation-free analog deployment is *bitwise*
  equal to :class:`~repro.pim.ReferenceQuantizedAttention` — the host
  numpy specification of the same INT8 quantized math — under every cache
  operation the continuous scheduler performs (ragged per-row prefill,
  batched decode over row views, swap-with-last compaction, truncation);
- **approximate**: it tracks the float host attention within the INT8
  quantization error.

Plus the bookkeeping the serving layer relies on: operand contents match
the per-token quantized codes, every append lands in the executor's
stats/wear/traffic accounting, and non-analog caches fall back to the
inherited host path bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DeviceMesh, place_attention_heads
from repro.nn.attention import AnalogAttention, MultiHeadAttention
from repro.nn.kv_cache import KVCache
from repro.nn.tensor import Tensor
from repro.pim import (
    CrossbarAttentionExecutor,
    CrossbarKVCache,
    ReferenceQuantizedAttention,
)
from repro.rram.backend import SimBackend

D_MODEL = 8
HEADS = 2
HEAD_DIM = D_MODEL // HEADS
LAYERS = 2
CAPACITY = 12


def _modules():
    """One shared host attention + analog/reference twins adopting its weights."""
    host = MultiHeadAttention(D_MODEL, HEADS, causal=True, rng=np.random.default_rng(0))
    analog = AnalogAttention.from_host(host, CrossbarAttentionExecutor(backend=SimBackend()))
    ref = ReferenceQuantizedAttention.from_host(host, CrossbarAttentionExecutor(backend=SimBackend()))
    return host, analog, ref


def _caches(batch: int, analog_exec):
    crossbar = analog_exec.make_cache(LAYERS, batch, HEADS, HEAD_DIM, CAPACITY)
    plain = KVCache(LAYERS, batch, HEADS, HEAD_DIM, CAPACITY)
    return crossbar, plain


def _x(rng, batch, seq):
    return Tensor(rng.normal(size=(batch, seq, D_MODEL)))


class TestExactVsReference:
    def test_prefill_and_decode_are_bitwise_equal(self):
        rng = np.random.default_rng(1)
        host, analog, ref = _modules()
        cb, plain = _caches(3, analog.executor)
        x = _x(rng, 3, 4)
        out_a = analog.forward(x, cache=cb.layer(0))
        out_r = ref.forward(x, cache=plain.layer(0))
        np.testing.assert_array_equal(out_a.data, out_r.data)
        cb.advance(4)
        plain.advance(4)
        for _ in range(3):
            step = _x(rng, 3, 1)
            out_a = analog.forward(step, cache=cb.layer(0))
            out_r = ref.forward(step, cache=plain.layer(0))
            np.testing.assert_array_equal(out_a.data, out_r.data)
            cb.advance(1)
            plain.advance(1)

    def test_ragged_rows_views_and_compaction(self):
        """The scheduler's row lifecycle: per-row prefill through 1-row
        views, ragged batched decode, swap-with-last retirement."""
        rng = np.random.default_rng(2)
        host, analog, ref = _modules()
        cb, plain = _caches(3, analog.executor)
        for row, length in enumerate((3, 5, 2)):
            x = _x(rng, 1, length)
            out_a = analog.forward(x, cache=cb.row_view(row).layer(1))
            out_r = ref.forward(x, cache=plain.row_view(row).layer(1))
            np.testing.assert_array_equal(out_a.data, out_r.data)
            cb.row_view(row).advance(length)
            plain.row_view(row).advance(length)
        for _ in range(2):  # ragged decode over the full batch
            step = _x(rng, 3, 1)
            out_a = analog.forward(step, cache=cb.layer(1))
            out_r = ref.forward(step, cache=plain.layer(1))
            np.testing.assert_array_equal(out_a.data, out_r.data)
            cb.advance(1)
            plain.advance(1)
        for cache in (cb, plain):  # retire row 0, compact row 2 into it
            cache.copy_row(2, 0)
            cache.clear_row(2)
        view_a, view_p = cb.rows_view(0, 2), plain.rows_view(0, 2)
        step = _x(rng, 2, 1)
        out_a = analog.forward(step, cache=view_a.layer(1))
        out_r = ref.forward(step, cache=view_p.layer(1))
        np.testing.assert_array_equal(out_a.data, out_r.data)

    def test_tracks_float_host_within_quantization_error(self):
        rng = np.random.default_rng(3)
        host, analog, _ = _modules()
        cb, plain = _caches(2, analog.executor)
        x = _x(rng, 2, 6)
        out_a = analog.forward(x, cache=cb.layer(0))
        out_h = host.forward(x, cache=plain.layer(0))
        err = np.abs(out_a.data - out_h.data).max()
        scale = np.abs(out_h.data).max()
        assert err / scale < 0.05


def _operand(bank, slot, row: int, head: int):
    """The ``(row, head)`` operand of a layer slot's view of ``bank``."""
    return bank.operands[slot.members][row * HEADS + head]


class TestCacheContract:
    def test_operand_contents_are_the_quantized_host_rows(self):
        """Identity-input GEMVs read back exactly the per-token codes."""
        rng = np.random.default_rng(4)
        ex = CrossbarAttentionExecutor(backend=SimBackend())
        cache = ex.make_cache(1, 1, HEADS, HEAD_DIM, CAPACITY)
        k = rng.normal(size=(1, HEADS, 5, HEAD_DIM))
        v = rng.normal(size=(1, HEADS, 5, HEAD_DIM))
        cache.append(0, k, v)
        cache.advance(5)
        slot = cache.layer(0)
        for h in range(HEADS):
            k_codes, k_scales = ex.quantize_rows(k[0, h])
            eye_w = np.eye(HEAD_DIM, dtype=np.int64)
            got_k = np.asarray(_operand(slot.k_bank, slot, 0, h).gemv(eye_w), dtype=np.int64)
            np.testing.assert_array_equal(got_k.T, k_codes)
            np.testing.assert_allclose(slot.k_scales[0, h, :5], k_scales)
            v_codes, v_scales = ex.quantize_rows(v[0, h])
            eye_t = np.eye(5, dtype=np.int64)
            got_v = np.asarray(_operand(slot.v_bank, slot, 0, h).gemv(eye_t), dtype=np.int64)
            np.testing.assert_array_equal(got_v, v_codes)
            np.testing.assert_allclose(slot.v_scales[0, h, :5], v_scales)

    def test_rows_view_shares_operands_with_parent(self):
        ex = CrossbarAttentionExecutor(backend=SimBackend())
        cache = ex.make_cache(LAYERS, 3, HEADS, HEAD_DIM, CAPACITY)
        view = cache.rows_view(1, 3)
        mine, parent = view.layer(0), cache.layer(0)
        assert _operand(mine.k_bank, mine, 0, 0) is _operand(parent.k_bank, parent, 1, 0)
        mine, parent = view.layer(1), cache.layer(1)
        assert _operand(mine.v_bank, mine, 1, 1) is _operand(parent.v_bank, parent, 2, 1)

    def test_reset_and_recycling(self):
        rng = np.random.default_rng(5)
        ex = CrossbarAttentionExecutor(backend=SimBackend())
        cache = ex.make_cache(1, 1, HEADS, HEAD_DIM, CAPACITY)
        kv = rng.normal(size=(1, HEADS, 6, HEAD_DIM))
        cache.append(0, kv, kv)
        cache.advance(6)
        assert cache.layer(0).k_bank.operands[0].length == 6
        cache.reset()
        assert cache.layer(0).v_bank.operands[0].length == 0
        before = ex.stats.cells_reprogrammed
        cache.append(0, kv[:, :, :2], kv[:, :, :2])
        assert ex.stats.cells_reprogrammed > before

    def test_requires_executor(self):
        with pytest.raises(ValueError, match="executor"):
            CrossbarKVCache(1, 1, HEADS, HEAD_DIM, CAPACITY)


class TestExecutorAccounting:
    def test_kv_writes_hit_stats_wear_and_mesh_traffic(self):
        rng = np.random.default_rng(6)
        mesh = DeviceMesh(num_chips=2)
        placement = place_attention_heads(mesh, num_layers=LAYERS, num_heads=HEADS)
        ex = CrossbarAttentionExecutor(
            backend=SimBackend(), mesh=mesh, placement=placement
        )
        cache = ex.make_cache(LAYERS, 2, HEADS, HEAD_DIM, CAPACITY)
        kv = rng.normal(size=(2, HEADS, 3, HEAD_DIM))
        for layer in range(LAYERS):
            cache.append(layer, kv, kv)
        cache.advance(3)
        assert ex.kv_tokens_written == 2 * 3  # layer-0 appends only
        assert ex.stats.cells_initial_programmed > 0
        report = ex.wear_report()
        assert report["operands"] == LAYERS * 2 * HEADS * 2
        assert report["dynamic_writes"] == LAYERS * 2 * HEADS * 2
        assert report["max_wear_fraction"] > 0.0
        # 2-chip mesh + anchored round-robin: half the heads are remote.
        oci = mesh.traffic["oci"].num_bytes
        pcie = mesh.traffic["pcie6"].num_bytes
        assert oci > 0 and pcie > 0 and oci == pcie

    def test_fallback_to_host_path_without_analog_cache(self):
        rng = np.random.default_rng(7)
        host, analog, _ = _modules()
        plain_a = KVCache(LAYERS, 2, HEADS, HEAD_DIM, CAPACITY)
        plain_h = KVCache(LAYERS, 2, HEADS, HEAD_DIM, CAPACITY)
        x = _x(rng, 2, 4)
        out_a = analog.forward(x, cache=plain_a.layer(0))
        out_h = host.forward(x, cache=plain_h.layer(0))
        np.testing.assert_array_equal(out_a.data, out_h.data)
