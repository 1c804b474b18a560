"""Multi-head attention matching the paper's Transformer description (Eq. 1-2).

The projections ``W_Q``, ``W_K``, ``W_V`` and the output projection ``W_proj``
are :class:`~repro.nn.modules.Linear` layers over static weights — the parts
HyFlexPIM maps to *analog* RRAM PIM.  The dynamic products ``Q·Kᵀ`` and
``S·V`` (the paper's orange box, Fig. 9) are plain matmuls here; the hardware
path executes them on *digital* PIM (see :mod:`repro.pim.digital_module`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.kv_cache import PackedLayer
from repro.nn.modules import Dropout, Linear, Module
from repro.nn.tensor import Tensor, concatenate

__all__ = ["AnalogAttention", "MultiHeadAttention", "causal_mask"]


def causal_mask(seq_len: int, kv_len: int | None = None) -> np.ndarray:
    """Boolean mask that is True where attention must be *blocked*.

    With only ``seq_len`` this is the familiar (L, L) upper-triangular mask
    (key ``j`` blocked for query ``i`` when ``j > i``).  With ``kv_len`` it
    generalizes to incremental decoding over a KV cache: the ``seq_len``
    queries sit at positions ``kv_len - seq_len .. kv_len - 1`` of a
    ``kv_len``-long key prefix, so query row ``i`` may attend keys
    ``j <= kv_len - seq_len + i``.  ``kv_len == seq_len`` recovers the
    classic mask bit-for-bit.
    """
    kv_len = seq_len if kv_len is None else kv_len
    if kv_len < seq_len:
        raise ValueError(f"kv_len ({kv_len}) must be >= seq_len ({seq_len})")
    return np.triu(np.ones((seq_len, kv_len), dtype=bool), k=kv_len - seq_len + 1)


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention.

    Parameters
    ----------
    d_model:
        Hidden dimension ``D_h`` of the model.
    num_heads:
        Head count; ``d_head = d_model / num_heads``.
    dropout:
        Attention-probability dropout rate.
    causal:
        If True, applies an autoregressive mask (decoder blocks).
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        causal: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} is not divisible by num_heads={num_heads}")
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.causal = causal
        self.w_q = Linear(d_model, d_model, rng=rng)
        self.w_k = Linear(d_model, d_model, rng=rng)
        self.w_v = Linear(d_model, d_model, rng=rng)
        self.w_proj = Linear(d_model, d_model, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, L, D) -> (B, H, L, d_head)
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose((0, 2, 1, 3))

    def forward(
        self,
        x: Tensor,
        attention_mask: np.ndarray | None = None,
        cache=None,
    ) -> Tensor:
        """Run self-attention over ``x`` of shape (batch, seq, d_model).

        Projections, then the attention core (:meth:`_attend`), then
        ``w_proj``.  ``attention_mask`` is an optional boolean array
        broadcastable to (batch, 1, seq, kv_len); True entries are blocked.

        ``cache`` is an optional per-layer KV-cache slot (see
        :meth:`repro.nn.kv_cache.KVCache.layer`): Q/K/V are computed only for
        the ``seq`` *new* tokens, the new K/V are appended to the cache, and
        attention runs over the full cached prefix — the O(L)-per-token
        incremental path.  Cached K/V are constants (inference only; no
        gradient flows into previously cached tokens).

        With a ragged cache the key-validity mask is derived automatically
        only when ``attention_mask`` is None; a caller supplying its own
        mask must already include ``cache.key_padding_mask(...)`` (as
        :class:`~repro.nn.transformer.DecoderLM` does, computing it once and
        sharing it across all layers instead of rebuilding it per block).

        ``cache`` may instead be a :class:`~repro.nn.kv_cache.PackedLayer`
        (one layer of a prefill pack, ``batch == 1``): the projections and
        ``w_proj`` run once over every prompt's positions, and the core
        runs once per prompt, over exactly that prompt's positions, on its
        own row's slot — so each prompt's context is the one it would get
        alone.
        """
        q, k, v = self._project_qkv(x)
        if isinstance(cache, PackedLayer):
            context = concatenate(
                [
                    self._attend(q[:, start:stop], k[:, start:stop], v[:, start:stop], None, slot)
                    for start, stop, slot in cache.segments
                ],
                axis=1,
            )
        else:
            context = self._attend(q, k, v, attention_mask, cache)
        return self.w_proj(context)

    def _attend(
        self, q: Tensor, k: Tensor, v: Tensor, attention_mask: np.ndarray | None, cache
    ) -> Tensor:
        """The attention core: projected ``(batch, seq, d_model)`` Q/K/V to
        the merged context, appending K/V to ``cache`` when given."""
        batch, seq, _ = q.shape
        q, k, v = (self._split_heads(t, batch, seq) for t in (q, k, v))

        kv_len = seq
        if cache is not None:
            offset = cache.offset
            k_data, v_data = cache.append(k.data, v.data)
            kv_len = offset + seq
            k, v = Tensor(k_data), Tensor(v_data)
            if attention_mask is None:
                attention_mask = cache.key_padding_mask(kv_len)

        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(self.d_head))
        mask = self._combined_mask(seq, attention_mask, kv_len=kv_len)
        if mask is not None:
            scores = scores.masked_fill(mask, -1e9)
        probs = scores.softmax(axis=-1)
        probs = self.attn_dropout(probs)

        context = probs @ v  # (B, H, seq, d_head)
        return context.transpose((0, 2, 1, 3)).reshape(batch, seq, self.d_model)

    def _project_qkv(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Q, K and V projections of ``x``.

        Projections that read their shared input as one group expose it as
        ``siblings`` (a deployed crossbar layer's
        :class:`~repro.pim.hybrid.SiblingGroup`); then one call runs all
        three.  Otherwise each projection runs on its own.
        """
        projections = (self.w_q, self.w_k, self.w_v)
        group = getattr(self.w_q, "siblings", None)
        if group is not None and group.layers == projections:
            return group(x)
        return self.w_q(x), self.w_k(x), self.w_v(x)

    def _combined_mask(
        self,
        seq: int,
        attention_mask: np.ndarray | None,
        kv_len: int | None = None,
    ) -> np.ndarray | None:
        mask = None
        if self.causal:
            mask = causal_mask(seq, kv_len)[None, None, :, :]
        if attention_mask is not None:
            attention_mask = np.asarray(attention_mask, dtype=bool)
            if attention_mask.ndim == 2:  # (B, kv_len) padding mask over keys
                attention_mask = attention_mask[:, None, None, :]
            mask = attention_mask if mask is None else (mask | attention_mask)
        return mask

    def static_linears(self) -> dict[str, Linear]:
        """The four static-weight projections HyFlexPIM maps to analog PIM."""
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "w_proj": self.w_proj}


class AnalogAttention(MultiHeadAttention):
    """Attention whose dynamic products execute as crossbar GEMVs.

    Extends :class:`MultiHeadAttention` with an *analog* incremental-decode
    path: when the per-layer cache slot exposes crossbar dynamic operands
    (a :class:`~repro.pim.kv_cache.CrossbarKVCache` slot), ``Q·Kᵀ`` runs as
    a GEMV against the bitline-grown key operand and ``S·V`` against the
    wordline-grown value operand, with INT8 activation quantization (one
    scale per row and head) and host-side dequantization by the cached
    per-token scales.  Every ``(row, head)`` tile of a forward runs in one
    stacked crossbar call per product, straight from the layer's key or
    value plane bank (the slot's ``k_bank``/``v_bank`` and ``members``),
    as all heads and streams of a step fire in the same wave on the
    hardware.  Softmax (and masking)
    stays on the host, per row, mirroring the paper's SFU placement.
    Every other call shape — no cache, a plain
    :class:`~repro.nn.kv_cache.KVCache`, calibration forwards, non-causal
    use — falls back to the inherited host path, so the module is a
    drop-in replacement installed by
    ``ServingEngine.deploy(attention="analog")``.

    This module never imports the PIM/RRAM layers: the executor and the
    operand handles are duck-typed, injected through the constructor and
    the cache slot respectively.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        causal: bool = False,
        rng: np.random.Generator | None = None,
        executor=None,
    ) -> None:
        super().__init__(d_model, num_heads, dropout=dropout, causal=causal, rng=rng)
        self.executor = executor

    @classmethod
    def from_host(cls, host: MultiHeadAttention, executor) -> "AnalogAttention":
        """Wrap an existing attention module without touching its weights.

        Adopts the host's four projection modules *by reference* (they may
        already be :class:`~repro.pim.hybrid.HybridLinear` replacements)
        plus its dropout, so swapping a block's attention for the analog
        variant changes only where the dynamic products execute.
        """
        attn = cls(
            host.d_model,
            host.num_heads,
            causal=host.causal,
            executor=executor,
        )
        attn.w_q = host.w_q
        attn.w_k = host.w_k
        attn.w_v = host.w_v
        attn.w_proj = host.w_proj
        attn.attn_dropout = host.attn_dropout
        return attn

    def _attend(
        self, q: Tensor, k: Tensor, v: Tensor, attention_mask: np.ndarray | None, cache
    ) -> Tensor:
        """Host-path core, or crossbar GEMVs when the cache is analog.

        The analog path is selected only for causal attention over a cache
        slot exposing the analog handle bundle.  ``attention_mask`` is
        ignored there: the per-row committed lengths give the exact
        combined causal + key-validity mask (the same structure the host
        path derives from ``key_padding_mask``), built per row instead.
        The path is inference-only — attention-probability dropout is not
        applied (the serving engine always decodes in eval mode, where it
        is the identity on the host path too).
        """
        handles = getattr(cache, "analog", None) if cache is not None else None
        if handles is None or not self.causal:
            return super()._attend(q, k, v, attention_mask, cache)

        batch, seq, _ = q.shape
        dtype = q.data.dtype
        q, k, v = (self._split_heads(t, batch, seq) for t in (q, k, v))
        # Committed per-row lengths (append does not advance them).
        lengths = np.asarray(handles.lengths, dtype=np.int64).copy()
        cache.append(k.data, v.data)  # host mirror + operand columns/rows

        ex = handles.executor
        heads = self.num_heads
        totals = lengths + seq
        width = int(totals.max())
        # One stacked crossbar call per product over every (row, head)
        # tile: queries stream over each key operand's wordlines.
        q_codes, q_scales = ex.quantize_blocks(q.data)
        scores_int = ex.gemv(
            handles.k_bank, q_codes.reshape(batch * heads, seq, self.d_head), handles.members
        ).reshape(batch, heads, seq, width)
        scores = (
            np.asarray(scores_int, dtype=np.float64)
            * (q_scales * (1.0 / math.sqrt(self.d_head)))[:, :, None, None]
            * handles.k_scales[:, :, None, :width]
        )
        v_scales = handles.v_scales
        # Per-token value scales folded into the streamed operand, so one
        # block scale dequantizes the AV product exactly; zero past each
        # row's valid prefix, which the value operands never see.
        weighted = np.zeros((batch, heads, seq, width))
        for r in range(batch):
            total = int(totals[r])
            # Query t of this pass may attend keys j <= lengths[r] + t: the
            # causal and ragged-validity constraints collapse into one
            # per-row comparison against the committed length.  Softmax
            # reduces over exactly the valid prefix (padding the reduction
            # would change numpy's pairwise-sum blocking).
            blocked = (
                np.arange(total)[None, :]
                > (int(lengths[r]) + np.arange(seq))[:, None]
            )
            row = scores[r, :, :, :total]
            row[:, blocked] = -1e9
            shifted = np.exp(row - row.max(axis=-1, keepdims=True))
            probs = shifted / shifted.sum(axis=-1, keepdims=True)
            weighted[r, :, :, :total] = probs * v_scales[r, :, None, :total]
        p_codes, p_scales = ex.quantize_blocks(weighted)
        ctx_int = ex.gemv(
            handles.v_bank, p_codes.reshape(batch * heads, seq, width), handles.members
        ).reshape(batch, heads, seq, self.d_head)
        context = np.asarray(ctx_int, dtype=np.float64) * p_scales[:, :, None, None]
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        return Tensor(merged.astype(dtype))
