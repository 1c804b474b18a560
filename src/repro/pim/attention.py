"""Crossbar execution of the dynamic attention products (Q·Kᵀ and S·V).

:class:`CrossbarAttentionExecutor` is the deploy-wide context behind the
analog attention path: it owns the crossbar backend handle, cell type,
programming noise and a shared
:class:`~repro.rram.crossbar.GemvStats` sink; it mints the
:class:`~repro.rram.dynamic.DynamicOperand` tiles that
:class:`~repro.pim.kv_cache.CrossbarKVCache` grows per decoded token;
and it performs the INT8 activation quantization for queries, keys,
values and attention probabilities.

The executor is what :meth:`repro.serve.engine.ServingEngine.deploy`
installs when called with ``attention="analog"``: every transformer
block's attention module is swapped for an
:class:`~repro.nn.attention.AnalogAttention` holding this executor, and
the model's KV-cache factory is pointed at :meth:`make_cache` so the
continuous scheduler's shared cache comes out crossbar-backed with zero
scheduler changes.

When a :class:`~repro.dist.DeviceMesh` and an attention-head placement
are supplied, every KV append is charged to the interconnect ledger:
head tiles co-located with their block's chip write over the on-chip
link, remote heads over the chip-to-chip link.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.attention import AnalogAttention, MultiHeadAttention
from repro.nn.tensor import Tensor
from repro.rram.backend import CrossbarBackend, resolve_backend
from repro.rram.cell import MLC2, CellType
from repro.rram.crossbar import CrossbarConfig, GemvStats
from repro.rram.dynamic import DynamicOperand, PlaneBank

__all__ = ["CrossbarAttentionExecutor", "ReferenceQuantizedAttention"]


class CrossbarAttentionExecutor:
    """Deploy-wide context for analog attention over dynamic operands.

    Parameters
    ----------
    cell:
        RRAM cell type for the KV operand tiles (default 2-bit MLC).
    noise_sigma:
        Programming-noise σ applied to every appended K/V cell (0 = ideal;
        the engine derives this from its :class:`~repro.rram.NoiseSpec`).
    weight_bits / activation_bits:
        Signed code widths of the stored operand rows and the streamed
        inputs (both INT8 by default, matching the hybrid linear path).
    config / backend:
        Crossbar geometry and execution backend — shared with the
        static-weight path so one wear ledger covers the chip.  Reads run
        the kernel the process-wide policy picks.
    seed:
        Seed for the programming-noise generator.
    mesh / placement:
        Optional :class:`~repro.dist.DeviceMesh` plus a placement object
        exposing ``head_chip(layer, head)`` and ``block_chip(layer)``
        (see :func:`repro.dist.place_attention_heads`); enables KV-write
        traffic accounting.
    """

    def __init__(
        self,
        cell: CellType = MLC2,
        noise_sigma: float = 0.0,
        weight_bits: int = 8,
        activation_bits: int = 8,
        config: CrossbarConfig | None = None,
        backend: CrossbarBackend | None = None,
        seed: int = 0,
        mesh=None,
        placement=None,
    ) -> None:
        self.cell = cell
        self.noise_sigma = float(noise_sigma)
        self.weight_bits = int(weight_bits)
        self.activation_bits = int(activation_bits)
        self.config = config or CrossbarConfig()
        self.backend = resolve_backend(backend)
        self.mesh = mesh
        self.placement = placement
        self.rng = np.random.default_rng(seed)
        #: shared read/write accounting across every operand this executor mints
        self.stats = GemvStats()
        #: every DynamicOperand minted (for wear reporting)
        self.operands: list[DynamicOperand] = []
        #: tokens written into layer-0 operands (== tokens cached per stream)
        self.kv_tokens_written = 0

    # ------------------------------------------------------------------
    # Operand / cache factories
    # ------------------------------------------------------------------
    def new_operand(self, capacity: int, width: int, grow: str) -> DynamicOperand:
        """Mint a KV dynamic operand wired to this executor's context."""
        op = DynamicOperand(
            capacity,
            width,
            cell=self.cell,
            grow=grow,
            weight_bits=self.weight_bits,
            noise_sigma=self.noise_sigma,
            rng=self.rng,
            config=self.config,
            backend=self.backend,
            stats=self.stats,
        )
        self.operands.append(op)
        return op

    def make_cache(
        self,
        num_layers: int,
        batch: int,
        num_heads: int,
        head_dim: int,
        capacity: int,
        dtype=None,
    ):
        """KV-cache factory the engine installs on the deployed model.

        Signature-compatible with what
        :meth:`repro.nn.transformer.DecoderLM.new_cache` allocates, so the
        continuous scheduler transparently allocates a crossbar-backed
        cache.
        """
        from repro.pim.kv_cache import CrossbarKVCache

        return CrossbarKVCache(
            num_layers,
            batch,
            num_heads,
            head_dim,
            capacity,
            dtype=dtype,
            executor=self,
        )

    # ------------------------------------------------------------------
    # Activation quantization (symmetric signed INT8 by default)
    # ------------------------------------------------------------------
    @property
    def _qmax(self) -> int:
        return 2 ** (self.activation_bits - 1) - 1

    def _quantize(self, x: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric quantization with one scale per reduction over ``axis``."""
        x = np.asarray(x, dtype=np.float64)
        absmax = np.maximum(np.abs(x).max(axis=axis, keepdims=True, initial=0.0), 1e-12)
        scales = absmax / self._qmax
        codes = np.clip(np.rint(x / scales), -self._qmax, self._qmax)
        return codes.astype(np.int64), np.squeeze(scales, axis)

    def quantize_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row symmetric quantization of ``(..., d)`` → codes + ``(...)`` scales."""
        return self._quantize(x, -1)

    def quantize_blocks(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One scale per trailing 2-D block of ``(..., m, n)`` → codes + ``(...)`` scales."""
        return self._quantize(x, (-2, -1))

    def quantize_block(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """One-scale quantization of one 2-D block → codes + scale.

        The one-block case of :meth:`quantize_blocks`, and the form the
        :class:`ReferenceQuantizedAttention` specification calls.
        """
        codes, scale = self.quantize_blocks(x)
        return codes, float(scale)

    # ------------------------------------------------------------------
    # Stacked crossbar reads
    # ------------------------------------------------------------------
    def gemv(self, bank: PlaneBank, input_codes: np.ndarray, members: slice) -> np.ndarray:
        """GEMVs of ``bank``'s ``members`` as one stacked call (:meth:`PlaneBank.gemv`)."""
        return bank.gemv(input_codes, self.activation_bits, members)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def record_kv_write(
        self, layer: int, batch: int, tokens: int, head_dim: int, num_heads: int
    ) -> None:
        """Account one cache append: token counter + interconnect bytes.

        Bytes cover both operands (K and V) at one byte per INT8 code.
        Heads whose tiles sit on their block's chip write over the on-chip
        link; remote heads cross the chip-to-chip link.
        """
        if layer == 0:
            self.kv_tokens_written += batch * tokens
        if self.mesh is None:
            return
        per_head = batch * tokens * head_dim * 2
        for head in range(num_heads):
            link = "oci"
            if self.placement is not None and self.placement.head_chip(
                layer, head
            ) != self.placement.block_chip(layer):
                link = "pcie6"
            self.mesh.record(link, per_head)

    def wear_report(self) -> dict:
        """Endurance summary over every operand this executor minted.

        ``dynamic_writes`` / ``dynamic_write_pulses`` come from the
        backend ledger's dynamic channel (all partial-region writes on
        this backend); the wear fractions are per-operand-tile maxima and
        means, and ``kv_tokens_written`` counts tokens cached per stream
        (layer-0 appends), giving the wear-per-token denominators the
        benchmarks report.
        """
        fracs = [op.wear_fraction() for op in self.operands]
        ledger = self.backend.ledger
        return {
            "operands": len(self.operands),
            "kv_tokens_written": int(self.kv_tokens_written),
            "dynamic_writes": int(ledger.dynamic_writes),
            "dynamic_write_pulses": int(sum(ledger.dynamic_write_pulses.values())),
            "max_wear_fraction": float(max(fracs, default=0.0)),
            "mean_wear_fraction": float(np.mean(fracs)) if fracs else 0.0,
        }


class ReferenceQuantizedAttention(AnalogAttention):
    """Bit-exact host-side specification of the analog attention path.

    Runs over a *plain* :class:`~repro.nn.kv_cache.KVCache`, re-deriving
    the INT8 K/V codes and per-token scales from the float buffers on
    every forward and executing the same integer products, in the same
    float operation order, as :class:`~repro.nn.attention.AnalogAttention`
    does through crossbar GEMVs.  Because per-token quantization depends
    only on each token's own row, re-quantizing the cached prefix
    reproduces exactly the codes the crossbar operands accumulated append
    by append — so a noiseless, saturation-free analog deployment must
    agree with this module *bitwise*, end to end, token for token.

    That makes it the equality reference for the analog path's tests and
    benchmark gates: analog-vs-:class:`ReferenceQuantizedAttention` is an
    exact check of the crossbar machinery (operand growth, epoch caching,
    row compaction, scale bookkeeping), while analog-vs-float-host is a
    tolerance check of the INT8 quantization itself.

    The executor here is used only for its ``quantize_rows`` /
    ``quantize_block`` helpers and ``activation_bits`` — no operands are
    minted and nothing touches a backend.
    """

    def _attend(self, q, k, v, attention_mask, cache):
        """Quantized host core mirroring the analog execution order."""
        if cache is None or not self.causal:
            return MultiHeadAttention._attend(self, q, k, v, attention_mask, cache)
        batch, seq, _ = q.shape
        dtype = q.data.dtype
        q, k, v = (self._split_heads(t, batch, seq) for t in (q, k, v))
        kv = cache.cache
        lengths = np.asarray(kv.lengths, dtype=np.int64).copy()
        cache.append(k.data, v.data)

        ex = self.executor
        inv_sqrt_d = 1.0 / math.sqrt(self.d_head)
        k_buf = kv.keys[cache.index]
        v_buf = kv.values[cache.index]
        context = np.zeros((batch, self.num_heads, seq, self.d_head))
        for r in range(batch):
            total = int(lengths[r]) + seq
            blocked = (
                np.arange(total)[None, :]
                > (int(lengths[r]) + np.arange(seq))[:, None]
            )
            for h in range(self.num_heads):
                q_codes, q_scale = ex.quantize_block(q.data[r, h])
                k_codes, k_scales = ex.quantize_rows(k_buf[r, h, :total])
                scores_int = q_codes @ k_codes.T
                scores = (
                    np.asarray(scores_int, dtype=np.float64)
                    * (q_scale * inv_sqrt_d)
                    * k_scales[None, :]
                )
                scores[blocked] = -1e9
                shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
                probs = shifted / shifted.sum(axis=-1, keepdims=True)
                v_codes, v_scales = ex.quantize_rows(v_buf[r, h, :total])
                weighted = probs * v_scales[None, :]
                p_codes, p_scale = ex.quantize_block(weighted)
                ctx_int = p_codes @ v_codes
                context[r, h] = np.asarray(ctx_int, dtype=np.float64) * p_scale
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        return Tensor(merged.astype(dtype))
