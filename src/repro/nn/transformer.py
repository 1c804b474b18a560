"""Transformer model family used throughout the reproduction.

Three variants mirror the paper's benchmark suite (Section 5.1):

- :class:`EncoderClassifier` — BERT-like encoder for GLUE-style sequence
  classification / regression,
- :class:`DecoderLM` — GPT-like causal language model (WikiText-2 / PTB),
- :class:`VisionTransformer` — ViT-like patch classifier (CIFAR-10).

All share :class:`TransformerBlock` (MHA + FFN with pre-activation residual
connections) so the SVD gradient-redistribution pipeline can treat every
static linear layer uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.kv_cache import KVCache, PackedLayer
from repro.nn.modules import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    ReLU,
)
from repro.nn.tensor import Tensor, concatenate, no_grad

__all__ = [
    "TransformerConfig",
    "TransformerBlock",
    "EncoderClassifier",
    "DecoderLM",
    "VisionTransformer",
]


@dataclass
class TransformerConfig:
    """Structural hyper-parameters shared by all model variants."""

    vocab_size: int = 100
    d_model: int = 64
    num_heads: int = 4
    num_layers: int = 2
    d_ff: int = 256
    max_seq_len: int = 64
    dropout: float = 0.0
    activation: str = "gelu"
    num_classes: int = 2
    # Vision-specific fields (ignored by text models).
    image_size: int = 32
    patch_size: int = 8
    in_channels: int = 3
    seed: int = 0
    name: str = "transformer"
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.in_channels * self.patch_size * self.patch_size


def _activation(config: TransformerConfig) -> Module:
    return GELU() if config.activation == "gelu" else ReLU()


class FeedForward(Module):
    """Two-layer FFN (FFN1: D_h -> D_ff, FFN2: D_ff -> D_h) from Fig. 1."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.ffn1 = Linear(config.d_model, config.d_ff, rng=rng)
        self.act = _activation(config)
        self.ffn2 = Linear(config.d_ff, config.d_model, rng=rng)
        self.dropout = Dropout(config.dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.dropout(self.ffn2(self.act(self.ffn1(x))))


class TransformerBlock(Module):
    """Pre-norm Transformer block: MHA + FFN with residual connections."""

    def __init__(
        self, config: TransformerConfig, rng: np.random.Generator, causal: bool = False
    ) -> None:
        super().__init__()
        self.ln1 = LayerNorm(config.d_model)
        self.attn = MultiHeadAttention(
            config.d_model, config.num_heads, dropout=config.dropout, causal=causal, rng=rng
        )
        self.ln2 = LayerNorm(config.d_model)
        self.ffn = FeedForward(config, rng)
        self.dropout = Dropout(config.dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        attention_mask: np.ndarray | None = None,
        cache=None,
    ) -> Tensor:
        """Apply the block; ``cache`` (a per-layer KV slot) enables the
        incremental path where ``x`` holds only the new tokens."""
        x = x + self.dropout(
            self.attn(self.ln1(x), attention_mask=attention_mask, cache=cache)
        )
        x = x + self.ffn(self.ln2(x))
        return x

    def static_linears(self) -> dict[str, Linear]:
        """All six static-weight linear layers of this block (Fig. 9)."""
        linears = dict(self.attn.static_linears())
        linears["ffn1"] = self.ffn.ffn1
        linears["ffn2"] = self.ffn.ffn2
        return linears


class _TransformerBase(Module):
    """Shared plumbing: block stack plus static-linear enumeration."""

    config: TransformerConfig
    blocks: ModuleList

    def iter_static_linears(self):
        """Yield (dotted_name, Linear) for every static weight matrix.

        These are exactly the matrices the paper sends through SVD + gradient
        redistribution and stores in analog RRAM (Section 3.3).
        """
        for i, block in enumerate(self.blocks):
            for name, linear in block.static_linears().items():
                yield f"blocks.{i}.{name}", linear

    def replace_static_linear(self, dotted_name: str, replacement: Module) -> None:
        """Swap a static linear (by dotted name) for a factored/PIM variant."""
        parts = dotted_name.split(".")
        if parts[0] != "blocks":
            raise KeyError(f"not a block-level linear: {dotted_name}")
        block = self.blocks[int(parts[1])]
        leaf = parts[2]
        if leaf in ("w_q", "w_k", "w_v", "w_proj"):
            setattr(block.attn, leaf, replacement)
        elif leaf in ("ffn1", "ffn2"):
            setattr(block.ffn, leaf, replacement)
        else:
            raise KeyError(f"unknown static linear {dotted_name}")


class EncoderClassifier(_TransformerBase):
    """BERT-like encoder with a [CLS]-pooled classification/regression head."""

    def __init__(self, config: TransformerConfig) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.position_embedding = Embedding(config.max_seq_len, config.d_model, rng=rng)
        self.embed_dropout = Dropout(config.dropout, rng=rng)
        self.blocks = ModuleList(
            [TransformerBlock(config, rng, causal=False) for _ in range(config.num_layers)]
        )
        self.final_norm = LayerNorm(config.d_model)
        self.head = Linear(config.d_model, config.num_classes, rng=rng)

    def forward(self, token_ids: np.ndarray, attention_mask: np.ndarray | None = None) -> Tensor:
        """Return logits of shape (batch, num_classes).

        ``token_ids`` is an integer array (batch, seq).  Position 0 acts as
        the [CLS] pooling position, as in BERT.
        """
        token_ids = np.asarray(token_ids)
        batch, seq = token_ids.shape
        if seq > self.config.max_seq_len:
            raise ValueError(f"sequence length {seq} exceeds max {self.config.max_seq_len}")
        positions = np.arange(seq)
        x = self.token_embedding(token_ids) + self.position_embedding(positions)
        x = self.embed_dropout(x)
        for block in self.blocks:
            x = block(x, attention_mask=attention_mask)
        x = self.final_norm(x)
        cls = x[:, 0, :]
        return self.head(cls)


class DecoderLM(_TransformerBase):
    """GPT-like causal language model with tied-free LM head."""

    def __init__(self, config: TransformerConfig) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.position_embedding = Embedding(config.max_seq_len, config.d_model, rng=rng)
        self.embed_dropout = Dropout(config.dropout, rng=rng)
        self.blocks = ModuleList(
            [TransformerBlock(config, rng, causal=True) for _ in range(config.num_layers)]
        )
        self.final_norm = LayerNorm(config.d_model)
        self.lm_head = Linear(config.d_model, config.vocab_size, bias=False, rng=rng)

    def forward(
        self,
        token_ids: np.ndarray,
        cache: KVCache | None = None,
        lengths: np.ndarray | None = None,
    ) -> Tensor:
        """Return next-token logits of shape (batch, seq, vocab).

        Without ``cache`` this is the full-context forward over all ``seq``
        positions.  With a :class:`~repro.nn.kv_cache.KVCache`, ``token_ids``
        holds only the *new* tokens: K/V are computed for those alone,
        appended to the per-layer caches, and attention runs over the cached
        prefix — O(L) work per emitted token instead of O(L²).  The cache's
        per-row lengths supply both the position-embedding offsets and the
        key-validity masks, so rows of different lengths decode together
        correctly.  The two paths produce identical logits for the new
        tokens up to floating-point reassociation (verified in tests at the
        active compute dtype).

        With ``lengths`` the call is a prefill pack (see :meth:`prefill`):
        ``token_ids`` is ``(1, sum(lengths))``, the prompts concatenated,
        ``cache`` holds one empty row per prompt, and the result is
        ``(len(lengths), 1, vocab)``, each prompt's last-position logits.
        """
        token_ids = np.asarray(token_ids)
        _, seq = token_ids.shape
        pack = None
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
            if int(lengths.max()) > self.config.max_seq_len:
                raise ValueError(
                    f"prompt length {int(lengths.max())} exceeds max {self.config.max_seq_len}"
                )
            stops = np.cumsum(lengths)
            rows = [cache.row_view(r) for r in range(len(lengths))]
            pack = list(zip(stops - lengths, stops, rows))
            positions: np.ndarray = np.concatenate([np.arange(n) for n in lengths])[None, :]
        elif cache is None:
            if seq > self.config.max_seq_len:
                raise ValueError(
                    f"sequence length {seq} exceeds max {self.config.max_seq_len}"
                )
            positions = np.arange(seq)
        else:
            if cache.max_length + seq > self.config.max_seq_len:
                raise ValueError(
                    f"cached length {cache.max_length} + {seq} new tokens exceeds "
                    f"max {self.config.max_seq_len}"
                )
            # Per-row absolute positions: each row continues from its own
            # valid prefix length, which keeps ragged batches equivalent to
            # running every row alone.
            positions = cache.lengths[:, None] + np.arange(seq)[None, :]
        x = self.token_embedding(token_ids) + self.position_embedding(positions)
        x = self.embed_dropout(x)
        attention_mask = None
        if cache is not None and pack is None:
            # The ragged key-validity mask depends only on the cache lengths,
            # so compute it once here and share it across every layer.
            attention_mask = cache.key_padding_mask(cache.max_length + seq)
        for i, block in enumerate(self.blocks):
            if pack is not None:
                layer = PackedLayer([(start, stop, row.layer(i)) for start, stop, row in pack])
            else:
                layer = None if cache is None else cache.layer(i)
            x = block(x, attention_mask=attention_mask, cache=layer)
        if pack is not None:
            # Only each prompt's last position is read: one (1, d_model) row
            # per prompt, as a prompt prefilled alone would present it.
            x = x[0, stops - 1].reshape(len(lengths), 1, -1)
        x = self.final_norm(x)
        logits = self.lm_head(x)
        if cache is not None:
            cache.advance(seq if lengths is None else lengths)
        return logits

    def new_cache(self, batch: int, capacity: int | None = None) -> KVCache:
        """Allocate a KV cache sized for this model (``capacity`` defaults to
        ``max_seq_len``).

        An installed ``kv_cache_factory`` attribute (set by e.g.
        ``ServingEngine.deploy(attention="analog")``) takes over
        allocation with the same geometry, so the scheduler's shared cache
        comes out crossbar-backed without scheduler changes.
        """
        factory = getattr(self, "kv_cache_factory", None) or KVCache
        return factory(
            num_layers=self.config.num_layers,
            batch=batch,
            num_heads=self.config.num_heads,
            head_dim=self.config.d_head,
            capacity=min(capacity or self.config.max_seq_len, self.config.max_seq_len),
        )

    def prefill(
        self, tokens: np.ndarray, cache: KVCache, lengths: np.ndarray | None = None
    ) -> np.ndarray:
        """Prefill a pack of prompts into empty cache rows; return each
        prompt's last-position logits.

        ``tokens`` is 1-D: the pack's prompts concatenated, prompt ``i``
        being the next ``lengths[i]`` tokens (``lengths`` defaults to one
        prompt of every token).  ``cache`` holds one empty row per prompt,
        typically a contiguous row view of a live shared cache whose other
        rows are mid-decode; this is the admission path of the continuous
        scheduler.  Returns ``(len(lengths), vocab)`` logits — exactly the
        logits :meth:`generate` uses to select the first generated token,
        so a scheduler built on this emits token-for-token what one-shot
        generation emits.

        The pack runs as one :meth:`forward`.  Embeddings, LayerNorms, the
        static projections and the FFN see only the pack's real prompt
        positions, with no padding; attention runs per prompt, over exactly
        its own positions and on its own row, so only real tokens are
        written to the cache and softmax reduces over exactly the widths
        it would alone; the final norm and the LM head read one row per
        prompt.  Each of those is row-wise, so a prompt's logits equal its
        solo prefill's bit for bit wherever the row-wise products are
        exact (crossbar layers with frozen activation scales).  A host
        float BLAS product may round differently at another height (it
        picks its kernel by matrix size), which moves a logit by an ulp or
        so.  Layers that scale activations per call (uncalibrated) see the
        whole pack, as batched decode already does.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError("prefill takes the pack's prompts concatenated into one 1-D array")
        lengths = np.array([tokens.size] if lengths is None else lengths, dtype=np.int64)
        if lengths.shape != (cache.batch,) or int(lengths.sum()) != tokens.size:
            raise ValueError(
                f"pack lengths {lengths.tolist()} must give one prompt per cache row "
                f"({cache.batch}) and cover {tokens.size} tokens"
            )
        if lengths.min() < 1:
            raise ValueError("every prompt in a pack needs at least one token")
        if int(cache.lengths.max(initial=0)) != 0:
            raise ValueError("prefill requires empty cache rows (reset or cleared)")
        return self.forward(tokens[None, :], cache=cache, lengths=lengths).data[:, -1]

    def select_tokens(
        self, logits: np.ndarray, rng: np.random.Generator | None
    ) -> np.ndarray:
        """Greedy argmax (rng=None) or per-row categorical sampling."""
        if rng is None:
            return np.argmax(logits, axis=-1).astype(np.int64)
        shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = shifted / shifted.sum(axis=-1, keepdims=True)
        return np.array(
            [int(rng.choice(probs.shape[-1], p=row)) for row in probs], dtype=np.int64
        )

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int | np.ndarray,
        rng: np.random.Generator | None = None,
        prompt_lengths: np.ndarray | None = None,
        use_cache: bool = True,
        eos_id: int | None = None,
        pad_id: int = 0,
    ) -> np.ndarray:
        """Batched autoregressive generation, O(L) per token via the KV cache.

        Parameters
        ----------
        prompt:
            ``(L,)`` single prompt or ``(B, L)`` batch of right-padded
            prompts.  A 1-D prompt returns a 1-D output (back-compat).
        max_new_tokens:
            Token budget — a scalar, or a ``(B,)`` array of per-row budgets.
            A row stops emitting once its own budget is spent; the output is
            sized for the largest budget and short rows pad the tail with
            ``pad_id``.  A finished row is not free: it stays in the batch
            and every later decode forward still runs it, fed token id 0,
            until the longest budget is spent.  On a crossbar KV cache those
            feeds are written to cells (and counted as wear) like real tokens.
        rng:
            None for greedy decoding; a Generator samples from the softmax.
        prompt_lengths:
            Optional ``(B,)`` valid-token counts for ragged prompts; rows
            continue generation right after their own prompt.  The cached
            path prefills the valid tokens alone, as one :meth:`prefill`
            pack, so no pad position is computed or cached.
        use_cache:
            True (default) runs the KV-cached incremental path; False keeps
            the naive full-context recompute (the O(L²) baseline measured by
            ``bench_serve``).  Requests that cannot fit ``max_seq_len``
            positions automatically fall back to the naive sliding-window
            recompute (the historical behaviour).
        eos_id:
            Optional stop token: a row that emits it stops early and pads the
            rest of its budget with ``pad_id``.
        pad_id:
            Filler for positions past a finished row's last token.
        """
        prompt = np.asarray(prompt)
        squeeze = prompt.ndim == 1
        tokens = prompt.reshape(1, -1) if squeeze else np.asarray(prompt)
        batch, prompt_len = tokens.shape
        if prompt_len == 0:
            raise ValueError("prompt must contain at least one token")
        if prompt_lengths is None:
            lengths = np.full(batch, prompt_len, dtype=np.int64)
        else:
            lengths = np.asarray(prompt_lengths, dtype=np.int64)
            if lengths.shape != (batch,):
                raise ValueError(
                    f"prompt_lengths must have shape ({batch},), got {lengths.shape}"
                )
            if lengths.min() < 1 or lengths.max() > prompt_len:
                raise ValueError("prompt_lengths must be in [1, prompt.shape[1]]")
        budgets = np.broadcast_to(
            np.asarray(max_new_tokens, dtype=np.int64), (batch,)
        ).copy()
        if budgets.min() < 0:
            raise ValueError("max_new_tokens must be non-negative")
        max_budget = int(budgets.max())

        out = np.full((batch, prompt_len + max_budget), pad_id, dtype=np.int64)
        out[:, :prompt_len] = tokens
        for i in range(batch):  # pad slack inside ragged prompts
            out[i, lengths[i] : prompt_len] = pad_id
        cur = lengths.copy()
        active = budgets > 0

        # Long requests degrade gracefully: a request past max_seq_len falls
        # back to the naive sliding-window recompute (the historical
        # behaviour) instead of raising.
        if use_cache and int(lengths.max()) + int(budgets.max()) > self.config.max_seq_len:
            use_cache = False

        # Decoding is inference: freeze dropout so the cached and naive
        # paths emit identical tokens (and cached K/V are noise-free).
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                if use_cache:
                    self._generate_cached(out, cur, active, budgets, rng, eos_id)
                else:
                    self._generate_naive(out, cur, active, budgets, rng, eos_id)
        finally:
            if was_training:
                self.train()
        return out[0] if squeeze else out

    def _generate_cached(
        self,
        out: np.ndarray,
        cur: np.ndarray,
        active: np.ndarray,
        budgets: np.ndarray,
        rng: np.random.Generator | None,
        eos_id: int | None,
    ) -> None:
        batch = out.shape[0]
        max_budget = int(budgets.max())
        prompt_len = int(cur.max())
        if not active.any():
            return
        cache = self.new_cache(batch, capacity=prompt_len + max_budget)
        # Prefill: one pack of the real prompt tokens, so no pad position
        # is computed or written to the cache.
        prompts = np.concatenate([out[i, : cur[i]] for i in range(batch)])
        step_logits = self.prefill(prompts, cache, cur.copy())
        for step in range(max_budget):
            next_tokens = self.select_tokens(step_logits, rng)
            next_tokens = np.where(active, next_tokens, 0)
            out[np.arange(batch)[active], cur[active]] = next_tokens[active]
            cur[active] += 1
            if eos_id is not None:
                active &= next_tokens != eos_id
            active &= budgets > step + 1  # per-row budgets spend independently
            if not active.any():
                break
            # Feed the emitted token (token id 0 for finished rows: their
            # logits are never read again, but the batch stays rectangular).
            step_logits = self.forward(next_tokens[:, None], cache=cache).data[:, -1]

    def _generate_naive(
        self,
        out: np.ndarray,
        cur: np.ndarray,
        active: np.ndarray,
        budgets: np.ndarray,
        rng: np.random.Generator | None,
        eos_id: int | None,
    ) -> None:
        batch = out.shape[0]
        for step in range(int(budgets.max())):
            if not active.any():
                break
            # Window geometry follows the *active* rows: finished rows'
            # shorter `cur` must neither shrink the window nor (below) index
            # outside it once the window starts sliding.
            total = int(cur[active].max())
            start = max(0, total - self.config.max_seq_len)
            if start > 0 and not np.all(cur[active] == cur[active][0]):
                raise ValueError(
                    "naive sliding-window generation does not support ragged "
                    "rows past max_seq_len"
                )
            window = out[:, start:total]
            logits = self.forward(window).data
            read = np.clip(cur - 1 - start, 0, window.shape[1] - 1)
            step_logits = logits[np.arange(batch), read]
            next_tokens = self.select_tokens(step_logits, rng)
            out[np.arange(batch)[active], cur[active]] = next_tokens[active]
            cur[active] += 1
            if eos_id is not None:
                active &= next_tokens != eos_id
            active &= budgets > step + 1


class VisionTransformer(_TransformerBase):
    """ViT-like classifier over non-overlapping image patches."""

    def __init__(self, config: TransformerConfig) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.patch_projection = Linear(config.patch_dim, config.d_model, rng=rng)
        self.cls_token = Embedding(1, config.d_model, rng=rng)
        self.position_embedding = Embedding(config.num_patches + 1, config.d_model, rng=rng)
        self.embed_dropout = Dropout(config.dropout, rng=rng)
        self.blocks = ModuleList(
            [TransformerBlock(config, rng, causal=False) for _ in range(config.num_layers)]
        )
        self.final_norm = LayerNorm(config.d_model)
        self.head = Linear(config.d_model, config.num_classes, rng=rng)

    @staticmethod
    def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
        """Convert (B, C, H, W) images into (B, num_patches, patch_dim)."""
        batch, channels, height, width = images.shape
        if height % patch_size or width % patch_size:
            raise ValueError("image dimensions must be divisible by patch_size")
        ph, pw = height // patch_size, width // patch_size
        patches = images.reshape(batch, channels, ph, patch_size, pw, patch_size)
        patches = patches.transpose(0, 2, 4, 1, 3, 5)
        return patches.reshape(batch, ph * pw, channels * patch_size * patch_size)

    def forward(self, images: np.ndarray) -> Tensor:
        """Return logits (batch, num_classes) for images (B, C, H, W)."""
        patches = self.patchify(np.asarray(images), self.config.patch_size)
        batch = patches.shape[0]
        x = self.patch_projection(Tensor(patches))
        cls = self.cls_token(np.zeros((batch, 1), dtype=int))
        x = concatenate([cls, x], axis=1)
        positions = np.arange(self.config.num_patches + 1)
        x = x + self.position_embedding(positions)
        x = self.embed_dropout(x)
        for block in self.blocks:
            x = block(x)
        x = self.final_norm(x)
        return self.head(x[:, 0, :])
