"""Property tests for generate()'s sliding-window fallback past max_seq_len.

``DecoderLM.generate`` silently degrades to the naive sliding-window
recompute when a request cannot fit ``max_seq_len`` cached positions and
no explicit cache was supplied.  Hypothesis drives the boundary from both
sides: (a) requests that *fit* must emit identical greedy tokens on the
cached and naive paths for arbitrary ragged prompts and per-row budgets;
(b) requests that *overflow* must fall back (no exception, full budget
emitted, bitwise-equal to an explicit ``use_cache=False`` run) and agree
with the cached path on every token emitted before the window first
slides; (c) ragged rows that overflow raise the documented ``ValueError``
once the window actually starts sliding; (d) an explicit cache disables
the fallback and raises on capacity overflow instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import DecoderLM, TransformerConfig

VOCAB = 16
MAX_SEQ = 12


def _lm() -> DecoderLM:
    return DecoderLM(
        TransformerConfig(
            vocab_size=VOCAB,
            d_model=8,
            num_heads=2,
            num_layers=1,
            d_ff=16,
            max_seq_len=MAX_SEQ,
            seed=5,
        )
    )


LM = _lm()  # deterministic weights; generate() is stateless across calls


def _prompt(rng: np.random.Generator, batch: int, length: int) -> np.ndarray:
    return rng.integers(0, VOCAB, size=(batch, length))


class TestFittingRequests:
    @settings(max_examples=15, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=3),
        prompt_len=st.integers(min_value=1, max_value=5),
        budget=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_cached_equals_naive_within_capacity(
        self, batch, prompt_len, budget, seed, data
    ):
        """Ragged prompts + per-row budgets: both paths, same tokens."""
        rng = np.random.default_rng(seed)
        prompt = _prompt(rng, batch, prompt_len)
        lengths = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=prompt_len),
                    min_size=batch,
                    max_size=batch,
                )
            )
        )
        budgets = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=budget),
                    min_size=batch,
                    max_size=batch,
                )
            )
        )
        assert int(lengths.max()) + int(budgets.max()) <= MAX_SEQ
        cached = LM.generate(
            prompt, budgets, prompt_lengths=lengths, use_cache=True
        )
        naive = LM.generate(
            prompt, budgets, prompt_lengths=lengths, use_cache=False
        )
        np.testing.assert_array_equal(cached, naive)


class TestOverflowFallback:
    @settings(max_examples=15, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=3),
        prompt_len=st.integers(min_value=1, max_value=6),
        overflow=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_aligned_overflow_falls_back_and_matches_naive(
        self, batch, prompt_len, overflow, seed
    ):
        """use_cache=True past max_seq_len == explicit use_cache=False,
        and agrees with the cached path until the window first slides."""
        rng = np.random.default_rng(seed)
        prompt = _prompt(rng, batch, prompt_len)
        budget = MAX_SEQ - prompt_len + overflow  # needs MAX_SEQ + overflow
        fallback = LM.generate(prompt, budget, use_cache=True)
        naive = LM.generate(prompt, budget, use_cache=False)
        np.testing.assert_array_equal(fallback, naive)
        assert fallback.shape == (batch, prompt_len + budget)
        # Before any sliding (total <= MAX_SEQ) the full-context window is
        # exactly what the cached path attends to: prefixes must agree.
        fitting = MAX_SEQ - prompt_len
        if fitting > 0:
            cached = LM.generate(prompt, fitting, use_cache=True)
            np.testing.assert_array_equal(
                fallback[:, : prompt_len + fitting], cached
            )

    @settings(max_examples=10, deadline=None)
    @given(
        short=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_ragged_overflow_raises_once_window_slides(self, short, seed):
        """Ragged rows past max_seq_len hit the documented ValueError."""
        rng = np.random.default_rng(seed)
        prompt = _prompt(rng, 2, 6)
        lengths = np.array([6, short])
        budget = MAX_SEQ  # both rows stay active well past the boundary
        with pytest.raises(ValueError, match="ragged"):
            LM.generate(prompt, budget, prompt_lengths=lengths, use_cache=True)
