"""The model every workload serves, and the seeded request streams.

The fixture is a small GPT-like :class:`~repro.nn.DecoderLM` trained on a
seeded Markov corpus, then compiled by the gradient-redistribution
pipeline (SVD, fine-tune, top-10% gradient ranks on SLC).  It depends on no
run argument: every run serves the same program, and only the request
stream changes with ``--seed``.  Compilation is timed but kept out of the
set-up metric (it is reported as ``svd.compile_s``).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic_lm import LMCorpusSpec, MarkovCorpus, make_lm_corpus
from repro.exp.builders import train_decoder_lm
from repro.nn import DecoderLM
from repro.nn.data import ArrayDataset
from repro.svd.pipeline import GradientRedistributionPipeline, LayerPlan

__all__ = ["Fixture", "RequestStream", "build_fixture"]

#: Served model geometry: 2 blocks, d_model 64, d_ff 128, vocab 128.
MODEL = {"num_layers": 2, "d_model": 64, "num_heads": 4, "d_ff": 128}
CORPUS = LMCorpusSpec(
    name="perfbench",
    vocab_size=128,
    seq_len=64,
    train_sequences=128,
    test_sequences=16,
    branching=4,
)
FIXTURE_SEED = 0
#: Prompts pushed through the deployed model once to freeze activation scales.
CALIBRATION_PROMPTS = 8


@dataclass
class Fixture:
    """Trained float model, its compiled plans and the held-out set."""

    corpus: MarkovCorpus
    host_model: DecoderLM  # trained float model; never deployed
    compiled: DecoderLM  # SVD-factored model the plans were read from
    plans: dict[str, LayerPlan]
    compile_s: float
    calibration: np.ndarray

    @property
    def heldout(self) -> ArrayDataset:
        """Held-out sequences for ``eval_nll``."""
        return self.corpus.test

    @property
    def rank_total(self) -> int:
        """Sum of the truncated ranks over every compiled layer."""
        return sum(plan.rank for plan in self.plans.values())

    @property
    def protected_fraction(self) -> float:
        """Share of all ranks placed on SLC."""
        protected = sum(int(plan.protected_ranks.sum()) for plan in self.plans.values())
        return protected / max(1, self.rank_total)


def build_fixture() -> Fixture:
    """Train and compile the served model (deterministic, seed-independent)."""
    corpus = make_lm_corpus(CORPUS, seed=FIXTURE_SEED)
    host_model = train_decoder_lm(
        corpus, epochs=3, batch_size=16, learning_rate=3e-3, seed=FIXTURE_SEED, **MODEL
    )
    compiled = copy.deepcopy(host_model)
    started = time.perf_counter()
    plan = GradientRedistributionPipeline(
        protect_fraction=0.1, epochs=1, rng=np.random.default_rng(FIXTURE_SEED)
    ).run(compiled, corpus.train, "lm")
    compile_s = time.perf_counter() - started
    return Fixture(
        corpus=corpus,
        host_model=host_model,
        compiled=compiled,
        plans=plan.layers,
        compile_s=compile_s,
        calibration=corpus.train.inputs[:CALIBRATION_PROMPTS],
    )


class RequestStream:
    """Seeded, pre-generated requests: Markov-chain prompts plus budgets.

    Prompts follow the corpus's own transition matrix, so the served model
    sees in-distribution text.  Everything is drawn up front, outside any
    timed region.
    """

    def __init__(
        self,
        transition: np.ndarray,
        seed: int,
        size: int,
        prompt_len: tuple[int, int],
        budget: tuple[int, int],
    ) -> None:
        rng = np.random.default_rng(seed)
        vocab = transition.shape[0]
        lo, hi = prompt_len
        self.lengths = rng.integers(lo, hi + 1, size=size)
        self.budgets = rng.integers(budget[0], budget[1] + 1, size=size)
        cumulative = transition.cumsum(axis=1)
        tokens = np.empty((size, hi), dtype=np.int64)
        state = rng.integers(0, vocab, size=size)
        tokens[:, 0] = state
        for t in range(1, hi):
            state = (cumulative[state] < rng.random(size)[:, None]).sum(axis=1)
            state = np.minimum(state, vocab - 1)
            tokens[:, t] = state
        self.tokens = tokens

    def __len__(self) -> int:
        return len(self.lengths)

    def request(self, index: int) -> tuple[np.ndarray, int]:
        """``(prompt, max_new_tokens)`` of request ``index``."""
        if index >= len(self):
            raise IndexError(f"request stream exhausted at {index}; size it larger")
        return self.tokens[index, : self.lengths[index]].copy(), int(self.budgets[index])
