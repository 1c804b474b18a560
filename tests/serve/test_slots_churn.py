"""Churn tests for the row slots under the continuous scheduler.

`RowSlotManager` accounting must stay consistent — no leaked slots, no
double checkouts, compaction counters matching an independent oracle —
across 1k randomized admit/retire cycles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import DecoderLM, TransformerConfig
from repro.serve import RowSlotManager


@pytest.fixture
def model():
    return DecoderLM(
        TransformerConfig(
            vocab_size=16,
            d_model=8,
            num_heads=2,
            num_layers=1,
            d_ff=16,
            max_seq_len=16,
            seed=0,
        )
    )


class TestRowSlotManagerChurn:
    def test_randomized_churn_matches_oracle(self):
        """1k random checkout/retire cycles against a pure-python oracle of
        the live prefix: indices, compaction sources and counters all agree,
        and nothing leaks at the end."""
        rng = np.random.default_rng(42)
        mgr = RowSlotManager(8)
        oracle: list[int] = []  # request ids occupying rows 0..n_live
        next_id = 0
        checkouts = retirements = moves = 0
        for _ in range(1000):
            do_checkout = not oracle or (len(oracle) < 8 and rng.random() < 0.5)
            if do_checkout:
                row = mgr.checkout()
                assert row == len(oracle)  # always extends the prefix
                oracle.append(next_id)
                next_id += 1
                checkouts += 1
            else:
                row = int(rng.integers(0, len(oracle)))
                moved_src = mgr.retire(row)
                retirements += 1
                if moved_src is None:
                    assert row == len(oracle) - 1
                    oracle.pop()
                else:
                    assert moved_src == len(oracle) - 1  # swap-with-last
                    oracle[row] = oracle.pop()
                    moves += 1
            assert mgr.n_live == len(oracle)
            assert mgr.free == 8 - len(oracle)
            assert mgr.stats.checkouts == checkouts
            assert mgr.stats.retirements == retirements
            assert mgr.stats.compaction_moves == moves
        while oracle:  # drain: no leaked rows
            if mgr.retire(len(oracle) - 1) is None:
                oracle.pop()
        assert mgr.n_live == 0
        assert mgr.stats.checkouts == mgr.stats.retirements + 0

    def test_retire_non_live_row_raises(self):
        mgr = RowSlotManager(4)
        with pytest.raises(ValueError):
            mgr.retire(0)
        row = mgr.checkout()
        mgr.retire(row)
        with pytest.raises(ValueError):  # double retire
            mgr.retire(row)

    def test_checkout_past_capacity_raises(self):
        mgr = RowSlotManager(2)
        mgr.checkout()
        mgr.checkout()
        with pytest.raises(ValueError):
            mgr.checkout()

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RowSlotManager(0)


class TestEngineChurn:
    def test_engine_churn_leaves_no_leaks(self, model, rng):
        """End-to-end: continuous serving over many tiny busy periods keeps
        row-slot accounting balanced."""
        from repro.serve import ServingEngine

        engine = ServingEngine(model, max_batch_size=3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            prompts = [rng.integers(0, 16, size=int(rng.integers(1, 6))) for _ in range(n)]
            engine.serve(prompts, max_new_tokens=int(rng.integers(1, 5)))
            assert engine.in_flight == 0
        slots = engine._continuous.slots
        assert slots.stats.checkouts == slots.stats.retirements
        assert engine._continuous._reserved_tokens == 0
