"""Deterministic kernel-call gate for the served decode step.

A decode forward runs every static weight of a block as one dependency
level at a time (:class:`~repro.pim.hybrid.SiblingGroup`): one stage-1
call over the level's A-factors and one stage-2 call each for its SLC and
MLC B-factors, whatever the tensor-parallel degree.  Four levels per
block (QKV, proj, ffn1, ffn2) make at most 12 static-weight
:func:`~repro.rram.kernels.fast_gemv` calls per block.  Counting calls is
deterministic, so this gate holds on any host, unlike a timing gate.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.rram.kernels as kernels
from repro.dist import DeviceMesh
from repro.nn import DecoderLM, TransformerConfig
from repro.rram import ProgrammedMatrix
from repro.rram.noise import DEFAULT_NOISE
from repro.serve import ServingEngine
from repro.svd.pipeline import LayerPlan

VOCAB = 16
BLOCKS = 2
ROWS = 4
#: Kernel calls per decoded token of the ``analog_stream`` deployment in
#: :meth:`TestKernelCalls.test_analog_stream_halves_calls_per_token`, as
#: counted before the static weights ran per dependency level.  Then each
#: programmed matrix was its own call: a 4-row decode step made 96
#: static-weight calls (48 per block at TP 2; 24 per block at TP 1) and 4
#: stacked attention reads, 25 calls per token.
PARENT_ANALOG_CALLS_PER_TOKEN = 25.0


def _lm() -> DecoderLM:
    return DecoderLM(
        TransformerConfig(
            vocab_size=VOCAB,
            d_model=8,
            num_heads=2,
            num_layers=BLOCKS,
            d_ff=16,
            max_seq_len=24,
            seed=3,
        )
    )


def _plans(lm: DecoderLM) -> dict[str, LayerPlan]:
    rng = np.random.default_rng(3)
    plans = {}
    for name, linear in lm.iter_static_linears():
        out_f, in_f = linear.weight.data.shape
        rank = min(out_f, in_f)
        mask = np.zeros(rank, dtype=bool)
        mask[::3] = True  # every shard keeps SLC and MLC ranks
        plans[name] = LayerPlan(
            name=name,
            a_matrix=rng.normal(size=(rank, in_f)) / np.sqrt(in_f),
            b_matrix=rng.normal(size=(out_f, rank)) / np.sqrt(rank),
            bias=None,
            protected_ranks=mask,
            sigma_gradients=rng.random(rank),
        )
    return plans


def _engine(**kwargs) -> ServingEngine:
    lm = _lm()
    return ServingEngine.deploy(
        lm,
        _plans(lm),
        calibration_prompts=np.random.default_rng(7).integers(0, VOCAB, size=(2, 6)),
        noise=DEFAULT_NOISE,
        mode="crossbar",
        max_batch_size=ROWS,
        **kwargs,
    )


def _decode_step_calls(engine: ServingEngine, monkeypatch) -> tuple[int, int]:
    """(static-weight, dynamic-operand) kernel calls of one pure decode step."""
    rng = np.random.default_rng(11)
    for _ in range(ROWS):
        engine.submit(rng.integers(0, VOCAB, size=3), 6)
    engine.step()  # admit and prefill every request
    counts = [0, 0]
    original = kernels.fast_gemv

    def counting(matrices, *args, **kwargs):
        members = getattr(matrices, "matrices", matrices)
        counts[not all(isinstance(m, ProgrammedMatrix) for m in members)] += 1
        return original(matrices, *args, **kwargs)

    monkeypatch.setattr(kernels, "fast_gemv", counting)
    engine.step()
    assert engine.in_flight == ROWS  # the counted step decoded every row
    return counts[0], counts[1]


class TestKernelCalls:
    @pytest.mark.parametrize("tensor_parallel", [1, 2])
    def test_at_most_twelve_static_calls_per_block(self, tensor_parallel, monkeypatch):
        mesh = DeviceMesh() if tensor_parallel > 1 else None
        engine = _engine(mesh=mesh, tensor_parallel=tensor_parallel)
        static, dynamic = _decode_step_calls(engine, monkeypatch)
        assert dynamic == 0  # host attention
        assert static <= 12 * BLOCKS

    def test_analog_stream_halves_calls_per_token(self, monkeypatch):
        """Analog attention on two chips at TP 2, as perfbench's
        ``analog_stream`` serves it: at least 2x fewer kernel calls per
        decoded token than one call per programmed matrix made
        (``PARENT_ANALOG_CALLS_PER_TOKEN``)."""
        engine = _engine(mesh=DeviceMesh(num_chips=2), tensor_parallel=2, attention="analog")
        static, dynamic = _decode_step_calls(engine, monkeypatch)
        assert dynamic == 2 * BLOCKS  # one stacked read per attention product
        assert static <= 12 * BLOCKS
        assert (static + dynamic) / ROWS <= PARENT_ANALOG_CALLS_PER_TOKEN / 2
