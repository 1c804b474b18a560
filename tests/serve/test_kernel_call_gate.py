"""Deterministic kernel-call gate for the served decode step.

A decode forward runs every static weight of a block as one dependency
level at a time (:class:`~repro.pim.hybrid.SiblingGroup`): one stage-1
call over the level's A-factors and one stage-2 call each for its SLC and
MLC B-factors, whatever the tensor-parallel degree.  Four levels per
block (QKV, proj, ffn1, ffn2) make at most 12 static-weight
:func:`~repro.rram.kernels.fast_gemv` calls per block.  With analog
attention, each layer's K/V append is one batched region write
(:meth:`~repro.rram.backend.CrossbarBackend.program_regions`) and its two
reads go straight to the layer's plane banks, building no
:class:`~repro.rram.kernels.GemvStack`.  Counting calls is deterministic,
so this gate holds on any host, unlike a timing gate.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.rram.kernels as kernels
from repro.dist import DeviceMesh
from repro.nn import DecoderLM, TransformerConfig
from repro.rram import KernelPolicy, ProgrammedMatrix, SimBackend, kernel_policy
from repro.rram.backend import CrossbarBackend
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

    def test_analog_decode_step_writes_each_layer_once_and_builds_no_stack(self, monkeypatch):
        """A steady analog decode step: one K/V region write per layer, no
        per-read stack construction, and the tokens of the per-operand
        spec (the ``reference`` policy reads every operand on its own)."""

        def serve(count: bool):
            engine = _engine(
                mesh=DeviceMesh(num_chips=2),
                tensor_parallel=2,
                attention="analog",
                backend=SimBackend(),
            )
            rng = np.random.default_rng(11)
            ids = [engine.submit(rng.integers(0, VOCAB, size=3), 6) for _ in range(ROWS)]
            engine.step()  # admit and prefill every request
            if count:
                counts = {"program_regions": 0, "GemvStack": 0}

                def counted(owner, name):
                    original = getattr(owner, name)

                    def wrapper(*args, **kwargs):
                        counts[owner.__name__ if name == "__init__" else name] += 1
                        return original(*args, **kwargs)

                    monkeypatch.setattr(owner, name, wrapper)

                counted(CrossbarBackend, "program_regions")
                counted(kernels.GemvStack, "__init__")
                engine.step()
                monkeypatch.undo()
                assert engine.in_flight == ROWS  # the counted step decoded every row
                assert counts == {"program_regions": BLOCKS, "GemvStack": 0}
            engine.run_until_idle()
            return [engine.pop_result(i).tokens.tolist() for i in ids]

        fast = serve(count=True)
        with kernel_policy(KernelPolicy(mode="reference")):
            assert serve(count=False) == fast
