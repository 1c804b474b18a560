"""Batched serving over KV-cached decoder inference (`repro.serve`).

The deployment-facing layer of the reproduction: request queue +
continuous (iteration-level) batching over one shared KV cache, serving
a PIM-deployed :class:`~repro.nn.transformer.DecoderLM`.  See
:mod:`repro.serve.engine` for the hardware correspondence (analog
crossbars for static GEMVs, cached K/V as the digital-PIM dynamic-GEMM
operands) and :mod:`repro.serve.continuous` for the iteration-level
scheduler.
"""

from repro.serve.api import AdmissionPolicy, ApiServer
from repro.serve.continuous import ContinuousScheduler
from repro.serve.engine import RecalibrationPolicy, ServingEngine, ServingStats
from repro.serve.replica import (
    LeastOutstandingTokensRouter,
    PoolResult,
    ReplicaPool,
    RoundRobinRouter,
    SessionAffinityRouter,
    ShmRing,
)
from repro.serve.requests import GenerationRequest, RequestResult, TokenCallback

__all__ = [
    "AdmissionPolicy",
    "ApiServer",
    "ContinuousScheduler",
    "GenerationRequest",
    "LeastOutstandingTokensRouter",
    "PoolResult",
    "RecalibrationPolicy",
    "ReplicaPool",
    "RequestResult",
    "RoundRobinRouter",
    "ServingEngine",
    "ServingStats",
    "SessionAffinityRouter",
    "ShmRing",
    "TokenCallback",
]
