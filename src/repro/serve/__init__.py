"""Batched serving over KV-cached decoder inference (`repro.serve`).

The deployment-facing layer of the reproduction: request queue +
continuous (iteration-level) batching + KV-cache slot pooling
over a PIM-deployed :class:`~repro.nn.transformer.DecoderLM`.  See
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
from repro.serve.slots import CacheSlotPool, RowSlotManager, RowSlotStats, SlotPoolStats

__all__ = [
    "AdmissionPolicy",
    "ApiServer",
    "CacheSlotPool",
    "ContinuousScheduler",
    "GenerationRequest",
    "LeastOutstandingTokensRouter",
    "PoolResult",
    "RecalibrationPolicy",
    "ReplicaPool",
    "RequestResult",
    "RoundRobinRouter",
    "RowSlotManager",
    "RowSlotStats",
    "ServingEngine",
    "ServingStats",
    "SessionAffinityRouter",
    "ShmRing",
    "SlotPoolStats",
    "TokenCallback",
]
