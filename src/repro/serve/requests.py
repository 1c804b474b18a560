"""Request/result types shared by the serving schedulers.

Kept in their own module so both :mod:`repro.serve.engine` (queueing,
stats) and :mod:`repro.serve.continuous` (iteration-level scheduling) can
use them without a circular import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["GenerationRequest", "RequestResult", "TokenCallback"]

#: Streaming callback signature: ``(request_id, token)`` per emitted token.
TokenCallback = Callable[[int, int], None]


@dataclass
class GenerationRequest:
    """One queued prompt awaiting generation.

    ``submitted_at`` comes from the engine's injectable clock (never
    ``time.time()`` directly), so scheduler tests are fully deterministic.
    ``on_token`` is an optional streaming callback: the scheduler fires it
    the moment each token is emitted.

    SLO fields (both optional; the defaults reproduce the historical
    strict-FIFO behaviour exactly):

    ``priority``
        Admission class — higher admits first.  The engine keeps the queue
        ordered by descending priority, FIFO *within* a class, so a burst
        of low-priority batch work cannot starve interactive requests.
    ``deadline_at``
        Absolute clock value (same injectable clock) after which the
        request is over-SLO.  A queued request past its deadline expires
        unserved; a decoding one is *preempted* — it keeps the tokens
        emitted so far and frees its cache row for queued work.
    """

    request_id: int
    prompt: np.ndarray  # (L,) token ids
    max_new_tokens: int
    submitted_at: float
    on_token: TokenCallback | None = field(default=None, repr=False)
    priority: int = 0
    deadline_at: float | None = None

    @property
    def prompt_len(self) -> int:
        """Number of prompt tokens."""
        return int(self.prompt.shape[0])

    @property
    def token_need(self) -> int:
        """KV positions this request reserves (prompt + full budget)."""
        return self.prompt_len + self.max_new_tokens


@dataclass
class RequestResult:
    """A completed request: prompt + generated continuation + timing.

    Latency definitions (all measured on the engine's injectable clock).
    Queueing delay and service time are reported *split* so an overloaded
    engine's admission wait cannot masquerade as slow decoding:

    ``queued_s``
        Admission wait — submit until the request was admitted (its
        cache-row checkout).  Pure scheduling delay; the model never touched this
        request during it.
    ``ttft_s``
        Time to first token as the *caller* experiences it — submit until
        the first generated token was available (the moment it was
        emitted).  Includes ``queued_s``.
    ``service_ttft_s``
        Time to first token as the *engine* spent it — admission until the
        first token (``ttft_s - queued_s``).  This is the prefill cost the
        hardware models care about, independent of queue depth.
    ``service_s``
        Admission until completion (``latency_s - queued_s``): the decode
        service time proper.
    ``tpot_s``
        Time per output token after the first — ``(completion - first
        token) / (n - 1)`` (0 for single-token results).
    ``projected_latency_s``
        Hardware-projected end-to-end latency on the deployed mesh
        (``None`` unless the engine carries a
        :class:`~repro.dist.ShardPlan`): serial pipeline fill for the
        first position plus every remaining prompt/generated position at
        the plan's steady-state rate, interconnect costs (OCI partial-sum
        aggregation, PCIe-6.0 pipeline handoffs) included — see
        :meth:`repro.dist.HardwareProjection.request_latency_s`.

    ``preempted`` marks an over-deadline request the scheduler cut short:
    ``tokens`` holds whatever was emitted before the deadline passed
    (possibly none, for a request that expired in the queue).
    """

    request_id: int
    prompt: np.ndarray
    tokens: np.ndarray  # generated continuation only
    queued_s: float  # submit -> admission (row checkout)
    latency_s: float  # submit -> completion
    batch_size: int  # concurrently-decoding requests when this one finished
    ttft_s: float = 0.0
    tpot_s: float = 0.0
    projected_latency_s: float | None = None
    preempted: bool = False

    @property
    def service_s(self) -> float:
        """Admission-to-completion service time (excludes queueing delay)."""
        return self.latency_s - self.queued_s

    @property
    def service_ttft_s(self) -> float:
        """Admission-to-first-token time (``ttft_s`` minus admission wait)."""
        return self.ttft_s - self.queued_s

    @property
    def full_sequence(self) -> np.ndarray:
        """Prompt and generated tokens as one contiguous sequence."""
        return np.concatenate([self.prompt, self.tokens])
