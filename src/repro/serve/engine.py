"""Batched serving engine over KV-cached decoder inference.

This is the ROADMAP's "serve heavy traffic" layer: a :class:`ServingEngine`
owns one PIM-deployed :class:`~repro.nn.transformer.DecoderLM` and turns a
stream of generation requests into decode batches through the KV cache
(O(L) per token — see :mod:`repro.nn.kv_cache`) by iteration-level
batching (:class:`~repro.serve.continuous.ContinuousScheduler`): the
in-flight batch grows and shrinks token-by-token — new requests join
mid-flight with a prefill into a free cache row, finished rows retire and
are compacted immediately — so one long generation never stalls short
requests queued behind it.

Hardware correspondence: the static Q/K/V/proj and FFN projections of the
served model run through analog SLC/MLC crossbars (``HybridLinear``), while
the cached K/V prefix plays the role of the paper's digital-PIM dynamic-GEMM
operands — written once per emitted token and reused every following step.
Because the hybrid SLC/MLC mapping is deployed once, admitting a request
mid-flight costs only a prefill — never a crossbar reprogram.  Activation
quantization scales are *calibrated once at deploy time*
(:func:`repro.pim.calibrate_activations`) so served traffic never pays, nor
drifts with, per-call rescaling.

Design notes
------------
- Requests enter a FIFO queue via :meth:`ServingEngine.submit`; work starts
  when ``max_batch_size`` requests are waiting, when the oldest request has
  waited ``max_wait_s``, or when the caller forces a drain.  Once rows are
  live any queued request is admitted the moment a row frees up (subject
  to the optional ``max_tokens`` budget).
- Prompts of different lengths decode together via the ragged KV-cache
  path; each request stops at its own budget (or ``eos_id``).
- KV-cache buffers come from a :class:`~repro.serve.slots.CacheSlotPool`
  and are recycled across busy periods.
- All timing — including ``GenerationRequest.submitted_at`` and every
  TTFT/TPOT sample — goes through the injectable ``clock``, so scheduler
  tests are fully deterministic.
- The engine aggregates throughput/latency/TTFT/TPOT stats and the
  deployed layers' :class:`~repro.rram.crossbar.GemvStats`, so served
  traffic can feed the repo's energy/latency models exactly like the
  offline studies do.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import no_grad
from repro.nn.transformer import DecoderLM
from repro.pim.hybrid import HybridLinear, attach_hybrid_layers, calibrate_activations
from repro.rram.crossbar import GemvStats
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec
from repro.serve.continuous import ContinuousScheduler
from repro.serve.requests import GenerationRequest, RequestResult, TokenCallback
from repro.serve.slots import CacheSlotPool

__all__ = [
    "GenerationRequest",
    "RecalibrationPolicy",
    "RequestResult",
    "ServingStats",
    "ServingEngine",
]

#: Rolling-window length for per-request/per-step samples (latency
#: percentiles, TTFT/TPOT, batch-size mix).  Counters stay exact forever;
#: only the sample windows are bounded so a long-lived engine cannot grow
#: without bound.
STATS_WINDOW = 1024


def _window_mean(samples: deque) -> float:
    return float(np.mean(list(samples))) if samples else 0.0


def _window_p95(samples: deque) -> float:
    return float(np.percentile(list(samples), 95)) if samples else 0.0


@dataclass
class ServingStats:
    """Aggregate accounting across everything the engine has decoded.

    Scalar counters (requests, tokens, wall-clock, iterations) are exact
    over the engine's lifetime; the ``*_s`` / ``batch_sizes`` deques are
    rolling windows of the most recent ``STATS_WINDOW`` samples.
    ``iterations`` counts scheduler steps.  TTFT/TPOT definitions are
    documented on :class:`~repro.serve.requests.RequestResult`.
    """

    requests_completed: int = 0
    tokens_generated: int = 0
    iterations: int = 0
    #: Online-recalibration accounting: drift probes issued, recovery
    #: actions taken, and layers re-programmed by those recoveries.
    drift_probes: int = 0
    recalibrations: int = 0
    layers_reprogrammed: int = 0
    #: Requests cut short by their SLO deadline (queued expiry or decode
    #: preemption) — see :class:`~repro.serve.requests.GenerationRequest`.
    preempted: int = 0
    #: Batched-decode fast-path accounting, read off :meth:`ServingEngine.gemv_stats`:
    #: activation bit-planes the fast kernel packed (``GemvStats.planes_packed``)
    #: and rows it ran bit-serially (``GemvStats.fused_rows``).
    planes_packed: int = 0
    #: Always 0: nothing reuses packed planes.  Kept until the next
    #: benchmark change, whose harness still reads it.
    pack_reuses: int = 0
    fused_rows: int = 0
    decode_wall_s: float = 0.0  # time spent inside model forwards
    #: Hardware-projected pipeline occupancy (sum of per-request shares on
    #: the deployed mesh); 0 when the engine carries no shard plan.
    projected_busy_s: float = 0.0
    latencies_s: deque = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))
    ttfts_s: deque = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))
    tpots_s: deque = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))
    batch_sizes: deque = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))
    #: Latency-split windows: admission wait (``RequestResult.queued_s``)
    #: and engine-side time-to-first-token (``service_ttft_s`` — TTFT with
    #: the admission wait subtracted), so an overloaded queue cannot
    #: masquerade as slow prefill.
    queued_s: deque = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))
    service_ttfts_s: deque = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))

    @property
    def tokens_per_s(self) -> float:
        """Generated tokens per second of decode wall-clock."""
        return self.tokens_generated / self.decode_wall_s if self.decode_wall_s else 0.0

    @property
    def projected_tokens_per_s(self) -> float:
        """Generated tokens over hardware-projected busy time (steady state)."""
        return (
            self.tokens_generated / self.projected_busy_s if self.projected_busy_s else 0.0
        )

    @property
    def mean_latency_s(self) -> float:
        """Mean request latency over the sliding stats window."""
        return _window_mean(self.latencies_s)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile request latency over the sliding window."""
        return _window_p95(self.latencies_s)

    @property
    def mean_ttft_s(self) -> float:
        """Mean time-to-first-token over the sliding window."""
        return _window_mean(self.ttfts_s)

    @property
    def p95_ttft_s(self) -> float:
        """95th-percentile time-to-first-token over the sliding window."""
        return _window_p95(self.ttfts_s)

    @property
    def mean_tpot_s(self) -> float:
        """Mean time-per-output-token over the sliding window."""
        return _window_mean(self.tpots_s)

    @property
    def mean_queued_s(self) -> float:
        """Mean admission wait (queueing delay) over the sliding window."""
        return _window_mean(self.queued_s)

    @property
    def p95_queued_s(self) -> float:
        """95th-percentile admission wait over the sliding window."""
        return _window_p95(self.queued_s)

    @property
    def mean_service_ttft_s(self) -> float:
        """Mean engine-side TTFT (admission wait excluded) over the window."""
        return _window_mean(self.service_ttfts_s)

    @property
    def p95_service_ttft_s(self) -> float:
        """95th-percentile engine-side TTFT over the sliding window."""
        return _window_p95(self.service_ttfts_s)

    @property
    def mean_batch_size(self) -> float:
        """Mean decode-step batch size over the sliding window."""
        return _window_mean(self.batch_sizes)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of every counter and windowed statistic."""
        return {
            "requests_completed": self.requests_completed,
            "tokens_generated": self.tokens_generated,
            "iterations": self.iterations,
            "drift_probes": self.drift_probes,
            "recalibrations": self.recalibrations,
            "layers_reprogrammed": self.layers_reprogrammed,
            "preempted": self.preempted,
            "planes_packed": self.planes_packed,
            "pack_reuses": self.pack_reuses,
            "fused_rows": self.fused_rows,
            "decode_wall_s": round(self.decode_wall_s, 6),
            "tokens_per_s": round(self.tokens_per_s, 2),
            "projected_busy_s": round(self.projected_busy_s, 9),
            "projected_tokens_per_s": round(self.projected_tokens_per_s, 2),
            "mean_latency_s": round(self.mean_latency_s, 6),
            "p95_latency_s": round(self.p95_latency_s, 6),
            "mean_ttft_s": round(self.mean_ttft_s, 6),
            "p95_ttft_s": round(self.p95_ttft_s, 6),
            "mean_tpot_s": round(self.mean_tpot_s, 6),
            "mean_queued_s": round(self.mean_queued_s, 6),
            "p95_queued_s": round(self.p95_queued_s, 6),
            "mean_service_ttft_s": round(self.mean_service_ttft_s, 6),
            "p95_service_ttft_s": round(self.p95_service_ttft_s, 6),
            "mean_batch_size": round(self.mean_batch_size, 3),
        }


@dataclass(frozen=True)
class RecalibrationPolicy:
    """When and how a :class:`ServingEngine` recovers from device drift.

    Deployed crossbars served through a fault-injecting backend
    (:class:`~repro.rram.backend.FaultySimBackend`) drift away from their
    programmed conductances over the backend's ``advance()`` clock.  Under
    this policy the engine periodically issues deterministic probe GEMVs
    (:meth:`~repro.pim.hybrid.HybridLinear.probe_drift`) and, when the
    worst layer's probe error crosses ``drift_threshold``, re-programs the
    drifted tiles and/or re-runs activation-scale calibration.  Re-program
    traffic is accounted in :class:`~repro.rram.crossbar.GemvStats` and the
    backend's wear ledger; probe/recovery counts land in
    :class:`ServingStats`.

    Parameters
    ----------
    interval_steps:
        Probe every N engine steps that performed work (scheduler
        iterations).  ``0`` disables automatic probing —
        :meth:`ServingEngine.recalibrate` can still be called manually.
    drift_threshold:
        Worst-layer *increase* in L1-relative probe error over the
        baseline captured at the first probe.  Static error sources (ADC
        clipping, the frozen programming-noise draw) are part of the
        baseline, so the threshold isolates the time-varying drift/wear
        signal.
    reprogram:
        Re-write drifted layers' cells on recovery (resets their drift
        clock and redraws programming noise, wear-scaled on faulty
        backends).
    recalibrate_scales:
        Re-run deploy-time activation calibration after recovery (requires
        the engine to hold calibration prompts).
    probe_seed:
        Seed of the deterministic probe vectors, so repeated probes measure
        the same input and their errors are comparable over time.
    """

    interval_steps: int = 0
    drift_threshold: float = 0.05
    reprogram: bool = True
    recalibrate_scales: bool = True
    probe_seed: int = 0

    def __post_init__(self) -> None:
        """Validate interval and threshold at the boundary."""
        if self.interval_steps < 0:
            raise ValueError(f"interval_steps must be >= 0, got {self.interval_steps}")
        if self.drift_threshold < 0:
            raise ValueError(
                f"drift_threshold must be >= 0, got {self.drift_threshold}"
            )


class ServingEngine:
    """Dynamic-batching front-end over one (PIM-deployed) decoder.

    Parameters
    ----------
    model:
        The decoder to serve — typically the output of
        :meth:`ServingEngine.deploy` (hybrid SLC/MLC layers attached), but
        any :class:`DecoderLM` works (useful for host-only baselines).
    max_batch_size:
        Upper bound on requests decoded together (cache rows of the
        scheduler).
    max_wait_s:
        Batching knob: an idle engine starts work once its oldest request
        has waited this long (or ``max_batch_size`` are queued).  ``0``
        serves whatever is queued immediately (latency-optimal); larger
        values trade queueing latency for fuller batches.  This only gates
        *starting from idle* — once rows are live, new requests join the
        moment a row frees up.
    max_tokens:
        Optional admission token budget: total KV positions (prompt + full
        budget) reserved by in-flight requests never exceeds this.
        ``None`` = bounded by ``max_batch_size`` and the model's
        ``max_seq_len`` alone.
    cache_slots:
        Size of the KV-cache slot pool (free slots retained across busy
        periods).
    rng:
        Optional sampling Generator shared by all requests; None = greedy.
    eos_id:
        Per-row stop token.
    clock:
        Injectable time source (tests); defaults to ``time.perf_counter``.
        Every timestamp the engine records — ``submitted_at``, queueing,
        TTFT, TPOT, latency — is read from this clock.
    """

    def __init__(
        self,
        model: DecoderLM,
        max_batch_size: int = 8,
        max_wait_s: float = 0.0,
        cache_slots: int = 4,
        rng: np.random.Generator | None = None,
        eos_id: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        max_tokens: int | None = None,
        shard_plan=None,
        recalibration: RecalibrationPolicy | None = None,
        calibration_prompts: np.ndarray | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.model = model
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.rng = rng
        self.eos_id = eos_id
        self.clock = clock
        self.max_tokens = max_tokens
        self.slot_pool = CacheSlotPool(model, max_slots=cache_slots)
        self.stats = ServingStats()
        self._continuous = ContinuousScheduler(
            model,
            self.slot_pool,
            max_batch_size,
            clock=clock,
            rng=rng,
            eos_id=eos_id,
            max_tokens=max_tokens,
        )
        self._queue: list[GenerationRequest] = []
        # Completed-but-unclaimed results, bounded FIFO: oldest unclaimed
        # results are dropped once the buffer is full (dict preserves
        # insertion order), so a long-lived engine cannot leak memory when
        # callers never pop.
        self._completed: dict[int, RequestResult] = {}
        self.result_buffer = STATS_WINDOW
        self._next_id = 0
        self._hybrid_layers: dict[str, HybridLinear] = {}
        for name, module in model.named_modules():
            if isinstance(module, HybridLinear):
                self._hybrid_layers[name] = module
        # Analog-attention deployment context (set by deploy(attention=
        # "analog")): the CrossbarAttentionExecutor behind the model's
        # AnalogAttention modules and crossbar-backed KV caches.
        self._attention_executor = None
        # Online recalibration (drift probes + recovery) — see
        # :class:`RecalibrationPolicy`.  Calibration prompts are retained so
        # recovery can re-freeze activation scales the same way deploy did.
        self.recalibration = recalibration
        self._calibration_prompts = (
            None
            if calibration_prompts is None
            else np.atleast_2d(np.asarray(calibration_prompts, dtype=np.int64))
        )
        self._steps_since_probe = 0
        self._probe_baseline: dict[str, float] | None = None
        # Sharded multi-chip deployment (tensor/pipeline parallelism): the
        # plan drives hardware-projected latency per request and routes
        # pipeline handoff traffic into the mesh's ledger.
        self.shard_plan = shard_plan
        self._projection = None
        if shard_plan is not None:
            from repro.dist import HardwareProjection

            self._projection = HardwareProjection(
                shard_plan, hidden_dim=model.config.d_model
            )
        # Cross-thread serving support: submit()/pop_result() may run on an
        # asyncio event-loop thread while step() runs on a driver thread.
        # The lock guards the ingress queue, the result retention dict and
        # id allocation; the decode itself never holds it.
        self._lock = threading.Lock()
        self._ingress: deque[GenerationRequest] = deque()

    # ------------------------------------------------------------------
    # Deployment helpers
    # ------------------------------------------------------------------
    @classmethod
    def deploy(
        cls,
        model: DecoderLM,
        plans: dict,
        calibration_prompts: np.ndarray | None = None,
        noise: NoiseSpec = DEFAULT_NOISE,
        mode: str = "fast",
        seed: int = 0,
        policy=None,
        mesh=None,
        tensor_parallel: int = 1,
        backend=None,
        attention: str = "host",
        **engine_kwargs,
    ) -> "ServingEngine":
        """Attach hybrid SLC/MLC layers to ``model`` and wrap it in an engine.

        ``plans`` is the gradient-redistribution output (name -> LayerPlan).
        ``calibration_prompts`` (B, L) are pushed through the deployed model
        once to freeze activation quantization scales (meaningful for
        ``mode="crossbar"``; a no-op for the fast Eq. 5 path, which does not
        quantize activations).  ``noise`` is the programming-noise spec of
        every crossbar; it defaults to the BER-calibrated ``DEFAULT_NOISE``,
        and only ``NoiseSpec.noiseless()`` is noiseless (``None`` also
        means ``DEFAULT_NOISE``).

        ``mesh`` (a :class:`~repro.dist.DeviceMesh`) enables sharded
        multi-chip execution: a :class:`~repro.dist.ShardPlan` is derived
        from the HyFlexPIM chip mapper, every attached layer is partitioned
        into ``tensor_parallel`` rank shards (without a mesh each layer
        keeps its 1-way plan), and the engine reports hardware-projected
        latency per request plus the interconnect traffic actually
        exercised.  Every crossbar layer is programmed once, on its final
        shard plan, and calibration runs after that, so frozen scales
        observe the serving-path activations.

        ``backend`` (a :class:`~repro.rram.backend.CrossbarBackend`) selects
        the crossbar execution target — e.g. a
        :class:`~repro.rram.backend.FaultySimBackend` for lifetime studies;
        ``None`` uses the process-wide default.  Pass a
        :class:`RecalibrationPolicy` via ``recalibration=`` to enable
        online drift probing and recovery; the calibration prompts are
        retained on the engine so recovery can re-freeze activation scales.

        ``attention`` selects where the dynamic attention products run:
        ``"host"`` (default) keeps ``Q·Kᵀ``/``S·V`` as host matmuls;
        ``"analog"`` swaps every block's attention for an
        :class:`~repro.nn.attention.AnalogAttention` executing them as
        crossbar GEMVs against per-token-written KV dynamic operands
        (:class:`~repro.pim.attention.CrossbarAttentionExecutor`), and
        points the model's KV-cache factory at crossbar-backed caches so
        the continuous scheduler is unchanged.  With a ``mesh``, attention
        heads are placed over the plan's chips and every KV write is
        charged to the interconnect ledger.
        """
        import copy

        if attention not in ("host", "analog"):
            raise ValueError(
                f'attention must be "host" or "analog", got {attention!r}'
            )
        deployed = copy.deepcopy(model)
        attached = attach_hybrid_layers(
            deployed, plans, noise=noise, mode=mode, seed=seed, policy=policy,
            backend=backend,
        )
        if mesh is not None:
            from repro.dist import ShardPlan, deploy_sharded

            plan = ShardPlan.build(plans, mesh, tensor_parallel=tensor_parallel)
            deploy_sharded(attached, plan)
            engine_kwargs.setdefault("shard_plan", plan)
        # Program every crossbar once, on its final shard plan.
        for layer in attached.values():
            layer.program()
        if calibration_prompts is not None and mode == "crossbar":
            prompts = np.atleast_2d(np.asarray(calibration_prompts))
            # Serving always decodes in eval mode (generate() enforces it);
            # calibration must observe the same dropout-free activations.
            deployed.eval()

            def run_calibration() -> None:
                with no_grad():  # inference-only: skip autograd bookkeeping
                    deployed(prompts)

            calibrate_activations(attached, run_calibration)
            # Served-traffic accounting starts from zero: the calibration
            # forward must not inflate gemv_stats()' energy inputs — nor
            # the mesh's exercised-link ledger (hardware_report()).
            for layer in attached.values():
                layer.reset_stats()
            if mesh is not None:
                mesh.reset_traffic()
            engine_kwargs.setdefault("calibration_prompts", prompts)
        executor = None
        if attention == "analog":
            from repro.nn.attention import AnalogAttention
            from repro.pim.attention import CrossbarAttentionExecutor
            from repro.rram import MLC2

            spec = noise if noise is not None else DEFAULT_NOISE
            placement = None
            if mesh is not None:
                from repro.dist import place_attention_heads

                placement = place_attention_heads(
                    engine_kwargs.get("shard_plan") or mesh,
                    deployed.config.num_layers,
                    deployed.config.num_heads,
                )
            executor = CrossbarAttentionExecutor(
                cell=MLC2,
                noise_sigma=spec.sigma(MLC2),
                policy=policy,
                backend=backend,
                seed=seed,
                mesh=mesh,
                placement=placement,
            )
            for block in deployed.blocks:
                block.attn = AnalogAttention.from_host(block.attn, executor)
            # Pooled caches now come out crossbar-backed (same geometry).
            deployed.kv_cache_factory = executor.make_cache
        engine = cls(deployed, **engine_kwargs)
        engine._attention_executor = executor
        return engine

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        on_token: TokenCallback | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> int:
        """Enqueue one prompt; returns its request id.

        ``on_token`` is an optional streaming callback ``(request_id,
        token)``: it fires the moment each token is emitted.

        ``priority`` ranks admission (higher first, FIFO within a class);
        ``deadline_s`` is a relative SLO budget — the request must finish
        within this many clock seconds of submission or it expires in the
        queue / is preempted mid-decode (the result carries
        ``preempted=True`` and the tokens emitted so far).

        Thread-safe: may be called from any thread while another thread
        drives :meth:`step` — requests land in a locked ingress queue that
        ``step`` drains in priority order.
        """
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        capacity = self.model.config.max_seq_len
        if prompt.size + max_new_tokens > capacity:
            raise ValueError(
                f"request needs {prompt.size + max_new_tokens} positions, "
                f"model max_seq_len is {capacity}"
            )
        if self.max_tokens is not None and prompt.size + max_new_tokens > self.max_tokens:
            raise ValueError(
                f"request reserves {prompt.size + max_new_tokens} tokens, "
                f"over the engine's max_tokens budget {self.max_tokens}"
            )
        if deadline_s is not None and deadline_s < 0:
            raise ValueError(f"deadline_s must be >= 0, got {deadline_s}")
        submitted_at = self.clock()
        deadline_at = None if deadline_s is None else submitted_at + deadline_s
        with self._lock:
            request = GenerationRequest(
                request_id=self._next_id,
                prompt=prompt,
                max_new_tokens=int(max_new_tokens),
                submitted_at=submitted_at,
                on_token=on_token,
                priority=int(priority),
                deadline_at=deadline_at,
            )
            self._next_id += 1
            self._ingress.append(request)
        return request.request_id

    def _drain_ingress(self) -> None:
        """Move ingressed requests into the scheduler queue (priority order).

        Each request is inserted before the first strictly-lower-priority
        queued request, so the queue stays ordered by descending priority
        and FIFO within a class.  With all-default priorities the insertion
        point is always the tail — the historical strict-FIFO behaviour.
        Only the step-driving thread touches ``_queue``; the lock is held
        just long enough to snapshot the ingress.
        """
        with self._lock:
            if not self._ingress:
                return
            incoming = list(self._ingress)
            self._ingress.clear()
        keys = [-r.priority for r in self._queue]
        for request in incoming:
            idx = bisect.bisect_right(keys, -request.priority)
            self._queue.insert(idx, request)
            keys.insert(idx, -request.priority)

    @property
    def pending(self) -> int:
        """Queued requests not yet admitted (ingress included)."""
        with self._lock:
            return len(self._queue) + len(self._ingress)

    @property
    def in_flight(self) -> int:
        """Requests currently decoding (scheduler rows)."""
        return self._continuous.live

    def _batch_ready(self) -> bool:
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch_size:
            return True
        return (self.clock() - self._queue[0].submitted_at) >= self.max_wait_s

    def step(self, force: bool = False) -> list[RequestResult]:
        """Advance the engine by one scheduler iteration, if it is time.

        One iteration admits from the queue, decodes one token on every
        live row and retires finished rows.  An idle engine starts only
        once the batching policy says so; ``force`` starts work on a
        partial queue regardless of ``max_wait_s`` (used by
        :meth:`run_until_idle`).  Returns the requests completed by this
        call ([] when nothing ran or nothing finished); results are also
        retained for :meth:`pop_result` until popped.
        """
        self._drain_ingress()
        scheduler = self._continuous
        if scheduler.live == 0 and (
            not self._queue or not (force or self._batch_ready())
        ):
            return []
        started = self.clock()
        results = scheduler.step(self._queue)
        self.stats.iterations += 1
        self.stats.decode_wall_s += self.clock() - started
        gemv = self.gemv_stats()
        self.stats.planes_packed = gemv.planes_packed
        self.stats.fused_rows = gemv.fused_rows
        if self._projection is not None:
            # Batched decode ships the whole step's hidden vectors across
            # each chip boundary in one fused launch per boundary (case 3),
            # instead of one launch per row: same bytes, per-step (not
            # per-row) ledger accounting.
            rows = scheduler.last_decode_rows + scheduler.last_prefill_tokens
            self.shard_plan.mesh.record_batched_pipeline_handoff(
                self.model.config.d_model,
                rows=rows,
                boundaries=self.shard_plan.pipeline_boundaries,
            )
        self._record_results(results)
        with self._lock:
            for result in results:
                self._completed[result.request_id] = result
            while len(self._completed) > self.result_buffer:
                self._completed.pop(next(iter(self._completed)))
        self._maybe_recalibrate()
        return results

    def pop_result(self, request_id: int) -> RequestResult | None:
        """Claim (and forget) a completed request's result, if any.

        Thread-safe (see :meth:`submit`).
        """
        with self._lock:
            return self._completed.pop(request_id, None)

    @property
    def busy(self) -> bool:
        """True while requests are queued (ingress included) or decoding."""
        with self._lock:
            queued = bool(self._queue) or bool(self._ingress)
        return queued or self.in_flight > 0

    def run_until_idle(self) -> list[RequestResult]:
        """Drain queue and in-flight work; returns results in completion order.

        Returned results stay claimable via :meth:`pop_result` too, so a
        caller draining on behalf of earlier ``submit()`` callers does not
        destroy their results.
        """
        results: list[RequestResult] = []
        while self.busy:
            results.extend(self.step(force=True))
        return results

    def serve(
        self, prompts: Sequence[np.ndarray], max_new_tokens: int
    ) -> list[RequestResult]:
        """Convenience: submit ``prompts`` and drain; results in submit order.

        Any previously queued requests are decoded along the way; their
        results remain claimable via :meth:`pop_result`.
        """
        ids = [self.submit(p, max_new_tokens) for p in prompts]
        wanted = set(ids)
        collected: dict[int, RequestResult] = {}
        while self.busy:
            for result in self.step(force=True):
                if result.request_id in wanted:
                    # Claim eagerly: collecting from step()'s return keeps
                    # serve() immune to result-buffer eviction on huge runs.
                    collected[result.request_id] = result
                    with self._lock:
                        self._completed.pop(result.request_id, None)
        return [collected[i] for i in ids]

    # ------------------------------------------------------------------
    def _record_results(self, results: list[RequestResult]) -> None:
        for result in results:
            self.stats.requests_completed += 1
            self.stats.tokens_generated += int(result.tokens.size)
            self.stats.latencies_s.append(result.latency_s)
            self.stats.ttfts_s.append(result.ttft_s)
            self.stats.tpots_s.append(result.tpot_s)
            self.stats.batch_sizes.append(result.batch_size)
            self.stats.queued_s.append(result.queued_s)
            if result.tokens.size:
                # Queued-expiry results never saw a first token; only
                # served requests contribute an engine-side TTFT sample.
                self.stats.service_ttfts_s.append(result.service_ttft_s)
            if result.preempted:
                self.stats.preempted += 1
            if self._projection is not None:
                prompt_len = int(result.prompt.shape[0])
                generated = int(result.tokens.size)
                result.projected_latency_s = self._projection.request_latency_s(
                    prompt_len, generated
                )
                self.stats.projected_busy_s += self._projection.request_busy_s(
                    prompt_len, generated
                )

    # ------------------------------------------------------------------
    # Online recalibration (drift probes + recovery)
    # ------------------------------------------------------------------
    def _maybe_recalibrate(self) -> None:
        """Probe-and-recover per the engine's :class:`RecalibrationPolicy`."""
        policy = self.recalibration
        if policy is None or policy.interval_steps == 0 or not self._hybrid_layers:
            return
        self._steps_since_probe += 1
        if self._steps_since_probe < policy.interval_steps:
            return
        self._steps_since_probe = 0
        self.recalibrate()

    def probe_drift(self) -> dict[str, float]:
        """Issue one deterministic drift probe per deployed hybrid layer.

        Returns ``{layer_name: worst L1-relative probe error}`` (empty when
        no hybrid layers are attached).  Probe GEMVs execute on the real
        backend, so their ADC/wordline cost lands in :meth:`gemv_stats`;
        the probe count lands in ``stats.drift_probes``.
        """
        seed = self.recalibration.probe_seed if self.recalibration else 0
        errors = {
            name: layer.probe_drift(probe_seed=seed)
            for name, layer in self._hybrid_layers.items()
        }
        if errors:
            self.stats.drift_probes += 1
        return errors

    def recalibrate(self, force: bool = False) -> dict:
        """Probe drift and recover if over threshold (or ``force``).

        The first call captures a per-layer probe-error *baseline* (static
        ADC clipping and the frozen programming-noise draw); later calls
        threshold the worst layer's error increase over that baseline, so
        only the time-varying drift/wear signal can trigger.  Recovery,
        per the engine's :class:`RecalibrationPolicy` (defaults apply when
        the engine has none): re-program every hybrid layer's cells
        (``reprogram=True``) and re-run activation-scale calibration over
        the retained deploy-time prompts (``recalibrate_scales=True``,
        requires the engine to hold prompts), then drop the baseline so
        the next probe re-captures it against the fresh cells.  Returns a
        summary dict with ``worst_error`` (the baseline-relative drift),
        ``triggered``, ``layers_reprogrammed`` and ``scales_recalibrated``.
        """
        policy = self.recalibration or RecalibrationPolicy()
        errors = self.probe_drift()
        if self._probe_baseline is None:
            self._probe_baseline = dict(errors)
        baseline = self._probe_baseline
        worst = max(
            (max(0.0, err - baseline.get(name, 0.0)) for name, err in errors.items()),
            default=0.0,
        )
        summary = {
            "worst_error": worst,
            "triggered": False,
            "layers_reprogrammed": 0,
            "scales_recalibrated": False,
        }
        if not errors or (not force and worst < policy.drift_threshold):
            return summary
        summary["triggered"] = True
        self._probe_baseline = None
        self.stats.recalibrations += 1
        if policy.reprogram:
            reprogrammed = sum(
                1
                for layer in self._hybrid_layers.values()
                if layer.reprogram() > 0
            )
            summary["layers_reprogrammed"] = reprogrammed
            self.stats.layers_reprogrammed += reprogrammed
        if policy.recalibrate_scales and self._calibration_prompts is not None:
            prompts = self._calibration_prompts
            self.model.eval()

            def run_calibration() -> None:
                with no_grad():
                    self.model(prompts)

            calibrate_activations(self._hybrid_layers, run_calibration)
            summary["scales_recalibrated"] = True
        return summary

    def backend_health(self) -> list[dict]:
        """Health reports of every distinct backend the deployed layers use.

        Deduplicated by backend identity; layers without an explicit
        backend (fast mode, or default-backend deployments) contribute
        nothing.  Each entry is the backend's
        :meth:`~repro.rram.backend.CrossbarBackend.health_report`.
        """
        seen: dict[int, dict] = {}
        for layer in self._hybrid_layers.values():
            backend = getattr(layer, "backend", None)
            if backend is not None and id(backend) not in seen:
                seen[id(backend)] = backend.health_report()
        if self._attention_executor is not None:
            backend = self._attention_executor.backend
            if id(backend) not in seen:
                seen[id(backend)] = backend.health_report()
        return list(seen.values())

    # ------------------------------------------------------------------
    # Hardware accounting
    # ------------------------------------------------------------------
    def gemv_stats(self) -> GemvStats:
        """Merged crossbar operation counts across all deployed layers.

        Crossbar-mode deployments accumulate ADC conversions, wordline
        activations etc. for every served token; feed this to the
        :mod:`repro.arch` energy/latency models to cost served traffic.
        (Fast-mode layers perform no bit-serial simulation, so their stats
        stay zero.)
        """
        total = GemvStats()
        for layer in self._hybrid_layers.values():
            total.merge(layer.merged_stats())
        if self._attention_executor is not None:
            # Dynamic-operand attention: KV writes (initial vs re-program)
            # and the Q·Kᵀ/S·V GEMV read costs, all in the shared sink.
            total.merge(self._attention_executor.stats)
        return total

    def shard_gemv_stats(self) -> list[GemvStats]:
        """Per-shard-index operation counts merged across deployed layers.

        Entry ``s`` aggregates every layer's shard ``s`` (layers with fewer
        shards simply contribute to fewer entries); an undeployed engine
        returns a single merged entry.  This is the per-worker load picture
        tensor-parallel energy accounting needs — balanced slices should
        show balanced ADC/wordline counts.
        """
        per_shard: list[GemvStats] = []
        for layer in self._hybrid_layers.values():
            for index, stats in enumerate(layer.shard_stats()):
                while len(per_shard) <= index:
                    per_shard.append(GemvStats())
                per_shard[index].merge(stats)
        return per_shard

    def hardware_report(self) -> dict:
        """Projected timing + interconnect traffic of the sharded deployment.

        ``None`` when the engine carries no shard plan.  The report couples
        the plan's projected rate/latency with the mesh's traffic ledger —
        i.e. the transfer cycles of the links this engine's traffic
        *actually exercised* — plus the engine's projected throughput over
        everything served so far.
        """
        if self._projection is None:
            return None
        report = self._projection.report()
        report["projected_tokens_per_s"] = round(self.stats.projected_tokens_per_s, 1)
        report["tokens_generated"] = self.stats.tokens_generated
        report["endurance"] = self.endurance_report()
        return report

    def endurance_report(self) -> dict:
        """Write-endurance picture of everything this engine deployed.

        Always available (unlike :meth:`hardware_report`, which needs a
        shard plan): per-layer wear fractions from each hybrid layer's
        :meth:`~repro.pim.hybrid.HybridLinear.wear_report`, the analog
        attention executor's KV-operand wear summary when deployed, and
        the deduplicated backend :meth:`health_report`\\ s (whole-chip
        ledger view, dynamic-write channel included).
        """
        layers = {
            name: layer.wear_report() for name, layer in self._hybrid_layers.items()
        }
        report = {
            "layers": layers,
            "max_layer_wear_fraction": max(
                (entry["max_wear_fraction"] for entry in layers.values()),
                default=0.0,
            ),
            "backends": self.backend_health(),
        }
        if self._attention_executor is not None:
            report["attention"] = self._attention_executor.wear_report()
        return report

    @property
    def attention_executor(self):
        """The analog-attention executor, or None for host-attention deploys."""
        return self._attention_executor

    @property
    def hybrid_layers(self) -> dict[str, HybridLinear]:
        """Name -> deployed hybrid layer (copy; attach order preserved)."""
        return dict(self._hybrid_layers)

    def is_pim_deployed(self) -> bool:
        """Whether hybrid SLC/MLC layers are attached to the model."""
        return bool(self._hybrid_layers)
