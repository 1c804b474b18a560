"""Workloads, load generators and measurements on the deployed engine.

Every timed path is ``ServingEngine.deploy(mode="crossbar")`` with the
BER-calibrated ``DEFAULT_NOISE``: with noise the kernels cannot take their
exact-matmul shortcut, so the bit-serial pipeline is what gets timed.

Three workloads, each driven from one thread:

``decode_steady``
    Closed loop of 8 clients (one request each in flight) over 4-8 token
    prompts with 40-token budgets; batch-8 decode GEMVs dominate.
``prefill_long``
    Closed loop of 8 clients over 48-60 token prompts with 2-token budgets;
    per-request prefill over tall activations dominates.
``analog_stream``
    Closed loop of 8 clients over 4-16 token prompts with 20-token
    budgets, served with analog attention on a 2-chip mesh at tensor
    parallelism 2, so every token writes K/V rows into MLC dynamic operands
    beside the crossbar reads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dist import DeviceMesh, HardwareProjection, ShardPlan
from repro.eval.metrics import evaluate_lm
from repro.rram import DEFAULT_NOISE
from repro.rram.kernels import KernelPolicy, kernel_policy
from repro.serve import ServingEngine

from fixture import Fixture, RequestStream

__all__ = [
    "CLIENTS",
    "VERIFY_REQUESTS",
    "WORKLOADS",
    "Workload",
    "counters",
    "deploy",
    "drive",
    "eval_nll",
    "make_stream",
    "projection",
    "replay",
    "set_up",
]

MAX_BATCH = 8
#: Closed-loop concurrency: requests kept outstanding by ``drive``.
CLIENTS = MAX_BATCH
#: Requests served by each warm-up pass (fixed, independent of --seed).
WARMUP_REQUESTS = 8
WARMUP_SEED = 12345
WARMUP_BUDGET = 4
#: The first requests of every stream, replayed under other kernels.
#: Equal to ``CLIENTS``, so they are admitted together in every window.
VERIFY_REQUESTS = CLIENTS


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the deployment that serves it."""

    name: str
    prompt_len: tuple[int, int]  # inclusive range
    budget: tuple[int, int]  # inclusive range of max_new_tokens
    attention: str = "host"
    chips: int = 1
    tensor_parallel: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decode_steady", prompt_len=(4, 8), budget=(40, 40)),
        Workload("prefill_long", prompt_len=(48, 60), budget=(2, 2)),
        Workload(
            "analog_stream",
            prompt_len=(4, 16),
            # One budget for all: with 16-24 token budgets, how many requests
            # were admitted (and prefilled) in the same step varied by seed,
            # and ttft_p90_s jumped between those clusters (IQR 0.32 of its
            # median over ten seeds).
            budget=(20, 20),
            attention="analog",
            chips=2,
            tensor_parallel=2,
        ),
    )
}


def make_stream(fixture: Fixture, workload: Workload, seed: int, size: int) -> RequestStream:
    """The workload's seeded request stream."""
    return RequestStream(
        fixture.corpus.transition,
        seed,
        size,
        workload.prompt_len,
        workload.budget,
    )


def deploy(fixture: Fixture, workload: Workload) -> ServingEngine:
    """Program the crossbars and build the engine ``workload`` is served by."""
    mesh = DeviceMesh(num_chips=workload.chips) if workload.chips > 1 else None
    return ServingEngine.deploy(
        fixture.compiled,
        fixture.plans,
        calibration_prompts=fixture.calibration,
        noise=DEFAULT_NOISE,
        mode="crossbar",
        mesh=mesh,
        tensor_parallel=workload.tensor_parallel,
        attention=workload.attention,
        max_batch_size=MAX_BATCH,
    )


def warm_up(engine: ServingEngine, fixture: Fixture, workload: Workload) -> None:
    """Fill the lazy caches (planes, KV slots) with a fixed request set."""
    budget = (min(workload.budget[0], WARMUP_BUDGET), min(workload.budget[1], WARMUP_BUDGET))
    stream = RequestStream(
        fixture.corpus.transition, WARMUP_SEED, WARMUP_REQUESTS, workload.prompt_len, budget
    )
    drive(engine, stream, count=len(stream))


#: Median time of one ``probe`` pass on an idle 2-vCPU x86 host.
PROBE_REF_S = 0.01
_PROBE_BITS = np.random.default_rng(1).integers(0, 2, size=(8, 128)).astype(np.float64)
_PROBE_CELLS = np.random.default_rng(2).integers(0, 4, size=(128, 64)).astype(np.float64)


def probe(passes: int = 20) -> float:
    """Host slowdown now: mean time of a fixed pass over ``PROBE_REF_S``.

    On a shared 2-vCPU host the same code flips between two speeds about
    1.6x apart, in stretches of a second to minutes.  The pass mixes small
    BLAS calls and in-place ufuncs in an interpreter loop, like a served
    crossbar step, and runs no repository code, so a change to the program
    cannot move it.  The mean, not the median, tracks the share of time
    spent slow.
    """
    started = time.perf_counter()
    acc = np.zeros((8, 64))
    for k in range(1000 * passes):
        sums = _PROBE_BITS @ _PROBE_CELLS
        np.rint(sums, out=sums)
        np.clip(sums, 0, 63, out=sums)
        np.multiply(sums, float(k & 7), out=sums)
        np.add(acc, sums, out=acc)
    return (time.perf_counter() - started) / passes / PROBE_REF_S


def set_up(fixture: Fixture, workload: Workload) -> tuple[ServingEngine, float]:
    """Deploy and warm up; returns the engine and the wall time it took.

    Afterwards the heap is collected and frozen, so the cyclic garbage
    collector, which stays on while serving, stops rescanning the fixture
    and the programmed arrays.
    """
    started = time.perf_counter()
    engine = deploy(fixture, workload)
    warm_up(engine, fixture, workload)
    elapsed = time.perf_counter() - started
    gc.collect()
    gc.freeze()
    return engine, elapsed


def replay(
    fixture: Fixture, workload: Workload, stream: RequestStream, mode: str | None
) -> tuple[list, float]:
    """Serve the stream's first ``VERIFY_REQUESTS`` on a fresh twin under kernel ``mode``.

    The twin is deployed and warmed up like the timed engine and serves
    through the same closed loop, so it draws the same programming and
    KV-write noise in the same order: under ``mode="reference"`` its tokens
    must equal the ones the timed engine served to those requests (the
    first window admits them together and they finish before any later
    request is admitted).  ``mode=None`` serves them on the undeployed
    float model instead (the host-float reference).  Returns the tokens per
    request and the wall time of serving them.
    """
    if mode is None:
        engine = ServingEngine(fixture.host_model, max_batch_size=MAX_BATCH)
        policy = contextlib.nullcontext()
    else:
        engine = deploy(fixture, workload)
        policy = kernel_policy(KernelPolicy(mode=mode))
    with policy:
        warm_up(engine, fixture, workload)
        started = time.perf_counter()
        window, _ = drive(engine, stream, count=VERIFY_REQUESTS)
        wall = time.perf_counter() - started
    return [r.result.tokens for r in window.requests], wall


def projection(fixture: Fixture, engine: ServingEngine) -> HardwareProjection:
    """Hardware projection of the engine's own deployed geometry.

    Sharded engines carry their plan; an unsharded deployment is the
    one-chip plan of the same layer plans.
    """
    plan = engine.shard_plan or ShardPlan.build(fixture.plans, DeviceMesh(num_chips=1))
    return HardwareProjection(plan, hidden_dim=engine.model.config.d_model)


def counters(engine: ServingEngine) -> dict[str, float]:
    """Snapshot of every simulated counter the engine exposes."""
    out = {f"gemv.{k}": v for k, v in dataclasses.asdict(engine.gemv_stats()).items()}
    out["planes_packed"] = engine.stats.planes_packed
    out["pack_reuses"] = engine.stats.pack_reuses
    executor = engine.attention_executor
    out["kv_tokens_written"] = executor.kv_tokens_written if executor is not None else 0
    if engine.shard_plan is not None:
        for link, ledger in engine.shard_plan.mesh.traffic.items():
            out[f"mesh.{link}.bytes"] = ledger.num_bytes
            out[f"mesh.{link}.transfers"] = ledger.transfers
    return out


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Tracked:
    """Client-side record of one request."""

    index: int
    prompt_len: int
    budget: int
    submitted: float = 0.0
    times: list[float] = field(default_factory=list)
    streamed: list[int] = field(default_factory=list)
    done_at: float | None = None
    result: object = None

    @property
    def ok(self) -> bool:
        """Served in full, and the stream matches the final result."""
        result = self.result
        return (
            result is not None
            and not result.preempted
            and int(result.tokens.size) == self.budget
            and self.streamed == [int(t) for t in result.tokens]
        )


@dataclass
class Window:
    """One measured stretch of serving (drain excluded from its span)."""

    start: float
    end: float = 0.0
    requests: list[Tracked] = field(default_factory=list)
    busy_s: float = 0.0  # engine.step wall time inside the window
    steps: int = 0

    @property
    def span_s(self) -> float:
        """Window length in clock seconds."""
        return self.end - self.start

    def tokens_in_window(self) -> int:
        """Tokens emitted before the window closed."""
        return sum(sum(1 for t in r.times if t <= self.end) for r in self.requests)

    def completed(self) -> list[Tracked]:
        """Requests that finished, correctly, inside the window."""
        return [r for r in self.requests if r.ok and r.done_at <= self.end]

    def digest(self) -> str:
        """sha256 over every request's generated tokens, in stream order."""
        h = hashlib.sha256()
        for r in sorted(self.requests, key=lambda r: r.index):
            tokens = r.result.tokens if r.result is not None else np.array([], dtype=np.int64)
            h.update(np.asarray(tokens, dtype=np.int64).tobytes() + b"|")
        return h.hexdigest()


def drive(
    engine: ServingEngine,
    stream: RequestStream,
    first: int = 0,
    duration: float | None = None,
    count: int | None = None,
) -> tuple[Window, int]:
    """Serve stream requests from index ``first`` for ``duration`` s or ``count`` requests.

    Closed loop: ``CLIENTS`` requests stay outstanding; each completion
    submits the next.  When the window closes no more requests are
    submitted and in-flight ones drain (outside the window).  Returns the
    window and the next unused stream index.
    """
    now = time.perf_counter
    window = Window(start=now())
    deadline = window.start + duration if duration is not None else math.inf
    limit = first + count if count is not None else len(stream)
    by_id: dict[int, Tracked] = {}
    nxt = first

    def accepting() -> bool:
        return nxt < limit and now() < deadline

    def submit() -> None:
        nonlocal nxt
        prompt, budget = stream.request(nxt)
        record = Tracked(index=nxt, prompt_len=int(prompt.size), budget=budget)
        nxt += 1

        def on_token(_request_id: int, token: int) -> None:
            record.times.append(now())
            record.streamed.append(int(token))

        window.requests.append(record)
        record.submitted = now()
        try:
            by_id[engine.submit(prompt, budget, on_token=on_token)] = record
        except ValueError:
            pass  # refused: it never gets a result, so it counts as failed

    def step(timed: bool) -> None:
        started = now()
        results = engine.step(force=True)
        finished = now()
        if timed:
            window.busy_s += finished - started
            window.steps += 1
        for result in results:
            record = by_id[result.request_id]
            record.result = result
            record.done_at = finished
            if accepting():
                submit()

    for _ in range(CLIENTS):
        if accepting():
            submit()
    while accepting() and engine.busy:
        step(timed=True)
    window.end = now()
    while engine.busy:
        step(timed=False)
    return window, nxt


def eval_nll(fixture: Fixture, engine: ServingEngine) -> float:
    """Held-out NLL of the deployed crossbar model (nats/token)."""
    return evaluate_lm(engine.model, fixture.heldout, batch_size=16)
