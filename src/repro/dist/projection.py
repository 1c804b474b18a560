"""Hardware-projected timing for a sharded deployment.

Bridges the functional serving path and the analytic models: where
:class:`~repro.arch.scaling.ScalabilityModel` projects throughput from a
paper :class:`~repro.models.configs.ModelSpec` and *analytic* array demand,
:class:`HardwareProjection` projects the same quantities from the **actual
deployed geometry** — the arrays the mapper really placed, the PUs the
:class:`~repro.dist.plan.ShardPlan` really assigned, and the interconnect
links the plan really exercises.  ``bench_shard`` cross-checks the two.

Model (matching :class:`~repro.arch.latency.HyFlexPimLatencyModel`):

- One layer advances in ``GEMV_STAGES_PER_LAYER`` dependent analog waves of
  ``(input_bits + 1) x 100 ns``; tensor parallelism adds the OCI
  partial-sum aggregation to every layer's stage window, pipeline
  parallelism adds one PCIe-6.0 hidden-vector handoff per chip boundary
  (amortized per block in the steady-state rate, charged in full in the
  serial fill latency).
- Weights are stationary, so steady-state throughput is *concurrency over
  stage time*: spare capacity on the assigned PUs hosts replicated token
  pipelines (paper case 2), giving ``concurrency = assigned arrays /
  deployed arrays``.
- Per-request projected latency is ``serial fill + (tokens - 1) / rate`` —
  the position the repo's latency model already takes for generation
  ("concurrent streams keep the pipeline full",
  :meth:`~repro.arch.latency.HyFlexPimLatencyModel.inference_time_s`).
"""

from __future__ import annotations

from repro.arch.interconnect import (
    hidden_vector_handoff_cycles,
    partial_sum_aggregation_cycles,
)
from repro.arch.latency import GEMV_STAGES_PER_LAYER, HyFlexPimLatencyModel
from repro.dist.plan import ShardPlan

__all__ = ["HardwareProjection"]


class HardwareProjection:
    """Projected compute/transfer timing for one :class:`ShardPlan`.

    ``hidden_dim`` sizes the pipeline handoff (one INT8 hidden vector per
    chip boundary per token); pass the served model's ``d_model``.
    """

    def __init__(self, plan: ShardPlan, hidden_dim: int) -> None:
        if hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim}")
        self.plan = plan
        self.hidden_dim = hidden_dim
        self.hardware = plan.mesh.hardware

    # ------------------------------------------------------------------
    # Stage timing
    # ------------------------------------------------------------------
    def gemv_wave_s(self) -> float:
        """Seconds for one bit-serial GEMV wave across an array."""
        return HyFlexPimLatencyModel(self.hardware).gemv_wave_s()

    def oci_aggregation_s(self) -> float:
        """Per-layer partial-sum aggregation cost of tensor parallelism."""
        shards = self.plan.tensor_parallel
        if shards < 2:
            return 0.0
        clock = self.hardware.clock_hz
        return partial_sum_aggregation_cycles(shards, clock_hz=clock) / clock

    def handoff_s(self) -> float:
        """One hidden-vector chip-to-chip handoff (per boundary, per token)."""
        clock = self.hardware.clock_hz
        return hidden_vector_handoff_cycles(self.hidden_dim, clock_hz=clock) / clock

    def block_stage_s(self) -> float:
        """Steady-state stage window of one Transformer block.

        The amortized pipeline handoff follows
        :meth:`~repro.arch.scaling.ScalabilityModel.throughput`: with
        ``layers_per_chip`` blocks per chip, each block's window carries
        ``1 / layers_per_chip`` of a handoff.
        """
        stage = GEMV_STAGES_PER_LAYER * self.gemv_wave_s() + self.oci_aggregation_s()
        boundaries = self.plan.pipeline_boundaries
        if boundaries:
            layers_per_chip = max(
                1, -(-self.plan.num_blocks // (boundaries + 1))
            )
            stage += self.handoff_s() / layers_per_chip
        return stage

    # ------------------------------------------------------------------
    # Rates and latencies
    # ------------------------------------------------------------------
    def concurrency(self) -> float:
        """Token pipelines the assigned PUs sustain (weights-stationary).

        Spare arrays on the assigned PUs replicate layer pipelines (paper
        case 2), exactly as in the Fig. 17 scalability model — but measured
        against the arrays the mapper *actually placed*, not the analytic
        demand.
        """
        assigned = self.plan.pus_assigned() * self.plan.mesh.arrays_per_pu()
        demand = max(1, self.plan.arrays_used)
        return max(1.0, assigned / demand)

    def pipeline_rate_tokens_per_s(self) -> float:
        """Steady-state projected tokens/s of the deployed, sharded model."""
        return self.concurrency() / self.block_stage_s()

    def serial_token_latency_s(self) -> float:
        """One token's fill latency through every block and every boundary."""
        per_block = GEMV_STAGES_PER_LAYER * self.gemv_wave_s() + self.oci_aggregation_s()
        return (
            max(1, self.plan.num_blocks) * per_block
            + self.plan.pipeline_boundaries * self.handoff_s()
        )

    def request_latency_s(self, prompt_len: int, new_tokens: int) -> float:
        """Hardware-projected end-to-end latency of one request.

        Serial fill for the first position, then every remaining prompt and
        generated position at the steady-state rate.
        """
        if prompt_len < 0 or new_tokens < 0:
            raise ValueError("prompt_len and new_tokens must be non-negative")
        positions = prompt_len + new_tokens
        if positions == 0:
            return 0.0
        rate = self.pipeline_rate_tokens_per_s()
        return self.serial_token_latency_s() + (positions - 1) / rate

    def request_busy_s(self, prompt_len: int, new_tokens: int) -> float:
        """This request's share of projected pipeline occupancy (throughput
        accounting: shares over concurrent requests sum to total busy time)."""
        return (prompt_len + new_tokens) / self.pipeline_rate_tokens_per_s()

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Plan shape, projected rate and exercised-link traffic."""
        mesh = self.plan.mesh
        return {
            "plan": self.plan.describe(),
            "concurrency": round(self.concurrency(), 3),
            "block_stage_us": round(self.block_stage_s() * 1e6, 4),
            "serial_token_latency_us": round(self.serial_token_latency_s() * 1e6, 4),
            "pipeline_rate_tokens_per_s": round(self.pipeline_rate_tokens_per_s(), 1),
            "traffic": mesh.traffic_report(),
            "transfer_seconds": mesh.transfer_seconds(),
        }
