"""Sharded multi-chip execution: tensor/pipeline parallelism over a mesh.

The functional counterpart of :mod:`repro.arch.scaling` (Fig. 17): a
:class:`DeviceMesh` of virtual HyFlexPIM chips, a :class:`ShardPlan` that
partitions every crossbar-deployed layer's mapped arrays across PUs
(tensor parallelism, OCI partial-sum aggregation) and assigns whole
Transformer blocks to chips (pipeline parallelism, PCIe-6.0 hidden-vector
handoffs), and a :class:`HardwareProjection` that turns the deployed
geometry plus the links actually exercised into projected latency and
throughput.  Deploying a plan programs nothing: each layer writes its
per-shard arrays once, on first use
(:meth:`~repro.pim.hybrid.HybridLinear.program`).

>>> mesh = DeviceMesh(num_chips=1)
>>> plan = ShardPlan.build(layer_plans, mesh, tensor_parallel=4)
>>> deploy_sharded(hybrid_layers, plan)        # each layer's rank slices
>>> HardwareProjection(plan, hidden_dim=d_model).pipeline_rate_tokens_per_s()
"""

from repro.dist.attention import AttentionPlacement, place_attention_heads
from repro.dist.mesh import DeviceMesh, LinkTraffic
from repro.dist.plan import (
    LayerShardAssignment,
    ShardPlan,
    compacted_tile_aligned,
    shard_layer_plan,
)
from repro.dist.projection import HardwareProjection

__all__ = [
    "AttentionPlacement",
    "DeviceMesh",
    "HardwareProjection",
    "LayerShardAssignment",
    "LinkTraffic",
    "ShardPlan",
    "compacted_tile_aligned",
    "deploy_sharded",
    "place_attention_heads",
    "shard_layer_plan",
]


def deploy_sharded(layers, plan: ShardPlan) -> ShardPlan:
    """Deploy every :class:`~repro.pim.hybrid.HybridLinear` per ``plan``.

    ``layers`` is the name -> layer mapping returned by
    :func:`repro.pim.attach_hybrid_layers`; each layer is partitioned into
    the plan's rank slices on the plan's mesh.  Layers the plan does not
    cover keep their 1-way plan.  No crossbar is programmed here: each
    layer programs its shards once, on first use.  Returns ``plan`` for
    chaining.
    """
    for name, layer in dict(layers).items():
        assignment = plan.layers.get(name)
        if assignment is None:
            continue
        layer.deploy(
            plan.mesh,
            rank_slices=assignment.rank_slices,
            chip=assignment.chip,
        )
    return plan
