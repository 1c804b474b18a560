"""Analytic architecture models: energy, latency, area, scaling, baselines."""

from repro.arch.area import AreaReport, area_report, table2_rows
from repro.arch.baselines import (
    AsadiBaseline,
    AsadiDaggerBaseline,
    BaselineCosts,
    BaselineModel,
    NmpBaseline,
    NonPimBaseline,
    SprintBaseline,
)
from repro.arch.config import (
    ANALOG_MODULE,
    DEFAULT_HARDWARE,
    DIGITAL_MODULE,
    ComponentSpec,
    HardwareConfig,
    ModuleSpec,
)
from repro.arch.energy import AnalogWaveEnergy, EnergyBreakdown, HyFlexPimEnergyModel
from repro.arch.interconnect import (
    Link,
    OCI_LINK,
    PCIE6_LINK,
    hidden_vector_handoff_cycles,
    partial_sum_aggregation_cycles,
    transfer_cycles,
)
from repro.arch.latency import HyFlexPimLatencyModel
from repro.arch.perf_model import (
    FIG14_SEQ_LENS,
    FIG14_SLC_RATES,
    PerformanceComparison,
)
from repro.arch.scaling import ScalabilityModel, ScalingReport
from repro.arch.workload import (
    ATTENTION_STAGES,
    LINEAR_STAGES,
    STAGES,
    StageOps,
    attention_stage_ops,
    linear_stage_ops,
    memory_footprint_bytes,
    stage_op_counts,
    total_ops,
)

__all__ = [
    "ANALOG_MODULE",
    "ATTENTION_STAGES",
    "AnalogWaveEnergy",
    "AreaReport",
    "AsadiBaseline",
    "AsadiDaggerBaseline",
    "BaselineCosts",
    "BaselineModel",
    "ComponentSpec",
    "DEFAULT_HARDWARE",
    "DIGITAL_MODULE",
    "EnergyBreakdown",
    "FIG14_SEQ_LENS",
    "FIG14_SLC_RATES",
    "HardwareConfig",
    "HyFlexPimEnergyModel",
    "HyFlexPimLatencyModel",
    "LINEAR_STAGES",
    "Link",
    "ModuleSpec",
    "NmpBaseline",
    "NonPimBaseline",
    "OCI_LINK",
    "PCIE6_LINK",
    "PerformanceComparison",
    "STAGES",
    "ScalabilityModel",
    "ScalingReport",
    "SprintBaseline",
    "StageOps",
    "area_report",
    "attention_stage_ops",
    "hidden_vector_handoff_cycles",
    "linear_stage_ops",
    "memory_footprint_bytes",
    "partial_sum_aggregation_cycles",
    "stage_op_counts",
    "table2_rows",
    "total_ops",
    "transfer_cycles",
]
