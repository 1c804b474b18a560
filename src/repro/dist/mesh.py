"""DeviceMesh: N virtual HyFlexPIM chips plus interconnect traffic accounting.

The mesh is the deployment substrate of the paper's Section 3.1 scaling
story: tensor parallelism spreads one layer's arrays over collaborating
PUs inside a chip (partial sums aggregated over the 1000 GB/s OCI), and
pipeline parallelism cascades whole layers across chips (one hidden-vector
handoff per chip boundary over the 128 GB/s PCIe-6.0 link).

The mesh itself is *passive*: it owns the chip inventory and a per-link
traffic ledger (:class:`LinkTraffic`).  The placement decisions live in
:class:`~repro.dist.plan.ShardPlan`; the functional sharded forwards
(:meth:`repro.pim.hybrid.HybridLinear.deploy`) and the serving engine
record the bytes they actually move here, so hardware-projected latency is
driven by the links *exercised*, not by an assumed traffic model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import DEFAULT_HARDWARE, HardwareConfig
from repro.arch.interconnect import Link, OCI_LINK, PCIE6_LINK
from repro.pim.chip import ChipConfig

__all__ = ["LinkTraffic", "DeviceMesh"]


@dataclass
class LinkTraffic:
    """Ledger of everything moved over one link since the last reset."""

    transfers: int = 0
    num_bytes: float = 0.0
    cycles: float = 0.0

    def seconds(self, clock_hz: float) -> float:
        """Transfer time at the given core clock."""
        return self.cycles / clock_hz

    def as_dict(self) -> dict:
        """JSON-friendly ledger snapshot."""
        return {
            "transfers": self.transfers,
            "bytes": round(self.num_bytes, 1),
            "cycles": round(self.cycles, 1),
        }


class DeviceMesh:
    """``num_chips`` virtual HyFlexPIM chips sharing one traffic ledger.

    Parameters
    ----------
    num_chips:
        Pipeline depth of the mesh (paper case 3): consecutive Transformer
        blocks are assigned to consecutive chips by the
        :class:`~repro.dist.plan.ShardPlan` builder.
    chip_config:
        Per-chip composition (24 PUs by default, Fig. 5(a)).
    hardware:
        Component library used for clocking the traffic ledger and for the
        throughput projection.
    chip_pus:
        Optional per-chip PU budgets for a **heterogeneous** mesh — one
        entry per chip, overriding ``chip_config.num_processing_units``
        for that chip (mixed-generation deployments, partially-fused-out
        parts).  ``None`` (default) keeps every chip at the config's
        budget.
    """

    def __init__(
        self,
        num_chips: int = 1,
        chip_config: ChipConfig | None = None,
        hardware: HardwareConfig | None = None,
        chip_pus: "list[int] | tuple[int, ...] | None" = None,
    ) -> None:
        if num_chips < 1:
            raise ValueError(f"num_chips must be >= 1, got {num_chips}")
        self.num_chips = num_chips
        self.chip_config = chip_config or ChipConfig()
        self.hardware = hardware or DEFAULT_HARDWARE
        if chip_pus is None:
            self.chip_pus = tuple(
                self.chip_config.num_processing_units for _ in range(num_chips)
            )
        else:
            if len(chip_pus) != num_chips:
                raise ValueError(
                    f"chip_pus must list one PU budget per chip: got "
                    f"{len(chip_pus)} budgets for {num_chips} chips"
                )
            budgets = tuple(int(b) for b in chip_pus)
            bad = [i for i, b in enumerate(budgets) if b < 1]
            if bad:
                raise ValueError(
                    f"chip_pus budgets must be >= 1; chip(s) {bad} have "
                    f"{[budgets[i] for i in bad]}"
                )
            self.chip_pus = budgets
        self.links: dict[str, Link] = {OCI_LINK.name: OCI_LINK, PCIE6_LINK.name: PCIE6_LINK}
        self.traffic: dict[str, LinkTraffic] = {
            name: LinkTraffic() for name in self.links
        }

    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        """Core clock of every chip in the mesh."""
        return self.hardware.clock_hz

    @property
    def is_heterogeneous(self) -> bool:
        """Whether chips carry different PU budgets."""
        return len(set(self.chip_pus)) > 1

    def pu_budget(self, chip: int) -> int:
        """Processing units on ``chip`` (heterogeneous-aware)."""
        if not 0 <= chip < self.num_chips:
            raise ValueError(f"chip {chip} out of range [0, {self.num_chips})")
        return self.chip_pus[chip]

    @property
    def pus_per_chip(self) -> int:
        """Processing units on each chip (homogeneous meshes only).

        A heterogeneous mesh has no single per-chip budget; callers that
        still assume one must be pointed at :meth:`pu_budget`.
        """
        if self.is_heterogeneous:
            raise ValueError(
                "mesh is heterogeneous (per-chip PU budgets "
                f"{list(self.chip_pus)}); use pu_budget(chip)"
            )
        return self.chip_pus[0]

    @property
    def total_pus(self) -> int:
        """Processing units across the whole mesh."""
        return sum(self.chip_pus)

    def arrays_per_pu(self) -> int:
        """Analog crossbar arrays each processing unit holds."""
        return self.hardware.analog_arrays_per_pu()

    # ------------------------------------------------------------------
    # Traffic ledger
    # ------------------------------------------------------------------
    def record(self, link_name: str, num_bytes: float, transfers: int = 1) -> float:
        """Account ``num_bytes`` moved over ``link_name``; returns the cycles.

        ``transfers`` counts distinct launches (each paying the link's
        launch overhead once).
        """
        link = self.links.get(link_name)
        if link is None:
            raise KeyError(
                f"unknown link {link_name!r}; mesh links: {sorted(self.links)}"
            )
        if transfers < 1:
            raise ValueError(f"transfers must be >= 1, got {transfers}")
        cycles = (
            link.transfer_seconds(num_bytes) * self.clock_hz
            + transfers * link.launch_overhead_cycles
        )
        ledger = self.traffic[link_name]
        ledger.transfers += transfers
        ledger.num_bytes += num_bytes
        ledger.cycles += cycles
        return cycles

    def record_partial_sum_aggregation(
        self, num_shards: int, num_bytes_per_shard: float, intra_chip: bool = True
    ) -> float:
        """Tensor-parallel partial-sum reduction across ``num_shards`` workers.

        ``num_shards - 1`` shards ship their partial result to the
        aggregating worker (paper Section 3.1, cases 1-2); intra-chip
        reductions ride the OCI, cross-chip ones PCIe-6.0.
        """
        if num_shards < 2:
            return 0.0
        link = OCI_LINK.name if intra_chip else PCIE6_LINK.name
        return self.record(
            link, (num_shards - 1) * num_bytes_per_shard, transfers=num_shards - 1
        )

    def record_batched_pipeline_handoff(
        self, hidden_dim: int, rows: int, boundaries: int | None = None
    ) -> float:
        """One fused PCIe-6.0 handoff per chip boundary for a whole step (case 3).

        Batched decode ships every live row's hidden vector across each
        boundary in **one** launch per boundary per step (``transfers ==
        boundaries``): ``rows * boundaries * hidden_dim`` INT8 bytes.
        ``rows`` is the number of hidden vectors crossing (decoded rows
        plus prefill tokens this step).  ``boundaries`` defaults to the
        mesh's own chip count but a :class:`~repro.dist.plan.ShardPlan`
        may use fewer chips than the mesh offers.
        """
        if boundaries is None:
            boundaries = self.num_chips - 1
        if boundaries < 1 or rows < 1:
            return 0.0
        return self.record(
            PCIE6_LINK.name,
            float(rows) * boundaries * hidden_dim,
            transfers=boundaries,
        )

    def reset_traffic(self) -> None:
        """Zero every link ledger (start of a fresh measurement)."""
        for name in self.traffic:
            self.traffic[name] = LinkTraffic()

    def transfer_seconds(self) -> float:
        """Total projected seconds spent on all recorded transfers."""
        return sum(t.seconds(self.clock_hz) for t in self.traffic.values())

    def traffic_report(self) -> dict:
        """Per-link traffic totals, with seconds at the mesh clock."""
        report = {name: ledger.as_dict() for name, ledger in self.traffic.items()}
        for name, ledger in self.traffic.items():
            report[name]["seconds"] = ledger.seconds(self.clock_hz)
        return report

    def __repr__(self) -> str:
        if self.is_heterogeneous:
            return (
                f"DeviceMesh(num_chips={self.num_chips}, "
                f"chip_pus={list(self.chip_pus)})"
            )
        return (
            f"DeviceMesh(num_chips={self.num_chips}, "
            f"pus_per_chip={self.pus_per_chip})"
        )
