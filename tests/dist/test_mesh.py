"""Tests for the DeviceMesh and its interconnect traffic ledger."""

from __future__ import annotations

import pytest

from repro.arch.interconnect import OCI_LINK, PCIE6_LINK, transfer_cycles
from repro.dist import DeviceMesh


class TestConstruction:
    def test_defaults(self):
        mesh = DeviceMesh()
        assert mesh.num_chips == 1
        assert mesh.pus_per_chip == 24
        assert mesh.total_pus == 24
        assert mesh.arrays_per_pu() == 24 * 512

    def test_rejects_nonpositive_chips(self):
        with pytest.raises(ValueError):
            DeviceMesh(num_chips=0)

    def test_multi_chip_totals(self):
        mesh = DeviceMesh(num_chips=4)
        assert mesh.total_pus == 96


class TestTrafficLedger:
    def test_record_matches_transfer_cycles(self):
        mesh = DeviceMesh()
        cycles = mesh.record("oci", 2048)
        assert cycles == pytest.approx(transfer_cycles(OCI_LINK, 2048, mesh.clock_hz))
        ledger = mesh.traffic["oci"]
        assert ledger.transfers == 1
        assert ledger.num_bytes == 2048
        assert ledger.cycles == pytest.approx(cycles)
        assert ledger.seconds(mesh.clock_hz) == pytest.approx(cycles / mesh.clock_hz)

    def test_launch_overhead_charged_per_transfer(self):
        mesh = DeviceMesh()
        cycles = mesh.record("pcie6", 1024, transfers=3)
        single = transfer_cycles(PCIE6_LINK, 1024, mesh.clock_hz)
        assert cycles == pytest.approx(
            single + 2 * PCIE6_LINK.launch_overhead_cycles
        )

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError):
            DeviceMesh().record("nvlink", 100)

    def test_invalid_transfers_raise(self):
        with pytest.raises(ValueError):
            DeviceMesh().record("oci", 100, transfers=0)

    def test_partial_sum_aggregation(self):
        mesh = DeviceMesh()
        assert mesh.record_partial_sum_aggregation(1, 3072) == 0.0
        cycles = mesh.record_partial_sum_aggregation(4, 3072)
        assert cycles > 0
        assert mesh.traffic["oci"].num_bytes == pytest.approx(3 * 3072)
        assert mesh.traffic["oci"].transfers == 3

    def test_reset_and_report(self):
        mesh = DeviceMesh()
        mesh.record("oci", 512)
        mesh.record("pcie6", 256)
        report = mesh.traffic_report()
        assert report["oci"]["bytes"] == 512
        assert report["pcie6"]["seconds"] > 0
        assert mesh.transfer_seconds() > 0
        mesh.reset_traffic()
        assert mesh.transfer_seconds() == 0.0
        assert mesh.traffic["oci"].transfers == 0
