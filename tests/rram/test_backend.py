"""CrossbarBackend protocol tests: golden traces, faults, drift, wear.

The backend refactor is only admissible because :class:`SimBackend` is
*bitwise-equal* to the pre-backend inline code path — the golden hashes
below were captured on the seed tree before ``repro.rram.backend`` existed
and pin down the exact outputs of both kernels over every cell type, noisy
and clean, unsharded and 1/2/4-way sharded.  On top, the fault backend's
mechanisms (stuck cells, drift, temperature noise, wear) must be seeded,
deterministic, and only able to change effective planes across
``advance``/``reprogram`` epochs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dist import DeviceMesh
from repro.pim.hybrid import HybridLinear
from repro.rram import (
    CELL_TYPES,
    CrossbarConfig,
    DEFAULT_NOISE,
    FaultModel,
    FaultySimBackend,
    GemvStats,
    KernelPolicy,
    MLC2,
    ProgrammedMatrix,
    SLC,
    SimBackend,
    WearLedger,
    get_default_backend,
    kernel_policy,
    resolve_backend,
    set_default_backend,
)
from repro.rram.noise import NoiseSpec
from repro.svd.pipeline import LayerPlan

# Captured on the pre-backend seed tree (see module docstring).
GOLDEN = {
    "gemv/SLC/clean/fast": "b10ce57987072426",
    "gemv/SLC/clean/reference": "b10ce57987072426",
    "gemv/SLC/noisy/fast": "b10ce57987072426",
    "gemv/SLC/noisy/reference": "b10ce57987072426",
    "gemv/MLC2/clean/fast": "b10ce57987072426",
    "gemv/MLC2/clean/reference": "b10ce57987072426",
    "gemv/MLC2/noisy/fast": "ebdcfc6d5fc45d7c",
    "gemv/MLC2/noisy/reference": "ebdcfc6d5fc45d7c",
    "gemv/MLC3/clean/fast": "cd2e951b239f45a7",
    "gemv/MLC3/clean/reference": "cd2e951b239f45a7",
    "gemv/MLC3/noisy/fast": "b370b63c100feee6",
    "gemv/MLC3/noisy/reference": "b370b63c100feee6",
    "gemv/MLC4/clean/fast": "9187e4103ec5cc22",
    "gemv/MLC4/clean/reference": "9187e4103ec5cc22",
    "gemv/MLC4/noisy/fast": "9392712a34e11db7",
    "gemv/MLC4/noisy/reference": "9392712a34e11db7",
    "hybrid/clean/1way": "760b1320902dbf1d",
    "hybrid/clean/2way": "760b1320902dbf1d",
    "hybrid/clean/4way": "760b1320902dbf1d",
    "hybrid/noisy/1way": "4da8fdaefeaa6d0a",
    "hybrid/noisy/2way": "bff41899844b0f49",
    "hybrid/noisy/4way": "8f480e8178b05f75",
}


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _config_for(cell_name: str) -> CrossbarConfig:
    """3-/4-bit cells need fewer rows to fit the 7-bit physical SAR ADC."""
    if CELL_TYPES[cell_name].bits <= 2:
        return CrossbarConfig()
    return CrossbarConfig(rows=16, cols=32)


class TestGoldenTraces:
    """SimBackend must replay the pre-backend outputs bit-for-bit."""

    @pytest.mark.parametrize("cell_name", sorted(CELL_TYPES))
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_gemv_matches_pre_backend_hash(self, cell_name, noisy, mode):
        cell = CELL_TYPES[cell_name]
        rng = np.random.default_rng(1234)
        x = rng.integers(-128, 128, size=(4, 100))
        w = rng.integers(-128, 128, size=(48, 100))
        matrix = ProgrammedMatrix(
            w,
            cell,
            noise_sigma=DEFAULT_NOISE.sigma(cell) if noisy else 0.0,
            rng=np.random.default_rng(7),
            config=_config_for(cell_name),
        )
        with kernel_policy(KernelPolicy(mode=mode)):
            out = matrix.gemv(x, stats=GemvStats())
        key = f"gemv/{cell_name}/{'noisy' if noisy else 'clean'}/{mode}"
        assert _digest(out) == GOLDEN[key]

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_sharded_hybrid_matches_pre_backend_hash(self, noisy, ways):
        rank, din, dout = 40, 64, 32
        prng = np.random.default_rng(5)
        plan = LayerPlan(
            name="blocks.0.l",
            a_matrix=prng.normal(size=(rank, din)) * 0.1,
            b_matrix=prng.normal(size=(dout, rank)) * 0.1,
            bias=None,
            protected_ranks=np.arange(rank) < 8,
            sigma_gradients=np.linspace(1, 0, rank),
        )
        xf = prng.normal(size=(3, din))
        noise = DEFAULT_NOISE if noisy else NoiseSpec.noiseless()
        layer = HybridLinear(plan, noise=noise, mode="crossbar", seed=3)
        layer.deploy(DeviceMesh(num_chips=1), tensor_parallel=ways)
        out = layer.forward(xf)
        key = f"hybrid/{'noisy' if noisy else 'clean'}/{ways}way"
        assert _digest(out.data.astype(np.float64)) == GOLDEN[key]

    def test_explicit_sim_backend_equals_default(self):
        rng = np.random.default_rng(11)
        w = rng.integers(-128, 128, size=(8, 32))
        x = rng.integers(-128, 128, size=(2, 32))
        via_default = ProgrammedMatrix(
            w, MLC2, noise_sigma=0.05, rng=np.random.default_rng(3)
        ).gemv(x)
        via_explicit = ProgrammedMatrix(
            w, MLC2, noise_sigma=0.05, rng=np.random.default_rng(3),
            backend=SimBackend(),
        ).gemv(x)
        np.testing.assert_array_equal(via_default, via_explicit)


class TestBackendPlumbing:
    def test_default_backend_roundtrip(self):
        original = get_default_backend()
        replacement = SimBackend()
        try:
            assert set_default_backend(replacement) is original
            assert get_default_backend() is replacement
            assert resolve_backend(None) is replacement
            other = SimBackend()
            assert resolve_backend(other) is other
        finally:
            set_default_backend(original)

    def test_set_default_backend_rejects_non_backend(self):
        with pytest.raises(TypeError):
            set_default_backend(object())

    def test_noiseless_planes_are_the_integer_slices(self):
        w = np.arange(-8, 8).reshape(4, 4)
        matrix = ProgrammedMatrix(w, SLC, noise_sigma=0.0, backend=SimBackend())
        assert matrix.is_noiseless
        assert matrix.planes is matrix.slices.values

    def test_health_report_shape(self):
        backend = SimBackend()
        matrix = ProgrammedMatrix(np.ones((2, 4)), SLC, noise_sigma=0.0, backend=backend)
        report = backend.health_report()
        assert report["backend"] == "sim"
        assert report["tiles"] == 1
        assert report["cells"] == matrix.slices.values.size
        assert report["programs"] == 1
        assert report["reprograms"] == 0
        assert report["total_write_pulses"] == 2 * 4 * 8  # cells x SLC pulses
        assert report["max_wear_fraction"] > 0.0

    def test_advance_rejects_negative(self):
        backend = SimBackend()
        with pytest.raises(ValueError):
            backend.advance(seconds=-1.0)
        with pytest.raises(ValueError):
            backend.advance(writes=-1)


class TestFaultModelValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultModel(stuck_off_rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(stuck_off_rate=0.7, stuck_on_rate=0.7)
        with pytest.raises(ValueError):
            FaultModel(drift_nu=-1.0)
        with pytest.raises(ValueError):
            FaultModel(drift_t0_s=0.0)
        with pytest.raises(ValueError):
            FaultModel(temp_sigma_per_c=-0.01)

    def test_active_flag(self):
        assert not FaultModel().active
        assert FaultModel(stuck_off_rate=0.01).active
        assert FaultModel(drift_nu=0.05).active
        assert FaultModel(temperature_c=85.0, temp_sigma_per_c=1e-4).active
        # Below-reference temperature adds no noise.
        assert not FaultModel(temperature_c=0.0, temp_sigma_per_c=1e-4).active

    def test_drift_factor_monotone(self):
        fault = FaultModel(drift_nu=0.05, drift_t0_s=3600.0)
        day = fault.drift_factor(86_400.0)
        week = fault.drift_factor(7 * 86_400.0)
        assert 0.0 < week < day < 1.0
        assert fault.drift_factor(0.0) == 1.0
        assert FaultModel().drift_factor(1e9) == 1.0


class TestFaultySimBackend:
    def _matrix(self, backend, seed=7, sigma=0.02, shape=(12, 40)):
        rng = np.random.default_rng(99)
        w = rng.integers(-128, 128, size=shape)
        return ProgrammedMatrix(
            w, MLC2, noise_sigma=sigma, rng=np.random.default_rng(seed),
            backend=backend,
        )

    def test_identical_seeds_reproduce_planes_bitwise(self):
        fault = FaultModel(
            stuck_off_rate=0.01,
            stuck_on_rate=0.01,
            drift_nu=0.05,
            temperature_c=85.0,
            temp_sigma_per_c=1e-4,
        )
        planes = []
        for _ in range(2):
            backend = FaultySimBackend(fault=fault, seed=42)
            matrix = self._matrix(backend)
            backend.advance(seconds=86_400.0)
            planes.append(np.array(matrix.planes))
        np.testing.assert_array_equal(planes[0], planes[1])

    def test_planes_stable_within_epoch_and_change_across(self):
        fault = FaultModel(temperature_c=85.0, temp_sigma_per_c=1e-4)
        backend = FaultySimBackend(fault=fault, seed=1)
        matrix = self._matrix(backend)
        first = np.array(matrix.planes)
        np.testing.assert_array_equal(first, matrix.planes)  # cached, same epoch
        backend.advance(seconds=1.0)
        assert not np.array_equal(first, matrix.planes)  # fresh read-noise draw

    def test_stuck_cells_pin_levels_and_fraction(self):
        fault = FaultModel(stuck_off_rate=0.05, stuck_on_rate=0.05)
        backend = FaultySimBackend(fault=fault, seed=3)
        matrix = self._matrix(backend, sigma=0.0)
        planes = np.asarray(matrix.planes)
        tile = matrix._tile
        assert tile.stuck_off.any() and tile.stuck_on.any()
        np.testing.assert_array_equal(planes[tile.stuck_off], 0.0)
        np.testing.assert_array_equal(planes[tile.stuck_on], float(MLC2.max_level))
        fraction = backend.stuck_cell_fraction()
        assert 0.0 < fraction < 0.2
        assert not matrix.is_noiseless  # faults forbid the exact shortcut

    def test_drift_shrinks_levels_and_reprogram_resets(self):
        fault = FaultModel(drift_nu=0.1, drift_t0_s=3600.0)
        backend = FaultySimBackend(fault=fault, seed=5)
        matrix = self._matrix(backend, sigma=0.0)
        fresh = np.asarray(matrix.planes, dtype=np.float64)
        backend.advance(seconds=30 * 86_400.0)
        drifted = np.asarray(matrix.planes, dtype=np.float64)
        assert drifted[fresh > 0].max() < fresh[fresh > 0].max()
        expected = fault.drift_factor(30 * 86_400.0)
        ratio = drifted[fresh > 0] / fresh[fresh > 0]
        np.testing.assert_allclose(ratio, expected, rtol=1e-4)
        matrix.reprogram()
        recovered = np.asarray(matrix.planes, dtype=np.float64)
        np.testing.assert_allclose(
            recovered[fresh > 0] / fresh[fresh > 0], 1.0, rtol=1e-6
        )

    def test_gemv_runs_under_faults_and_drift_hurts_accuracy(self):
        fault = FaultModel(stuck_off_rate=0.02, drift_nu=0.2, drift_t0_s=3600.0)
        backend = FaultySimBackend(fault=fault, seed=9)
        matrix = self._matrix(backend, sigma=0.0)
        x = np.random.default_rng(0).integers(-128, 128, size=(3, 40))
        out_fresh = matrix.gemv(x)
        assert out_fresh.shape == (3, 12)
        backend.advance(seconds=365 * 86_400.0)
        out_drifted = matrix.gemv(x)
        # A year of drift must perturb the analog result more than day zero.
        dense_t = (
            matrix.slices.values.astype(np.int64) @ matrix.slices.slice_factors
            - matrix.slices.offset
        )
        exact = x @ dense_t
        err_fresh = np.abs(out_fresh - exact).sum()
        err_drifted = np.abs(out_drifted - exact).sum()
        assert err_drifted > err_fresh

    def test_health_report_includes_fault_fields(self):
        fault = FaultModel(stuck_off_rate=0.01, drift_nu=0.05, temperature_c=60.0)
        backend = FaultySimBackend(fault=fault, seed=2)
        matrix = self._matrix(backend)
        backend.advance(seconds=86_400.0)
        report = backend.health_report()
        assert report["backend"] == "faulty-sim"
        assert report["cells"] == matrix.slices.values.size
        assert report["stuck_cell_fraction"] > 0.0
        assert 0.0 < report["worst_drift_factor"] < 1.0
        assert report["temperature_c"] == 60.0


class TestWearRoundTrip:
    """rram.endurance wear accounting round-trips through advance()."""

    def test_program_and_reprogram_totals_match_ledger(self):
        backend = SimBackend()
        slc = ProgrammedMatrix(np.ones((4, 8)), SLC, backend=backend)
        mlc = ProgrammedMatrix(np.ones((4, 8)), MLC2, backend=backend)
        slc_cells = slc._tile.num_cells  # 8*4*8 slices
        mlc_cells = mlc._tile.num_cells
        assert slc_cells == 8 * 4 * 8 and mlc_cells == 8 * 4 * 4
        expected = slc_cells * SLC.write_pulses + mlc_cells * MLC2.write_pulses
        assert backend.ledger.total_write_pulses == expected
        stats = GemvStats()
        slc.reprogram(stats=stats)
        slc.reprogram(stats=stats)
        mlc.reprogram(stats=stats)
        assert stats.cells_reprogrammed == 2 * slc_cells + mlc_cells
        assert backend.ledger.programs == 2
        assert backend.ledger.reprograms == 3
        assert backend.ledger.total_write_pulses == (
            3 * slc_cells * SLC.write_pulses + 2 * mlc_cells * MLC2.write_pulses
        )

    def test_wear_fraction_counts_programs_and_background(self):
        ledger = WearLedger(endurance_cycles=1000.0)
        backend = SimBackend(ledger=ledger)
        matrix = ProgrammedMatrix(np.ones((2, 4)), SLC, backend=backend)
        tile_id = matrix._tile.tile_id
        assert ledger.wear_fraction(tile_id) == pytest.approx(1 / 1000)
        matrix.reprogram()
        assert ledger.wear_fraction(tile_id) == pytest.approx(2 / 1000)
        backend.advance(writes=500)
        assert ledger.wear_fraction(tile_id) == pytest.approx(502 / 1000)
        assert ledger.wear_fraction(999) == pytest.approx(500 / 1000)  # background only

    def test_wear_scaled_reprogram_sigma(self):
        """A worn tile re-programs with inflated sigma on the faulty backend."""
        fault = FaultModel(wear_sigma_growth=100.0, endurance_cycles=1000.0)
        backend = FaultySimBackend(fault=fault, seed=0)
        worn = FaultySimBackend(fault=fault, seed=0)
        rng = np.random.default_rng(31)
        w = rng.integers(-128, 128, size=(8, 16))
        m_fresh = ProgrammedMatrix(
            w, MLC2, noise_sigma=0.02, rng=np.random.default_rng(1), backend=backend
        )
        m_worn = ProgrammedMatrix(
            w, MLC2, noise_sigma=0.02, rng=np.random.default_rng(1), backend=worn
        )
        worn.advance(writes=900)  # near end-of-life
        m_fresh.reprogram()
        m_worn.reprogram()
        ideal = m_fresh._tile.ideal_levels.astype(np.float64)
        dev_fresh = np.abs(np.asarray(m_fresh.planes) - ideal)
        dev_worn = np.abs(np.asarray(m_worn.planes) - ideal)
        assert dev_worn.mean() > dev_fresh.mean()

    def test_ledger_report_and_validation(self):
        ledger = WearLedger()
        with pytest.raises(ValueError):
            ledger.record_program(0, 0, 1)
        with pytest.raises(ValueError):
            ledger.record_background(-1.0)
        ledger.record_program(0, 10, 4)
        ledger.record_program(0, 10, 4, reprogram=True)
        report = ledger.report()
        assert report["programs"] == 1
        assert report["reprograms"] == 1
        assert report["total_write_pulses"] == 80


class TestRegionWrites:
    """program_regions: one batched write ≡ one region write per tile, in order."""

    @staticmethod
    def _tiles(backend, sigma, count=3):
        rng = np.random.default_rng(5)  # one generator shared by every tile
        return [
            backend.program(np.zeros((4, 6, 4), dtype=np.int64), MLC2, sigma, rng)
            for _ in range(count)
        ]

    @pytest.mark.parametrize(
        "make_backend",
        [SimBackend, lambda: FaultySimBackend(FaultModel(stuck_off_rate=0.1, drift_nu=0.05), seed=2)],
    )
    def test_batched_write_equals_one_region_at_a_time(self, make_backend):
        sigma = DEFAULT_NOISE.sigma(MLC2)
        batched, single = make_backend(), make_backend()
        tiles_b, tiles_s = self._tiles(batched, sigma), self._tiles(single, sigma)
        regions = [(slice(0, 2), slice(1, 4)), (slice(3, 4), slice(0, 6)), (slice(0, 4), slice(5, 6))]
        rng = np.random.default_rng(6)
        blocks = [
            rng.integers(0, 4, size=tiles_b[0].ideal_levels[region].shape) for region in regions
        ]
        batched.program_regions(tiles_b, regions, np.concatenate([b.ravel() for b in blocks]))
        for tile, (rows, cols), block in zip(tiles_s, regions, blocks):
            single.program_regions([tile], [(rows, cols)], block)
        for a, b in zip(tiles_b, tiles_s):
            np.testing.assert_array_equal(a.ideal_levels, b.ideal_levels)
            np.testing.assert_array_equal(batched.planes(a), single.planes(b))
        assert batched.ledger.dynamic_writes == single.ledger.dynamic_writes == 3
        assert batched.ledger.dynamic_write_pulses == single.ledger.dynamic_write_pulses

    def test_rejects_bad_blocks(self):
        backend = SimBackend()
        noisy = self._tiles(backend, DEFAULT_NOISE.sigma(MLC2), count=1)
        clean = self._tiles(backend, 0.0, count=1)
        region = (slice(0, 1), slice(0, 2))
        with pytest.raises(ValueError, match="noise model"):
            backend.program_regions(noisy + clean, [region, region], np.zeros(16, dtype=np.int64))
        with pytest.raises(ValueError, match="non-empty regions"):
            backend.program_regions(noisy, [region], np.zeros(7, dtype=np.int64))
        with pytest.raises(ValueError, match="non-empty regions"):
            backend.program_regions(noisy, [(slice(0, 0), slice(0, 2))], np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            backend.program_regions(noisy, [region], np.full(8, 9, dtype=np.int64))
        assert backend.ledger.dynamic_writes == 0
