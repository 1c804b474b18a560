"""The ``2**-16`` cell grid: every stored cell on it, float32 sums exact.

Every backend write path stores noisy cells as float32 multiples of
``2**-16`` level units (:func:`~repro.rram.backend.on_cell_grid`).  That is
what lets the fast kernel sum bitlines in float32 and still equal the
float64 reference bit for bit, including on tiles whose sums pass ``2**8``
and so are not exact in float32: those clip to full scale on both kernels.
A tile holding a negative cell must keep ``Σ|c|`` below ``2**8`` on every
column, or building the fast kernel's plan raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram import (
    DEFAULT_NOISE,
    MLC2,
    SLC,
    DynamicOperand,
    FaultModel,
    FaultySimBackend,
    GemvStack,
    GemvStats,
    KernelPolicy,
    ProgrammedMatrix,
    SarAdc,
    SimBackend,
    kernel_policy,
)
from repro.rram.backend import CELL_GRID, EXACT_SUM_LIMIT, on_cell_grid
from repro.rram.dynamic import PlaneBank
from repro.rram.kernels import fast_gemv, reference_gemv

FAST = KernelPolicy(mode="fast")
REFERENCE = KernelPolicy(mode="reference")


def _gemv(surface, *args, policy: KernelPolicy, **kwargs) -> np.ndarray:
    """``surface.gemv(*args, **kwargs)`` under the process-wide ``policy``."""
    with kernel_policy(policy):
        return surface.gemv(*args, **kwargs)


#: Every mechanism of the faulty backend, wear-scaled re-programming included.
FAULTS = FaultModel(
    stuck_off_rate=0.05,
    stuck_on_rate=0.05,
    drift_nu=0.05,
    temperature_c=70.0,
    temp_sigma_per_c=0.002,
    wear_sigma_growth=5.0,
    endurance_cycles=100.0,
)


def _backend(name: str):
    return SimBackend() if name == "sim" else FaultySimBackend(FAULTS, seed=3)


def _assert_on_grid(cells: np.ndarray) -> None:
    assert cells.dtype == np.float32
    units = cells.astype(np.float64) / CELL_GRID
    np.testing.assert_array_equal(units, np.rint(units))


class TestGridStorage:
    def test_snap_is_nearest_grid_point(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0.0, 4.0, 1000), [255.99999, 1e3 + 1e-7, -0.7]])
        snapped = on_cell_grid(values)
        _assert_on_grid(snapped)
        small = np.abs(values) < EXACT_SUM_LIMIT
        assert np.all(np.abs(snapped[small] - values[small]) <= CELL_GRID / 2)

    @pytest.mark.parametrize("backend", ["sim", "faulty"])
    def test_programming_and_reprogramming(self, backend):
        rng = np.random.default_rng(1)
        matrix = ProgrammedMatrix(
            rng.integers(-128, 128, size=(9, 70)),
            MLC2,
            noise_sigma=DEFAULT_NOISE.sigma(MLC2),
            rng=rng,
            backend=_backend(backend),
        )
        _assert_on_grid(matrix._tile.base_planes)
        for _ in range(3):  # wear-scaled σ on the faulty backend
            matrix.reprogram()
            _assert_on_grid(matrix._tile.base_planes)
            _assert_on_grid(matrix.planes)

    @pytest.mark.parametrize("backend", ["sim", "faulty"])
    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_region_writes_and_the_bank(self, backend, grow):
        shared = _backend(backend)
        rng = np.random.default_rng(2)
        operands = [
            DynamicOperand(
                40,
                8,
                cell=MLC2,
                grow=grow,
                noise_sigma=DEFAULT_NOISE.sigma(MLC2),
                rng=np.random.default_rng(5),
                backend=shared,
            )
            for _ in range(3)
        ]
        bank = PlaneBank(operands)
        for t in (5, 1, 9):
            for op in operands:
                op.append(rng.integers(-128, 128, size=(t, 8)))
            _assert_on_grid(operands[0]._tile.base_planes)
            _assert_on_grid(bank.cells)
        shared.advance(seconds=86_400.0)
        bank.gemv(np.zeros((3, 2, 15 if grow == "wordlines" else 8), dtype=np.int64))
        _assert_on_grid(bank.cells)  # rebuilt from the new epoch's planes

    def test_faulty_read_planes_every_epoch(self):
        backend = _backend("faulty")
        matrix = ProgrammedMatrix(
            np.random.default_rng(3).integers(-128, 128, size=(6, 64)),
            SLC,
            noise_sigma=DEFAULT_NOISE.sigma(SLC),
            backend=backend,
        )
        seen = set()
        for _ in range(4):
            backend.advance(seconds=3_600.0)
            planes = matrix.planes
            _assert_on_grid(planes)
            seen.add(planes.tobytes())
        assert len(seen) == 4  # drift and read noise moved the cells


def _with_cells(cells: np.ndarray, cell=SLC, backend=None) -> ProgrammedMatrix:
    """A matrix whose effective cells are exactly ``cells`` (``(in, out, n_s)``)."""
    in_features, out_features, _ = cells.shape
    matrix = ProgrammedMatrix(
        np.zeros((out_features, in_features), dtype=np.int64), cell, noise_sigma=0.01, backend=backend
    )
    matrix._tile.base_planes = on_cell_grid(cells)
    return matrix


def _assert_stack_matches_reference(stack: GemvStack, x: np.ndarray) -> list[GemvStats]:
    sinks = [GemvStats() for _ in stack.matrices]
    out = fast_gemv(stack, x, 8, sinks)
    starts = np.cumsum([0] + stack.widths)
    for k, matrix in enumerate(stack.matrices):
        i, j = divmod(k, stack.per_member)
        expected_stats = GemvStats()
        expected = reference_gemv(matrix, x[i, :, : matrix.in_features], 8, expected_stats)
        np.testing.assert_array_equal(out[i, :, starts[j] : starts[j] + matrix.out_features], expected)
        assert sinks[k] == expected_stats
    return sinks


class TestSumsPastTheExactRange:
    """Column sums past ``2**8``: where float32 rounds, the ADC clips."""

    @pytest.mark.parametrize("batch", [1, 5, 40])
    def test_saturating_noisy_stack_matches_reference(self, batch):
        rng = np.random.default_rng(batch)
        # 130 inputs: two full 64-row tiles and a 2-wordline tile, which
        # converts per pattern once the batch has 2 or more rows.
        slc = [_with_cells(rng.uniform(0.0, 8.0, size=(130, 5, 8))) for _ in range(2)]
        mlc = [_with_cells(rng.uniform(0.0, 8.0, size=(130, 3, 4)), MLC2) for _ in range(2)]
        stack = GemvStack([(slc[0], mlc[0]), (slc[1], mlc[1])])
        column_sums = np.add.reduceat(stack.plan()[4], [0, 64, 128], axis=1, dtype=np.float64)
        assert column_sums.max() > EXACT_SUM_LIMIT + 16 and column_sums.min() < EXACT_SUM_LIMIT
        # float32 cannot sum these bitlines exactly: rounding does occur.
        ones = np.ones((1, 64), dtype=np.float32)
        cells = stack.plan()[4][0, :64]
        assert np.any(ones @ cells != ones.astype(np.float64) @ cells.astype(np.float64))
        x = rng.integers(-128, 128, size=(2, batch, 130))
        x[:, ::2] = -1  # every bit of every wordline: the full column sums
        sinks = _assert_stack_matches_reference(stack, x)
        assert all(s.saturated_conversions > 0 for s in sinks)
        assert any(s.table_tiles for s in sinks) == (batch > 1)

    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_saturating_bank_matches_operand_views(self, grow):
        backend = SimBackend()
        operands = [
            DynamicOperand(
                70, 6, cell=MLC2, grow=grow, noise_sigma=0.05, rng=np.random.default_rng(4), backend=backend
            )
            for _ in range(3)
        ]
        bank = PlaneBank(operands)
        rng = np.random.default_rng(6)
        for op in operands:
            op.append(rng.integers(-128, 128, size=(66, 6)))
            tile = op._tile
            tile.base_planes = on_cell_grid(rng.uniform(0.0, 8.0, size=tile.ideal_levels.shape))
        backend.advance()  # the bank re-reads the cells
        width = 66 if grow == "wordlines" else 6
        x = np.full((3, 4, width), -1, dtype=np.int64)
        fast = bank.gemv(x)
        for i, op in enumerate(operands):
            np.testing.assert_array_equal(fast[i], _gemv(op, x[i], policy=REFERENCE))


class TestNegativeCellBound:
    def _cells(self, magnitude: float) -> np.ndarray:
        """One column of 63 equal cells and one negative cell, ``Σ|c|`` = ``magnitude``."""
        cells = np.zeros((64, 2, 8))
        cells[:63, 0, 0] = (magnitude - 0.25) / 63
        cells[63, 0, 0] = -0.25
        return cells

    def test_tile_over_the_bound_raises(self):
        matrix = _with_cells(self._cells(EXACT_SUM_LIMIT + 1.0))
        x = np.full((2, 64), -1, dtype=np.int64)
        with pytest.raises(ValueError, match="negative cell"):
            _gemv(matrix, x, policy=FAST)
        _gemv(matrix, x, policy=REFERENCE)  # the float64 spec is exact anyway

    def test_tile_under_the_bound_matches_reference(self):
        matrix = _with_cells(self._cells(EXACT_SUM_LIMIT - 1.0))
        x = np.full((2, 64), -1, dtype=np.int64)
        x[1, ::3] = 5
        np.testing.assert_array_equal(_gemv(matrix, x, policy=FAST), _gemv(matrix, x, policy=REFERENCE))

    def test_bank_tile_over_the_bound_raises(self):
        backend = SimBackend()
        op = DynamicOperand(64, 2, cell=SLC, noise_sigma=0.01, backend=backend)
        bank = PlaneBank([op])
        op.append(np.zeros((64, 2), dtype=np.int64))
        op._tile.base_planes = on_cell_grid(self._cells(EXACT_SUM_LIMIT + 1.0))
        backend.advance()
        with pytest.raises(ValueError, match="negative cell"):
            bank.gemv(np.full((1, 1, 64), -1, dtype=np.int64))


class TestExactRange:
    def test_limit_is_float32_precision_on_the_grid(self):
        below, past = EXACT_SUM_LIMIT - CELL_GRID, EXACT_SUM_LIMIT + CELL_GRID
        assert float(np.float32(below)) == below
        assert float(np.float32(past)) != past
        # A non-negative sum past the limit clips on any ADC the array may use.
        assert 2**SarAdc.max_bits <= EXACT_SUM_LIMIT

    @pytest.mark.parametrize("excess", [1.0, -1.0], ids=["over", "under"])
    def test_adc_reaching_the_limit_bounds_non_negative_tiles(self, excess):
        """A 9-bit ADC (full scale 511) would not clip a sum float32 rounded."""
        matrix = ProgrammedMatrix(
            np.zeros((2, 64), dtype=np.int64), SLC, noise_sigma=0.01, adc=SarAdc(bits=9, max_bits=9)
        )
        cells = np.zeros((64, 2, 8))
        cells[:, 0, 0] = (EXACT_SUM_LIMIT + excess) / 64
        matrix._tile.base_planes = on_cell_grid(cells)
        x = np.full((2, 64), -1, dtype=np.int64)
        if excess > 0:
            with pytest.raises(ValueError, match="full scale 511"):
                _gemv(matrix, x, policy=FAST)
        else:
            np.testing.assert_array_equal(_gemv(matrix, x, policy=FAST), _gemv(matrix, x, policy=REFERENCE))
