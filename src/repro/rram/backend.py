"""Pluggable crossbar execution backends (ROADMAP item 2, NIST daffodil style).

Every analog GEMV in the repo reads *programmed cell planes* — the per-slice
conductance levels a weight matrix was written into.  Historically those
planes were produced inline by :class:`~repro.rram.crossbar.ProgrammedMatrix`
(one idealized numpy simulation, programming noise only).  This module turns
that step into a seam: a :class:`CrossbarBackend` owns programming, reads,
lifetime state and health reporting, so one deployment can target

- :class:`SimBackend` — the historical idealized simulation, bitwise-equal
  to the pre-backend code path (guarded by golden-trace tests);
- :class:`FaultySimBackend` — the same simulation layered with device
  non-idealities: stuck-at-G_off/G_on cells, power-law conductance drift
  over deployment time, temperature-scaled read noise, and write-endurance
  wear that degrades re-programming precision;
- a future hardware-in-the-loop backend speaking the same protocol (the
  ``_Sim``/``_Phys`` split of NIST's daffodil-lib).

All fault mechanisms are seeded and deterministic: the backend owns an
explicit clock advanced via :meth:`CrossbarBackend.advance`, and effective
planes only change across ``advance``/``reprogram`` epochs — two GEMVs in
the same epoch read identical conductances, and a fixed seed reproduces an
entire lifetime sweep bit-for-bit.

Write traffic (initial programming, re-programming, and background dynamic
writes) is accounted in a :class:`~repro.rram.endurance.WearLedger`, tying
the backend's wear model to the paper's Section 5.2 endurance argument.

Every noisy cell a backend stores or reads back lies on one conductance
grid (:func:`on_cell_grid`): a float32 multiple of ``2**-16`` level units.
That is what lets the fast GEMV kernel sum bitlines in float32 exactly
(see :mod:`repro.rram.kernels`).
"""

from __future__ import annotations

import abc
import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from repro.rram.cell import CellType, RramDeviceParams
from repro.rram.endurance import WearLedger
from repro.rram.noise import apply_multiplicative_noise

__all__ = [
    "ProgrammedTile",
    "CrossbarBackend",
    "SimBackend",
    "FaultModel",
    "FaultySimBackend",
    "CELL_GRID",
    "EXACT_SUM_LIMIT",
    "on_cell_grid",
    "get_default_backend",
    "set_default_backend",
    "resolve_backend",
]


#: Spacing of the stored conductance grid, in cell-level units.
CELL_GRID = 2.0**-16
#: Magnitude below which float32 holds, and so sums in any order, every grid
#: multiple exactly: ``2**24`` grid units, float32's 24-bit significand.
EXACT_SUM_LIMIT = 2.0**24 * CELL_GRID


def on_cell_grid(values: np.ndarray) -> np.ndarray:
    """``values`` rounded to the nearest multiple of :data:`CELL_GRID`, as float32.

    A grid multiple below :data:`EXACT_SUM_LIMIT` in magnitude is 24
    significant bits at most, so float32 holds it exactly; every float32
    from the limit up is a grid multiple already.
    """
    return (np.rint(np.asarray(values, dtype=np.float64) / CELL_GRID) * CELL_GRID).astype(np.float32)


@dataclass
class ProgrammedTile:
    """Per-matrix programmed state owned by a :class:`CrossbarBackend`.

    One tile corresponds to one :class:`~repro.rram.crossbar.ProgrammedMatrix`:
    ``ideal_levels`` are the exact integer slice levels (shape
    ``(in, out, n_slices)``), ``base_planes`` the frozen programming-noise
    realization (``None`` when programming was exact *and* the backend is
    ideal), float32 on the :func:`on_cell_grid` grid.  Lifetime fields
    (``programmed_at_s``, ``program_count``) drive the faulty backend's
    drift and wear mechanisms.

    Invariants: ``tile_id`` is unique within its backend; ``base_planes``
    (when present) has ``ideal_levels``' shape; callers never mutate
    fields directly — they go through the owning backend's
    :meth:`CrossbarBackend.reprogram` / ``advance``.
    """

    tile_id: int
    ideal_levels: np.ndarray
    cell: CellType
    noise_sigma: float
    rng: np.random.Generator
    base_planes: np.ndarray | None = None
    programmed_at_s: float = 0.0
    program_count: int = 1
    # Fault state (FaultySimBackend only).
    stuck_off: np.ndarray | None = None
    stuck_on: np.ndarray | None = None
    # Effective-plane cache, keyed by the backend's clock epoch.
    _cache_epoch: int = -1
    _cache: np.ndarray | None = None

    @property
    def num_cells(self) -> int:
        """Number of physical cells this tile programs (all slices)."""
        return int(self.ideal_levels.size)


class CrossbarBackend(abc.ABC):
    """Protocol every crossbar execution target implements.

    The surface is deliberately small: *program* a bit-sliced weight matrix
    (returning a :class:`ProgrammedTile` handle), *read* its effective cell
    planes, *re-program* it in place, *advance* the shared device clock, and
    *report health*.  The GEMV kernels (:mod:`repro.rram.kernels`) stay
    backend-agnostic — they consume whatever planes the backend exposes.

    Implementations must be deterministic under a fixed seed: reads may only
    change across ``advance``/``reprogram`` calls (epochs), never between
    two GEMVs in the same epoch.
    """

    #: Human-readable backend identifier (used in health reports and studies).
    name: str = "abstract"

    def __init__(self, ledger: WearLedger | None = None) -> None:
        """Create the backend with an optional shared wear ledger."""
        self.ledger = ledger if ledger is not None else WearLedger()
        # Held weakly, so a tile whose matrix or operand is dropped is freed.
        self._tiles: weakref.WeakValueDictionary[int, ProgrammedTile] = weakref.WeakValueDictionary()
        self._tile_ids = itertools.count()
        self._now_s = 0.0
        self._epoch = 0

    # -- lifetime clock -----------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic counter bumped by every ``advance``/``reprogram``."""
        return self._epoch

    def advance(self, seconds: float = 0.0, writes: int = 0) -> None:
        """Advance the device clock by ``seconds`` and ``writes`` cycles.

        ``writes`` models background dynamic-data write cycles per cell
        (the digital-PIM traffic sharing the die): they age every
        programmed tile's wear fraction and are recorded in the ledger.
        Advancing invalidates cached effective planes, so the next GEMV
        observes the new lifetime point.
        """
        if seconds < 0 or writes < 0:
            raise ValueError("advance() takes non-negative seconds and writes")
        self._now_s += float(seconds)
        if writes:
            self.ledger.record_background(writes)
        self._epoch += 1

    # -- programming --------------------------------------------------------
    def program(
        self,
        ideal_levels: np.ndarray,
        cell: CellType,
        noise_sigma: float,
        rng: np.random.Generator,
    ) -> ProgrammedTile:
        """Program one bit-sliced matrix; returns its state handle.

        ``ideal_levels`` are the exact integer slice levels from
        :func:`~repro.rram.crossbar.slice_weights` (shape
        ``(in, out, n_slices)``); ``noise_sigma`` the calibrated
        programming-noise σ for ``cell``; ``rng`` the caller's generator
        (consumed exactly as the pre-backend code did, preserving bitwise
        compatibility).  The write traffic (``cells × cell.write_pulses``)
        lands in the ledger.
        """
        tile = ProgrammedTile(
            tile_id=next(self._tile_ids),
            ideal_levels=ideal_levels,
            cell=cell,
            noise_sigma=float(noise_sigma),
            rng=rng,
        )
        self._program_tile(tile)
        self._tiles[tile.tile_id] = tile
        self.ledger.record_program(
            tile.tile_id, tile.num_cells, cell.write_pulses, reprogram=False
        )
        return tile

    def reprogram(self, tile: ProgrammedTile) -> None:
        """Re-write ``tile``'s cells (fresh noise draw, drift clock reset).

        Re-programming is the recovery action online recalibration takes
        against drifted or worn tiles: it redraws the programming-noise
        realization (wear-scaled on faulty backends), resets the tile's
        drift reference time to *now*, and records the write traffic as a
        re-program in the ledger.
        """
        tile.program_count += 1
        tile.programmed_at_s = self._now_s
        self._program_tile(tile)
        self._epoch += 1
        tile._cache = None
        tile._cache_epoch = -1
        self.ledger.record_program(
            tile.tile_id, tile.num_cells, tile.cell.write_pulses, reprogram=True
        )

    def program_regions(
        self,
        tiles: list[ProgrammedTile],
        regions: list[tuple[slice, slice]],
        levels: np.ndarray,
    ) -> None:
        """Write a block of levels into sub-regions of many tiles in place.

        The dynamic-operand primitive: unlike :meth:`reprogram`, only each
        ``[row_slice, col_slice, :]`` region is re-written (an incremental
        row append costs only the appended cells' write pulses), the tiles'
        drift reference times and program counts are untouched, and the
        *backend-wide* epoch does not move — every other tile's cached
        planes stay valid (a written tile drops its own).  ``levels``
        holds every region's levels, region by region, each in C order
        (any shape of that total size).  The block is checked against the
        cell range once and its programming noise drawn once, in region
        order — the draws separate writes of the same regions would make.
        The tiles must share cell type, noise model and generator.  Each
        write records one region write of ``size x cell.write_pulses`` in
        the ledger's dynamic-write channel.
        """
        first = tiles[0]
        shared = (first.cell, first.noise_sigma, first.rng)
        noisy = first.base_planes is not None
        if len(regions) != len(tiles) or any(
            (t.cell, t.noise_sigma, t.rng) != shared
            or (t.base_planes is not None) != noisy
            for t in tiles
        ):
            raise ValueError("region writes need one region per tile and tiles sharing a noise model")
        targets = [t.ideal_levels[region] for t, region in zip(tiles, regions)]
        bounds = list(itertools.accumulate([target.size for target in targets], initial=0))
        flat = np.asarray(levels).reshape(-1)
        if flat.size != bounds[-1] or not all(target.size for target in targets):
            raise ValueError(f"{flat.size} levels for non-empty regions of {bounds[1:]} cells")
        first.cell.validate_levels(flat)
        stored = flat
        if noisy:
            stored = on_cell_grid(apply_multiplicative_noise(flat, first.noise_sigma, first.rng))
        pulses = first.cell.write_pulses
        for tile, region, target, start, stop in zip(tiles, regions, targets, bounds, bounds[1:]):
            target[...] = flat[start:stop].reshape(target.shape)
            if noisy:
                tile.base_planes[region] = stored[start:stop].reshape(target.shape)
            tile._cache = None
            tile._cache_epoch = -1
            self.ledger.record_region(tile.tile_id, stop - start, pulses)

    # -- reads --------------------------------------------------------------
    @abc.abstractmethod
    def planes(self, tile: ProgrammedTile) -> np.ndarray:
        """Effective cell planes for ``tile`` at the current clock epoch.

        Returns an array of ``tile.ideal_levels``' shape: integer slice
        levels when the tile is ideal, floats (programming noise + any
        lifetime effects) otherwise.  Stable within one epoch.
        """

    @abc.abstractmethod
    def is_ideal(self, tile: ProgrammedTile) -> bool:
        """True when ``planes(tile)`` equals the exact integer slice levels.

        Kernels use this to license the exact noiseless one-matmul
        shortcut, so a backend must only return True when *no* mechanism
        (noise, faults, drift, wear) can perturb a read.
        """

    @abc.abstractmethod
    def _program_tile(self, tile: ProgrammedTile) -> None:
        """Backend-specific (re)programming: populate ``tile.base_planes``."""

    # -- health -------------------------------------------------------------
    def wear_fraction(self, tile: ProgrammedTile) -> float:
        """Fraction of ``tile``'s write endurance consumed so far."""
        return self.ledger.wear_fraction(tile.tile_id)

    def health_report(self) -> dict:
        """Deployment-health snapshot: clock, tiles, wear and write totals.

        ``tiles``, ``cells`` and the wear fractions cover the live tiles,
        those a matrix or operand still holds; the write counts
        (``programs``, ``reprograms``, ...) cover every tile ever
        programmed.  Subclasses extend this with their mechanism-specific
        fields (stuck cell fraction, worst drift factor, ...).  The report
        is JSON-serializable — studies drop it straight into result
        payloads.
        """
        tiles = list(self._tiles.values())
        wear = [self.wear_fraction(t) for t in tiles]
        return {
            "backend": self.name,
            "time_s": self._now_s,
            "epoch": self._epoch,
            "tiles": len(tiles),
            "cells": int(sum(t.num_cells for t in tiles)),
            "programs": self.ledger.programs,
            "reprograms": self.ledger.reprograms,
            "dynamic_writes": self.ledger.dynamic_writes,
            "total_write_pulses": self.ledger.total_write_pulses,
            "max_wear_fraction": max(wear, default=0.0),
            "mean_wear_fraction": float(np.mean(wear)) if wear else 0.0,
        }


class SimBackend(CrossbarBackend):
    """The historical idealized simulation behind a backend interface.

    Programming applies one multiplicative-Gaussian noise draw (Eq. (5))
    frozen at write time; reads return those planes unchanged forever.
    Bitwise-equal to the pre-backend inline code path — same rng draw
    order, same dtype casts — which the golden-trace tests pin down.
    """

    name = "sim"

    def _program_tile(self, tile: ProgrammedTile) -> None:
        """Freeze one Eq. (5) noise realization (or none when σ = 0)."""
        if tile.noise_sigma == 0.0:
            # Noiseless cells equal the integer slice levels exactly; keeping
            # a float copy would double programmed-weight memory for nothing.
            tile.base_planes = None
        else:
            noisy = apply_multiplicative_noise(tile.ideal_levels, tile.noise_sigma, tile.rng)
            tile.base_planes = on_cell_grid(noisy)

    def planes(self, tile: ProgrammedTile) -> np.ndarray:
        """Frozen programming-noise planes (ideal levels when σ = 0)."""
        return tile.ideal_levels if tile.base_planes is None else tile.base_planes

    def is_ideal(self, tile: ProgrammedTile) -> bool:
        """True exactly when the tile was programmed noiselessly."""
        return tile.base_planes is None


@dataclass(frozen=True)
class FaultModel:
    """Device non-ideality knobs for :class:`FaultySimBackend`.

    Parameters
    ----------
    stuck_off_rate / stuck_on_rate:
        Fraction of cells permanently stuck at G_off (reads as level 0) /
        G_on (reads as the cell's max level), drawn once per tile from the
        backend seed.  Stuck cells ignore programming entirely.
    drift_nu / drift_t0_s:
        Power-law conductance drift ``G(t) = G0 · (1 + t/t0)^(−ν)`` with
        ``t`` the seconds since the tile was last (re)programmed.  ν = 0
        disables drift; typical filamentary RRAM sits around ν ≈ 0.01-0.1
        with t0 of about a day.
    temperature_c / temp_ref_c / temp_sigma_per_c:
        Temperature-scaled read noise: each degree above ``temp_ref_c``
        adds ``temp_sigma_per_c`` of multiplicative σ to every read epoch
        (redrawn deterministically per epoch from the backend seed).
    wear_sigma_growth:
        Programming-noise growth per unit wear: a tile re-programmed at
        wear fraction ``f`` draws its noise with σ scaled by
        ``1 + wear_sigma_growth · f`` — worn cells program less precisely.
    endurance_cycles:
        Per-cell write endurance used for wear fractions (default: the
        device's 1e8, matching :class:`~repro.rram.endurance.EnduranceModel`).
    """

    stuck_off_rate: float = 0.0
    stuck_on_rate: float = 0.0
    drift_nu: float = 0.0
    drift_t0_s: float = 86_400.0
    temperature_c: float = 25.0
    temp_ref_c: float = 25.0
    temp_sigma_per_c: float = 0.0
    wear_sigma_growth: float = 0.0
    endurance_cycles: float = RramDeviceParams().endurance_cycles

    def __post_init__(self) -> None:
        """Validate rates and coefficients at the boundary."""
        if not 0.0 <= self.stuck_off_rate <= 1.0 or not 0.0 <= self.stuck_on_rate <= 1.0:
            raise ValueError("stuck rates must be in [0, 1]")
        if self.stuck_off_rate + self.stuck_on_rate > 1.0:
            raise ValueError("stuck_off_rate + stuck_on_rate must not exceed 1")
        if self.drift_nu < 0 or self.drift_t0_s <= 0:
            raise ValueError("drift_nu must be >= 0 and drift_t0_s > 0")
        if self.temp_sigma_per_c < 0 or self.wear_sigma_growth < 0:
            raise ValueError("temp_sigma_per_c and wear_sigma_growth must be >= 0")
        if self.endurance_cycles <= 0:
            raise ValueError("endurance_cycles must be positive")

    @property
    def excess_temp_sigma(self) -> float:
        """Extra multiplicative read-noise σ from operating above reference."""
        return max(0.0, self.temperature_c - self.temp_ref_c) * self.temp_sigma_per_c

    @property
    def active(self) -> bool:
        """True when any mechanism can perturb a read or a re-program."""
        return (
            self.stuck_off_rate > 0.0
            or self.stuck_on_rate > 0.0
            or self.drift_nu > 0.0
            or self.excess_temp_sigma > 0.0
            or self.wear_sigma_growth > 0.0
        )

    def drift_factor(self, elapsed_s: float) -> float:
        """Multiplicative conductance retention after ``elapsed_s`` seconds."""
        if self.drift_nu == 0.0 or elapsed_s <= 0.0:
            return 1.0
        return float((1.0 + elapsed_s / self.drift_t0_s) ** (-self.drift_nu))


class FaultySimBackend(CrossbarBackend):
    """Simulation backend layering device faults over the clean sim.

    Effective planes are recomputed lazily per clock epoch as::

        planes = stuck(  drift(t) · temp_noise(epoch) · base_planes  )

    where ``base_planes`` carry the (wear-scaled) programming noise frozen
    at the last (re)program, ``drift(t)`` is the power-law retention factor
    since then, ``temp_noise`` a per-epoch multiplicative draw, and
    ``stuck`` pins defective cells at level 0 / max level.  Everything is
    derived from ``seed`` — a fixed seed reproduces a whole lifetime sweep
    bit-for-bit, which the determinism tests and the ``bench_faults`` CI
    gate rely on.
    """

    name = "faulty-sim"

    def __init__(
        self,
        fault: FaultModel | None = None,
        seed: int = 0,
        ledger: WearLedger | None = None,
    ) -> None:
        """Create the backend from a :class:`FaultModel` and a seed."""
        self.fault = fault or FaultModel()
        self.seed = int(seed)
        if ledger is None:
            ledger = WearLedger(endurance_cycles=self.fault.endurance_cycles)
        super().__init__(ledger=ledger)

    def _program_tile(self, tile: ProgrammedTile) -> None:
        """(Re)draw programming noise with wear-scaled σ; draw stuck masks once."""
        sigma = tile.noise_sigma
        if self.fault.wear_sigma_growth > 0.0 and tile.program_count > 1:
            sigma *= 1.0 + self.fault.wear_sigma_growth * self.wear_fraction(tile)
        if sigma == 0.0 and not self.fault.active:
            tile.base_planes = None
        else:
            tile.base_planes = on_cell_grid(apply_multiplicative_noise(tile.ideal_levels, sigma, tile.rng))
        if tile.stuck_off is None and (
            self.fault.stuck_off_rate > 0.0 or self.fault.stuck_on_rate > 0.0
        ):
            # Manufacturing defects: drawn once per tile from the backend
            # seed, independent of the caller's programming rng.
            fault_rng = np.random.default_rng((self.seed, 0x5F17, tile.tile_id))
            uniform = fault_rng.random(tile.ideal_levels.shape)
            tile.stuck_off = uniform < self.fault.stuck_off_rate
            tile.stuck_on = (~tile.stuck_off) & (
                uniform < self.fault.stuck_off_rate + self.fault.stuck_on_rate
            )

    def planes(self, tile: ProgrammedTile) -> np.ndarray:
        """Effective planes at the current epoch (cached until it changes).

        Drift, read noise and stuck cells are applied in float64 and the
        result is stored back on the cell grid (:func:`on_cell_grid`).
        """
        if tile.base_planes is None:
            return tile.ideal_levels
        if tile._cache_epoch == self._epoch and tile._cache is not None:
            return tile._cache
        effective = tile.base_planes.astype(np.float64)
        factor = self.fault.drift_factor(self._now_s - tile.programmed_at_s)
        if factor != 1.0:
            effective = effective * factor
        sigma_t = self.fault.excess_temp_sigma
        if sigma_t > 0.0:
            read_rng = np.random.default_rng(
                (self.seed, 0x7E39, tile.tile_id, tile.program_count, self._epoch)
            )
            effective = apply_multiplicative_noise(effective, sigma_t, read_rng)
        if tile.stuck_off is not None:
            effective[tile.stuck_off] = 0.0
            effective[tile.stuck_on] = float(tile.cell.max_level)
        effective = on_cell_grid(effective)
        tile._cache = effective
        tile._cache_epoch = self._epoch
        return effective

    def is_ideal(self, tile: ProgrammedTile) -> bool:
        """Only ideal when programmed noiselessly with every mechanism off."""
        return tile.base_planes is None

    def stuck_cell_fraction(self) -> float:
        """Fraction of the live tiles' cells pinned by stuck-at defects."""
        tiles = list(self._tiles.values())
        total = sum(t.num_cells for t in tiles)
        if not total:
            return 0.0
        stuck = sum(
            int(t.stuck_off.sum()) + int(t.stuck_on.sum())
            for t in tiles
            if t.stuck_off is not None
        )
        return stuck / total

    def health_report(self) -> dict:
        """Base report plus fault-mechanism telemetry (drift, stuck, temp)."""
        report = super().health_report()
        oldest = min(
            (t.programmed_at_s for t in self._tiles.values()), default=self._now_s
        )
        report.update(
            {
                "stuck_cell_fraction": self.stuck_cell_fraction(),
                "worst_drift_factor": self.fault.drift_factor(self._now_s - oldest),
                "temperature_c": self.fault.temperature_c,
                "excess_temp_sigma": self.fault.excess_temp_sigma,
            }
        )
        return report


_default_backend: CrossbarBackend = SimBackend()


def get_default_backend() -> CrossbarBackend:
    """The process-wide backend used when none is passed explicitly."""
    return _default_backend


def set_default_backend(backend: CrossbarBackend) -> CrossbarBackend:
    """Install ``backend`` process-wide; returns the previous default."""
    global _default_backend
    if not isinstance(backend, CrossbarBackend):
        raise TypeError(f"expected CrossbarBackend, got {type(backend).__name__}")
    previous = _default_backend
    _default_backend = backend
    return previous


def resolve_backend(backend: CrossbarBackend | None) -> CrossbarBackend:
    """``backend`` if given, else the process-wide default."""
    return backend if backend is not None else _default_backend
