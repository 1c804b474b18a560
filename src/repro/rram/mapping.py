"""Weight-to-array mapping and the hybrid SLC/MLC rank split (Section 3.2-3.3).

:class:`MappedMatrix` owns the physical placement of one weight matrix:
how many 64x128 arrays it occupies for a given cell type, the programmed
(noisy) cell contents, and the operation counts of every GEMV executed
against it.

:func:`split_by_rank` implements the paper's hybrid placement: after SVD,
*rank* ``i`` corresponds to row ``i`` of ``A = Σ·Vᵀ`` and column ``i`` of
``B = U``.  Protected ranks are placed on SLC arrays and the rest on MLC
arrays; the two partial GEMVs recombine additively in the digital domain,
so a single logical layer spans both cell types with no accuracy coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rram.adc import SarAdc, required_adc_bits
from repro.rram.backend import CrossbarBackend
from repro.rram.cell import CellType, MLC2, SLC
from repro.rram.crossbar import CrossbarConfig, GemvStats, ProgrammedMatrix
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec

__all__ = [
    "array_footprint",
    "rank_fragments",
    "MappedMatrix",
    "HybridSplit",
    "split_by_rank",
    "partition_rank",
    "partition_rank_compacted",
]


def array_footprint(
    out_features: int,
    in_features: int,
    cell: CellType,
    config: CrossbarConfig | None = None,
    weight_bits: int = 8,
) -> int:
    """Number of physical arrays needed to store one weight matrix.

    MLC packs ``cell.bits`` weight bits per cell, halving (for 2-bit cells)
    the column footprint relative to SLC — the capacity benefit of Fig. 7.
    """
    config = config or CrossbarConfig()
    slices_per_weight = -(-weight_bits // cell.bits)
    row_tiles = -(-in_features // config.rows)
    col_tiles = -(-(out_features * slices_per_weight) // config.cols)
    return row_tiles * col_tiles


def rank_fragments(
    protected: np.ndarray,
    in_features: int,
    out_features: int,
    mlc_cell: CellType = MLC2,
) -> list[tuple[str, int, int, CellType]]:
    """The matrices :func:`split_by_rank` programs for one rank slice.

    ``protected`` is the slice's local rank mask.  Returns ``(fragment,
    out, in, cell)`` for ``A/slc``, ``A/mlc``, ``B/slc`` and ``B/mlc``, in
    that order, leaving out empty ones.  Summing :func:`array_footprint`
    over them gives the slice's arrays without programming any.
    """
    n_slc = int(np.count_nonzero(protected))
    n_mlc = len(protected) - n_slc
    fragments = [
        ("A/slc", n_slc, in_features, SLC),
        ("A/mlc", n_mlc, in_features, mlc_cell),
        ("B/slc", out_features, n_slc, SLC),
        ("B/mlc", out_features, n_mlc, mlc_cell),
    ]
    return [f for f in fragments if f[1] and f[2]]


def partition_rank(rank: int, parts: int, tile: int = 1) -> list[tuple[int, int]]:
    """Balanced contiguous partition of ``[0, rank)`` into ``parts`` slices.

    ``tile`` is the physical array row count: shard boundaries align to
    whole row tiles whenever there are at least as many tiles as shards, so
    tensor parallelism splits *mapped arrays* rather than cutting through
    one array's wordlines.  Tile-aligned shards see exactly the per-tile
    analog sums of the unsharded mapping, which keeps the sharded GEMV
    bitwise-equal even where the ADC saturates — **provided the SLC/MLC
    protected prefix is itself tile-aligned**: :func:`split_by_rank`
    compacts protected and unprotected ranks into separate matrices before
    tiling, so accumulation-tile boundaries live in compacted space, and a
    protected count that is not a multiple of ``tile`` shifts them.  When
    ``parts`` exceeds the tile count the partition falls back to sub-tile
    granularity.  In either unaligned regime, equality requires a
    saturation-free deployment (the ADC clips per tile; noiseless
    saturation-free GEMVs are exact regardless of tiling).

    Empty slices are dropped (a 3-rank layer on a 4-way mesh yields three
    shards), so every returned slice is non-empty and they cover the rank
    dimension exactly once, in order.
    """
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    num_tiles = -(-rank // tile) if rank else 0
    if 0 < parts <= num_tiles:
        tile_bounds = [(num_tiles * p) // parts for p in range(parts + 1)]
        bounds = [min(rank, t * tile) for t in tile_bounds]
    else:
        bounds = [(rank * p) // parts for p in range(parts + 1)]
    return [
        (bounds[p], bounds[p + 1])
        for p in range(parts)
        if bounds[p + 1] > bounds[p]
    ]


def partition_rank_compacted(
    protected: np.ndarray, parts: int, tile: int = 1
) -> list[tuple[int, int]] | None:
    """Balanced contiguous partition aligned in *compacted* SLC/MLC space.

    :func:`split_by_rank` compacts a layer's protected and unprotected
    ranks into separate matrices before tiling, so the accumulation-tile
    boundaries the ADC clips at live in compacted space — a shard boundary
    at logical rank ``b`` preserves the unsharded tiling only when both the
    protected count below ``b`` and the unprotected count below ``b`` are
    multiples of ``tile``.  :func:`partition_rank` balances in *logical*
    rank space and only lands on such boundaries by luck; this variant
    restricts each boundary to the nearest compacted-aligned candidate
    around the balanced target instead.

    Returns ``None`` when no such partition exists with one non-empty
    slice per part (the caller should fall back to
    :func:`partition_rank`'s sub-tile boundaries).  ``parts == 1`` always
    succeeds (a single shard has no interior boundary).
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    protected = np.asarray(protected, dtype=bool)
    rank = protected.size
    if parts == 1:
        return [(0, rank)] if rank else None
    prefix = np.concatenate([[0], np.cumsum(protected)])
    candidates = [
        b
        for b in range(1, rank)
        if prefix[b] % tile == 0 and (b - prefix[b]) % tile == 0
    ]
    bounds = [0]
    for p in range(1, parts):
        ideal = (rank * p) // parts
        feasible = [c for c in candidates if c > bounds[-1]]
        # Keep room for the remaining parts - p boundaries after this one.
        feasible = feasible[: len(feasible) - (parts - 1 - p)]
        if not feasible:
            return None
        bounds.append(min(feasible, key=lambda c: (abs(c - ideal), c)))
    bounds.append(rank)
    return [(bounds[p], bounds[p + 1]) for p in range(parts)]


@dataclass
class MappedMatrix:
    """A weight matrix resident in (simulated) analog RRAM arrays.

    A tensor-parallel shard is programmed exactly like a standalone
    matrix: its noise is drawn from its own seed.
    """

    weight_codes: np.ndarray  # (out, in) signed INT8 codes
    cell: CellType
    noise: NoiseSpec = field(default_factory=lambda: DEFAULT_NOISE)
    config: CrossbarConfig = field(default_factory=CrossbarConfig)
    weight_bits: int = 8
    seed: int = 0
    stats: GemvStats = field(default_factory=GemvStats)
    backend: CrossbarBackend | None = None

    def __post_init__(self) -> None:
        """Validate the codes and program them through the backend."""
        self.weight_codes = np.asarray(self.weight_codes, dtype=np.int64)
        if self.weight_codes.ndim != 2:
            raise ValueError("weight_codes must be 2-D")
        # Static weights are programmed exactly once; noise is frozen here.
        self._programmed = ProgrammedMatrix(
            self.weight_codes,
            self.cell,
            noise_sigma=self.noise.sigma(self.cell),
            rng=np.random.default_rng(self.seed),
            config=self.config,
            weight_bits=self.weight_bits,
            backend=self.backend,
        )
        self.backend = self._programmed.backend
        self.stats.cells_initial_programmed += self._programmed._tile.num_cells
        self.write_count = 1

    @property
    def out_features(self) -> int:
        """Output dimension of the mapped matrix."""
        return self.weight_codes.shape[0]

    @property
    def in_features(self) -> int:
        """Input dimension of the mapped matrix."""
        return self.weight_codes.shape[1]

    @property
    def arrays_used(self) -> int:
        """Physical crossbar arrays this matrix occupies."""
        return array_footprint(
            self.out_features, self.in_features, self.cell, self.config, self.weight_bits
        )

    @property
    def adc(self) -> SarAdc:
        """The SAR ADC geometry this mapping's bitline reads require."""
        return SarAdc(bits=required_adc_bits(self.config.rows, self.cell.bits))

    def gemv(self, input_codes: np.ndarray) -> np.ndarray:
        """Noisy analog GEMV ``x @ W.T`` (signed integer result)."""
        return self._programmed.gemv(input_codes, stats=self.stats)

    def ideal_gemv(self, input_codes: np.ndarray) -> np.ndarray:
        """Noise-free integer reference (for error measurements)."""
        x = np.atleast_2d(np.asarray(input_codes, dtype=np.int64))
        return x @ self.weight_codes.T

    def reprogram(self) -> None:
        """Re-write the arrays (recalibration recovery for drift/wear).

        Bumps ``write_count``, records the traffic in the backend's wear
        ledger and in this matrix's ``stats.cells_reprogrammed``.
        """
        self._programmed.reprogram(stats=self.stats)
        self.write_count += 1


@dataclass
class HybridSplit:
    """The SLC/MLC partition of one factored layer's rank dimension.

    A tensor-parallel shard's split holds only its rank slice;
    ``protected`` is then the local mask over that slice.
    """

    protected: np.ndarray  # boolean (rank,) — local to the rank slice
    slc_a: MappedMatrix | None  # protected rows of A on SLC
    mlc_a: MappedMatrix | None  # remaining rows of A on MLC
    slc_b: MappedMatrix | None  # protected columns of B on SLC
    mlc_b: MappedMatrix | None  # remaining columns of B on MLC

    @property
    def arrays_used(self) -> int:
        """Total crossbar arrays across the four constituent matrices."""
        return sum(
            m.arrays_used
            for m in (self.slc_a, self.mlc_a, self.slc_b, self.mlc_b)
            if m is not None
        )

    def merged_stats(self) -> GemvStats:
        """Sum of the four constituent matrices' GEMV statistics."""
        total = GemvStats()
        for m in (self.slc_a, self.mlc_a, self.slc_b, self.mlc_b):
            if m is not None:
                total.merge(m.stats)
        return total

    def reprogram(self) -> None:
        """Re-write all four constituent matrices (recalibration recovery)."""
        for m in (self.slc_a, self.mlc_a, self.slc_b, self.mlc_b):
            if m is not None:
                m.reprogram()


def split_by_rank(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    protected: np.ndarray,
    noise: NoiseSpec | None = None,
    config: CrossbarConfig | None = None,
    mlc_cell: CellType = MLC2,
    seed: int = 0,
    rank_range: tuple[int, int] | None = None,
    backend: CrossbarBackend | None = None,
) -> HybridSplit:
    """Place factored weights on SLC/MLC arrays according to ``protected``.

    ``a_codes`` is the INT8 code matrix of ``A = Σ·Vᵀ`` (rank x in),
    ``b_codes`` of ``B = U`` (out x rank).  Row ``i`` of A and column ``i``
    of B share rank ``i``'s protection decision, so a protected singular
    direction is SLC end-to-end.

    ``rank_range`` carves one tensor-parallel shard out of the logical
    layer: only ranks ``[start, stop)`` are mapped.  A-shards are
    row partitions (each computes a column slice of the hidden vector);
    B-shards are column partitions (each computes an additive partial sum
    of the layer output, recombined over the interconnect — the paper's
    OCI partial-sum aggregation).
    """
    protected = np.asarray(protected, dtype=bool)
    rank = len(protected)
    a_codes = np.asarray(a_codes, dtype=np.int64)
    b_codes = np.asarray(b_codes, dtype=np.int64)
    if a_codes.shape[0] != rank or b_codes.shape[1] != rank:
        raise ValueError(
            f"rank mismatch: mask {rank}, A {a_codes.shape}, B {b_codes.shape}"
        )
    noise = noise or DEFAULT_NOISE
    config = config or CrossbarConfig()

    if rank_range is not None:
        start, stop = rank_range
        a_codes = a_codes[start:stop, :]
        b_codes = b_codes[:, start:stop]
        protected = protected[start:stop]

    def mapped(codes: np.ndarray, cell: CellType, salt: int) -> MappedMatrix | None:
        if codes.size == 0:
            return None
        return MappedMatrix(
            weight_codes=codes,
            cell=cell,
            noise=noise,
            config=config,
            seed=seed + salt,
            backend=backend,
        )

    return HybridSplit(
        protected=protected,
        slc_a=mapped(a_codes[protected, :], SLC, 1),
        mlc_a=mapped(a_codes[~protected, :], mlc_cell, 2),
        slc_b=mapped(b_codes[:, protected], SLC, 3),
        mlc_b=mapped(b_codes[:, ~protected], mlc_cell, 4),
    )
