"""Bit-serial analog crossbar GEMV (Figs. 3, 6, 7).

Implements the paper's analog PIM dataflow faithfully:

- signed INT8 weights are *offset-encoded* to [0, 255] (conductances cannot
  be negative) and **bit-sliced across adjacent columns** — eight 1-bit
  columns per weight for SLC, four 2-bit cells for MLC (Figs. 6-7);
- each programmed cell carries multiplicative Gaussian programming noise
  calibrated to measured BER (Section 5.2);
- inputs stream **bit-serially** over the wordlines, one bit-plane per
  cycle; the two's-complement MSB cycle gets a negative weight in the
  digital shift-and-add, and the weight offset is removed digitally by
  subtracting ``offset x Σ(inputs)``;
- every bitline sum passes through the shared SAR ADC (6 b SLC / 7 b MLC);
- matrices larger than one 64x128 array tile across arrays, with partial
  sums accumulated digitally (Section 3.1).

In the noiseless case the pipeline is *exact*: it returns the integer GEMV
``x @ W.T`` (verified by tests), because the unit-step ADC only errs when a
bitline saturates.  The fast kernel in :mod:`repro.rram.kernels` exploits
exactly this property: when a matrix is noiseless and no bitline can reach
the ADC full-scale code it short-circuits the whole bit-serial pipeline to
one dense matmul (with identical outputs and statistics); the einsum
formulation survives as the ``reference`` kernel both are tested against.
With noise it uses the same argument per row tile:
:meth:`ProgrammedMatrix.clip_free_tiles` marks the tiles whose effective
cells cannot reach full scale for any input, and those tiles skip the
ADC's clip.  Which kernel runs is governed by
:class:`~repro.rram.kernels.KernelPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.quant.quantizer import int_to_bits
from repro.rram.adc import SarAdc, required_adc_bits
from repro.rram.backend import CrossbarBackend, resolve_backend
from repro.rram.cell import CellType
from repro.rram.kernels import KernelPolicy, clip_free_flags, run_gemv

__all__ = [
    "CrossbarConfig",
    "WeightSlices",
    "offset_slices",
    "slice_weights",
    "input_bit_weights",
    "bit_serial_gemv",
    "ProgrammedMatrix",
    "GemvStats",
]


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry of one analog RRAM array (Fig. 5(c): 64 WLs x 128 BLs)."""

    rows: int = 64
    cols: int = 128

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")


@dataclass
class WeightSlices:
    """Bit-sliced, offset-encoded weight planes ready for programming.

    ``values`` has shape (in_features, out_features, num_slices) with entries
    in ``[0, 2^cell_bits - 1]``; slice ``s`` carries bit positions
    ``[s*cell_bits, (s+1)*cell_bits)`` of the offset-encoded weight, so its
    shift-and-add impact factor is ``2^(s*cell_bits)`` (1x, 4x, 16x... for
    2-bit MLC, exactly as in Fig. 7).
    """

    values: np.ndarray
    cell: CellType
    weight_bits: int
    offset: int

    @property
    def num_slices(self) -> int:
        """Bit slices (physical columns) each weight occupies."""
        return self.values.shape[-1]

    @property
    def slice_factors(self) -> np.ndarray:
        """Per-slice place values for digital shift-and-add recombination."""
        return (2 ** (self.cell.bits * np.arange(self.num_slices))).astype(np.int64)


def offset_slices(codes: np.ndarray, cell: CellType, weight_bits: int = 8) -> np.ndarray:
    """Offset-encode signed codes of any shape and split each into cell levels.

    Returns ``codes.shape + (num_slices,)`` levels; slice ``s`` holds bits
    ``[s*cell_bits, (s+1)*cell_bits)`` of ``code + 2^(weight_bits-1)``.
    Raises ``ValueError`` when a code is outside the signed
    ``weight_bits`` range.
    """
    offset = 2 ** (weight_bits - 1)
    unsigned = np.asarray(codes).astype(np.int64) + offset
    if unsigned.min(initial=0) < 0 or unsigned.max(initial=0) >= 2**weight_bits:
        raise ValueError(f"weight codes exceed the signed {weight_bits}-bit range")
    bits = int_to_bits(unsigned, weight_bits)  # codes.shape + (weight_bits,)
    num_slices = -(-weight_bits // cell.bits)
    padded = weight_bits % cell.bits
    if padded:
        pad = np.zeros(bits.shape[:-1] + (cell.bits - padded,), dtype=bits.dtype)
        bits = np.concatenate([bits, pad], axis=-1)
    grouped = bits.reshape(bits.shape[:-1] + (num_slices, cell.bits))
    bit_weights = 1 << np.arange(cell.bits)
    values = (grouped * bit_weights).sum(axis=-1)
    cell.validate_levels(values)
    return values


def slice_weights(
    weight_codes: np.ndarray, cell: CellType, weight_bits: int = 8
) -> WeightSlices:
    """Offset-encode signed weight codes and split them into cell slices.

    ``weight_codes`` is (out_features, in_features), signed integers in
    ``[-2^(bits-1), 2^(bits-1) - 1]``.
    """
    weight_codes = np.asarray(weight_codes)
    if weight_codes.ndim != 2:
        raise ValueError(f"expected 2-D weights, got shape {weight_codes.shape}")
    return WeightSlices(
        values=offset_slices(weight_codes.T, cell, weight_bits),
        cell=cell,
        weight_bits=weight_bits,
        offset=2 ** (weight_bits - 1),
    )


def input_bit_weights(input_bits: int) -> np.ndarray:
    """Shift-and-add weights per input bit-plane (two's complement).

    LSB-first: ``[1, 2, 4, ..., -2^(n-1)]`` — the MSB plane carries the
    negative two's-complement weight, applied digitally.
    """
    weights = (1 << np.arange(input_bits)).astype(np.int64)
    weights[-1] = -weights[-1]
    return weights


@dataclass
class GemvStats:
    """Operation counts collected during a crossbar GEMV (for energy hooks).

    All fields are monotone counters; ``merge`` adds another instance in,
    so per-shard / per-layer stats aggregate without double counting.

    Write-side counters are symmetric: ``cells_initial_programmed`` counts
    cells written for the *first* time after deployment (a dynamic
    operand's fresh row appends, a mapped matrix's construction-time
    program), while ``cells_reprogrammed`` counts cells *re*-written over
    previously-programmed state (online recalibration, a dynamic operand
    overwriting recycled rows).  ``cells_programmed`` is the read-side
    occupancy counter — cells *touched* per GEMV — and is unrelated to
    write events.
    """

    adc_conversions: int = 0
    wordline_activations: int = 0
    array_tiles: int = 0
    cells_programmed: int = 0
    saturated_conversions: int = 0
    input_cycles: int = 0
    cells_initial_programmed: int = 0
    cells_reprogrammed: int = 0
    #: Dispatch-shape counters (``compare=False``): how the work reached the
    #: arrays, not what the arrays did — per-row and batched calls of the
    #: same workload agree on every hardware counter above while legitimately
    #: differing here, so equality checks ignore them.  ``planes_packed``
    #: counts activation bit-planes the fast kernel packed, ``fused_rows``
    #: input rows the fast kernel ran bit-serially (one matmul per row tile
    #: for the whole batch); ``clip_free_tiles`` the row tiles it converted
    #: with the round alone (the cells prove no clip), ``table_tiles`` the
    #: narrow row tiles it converted once per wordline pattern.
    planes_packed: int = field(default=0, compare=False)
    fused_rows: int = field(default=0, compare=False)
    zero_planes_skipped: int = field(default=0, compare=False)
    clip_free_tiles: int = field(default=0, compare=False)
    table_tiles: int = field(default=0, compare=False)

    def merge(self, other: "GemvStats") -> None:
        """Accumulate ``other``'s counters into this instance (in place)."""
        self.adc_conversions += other.adc_conversions
        self.wordline_activations += other.wordline_activations
        self.array_tiles += other.array_tiles
        self.cells_programmed += other.cells_programmed
        self.saturated_conversions += other.saturated_conversions
        self.input_cycles += other.input_cycles
        self.cells_initial_programmed += other.cells_initial_programmed
        self.cells_reprogrammed += other.cells_reprogrammed
        self.planes_packed += other.planes_packed
        self.fused_rows += other.fused_rows
        self.zero_planes_skipped += other.zero_planes_skipped
        self.clip_free_tiles += other.clip_free_tiles
        self.table_tiles += other.table_tiles


class ProgrammedMatrix:
    """A weight matrix programmed into crossbar cells via a backend.

    Static weights are written a single time before inference (Section 3.2);
    on the default :class:`~repro.rram.backend.SimBackend` the programming
    noise is *frozen* at construction and every subsequent GEMV reads the
    same perturbed conductances.  Fault-injecting backends may evolve the
    effective conductances across their ``advance()`` clock epochs, and
    :meth:`reprogram` re-writes the cells (the recovery action online
    recalibration takes against drifted or worn tiles).
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        cell: CellType,
        noise_sigma: float = 0.0,
        rng: np.random.Generator | None = None,
        config: CrossbarConfig | None = None,
        weight_bits: int = 8,
        adc: SarAdc | None = None,
        policy: KernelPolicy | None = None,
        backend: CrossbarBackend | None = None,
    ) -> None:
        """Slice, offset-encode and program ``weight_codes`` onto ``backend``.

        ``weight_codes`` is ``(out_features, in_features)`` signed ints in
        the ``weight_bits`` range; ``noise_sigma`` the calibrated Eq. (5)
        programming σ; ``rng`` the programming-noise generator (default:
        seed 0); ``backend`` defaults to the process-wide backend
        (:func:`~repro.rram.backend.get_default_backend`).
        """
        rng = rng or np.random.default_rng(0)
        self.config = config or CrossbarConfig()
        weight_codes = np.asarray(weight_codes, dtype=np.int64)
        self.out_features, self.in_features = weight_codes.shape
        self.cell = cell
        self.policy = policy
        self.noise_sigma = float(noise_sigma)
        self.slices = slice_weights(weight_codes, cell, weight_bits)
        self.backend = resolve_backend(backend)
        self._tile = self.backend.program(self.slices.values, cell, self.noise_sigma, rng)
        self.adc = adc or SarAdc(bits=required_adc_bits(self.config.rows, cell.bits))
        self._dense_weights_t: np.ndarray | None = None
        self._epoch_cache: dict = {}
        self._epoch_cache_key: int | None = None

    # -- programmed-cell views (consumed by repro.rram.kernels) ---------------
    @property
    def is_noiseless(self) -> bool:
        """True when reads return the exact integer slice levels.

        Licenses the fast kernel's one-matmul shortcut, so the owning
        backend must only claim it when no mechanism can perturb a read.
        """
        return self.backend.is_ideal(self._tile)

    @property
    def planes(self) -> np.ndarray:
        """Effective programmed cell levels, shape (in, out, n_slices).

        Integer slice levels when noiseless, float32 cells on the backend's
        conductance grid (:func:`~repro.rram.backend.on_cell_grid`)
        otherwise.  Read through the backend, so fault
        backends may return different planes after ``advance()``.
        """
        return self.backend.planes(self._tile)

    def reprogram(self, stats: GemvStats | None = None) -> None:
        """Re-write the cells through the backend (fresh noise realization).

        Records the write traffic in the backend's wear ledger and, when
        ``stats`` is given, in ``stats.cells_reprogrammed`` — so online
        recalibration's re-program cost shows up next to GEMV counters.
        """
        self.backend.reprogram(self._tile)
        if stats is not None:
            stats.cells_reprogrammed += self._tile.num_cells

    @property
    def saturation_free(self) -> bool:
        """True when no bitline of any row tile can reach the ADC full scale.

        Every row tile is clip-free (:meth:`clip_free_tiles`): even the
        largest possible per-column level sum (every wordline bit set)
        rounds *strictly below* the full-scale code, so no conversion can
        clip or report saturation for any input.  On noiseless cells this
        licenses the fast kernel's exact shortcut.
        """
        return all(self.clip_free_tiles())

    def _epoch_cached(self, name: str, build):
        """``build()``, cached until the backend epoch moves."""
        epoch = self.backend.epoch
        if self._epoch_cache_key != epoch:
            self._epoch_cache = {}
            self._epoch_cache_key = epoch
        if name not in self._epoch_cache:
            self._epoch_cache[name] = build()
        return self._epoch_cache[name]

    def clip_free_tiles(self) -> tuple[bool, ...]:
        """Per-row-tile clip-freedom of the effective cells, cached per epoch.

        See :func:`~repro.rram.kernels.clip_free_flags`; derived from
        :attr:`planes`, so fault backends that evolve conductances
        (``advance()``/``reprogram()``) re-derive it like
        :meth:`float_planes`.
        """
        return self._epoch_cached(
            "clip_free",
            lambda: clip_free_flags(self.planes, self.config.rows, self.adc.full_scale),
        )

    def float_planes(self) -> np.ndarray:
        """The cells as one float32 ``(in, out*n_s)`` block, cached per epoch.

        A view of noisy :attr:`planes` (float32 already); noiseless integer
        levels are converted, exactly, once.  Its row slices are the fast
        kernel's row tiles at their exact width.  Cached against the
        backend's ``epoch`` so fault backends that evolve conductances
        (``advance()``/``reprogram()``) invalidate it automatically.
        """
        return self._epoch_cached(
            "float_planes",
            lambda: np.asarray(self.planes.reshape(self.in_features, -1), dtype=np.float32),
        )

    @property
    def dense_weights_t(self) -> np.ndarray:
        """``W.T`` as float64, recombined from the integer slices (lazy).

        Only materialized by the fast kernel's noiseless shortcut; it is
        ``num_slices`` times smaller than the slice planes.
        """
        if self._dense_weights_t is None:
            recombined = (
                self.slices.values.astype(np.float64) @ self.slices.slice_factors.astype(np.float64)
            )
            self._dense_weights_t = recombined - self.slices.offset
        return self._dense_weights_t

    def gemv(
        self,
        input_codes: np.ndarray,
        input_bits: int = 8,
        stats: GemvStats | None = None,
        policy: KernelPolicy | None = None,
    ) -> np.ndarray:
        """Bit-serial ``x @ W.T`` against the programmed cells (signed ints).

        ``policy`` overrides the matrix-level policy for this call; both fall
        back to the process-wide default (:mod:`repro.rram.kernels`).
        """
        return run_gemv(
            self,
            checked_gemv_inputs(input_codes, input_bits, self),
            input_bits,
            stats=stats,
            policy=policy if policy is not None else self.policy,
        )


def checked_gemv_inputs(
    input_codes: np.ndarray, input_bits: int, matrix, operand: str = "weights"
) -> np.ndarray:
    """``input_codes`` as 2-D int64, checked against ``matrix``'s inputs.

    Raises ``ValueError`` when the column count is not
    ``matrix.in_features`` (the message names the ``operand``) or a code
    falls outside the signed ``input_bits`` range.
    """
    input_codes = np.atleast_2d(np.asarray(input_codes, dtype=np.int64))
    if input_codes.shape[1] != matrix.in_features:
        raise ValueError(
            f"shape mismatch: inputs {input_codes.shape}, "
            f"{operand} ({matrix.out_features}, {matrix.in_features})"
        )
    offset_inputs = input_codes + 2 ** (input_bits - 1)
    if offset_inputs.min() < 0 or offset_inputs.max() >= 2**input_bits:
        raise ValueError(f"input codes exceed the signed {input_bits}-bit range")
    return input_codes


def bit_serial_gemv(
    input_codes: np.ndarray,
    weight_codes: np.ndarray,
    cell: CellType,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
    config: CrossbarConfig | None = None,
    input_bits: int = 8,
    weight_bits: int = 8,
    adc: SarAdc | None = None,
    stats: GemvStats | None = None,
    policy: KernelPolicy | None = None,
    backend: CrossbarBackend | None = None,
) -> np.ndarray:
    """One-shot program + GEMV convenience wrapper around ProgrammedMatrix."""
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    if weight_codes.ndim != 2:
        raise ValueError(f"expected 2-D weights, got shape {weight_codes.shape}")
    matrix = ProgrammedMatrix(
        weight_codes,
        cell,
        noise_sigma=noise_sigma,
        rng=rng,
        config=config,
        weight_bits=weight_bits,
        adc=adc,
        policy=policy,
        backend=backend,
    )
    return matrix.gemv(input_codes, input_bits=input_bits, stats=stats)
