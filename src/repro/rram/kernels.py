"""The analog crossbar GEMV hot path: one spec kernel, one optimized kernel.

Every accuracy and energy figure in the paper funnels through the bit-serial
analog GEMV of Figs. 3/6/7.  This module holds two implementations of that
pipeline plus the :class:`KernelPolicy` that selects between them:

``reference``
    The executable spec: one float ``einsum`` per row tile producing the
    full ``(batch, input_bits, out, n_slices)`` analog-sum intermediate, an
    allocating ADC conversion, and per-element statistics reductions.  The
    optimized kernel is tested against it bitwise, outputs and every
    :class:`~repro.rram.crossbar.GemvStats` field.

``fast`` (:func:`fast_gemv`)
    The optimized formulation, used for single rows, whole decode batches
    and stacks of matrices alike (a single matrix is a one-member stack):

    * the programmed cells are read as one float32 ``(in, out*n_s)`` block
      (:meth:`~repro.rram.crossbar.ProgrammedMatrix.float_planes`, a view
      of the backend's cells; banked dynamic operands live in their
      :class:`~repro.rram.dynamic.PlaneBank`'s float32 cells), whose row
      slices are the row tiles at their exact width — no widening copy,
      no padding;
    * inputs are packed into float32 0/1 bit planes (the layout of
      :func:`repro.quant.quantizer.int_to_bit_planes`), all-zero planes are
      dropped (the zero-plane skip), and every kept plane of every batch row
      of every member hits a row tile in **one** batched float32 BLAS
      matmul ``(n, kept_bits*batch, tile_rows) @ (n, tile_rows, out*n_s)``;
    * members of a stack share cell type, geometry and ADC and are
      zero-padded, exactly, to the widest member; stats stay per member
      (:func:`run_gemv_stack` dispatches a stack; analog attention runs
      every ``(row, head)`` KV tile of a step as one, over a plane bank's
      valid window, and a lone dynamic operand is a one-member window —
      every kind of stack shares one :class:`StackLayout`);
    * a member may also hold several matrices that read its input side
      by side along the outputs (a :class:`GemvStack` column axis, e.g.
      every A-factor of a block's Q/K/V shards, SLC beside MLC): each
      column converts at its own matrix's ADC full scale and the stats
      stay per matrix;
    * the SAR ADC round/clip runs in place on each tile's float32 sums;
      the codes are summed over tiles and shift-and-added once, in float32
      while every value stays below ``2**24`` (float64 beyond), and the
      slice recombination, whose values reach ``2**27``, runs in float64;
    * only ADC work that can change a code runs.  A row tile whose
      effective cells are all non-negative and whose rounded column sums
      stay below the full-scale code (:func:`clip_free_mask`; a static
      matrix caches its :func:`clip_free_flags` next to its float32
      cells) is **clip-free**: no 0/1 input can
      push a bitline past that column sum, so its conversion is the round
      alone, with no clip and no saturation count (in a stack, per
      matrix's columns).  A **narrow** tile,
      ``w`` wordlines wide with fewer than half as many input patterns as
      bit-rows (``2 * 2**w < kept_bits*batch``), converts its ``2**w``
      possible input patterns once, and its shift-and-add becomes
      one ``(batch, 2**w) @ (2**w, out*n_s)`` matmul whose weights sum
      each bit-row's shift weight onto its pattern; saturations are
      counted per pattern and weighted by how often it occurs.  Noisy
      dynamic operands, read about once per append, derive no flags and
      keep the clip;
    * :class:`~repro.rram.crossbar.GemvStats` counts are computed in closed
      form (conversion, cycle and tile counts from the shapes, wordline
      activations from input popcounts); only saturations are counted;
    * when the matrix is **noiseless** and every row tile is clip-free, the
      whole pipeline provably reduces to the exact integer GEMV
      ``x @ W.T`` (see the :mod:`repro.rram.crossbar` docstring) and is
      short-circuited to one dense matmul while still reporting identical
      statistics;
    * one plan, :meth:`StackLayout.plan`, decides all of this for every
      kind of stack from its float32 cells, their noiselessness and a
      per-(constituent, row tile) clip-free mask: the exact shortcut's
      ``W.T`` (the cells' slices recombined, less the weight offsets),
      each tile's clip ranges and saturation counts, and the
      :func:`check_exact_sums` call.

Both kernels compute every bitline sum the ADC can resolve exactly, so
their codes — and their integer outputs — agree bitwise; the equivalence
grids in ``tests/rram/test_kernels.py`` enforce this for every cell type,
noise level, batch size and tile-spanning shape.  The reference sums in
float64; the fast kernel in float32, exact by the *grid argument*:

* every stored cell is a multiple of ``2**-16`` level units
  (:func:`~repro.rram.backend.on_cell_grid`), so float32 sums cells
  exactly, in any order, while every partial sum stays below
  :data:`~repro.rram.backend.EXACT_SUM_LIMIT` (``2**24`` grid units,
  that is ``2**8``);
* the SAR ADC resolves at most 7 bits (``SarAdc.max_bits``, Fig. 8).  With
  non-negative cells partial sums only grow: a sum that ends below
  ``2**8`` is exact, and one that ends above it stays above in float32 and
  clips to full scale on either kernel (its tile is never clip-free);
* a tile holding a negative cell must keep ``Σ|c| < 2**8`` on every
  column, and so must every tile read by an ADC whose full scale reaches
  ``2**8`` (:func:`check_exact_sums`, run by :meth:`StackLayout.plan`).

``gemm`` is a legacy alias of ``fast``: policies naming it stay valid and
run :func:`fast_gemv`.

A bit-serial fast-kernel call packs its activation bit-planes once and
counts them in ``GemvStats.planes_packed``; a served decode step reads
each activation block in one stacked call, so no block is packed twice.

The active policy is process-wide: :func:`set_default_kernel_policy` or
the :func:`kernel_policy` context manager sets it, and every GEMV surface
(``ProgrammedMatrix``, ``MappedMatrix``, ``DynamicOperand``, ``PlaneBank``,
``HybridLinear``) reads it when it runs.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.rram.backend import EXACT_SUM_LIMIT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from collections.abc import Sequence

    from repro.rram.crossbar import GemvStats, ProgrammedMatrix

__all__ = [
    "GemvStack",
    "KernelPolicy",
    "StackLayout",
    "get_default_kernel_policy",
    "set_default_kernel_policy",
    "kernel_policy",
    "check_exact_sums",
    "clip_free_flags",
    "clip_free_mask",
    "reference_gemv",
    "fast_gemv",
    "run_gemv_stack",
]

_MODES = ("fast", "reference", "gemm")


@dataclass(frozen=True)
class KernelPolicy:
    """Which GEMV kernel to run.

    ``mode`` selects the implementation: ``"reference"`` is the executable
    spec (:func:`reference_gemv`), ``"fast"`` (the default) the optimized
    kernel (:func:`fast_gemv`), bitwise-equal to it; ``"gemm"`` is a legacy
    alias that runs the same optimized kernel.  Noisy cells are always
    float32 multiples of ``2**-16`` level units, summed exactly by both
    kernels (the module docstring's grid argument).

    Install one process-wide with :func:`set_default_kernel_policy` or
    :func:`kernel_policy`.
    """

    mode: str = "fast"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


_default_policy = KernelPolicy()


def get_default_kernel_policy() -> KernelPolicy:
    """The process-wide policy every GEMV runs under."""
    return _default_policy


def set_default_kernel_policy(policy: KernelPolicy) -> KernelPolicy:
    """Install ``policy`` process-wide; returns the previous default."""
    global _default_policy
    if not isinstance(policy, KernelPolicy):
        raise TypeError(f"expected KernelPolicy, got {type(policy).__name__}")
    previous = _default_policy
    _default_policy = policy
    return previous


class kernel_policy:
    """Context manager scoping a default-policy override.

    >>> with kernel_policy(KernelPolicy(mode="reference")):
    ...     matrix.gemv(x)  # runs the reference kernel
    """

    def __init__(self, policy: KernelPolicy) -> None:
        self._policy = policy

    def __enter__(self) -> KernelPolicy:
        self._previous = set_default_kernel_policy(self._policy)
        return self._policy

    def __exit__(self, exc_type, exc, tb) -> None:
        set_default_kernel_policy(self._previous)


# ----------------------------------------------------------------------
# Bit-plane packing
# ----------------------------------------------------------------------
#: ``(lhs, union, used, set_bits)`` of a packed stack (:func:`_pack`).
_Packed = tuple[np.ndarray, int, tuple[int, ...], tuple[int, ...]]


def _pack(input_codes: np.ndarray, input_bits: int, stats: "GemvStats | None") -> _Packed:
    """The bit-planes of an ``(n, batch, in)`` stack, as the fast kernel's operand.

    ``lhs`` is float32 ``(n, kept*batch, in)``: row ``k*batch + b`` is bit
    ``kept[k]`` of input row ``b``, ``kept`` being the planes set in
    ``union`` (:func:`_kept_bit_weights`).  Per member, bit ``k`` of
    ``used`` is clear iff plane ``k`` is all-zero (the zero-plane skip's
    oracle) and ``set_bits`` counts set input bits (the wordline
    activations).  ``stats.planes_packed`` counts the ``input_bits`` planes.
    """
    if stats is not None:
        stats.planes_packed += input_bits
    n, _, width = input_codes.shape
    # Masked codes lie in [0, 2**input_bits) by construction, so the
    # range checks of int_to_bit_planes would never fire.
    masked = input_codes & (2**input_bits - 1)
    used = tuple(np.bitwise_or.reduce(masked, axis=(1, 2)).tolist())
    union = functools.reduce(operator.or_, used)
    kept, _ = _kept_bit_weights(input_bits, union)
    set_bits = _popcounts(masked, input_bits)
    if input_bits <= 8:
        planes = np.take(_bit_table(input_bits, union), masked, axis=0)
    else:
        planes = ((masked[..., None] >> kept) & 1).astype(np.float32)
    # (n, batch, in, kept) -> (n, kept, batch, in)
    lhs = np.ascontiguousarray(planes.transpose(0, 3, 1, 2)).reshape(n, -1, width)
    return lhs, union, used, set_bits


@functools.lru_cache(maxsize=None)
def _bit_table(input_bits: int, used: int) -> np.ndarray:
    """``(2**bits, kept)`` float32: entry ``[v, j]`` is bit ``kept[j]`` of ``v``.

    ``kept`` are the planes set in ``used`` (:func:`_kept_bit_weights`).
    """
    kept, _ = _kept_bit_weights(input_bits, used)
    table = ((np.arange(1 << input_bits)[:, None] >> kept) & 1).astype(np.float32)
    table.flags.writeable = False
    return table


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcounts(values: np.ndarray, num_bits: int) -> tuple[int, ...]:
    """Set bits of ``values`` (masked to ``num_bits``), one count per leading index."""
    masked = np.asarray(values, dtype=np.int64) & ((1 << num_bits) - 1)
    total = np.zeros(len(masked), dtype=np.int64)
    for shift in range(0, num_bits, 8):
        byte = masked if num_bits <= 8 else (masked >> shift) & 0xFF
        total += _POPCOUNT_TABLE[byte].reshape(len(masked), -1).sum(axis=1, dtype=np.int64)
    return tuple(total.tolist())


def _fill_analytic_stats(
    stats: "GemvStats", shape: tuple[int, ...], batch: int, input_bits: int, set_bits: int
) -> None:
    """Closed-form operation counts (everything except ADC saturations).

    ``shape`` is a matrix's ``(row tiles, cell columns, slices, array
    tiles, cells)`` (:attr:`GemvStack.shapes`).  ``set_bits`` is the
    number of set input bits across the block: each one activates its
    wordline once per weight slice.
    """
    num_tiles, columns, num_slices, array_tiles, cells = shape
    stats.adc_conversions += num_tiles * batch * input_bits * columns
    stats.wordline_activations += set_bits * num_slices
    stats.input_cycles += num_tiles * input_bits
    stats.array_tiles += array_tiles
    stats.cells_programmed += cells


def clip_free_mask(cells: np.ndarray, rows: int, full_scale: int) -> np.ndarray:
    """Per-row-tile clip-freedom of a stack of cell blocks.

    ``cells`` are effective cells ``(..., in, columns)``; each run of
    ``rows`` wordlines is one row tile.  Returns bool ``(..., tiles)``:
    True when no conversion of that tile can clip.  Inputs reach a tile
    as 0/1 bit-planes, so when every cell is non-negative every reachable
    bitline sum lies between 0 and the full column sum (summed here in
    float64, exactly).  ``rint`` is monotone, so if the rounded column sum
    stays below ``full_scale`` the ADC's round-and-clip reduces to the
    round and no conversion can report saturation.  On integer (noiseless)
    cells the flags are the per-tile form of ``saturation_free``.
    """
    starts = np.arange(0, cells.shape[-2], rows)
    column_sums = np.add.reduceat(cells, starts, axis=-2, dtype=np.float64)
    free = np.rint(column_sums).max(axis=-1) < full_scale
    if cells.min() < 0:  # only then can a tile hold a negative cell
        free &= np.minimum.reduceat(cells, starts, axis=-2).min(axis=-1) >= 0
    return free


def clip_free_flags(cells: np.ndarray, rows: int, full_scale: int) -> tuple[bool, ...]:
    """:func:`clip_free_mask` of one matrix's cells ``(in, ...)``, as a tuple."""
    return tuple(clip_free_mask(cells.reshape(cells.shape[0], -1), rows, full_scale).tolist())


def check_exact_sums(cells: np.ndarray, rows: int, full_scale: int) -> None:
    """Raise unless every bitline of ``cells`` converts the same in float32.

    ``cells`` are grid cells ``(..., in, columns)``, each run of ``rows``
    wordlines one row tile, read by ADCs of at most ``full_scale``.  A
    tile of non-negative cells passes while ``full_scale`` is below
    :data:`~repro.rram.backend.EXACT_SUM_LIMIT`: its partial sums only
    grow, so a sum that ends below the limit is exact and one that ends
    past it clips to full scale on both kernels.  Any other tile passes
    when ``Σ|c|`` over each of its columns stays below the limit, which
    bounds every partial sum.
    """
    nonnegative = cells.size == 0 or cells.min() >= 0
    if nonnegative and full_scale < EXACT_SUM_LIMIT:
        return
    starts = np.arange(0, cells.shape[-2], rows)
    magnitude = np.add.reduceat(np.abs(cells), starts, axis=-2, dtype=np.float64).max(axis=-1)
    over = magnitude >= EXACT_SUM_LIMIT
    if full_scale < EXACT_SUM_LIMIT:
        over &= np.minimum.reduceat(cells, starts, axis=-2).min(axis=-1) < 0
    if over.any():
        raise ValueError(
            f"a row tile sums |cells| to {magnitude[over].max():.6g}, past float32's exact "
            f"{EXACT_SUM_LIMIT:g}, and holds a negative cell or reads an ADC of full scale {full_scale}"
        )


# ----------------------------------------------------------------------
# Reference kernel — the faithful einsum pipeline
# ----------------------------------------------------------------------
def reference_gemv(
    matrix: "ProgrammedMatrix",
    input_codes: np.ndarray,
    input_bits: int,
    stats: "GemvStats | None" = None,
) -> np.ndarray:
    """Bit-serial GEMV, faithful formulation (Figs. 3/6/7, one einsum per tile).

    ``input_codes`` must already be validated 2-D signed codes; this is the
    semantic ground truth the fast kernel is checked against.
    """
    from repro.rram.crossbar import input_bit_weights
    from repro.quant.quantizer import int_to_bits

    planes = matrix.planes
    raw_bits = int_to_bits(input_codes & (2**input_bits - 1), input_bits)
    bit_w = input_bit_weights(input_bits)
    slice_f = matrix.slices.slice_factors

    batch, in_features = input_codes.shape
    accumulator = np.zeros((batch, matrix.out_features), dtype=np.int64)
    num_tiles = -(-in_features // matrix.config.rows)
    for tile_index in range(num_tiles):
        row_start = tile_index * matrix.config.rows
        row_stop = min(row_start + matrix.config.rows, in_features)
        tile_cells = planes[row_start:row_stop]  # (rows_t, out, n_s)
        tile_bits = raw_bits[:, row_start:row_stop, :]  # (batch, rows_t, in_bits)
        # Analog bitline sums for every input bit-plane at once:
        # (batch, input_bits, out, n_s)
        sums = np.einsum("brk,ros->bkos", tile_bits.astype(np.float64), tile_cells)
        codes = matrix.adc.convert(sums)
        if stats is not None:
            stats.adc_conversions += codes.size
            stats.saturated_conversions += int((codes == matrix.adc.full_scale).sum())
            stats.wordline_activations += int(tile_bits.sum()) * matrix.slices.num_slices
            stats.input_cycles += input_bits
        # Digital shift & add over input-bit planes and weight slices.
        accumulator += np.einsum("bkos,k,s->bo", codes, bit_w, slice_f)

    if stats is not None:
        col_tiles = -(-matrix.out_features * matrix.slices.num_slices // matrix.config.cols)
        stats.array_tiles += num_tiles * col_tiles
        stats.cells_programmed += matrix.slices.values.size

    # Remove the weight offset: x @ (W + 128).T = x @ W.T + 128 * sum(x).
    row_sums = input_codes.sum(axis=1, keepdims=True)
    return accumulator - matrix.slices.offset * row_sums


# ----------------------------------------------------------------------
# Fast kernel — exact-width cached tiles, one BLAS matmul per row tile
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _kept_bit_weights(input_bits: int, used: int, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Non-zero bit-plane indices of a block and their shift-and-add weights."""
    from repro.rram.crossbar import input_bit_weights

    kept = np.flatnonzero([(used >> k) & 1 for k in range(input_bits)])
    weights = input_bit_weights(input_bits).astype(dtype)[kept]
    kept.flags.writeable = False
    weights.flags.writeable = False
    return kept, weights


@functools.lru_cache(maxsize=None)
def _slice_place_values(cell_bits: int, num_slices: int) -> np.ndarray:
    """float64 ``WeightSlices.slice_factors`` for one cell geometry."""
    factors = 2.0 ** (cell_bits * np.arange(num_slices))
    factors.flags.writeable = False
    return factors


@functools.lru_cache(maxsize=None)
def _wordline_patterns(width: int) -> tuple[np.ndarray, np.ndarray]:
    """All ``2**width`` 0/1 wordline patterns of a tile and their indices.

    Row ``p`` of the ``(2**width, width)`` float32 table sets wordline ``j``
    iff bit ``j`` of ``p`` is set; a bit-row's pattern index is its
    product with the returned place values ``2**j``.
    """
    index = np.arange(1 << width)
    patterns = ((index[:, None] >> np.arange(width)) & 1).astype(np.float32)
    place = (2.0 ** np.arange(width)).astype(np.float32)
    patterns.flags.writeable = False
    place.flags.writeable = False
    return patterns, place


@functools.lru_cache(maxsize=1024)
def _table_layout(
    input_bits: int, used: int, n: int, batch: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bincount slots and weights of a narrow tile's pattern weighting.

    Bit-row ``k*batch + b`` of member ``i`` adds the shift-and-add weight
    of kept plane ``k`` to slot ``(i*batch + b) * 2**width`` plus its
    pattern index.
    """
    _, bit_w = _kept_bit_weights(input_bits, used)
    rows = np.arange(n * batch).reshape(n, 1, batch) << width
    slots = np.broadcast_to(rows, (n, len(bit_w), batch)).reshape(n, -1)
    weights = np.tile(np.repeat(bit_w, batch), n)
    slots.flags.writeable = False
    weights.flags.writeable = False
    return slots, weights


def _stacked(members: list[list[np.ndarray]], shape: tuple[int, int]) -> np.ndarray:
    """``(n,) + shape`` stack: each member's blocks side by side, zero-padded to ``shape``.

    A lone block that already has ``shape`` is returned as a view.  The
    stack takes the first block's dtype.
    """
    first = members[0][0]
    if len(members) == 1 and len(members[0]) == 1 and first.shape == shape:
        return first[None]
    stack = np.zeros((len(members),) + shape, dtype=first.dtype)
    for out, blocks in zip(stack, members):
        start = 0
        for block in blocks:
            out[: block.shape[0], start : start + block.shape[1]] = block
            start += block.shape[1]
    return stack


def _recombine(values: np.ndarray, segments: list[tuple]) -> np.ndarray:
    """float64 ``(n, rows, out)`` of ``(n, rows, columns)`` slices and their place values."""
    n, rows = values.shape[:2]
    if len(segments) == 1:
        num_slices, place = segments[0][2:]
        return (values.reshape(-1, num_slices) @ place).reshape(n, rows, -1)
    return np.concatenate(
        [
            values[:, :, first:last].reshape(n, rows, -1, num_slices) @ place
            for first, last, num_slices, place in segments
        ],
        axis=2,
    )


class StackLayout:
    """Where each constituent of a stacked GEMV sits: what :func:`fast_gemv` reads.

    One formulation of the layout for every kind of stack, derived from
    per-constituent sizes and per-slot cell geometry.  Constituents are
    listed member by member, ``per_member`` to a member; constituent ``k``
    fills slot ``k % per_member``.  A slot is a run of output columns
    every member shares: its constituents share ``(num_slices,
    cell_bits, full_scale)`` and it is as wide as its widest constituent.
    Narrower constituents are zero-padded, which only lone-constituent
    members may be.  Output ``o`` of slot ``j`` is column ``o`` plus the
    widths of slots ``0..j-1``.

    :meth:`plan` turns the cells into what a read computes, the same way
    for every kind of stack.  A subclass supplies only those cells, whether
    they are noiseless and which of their row tiles are clip-free
    (:meth:`_plan_inputs`).
    """

    def __init__(
        self,
        per_member: int,
        ins,
        outs,
        offsets,
        geometry: list[tuple[int, int, int]],
        rows: int,
        cols,
    ) -> None:
        """Lay out constituents of ``ins`` x ``outs`` weights.

        ``ins``, ``outs``, ``offsets`` (weight offsets) and ``cols`` (array
        widths) hold one int per constituent; ``geometry`` holds each
        slot's ``(num_slices, cell_bits, full_scale)`` and ``rows`` is the
        shared row-tile height.
        """
        per = self.per_member = per_member
        self.constituents = len(ins)
        self.rows = rows
        self.widths = [max(outs[j::per]) for j in range(per)]
        padded = any(out != self.widths[k % per] for k, out in enumerate(outs))
        if padded and per > 1:
            raise ValueError("constituents of multi-matrix members must match in width")
        self.in_width = max(ins)
        self.out_width = sum(self.widths)
        self.tiles = [-(-height // rows) for height in ins]
        #: Per constituent: row tiles, cell columns, slices, array tiles
        #: and cells, the inputs of its closed-form GemvStats.
        self.shapes = []
        for k, (tiles, height, out, width) in enumerate(zip(self.tiles, ins, outs, cols)):
            num_slices = geometry[k % per][0]
            columns = out * num_slices
            self.shapes.append((tiles, columns, num_slices, tiles * -(-columns // width), height * columns))
        spans = [width * slot[0] for width, slot in zip(self.widths, geometry)]
        bounds = list(itertools.accumulate(spans, initial=0))
        self.columns = bounds[-1]
        #: Per slot: its cell columns and its ADC full scale.
        self.slots = [(bounds[j], bounds[j + 1], geometry[j][2]) for j in range(per)]
        #: The largest ADC full scale of any slot.
        self.full_scale = max(slot[2] for slot in self.slots)
        # Slice recombination runs once per run of slots with one slice
        # geometry: (first column, last column, num_slices, place values).
        runs: list[list[int]] = []
        for j, (num_slices, cell_bits, _) in enumerate(geometry):
            if runs and runs[-1][2:] == [num_slices, cell_bits]:
                runs[-1][1] = bounds[j + 1]
            else:
                runs.append([bounds[j], bounds[j + 1], num_slices, cell_bits])
        self.segments = [
            (first, last, num_slices, _slice_place_values(cell_bits, num_slices))
            for first, last, num_slices, cell_bits in runs
        ]
        if not padded and len(set(offsets)) == 1:
            self.offsets: int | np.ndarray = offsets[0]
        else:
            # Padded columns summed only zero cells; keep them at 0.
            column = np.arange(self.out_width)
            sizes = np.reshape(outs, (-1, per))
            shifts = np.reshape(offsets, (-1, per))
            table = np.zeros(sizes.shape[:1] + column.shape, dtype=np.int64)
            for j, start in enumerate(itertools.accumulate(self.widths[:-1], initial=0)):
                inside = (column >= start) & (column < start + sizes[:, j : j + 1])
                table += np.where(inside, shifts[:, j : j + 1], 0)
            self.offsets = table[:, None, :]

    def _plan_inputs(self) -> tuple[np.ndarray, bool, np.ndarray]:
        """``(cells, noiseless, clip_free)``, what :meth:`plan` is derived from.

        The stacked float32 cells ``(n, in, columns)``, whether they are the
        exact integer levels, and bool ``(constituents, max(tiles))``: True
        where a constituent's own row tile cannot clip.
        """
        raise NotImplementedError

    def plan(self) -> tuple:
        """``(exact, clips, counts, clip_free_counts, operand)`` of the current cells.

        ``exact``: every tile of every constituent is clip-free and every
        cell noiseless, so the dense shortcut applies and ``operand`` is
        the stacked float64 ``W.T`` ``(n, in, out)``, the cells' slices
        recombined less the weight offsets; otherwise ``operand`` is the
        stacked float32 cells ``(n, in, columns)``, whose row slices are
        the tiles, checked by :func:`check_exact_sums`.  Per row tile,
        ``clips`` lists merged ``(first, last, full_scale)`` column ranges
        of slots some constituent cannot prove clip-free, and ``counts``
        lists ``(constituent, member, first, last, full_scale)`` for each
        such constituent, whose saturations are counted over its own
        columns.  A clip-free column never reaches full scale, so clipping
        it is a no-op and its count is provably 0.  ``clip_free_counts``
        holds each constituent's number of clip-free tiles.
        """
        cells, noiseless, clip_free = self._plan_inputs()
        tiles = max(self.tiles)
        own = np.arange(tiles) < np.asarray(self.tiles)[:, None]  # (constituents, tiles)
        free = own & clip_free
        unproven = own & ~free
        clip_free_counts = tuple(free.sum(axis=1).tolist())
        if noiseless and not unproven.any():
            # Padded outputs recombine zero cells less a zero offset; padded
            # inputs read zero codes, so their rows add nothing.
            operand = _recombine(cells, self.segments) - self.offsets
            empty = ((),) * tiles
            return True, empty, empty, clip_free_counts, operand
        check_exact_sums(cells, self.rows, self.full_scale)
        per = self.per_member
        slots = unproven.reshape(-1, per, tiles).any(axis=0)  # (per, tiles)
        clips = []
        for column in slots.T:
            ranges: list[tuple[int, int, int]] = []
            for j in np.flatnonzero(column).tolist():
                first, last, full_scale = self.slots[j]
                if ranges and ranges[-1][1:] == (first, full_scale):
                    ranges[-1] = (ranges[-1][0], last, full_scale)
                else:
                    ranges.append(self.slots[j])
            clips.append(tuple(ranges))
        counts = tuple(
            tuple((k, k // per) + self.slots[k % per] for k in np.flatnonzero(column).tolist())
            for column in unproven.T
        )
        return False, tuple(clips), counts, clip_free_counts, cells


class GemvStack(StackLayout):
    """Programmed matrices arranged for one :func:`fast_gemv` call.

    ``members`` stack along a leading axis, and each reads its own input.
    A member is a sequence of constituent matrices that read the member's
    input side by side along the outputs (the column axis).  On the
    hardware, every array a wordline input is broadcast to converts in the
    same analog wave: a block's Q/K/V A-factors, their tensor-parallel
    shards and their SLC and MLC arrays.  Constituents of one member share
    ``in_features``.  Constituent ``j`` of every member shares cell
    geometry and ADC, and all share the row-tile height.  Lone-matrix
    members may differ in shape and are zero-padded to the widest;
    constituents of multi-matrix members must also match in width.  Output
    ``o`` of constituent ``j`` is column ``o`` plus the widths of
    constituents ``0..j-1``.

    The layout (:class:`StackLayout`) is derived once.  The plan reads each
    matrix's float32 cells and clip-free flags, both cached per backend
    epoch (:meth:`~repro.rram.crossbar.ProgrammedMatrix.float_planes`,
    :meth:`~repro.rram.crossbar.ProgrammedMatrix.clip_free_tiles`), and
    :meth:`plan` is cached against every constituent's backend epoch, so an
    ``advance()`` or ``reprogram()`` that reaches any constituent rebuilds
    it.
    """

    def __init__(self, members) -> None:
        self.members = tuple(tuple(member) for member in members)
        if not self.members or not all(self.members):
            raise ValueError("a GemvStack needs at least one non-empty member")
        per = len(self.members[0])
        self.matrices = tuple(c for member in self.members for c in member)
        rows = self.matrices[0].config.rows

        def geometry(k: int) -> tuple[int, int, int]:
            c = self.matrices[k]
            return (c.slices.num_slices, c.slices.cell.bits, c.adc.full_scale)

        if any(len(member) != per for member in self.members) or any(
            geometry(k) != geometry(k % per)
            or c.config.rows != rows
            or c.in_features != self.members[k // per][0].in_features
            for k, c in enumerate(self.matrices)
        ):
            raise ValueError(
                "stack members must line up constituent by constituent, and a "
                "member's constituents must share in_features"
            )
        super().__init__(
            per,
            [c.in_features for c in self.matrices],
            [c.out_features for c in self.matrices],
            [c.slices.offset for c in self.matrices],
            [geometry(j) for j in range(per)],
            rows,
            [c.config.cols for c in self.matrices],
        )
        self._cache_key: tuple[int, ...] | None = None
        self._plan: tuple = ()

    def _plan_inputs(self) -> tuple[np.ndarray, bool, np.ndarray]:
        clip_free = np.zeros((self.constituents, max(self.tiles)), dtype=bool)
        for k, c in enumerate(self.matrices):
            flags = c.clip_free_tiles()
            clip_free[k, : len(flags)] = flags
        noiseless = all([c.is_noiseless for c in self.matrices])
        blocks = [[c.float_planes() for c in member] for member in self.members]
        return _stacked(blocks, (self.in_width, self.columns)), noiseless, clip_free

    def plan(self) -> tuple:
        """As :meth:`StackLayout.plan`, cached until any constituent's backend epoch moves."""
        key = tuple([m.backend.epoch for m in self.matrices])
        if key != self._cache_key:
            self._plan = super().plan()
            self._cache_key = key
        return self._plan


def fast_gemv(
    stack: StackLayout,
    input_codes: np.ndarray,
    input_bits: int,
    stats: "Sequence[GemvStats | None] | None" = None,
) -> np.ndarray:
    """Optimized bit-serial GEMV over a stack.

    ``stack`` is a :class:`StackLayout`: a :class:`GemvStack`, or a
    plane bank's window.  ``input_codes`` is ``(n, batch, in)`` with ``in``
    the widest member's ``in_features`` and zeros past each member's own.
    Returns ``(n, batch, out)`` int64, each constituent's outputs in its
    columns, zeros past its own.  ``stats`` holds one (possibly shared,
    possibly ``None``) sink per constituent, member by member.  A single
    matrix is a one-member stack.

    Constituent ``c`` of member ``i`` is bitwise-equal to
    :func:`reference_gemv` on that matrix alone, outputs and
    :class:`~repro.rram.crossbar.GemvStats`.  Each row tile of the
    stacked float32 cells meets every kept bit-plane of every row of every
    member in one batched float32 matmul ``(n, kept*batch, w) @ (n, w,
    columns)``.
    Stacking changes no bitline sum: side-by-side constituents only add
    columns, and zero padding adds exactly 0 (an all-zero sum converts to
    code 0, never full scale; a bit-plane kept for another member but
    all-zero in this one contributes only such sums).  Each column is
    clipped at its own constituent's ADC full scale.  Every bitline sum
    the ADC can resolve is exact in float32 in any order, and a larger
    one clips to full scale on both kernels (the module docstring's grid
    argument); every later value is an exact integer.  So stacking and
    batching change no bit.
    :class:`GemvStats` stay per constituent and analytic, from its own
    shape, used bit-planes and set bits; saturations are counted over its
    own columns.

    Only ADC work that can change a code runs: a constituent's columns on
    a tile its cells prove clip-free (:func:`clip_free_flags`) are only
    rounded, and a tile ``w`` wordlines wide with fewer than half as many
    input patterns (``2**w``) as bit-rows (``kept_bits*batch``) converts
    each pattern once.
    """
    n, batch, in_width = input_codes.shape
    per = stack.per_member
    sinks = stats or (None,) * stack.constituents
    exact, clips, counts, clip_free_counts, operand = stack.plan()

    if exact:
        # Exact short-circuit: with noiseless integer cells and no bitline
        # able to reach the ADC full-scale code, every conversion returns
        # its analog sum unchanged and the shift-and-add telescopes to the
        # plain integer GEMV (the crossbar module docstring's exactness
        # argument).  Saturated-conversion count is provably zero.
        set_bits = _popcounts(input_codes, input_bits)
        for k, sink in enumerate(sinks):
            if sink is not None:
                _fill_analytic_stats(sink, stack.shapes[k], batch, input_bits, set_bits[k // per])
        product = input_codes.astype(np.float64) @ operand  # exact integers
        return np.rint(product).astype(np.int64)

    lhs, union, used, set_bits = _pack(input_codes, input_bits, sinks[0])
    kept, _ = _kept_bit_weights(input_bits, union)
    bit_rows = len(kept) * batch
    starts = range(0, in_width, stack.rows)
    # Few wordlines, many bit-rows: a tile ``w`` wordlines wide converts
    # each of its 2**w input patterns once.  Nearer parity the
    # (batch, 2**w) @ (2**w, columns) weighting matmul costs more than the
    # conversions it saves.
    tables = [(2 << min(stack.rows, in_width - start)) < bit_rows for start in starts]
    for k, sink in enumerate(sinks):
        if sink is not None:
            i = k // per
            _fill_analytic_stats(sink, stack.shapes[k], batch, input_bits, set_bits[i])
            sink.fused_rows += batch
            # An all-zero activation bit-plane sums to 0 on every bitline,
            # which the ADC converts to code 0: no contribution, never
            # saturated.  Each member skips the planes it leaves unused.
            sink.zero_planes_skipped += (input_bits - used[i].bit_count()) * stack.tiles[k]
            if kept.size:
                sink.table_tiles += sum(tables[: stack.tiles[k]])
                sink.clip_free_tiles += clip_free_counts[k]
    if not kept.size:
        # Every activation code is 0, and so is the offset correction.
        return np.zeros((n, batch, stack.out_width), dtype=np.int64)

    # Codes are integers in [0, full scale], so every value of the digital
    # shift-and-add is an integer of magnitude at most
    # tiles * full_scale * (2**input_bits - 1): exact in float32 below 2**24.
    wide = len(tables) * stack.full_scale * ((1 << input_bits) - 1) >= 2**24
    digital = np.float64 if wide else np.float32
    codes = None  # summed codes of the tiles converted bit-row by bit-row
    acc = None  # shift-and-added codes of the tiles converted per pattern
    for tile_index, (row_start, table) in enumerate(zip(starts, tables)):
        row_stop = min(row_start + stack.rows, in_width)
        tile_lhs = lhs[:, :, row_start:row_stop]
        tile_cells = operand[:, row_start:row_stop]  # (n, w, columns)
        if table:
            patterns, place = _wordline_patterns(row_stop - row_start)
            sums = patterns @ tile_cells  # (n, 2**w, columns)
            index = (tile_lhs @ place).astype(np.intp)  # (n, bit_rows)
        else:
            sums = tile_lhs @ tile_cells  # (n, bit_rows, columns)
        # The ADC's round (float32, exact on grid sums); its clip only where
        # a constituent's cells cannot rule it out, at its full scale.
        np.rint(sums, out=sums)
        for first, last, full_scale in clips[tile_index]:
            view = sums[:, :, first:last]
            np.clip(view, 0, full_scale, out=view)
        occurrences: dict[int, np.ndarray] = {}
        for k, i, first, last, full_scale in counts[tile_index]:
            if sinks[k] is None:
                continue
            saturated = sums[i, :, first:last] == full_scale
            if table:
                if i not in occurrences:
                    occurrences[i] = np.bincount(index[i], minlength=len(patterns))
                count = occurrences[i] @ np.count_nonzero(saturated, axis=1)
            else:
                count = np.count_nonzero(saturated)
            sinks[k].saturated_conversions += int(count)
        if table:
            # (n, batch, 2**w) weights: member i, row b, column p sums
            # bit_w[k] over the kept planes k whose bit-row of input row b
            # has pattern p.
            slots, row_weights = _table_layout(input_bits, union, n, batch, row_stop - row_start)
            weights = np.bincount(
                (slots + index).ravel(), weights=row_weights, minlength=n * batch * len(patterns)
            ).reshape(n, batch, -1)
            weighted = weights.astype(digital) @ sums
            acc = weighted if acc is None else acc + weighted
        # Shift-and-add is linear, so per-tile codes can be summed first.
        elif codes is None:
            codes = sums.astype(digital, copy=False)
        else:
            codes += sums

    # Digital shift-and-add over kept bit-planes, then slice recombination,
    # whose values reach 2**27, in float64: each output sums its slices'
    # codes times their place values.
    if codes is not None:
        _, bit_w = _kept_bit_weights(input_bits, union, digital)
        shifted = (bit_w @ codes.reshape(n, len(kept), -1)).reshape(n, batch, -1)
        acc = shifted if acc is None else acc + shifted
    combined = _recombine(acc.astype(np.float64, copy=False), stack.segments)
    # Removal of the weight offset: x @ (W + 128).T = x @ W.T + 128 * sum(x).
    return combined.astype(np.int64) - stack.offsets * input_codes.sum(axis=2, keepdims=True)


def run_gemv_stack(
    stack: StackLayout,
    input_codes: np.ndarray,
    input_bits: int,
    stats: "Sequence[GemvStats | None] | None" = None,
) -> np.ndarray:
    """Dispatch one validated stacked GEMV under the process-wide policy.

    Shapes as :func:`fast_gemv`.  ``"reference"`` runs
    :func:`reference_gemv` on each constituent of each member with the
    member's own inputs, the spec the stacked fast kernel is tested
    against; it reads the stack's matrices themselves.
    """
    if _default_policy.mode != "reference":
        return fast_gemv(stack, input_codes, input_bits, stats)
    n, batch, _ = input_codes.shape
    out = np.zeros((n, batch, stack.out_width), dtype=np.int64)
    sinks = stats or (None,) * stack.constituents
    starts = np.cumsum([0] + stack.widths[:-1])
    for k, matrix in enumerate(stack.matrices):
        i, start = k // stack.per_member, starts[k % stack.per_member]
        out[i, :, start : start + matrix.out_features] = reference_gemv(
            matrix, input_codes[i, :, : matrix.in_features], input_bits, sinks[k]
        )
    return out
