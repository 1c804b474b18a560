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

    * the programmed cells are cached once as a float64 ``(in, out*n_s)``
      block (:meth:`~repro.rram.crossbar.ProgrammedMatrix.float_planes`,
      keyed on the backend epoch; dynamic operands key it on their
      ``(epoch, write_epoch, length)`` cache), whose row slices are the
      row tiles at their exact width — no per-call widening, no padding;
    * inputs are packed into uint8 bit planes (the layout of
      :func:`repro.quant.quantizer.int_to_bit_planes`), all-zero planes are
      dropped (the zero-plane skip), and every kept plane of every batch row
      of every member hits a row tile in **one** batched BLAS matmul
      ``(n, kept_bits*batch, tile_rows) @ (n, tile_rows, out*n_s)``;
    * members of a stack share cell type, geometry and ADC and are
      zero-padded, exactly, to the widest member; stats stay per member
      (:func:`run_gemv_stack` dispatches a stack; analog attention runs
      every ``(row, head)`` KV tile of a step as one);
    * a member may also hold several matrices that read its input side
      by side along the outputs (a :class:`GemvStack` column axis, e.g.
      every A-factor of a block's Q/K/V shards, SLC beside MLC): each
      column converts at its own matrix's ADC full scale and the stats
      stay per matrix;
    * the SAR ADC round/clip runs in place on each tile's sums
      (:meth:`~repro.rram.adc.SarAdc.convert_`), and the digital
      shift-and-add and slice recombination are two small matmuls against
      cached place-value vectors;
    * only ADC work that can change a code runs.  A row tile whose
      effective cells are all non-negative and whose rounded column sums
      stay below the full-scale code (:func:`clip_free_flags`, cached per
      matrix next to the float64 cells) is **clip-free**: no 0/1 input can
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
      statistics.

Both kernels accumulate analog bitline sums in float64, where every
intermediate is an exact integer or an exact sum of stored cell values, so
their ADC codes — and therefore their integer outputs — agree bitwise; the
equivalence grids in ``tests/rram/test_kernels.py`` enforce this for every
cell type, noise level, batch size and tile-spanning shape.

``gemm`` is a legacy alias of ``fast``: policies naming it stay valid and
run :func:`fast_gemv`.

A bit-serial fast-kernel call packs its activation bit-planes once and
counts them in ``GemvStats.planes_packed``; a served decode step reads
each activation block in one stacked call, so no block is packed twice.

The active policy is process-wide by default (:func:`set_default_kernel_policy`
or the :func:`kernel_policy` context manager) and can be overridden per
matrix or per call everywhere the GEMV surfaces (``ProgrammedMatrix``,
``MappedMatrix``, ``AnalogPimModule``, ``HybridLinear``, ``HyFlexPim``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np


if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from collections.abc import Sequence

    from repro.rram.crossbar import GemvStats, ProgrammedMatrix

__all__ = [
    "GemvStack",
    "KernelPolicy",
    "get_default_kernel_policy",
    "set_default_kernel_policy",
    "kernel_policy",
    "resolve_policy",
    "clip_free_flags",
    "reference_gemv",
    "fast_gemv",
    "run_gemv",
    "run_gemv_stack",
]

_MODES = ("fast", "reference", "gemm")
_COMPUTE_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class KernelPolicy:
    """Which GEMV kernel to run and how programmed cell planes are stored.

    ``mode`` selects the implementation: ``"reference"`` is the executable
    spec (:func:`reference_gemv`), ``"fast"`` (the default) the optimized
    kernel (:func:`fast_gemv`), bitwise-equal to it; ``"gemm"`` is a legacy
    alias that runs the same optimized kernel.  ``compute_dtype`` is the
    storage dtype of the noisy programmed planes (``"float32"`` halves
    programmed-weight memory versus the historical float64 with no
    observable effect beyond freezing the programming noise at float32
    precision).  Analog bitline sums always accumulate in float64
    regardless of ``compute_dtype``, which is what keeps the two kernels
    bitwise interchangeable.

    The dtype is kept as a string so policies stay JSON/pickle friendly —
    they ride inside :class:`~repro.core.hyflexpim.HyFlexPim` instances that
    cross process boundaries during parallel sweeps.
    """

    mode: str = "fast"
    compute_dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.compute_dtype not in _COMPUTE_DTYPES:
            raise ValueError(
                f"compute_dtype must be one of {_COMPUTE_DTYPES}, got {self.compute_dtype!r}"
            )

    @property
    def storage_dtype(self) -> np.dtype:
        """numpy dtype used to store noisy programmed cell planes."""
        return np.dtype(self.compute_dtype)


_default_policy = KernelPolicy()


def get_default_kernel_policy() -> KernelPolicy:
    """The process-wide policy used when none is passed explicitly."""
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


def resolve_policy(policy: KernelPolicy | None) -> KernelPolicy:
    """``policy`` if given, else the process-wide default."""
    return policy if policy is not None else _default_policy


# ----------------------------------------------------------------------
# Bit-plane packing
# ----------------------------------------------------------------------
#: ``(planes, used, set_bits)``: float64 bit-planes ``(n, bits, batch, in)``,
#: one used-bit mask and one set-bit count per member.
_Packed = tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]


def _pack(input_codes: np.ndarray, input_bits: int, stats: "GemvStats | None") -> _Packed:
    """Plane-major float64 bit-planes of an ``(n, batch, in)`` stack.

    Each member's planes ``(bits, batch, in)`` are the fast kernel's
    matmul operand as is.  One mask per member: bit ``k`` is clear iff
    plane ``k`` is all-zero in that member (the zero-plane skip's oracle);
    and one count of set input bits per member (the wordline activations).
    The ``input_bits`` packed planes are counted in ``stats.planes_packed``.
    """
    if stats is not None:
        stats.planes_packed += input_bits
    masked = input_codes & (2**input_bits - 1)
    # Masked codes lie in [0, 2**input_bits) by construction, so the
    # range checks of int_to_bit_planes would never fire.
    if input_bits <= 8:
        planes = np.take(_bit_table(input_bits), masked, axis=1).swapaxes(0, 1)
    else:
        shifts = np.arange(input_bits).reshape(input_bits, 1, 1)
        planes = ((masked[:, None] >> shifts) & 1).astype(np.float64)
    used = np.bitwise_or.reduce(masked, axis=(1, 2))
    set_bits = planes.sum(axis=(1, 2, 3)).astype(np.int64)
    return planes, tuple(used.tolist()), tuple(set_bits.tolist())


@functools.lru_cache(maxsize=None)
def _bit_table(input_bits: int) -> np.ndarray:
    """``(bits, 2**bits)`` float64: entry ``[k, v]`` is bit ``k`` of ``v``."""
    table = ((np.arange(1 << input_bits) >> np.arange(input_bits)[:, None]) & 1).astype(
        np.float64
    )
    table.flags.writeable = False
    return table


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount_total(values: np.ndarray, num_bits: int) -> int:
    """Total number of set bits across ``values`` (masked to ``num_bits``)."""
    masked = np.asarray(values, dtype=np.int64) & ((1 << num_bits) - 1)
    total = 0
    for shift in range(0, num_bits, 8):
        byte = masked if num_bits <= 8 else (masked >> shift) & 0xFF
        total += int(_POPCOUNT_TABLE[byte].sum(dtype=np.int64))
    return total


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


def clip_free_flags(cells: np.ndarray, rows: int, full_scale: int) -> tuple[bool, ...]:
    """Per-row-tile flags: True when no conversion of that tile can clip.

    ``cells`` are the effective cells, ``(in, ...)``; each run of ``rows``
    wordlines is one row tile.  Inputs reach a tile as 0/1 bit-planes, so
    when every cell is non-negative every reachable bitline sum lies
    between 0 and the full column sum, exactly in float64.  ``rint`` is
    monotone, so if the rounded column sum stays below ``full_scale`` the
    ADC's round-and-clip reduces to the round and no conversion can
    report saturation.  On integer (noiseless) cells the flags are the
    per-tile form of ``saturation_free``.
    """
    flags = []
    for row_start in range(0, cells.shape[0], rows):
        tile = cells[row_start : row_start + rows]
        column_sums = tile.sum(axis=0, dtype=np.float64)
        flags.append(
            bool(tile.min() >= 0 and np.rint(column_sums).max(initial=0) < full_scale)
        )
    return tuple(flags)


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
def _kept_bit_weights(input_bits: int, used: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-zero bit-plane indices of a block and their shift-and-add weights."""
    from repro.rram.crossbar import input_bit_weights

    kept = np.flatnonzero([(used >> k) & 1 for k in range(input_bits)])
    weights = input_bit_weights(input_bits).astype(np.float64)[kept]
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

    Row ``p`` of the ``(2**width, width)`` float64 table sets wordline ``j``
    iff bit ``j`` of ``p`` is set; a bit-row's pattern index is its
    product with the returned place values ``2**j``.
    """
    index = np.arange(1 << width)
    patterns = ((index[:, None] >> np.arange(width)) & 1).astype(np.float64)
    place = 2.0 ** np.arange(width)
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


def _stacked(blocks: list[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """``(n,) + shape`` stack of 2-D blocks, each zero-padded to ``shape``.

    A lone block that already has ``shape`` is returned as a view.
    """
    if len(blocks) == 1 and blocks[0].shape == shape:
        return blocks[0][None]
    stack = np.zeros((len(blocks),) + shape)
    for member, block in zip(stack, blocks):
        member[: block.shape[0], : block.shape[1]] = block
    return stack


class GemvStack:
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

    The layout (widths, slice segments, weight offsets) is derived once.
    The :meth:`plan` (stacked float64 cells or the dense weights of the
    noiseless shortcut, plus the per-tile ADC work) is cached against
    every constituent's backend epoch, so an ``advance()`` or
    ``reprogram()`` that reaches any constituent rebuilds it.  With
    ``cache=False`` it is derived on every call, for views whose cells
    change by other means (dynamic operands).
    """

    def __init__(self, members, cache: bool = True) -> None:
        self.members = tuple(tuple(member) for member in members)
        if not self.members or not all(self.members):
            raise ValueError("a GemvStack needs at least one non-empty member")
        per = self.per_member = len(self.members[0])
        self.matrices = tuple(c for member in self.members for c in member)
        self.slices = [c.slices for c in self.matrices]  # built afresh by dynamic views
        self.rows = self.matrices[0].config.rows

        def geometry(k: int) -> tuple[int, int, int]:
            return (
                self.slices[k].num_slices,
                self.slices[k].cell.bits,
                self.matrices[k].adc.full_scale,
            )

        if any(len(member) != per for member in self.members) or any(
            geometry(k) != geometry(k % per)
            or c.config.rows != self.rows
            or c.in_features != self.members[k // per][0].in_features
            for k, c in enumerate(self.matrices)
        ):
            raise ValueError(
                "stack members must line up constituent by constituent, and a "
                "member's constituents must share in_features"
            )
        self.widths = [max(member[j].out_features for member in self.members) for j in range(per)]
        padded = any(c.out_features != self.widths[k % per] for k, c in enumerate(self.matrices))
        if padded and per > 1:
            raise ValueError("constituents of multi-matrix members must match in width")
        self.in_width = max(member[0].in_features for member in self.members)
        self.out_width = sum(self.widths)
        self.tiles = [-(-c.in_features // self.rows) for c in self.matrices]
        #: Per constituent: row tiles, cell columns, slices, array tiles
        #: and cells, the inputs of its closed-form GemvStats.
        self.shapes = [
            (
                tiles,
                c.out_features * s.num_slices,
                s.num_slices,
                tiles * -(-c.out_features * s.num_slices // c.config.cols),
                s.values.size,
            )
            for c, s, tiles in zip(self.matrices, self.slices, self.tiles)
        ]
        spans = [width * self.slices[j].num_slices for j, width in enumerate(self.widths)]
        bounds = np.cumsum([0] + spans).tolist()
        self.columns = bounds[-1]
        #: Per slot: its cell columns and its ADC full scale.
        self.slots = [
            (bounds[j], bounds[j + 1], self.matrices[j].adc.full_scale) for j in range(per)
        ]
        # Slice recombination runs once per run of slots with one slice
        # geometry: (first column, last column, num_slices, place values).
        runs: list[list[int]] = []
        for j in range(per):
            num_slices, cell_bits, _ = geometry(j)
            if runs and runs[-1][2:] == [num_slices, cell_bits]:
                runs[-1][1] = bounds[j + 1]
            else:
                runs.append([bounds[j], bounds[j + 1], num_slices, cell_bits])
        self.segments = [
            (first, last, num_slices, _slice_place_values(cell_bits, num_slices))
            for first, last, num_slices, cell_bits in runs
        ]
        offsets = {s.offset for s in self.slices}
        if not padded and len(offsets) == 1:
            self.offsets: int | np.ndarray = offsets.pop()
        else:
            # Padded columns summed only zero cells; keep them at 0.
            self.offsets = np.zeros((len(self.members), 1, self.out_width), dtype=np.int64)
            out_starts = np.cumsum([0] + self.widths[:-1])
            for k, c in enumerate(self.matrices):
                start = out_starts[k % per]
                self.offsets[k // per, 0, start : start + c.out_features] = self.slices[k].offset
        self._cache = cache
        self._cache_key: tuple[int, ...] | None = None
        self._plan: tuple = ()

    def plan(self) -> tuple:
        """``(exact, clips, counts, clip_free_counts, operand)`` of the current cells.

        Cached until any constituent's backend epoch moves.  ``exact``:
        every tile of every constituent is clip-free and every cell
        noiseless, so the dense shortcut applies and ``operand`` is the
        stacked ``W.T`` ``(n, in, out)``; otherwise ``operand`` is the
        stacked float64 cells ``(n, in, columns)``, whose row slices are the
        tiles.  Per row tile, ``clips`` lists merged ``(first, last,
        full_scale)`` column ranges of slots some constituent cannot prove
        clip-free (:func:`clip_free_flags`), and ``counts`` lists
        ``(constituent, member, first, last, full_scale)`` for each such
        constituent, whose saturations are counted over its own columns.
        A clip-free column never reaches full scale, so clipping it is a
        no-op and its count is provably 0.  ``clip_free_counts`` holds each
        constituent's number of clip-free tiles.
        """
        if not self._cache:
            return self._build_plan()
        key = tuple([m.backend.epoch for m in self.matrices])
        if key != self._cache_key:
            self._plan = self._build_plan()
            self._cache_key = key
        return self._plan

    def _blocks(self, block) -> list[np.ndarray]:
        """Per member, its constituents' ``block(matrix)`` side by side."""
        return [
            np.concatenate([block(c) for c in member], axis=1) if len(member) > 1 else block(member[0])
            for member in self.members
        ]

    def _build_plan(self) -> tuple:
        flags = [c.clip_free_tiles() for c in self.matrices]
        exact = all(map(all, flags)) and all([c.is_noiseless for c in self.matrices])
        if exact:
            blocks = self._blocks(lambda c: c.dense_weights_t)
            operand = _stacked(blocks, (self.in_width, self.out_width))
        else:
            blocks = self._blocks(lambda c: c.float_planes())
            operand = _stacked(blocks, (self.in_width, self.columns))
        per = self.per_member
        clips, counts = [], []
        for tile in range(max(self.tiles)):
            unproven = [k for k, f in enumerate(flags) if tile < len(f) and not f[tile]]
            ranges: list[list[int]] = []
            for j in sorted({k % per for k in unproven}):
                first, last, full_scale = self.slots[j]
                if ranges and ranges[-1][1:] == [first, full_scale]:
                    ranges[-1][1] = last
                else:
                    ranges.append([first, last, full_scale])
            clips.append(tuple(tuple(r) for r in ranges))
            counts.append(tuple((k, k // per) + self.slots[k % per] for k in unproven))
        return exact, tuple(clips), tuple(counts), tuple(sum(f) for f in flags), operand


def fast_gemv(
    matrices: "GemvStack | Sequence[ProgrammedMatrix]",
    input_codes: np.ndarray,
    input_bits: int,
    stats: "Sequence[GemvStats | None] | None" = None,
) -> np.ndarray:
    """Optimized bit-serial GEMV over a :class:`GemvStack`.

    ``matrices`` is a stack, or a sequence of matrices each forming a
    one-matrix member.  ``input_codes`` is ``(n, batch, in)`` with ``in``
    the widest member's ``in_features`` and zeros past each member's own.
    Returns ``(n, batch, out)`` int64, each constituent's outputs in its
    columns, zeros past its own.  ``stats`` holds one (possibly shared,
    possibly ``None``) sink per constituent, member by member.  A single
    matrix is a one-member stack.

    Constituent ``c`` of member ``i`` is bitwise-equal to
    :func:`reference_gemv` on that matrix alone, outputs and
    :class:`~repro.rram.crossbar.GemvStats`.  Each row tile of the
    stacked float64 cells meets every kept bit-plane of every row of every
    member in one batched matmul ``(n, kept*batch, w) @ (n, w, columns)``.
    Stacking changes no bitline sum: side-by-side constituents only add
    columns, and zero padding adds exactly 0 (an all-zero sum converts to
    code 0, never full scale; a bit-plane kept for another member but
    all-zero in this one contributes only such sums).  Each column is
    clipped at its own constituent's ADC full scale.  With float32 cell
    storage (the default) every analog sum is an exact float64 sum of
    stored cell values and every later intermediate an exact integer
    below 2**53, so stacking and batching change no bit.
    :class:`GemvStats` stay per constituent and analytic, from its own
    shape, used bit-planes and set bits; saturations are counted over its
    own columns.

    Only ADC work that can change a code runs: a constituent's columns on
    a tile its cells prove clip-free (:func:`clip_free_flags`) are only
    rounded, and a tile ``w`` wordlines wide with fewer than half as many
    input patterns (``2**w``) as bit-rows (``kept_bits*batch``) converts
    each pattern once.
    """
    stack = matrices if isinstance(matrices, GemvStack) else _one_per_member(matrices)
    n, batch, in_width = input_codes.shape
    per = stack.per_member
    sinks = stats or (None,) * len(stack.matrices)
    exact, clips, counts, clip_free_counts, operand = stack.plan()

    if exact:
        # Exact short-circuit: with noiseless integer cells and no bitline
        # able to reach the ADC full-scale code, every conversion returns
        # its analog sum unchanged and the shift-and-add telescopes to the
        # plain integer GEMV (the crossbar module docstring's exactness
        # argument).  Saturated-conversion count is provably zero.
        set_bits = [_popcount_total(codes, input_bits) for codes in input_codes]
        for k, sink in enumerate(sinks):
            if sink is not None:
                _fill_analytic_stats(sink, stack.shapes[k], batch, input_bits, set_bits[k // per])
        product = input_codes.astype(np.float64) @ operand  # exact integers
        return np.rint(product).astype(np.int64)

    bit_planes, used, set_bits = _pack(input_codes, input_bits, sinks[0])
    union = functools.reduce(operator.or_, used)
    kept, bit_w = _kept_bit_weights(input_bits, union)
    if len(kept) < input_bits:
        bit_planes = bit_planes[:, kept]
    # (n, kept*batch, in): row k*batch + b is bit kept[k] of input row b.
    # A plane kept for another member is all-zero in this one.
    bit_rows = len(kept) * batch
    lhs = bit_planes.reshape(n, bit_rows, in_width)
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
        # The ADC's round; its clip only where a constituent's cells cannot
        # rule it out, at that constituent's full scale.
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
            weighted = weights @ sums
            acc = weighted if acc is None else acc + weighted
        # Shift-and-add is linear, so per-tile codes can be summed first.
        elif codes is None:
            codes = sums
        else:
            codes += sums

    # Digital shift-and-add over kept bit-planes, then slice recombination:
    # each output sums its slices' codes times their place values.
    if codes is not None:
        shifted = (bit_w @ codes.reshape(n, len(kept), -1)).reshape(n, batch, -1)
        acc = shifted if acc is None else acc + shifted
    if len(stack.segments) == 1:
        num_slices, place = stack.segments[0][2:]
        combined = (acc.reshape(-1, num_slices) @ place).reshape(n, batch, -1)
    else:
        combined = np.concatenate(
            [
                acc[:, :, first:last].reshape(n, batch, -1, num_slices) @ place
                for first, last, num_slices, place in stack.segments
            ],
            axis=2,
        )
    # Removal of the weight offset: x @ (W + 128).T = x @ W.T + 128 * sum(x).
    return combined.astype(np.int64) - stack.offsets * input_codes.sum(axis=2, keepdims=True)


def _one_per_member(matrices: "Sequence[ProgrammedMatrix]") -> GemvStack:
    """An uncached stack with one matrix per member."""
    return GemvStack([(m,) for m in matrices], cache=False)

def run_gemv_stack(
    matrices: "GemvStack | Sequence[ProgrammedMatrix]",
    input_codes: np.ndarray,
    input_bits: int,
    stats: "Sequence[GemvStats | None] | None" = None,
    policy: KernelPolicy | None = None,
) -> np.ndarray:
    """Dispatch one validated stacked GEMV according to ``policy``.

    Shapes as :func:`fast_gemv`.  ``"reference"`` runs
    :func:`reference_gemv` on each constituent of each member with the
    member's own inputs, the spec the stacked fast kernel is tested
    against.
    """
    stack = matrices if isinstance(matrices, GemvStack) else _one_per_member(matrices)
    if resolve_policy(policy).mode != "reference":
        return fast_gemv(stack, input_codes, input_bits, stats)
    n, batch, _ = input_codes.shape
    out = np.zeros((n, batch, stack.out_width), dtype=np.int64)
    sinks = stats or (None,) * len(stack.matrices)
    starts = np.cumsum([0] + stack.widths[:-1])
    for k, matrix in enumerate(stack.matrices):
        i, start = k // stack.per_member, starts[k % stack.per_member]
        out[i, :, start : start + matrix.out_features] = reference_gemv(
            matrix, input_codes[i, :, : matrix.in_features], input_bits, sinks[k]
        )
    return out


def run_gemv(
    matrix: "ProgrammedMatrix",
    input_codes: np.ndarray,
    input_bits: int,
    stats: "GemvStats | None" = None,
    policy: KernelPolicy | None = None,
) -> np.ndarray:
    """Dispatch one validated GEMV: a one-member :func:`run_gemv_stack`."""
    return run_gemv_stack((matrix,), input_codes[None], input_bits, (stats,), policy)[0]
