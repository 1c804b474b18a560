"""Dynamic crossbar operands: runtime-written tensors in analog arrays.

Every :class:`~repro.rram.crossbar.ProgrammedMatrix` in the repo holds a
*static* operand — weights programmed once at deploy time.  This module
generalizes the execution model to a second operand class: a
:class:`DynamicOperand` is a crossbar-resident tensor that *grows at
runtime* through incremental row appends (KV-cache rows written as tokens
decode, streamed MoE expert slices, future NEON LUT banks), while staying
readable by the exact same GEMV kernels (:mod:`repro.rram.kernels`) that
serve static weights — no kernel code is forked.

The mechanics:

- the operand allocates one full-capacity tile up front (all cells at
  level 0) through :meth:`~repro.rram.backend.CrossbarBackend.program`;
- :meth:`DynamicOperand.append` bit-slices the incoming signed codes with
  the same offset encoding as static weights, and :func:`write_operands`
  writes the levels of many operands (analog attention's every
  ``(row, head)`` K/V tile of a step) in one
  :meth:`~repro.rram.backend.CrossbarBackend.program_regions` call — a
  partial write that costs only the appended cells' write pulses
  (recorded per tile in the :class:`~repro.rram.endurance.WearLedger`'s
  dynamic channel) and leaves every *other* tile's cached planes (the
  static weights' ``float_planes``) valid;
  :meth:`DynamicOperand.write` is its one-operand case;
- a :class:`PlaneBank` keeps the effective cells of many same-geometry
  operands stacked as the fast kernel reads them, zero past each
  operand's length; writes, truncations and member swaps update it in
  place, and a backend epoch change rebuilds it.  :meth:`PlaneBank.gemv`
  reads a run of members in one kernel call over the bank's valid window,
  each member exactly as its own :meth:`DynamicOperand.gemv` would;
- a single operand's GEMV runs against a zero-copy *view* of its valid
  region ``[0, length)``, which exposes the full programmed-matrix
  duck-type surface (planes, slices, ADC, clip-free tiles, float planes),
  so the ``reference`` and ``fast`` kernels both apply, including the
  exact noiseless shortcut when every tile of the valid region is
  provably clip-free.  The ``reference`` policy reads banked operands
  through their views too: the view is the spec the bank is held to.

``grow`` selects the physical growth axis.  ``"wordlines"`` appends input
rows (the AV operand: attention probabilities stream over the wordlines,
values live in the cells); ``"bitlines"`` appends output columns (the QK^T
operand: the query streams over the wordlines, keys live in the cells).
"""

from __future__ import annotations

import numpy as np

from repro.rram.adc import SarAdc, required_adc_bits
from repro.rram.backend import CrossbarBackend, resolve_backend
from repro.rram.cell import MLC2, CellType
from repro.rram.crossbar import (
    CrossbarConfig,
    GemvStats,
    WeightSlices,
    checked_gemv_inputs,
    offset_slices,
)
from repro.rram.kernels import (
    StackLayout,
    check_exact_sums,
    clip_free_flags,
    clip_free_mask,
    get_default_kernel_policy,
    run_gemv,
    run_gemv_stack,
)

__all__ = ["DynamicOperand", "PlaneBank", "write_operands"]

_GROW_AXES = ("wordlines", "bitlines")


class _DynamicView:
    """Zero-copy view of a dynamic operand's valid region ``[0, length)``.

    Implements the duck-type surface the GEMV kernels consume from
    :class:`~repro.rram.crossbar.ProgrammedMatrix` (planes, slices, config,
    ADC, noiselessness, clip-free tiles, dense weights, float planes), so
    a single operand is kernel-compatible without forking kernel code.
    Everything is derived from the tile on each read.
    """

    def __init__(self, operand: DynamicOperand) -> None:
        self._op = operand
        self.config = operand.config
        self.adc = operand.adc
        length = operand.length
        if operand.grow == "wordlines":
            self.in_features = length
            self.out_features = operand.width
        else:
            self.in_features = operand.width
            self.out_features = length

    @property
    def slices(self) -> WeightSlices:
        """Bit-sliced levels of the valid region (same encoding as static)."""
        return WeightSlices(
            values=self._op._valid_region(self._op._tile.ideal_levels),
            cell=self._op.cell,
            weight_bits=self._op.weight_bits,
            offset=self._op.offset,
        )

    @property
    def planes(self) -> np.ndarray:
        """Effective cell planes of the valid region, ``(in, out, n_s)``."""
        return self._op._valid_region(self._op.backend.planes(self._op._tile))

    @property
    def is_noiseless(self) -> bool:
        """True when reads return the exact integer levels (ideal backend)."""
        return self._op.backend.is_ideal(self._op._tile)

    def clip_free_tiles(self) -> tuple[bool, ...]:
        """Per-row-tile clip-freedom of the valid region (see static twin).

        Derived only for noiseless cells, over the *valid* levels.  Noisy
        cells report every tile as unproven: an operand is read about once
        per append, too rarely for the check to pay, so its tiles keep the
        ADC's clip.
        """
        if not self.is_noiseless:
            return (False,) * -(-self.in_features // self.config.rows)
        return clip_free_flags(self.slices.values, self.config.rows, self.adc.full_scale)

    @property
    def dense_weights_t(self) -> np.ndarray:
        """``W.T`` of the valid region as float64 (the exact-shortcut operand)."""
        slices = self.slices
        factors = slices.slice_factors.astype(np.float64)
        return slices.values.astype(np.float64) @ factors - self._op.offset

    def float_planes(self) -> np.ndarray:
        """Valid-region cells as float32 ``(in, out*n_s)`` (see static twin)."""
        return np.ascontiguousarray(self.planes, dtype=np.float32).reshape(self.in_features, -1)


class DynamicOperand:
    """A runtime-growable crossbar operand (append rows, GEMV the prefix).

    One full-capacity tile is allocated at construction (all cells at
    level 0 — the offset-encoded representation of *nothing yet written*;
    the unwritten region is never read because GEMVs run against the
    ``[0, length)`` view).  :meth:`append` writes signed integer code rows
    through the backend's partial-region primitive, :meth:`truncate`
    logically shrinks the operand without touching cells (compaction /
    row recycling), and :meth:`gemv` executes ``x @ W.T`` over the valid
    region with the standard kernel stack — noise, SAR-ADC quantization,
    saturation and op-count accounting included.

    Parameters
    ----------
    capacity:
        Maximum number of appendable rows (tokens, for a KV operand).
    width:
        The fixed operand dimension (``d_head``, for a KV operand).
    cell:
        RRAM cell type the operand's tile uses (default 2-bit MLC — the
        paper's dynamic-data storage class).
    grow:
        ``"wordlines"`` grows the GEMV *input* dimension (the AV operand),
        ``"bitlines"`` the *output* dimension (the QK^T operand).
    weight_bits:
        Signed code width of appended rows (default INT8).
    noise_sigma:
        Programming-noise σ applied to every appended cell (0 = ideal).
    rng:
        Generator for programming-noise draws (default: seeded from 0).
    config / backend:
        Crossbar geometry and execution backend — same semantics as
        :class:`~repro.rram.crossbar.ProgrammedMatrix`.  The process-wide
        kernel policy picks the kernel each read runs.
    stats:
        :class:`~repro.rram.crossbar.GemvStats` instance write and read
        events accumulate into (shareable across operands).
    """

    def __init__(
        self,
        capacity: int,
        width: int,
        cell: CellType = MLC2,
        grow: str = "wordlines",
        weight_bits: int = 8,
        noise_sigma: float = 0.0,
        rng: np.random.Generator | None = None,
        config: CrossbarConfig | None = None,
        backend: CrossbarBackend | None = None,
        stats: GemvStats | None = None,
    ) -> None:
        """Allocate the full-capacity zero-level tile on the backend."""
        if capacity < 1 or width < 1:
            raise ValueError("capacity and width must be positive")
        if grow not in _GROW_AXES:
            raise ValueError(f"grow must be one of {_GROW_AXES}, got {grow!r}")
        self.capacity = int(capacity)
        self.width = int(width)
        self.cell = cell
        self.grow = grow
        self.weight_bits = int(weight_bits)
        self.offset = 2 ** (self.weight_bits - 1)
        self.num_slices = -(-self.weight_bits // cell.bits)
        self.noise_sigma = float(noise_sigma)
        self.config = config or CrossbarConfig()
        self.backend = resolve_backend(backend)
        self.stats = stats if stats is not None else GemvStats()
        if grow == "wordlines":
            shape = (self.capacity, self.width, self.num_slices)
        else:
            shape = (self.width, self.capacity, self.num_slices)
        self._tile = self.backend.program(
            np.zeros(shape, dtype=np.int64), cell, self.noise_sigma, rng or np.random.default_rng(0)
        )
        self.adc = SarAdc(bits=required_adc_bits(self.config.rows, cell.bits))
        self.length = 0  # logical valid rows
        self.written = 0  # high watermark of physically written rows
        #: the :class:`PlaneBank` holding this operand, and its member index
        self.bank: PlaneBank | None = None
        self.member = -1

    # -- region selection ---------------------------------------------------
    def _span(self, start: int, stop: int) -> tuple[slice, slice]:
        """``(rows, cols)`` of the tile that hold logical rows ``[start, stop)``."""
        if self.grow == "wordlines":
            return slice(start, stop), slice(0, self.width)
        return slice(0, self.width), slice(start, stop)

    def _valid_region(self, array: np.ndarray) -> np.ndarray:
        return array[self._span(0, self.length)]

    # -- writes -------------------------------------------------------------
    def append(self, codes: np.ndarray, stats: GemvStats | None = None) -> int:
        """Append ``codes`` (``(t, width)`` signed ints) as ``t`` new rows.

        Bit-slices the codes with the static-weight offset encoding
        (:func:`~repro.rram.crossbar.offset_slices`) and writes them with
        :meth:`write`.  Returns the new logical length.
        """
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        if codes.ndim != 2 or codes.shape[1] != self.width:
            raise ValueError(
                f"expected (t, {self.width}) codes, got shape {codes.shape}"
            )
        return self.write(offset_slices(codes, self.cell, self.weight_bits), stats)

    def write(self, levels: np.ndarray, stats: GemvStats | None = None) -> int:
        """Write ``levels`` (``(t, width, n_s)`` cell levels) as ``t`` new rows.

        ``levels`` are already bit-sliced codes (:meth:`append` slices one
        block).  The one-operand case of :func:`write_operands`, which
        says where the rows land and how they are accounted.  Returns the
        new logical length.
        """
        write_operands([self], np.asarray(levels)[None], stats)
        return self.length

    def truncate(self, length: int = 0) -> None:
        """Logically shrink the operand to ``length`` rows (no cell writes).

        Truncated rows keep their physical levels; a later :meth:`append`
        overwrites them (counted as re-programs).  ``length`` may not
        exceed the high watermark — extending past written rows would read
        unwritten cells.
        """
        if not 0 <= length <= self.written:
            raise ValueError(
                f"length must be in [0, {self.written}], got {length}"
            )
        self.length = int(length)
        if self.bank is not None:
            self.bank._sync(self.member)

    # -- reads --------------------------------------------------------------
    def gemv(
        self,
        input_codes: np.ndarray,
        input_bits: int = 8,
        stats: GemvStats | None = None,
    ) -> np.ndarray:
        """Bit-serial ``x @ W.T`` against the valid region (signed ints).

        ``x`` has ``length`` columns for a wordline-grown operand and
        ``width`` columns for a bitline-grown one; the result's trailing
        dimension is the other of the two.  Runs the standard kernel stack
        (``reference`` / ``fast`` by the process-wide policy) against the
        region view, so noise, ADC clipping and op counts behave exactly as
        for static weights.
        """
        if self.length == 0:
            raise ValueError("cannot GEMV an empty dynamic operand")
        view = _DynamicView(self)
        return run_gemv(
            view,
            checked_gemv_inputs(input_codes, input_bits, view, operand="operand"),
            input_bits,
            stats=stats if stats is not None else self.stats,
        )

    # -- health -------------------------------------------------------------
    @property
    def tile_id(self) -> int:
        """Backend tile identifier (the wear ledger's key)."""
        return self._tile.tile_id

    def wear_fraction(self) -> float:
        """Fraction of the operand tile's write endurance consumed so far."""
        return self.backend.wear_fraction(self._tile)


def write_operands(
    operands: list[DynamicOperand], levels: np.ndarray, stats: GemvStats | None = None
) -> None:
    """Append ``levels[i]`` (``(t, width, n_s)`` cell levels) to ``operands[i]``.

    Every operand's ``t`` new rows land at its logical positions
    ``[length, length + t)`` through one
    :meth:`~repro.rram.backend.CrossbarBackend.program_regions` call: the
    levels are checked against the cell's range once, programming noise
    is drawn once in operand order (a bitline-grown operand's region is
    its rows transposed to ``(width, t, n_s)``), and the wear ledger's
    dynamic channel records one region write per operand.  Each write is
    accounted in ``stats`` (default: the operand's own sink) — rows above
    the high watermark as ``cells_initial_programmed``, recycled rows
    (re-writes after a :meth:`DynamicOperand.truncate`) as
    ``cells_reprogrammed`` — and each operand's :class:`PlaneBank`, if it
    has one, reads the written cells back from the backend.  The operands
    must be distinct and share the backend, width and slicing.
    """
    first = operands[0]
    levels = np.asarray(levels)
    expected = (len(operands),) + levels.shape[1:2] + (first.width, first.num_slices)
    if levels.ndim != 4 or levels.shape != expected:
        raise ValueError(f"expected {expected} levels, got shape {levels.shape}")
    n, t = levels.shape[:2]
    if t == 0:
        return
    shape = (first.backend, first.width, first.num_slices)
    if len(set(map(id, operands))) != n or any(
        (op.backend, op.width, op.num_slices) != shape for op in operands
    ):
        raise ValueError("written operands must be distinct and share backend and shape")
    for op in operands:
        if op.length + t > op.capacity:
            raise ValueError(
                f"append of {t} rows exceeds capacity {op.capacity} (length {op.length})"
            )
    bitlines = np.array([op.grow == "bitlines" for op in operands])
    block = levels.reshape(n, -1)
    if bitlines.any():
        block = block.copy()
        block[bitlines] = levels[bitlines].transpose(0, 2, 1, 3).reshape(int(bitlines.sum()), -1)
    first.backend.program_regions(
        [op._tile for op in operands],
        [op._span(op.length, op.length + t) for op in operands],
        block,
    )
    cells_per_row = first.width * first.num_slices
    for op in operands:
        initial_rows = max(0, (op.length + t) - op.written)
        target = stats if stats is not None else op.stats
        target.cells_initial_programmed += initial_rows * cells_per_row
        target.cells_reprogrammed += (t - initial_rows) * cells_per_row
        op.length += t
        op.written = max(op.written, op.length)
        if op.bank is not None:
            op.bank._sync(op.member)


class PlaneBank:
    """The effective cells of many dynamic operands, stacked for one read.

    A bank holds same-geometry operands (cell, crossbar config, weight
    width, growth axis, capacity, width and backend) as *members*: one
    float32 array ``(members, in, out, n_s)`` in each operand tile's own
    layout, equal to the operand's effective planes on ``[0, length)`` and
    zero past it.  That is exactly the zero-padded stack the fast kernel
    reads, so :meth:`gemv` hands any contiguous run of members'
    valid window to :func:`~repro.rram.kernels.fast_gemv` with no per-read
    copy or concatenation.

    The bank stays coherent on its own: :func:`write_operands` reads the
    appended rows' effective cells in from the backend's planes,
    :meth:`DynamicOperand.truncate` zeroes (or, growing back into written
    rows, re-reads) the member's tail,
    :meth:`swap` exchanges two members, and a read after the backend's
    epoch moved (``advance`` / ``reprogram``) rebuilds every member from
    the backend's planes.  An operand belongs to at most one bank.
    """

    def __init__(self, operands: list[DynamicOperand]) -> None:
        """Bank ``operands`` (in member order) and read their cells in."""
        if not operands:
            raise ValueError("a plane bank needs at least one operand")
        first = operands[0]

        def geometry(op: DynamicOperand) -> tuple:
            return (op.cell, op.config, op.weight_bits, op.grow, op.capacity, op.width)

        if any(geometry(op) != geometry(first) or op.backend is not first.backend for op in operands):
            raise ValueError(
                "banked operands must share cell, config, weight_bits, growth axis, "
                "shape and backend"
            )
        if any(op.bank is not None for op in operands) or len({id(op) for op in operands}) != len(operands):
            raise ValueError("an operand belongs to at most one plane bank, once")
        self.operands = list(operands)
        for member, op in enumerate(self.operands):
            op.bank, op.member = self, member
        self.backend = first.backend
        self.cells = np.zeros((len(operands),) + first._tile.ideal_levels.shape, dtype=np.float32)
        #: per member, the logical length the bank holds
        self.lengths = np.zeros(len(operands), dtype=np.int64)
        self.epoch = -1
        self._rebuild()

    # -- coherence ----------------------------------------------------------
    def _read(self, member: int, start: int, stop: int) -> None:
        """Copy member rows ``[start, stop)`` from the backend's planes."""
        op = self.operands[member]
        span = op._span(start, stop)
        self.cells[member][span] = self.backend.planes(op._tile)[span]

    def _rebuild(self) -> None:
        """Re-read every member's valid rows (the backend's epoch moved)."""
        self.cells[...] = 0.0
        for member, op in enumerate(self.operands):
            if op.length:
                self._read(member, 0, op.length)
            self.lengths[member] = op.length
        self.epoch = self.backend.epoch

    def _sync(self, member: int) -> None:
        """Follow a member's length: zero a dropped tail, or read new rows in."""
        op = self.operands[member]
        held = int(self.lengths[member])
        if op.length == held:
            return
        if op.length < held:
            self.cells[member][op._span(op.length, held)] = 0.0
        else:
            self._read(member, held, op.length)
        self.lengths[member] = op.length

    def swap(self, i: int, j: int) -> None:
        """Exchange members ``i`` and ``j`` (operands and cells)."""
        ops = self.operands
        ops[i], ops[j] = ops[j], ops[i]
        ops[i].member, ops[j].member = i, j
        self.cells[[i, j]] = self.cells[[j, i]]
        self.lengths[[i, j]] = self.lengths[[j, i]]

    # -- reads --------------------------------------------------------------
    def gemv(
        self, input_codes: np.ndarray, input_bits: int = 8, members: slice = slice(None)
    ) -> np.ndarray:
        """Every member's GEMV in ``members`` as one stacked kernel call.

        ``input_codes`` is ``(n, batch, in)``: member ``i`` of the run
        reads its first ``in_i`` columns (its GEMV input width) and must be
        zero past them; ``in`` is the widest ``in_i``.  Returns
        ``(n, batch, out)`` int64, member ``i`` equal to its operand's
        :meth:`DynamicOperand.gemv` of ``input_codes[i, :, :in_i]`` in its
        first ``out_i`` columns and zero past them.  Each member's
        ``stats`` sink collects its counts.  Under the process-wide
        ``reference`` policy each operand is read through its own view
        (the spec); every other policy reads the bank.
        """
        if self.epoch != self.backend.epoch:
            self._rebuild()
        operands = self.operands[members]
        lengths = self.lengths[members]
        if not lengths.all():
            raise ValueError("cannot GEMV an empty dynamic operand")
        first = operands[0]
        codes = np.asarray(input_codes, dtype=np.int64)
        widths = lengths if first.grow == "wordlines" else np.full_like(lengths, first.width)
        if codes.ndim != 3 or codes.shape[0] != len(operands) or codes.shape[2] != widths.max():
            raise ValueError(
                f"shape mismatch: inputs {codes.shape}, expected "
                f"({len(operands)}, batch, {widths.max()})"
            )
        if np.any(codes * (np.arange(codes.shape[2]) >= widths[:, None])[:, None, :]):
            raise ValueError("inputs past an operand's width must be zero")
        offset_inputs = codes + 2 ** (input_bits - 1)
        if offset_inputs.min(initial=0) < 0 or offset_inputs.max(initial=0) >= 2**input_bits:
            raise ValueError(f"input codes exceed the signed {input_bits}-bit range")
        if get_default_kernel_policy().mode == "reference":
            stack = [_DynamicView(op) for op in operands]
        else:
            stack = _BankWindow(self, members, lengths)
        return run_gemv_stack(stack, codes, input_bits, [op.stats for op in operands])


class _BankWindow(StackLayout):
    """A run of bank members' valid window, laid out as a one-call stack.

    One constituent per member: member ``i``'s matrix is its operand's
    valid region, ``(length_i, width)`` for wordline growth and
    ``(width, length_i)`` for bitline growth.
    """

    def __init__(self, bank: PlaneBank, members: slice, lengths: np.ndarray) -> None:
        first = bank.operands[0]
        n = len(lengths)
        sizes = lengths.tolist()
        widths = [first.width] * n
        ins, outs = (sizes, widths) if first.grow == "wordlines" else (widths, sizes)
        self.full_scale = first.adc.full_scale
        geometry = [(first.num_slices, first.cell.bits, self.full_scale)]
        super().__init__(
            1, ins, outs, [first.offset] * n, geometry, first.config.rows, [first.config.cols] * n
        )
        self.noiseless = first.backend.is_ideal(first._tile)
        self.matrices = bank.operands[members]  # the constituents
        self.window = bank.cells[members, : self.in_width, : self.out_width]

    def plan(self) -> tuple:
        """As :meth:`StackLayout.plan`, derived from the window at once.

        Noisy cells prove no tile clip-free (as a single operand's view)
        and are checked by :func:`~repro.rram.kernels.check_exact_sums`;
        noiseless cells are checked per member and row tile together.
        """
        n = self.window.shape[0]
        flat = self.window.reshape(n, self.in_width, self.columns)
        own = np.arange(max(self.tiles)) < np.asarray(self.tiles)[:, None]  # (n, tiles)
        free = np.zeros_like(own)
        if self.noiseless:
            free = own & clip_free_mask(flat, self.rows, self.full_scale)
        unproven = own & ~free
        clip_free_counts = tuple(free.sum(axis=1).tolist())
        if self.noiseless and not unproven.any():
            # The exact shortcut's W.T: recombined slices less the offsets,
            # which are zero on padded outputs; padded inputs read zeros.
            operand = self.window @ self.segments[0][3] - self.offsets
            empty = ((),) * own.shape[1]
            return True, empty, empty, clip_free_counts, operand
        check_exact_sums(flat, self.rows, self.full_scale)
        span = self.slots[0]
        clips = tuple((span,) if column.any() else () for column in unproven.T)
        counts = tuple(
            tuple((k, k) + span for k in np.flatnonzero(column).tolist()) for column in unproven.T
        )
        return False, clips, counts, clip_free_counts, flat
