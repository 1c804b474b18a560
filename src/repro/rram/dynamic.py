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
- a single operand's fast GEMV reads its valid region ``[0, length)``
  as a one-member window, the same stack a bank read is, so both share
  one plan (:meth:`~repro.rram.kernels.StackLayout.plan`), including the
  exact noiseless shortcut when every tile of the valid region is
  provably clip-free;
- the ``reference`` policy reads every operand, banked or not, through
  a zero-copy *view* of its valid region that carries only what
  :func:`~repro.rram.kernels.reference_gemv` reads (planes, slices,
  config, ADC and shape): the view is the spec the window is held to.

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
from repro.rram.kernels import StackLayout, clip_free_mask, run_gemv_stack

__all__ = ["DynamicOperand", "PlaneBank", "write_operands"]

_GROW_AXES = ("wordlines", "bitlines")


class _DynamicView:
    """Zero-copy view of a dynamic operand's valid region ``[0, length)``.

    The surface :func:`~repro.rram.kernels.reference_gemv` reads of a
    :class:`~repro.rram.crossbar.ProgrammedMatrix` (planes, slices,
    config, ADC and shape), so the spec reads an operand with no forked
    kernel code; fast reads go through a :class:`_Window` instead.
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
        region, so noise, ADC clipping and op counts behave exactly as for
        static weights: a one-member :class:`_Window`, the stack a
        :class:`PlaneBank` reads.
        """
        if self.length == 0:
            raise ValueError("cannot GEMV an empty dynamic operand")
        view = _DynamicView(self)
        codes = checked_gemv_inputs(input_codes, input_bits, view, operand="operand")
        window = _Window([self], np.array([self.length]), view.planes[None])
        sink = stats if stats is not None else self.stats
        return run_gemv_stack(window, codes[None], input_bits, (sink,))[0]

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
        ``stats`` sink collects its counts.  The fast kernel reads the
        bank's cells; the process-wide ``reference`` policy reads each
        operand through its own view (the spec).
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
        window = _Window(operands, lengths, self.cells[members])
        return run_gemv_stack(window, codes, input_bits, [op.stats for op in operands])


class _Window(StackLayout):
    """Operands' valid regions, laid out as a one-call stack.

    One constituent per operand: operand ``i``'s matrix is its valid
    region, ``(length_i, width)`` for wordline growth and ``(width,
    length_i)`` for bitline growth.  ``cells[i]`` holds its effective
    cells in the tile's ``(in, out, n_s)`` layout, zero past the region
    (a :class:`PlaneBank`'s members, or one operand's region).  Noiseless
    cells prove their row tiles clip-free; noisy ones prove none, so their
    tiles keep the ADC's clip.
    """

    def __init__(self, operands: list[DynamicOperand], lengths: np.ndarray, cells: np.ndarray) -> None:
        first = operands[0]
        n = len(operands)
        sizes = lengths.tolist()
        widths = [first.width] * n
        ins, outs = (sizes, widths) if first.grow == "wordlines" else (widths, sizes)
        geometry = [(first.num_slices, first.cell.bits, first.adc.full_scale)]
        super().__init__(
            1, ins, outs, [first.offset] * n, geometry, first.config.rows, [first.config.cols] * n
        )
        self.operands = operands
        self.noiseless = first.backend.is_ideal(first._tile)
        self.cells = cells[:, : self.in_width, : self.out_width]

    @property
    def matrices(self) -> list[_DynamicView]:
        """The operands' views: the constituents the reference policy reads."""
        return [_DynamicView(op) for op in self.operands]

    def _plan_inputs(self) -> tuple[np.ndarray, bool, np.ndarray]:
        n = len(self.operands)
        cells = np.asarray(self.cells.reshape(n, self.in_width, self.columns), dtype=np.float32)
        if self.noiseless:
            clip_free = clip_free_mask(cells, self.rows, self.full_scale)
        else:
            clip_free = np.zeros((n, max(self.tiles)), dtype=bool)
        return cells, self.noiseless, clip_free
