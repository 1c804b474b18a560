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
  the same offset encoding as static weights and :meth:`DynamicOperand.write`
  writes those levels through
  :meth:`~repro.rram.backend.CrossbarBackend.program_region` — a partial
  write that costs only the appended cells' write pulses (recorded in the
  :class:`~repro.rram.endurance.WearLedger`'s dynamic channel) and bumps
  only the tile-local ``write_epoch``, leaving every *other* tile's cached
  planes (the static weights' ``float_planes``, the ``PlaneCache``) valid;
- GEMVs run against a zero-copy *view* of the valid region ``[0, length)``,
  which exposes the full programmed-matrix duck-type surface (planes,
  slices, ADC, clip-free tiles, float planes), so the ``reference`` and
  ``fast`` kernels both apply, including the exact noiseless shortcut
  when every tile of the valid region is provably clip-free;
- :func:`stacked_gemv` reads many operands in one kernel call (analog
  attention's every ``(row, head)`` tile of a step), each member exactly
  as its own :meth:`DynamicOperand.gemv` would.

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
    KernelPolicy,
    clip_free_flags,
    resolve_policy,
    run_gemv,
    run_gemv_stack,
)

__all__ = ["DynamicOperand", "stacked_gemv"]

_GROW_AXES = ("wordlines", "bitlines")


class _DynamicView:
    """Zero-copy view of a dynamic operand's valid region ``[0, length)``.

    Implements the duck-type surface the GEMV kernels consume from
    :class:`~repro.rram.crossbar.ProgrammedMatrix` (planes, slices, config,
    ADC, noiselessness, clip-free tiles, dense weights, float planes), so
    a dynamic operand is kernel-compatible without forking kernel code.
    Derived artifacts (clip-free flags, dense weights, float planes) are
    cached on the owning operand, keyed by the backend epoch, the tile's
    ``write_epoch`` and the logical length — any append, reprogram or
    clock advance invalidates them.
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
            values=self._op._valid_levels(),
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

        Derived only for noiseless cells, over the *valid* levels, and
        re-derived whenever the operand's cache key moves.  Noisy cells
        report every tile as unproven: an operand is read about once per
        append, too rarely for the re-check to pay, so its tiles keep the
        ADC's clip.
        """
        if not self.is_noiseless:
            return (False,) * -(-self.in_features // self.config.rows)
        cached = self._op._cache_get("clip_free")
        if cached is not None:
            return cached
        flags = clip_free_flags(self._op._valid_levels(), self.config.rows, self.adc.full_scale)
        self._op._cache_set("clip_free", flags)
        return flags

    @property
    def dense_weights_t(self) -> np.ndarray:
        """``W.T`` of the valid region as float64 (the exact-shortcut operand)."""
        cached = self._op._cache_get("dense_weights_t")
        if cached is not None:
            return cached
        values = self._op._valid_levels()
        factors = WeightSlices(
            values=values,
            cell=self._op.cell,
            weight_bits=self._op.weight_bits,
            offset=self._op.offset,
        ).slice_factors
        dense = values.astype(np.float64) @ factors.astype(np.float64) - self._op.offset
        self._op._cache_set("dense_weights_t", dense)
        return dense

    def float_planes(self) -> np.ndarray:
        """Valid-region cells as float64 ``(in, out*n_s)`` (see static twin)."""
        cached = self._op._cache_get("float_planes")
        if cached is not None:
            return cached
        flat = np.ascontiguousarray(self.planes, dtype=np.float64).reshape(
            self.in_features, -1
        )
        self._op._cache_set("float_planes", flat)
        return flat


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
    config / policy / backend:
        Crossbar geometry, kernel policy and execution backend — same
        semantics as :class:`~repro.rram.crossbar.ProgrammedMatrix`.
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
        policy: KernelPolicy | None = None,
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
        self.policy = policy
        self.backend = resolve_backend(backend)
        self.stats = stats if stats is not None else GemvStats()
        if grow == "wordlines":
            shape = (self.capacity, self.width, self.num_slices)
        else:
            shape = (self.width, self.capacity, self.num_slices)
        self._tile = self.backend.program(
            np.zeros(shape, dtype=np.int64),
            cell,
            self.noise_sigma,
            rng or np.random.default_rng(0),
            resolve_policy(policy).storage_dtype,
        )
        self.adc = SarAdc(bits=required_adc_bits(self.config.rows, cell.bits))
        self.length = 0  # logical valid rows
        self.written = 0  # high watermark of physically written rows
        self._cache_key: tuple | None = None
        self._cache: dict = {}

    # -- derived-artifact cache (epoch / write_epoch / length keyed) --------
    def _current_key(self) -> tuple:
        return (self.backend.epoch, self._tile.write_epoch, self.length)

    def _cache_get(self, name: str):
        if self._cache_key != self._current_key():
            return None
        return self._cache.get(name)

    def _cache_set(self, name: str, value) -> None:
        key = self._current_key()
        if self._cache_key != key:
            self._cache = {}
            self._cache_key = key
        self._cache[name] = value

    # -- region selection ---------------------------------------------------
    def _valid_region(self, array: np.ndarray) -> np.ndarray:
        if self.grow == "wordlines":
            return array[: self.length]
        return array[:, : self.length, :]

    def _valid_levels(self) -> np.ndarray:
        return self._valid_region(self._tile.ideal_levels)

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
        block; a caller writing many operands slices all of them at once).
        Rows land at logical positions ``[length, length + t)``: written
        through :meth:`~repro.rram.backend.CrossbarBackend.program_region`
        (which checks every level against the cell's range; wear ledger's
        dynamic channel, tile-local invalidation only), and accounted in
        ``stats`` — rows above the high watermark as
        ``cells_initial_programmed``, recycled rows (re-writes after a
        :meth:`truncate`) as ``cells_reprogrammed``.  Returns the new
        logical length.
        """
        levels = np.asarray(levels)
        if levels.ndim != 3 or levels.shape[1:] != (self.width, self.num_slices):
            raise ValueError(
                f"expected (t, {self.width}, {self.num_slices}) levels, "
                f"got shape {levels.shape}"
            )
        t = levels.shape[0]
        if t == 0:
            return self.length
        if self.length + t > self.capacity:
            raise ValueError(
                f"append of {t} rows exceeds capacity "
                f"{self.capacity} (length {self.length})"
            )
        if self.grow == "wordlines":
            # New input rows: the region is (t, width, n_s) = (in, out, n_s).
            row_slice = slice(self.length, self.length + t)
            col_slice = slice(0, self.width)
        else:
            # New output columns: the region is (width, t, n_s).
            levels = levels.transpose(1, 0, 2)
            row_slice = slice(0, self.width)
            col_slice = slice(self.length, self.length + t)
        self.backend.program_region(self._tile, row_slice, col_slice, levels)
        cells_per_row = self.width * self.num_slices
        initial_rows = max(0, (self.length + t) - self.written)
        target = stats if stats is not None else self.stats
        target.cells_initial_programmed += initial_rows * cells_per_row
        target.cells_reprogrammed += (t - initial_rows) * cells_per_row
        self.length += t
        self.written = max(self.written, self.length)
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

    # -- reads --------------------------------------------------------------
    def gemv(
        self,
        input_codes: np.ndarray,
        input_bits: int = 8,
        stats: GemvStats | None = None,
        policy: KernelPolicy | None = None,
    ) -> np.ndarray:
        """Bit-serial ``x @ W.T`` against the valid region (signed ints).

        ``x`` has ``length`` columns for a wordline-grown operand and
        ``width`` columns for a bitline-grown one; the result's trailing
        dimension is the other of the two.  Runs the standard kernel stack
        (``reference`` / ``fast`` by policy) against the region view, so
        noise, ADC clipping and op counts behave exactly as for static
        weights.
        """
        if self.length == 0:
            raise ValueError("cannot GEMV an empty dynamic operand")
        view = _DynamicView(self)
        return run_gemv(
            view,
            checked_gemv_inputs(input_codes, input_bits, view, operand="operand"),
            input_bits,
            stats=stats if stats is not None else self.stats,
            policy=policy if policy is not None else self.policy,
        )

    # -- health -------------------------------------------------------------
    @property
    def tile_id(self) -> int:
        """Backend tile identifier (the wear ledger's key)."""
        return self._tile.tile_id

    def wear_fraction(self) -> float:
        """Fraction of the operand tile's write endurance consumed so far."""
        return self.backend.wear_fraction(self._tile)


def stacked_gemv(
    operands: list[DynamicOperand], input_codes: np.ndarray, input_bits: int = 8
) -> np.ndarray:
    """Every operand's GEMV in one stacked kernel call.

    ``input_codes`` is ``(n, batch, in)``: member ``i`` feeds
    ``operands[i]`` its first ``in_i`` columns (the operand's GEMV input
    width) and must be zero past them; ``in`` is the widest ``in_i``.
    Returns ``(n, batch, out)`` int64, member ``i`` equal to
    ``operands[i].gemv(input_codes[i, :, :in_i])`` in its first ``out_i``
    columns and zero past them.  The operands must share cell type,
    geometry and weight width; the first one's kernel policy applies, and
    each operand's own ``stats`` sink collects its counts.
    """
    if not operands:
        raise ValueError("stacked_gemv needs at least one operand")
    first = operands[0]
    shared = (first.cell, first.config, first.weight_bits)
    if any((op.cell, op.config, op.weight_bits) != shared for op in operands):
        raise ValueError("stacked operands must share cell, config and weight_bits")
    if not all(op.length for op in operands):
        raise ValueError("cannot GEMV an empty dynamic operand")
    views = [_DynamicView(op) for op in operands]
    codes = np.asarray(input_codes, dtype=np.int64)
    widths = np.array([view.in_features for view in views])
    if codes.ndim != 3 or codes.shape[0] != len(views) or codes.shape[2] != widths.max():
        raise ValueError(
            f"shape mismatch: inputs {codes.shape}, expected "
            f"({len(views)}, batch, {widths.max()})"
        )
    if np.any(codes * (np.arange(codes.shape[2]) >= widths[:, None])[:, None, :]):
        raise ValueError("inputs past an operand's width must be zero")
    offset_inputs = codes + 2 ** (input_bits - 1)
    if offset_inputs.min(initial=0) < 0 or offset_inputs.max(initial=0) >= 2**input_bits:
        raise ValueError(f"input codes exceed the signed {input_bits}-bit range")
    return run_gemv_stack(
        views, codes, input_bits, [op.stats for op in operands], first.policy
    )
