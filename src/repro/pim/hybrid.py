"""HybridLinear: factored inference layer on hybrid SLC/MLC analog PIM.

This is the deployment form of one static weight matrix after gradient
redistribution (Fig. 9): the layer computes

    y = ((x @ Aᵀ) @ Bᵀ) + b,   A = Σ·Vᵀ (rank x in),  B = U (out x rank)

with both GEMVs running through INT8 quantization and noisy analog RRAM.
Each rank is assigned to SLC (protected) or MLC (efficient); the two
partial GEMVs recombine digitally.

Every layer runs as a tensor-parallel shard plan (Section 3.1, cases
1-2): contiguous rank slices on their own arrays, stage-2 partial sums
added over the OCI.  A new layer is the 1-way plan ``[(0, rank)]``;
:meth:`HybridLinear.deploy` swaps in an N-way one.  Crossbar mode writes
the current plan's arrays once, on first use, in
:meth:`HybridLinear.program` — the only place a layer is programmed, so a
sharded deployment programs each rank fragment once.  One forward per
mode runs the shards in turn; :mod:`repro.dist` models parallelism, not
threads.

Two execution modes trade fidelity for speed:

- ``"crossbar"`` — full bit-serial simulation (bit-sliced cells, frozen
  programming noise, 6/7-b ADC, shift-and-add).  Exact to the hardware
  model; used for layer-level studies and verification.
- ``"fast"`` — weight-level noise injection ``W̃ = W ⊙ (1 + η)`` on the
  INT8-quantized factors, the paper's own Eq. (5) accuracy methodology.
  Orders of magnitude faster; used for whole-model accuracy sweeps
  (Fig. 12/13).  Consistency between the two modes is unit-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.modules import Module
from repro.nn.tensor import Tensor, get_default_dtype
from repro.quant.quantizer import QuantParams, dequantize, quantize
from repro.rram.backend import CrossbarBackend
from repro.rram.cell import CellType, MLC2, SLC
from repro.rram.crossbar import CrossbarConfig, GemvStats
from repro.rram.kernels import GemvStack, run_gemv_stack
from repro.rram.mapping import (
    HybridSplit,
    MappedMatrix,
    array_footprint,
    partition_rank,
    rank_fragments,
    split_by_rank,
)
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec, apply_multiplicative_noise
from repro.svd.pipeline import LayerPlan

__all__ = [
    "HybridLinear",
    "MagnitudeProtectedLinear",
    "SiblingGroup",
    "attach_hybrid_layers",
    "calibrate_activations",
]

_MODES = ("fast", "crossbar")

#: Bit width of the INT8 activation quantizers in the crossbar path.
_ACTIVATION_BITS = 8

#: Static linears, by the last part of their dotted name, that read one
#: input: a block's Q/K/V projections, run as one :class:`SiblingGroup`.
_SHARED_INPUT = ("w_q", "w_k", "w_v")


def _int8_codes(values: np.ndarray, scale) -> np.ndarray:
    """Signed activation codes of float64 ``values``, as :func:`quantize` rounds and clips."""
    qmax = 2 ** (_ACTIVATION_BITS - 1) - 1
    return np.clip(np.round(values / scale), -qmax - 1, qmax).astype(np.int64)


class MagnitudeProtectedLinear(Module):
    """Dense (non-SVD) layer with elementwise magnitude-based SLC protection.

    The Fig. 13 ablation baseline: without SVD there is no rank structure,
    so the top-``k%`` |w| elements are protected in SLC and the rest sit in
    MLC.  Executed with the fast Eq. (5) noise path (element-granular
    SLC/MLC mixing inside one column is not physically realizable on the
    crossbar, which is itself part of the paper's argument for rank-level
    protection).
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None,
        protected_mask: np.ndarray,
        noise: NoiseSpec | None = None,
        mlc_cell: CellType = MLC2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        weight = np.asarray(weight, dtype=float)
        protected_mask = np.asarray(protected_mask, dtype=bool)
        if protected_mask.shape != weight.shape:
            raise ValueError(
                f"mask shape {protected_mask.shape} != weight shape {weight.shape}"
            )
        self.noise = noise or DEFAULT_NOISE
        self.out_features, self.in_features = weight.shape
        codes, params = quantize(weight, num_bits=8)
        dequant = dequantize(codes, params)
        rng = np.random.default_rng(seed)
        noisy = np.empty_like(dequant)
        noisy[protected_mask] = apply_multiplicative_noise(
            dequant[protected_mask], self.noise.sigma(SLC), rng
        )
        noisy[~protected_mask] = apply_multiplicative_noise(
            dequant[~protected_mask], self.noise.sigma(mlc_cell), rng
        )
        self._noisy_weight = noisy
        self._bias = None if bias is None else np.asarray(bias, dtype=float)

    def forward(self, x: Tensor) -> Tensor:
        """Inference pass through the noisy dense weight."""
        data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=float)
        out = data @ self._noisy_weight.T
        if self._bias is not None:
            out = out + self._bias
        return Tensor(out)


class HybridLinear(Module):
    """Inference-only linear layer executed on hybrid SLC/MLC analog PIM.

    ``noise`` defaults to the BER-calibrated ``DEFAULT_NOISE``.  Only
    ``NoiseSpec.noiseless()`` is noiseless: ``noise=None`` also means
    ``DEFAULT_NOISE``.
    """

    def __init__(
        self,
        plan: LayerPlan,
        noise: NoiseSpec = DEFAULT_NOISE,
        mode: str = "fast",
        mlc_cell: CellType = MLC2,
        config: CrossbarConfig | None = None,
        seed: int = 0,
        backend: CrossbarBackend | None = None,
    ) -> None:
        super().__init__()
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.plan = plan
        self.noise = noise or DEFAULT_NOISE
        self.mode = mode
        self.mlc_cell = mlc_cell
        self.config = config or CrossbarConfig()
        self.seed = seed
        self.backend = backend
        self.in_features = plan.a_matrix.shape[1]
        self.out_features = plan.b_matrix.shape[0]
        self.rank = plan.rank
        # Calibrated activation quantization (deploy-time serving path): when
        # set, crossbar GEMVs reuse these frozen scales instead of rescaling
        # from each call's min/max — one calibration pass, then stable
        # per-call behaviour (and no data-dependent scale drift) under load.
        self._x_params: QuantParams | None = None
        self._h_params: QuantParams | None = None
        self._calibrating = False
        self._x_absmax = 0.0
        self._h_absmax = 0.0
        # Shard plan — the 1-way plan until :meth:`deploy` replaces it.
        # Crossbar mode programs it on first use (:meth:`program`).
        self._mesh = None
        self._chip = 0
        self._rank_slices: list[tuple[int, int]] = [(0, self.rank)]
        self._splits: list[HybridSplit] | None = None
        # Crossbar forwards run as a one-layer sibling group; layers that
        # read one input (a block's Q/K/V) also share ``siblings``, the
        # group that runs them together (set by attach_hybrid_layers).
        self._group = SiblingGroup((self,)) if mode == "crossbar" else None
        self.siblings: SiblingGroup | None = None

        # INT8 weight quantization (per-tensor, symmetric) for both factors.
        self._a_codes, self._a_params = quantize(plan.a_matrix, num_bits=8)
        self._b_codes, self._b_params = quantize(plan.b_matrix, num_bits=8)

        self._noisy_a = self._noisy_b = None
        if mode == "fast":
            # Weight-level Eq. (5) noise, applied once (static weights are
            # programmed once); protected ranks get SLC sigma, rest MLC sigma.
            rng = np.random.default_rng(seed)
            sigma_slc = self.noise.sigma(SLC)
            sigma_mlc = self.noise.sigma(mlc_cell)
            protected = plan.protected_ranks
            a_noisy = np.empty_like(plan.a_matrix)
            b_noisy = np.empty_like(plan.b_matrix)
            a_deq = dequantize(self._a_codes, self._a_params)
            b_deq = dequantize(self._b_codes, self._b_params)
            a_noisy[protected] = apply_multiplicative_noise(a_deq[protected], sigma_slc, rng)
            a_noisy[~protected] = apply_multiplicative_noise(a_deq[~protected], sigma_mlc, rng)
            b_noisy[:, protected] = apply_multiplicative_noise(
                b_deq[:, protected], sigma_slc, rng
            )
            b_noisy[:, ~protected] = apply_multiplicative_noise(
                b_deq[:, ~protected], sigma_mlc, rng
            )
            self._noisy_a = a_noisy
            self._noisy_b = b_noisy

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Inference pass; gradients do not flow through PIM hardware.

        Crossbar mode runs the layer as its own one-layer
        :class:`SiblingGroup`.
        """
        if self.mode == "crossbar":
            return self._group(x)[0]
        data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=get_default_dtype())
        out = self._forward_fast(data.reshape(-1, data.shape[-1]))
        return self._output(out, data.shape)

    def _output(self, out: np.ndarray, shape: tuple[int, ...]) -> Tensor:
        """Bias-added output of a flattened forward, in the input's leading shape."""
        if self.plan.bias is not None:
            out = out + self.plan.bias
        return Tensor(out.reshape(shape[:-1] + (self.out_features,)))

    def _forward_fast(self, flat: np.ndarray) -> np.ndarray:
        """Eq. (5) forward; shard partial sums add in float, so N-way equals
        1-way up to summation order."""
        out = None
        for start, stop in self._rank_slices:
            hidden = flat @ self._noisy_a[start:stop].T
            part = hidden @ self._noisy_b[:, start:stop].T
            out = part if out is None else out + part
        self._record_shard_traffic(flat.shape[0], calibrated=True)
        return out

    def _active_params(self, which: str) -> QuantParams | None:
        """Frozen calibrated activation params, unless observing/uncalibrated."""
        if self._calibrating:
            return None
        return self._x_params if which == "x" else self._h_params

    # ------------------------------------------------------------------
    # Sharded (tensor-parallel) deployment — paper Section 3.1, cases 1-2
    # ------------------------------------------------------------------
    def deploy(
        self,
        mesh,
        rank_slices: list[tuple[int, int]] | None = None,
        *,
        tensor_parallel: int | None = None,
        chip: int = 0,
    ) -> list[tuple[int, int]]:
        """Replace the layer's shard plan with a tensor-parallel one.

        ``mesh`` is a :class:`~repro.dist.DeviceMesh` (its traffic ledger
        receives the OCI partial-sum aggregation every multi-shard forward
        performs).  ``rank_slices`` gives explicit contiguous shard ranges
        (from a :class:`~repro.dist.ShardPlan`); alternatively
        ``tensor_parallel`` derives a balanced partition.

        Deploying programs nothing: it validates and records the slices,
        mesh and chip, and drops any programmed splits, so crossbar mode
        programs the new plan on first use (:meth:`program`).  Fast mode
        slices the already-noised Eq. (5) factors.  Both modes keep their
        single forward; only the slice list changes.  Returns the shard
        ranges deployed.
        """
        if rank_slices is None:
            rank_slices = partition_rank(
                self.rank, tensor_parallel or 1, tile=self.config.rows
            )
        else:
            rank_slices = [(int(a), int(b)) for a, b in rank_slices]
        if not rank_slices:
            raise ValueError("rank_slices must contain at least one shard")
        cursor = 0
        for start, stop in rank_slices:
            if start != cursor or stop <= start:
                raise ValueError(
                    f"rank_slices must be contiguous, non-empty and ordered; "
                    f"got {rank_slices}"
                )
            cursor = stop
        if cursor != self.rank:
            raise ValueError(
                f"rank_slices cover [0, {cursor}) but the layer rank is {self.rank}"
            )

        self._mesh = mesh
        self._chip = chip
        self._rank_slices = rank_slices
        self._splits = None
        return rank_slices

    def program(self) -> list[HybridSplit]:
        """The shards' programmed arrays: one :class:`HybridSplit` per rank slice.

        The one place a crossbar layer is written (static weights are
        programmed once, Section 3.2): the first call after construction
        or :meth:`deploy` programs every rank slice onto the backend, and
        later calls return the same splits.  A 1-way plan draws its noise
        from the layer seed; shard ``i`` of an N-way plan from ``seed +
        104729·(i+1)``, so shards are decorrelated.  Every reader (the
        forward, stats, wear, drift probe and reprogram) goes through
        here, so an observed layer always reads as programmed.  Empty in
        fast mode.
        """
        if self._splits is None:
            ways = len(self._rank_slices)
            self._splits = [
                split_by_rank(
                    self._a_codes,
                    self._b_codes,
                    self.plan.protected_ranks,
                    noise=self.noise,
                    config=self.config,
                    mlc_cell=self.mlc_cell,
                    seed=self.seed if ways == 1 else self.seed + 104729 * (index + 1),
                    rank_range=(start, stop),
                    backend=self.backend,
                )
                for index, (start, stop) in enumerate(self._rank_slices)
                if self.mode == "crossbar"
            ]
        return self._splits

    @property
    def num_shards(self) -> int:
        """Number of tensor-parallel rank shards the layer runs as."""
        return len(self._rank_slices)

    def _record_shard_traffic(self, batch: int, calibrated: bool) -> None:
        """OCI cost of one sharded forward: stage-2 partial-sum aggregation
        (4 B INT32 partial sums per output element from every non-aggregating
        shard) plus, when activation scales are derived per call, the
        scalar absmax sync that keeps shard quantization coherent."""
        shards = self.num_shards
        if self._mesh is None or shards < 2:
            return
        self._mesh.record_partial_sum_aggregation(
            shards, float(batch) * self.out_features * 4
        )
        if not calibrated:
            self._mesh.record("oci", (shards - 1) * 8.0, transfers=shards - 1)

    # ------------------------------------------------------------------
    # Activation-scale calibration (serving deployment path)
    # ------------------------------------------------------------------
    def begin_calibration(self) -> None:
        """Start observing activation ranges (crossbar mode).

        While calibrating, forwards fall back to per-call scales and record
        the absolute max of layer inputs and stage-1 hidden activations.
        """
        self._calibrating = True
        self._x_absmax = 0.0
        self._h_absmax = 0.0

    def finish_calibration(self) -> None:
        """Freeze the observed ranges into reusable :class:`QuantParams`."""
        self._calibrating = False
        if self._x_absmax > 0.0:
            self._x_params = self._params_from_absmax(self._x_absmax)
            self._h_params = self._params_from_absmax(self._h_absmax)

    @staticmethod
    def _params_from_absmax(absmax: float) -> QuantParams:
        """Symmetric params covering [-absmax, absmax] at the shared
        ``_ACTIVATION_BITS`` width used by the crossbar quantize calls."""
        qmax = 2 ** (_ACTIVATION_BITS - 1) - 1
        return QuantParams(scale=max(absmax, 1e-12) / qmax, num_bits=_ACTIVATION_BITS)

    @property
    def is_calibrated(self) -> bool:
        """Whether frozen activation scales are in use."""
        return self._x_params is not None

    # ------------------------------------------------------------------
    def arrays_used(self) -> int:
        """Physical array footprint of the shards' SLC/MLC placement.

        The same in both modes: :func:`array_footprint` summed over every
        shard's :func:`rank_fragments`, which crossbar mode programs.
        """
        return sum(
            array_footprint(out_f, in_f, cell, self.config)
            for start, stop in self._rank_slices
            for _, out_f, in_f, cell in rank_fragments(
                self.plan.protected_ranks[start:stop],
                self.in_features,
                self.out_features,
                self.mlc_cell,
            )
        )

    def merged_stats(self) -> GemvStats:
        """Sum of every shard's GEMV statistics."""
        total = GemvStats()
        for split in self.program():
            total.merge(split.merged_stats())
        return total

    def shard_stats(self) -> list[GemvStats]:
        """Per-shard GEMV operation counts (crossbar mode).

        One entry per deployed shard (a single entry when unsharded); the
        serving engine threads these through to per-shard energy/latency
        accounting.
        """
        return [split.merged_stats() for split in self.program()]

    def reset_stats(self) -> None:
        """Zero the accumulated GEMV operation counts (crossbar mode).

        Used after deploy-time calibration so served-traffic accounting does
        not include the calibration forward.
        """
        for split in self.program():
            for mapped in (split.slc_a, split.mlc_a, split.slc_b, split.mlc_b):
                if mapped is not None:
                    mapped.stats = GemvStats()

    def wear_report(self) -> dict:
        """Per-member write-endurance consumption of this layer's tiles.

        One entry per hybrid-split member (``slc_a``/``mlc_a``/``slc_b``/
        ``mlc_b``) with the tile count and the worst wear fraction as read
        from the backend's :class:`~repro.rram.endurance.WearLedger` — the
        per-layer view :meth:`repro.serve.engine.ServingEngine.endurance_report`
        aggregates.  Empty members (fast mode, or all-SLC/all-MLC layers)
        are omitted; the top-level ``max_wear_fraction`` is 0.0 then.
        """
        members: dict[str, dict] = {}
        for split in self.program():
            mapped_members = (
                ("slc_a", split.slc_a),
                ("mlc_a", split.mlc_a),
                ("slc_b", split.slc_b),
                ("mlc_b", split.mlc_b),
            )
            for name, mapped in mapped_members:
                if mapped is None:
                    continue
                fraction = float(mapped.backend.wear_fraction(mapped._programmed._tile))
                entry = members.setdefault(name, {"tiles": 0, "max_wear_fraction": 0.0})
                entry["tiles"] += 1
                entry["max_wear_fraction"] = max(entry["max_wear_fraction"], fraction)
        return {
            "members": members,
            "max_wear_fraction": max(
                (entry["max_wear_fraction"] for entry in members.values()), default=0.0
            ),
        }

    # ------------------------------------------------------------------
    # Online recalibration hooks (drift detection + re-programming)
    # ------------------------------------------------------------------
    def probe_drift(self, probe_seed: int = 0) -> float:
        """Worst relative error of a deterministic probe GEMV (crossbar mode).

        Issues one fixed INT8 probe vector (derived from ``probe_seed`` and
        the layer seed, so repeated probes are comparable) through every
        deployed stage-1 matrix and compares the analog result against the
        exact integer GEMV.  Returns the maximum L1-relative error over the
        matrices — the drift signal :class:`~repro.serve.engine.ServingEngine`
        thresholds to decide when to recalibrate.  Probe traffic lands in
        the matrices' :class:`~repro.rram.crossbar.GemvStats` like any other
        GEMV (hardware really executes it).  Always 0.0 in ``fast`` mode
        (no backend to drift).
        """
        worst = 0.0
        rng = np.random.default_rng((int(probe_seed), self.seed, 0x9B0B))
        probe = rng.integers(-128, 128, size=(1, self.in_features))
        for split in self.program():
            for mapped in (split.slc_a, split.mlc_a):
                if mapped is None:
                    continue
                analog = np.asarray(mapped.gemv(probe), dtype=np.float64)
                ideal = np.asarray(mapped.ideal_gemv(probe), dtype=np.float64)
                denom = max(float(np.abs(ideal).sum()), 1.0)
                worst = max(worst, float(np.abs(analog - ideal).sum()) / denom)
        return worst

    def reprogram(self) -> int:
        """Re-write every deployed mapped matrix (crossbar mode).

        The recovery action against drifted or worn tiles: each matrix
        redraws its programming noise through its backend (resetting the
        drift clock), with the write traffic recorded in the backend's wear
        ledger and in ``stats.cells_reprogrammed``.  Returns the number of
        matrices re-written (0 in ``fast`` mode).
        """
        count = 0
        for split in self.program():
            for mapped in (split.slc_a, split.mlc_a, split.slc_b, split.mlc_b):
                if mapped is not None:
                    mapped.reprogram()
                    count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"HybridLinear(in={self.in_features}, out={self.out_features}, "
            f"rank={self.rank}, protected={self.plan.protected_ranks.sum()}, "
            f"mode={self.mode!r})"
        )


@dataclass(frozen=True)
class _Stage1:
    """The A-factors reading one quantized input, as one column stack."""

    stack: GemvStack  # one member: the A-factors side by side
    mapped: tuple[MappedMatrix, ...]  # the constituents' owners (stats sinks)
    columns: np.ndarray  # hidden column of each stack output
    a_scales: np.ndarray  # A-factor scale of each stack output's layer


@dataclass(frozen=True)
class _Stage2:
    """The SLC or the MLC B-factors, one member per (layer, shard)."""

    stack: GemvStack  # one member per B-factor
    mapped: tuple[MappedMatrix, ...]
    gather: np.ndarray  # (members, width) hidden columns; padding reads a zero column
    layers: np.ndarray  # layer of each run of members, runs in layer order
    starts: np.ndarray | None  # first member of each run; None when every run is one member


@dataclass(frozen=True)
class _Level:
    """The compiled op list of one sibling group's current shard plans."""

    splits: tuple[list, ...]  # the layers' programmed splits it was compiled from
    stage1: _Stage1
    stage2: tuple[_Stage2, ...]  # the protected (SLC) B-factors, then the MLC ones
    offsets: tuple[int, ...]  # each layer's first hidden column
    ranks: np.ndarray  # each layer's rank
    total_rank: int  # hidden columns of every layer together
    out_width: int  # the widest layer output


class SiblingGroup:
    """Crossbar :class:`HybridLinear` layers that read one input: one dependency level.

    A block's Q/K/V projections read the same activations, and so do a
    layer's tensor-parallel shards and its SLC and MLC arrays; on the
    hardware they all convert in the same analog wave.  The group runs
    the level in three kernel calls, whatever its layer count or
    tensor-parallel degree:

    1. the input is quantized once, and every A-factor reading it (each
       layer x shard x SLC/MLC) runs as one
       :class:`~repro.rram.kernels.GemvStack` member;
    2. each layer requantizes its hidden vector, and the B-factors run
       member-stacked, one call for the SLC and one for the MLC ones
       (member inputs are each shard's hidden slice);
    3. per layer, SLC then MLC partial sums add across shards in int64
       before the one float scaling.

    The op list is compiled from the layers' shard plans on first use and
    again whenever :meth:`HybridLinear.deploy` replaces one.  Precomputed
    int index arrays scatter stage-1 outputs into the hidden vectors and
    gather each stage-2 member's inputs.  Outputs, every
    :class:`~repro.rram.crossbar.GemvStats` and the mesh ledger are
    bitwise-equal to one GEMV per programmed matrix, layer by layer, with
    the same calibration.  Siblings that froze different input scales
    (calibrated apart) run one by one.
    """

    def __init__(self, layers) -> None:
        self.layers = tuple(layers)
        first = self.layers[0]
        shared = (first.in_features, first.config)
        if any(
            layer.mode != "crossbar" or (layer.in_features, layer.config) != shared
            for layer in self.layers
        ):
            raise ValueError("sibling layers must be crossbar-mode and share in_features and config")
        self._level: _Level | None = None

    def __call__(self, x) -> tuple[Tensor, ...]:
        """Every layer's forward of ``x``, in layer order."""
        data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=get_default_dtype())
        outs = self._forward(data.reshape(-1, data.shape[-1]))
        return tuple(layer._output(out, data.shape) for layer, out in zip(self.layers, outs))

    def level(self) -> _Level:
        """The op list of the layers' current shard plans.

        Compiled on first use and again whenever :meth:`HybridLinear.deploy`
        replaced a layer's shard plan.
        """
        level = self._level
        if level is not None and all(
            a is layer.program() for a, layer in zip(level.splits, self.layers)
        ):
            return level
        offsets = np.cumsum([0] + [layer.rank for layer in self.layers])
        entries = []
        stage2: tuple[list, list] = ([], [])  # SLC (protected) then MLC B-factors
        for index, layer in enumerate(self.layers):
            protected = layer.plan.protected_ranks
            for (start, stop), split in zip(layer._rank_slices, layer.program()):
                local = protected[start:stop]
                ranks = offsets[index] + np.arange(start, stop)
                for a, b, columns, role in (
                    (split.slc_a, split.slc_b, ranks[local], 0),
                    (split.mlc_a, split.mlc_b, ranks[~local], 1),
                ):
                    if a is not None:
                        entries.append((index, a, columns))
                    if b is not None:
                        stage2[role].append((index, b, columns))
        # Same-cell A-factors side by side recombine as one segment.
        entries.sort(key=lambda entry: entry[1].cell.bits)
        a_scales = [float(layer._a_params.scale) for layer in self.layers]
        stage1 = _Stage1(
            stack=GemvStack([[a._programmed for _, a, _ in entries]]),
            mapped=tuple(a for _, a, _ in entries),
            columns=np.concatenate([columns for _, _, columns in entries]),
            a_scales=np.concatenate(
                [np.full(len(columns), a_scales[index]) for index, _, columns in entries]
            ),
        )
        stacks = []
        for members in filter(None, stage2):
            gather = np.full((len(members), max(len(c) for _, _, c in members)), offsets[-1])
            for row, (_, _, columns) in enumerate(members):
                gather[row, : len(columns)] = columns
            owners = [index for index, _, _ in members]
            starts = [i for i, index in enumerate(owners) if i == 0 or owners[i - 1] != index]
            stacks.append(
                _Stage2(
                    stack=GemvStack([(b._programmed,) for _, b, _ in members]),
                    mapped=tuple(b for _, b, _ in members),
                    gather=gather,
                    layers=np.array([owners[i] for i in starts]),
                    starts=np.array(starts) if len(starts) < len(owners) else None,
                )
            )
        self._level = _Level(
            splits=tuple(layer.program() for layer in self.layers),
            stage1=stage1,
            stage2=tuple(stacks),
            offsets=tuple(int(o) for o in offsets[:-1]),
            ranks=np.diff(offsets),
            total_rank=int(offsets[-1]),
            out_width=max(layer.out_features for layer in self.layers),
        )
        return self._level

    def _forward(self, flat: np.ndarray) -> list[np.ndarray]:
        """Flattened outputs of every layer (before bias)."""
        level = self.level()
        layers = self.layers
        batch = flat.shape[0]
        dtype = get_default_dtype()  # buffers follow the tensor dtype policy

        # Stage 1: x (INT8) @ A^T.  Activations quantize as quantize() does:
        # float64 values over the frozen calibration scale or, per call (and
        # while calibrating), over their absmax.
        wide = np.asarray(flat, dtype=np.float64)
        x_absmax = float(np.abs(wide).max(initial=0.0))
        scales = {
            (layer._active_params("x") or HybridLinear._params_from_absmax(x_absmax)).scale
            for layer in layers
        }
        if len(scales) > 1:
            # Siblings froze different input scales, so their inputs differ.
            return [out for layer in layers for out in layer._group._forward(flat)]
        (scale,) = scales
        op = level.stage1
        out = run_gemv_stack(
            op.stack,
            _int8_codes(wide, scale)[None],
            _ACTIVATION_BITS,
            [a.stats for a in op.mapped],
        )[0]
        hidden = np.zeros((batch, level.total_rank), dtype=dtype)
        hidden[:, op.columns] = out * (np.asarray(scale) * op.a_scales)

        # Stage 2: each layer requantizes its hidden vector (INT8) with its
        # own scale; column ``total_rank`` of the codes is the zero padding
        # stage-2 gathers read.
        wide = np.asarray(hidden, dtype=np.float64)
        peaks, h_scales = [], []
        for layer, start in zip(layers, level.offsets):
            params = layer._active_params("h")  # None while calibrating
            peak = None
            if params is None:
                peak = float(np.abs(wide[:, start : start + layer.rank]).max(initial=0.0))
                params = HybridLinear._params_from_absmax(peak)
            peaks.append(peak)
            h_scales.append(params.scale)
        h_codes = np.zeros((batch, level.total_rank + 1), dtype=np.int64)
        h_codes[:, :-1] = _int8_codes(wide, np.repeat(h_scales, level.ranks))

        # Each shard turns its hidden slice into a partial sum of its
        # layer's output.  Per layer, the SLC and then the MLC partials add
        # across shards in int64 before the one float scaling.
        scale_out = np.array(h_scales) * np.array([float(l._b_params.scale) for l in layers])
        out_all = np.zeros((len(layers), batch, level.out_width), dtype=dtype)
        for op in level.stage2:
            out = run_gemv_stack(
                op.stack,
                h_codes[:, op.gather].transpose(1, 0, 2),
                _ACTIVATION_BITS,
                [b.stats for b in op.mapped],
            )
            if op.starts is not None:
                out = np.add.reduceat(out, op.starts, axis=0)
            scaled = out * scale_out[op.layers, None, None]
            if len(op.layers) == len(layers):
                out_all += scaled
            else:
                out_all[op.layers] += scaled

        for layer, peak in zip(layers, peaks):
            if layer._calibrating:
                layer._x_absmax = max(layer._x_absmax, x_absmax)
                layer._h_absmax = max(layer._h_absmax, peak)
            layer._record_shard_traffic(batch, layer._active_params("h") is not None)
        return [out[:, : layer.out_features] for out, layer in zip(out_all, layers)]


def calibrate_activations(layers, forward_fn) -> int:
    """Calibrate activation quant scales for deployed :class:`HybridLinear`\\ s.

    ``layers`` is any iterable of HybridLinear (or a name->layer mapping, as
    returned by :func:`attach_hybrid_layers`); ``forward_fn`` is a nullary
    callable that pushes representative traffic through the deployed model
    (e.g. a prefill over calibration prompts).  Afterwards every crossbar
    GEMV reuses the frozen scales instead of re-deriving them per call —
    the paper's deploy-time INT8 calibration, and the serving engine's way
    of keeping quantization behaviour independent of batch composition.

    Returns the number of layers that observed traffic and froze scales.
    """
    if isinstance(layers, dict):
        layers = list(layers.values())
    else:
        layers = list(layers)
    for layer in layers:
        layer.begin_calibration()
    try:
        forward_fn()
    finally:
        for layer in layers:
            layer.finish_calibration()
    return sum(1 for layer in layers if layer.is_calibrated)


def attach_hybrid_layers(
    model: Module,
    plans: dict[str, LayerPlan],
    noise: NoiseSpec = DEFAULT_NOISE,
    mode: str = "fast",
    mlc_cell: CellType = MLC2,
    seed: int = 0,
    backend: CrossbarBackend | None = None,
) -> dict[str, HybridLinear]:
    """Swap every planned layer of ``model`` for its PIM deployment form.

    ``model`` must expose ``replace_static_linear`` (all Transformer variants
    do); ``plans`` comes from the gradient-redistribution pipeline.
    ``noise`` defaults to ``DEFAULT_NOISE``; only ``NoiseSpec.noiseless()``
    is noiseless (``None`` also means ``DEFAULT_NOISE``).  ``backend``
    (crossbar mode) selects the execution target every layer programs
    onto — ``None`` uses the process-wide default
    (:func:`repro.rram.backend.get_default_backend`).  In crossbar mode
    each block's Q/K/V layers are linked as one :class:`SiblingGroup`
    (their ``siblings``), which attention runs as one call.
    """
    attached: dict[str, HybridLinear] = {}
    shared: dict[str, dict[str, HybridLinear]] = {}
    for name, plan in plans.items():
        layer = HybridLinear(
            plan,
            noise=noise,
            mode=mode,
            mlc_cell=mlc_cell,
            seed=seed + len(attached),
            backend=backend,
        )
        model.replace_static_linear(name, layer)
        attached[name] = layer
        prefix, _, leaf = name.rpartition(".")
        if mode == "crossbar" and leaf in _SHARED_INPUT:
            shared.setdefault(prefix, {})[leaf] = layer
    for siblings in shared.values():
        if len(siblings) == len(_SHARED_INPUT):
            group = SiblingGroup([siblings[leaf] for leaf in _SHARED_INPUT])
            for layer in group.layers:
                layer.siblings = group
    return attached
