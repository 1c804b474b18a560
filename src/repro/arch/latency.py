"""HyFlexPIM latency/throughput model (Figs. 16-17).

Analog linear layers advance in 100 ns "waves" — one input bit-plane per
wave, every array of a matrix converting in parallel — so one GEMV takes
``input_bits + 1`` waves regardless of matrix size.  Throughput is governed
by *array capacity*: weights are stationary, so the number of concurrent
token pipelines equals the ratio of available arrays to the arrays one model
copy occupies.  2-bit MLC halves a matrix's array footprint, which is
exactly how it doubles throughput at equal energy (Section 3.2).

The digital side (attention + SFU) provides a fixed operation rate per chip
(273 INT8 ops/cycle/module); whichever resource saturates first bounds
steady-state pipelined throughput.  Decode-mode generation is additionally
latency-bound because token ``t+1`` depends on token ``t``.
"""

from __future__ import annotations

from repro.arch.config import DEFAULT_HARDWARE, HardwareConfig
from repro.models.configs import ModelSpec
from repro.rram.cell import CELL_TYPES
from repro.rram.crossbar import CrossbarConfig
from repro.rram.mapping import array_footprint
from repro.svd.decompose import hard_threshold_rank

__all__ = ["HyFlexPimLatencyModel", "gemv_wave_ns"]

#: Dependent GEMV stages per token per layer: the QKV projections share
#: waves (their A-factors read the same input), then proj, FFN1, FFN2 —
#: each a factored (A then B) pair.
GEMV_STAGES_PER_LAYER = 4 * 2

_CELLS_BY_BITS = {cell.bits: cell for cell in CELL_TYPES.values()}


def gemv_wave_ns(input_bits: int, conversion_window_ns: float) -> float:
    """Pipelined latency of one bit-serial GEMV wave (Section 5.4), in ns.

    Each input-bit cycle the crossbar reads while the previous cycle's
    bitline samples convert in the shared ADC, one conversion window per
    cycle, plus one window to drain the ADC pipeline.  Row tiles sit on
    different arrays with their own ADCs, so they convert concurrently and
    do not lengthen the wave.
    """
    return (input_bits + 1) * conversion_window_ns


class HyFlexPimLatencyModel:
    """Per-token latency and chip throughput of HyFlexPIM."""

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        attention_time_factor: float = 1.0,
    ) -> None:
        self.hw = hardware or DEFAULT_HARDWARE
        self._array = CrossbarConfig(rows=self.hw.array_rows, cols=self.hw.array_cols)
        #: >1 models baselines with slower attention (e.g. ASADI's FP32).
        self.attention_time_factor = attention_time_factor

    # ------------------------------------------------------------------
    # Array demand
    # ------------------------------------------------------------------
    def _arrays_for(self, out_f: int, in_f: int, cell_bits: int) -> int:
        """:func:`~repro.rram.mapping.array_footprint` on this hardware's arrays."""
        cell = _CELLS_BY_BITS[cell_bits]
        return array_footprint(out_f, in_f, cell, self._array, self.hw.weight_bits)

    def layer_array_demand(self, spec: ModelSpec, slc_rate: float) -> int:
        """Analog arrays one hybrid factored layer occupies."""
        d, ff = spec.d_model, spec.d_ff
        arrays = 0
        for out_f, in_f in [(d, d)] * 4 + [(ff, d), (d, ff)]:
            k = hard_threshold_rank(out_f, in_f)
            k_slc = int(round(k * slc_rate))
            k_mlc = k - k_slc
            if k_slc:
                arrays += self._arrays_for(k_slc, in_f, 1)
                arrays += self._arrays_for(out_f, k_slc, 1)
            if k_mlc:
                arrays += self._arrays_for(k_mlc, in_f, 2)
                arrays += self._arrays_for(out_f, k_mlc, 2)
        return arrays

    def dense_layer_array_demand(self, spec: ModelSpec, cell_bits: int = 1) -> int:
        """Arrays for a dense (unfactored) layer — the ASADI mapping."""
        d, ff = spec.d_model, spec.d_ff
        return sum(
            self._arrays_for(out_f, in_f, cell_bits)
            for out_f, in_f in [(d, d)] * 4 + [(ff, d), (d, ff)]
        )

    # ------------------------------------------------------------------
    # Stage latency
    # ------------------------------------------------------------------
    def gemv_wave_s(self) -> float:
        """Seconds for one bit-serial GEMV wave (:func:`gemv_wave_ns`)."""
        return gemv_wave_ns(self.hw.input_bits, self.hw.conversion_window_ns) * 1e-9

    # ------------------------------------------------------------------
    # Throughput
    # ------------------------------------------------------------------
    def model_array_demand(
        self, spec: ModelSpec, slc_rate: float, dense: bool = False
    ) -> int:
        per_layer = (
            self.dense_layer_array_demand(spec)
            if dense
            else self.layer_array_demand(spec, slc_rate)
        )
        return per_layer * spec.num_layers

    def tokens_per_second(
        self,
        spec: ModelSpec,
        seq_len: int,
        slc_rate: float,
        num_chips: int = 1,
        dense: bool = False,
    ) -> float:
        """Steady-state pipelined throughput (prefill / streamed inputs).

        ``dense=True`` evaluates the unfactored SLC-only mapping (ASADI†'s
        analog path) on the same hardware.
        """
        hw = self.hw
        demand = self.model_array_demand(spec, slc_rate, dense=dense)
        budget = num_chips * hw.num_pus * hw.analog_arrays_per_pu()
        # Concurrent token pipelines the resident weights can sustain; a
        # model bigger than the budget time-multiplexes (< 1).
        concurrency = budget / demand
        # Each pipeline (one resident model copy) emits one token per stage
        # window in steady state; layer depth adds latency, not rate.
        analog_rate = concurrency / (GEMV_STAGES_PER_LAYER * self.gemv_wave_s())

        attn_macs_per_token = 2.0 * seq_len * spec.d_model * spec.num_layers
        digital_rate_ops = (
            hw.digital_ops_per_cycle_per_module()
            * hw.digital.modules_per_pu
            * hw.num_pus
            * num_chips
            * hw.clock_hz
        )
        digital_rate = digital_rate_ops / (self.attention_time_factor * attn_macs_per_token)

        sfu_elems_per_token = (
            spec.num_heads * seq_len + 2 * spec.d_model * 7
        ) * spec.num_layers
        sfu_rate = (
            256 * hw.clock_hz * hw.digital.modules_per_pu * hw.num_pus * num_chips
        ) / sfu_elems_per_token

        return min(analog_rate, digital_rate, sfu_rate)

    def inference_time_s(
        self,
        spec: ModelSpec,
        seq_len: int,
        slc_rate: float,
        num_chips: int = 1,
        dense: bool = False,
        mode: str = "prefill",
    ) -> float:
        """Time to process (prefill) or generate (decode) ``seq_len`` tokens."""
        if mode not in ("prefill", "decode"):
            raise ValueError(f"mode must be 'prefill' or 'decode', got {mode!r}")
        # PIM weights are resident, so prefill and decode share the same
        # pipelined throughput ("the PIM operations remain the same",
        # Section 3.3); concurrent generation streams keep the pipeline full.
        rate = self.tokens_per_second(spec, seq_len, slc_rate, num_chips, dense)
        return seq_len / rate
