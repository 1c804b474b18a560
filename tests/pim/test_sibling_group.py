"""SiblingGroup: one dependency level in three kernel calls, bitwise.

Layers that read one input (a block's Q/K/V projections) run as a
:class:`~repro.pim.hybrid.SiblingGroup`: one column-stacked stage-1 call
over every A-factor (each layer x tensor-parallel shard x SLC/MLC) and one
member-stacked stage-2 call for the SLC and one for the MLC B-factors.
The spec is each layer's forward as one call per programmed matrix under
``KernelPolicy(mode="reference")`` (:func:`~repro.rram.kernels.
reference_gemv` on every matrix; the test spells it out, sharing no host
code with the group), and a layer's own forward is its one-layer group.
The group must equal the spec bitwise: outputs, every
compare=True ``GemvStats`` field of every ``MappedMatrix``, calibration
observations and the mesh traffic ledger — across cell types, tensor
parallelism, noise and calibration states, with members missing, on
saturating tiles and across fault-clock epochs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DeviceMesh
from repro.nn import DecoderLM, TransformerConfig
from repro.nn.attention import MultiHeadAttention
from repro.nn.tensor import Tensor, default_dtype, get_default_dtype
from repro.pim.hybrid import HybridLinear, SiblingGroup, attach_hybrid_layers
from repro.quant.quantizer import quantize
from repro.rram import FaultModel, FaultySimBackend, KernelPolicy, kernel_policy
from repro.rram.cell import CELL_TYPES
from repro.rram.crossbar import CrossbarConfig
from repro.rram.noise import DEFAULT_NOISE, NoiseSpec
from repro.svd.pipeline import LayerPlan

IN, OUT, RANK = 24, 20, 12
REFERENCE = KernelPolicy(mode="reference")
#: SLC/MLC2 run the paper's arrays; 16-row arrays keep MLC3/MLC4 inside a
#: 7-bit ADC (and split the 24 inputs over two row tiles).
CELL_CONFIGS = {
    "SLC": CrossbarConfig(),
    "MLC2": CrossbarConfig(),
    "MLC3": CrossbarConfig(rows=16, cols=32),
    "MLC4": CrossbarConfig(rows=16, cols=32),
}
#: 4-row arrays saturate SLC bitlines (full scale 3) and MLC2 ones (7).
SATURATING = CrossbarConfig(rows=4, cols=32)
NOISES = {"noiseless": NoiseSpec.noiseless(), "noisy": DEFAULT_NOISE}


def _plan(index: int, protected: int) -> LayerPlan:
    """A layer plan whose protected ranks are scattered, not a prefix."""
    rng = np.random.default_rng(100 + index)
    mask = np.zeros(RANK, dtype=bool)
    mask[rng.permutation(RANK)[:protected]] = True
    return LayerPlan(
        name=f"blocks.0.w{index}",
        a_matrix=rng.normal(size=(RANK, IN)) / np.sqrt(IN),
        b_matrix=rng.normal(size=(OUT, RANK)) / np.sqrt(RANK),
        bias=rng.normal(size=OUT),
        protected_ranks=mask,
        sigma_gradients=rng.random(RANK),
    )


def _layers(cell="MLC2", ways=1, noise="noisy", protected=(3, 5, 7), config=None, backend=None):
    """Three sibling crossbar layers (fresh programming), plus their mesh."""
    mesh = DeviceMesh() if ways > 1 else None
    layers = [
        HybridLinear(
            _plan(index, count),
            noise=NOISES[noise],
            mode="crossbar",
            mlc_cell=CELL_TYPES[cell],
            config=config or CELL_CONFIGS[cell],
            seed=11 + index,
            backend=backend,
        )
        for index, count in enumerate(protected)
    ]
    if mesh is not None:
        for layer in layers:
            layer.deploy(mesh, tensor_parallel=ways)
    return layers, mesh


def _x(seed: int, shape=(5, IN)) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


def _grouped(layers, x):
    return [out.data for out in SiblingGroup(layers)(x)]


def _spec_forward(layer: HybridLinear, x: np.ndarray) -> np.ndarray:
    """A layer's crossbar forward, one reference GEMV per programmed matrix.

    Written against ``MappedMatrix.gemv`` and :func:`quantize` alone, so it
    shares no host code with :class:`SiblingGroup`: INT8 input, stage 1 on
    every shard's SLC and MLC A-factor into the hidden vector, requantize,
    stage 2 per shard, SLC then MLC partial sums added in int64 before the
    float scaling, calibration observations and the OCI ledger.
    """
    flat = x.reshape(-1, x.shape[-1]).astype(get_default_dtype())
    protected = layer.plan.protected_ranks
    x_codes, x_params = quantize(flat, num_bits=8, params=layer._active_params("x"))
    scale_in = np.asarray(x_params.scale) * np.asarray(layer._a_params.scale)
    hidden = np.zeros((flat.shape[0], layer.rank), dtype=get_default_dtype())
    shards = list(zip(layer._rank_slices, layer._splits))
    for (start, stop), split in shards:
        local, view = protected[start:stop], hidden[:, start:stop]
        for mapped, columns in ((split.slc_a, local), (split.mlc_a, ~local)):
            if mapped is not None:
                view[:, columns] = mapped.gemv(x_codes) * scale_in
    h_codes, h_params = quantize(hidden, num_bits=8, params=layer._active_params("h"))
    scale_out = np.asarray(h_params.scale) * np.asarray(layer._b_params.scale)
    sums = [None, None]
    for (start, stop), split in shards:
        local, h_local = protected[start:stop], h_codes[:, start:stop]
        for slot, mapped, columns in ((0, split.slc_b, local), (1, split.mlc_b, ~local)):
            if mapped is not None:
                part = mapped.gemv(h_local[:, columns])
                sums[slot] = part if sums[slot] is None else sums[slot] + part
    out = np.zeros((flat.shape[0], layer.out_features), dtype=get_default_dtype())
    for partial in sums:
        if partial is not None:
            out += partial * scale_out
    if layer._calibrating:
        layer._x_absmax = max(layer._x_absmax, float(np.abs(flat).max(initial=0.0)))
        layer._h_absmax = max(layer._h_absmax, float(np.abs(hidden).max(initial=0.0)))
    layer._record_shard_traffic(flat.shape[0], layer._active_params("h") is not None)
    out = out + layer.plan.bias
    return Tensor(out.reshape(x.shape[:-1] + (layer.out_features,))).data


def _per_layer(layers, x):
    with kernel_policy(REFERENCE):
        return [_spec_forward(layer, x) for layer in layers]


def _calibrate(layers, run, x):
    for layer in layers:
        layer.begin_calibration()
    run(layers, x)
    for layer in layers:
        layer.finish_calibration()


def _mapped(layers):
    return [
        mapped
        for layer in layers
        for split in layer._splits
        for mapped in (split.slc_a, split.mlc_a, split.slc_b, split.mlc_b)
        if mapped is not None
    ]


def _ledger(mesh):
    if mesh is None:
        return {}
    return {
        name: (link.transfers, link.num_bytes, link.cycles)
        for name, link in sorted(mesh.traffic.items())
    }


def _assert_equal_twins(grouped, reference, outs, expected):
    (g_layers, g_mesh), (r_layers, r_mesh) = grouped, reference
    assert len(outs) == len(expected)
    for out, want in zip(outs, expected):
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out, want)
    g_mapped, r_mapped = _mapped(g_layers), _mapped(r_layers)
    assert len(g_mapped) == len(r_mapped)
    for g, r in zip(g_mapped, r_mapped):
        assert g.stats == r.stats  # every compare=True GemvStats field
    assert _ledger(g_mesh) == _ledger(r_mesh)
    for g, r in zip(g_layers, r_layers):
        assert (g._x_absmax, g._h_absmax) == (r._x_absmax, r._h_absmax)
        assert (g._x_params, g._h_params) == (r._x_params, r._h_params)


def _compare(state, **deployment):
    """Group vs per-layer spec on twin deployments in calibration ``state``."""
    grouped, reference = _layers(**deployment), _layers(**deployment)
    x = _x(1, shape=(2, 3, IN))
    if state == "calibrated":
        _calibrate(grouped[0], _grouped, _x(2))
        _calibrate(reference[0], _per_layer, _x(2))
    for pair in (grouped, reference):
        if state == "calibrating":
            for layer in pair[0]:
                layer.begin_calibration()
    outs, expected = _grouped(grouped[0], x), _per_layer(reference[0], x)
    _assert_equal_twins(grouped, reference, outs, expected)
    return grouped, reference


class TestGroupEqualsPerLayerSpec:
    @pytest.mark.parametrize("ways", [1, 2])
    def test_a_layers_own_forward_is_its_one_layer_group(self, ways):
        grouped, reference = _layers(ways=ways), _layers(ways=ways)
        x = _x(7)
        outs = [layer(x).data for layer in grouped[0]]
        _assert_equal_twins(grouped, reference, outs, _per_layer(reference[0], x))

    @pytest.mark.parametrize("ways", [1, 2])
    def test_float32_buffers_add_slc_then_mlc(self, ways):
        """Under a float32 tensor policy the SLC and MLC partials round
        separately, in that order, as in a lone layer's forward."""
        with default_dtype("float32"):
            _compare("calibrated", ways=ways, protected=(4, 6, 5))

    @pytest.mark.parametrize("state", ["uncalibrated", "calibrating", "calibrated"])
    @pytest.mark.parametrize("noise", ["noiseless", "noisy"])
    @pytest.mark.parametrize("ways", [1, 2, 4])
    @pytest.mark.parametrize("cell", ["SLC", "MLC2", "MLC3", "MLC4"])
    def test_grid(self, cell, ways, noise, state):
        _compare(state, cell=cell, ways=ways, noise=noise)

    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize("noise", ["noiseless", "noisy"])
    def test_all_slc_and_all_mlc_layers(self, ways, noise):
        """An all-MLC, an all-SLC and a mixed layer: members go missing."""
        grouped, _ = _compare("calibrated", ways=ways, noise=noise, protected=(0, RANK, 4))
        layers = grouped[0]
        assert all(split.slc_a is None for split in layers[0]._splits)
        assert all(split.mlc_a is None for split in layers[1]._splits)

    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize("noise", ["noiseless", "noisy"])
    def test_saturating_tiles_count_per_constituent(self, ways, noise):
        """SLC and MLC columns of one stage-1 tile clip at their own full
        scale; each constituent counts its own saturations."""
        grouped, _ = _compare("calibrated", ways=ways, noise=noise, config=SATURATING)
        saturated = {
            cell.name: sum(m.stats.saturated_conversions for m in _mapped(grouped[0]) if m.cell is cell)
            for cell in (CELL_TYPES["SLC"], CELL_TYPES["MLC2"])
        }
        assert all(count > 0 for count in saturated.values()), saturated

    def test_fault_clock_and_reprogram_rebuild_the_stacked_cells(self):
        fault = FaultModel(drift_nu=0.1, temperature_c=60.0, temp_sigma_per_c=0.002)
        backends = [FaultySimBackend(fault, seed=5), FaultySimBackend(fault, seed=5)]
        grouped, reference = (_layers(ways=2, backend=b) for b in backends)
        group = SiblingGroup(grouped[0])  # one group: its stacks persist
        x = _x(3)

        def forward():
            return [out.data for out in group(x)]

        before = forward()
        _per_layer(reference[0], x)
        for backend in backends:
            backend.advance(seconds=30 * 86_400.0)
        drifted = forward()
        _assert_equal_twins(grouped, reference, drifted, _per_layer(reference[0], x))
        assert not all(np.array_equal(a, b) for a, b in zip(before, drifted))
        for pair in (grouped, reference):
            pair[0][1].reprogram()
        _assert_equal_twins(grouped, reference, forward(), _per_layer(reference[0], x))

    def test_siblings_calibrated_apart_run_one_by_one(self):
        """Layers that froze different input scales share no input."""
        grouped, reference = _layers(ways=2), _layers(ways=2)
        for pair, run in ((grouped, _grouped), (reference, _per_layer)):
            for index, layer in enumerate(pair[0]):
                _calibrate([layer], run, _x(10 + index))
        assert len({layer._x_params.scale for layer in grouped[0]}) == 3
        x = _x(8)
        _assert_equal_twins(grouped, reference, _grouped(grouped[0], x), _per_layer(reference[0], x))

    def test_redeploy_recompiles_the_level(self):
        grouped, reference = _layers(), _layers()
        group = SiblingGroup(grouped[0])
        x = _x(4)
        group(x)
        _per_layer(reference[0], x)
        mesh_g, mesh_r = DeviceMesh(), DeviceMesh()
        for layers, mesh in ((grouped[0], mesh_g), (reference[0], mesh_r)):
            for layer in layers:
                layer.deploy(mesh, tensor_parallel=2)
        outs = [out.data for out in group(x)]
        _assert_equal_twins((grouped[0], mesh_g), (reference[0], mesh_r), outs, _per_layer(reference[0], x))

    def test_rejects_layers_that_cannot_share_a_pass(self):
        layers, _ = _layers()
        fast = HybridLinear(_plan(0, 3), mode="fast")
        with pytest.raises(ValueError):
            SiblingGroup([layers[0], fast])
        other = HybridLinear(_plan(1, 3), mode="crossbar", config=CrossbarConfig(rows=32))
        with pytest.raises(ValueError):
            SiblingGroup([layers[0], other])


def _lm() -> DecoderLM:
    return DecoderLM(
        TransformerConfig(vocab_size=16, d_model=8, num_heads=2, num_layers=2, d_ff=16, seed=3)
    )


def _lm_plans(lm: DecoderLM) -> dict[str, LayerPlan]:
    rng = np.random.default_rng(3)
    plans = {}
    for name, linear in lm.iter_static_linears():
        out_f, in_f = linear.weight.data.shape
        rank = min(out_f, in_f)
        plans[name] = LayerPlan(
            name=name,
            a_matrix=rng.normal(size=(rank, in_f)) / np.sqrt(in_f),
            b_matrix=rng.normal(size=(out_f, rank)) / np.sqrt(rank),
            bias=None,
            protected_ranks=rng.random(rank) < 0.5,
            sigma_gradients=rng.random(rank),
        )
    return plans


class TestQkvWiring:
    def test_crossbar_attach_links_each_blocks_qkv(self):
        lm = _lm()
        attach_hybrid_layers(lm, _lm_plans(lm), mode="crossbar")
        for block in lm.blocks:
            attn = block.attn
            group = attn.w_q.siblings
            assert group is not None and group.layers == (attn.w_q, attn.w_k, attn.w_v)
            assert attn.w_k.siblings is group and attn.w_v.siblings is group
            assert attn.w_proj.siblings is None and block.ffn.ffn1.siblings is None

    def test_fast_mode_keeps_per_layer_forwards(self):
        lm = _lm()
        attach_hybrid_layers(lm, _lm_plans(lm), mode="fast")
        assert all(block.attn.w_q.siblings is None for block in lm.blocks)

    def test_attention_projects_through_the_group(self, monkeypatch):
        """One group call replaces three projections, with equal outputs."""
        lm = _lm()
        attach_hybrid_layers(lm, _lm_plans(lm), mode="crossbar")
        attn = lm.blocks[0].attn
        x = _x(5, shape=(2, 3, 8))
        calls = []
        original = SiblingGroup.__call__
        monkeypatch.setattr(
            SiblingGroup, "__call__", lambda self, v: calls.append(self) or original(self, v)
        )
        fused = attn._project_qkv(x)
        assert calls == [attn.w_q.siblings]
        with kernel_policy(REFERENCE):
            separate = [proj(x) for proj in (attn.w_q, attn.w_k, attn.w_v)]
        for a, b in zip(fused, separate):
            np.testing.assert_array_equal(a.data, b.data)

    def test_host_projections_fall_back_to_three_calls(self):
        attn = MultiHeadAttention(8, 2, causal=True)
        x = Tensor(_x(6, shape=(1, 2, 8)))
        q, k, v = attn._project_qkv(x)
        np.testing.assert_allclose(q.data, attn.w_q(x).data)
        np.testing.assert_allclose(v.data, attn.w_v(x).data)
