"""Tests for HybridLinear: the hybrid SLC/MLC deployment layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.pim import HybridLinear, attach_hybrid_layers
from repro.rram import NoiseSpec
from repro.svd.pipeline import LayerPlan


def make_plan(rank: int, in_f: int, out_f: int, protect: int, rng, bias=True) -> LayerPlan:
    mask = np.zeros(rank, dtype=bool)
    mask[:protect] = True
    return LayerPlan(
        name="blocks.0.w_q",
        a_matrix=rng.normal(size=(rank, in_f)) / np.sqrt(in_f),
        b_matrix=rng.normal(size=(out_f, rank)) / np.sqrt(rank),
        bias=np.zeros(out_f) if bias else None,
        protected_ranks=mask,
        sigma_gradients=rng.random(rank),
    )


def reference_output(plan: LayerPlan, x: np.ndarray) -> np.ndarray:
    out = (x @ plan.a_matrix.T) @ plan.b_matrix.T
    if plan.bias is not None:
        out = out + plan.bias
    return out


class TestConstruction:
    def test_mode_validation(self, rng):
        plan = make_plan(8, 16, 16, 2, rng)
        with pytest.raises(ValueError):
            HybridLinear(plan, mode="analog")

    def test_repr_mentions_protection(self, rng):
        layer = HybridLinear(make_plan(8, 16, 16, 3, rng))
        assert "protected=3" in repr(layer)

    def test_arrays_used_positive_both_modes(self, rng):
        plan = make_plan(8, 64, 64, 2, rng)
        fast = HybridLinear(plan, mode="fast")
        xbar = HybridLinear(plan, mode="crossbar")
        assert fast.arrays_used() == xbar.arrays_used() > 0


class TestNoiselessAgreement:
    @pytest.mark.parametrize("mode", ["fast", "crossbar"])
    def test_matches_float_reference_without_noise(self, mode, rng):
        plan = make_plan(8, 32, 24, 2, rng)
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode=mode)
        x = rng.normal(size=(5, 32))
        out = layer(Tensor(x)).data
        ref = reference_output(plan, x)
        # Only INT8 quantization separates the two paths.
        rel = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert rel < 0.05

    def test_fast_and_crossbar_agree_noiseless(self, rng):
        plan = make_plan(8, 32, 24, 2, rng)
        spec = NoiseSpec.noiseless()
        fast = HybridLinear(plan, noise=spec, mode="fast")
        xbar = HybridLinear(plan, noise=spec, mode="crossbar")
        x = rng.normal(size=(4, 32))
        a, b = fast(Tensor(x)).data, xbar(Tensor(x)).data
        # Crossbar mode adds a second INT8 requantization of the hidden
        # activations; agreement is within quantization tolerance.
        rel = np.abs(a - b).mean() / (np.abs(a).mean() + 1e-12)
        assert rel < 0.05


class TestNoiseDefault:
    def test_signatures_spell_the_default(self):
        import inspect

        from repro.rram import DEFAULT_NOISE
        from repro.serve import ServingEngine

        for fn in (HybridLinear, attach_hybrid_layers, ServingEngine.deploy):
            assert inspect.signature(fn).parameters["noise"].default is DEFAULT_NOISE

    @pytest.mark.parametrize("mode", ["fast", "crossbar"])
    def test_explicit_none_still_means_the_default(self, rng, mode):
        from repro.rram import DEFAULT_NOISE

        plan = make_plan(8, 16, 12, 2, rng)
        x = Tensor(rng.normal(size=(3, 16)))
        default = HybridLinear(plan, mode=mode, seed=4)
        explicit_none = HybridLinear(plan, noise=None, mode=mode, seed=4)
        assert explicit_none.noise is DEFAULT_NOISE
        np.testing.assert_array_equal(explicit_none(x).data, default(x).data)


class TestNoiseBehaviour:
    def test_protection_improves_fidelity(self, rng):
        """More SLC-protected ranks => smaller deviation from the reference.

        This is the layer-level mechanism behind Fig. 12's accuracy-vs-SLC
        trend."""
        x = rng.normal(size=(64, 32))
        errors = []
        for protect in (0, 4, 8):
            gen = np.random.default_rng(0)
            plan = make_plan(8, 32, 24, protect, gen)
            layer = HybridLinear(plan, mode="fast", seed=1)
            out = layer(Tensor(x)).data
            ref = reference_output(plan, x)
            errors.append(np.abs(out - ref).mean())
        assert errors[0] > errors[1] > errors[2]

    def test_full_protection_close_to_reference(self, rng):
        plan = make_plan(8, 32, 24, 8, rng)
        layer = HybridLinear(plan, mode="fast")
        x = rng.normal(size=(16, 32))
        out = layer(Tensor(x)).data
        ref = reference_output(plan, x)
        rel = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert rel < 0.05

    def test_noise_frozen_across_calls(self, rng):
        plan = make_plan(8, 16, 16, 2, rng)
        layer = HybridLinear(plan, mode="fast")
        x = rng.normal(size=(2, 16))
        np.testing.assert_array_equal(layer(Tensor(x)).data, layer(Tensor(x)).data)

    def test_crossbar_mode_noise_frozen(self, rng):
        plan = make_plan(8, 32, 16, 2, rng)
        layer = HybridLinear(plan, mode="crossbar")
        x = rng.normal(size=(2, 32))
        np.testing.assert_array_equal(layer(Tensor(x)).data, layer(Tensor(x)).data)

    def test_seeds_change_noise(self, rng):
        plan = make_plan(8, 16, 16, 2, rng)
        x = rng.normal(size=(2, 16))
        a = HybridLinear(plan, mode="fast", seed=1)(Tensor(x)).data
        b = HybridLinear(plan, mode="fast", seed=2)(Tensor(x)).data
        assert not np.array_equal(a, b)

    def test_fast_and_crossbar_error_comparable(self, rng):
        """The fast weight-noise path must not be wildly optimistic or
        pessimistic versus the full bit-serial simulation."""
        x = rng.normal(size=(64, 32))
        plan = make_plan(8, 32, 24, 2, rng)
        ref = reference_output(plan, x)
        errs = {}
        for mode in ("fast", "crossbar"):
            layer = HybridLinear(plan, mode=mode, seed=3)
            out = layer(Tensor(x)).data
            errs[mode] = np.abs(out - ref).mean() / np.abs(ref).mean()
        ratio = errs["crossbar"] / errs["fast"]
        assert 0.2 < ratio < 5.0, f"mode mismatch: {errs}"


class TestModelAttachment:
    def test_attach_replaces_layers(self, rng):
        from repro.nn import EncoderClassifier, TransformerConfig
        from repro.svd import GradientRedistributionPipeline
        from repro.datasets import make_glue_task

        data = make_glue_task("rte", seed=0)
        config = TransformerConfig(
            vocab_size=data.spec.vocab_size,
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
            max_seq_len=data.spec.seq_len,
            num_classes=2,
        )
        model = EncoderClassifier(config)
        pipeline = GradientRedistributionPipeline(protect_fraction=0.25, epochs=1, batch_size=64)
        plan = pipeline.run(model, data.train, task_type="classification")

        # Deployment replaces the fine-tuned SVD layers in the same model;
        # embeddings/head keep their fine-tuned weights.
        deployed = model
        attached = attach_hybrid_layers(deployed, plan.layers, mode="fast")
        assert len(attached) == 6
        for _, layer in deployed.iter_static_linears():
            assert isinstance(layer, HybridLinear)
        logits = deployed(data.test.inputs[:4])
        assert logits.shape == (4, 2)

    def test_no_bias_plan(self, rng):
        plan = make_plan(4, 8, 8, 1, rng, bias=False)
        layer = HybridLinear(plan, mode="fast")
        out = layer(Tensor(rng.normal(size=(2, 8))))
        assert out.shape == (2, 8)


class TestArraysUsedCaching:
    def test_idempotent_and_mode_consistent(self, rng):
        plan = make_plan(8, 64, 64, 3, rng)
        fast = HybridLinear(plan, mode="fast")
        xbar = HybridLinear(plan, mode="crossbar")
        first = fast.arrays_used()
        assert first == fast.arrays_used() == xbar.arrays_used()

    def test_fast_mode_does_not_reprogram_crossbars(self, rng, monkeypatch):
        """The footprint is analytic: no split_by_rank (and no noise draws)."""
        import repro.pim.hybrid as hybrid_module

        plan = make_plan(8, 64, 64, 2, rng)
        layer = HybridLinear(plan, mode="fast")

        def boom(*args, **kwargs):
            raise AssertionError("arrays_used() must not re-run split_by_rank")

        monkeypatch.setattr(hybrid_module, "split_by_rank", boom)
        assert layer.arrays_used() > 0
        assert layer.arrays_used() == layer.arrays_used()

    def test_all_protection_extremes(self, rng):
        for protect in (0, 8):
            plan = make_plan(8, 64, 64, protect, rng)
            fast = HybridLinear(plan, mode="fast")
            xbar = HybridLinear(plan, mode="crossbar")
            assert fast.arrays_used() == xbar.arrays_used() > 0


class TestProgramOnce:
    """A crossbar layer is programmed at one site, on first use."""

    @staticmethod
    def _layer(rng):
        from repro.rram.backend import SimBackend

        backend = SimBackend()
        plan = make_plan(16, 32, 24, 5, rng)
        return HybridLinear(plan, mode="crossbar", backend=backend), backend

    @staticmethod
    def _fragments(layer) -> int:
        from repro.rram.mapping import rank_fragments

        return sum(
            len(rank_fragments(layer.plan.protected_ranks[start:stop], 32, 24))
            for start, stop in layer._rank_slices
        )

    @pytest.mark.parametrize("read", ["forward", "merged_stats"])
    def test_construction_programs_nothing_until_first_read(self, rng, read):
        layer, backend = self._layer(rng)
        assert layer.arrays_used() > 0  # analytic: no crossbar written
        assert backend.health_report()["programs"] == 0
        if read == "forward":
            layer(Tensor(rng.normal(size=(2, 32))))
        else:
            layer.merged_stats()
        assert backend.health_report()["programs"] == self._fragments(layer) == 4
        layer(Tensor(rng.normal(size=(2, 32))))
        assert backend.health_report()["programs"] == 4

    def test_redeployed_layer_frees_its_first_tiles(self, rng):
        """Tiles no layer holds are freed; the ledger keeps counting them."""
        import gc
        import weakref

        from repro.dist import DeviceMesh

        layer, backend = self._layer(rng)
        x = Tensor(rng.normal(size=(3, 32)))
        layer(x)
        first = [
            weakref.ref(m._programmed._tile)
            for split in layer.program()
            for m in (split.slc_a, split.mlc_a, split.slc_b, split.mlc_b)
            if m is not None
        ]
        assert len(first) == backend.health_report()["tiles"] == 4
        layer.deploy(DeviceMesh(), tensor_parallel=2)
        layer(x)
        gc.collect()
        assert all(ref() is None for ref in first)
        report = backend.health_report()
        assert report["tiles"] == self._fragments(layer) > 4
        assert report["programs"] == 4 + self._fragments(layer)

    def test_deploy_then_forward_programs_each_fragment_once(self, rng):
        from repro.dist import DeviceMesh

        layer, backend = self._layer(rng)
        assert len(layer.deploy(DeviceMesh(), tensor_parallel=4)) == 4
        assert backend.health_report()["programs"] == 0
        x = Tensor(rng.normal(size=(3, 32)))
        first = layer(x).data
        expected = self._fragments(layer)
        assert backend.health_report()["programs"] == expected > 4
        np.testing.assert_array_equal(layer(x).data, first)
        layer.shard_stats()
        layer.wear_report()
        layer.probe_drift()
        assert backend.health_report()["programs"] == expected
        assert layer.reprogram() == expected
        assert backend.health_report()["reprograms"] == expected


class TestCrossbarDtypePolicy:
    def test_buffers_follow_default_dtype(self, rng):
        """_forward_crossbar intermediates obey set_default_dtype (PR 2)."""
        from repro.nn import set_default_dtype

        plan = make_plan(8, 32, 24, 2, rng)
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        x = rng.normal(size=(3, 32))
        out64 = layer(Tensor(x)).data
        assert out64.dtype == np.dtype("float64")
        prev = set_default_dtype("float32")
        try:
            out32 = layer(Tensor(x.astype(np.float32))).data
        finally:
            set_default_dtype(prev)
        assert out32.dtype == np.dtype("float32")
        np.testing.assert_allclose(out32, out64, rtol=1e-4, atol=1e-4)


class TestActivationCalibration:
    def test_calibrated_scales_are_frozen_and_reused(self, rng):
        from repro.pim import calibrate_activations

        plan = make_plan(8, 32, 24, 2, rng)
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        calib = rng.normal(size=(16, 32))
        count = calibrate_activations([layer], lambda: layer(Tensor(calib)))
        assert count == 1 and layer.is_calibrated

        # Inputs inside the calibrated range: identical to per-call scaling
        # derived from the same range.
        x = calib[:4]
        calibrated_out = layer(Tensor(x)).data
        percall = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        assert not percall.is_calibrated
        # Uncalibrated, the per-call path rescales from the (smaller) batch
        # range, so outputs may differ — but both stay close to the float
        # reference.
        percall_out = percall(Tensor(x)).data
        ref = reference_output(plan, x)
        for out in (calibrated_out, percall_out):
            rel = np.abs(out - ref).mean() / np.abs(ref).mean()
            assert rel < 0.05

    def test_calibration_is_deterministic_across_batch_composition(self, rng):
        """Frozen scales make per-call outputs independent of what else is
        in the batch — the serving property per-call rescaling lacks."""
        plan = make_plan(8, 32, 24, 2, rng)
        layer = HybridLinear(plan, noise=NoiseSpec.noiseless(), mode="crossbar")
        calib = rng.normal(size=(16, 32))
        layer.begin_calibration()
        layer(Tensor(calib))
        layer.finish_calibration()

        row = calib[:1]
        alone = layer(Tensor(row)).data
        with_big_neighbour = layer(Tensor(np.vstack([row, 100.0 * calib[1:2]]))).data[:1]
        np.testing.assert_array_equal(alone, with_big_neighbour)

    def test_fast_mode_calibration_is_noop(self, rng):
        from repro.pim import calibrate_activations

        plan = make_plan(8, 32, 24, 2, rng)
        layer = HybridLinear(plan, mode="fast")
        count = calibrate_activations([layer], lambda: layer(Tensor(rng.normal(size=(4, 32)))))
        assert count == 0 and not layer.is_calibrated
