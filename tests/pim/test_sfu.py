"""Tests for the Special Function Unit's accuracy and cost accounting."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special

from repro.pim import SfuConfig, SpecialFunctionUnit


@pytest.fixture
def sfu():
    return SpecialFunctionUnit()


class TestExp:
    def test_matches_numpy_within_fp16(self, sfu, rng):
        x = rng.uniform(-10, 10, size=200)
        out = sfu.exp(x)
        rel = np.abs(out - np.exp(x)) / np.exp(x)
        assert rel.max() < 5e-3  # FP16 datapath: ~1e-3 relative error

    def test_large_negative_underflow_to_zero(self, sfu):
        assert sfu.exp(np.array([-60.0]))[0] == pytest.approx(0.0, abs=1e-20)

    def test_more_taylor_terms_more_accurate(self, rng):
        x = rng.uniform(-3, 3, size=100)
        errs = []
        for terms in (3, 6, 10):
            unit = SpecialFunctionUnit(SfuConfig(taylor_terms=terms, fp16_rounding=False))
            errs.append(np.abs(unit.exp(x) - np.exp(x)).max())
        assert errs[0] > errs[1] > errs[2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SfuConfig(taylor_terms=1)
        with pytest.raises(ValueError):
            SfuConfig(inputs_per_cycle=0)


class TestSoftmax:
    def test_rows_sum_to_one(self, sfu, rng):
        out = sfu.softmax(rng.normal(size=(8, 16)))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(8), atol=2e-3)

    def test_close_to_exact_softmax(self, sfu, rng):
        x = rng.normal(size=(4, 10)) * 3
        exact = np.exp(x - x.max(-1, keepdims=True))
        exact /= exact.sum(-1, keepdims=True)
        np.testing.assert_allclose(sfu.softmax(x), exact, atol=2e-3)

    def test_stable_under_large_inputs(self, sfu):
        out = sfu.softmax(np.array([[500.0, 500.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-3)


class TestGeluSqrt:
    def test_gelu_close_to_exact(self, sfu, rng):
        x = rng.uniform(-4, 4, size=200)
        exact = x * 0.5 * (1 + special.erf(x / np.sqrt(2)))
        # The sigmoid approximation of GELU is itself ~1e-2 accurate.
        assert np.abs(sfu.gelu(x) - exact).max() < 2.5e-2

    def test_sqrt(self, sfu):
        np.testing.assert_allclose(sfu.sqrt(np.array([4.0, 9.0])), [2, 3], atol=1e-2)
        with pytest.raises(ValueError):
            sfu.sqrt(np.array([-1.0]))


class TestCostAccounting:
    def test_cycles_scale_with_elements(self):
        sfu = SpecialFunctionUnit(SfuConfig(inputs_per_cycle=256))
        sfu.softmax(np.zeros((1, 256)))
        small = sfu.stats.cycles
        sfu.reset_stats()
        sfu.softmax(np.zeros((4, 256)))
        assert sfu.stats.cycles == 4 * small

    def test_256_inputs_per_cycle_default(self):
        assert SfuConfig().inputs_per_cycle == 256

    def test_reset(self, sfu):
        sfu.exp(np.zeros(10))
        assert sfu.stats.cycles > 0
        sfu.reset_stats()
        assert sfu.stats.cycles == 0

    def test_fp16_rounding_toggle(self, rng):
        x = rng.normal(size=50)
        fp16 = SpecialFunctionUnit(SfuConfig(fp16_rounding=True))
        fp64 = SpecialFunctionUnit(SfuConfig(fp16_rounding=False))
        err16 = np.abs(fp16.exp(x) - np.exp(x)).max()
        err64 = np.abs(fp64.exp(x) - np.exp(x)).max()
        assert err64 <= err16
