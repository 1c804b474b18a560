"""Tests for cell models and the BER <-> sigma noise calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram import (
    DEFAULT_NOISE,
    MEASURED_MLC2_BER,
    MLC2,
    MLC3,
    MLC4,
    NoiseSpec,
    RramDeviceParams,
    SLC,
    apply_multiplicative_noise,
    ber_to_sigma,
    level_error_rate,
    sigma_to_ber,
)
from repro.rram.cell import CellType


class TestCellType:
    def test_level_counts(self):
        assert SLC.levels == 2
        assert MLC2.levels == 4
        assert MLC3.levels == 8
        assert MLC4.levels == 16

    def test_mlc_needs_iterative_writes(self):
        assert SLC.write_pulses == 1
        assert MLC2.write_pulses > SLC.write_pulses

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            CellType("bad", bits=5, write_pulses=1)

    def test_device_defaults_match_paper(self):
        device = RramDeviceParams()
        assert device.r_on_ohm == 6_000.0
        assert device.on_off_ratio == 150.0
        assert device.set_voltage == 1.62
        assert device.reset_voltage == 3.63

    def test_validate_levels(self):
        SLC.validate_levels(np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            SLC.validate_levels(np.array([0, 2]))
        with pytest.raises(ValueError):
            MLC2.validate_levels(np.array([-1]))


class TestLevelErrorRate:
    def test_zero_sigma_no_errors(self):
        assert level_error_rate(0.0, 3, 3) == 0.0

    def test_level_zero_immune_to_multiplicative_noise(self):
        assert level_error_rate(0.5, 0, 3) == 0.0

    def test_monotone_in_sigma(self):
        rates = [level_error_rate(s, 2, 3) for s in (0.01, 0.05, 0.1, 0.2)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_higher_levels_err_more(self):
        # Multiplicative noise scales with the stored value.
        assert level_error_rate(0.1, 1, 7) < level_error_rate(0.1, 6, 7)

    def test_top_level_one_sided(self):
        # Top level only errs downward (saturation above), so for equal
        # level value it errs less than an interior level would.
        sigma = 0.2
        interior = level_error_rate(sigma, 3, 7)
        # Construct a hypothetical where 3 is the max level.
        top = level_error_rate(sigma, 3, 3)
        assert top < interior

    def test_validation(self):
        with pytest.raises(ValueError):
            level_error_rate(-0.1, 1, 3)
        with pytest.raises(ValueError):
            level_error_rate(0.1, 5, 3)


class TestBerCalibration:
    def test_roundtrip_mlc2(self):
        sigma = ber_to_sigma(MEASURED_MLC2_BER, MLC2)
        assert sigma > 0
        assert sigma_to_ber(sigma, MLC2) == pytest.approx(MEASURED_MLC2_BER, rel=1e-6)

    def test_zero_ber_zero_sigma(self):
        assert ber_to_sigma(0.0, SLC) == 0.0

    def test_ber_validation(self):
        with pytest.raises(ValueError):
            ber_to_sigma(0.6, MLC2)

    def test_same_sigma_more_levels_more_errors(self):
        sigma = 0.08
        assert sigma_to_ber(sigma, SLC) < sigma_to_ber(sigma, MLC2)
        assert sigma_to_ber(sigma, MLC2) < sigma_to_ber(sigma, MLC4)

    def test_default_spec_orders_cell_reliability(self):
        """SLC programming is ~7x tighter than MLC2 (the paper's premise that
        SLC offers a much higher noise margin)."""
        sigma_slc = DEFAULT_NOISE.sigma(SLC)
        sigma_mlc = DEFAULT_NOISE.sigma(MLC2)
        assert sigma_slc == pytest.approx(sigma_mlc / 7.0)
        assert DEFAULT_NOISE.sigma(MLC3) > sigma_mlc
        assert DEFAULT_NOISE.sigma(MLC4) > DEFAULT_NOISE.sigma(MLC3)

    def test_default_spec_anchored_at_measured_mlc2_ber(self):
        assert DEFAULT_NOISE.ber(MLC2) == pytest.approx(MEASURED_MLC2_BER, rel=1e-6)

    def test_slc_storage_effectively_error_free(self):
        # At 7x tighter programming, SLC's implied BER is negligible —
        # far better than 7x lower (the ratio is a conservative floor).
        assert DEFAULT_NOISE.ber(SLC) < DEFAULT_NOISE.ber(MLC2) / 7.0

    def test_custom_spec(self):
        spec = NoiseSpec(sigmas={SLC.name: 0.05})
        assert spec.sigma(SLC) == 0.05
        with pytest.raises(KeyError):
            spec.sigma(MLC2)

    def test_noiseless_spec(self):
        spec = NoiseSpec.noiseless()
        assert spec.sigma(SLC) == 0.0
        assert spec.ber(MLC2) == 0.0

    def test_empirical_ber_matches_analytic(self):
        """Monte-carlo check of the analytic BER integral."""
        sigma = ber_to_sigma(MEASURED_MLC2_BER, MLC2)
        rng = np.random.default_rng(0)
        levels = rng.integers(0, 4, size=200_000)
        noisy = apply_multiplicative_noise(levels.astype(float), sigma, rng)
        read = np.clip(np.rint(noisy), 0, 3)
        measured = (read != levels).mean()
        assert measured == pytest.approx(0.0404, abs=0.004)


class TestApplyNoise:
    def test_zero_sigma_identity_copy(self, rng):
        x = rng.normal(size=(5, 5))
        out = apply_multiplicative_noise(x, 0.0, rng)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_zero_values_stay_zero(self, rng):
        x = np.zeros((10, 10))
        out = apply_multiplicative_noise(x, 0.5, rng)
        np.testing.assert_array_equal(out, x)

    def test_noise_scale_matches_sigma(self):
        rng = np.random.default_rng(1)
        x = np.ones(100_000)
        out = apply_multiplicative_noise(x, 0.1, rng)
        assert out.std() == pytest.approx(0.1, rel=0.05)
        assert out.mean() == pytest.approx(1.0, abs=0.002)
