"""Tests for the reconfigurable SAR ADC model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rram import SarAdc, required_adc_bits


class TestPrecisionRule:
    def test_paper_values(self):
        # ceil(log2 64) + w - 1: 6 b for SLC (w=1), 7 b for MLC (w=2).
        assert required_adc_bits(64, 1) == 6
        assert required_adc_bits(64, 2) == 7

    def test_more_rows_more_bits(self):
        assert required_adc_bits(128, 1) == 7
        assert required_adc_bits(1024, 1) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            required_adc_bits(0, 1)


class TestSarAdc:
    def test_exact_on_integers_within_range(self):
        adc = SarAdc(bits=6)
        values = np.arange(64)
        np.testing.assert_array_equal(adc.convert(values.astype(float)), values)

    def test_clips_at_full_scale(self):
        adc = SarAdc(bits=6)
        assert adc.convert(np.array([100.0]))[0] == 63
        assert adc.convert(np.array([-5.0]))[0] == 0

    def test_rounds_to_nearest(self):
        adc = SarAdc(bits=6)
        np.testing.assert_array_equal(
            adc.convert(np.array([1.4, 1.6, 2.5])), [1, 2, 2]
        )  # numpy banker's rounding at .5

    def test_bits_bound_by_hardware(self):
        with pytest.raises(ValueError):
            SarAdc(bits=8, max_bits=7)

    @given(st.integers(1, 7), st.lists(st.floats(-10, 300, allow_nan=False), min_size=1, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_codes_always_in_range_property(self, bits, values):
        adc = SarAdc(bits=bits)
        codes = adc.convert(np.array(values))
        assert codes.min() >= 0
        assert codes.max() <= adc.full_scale

    @given(st.lists(st.floats(0, 63, allow_nan=False), min_size=2, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_property(self, values):
        adc = SarAdc(bits=6)
        values = np.sort(np.array(values))
        codes = adc.convert(values)
        assert (np.diff(codes) >= 0).all()
