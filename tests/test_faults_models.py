"""Unit tests for fault models and bit-flip helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faults.bitflip import (
    EXPONENT_BITS,
    MANTISSA_BITS,
    SIGN_BIT,
    flip_bit,
    random_bit_flip,
)
from repro.faults.models import (
    AbsoluteFault,
    AdditiveFault,
    BitFlipFault,
    InfFault,
    NaNFault,
    PAPER_FAULT_CLASSES,
    ScalingFault,
    ZeroFault,
)


class TestBitFlip:
    def test_sign_bit(self):
        assert flip_bit(3.5, SIGN_BIT) == -3.5
        assert flip_bit(-3.5, SIGN_BIT) == 3.5

    def test_involution(self):
        value = 0.123456789
        for bit in (0, 17, 42, 52, 60, 63):
            assert flip_bit(flip_bit(value, bit), bit) == value

    def test_mantissa_flip_small_change(self):
        value = 1.0
        flipped = flip_bit(value, 0)
        assert flipped != value
        assert abs(flipped - value) < 1e-15

    def test_exponent_flip_large_change(self):
        value = 1.0
        flipped = flip_bit(value, 62)  # highest exponent bit
        assert not math.isclose(flipped, value) and (flipped > 1e100 or flipped < 1e-100
                                                     or not np.isfinite(flipped))

    def test_bit_range_validated(self):
        with pytest.raises(ValueError):
            flip_bit(1.0, 64)
        with pytest.raises(ValueError):
            flip_bit(1.0, -1)

    def test_random_bit_flip_deterministic_with_seed(self):
        v1, b1 = random_bit_flip(2.5, rng=7)
        v2, b2 = random_bit_flip(2.5, rng=7)
        assert v1 == v2 and b1 == b2

    def test_random_bit_flip_restricted_bits(self):
        _, bit = random_bit_flip(2.5, rng=3, bits=EXPONENT_BITS)
        assert bit in EXPONENT_BITS

    def test_bit_partition(self):
        assert len(MANTISSA_BITS) + len(EXPONENT_BITS) + 1 == 64


class TestScalingFault:
    def test_basic(self):
        assert ScalingFault(2.0).corrupt(3.0) == 6.0

    def test_overflow_to_inf_not_error(self):
        corrupted = ScalingFault(1e200).corrupt(1e200)
        assert np.isinf(corrupted)

    def test_underflow_to_zero(self):
        assert ScalingFault(1e-300).corrupt(1e-300) == 0.0

    def test_paper_classes(self):
        assert set(PAPER_FAULT_CLASSES) == {"large", "slightly_smaller", "near_zero"}
        h = 2.0
        assert PAPER_FAULT_CLASSES["large"].corrupt(h) == h * 1e150
        assert PAPER_FAULT_CLASSES["slightly_smaller"].corrupt(h) == pytest.approx(
            h * 10 ** -0.5)
        assert PAPER_FAULT_CLASSES["near_zero"].corrupt(h) == h * 1e-300

    def test_describe(self):
        assert "1e+150" in ScalingFault(1e150).describe() or "1e150" in ScalingFault(
            1e150).describe()


class TestOtherModels:
    def test_absolute(self):
        assert AbsoluteFault(7.5).corrupt(123.0) == 7.5

    def test_additive(self):
        assert AdditiveFault(-2.0).corrupt(5.0) == 3.0

    def test_zero(self):
        assert ZeroFault().corrupt(99.0) == 0.0

    def test_nan_inf(self):
        assert math.isnan(NaNFault().corrupt(1.0))
        assert math.isinf(InfFault().corrupt(1.0))

    def test_bitflip_fixed_bit(self):
        model = BitFlipFault(bit=SIGN_BIT)
        assert model.corrupt(4.0) == -4.0
        assert model.last_bit == SIGN_BIT

    def test_bitflip_random_bit_seeded(self):
        a = BitFlipFault(rng=11)
        b = BitFlipFault(rng=11)
        assert a.corrupt(3.14) == b.corrupt(3.14)
        assert a.last_bit == b.last_bit

    def test_bitflip_bit_validated(self):
        with pytest.raises(ValueError):
            BitFlipFault(bit=99)

    def test_describe_strings(self):
        for model in (AbsoluteFault(1.0), AdditiveFault(1.0), ZeroFault(), NaNFault(),
                      InfFault(), BitFlipFault(bit=3)):
            assert isinstance(model.describe(), str) and model.describe()


class TestCorruptVector:
    def test_specific_index(self):
        model = ScalingFault(10.0)
        vec = np.array([1.0, 2.0, 3.0])
        out = model.corrupt_vector(vec, index=1)
        np.testing.assert_array_equal(out, [1.0, 20.0, 3.0])
        np.testing.assert_array_equal(vec, [1.0, 2.0, 3.0])  # original untouched

    def test_random_index_seeded(self):
        model = ScalingFault(10.0)
        vec = np.arange(1.0, 11.0)
        out1 = model.corrupt_vector(vec, rng=5)
        out2 = model.corrupt_vector(vec, rng=5)
        np.testing.assert_array_equal(out1, out2)
        assert np.count_nonzero(out1 != vec) == 1

    def test_index_validated(self):
        with pytest.raises(IndexError):
            ScalingFault(2.0).corrupt_vector(np.ones(3), index=7)

    def test_empty_vector(self):
        out = ScalingFault(2.0).corrupt_vector(np.array([]))
        assert out.size == 0
