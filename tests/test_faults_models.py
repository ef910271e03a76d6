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
    MultiBitFault,
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
        v1, b1 = random_bit_flip(2.5, np.random.default_rng(7))
        v2, b2 = random_bit_flip(2.5, np.random.default_rng(7))
        assert v1 == v2 and b1 == b2

    def test_random_bit_flip_restricted_bits(self):
        _, bit = random_bit_flip(2.5, np.random.default_rng(3), bits=EXPONENT_BITS)
        assert bit in EXPONENT_BITS

    def test_random_bit_flip_needs_a_generator(self):
        with pytest.raises(TypeError, match="Generator"):
            random_bit_flip(2.5, None)

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
        assert model.corrupt(4.0) == -4.0  # draws nothing: no generator needed
        assert model.corrupt(4.0, np.random.default_rng(0)) == -4.0

    def test_bitflip_random_bit_seeded(self):
        """A random flip is a function of the value and the generator only."""
        model = BitFlipFault()
        a = model.corrupt(3.14, np.random.default_rng(11))
        b = BitFlipFault().corrupt(3.14, np.random.default_rng(11))
        assert a == b == model.corrupt(3.14, np.random.default_rng(11))
        changed = np.float64(a).view(np.uint64) ^ np.float64(3.14).view(np.uint64)
        assert bin(int(changed)).count("1") == 1

    def test_multibit_random_bits_seeded(self):
        model = MultiBitFault(num_bits=3)
        a = model.corrupt(3.14, np.random.default_rng(11))
        assert a == model.corrupt(3.14, np.random.default_rng(11))
        changed = np.float64(a).view(np.uint64) ^ np.float64(3.14).view(np.uint64)
        assert bin(int(changed)).count("1") == 3

    @pytest.mark.parametrize("model", [BitFlipFault(), BitFlipFault(bits=EXPONENT_BITS),
                                       MultiBitFault(num_bits=2)],
                             ids=["bitflip", "bitflip-bits", "multibit"])
    def test_random_bits_need_the_trial_generator(self, model):
        with pytest.raises(TypeError, match="generator"):
            model.corrupt(3.14)

    def test_models_take_no_generator_of_their_own(self):
        with pytest.raises(TypeError):
            BitFlipFault(rng=5)
        with pytest.raises(TypeError):
            MultiBitFault(rng=5)

    def test_bitflip_bit_validated(self):
        with pytest.raises(ValueError):
            BitFlipFault(bit=99)

    def test_describe_strings(self):
        for model in (AbsoluteFault(1.0), AdditiveFault(1.0), ZeroFault(), NaNFault(),
                      InfFault(), BitFlipFault(bit=3)):
            assert isinstance(model.describe(), str) and model.describe()
