"""Unit tests for repro.utils (validation, RNG, timer)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils.rng import as_generator
from repro.utils.timer import Timer
from repro.utils.validation import (
    as_dense_vector,
    check_square,
    require_positive_int,
)


class TestAsDenseVector:
    def test_list_to_vector(self):
        v = as_dense_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_column_vector_flattened(self):
        v = as_dense_vector(np.ones((4, 1)))
        assert v.shape == (4,)

    def test_row_vector_flattened(self):
        v = as_dense_vector(np.ones((1, 5)))
        assert v.shape == (5,)

    def test_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            as_dense_vector([1.0, 2.0], n=3)

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_dense_vector(np.ones((2, 3)))

    def test_contiguous_output(self):
        base = np.arange(20, dtype=np.float64)[::2]
        v = as_dense_vector(base)
        assert v.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(v, base)


class TestShapeChecks:
    def test_check_square_ok(self):
        assert check_square((5, 5)) == 5

    def test_check_square_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square((5, 4))

    def test_check_square_rejects_1d(self):
        with pytest.raises(ValueError):
            check_square((5,))


class TestScalarValidators:
    def test_positive_int(self):
        assert require_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ValueError):
            require_positive_int(bad, "x")


class TestRng:
    def test_as_generator_from_seed_is_deterministic(self):
        a = as_generator(42).standard_normal(5)
        b = as_generator(42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.001)
        with t:
            time.sleep(0.001)
        assert t.calls == 2
        assert t.elapsed > 0.0
        assert t.mean > 0.0

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.calls == 0
        assert t.elapsed == 0.0
        assert t.mean == 0.0
