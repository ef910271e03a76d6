"""Unit tests for matrix norms and the Hessenberg bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix
from repro.sparse.linear_operator import MatrixFreeOperator
from repro.sparse.norms import (
    frobenius_norm,
    hessenberg_bound,
    two_norm_estimate,
)


class TestFrobenius:
    def test_matches_dense(self, rng):
        dense = rng.standard_normal((15, 15))
        dense[np.abs(dense) < 0.5] = 0.0
        m = CSRMatrix.from_dense(dense)
        assert frobenius_norm(m) == pytest.approx(np.linalg.norm(dense, "fro"), rel=1e-13)

    def test_dense_input(self, rng):
        dense = rng.standard_normal((6, 8))
        assert frobenius_norm(dense) == pytest.approx(np.linalg.norm(dense, "fro"))

    def test_scipy_input(self, poisson_small):
        assert frobenius_norm(poisson_small.to_scipy()) == pytest.approx(
            frobenius_norm(poisson_small))

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            frobenius_norm("nope")

    def test_empty_matrix(self):
        m = CSRMatrix((3, 3), [0, 0, 0, 0], [], [])
        assert frobenius_norm(m) == 0.0


class TestTwoNormEstimate:
    def test_matches_svd_on_dense(self, rng):
        dense = rng.standard_normal((30, 30))
        m = CSRMatrix.from_dense(dense)
        exact = np.linalg.svd(dense, compute_uv=False)[0]
        assert two_norm_estimate(m, tol=1e-12, maxiter=500) == pytest.approx(exact, rel=1e-4)

    def test_poisson_known_bound(self):
        # The 2-D Poisson matrix has eigenvalues in (0, 8); ||A||_2 < 8 and
        # approaches 8 as the grid grows (the paper's Table I lists 8).
        from repro.gallery.poisson import poisson2d

        sigma = two_norm_estimate(poisson2d(20), tol=1e-10, maxiter=1000)
        assert 7.0 < sigma < 8.0 + 1e-9

    def test_diagonal_operator(self):
        diag = np.array([1.0, -7.0, 3.0])
        op = MatrixFreeOperator((3, 3), matvec=lambda x: diag * x, rmatvec=lambda x: diag * x)
        assert two_norm_estimate(op, tol=1e-12) == pytest.approx(7.0, rel=1e-6)

    def test_zero_matrix(self):
        m = CSRMatrix((4, 4), [0, 0, 0, 0, 0], [], [])
        assert two_norm_estimate(m) == 0.0


class TestHessenbergBound:
    def test_frobenius_dominates_two_norm(self, poisson_small):
        fro = hessenberg_bound(poisson_small, method="frobenius")
        two = hessenberg_bound(poisson_small, method="two_norm")
        assert fro >= two > 0.0

    def test_exact_matches_svd(self, small_dense):
        exact = hessenberg_bound(small_dense, method="exact")
        assert exact == pytest.approx(np.linalg.svd(small_dense, compute_uv=False)[0])

    def test_exact_on_csr(self, poisson_small):
        exact = hessenberg_bound(poisson_small, method="exact")
        two = hessenberg_bound(poisson_small, method="two_norm")
        assert two == pytest.approx(exact, rel=1e-6)

    def test_unknown_method(self, poisson_small):
        with pytest.raises(ValueError):
            hessenberg_bound(poisson_small, method="bogus")

    def test_two_norm_takes_no_estimator_options(self, poisson_small):
        """The ``two_norm`` bound is ``two_norm_estimate`` at its defaults;
        estimator options are not forwarded."""
        assert (hessenberg_bound(poisson_small, method="two_norm")
                == two_norm_estimate(poisson_small))
        with pytest.raises(TypeError, match="maxiter"):
            hessenberg_bound(poisson_small, method="two_norm", maxiter=5)

    def test_frobenius_requires_matrix(self):
        op = MatrixFreeOperator((3, 3), matvec=lambda x: x)
        with pytest.raises(TypeError):
            hessenberg_bound(op, method="frobenius")
