"""Tests for the Householder-reflector Arnoldi variant.

The key claim (paper, Section V-B): the Hessenberg-entry bound is invariant
of the orthogonalization algorithm, so the same detector applies whether the
implementation uses Modified Gram–Schmidt, Classical Gram–Schmidt, or
Householder reflections.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arnoldi import arnoldi_process
from repro.sparse.norms import frobenius_norm, two_norm_estimate

from reference import householder_arnoldi


class TestFactorization:
    def test_arnoldi_relation(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        Q, H, breakdown = householder_arnoldi(poisson_small, v0, 10)
        assert not breakdown
        AQ = np.column_stack([poisson_small.matvec(Q[:, j]) for j in range(H.shape[1])])
        np.testing.assert_allclose(AQ, Q @ H, rtol=1e-10, atol=1e-10)

    def test_basis_orthonormal(self, rng, nonsym_small):
        v0 = rng.standard_normal(nonsym_small.shape[0])
        Q, H, _ = householder_arnoldi(nonsym_small, v0, 12)
        np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)

    def test_first_vector_spans_v0(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        Q, _, _ = householder_arnoldi(poisson_small, v0, 4)
        cosine = abs(np.dot(Q[:, 0], v0) / np.linalg.norm(v0))
        assert cosine == pytest.approx(1.0, rel=1e-12)

    def test_spd_structure_tridiagonal(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        _, H, _ = householder_arnoldi(poisson_small, v0, 8)
        assert np.abs(np.triu(H[:8, :8], 2)).max() < 1e-10

    def test_breakdown_on_invariant_subspace(self):
        A = np.diag([1.0, 2.0, 3.0])
        Q, H, breakdown = householder_arnoldi(A, np.array([1.0, 0.0, 0.0]), 3)
        assert breakdown
        assert H.shape[1] == 1
        assert abs(H[1, 0]) < 1e-12

    def test_m_capped_at_n(self, rng):
        A = np.eye(5) + np.diag(np.ones(4), 1)
        Q, H, _ = householder_arnoldi(A, rng.standard_normal(5), 20)
        assert H.shape[1] <= 5

    def test_input_validation(self, poisson_small, rng):
        with pytest.raises(ValueError, match="nonzero"):
            householder_arnoldi(poisson_small, np.zeros(poisson_small.shape[0]), 3)
        with pytest.raises(ValueError, match="length"):
            householder_arnoldi(poisson_small, np.ones(3), 3)
        with pytest.raises(ValueError, match="positive"):
            householder_arnoldi(poisson_small, rng.standard_normal(poisson_small.shape[0]), 0)


class TestBoundInvariance:
    """The paper's claim: the bound holds for every orthogonalization variant."""

    @pytest.mark.parametrize("fixture_name", ["poisson_small", "nonsym_small",
                                              "diag_dom_small"])
    def test_bound_holds(self, request, rng, fixture_name):
        A = request.getfixturevalue(fixture_name)
        v0 = rng.standard_normal(A.shape[0])
        _, H, _ = householder_arnoldi(A, v0, 12)
        assert np.abs(H).max() <= frobenius_norm(A) + 1e-10
        assert np.abs(H).max() <= two_norm_estimate(A, tol=1e-10, maxiter=500) * (1 + 1e-6)

    def test_same_ritz_values_as_mgs(self, rng, poisson_small):
        """Householder and MGS build the same Krylov space, so the square
        Hessenberg blocks share their eigenvalues (Ritz values)."""
        v0 = rng.standard_normal(poisson_small.shape[0])
        _, H_hh, _ = householder_arnoldi(poisson_small, v0, 10)
        _, H_mgs, _ = arnoldi_process(poisson_small, v0, 10)
        ritz_hh = np.sort(np.linalg.eigvals(H_hh[:10, :10]).real)
        ritz_mgs = np.sort(np.linalg.eigvals(H_mgs[:10, :10]).real)
        np.testing.assert_allclose(ritz_hh, ritz_mgs, rtol=1e-8, atol=1e-8)
