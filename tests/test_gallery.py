"""Unit tests for the matrix gallery and packaged test problems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gallery.circuit import circuit_network, mult_dcop_surrogate
from repro.gallery.convection_diffusion import convection_diffusion_2d
from repro.gallery.poisson import poisson2d
from repro.gallery.problems import TestProblem, circuit_problem, paper_problems, poisson_problem

from reference import (
    diagonally_dominant,
    poisson1d,
    poisson3d,
    random_sparse,
    spd_random,
    tridiagonal,
)


class TestPoisson:
    def test_poisson1d_structure(self):
        A = poisson1d(5).todense()
        expected = np.diag(np.full(5, 2.0)) + np.diag(np.full(4, -1.0), 1) + np.diag(
            np.full(4, -1.0), -1)
        np.testing.assert_allclose(A, expected)

    def test_poisson2d_matches_kron_construction(self):
        n = 7
        T = poisson1d(n).todense()
        expected = np.kron(np.eye(n), T) + np.kron(T, np.eye(n)) - 2 * np.eye(n * n) + 2 * np.eye(n * n)
        # gallery('poisson', n) = kron(I, T) + kron(T, I) where T = tridiag(-1, 2, -1)
        expected = np.kron(np.eye(n), T) + np.kron(T, np.eye(n))
        np.testing.assert_allclose(poisson2d(n).todense(), expected)

    def test_poisson2d_paper_dimensions(self):
        # Paper Table I: 100x100 grid -> 10,000 rows, 49,600 nonzeros.
        A = poisson2d(100)
        assert A.shape == (10000, 10000)
        assert A.nnz == 49600

    def test_poisson2d_spd(self):
        A = poisson2d(6)
        dense = A.todense()
        np.testing.assert_allclose(dense, dense.T)
        eigvals = np.linalg.eigvalsh(dense)
        assert eigvals.min() > 0.0

    def test_poisson3d_structure(self):
        A = poisson3d(3)
        assert A.shape == (27, 27)
        np.testing.assert_allclose(A.diagonal(), np.full(27, 6.0))
        assert A.is_symmetric()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            poisson2d(0)

    def test_poisson1d_single_point(self):
        A = poisson1d(1)
        np.testing.assert_allclose(A.todense(), [[2.0]])


class TestConvectionDiffusion:
    def test_nonsymmetric(self):
        A = convection_diffusion_2d(6, wind=(10.0, 20.0))
        assert A.is_pattern_symmetric()
        assert not A.is_symmetric()

    def test_zero_wind_is_scaled_poisson(self):
        n = 5
        A = convection_diffusion_2d(n, wind=(0.0, 0.0), diffusion=1.0)
        h = 1.0 / (n + 1)
        np.testing.assert_allclose(A.todense(), poisson2d(n).todense() / h**2)

    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError):
            convection_diffusion_2d(4, diffusion=0.0)

    def test_row_sums_nonnegative_diagonal(self):
        A = convection_diffusion_2d(5, wind=(7.0, -3.0))
        assert np.all(A.diagonal() > 0.0)


class TestCircuit:
    def test_shape_and_rank(self):
        A = circuit_network(150, seed=3)
        assert A.shape == (150, 150)
        assert A.has_full_structural_rank()

    def test_nonsymmetric(self):
        A = circuit_network(200, seed=1)
        assert not A.is_symmetric()

    def test_deterministic(self):
        a = circuit_network(100, seed=5)
        b = circuit_network(100, seed=5)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self):
        a = circuit_network(100, seed=5)
        b = circuit_network(100, seed=6)
        assert a.nnz != b.nnz or not np.array_equal(a.data, b.data)

    def test_surrogate_defaults(self):
        A = mult_dcop_surrogate(300)
        assert A.shape == (300, 300)
        assert not A.is_symmetric()
        assert A.has_full_structural_rank()

    def test_ill_conditioned(self):
        from repro.experiments.table1 import condition_estimate

        A = mult_dcop_surrogate(400)
        cond = condition_estimate(A, method="dense")
        # Much worse conditioned than the Poisson problem (paper: 6.0e3).
        assert cond > 1e6

    def test_single_node(self):
        A = circuit_network(1, seed=0)
        assert A.shape == (1, 1)
        assert A.todense()[0, 0] != 0.0


class TestRandomGallery:
    def test_random_sparse_nonsingular(self):
        A = random_sparse(60, density=0.05, seed=2)
        assert np.linalg.matrix_rank(A.todense()) == 60

    def test_random_sparse_density_bounds(self):
        with pytest.raises(ValueError):
            random_sparse(10, density=0.0)
        with pytest.raises(ValueError):
            random_sparse(10, density=1.5)

    def test_diagonally_dominant(self):
        A = diagonally_dominant(40, density=0.1, dominance=2.5, seed=3).todense()
        off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
        assert np.all(np.abs(np.diag(A)) > off)

    def test_diagonally_dominant_requires_dominance(self):
        with pytest.raises(ValueError):
            diagonally_dominant(10, dominance=1.0)

    def test_tridiagonal(self):
        A = tridiagonal(5, lower=-1.0, diag=2.0, upper=-3.0).todense()
        assert A[1, 0] == -1.0
        assert A[0, 1] == -3.0
        assert A[2, 2] == 2.0

    def test_spd_random_is_spd(self):
        A = spd_random(25, density=0.2, shift=1.0, seed=4).todense()
        np.testing.assert_allclose(A, A.T, atol=1e-12)
        assert np.linalg.eigvalsh(A).min() > 0.0


class TestProblems:
    def test_poisson_problem_metadata(self):
        p = poisson_problem(grid_n=8)
        assert p.spd
        assert p.n == 64
        assert p.x_exact is not None
        # Manufactured RHS: b = A x_exact
        np.testing.assert_allclose(p.A.matvec(p.x_exact), p.b, rtol=1e-12)

    def test_circuit_problem_metadata(self):
        p = circuit_problem(150)
        assert not p.spd
        assert p.n == 150
        np.testing.assert_allclose(p.A.matvec(p.x_exact), p.b, rtol=1e-10)

    def test_residual_and_error_norm(self):
        p = poisson_problem(grid_n=6)
        assert p.residual_norm(p.x_exact) == pytest.approx(0.0, abs=1e-10)
        assert p.error_norm(p.x_exact) == pytest.approx(0.0, abs=1e-14)
        assert p.residual_norm(np.zeros(p.n)) == pytest.approx(np.linalg.norm(p.b))

    def test_error_norm_requires_exact(self, poisson_small):
        p = TestProblem(name="x", A=poisson_small, b=np.ones(poisson_small.shape[0]))
        with pytest.raises(ValueError):
            p.error_norm(np.zeros(p.n))

    def test_detector_bounds(self):
        p = poisson_problem(grid_n=6)
        bounds = p.detector_bounds()
        assert bounds["frobenius"] >= bounds["two_norm"] > 0.0

    def test_rhs_length_validated(self, poisson_small):
        with pytest.raises(ValueError):
            TestProblem(name="bad", A=poisson_small, b=np.ones(3))

    def test_default_x0_zero(self, poisson_small):
        p = TestProblem(name="x", A=poisson_small, b=np.ones(poisson_small.shape[0]))
        np.testing.assert_array_equal(p.x0, np.zeros(p.n))

    @pytest.mark.parametrize("scale,expected_grid", [("tiny", 10), ("small", 30)])
    def test_paper_problems_scales(self, scale, expected_grid):
        probs = paper_problems(scale)
        assert set(probs) == {"poisson", "circuit"}
        assert probs["poisson"].n == expected_grid ** 2

    def test_paper_problems_unknown_scale(self):
        with pytest.raises(ValueError):
            paper_problems("huge")
