"""Unit tests for the preconditioners."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.gmres import gmres
from repro.precond.identity import IdentityPreconditioner
from repro.precond.ilu import ILU0Preconditioner
from repro.precond.jacobi import BlockJacobiPreconditioner, JacobiPreconditioner
from repro.precond.polynomial import NeumannPolynomialPreconditioner
from repro.precond.ssor import GaussSeidelPreconditioner, SSORPreconditioner
from repro.sparse.csr import CSRMatrix
from repro.specs import SolveSpec, SpecError


class TestIdentity:
    def test_returns_copy(self, rng):
        m = IdentityPreconditioner(8)
        r = rng.standard_normal(8)
        z = m.apply(r)
        np.testing.assert_array_equal(z, r)
        z[0] = 99.0
        assert r[0] != 99.0

    def test_length_validated(self):
        with pytest.raises(ValueError):
            IdentityPreconditioner(4).apply(np.ones(5))

    def test_callable(self):
        m = IdentityPreconditioner(3)
        np.testing.assert_array_equal(m(np.arange(3.0)), np.arange(3.0))


class TestJacobi:
    def test_exact_for_diagonal_matrix(self):
        diag = np.array([2.0, 4.0, -8.0])
        A = CSRMatrix.from_dense(np.diag(diag))
        m = JacobiPreconditioner(A)
        r = np.array([2.0, 4.0, 8.0])
        np.testing.assert_allclose(m.apply(r), r / diag)

    def test_zero_diagonal_handled(self):
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 2.0]]))
        m = JacobiPreconditioner(A)
        z = m.apply(np.array([3.0, 4.0]))
        assert z[0] == 3.0  # unscaled where the diagonal vanishes
        assert z[1] == 2.0

    def test_length_validated(self, poisson_small):
        m = JacobiPreconditioner(poisson_small)
        with pytest.raises(ValueError):
            m.apply(np.ones(poisson_small.shape[0] + 1))

    def test_accelerates_gmres(self, diag_dom_small, rng):
        b = rng.standard_normal(diag_dom_small.shape[0])
        plain = gmres(diag_dom_small, b, tol=1e-10, maxiter=200)
        precond = gmres(diag_dom_small, b, tol=1e-10, maxiter=200,
                        preconditioner=JacobiPreconditioner(diag_dom_small))
        assert precond.converged
        assert precond.iterations <= plain.iterations


class TestBlockJacobi:
    def test_whole_matrix_block_is_exact(self, small_dense, rng):
        A = CSRMatrix.from_dense(small_dense)
        m = BlockJacobiPreconditioner(A, block_size=small_dense.shape[0])
        r = rng.standard_normal(small_dense.shape[0])
        np.testing.assert_allclose(m.apply(r), np.linalg.solve(small_dense, r), rtol=1e-10)

    def test_block_size_one_is_jacobi(self, poisson_small, rng):
        r = rng.standard_normal(poisson_small.shape[0])
        blk = BlockJacobiPreconditioner(poisson_small, block_size=1)
        jac = JacobiPreconditioner(poisson_small)
        np.testing.assert_allclose(blk.apply(r), jac.apply(r), rtol=1e-12)

    def test_invalid_block_size(self, poisson_small):
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(poisson_small, block_size=0)

    def test_length_validated(self, poisson_small):
        m = BlockJacobiPreconditioner(poisson_small, block_size=8)
        with pytest.raises(ValueError):
            m.apply(np.ones(5))


class TestGaussSeidelSSOR:
    def test_gauss_seidel_solves_lower_triangular(self, rng):
        dense = np.tril(rng.standard_normal((8, 8))) + 8.0 * np.eye(8)
        A = CSRMatrix.from_dense(dense)
        m = GaussSeidelPreconditioner(A)
        r = rng.standard_normal(8)
        np.testing.assert_allclose(m.apply(r), np.linalg.solve(dense, r), rtol=1e-10)

    def test_ssor_symmetric_for_spd(self, poisson_small, rng):
        # The SSOR operator of an SPD matrix is SPD: check <M^{-1}u, v> symmetry.
        m = SSORPreconditioner(poisson_small, omega=1.0)
        u = rng.standard_normal(poisson_small.shape[0])
        v = rng.standard_normal(poisson_small.shape[0])
        left = np.dot(m.apply(u), v)
        right = np.dot(u, m.apply(v))
        assert left == pytest.approx(right, rel=1e-10)

    def test_ssor_omega_validated(self, poisson_small):
        with pytest.raises(ValueError):
            SSORPreconditioner(poisson_small, omega=2.5)

    def test_ssor_reduces_iterations(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        plain = gmres(poisson_medium, b, tol=1e-8, maxiter=300)
        precond = gmres(poisson_medium, b, tol=1e-8, maxiter=300,
                        preconditioner=SSORPreconditioner(poisson_medium))
        assert precond.converged
        assert precond.iterations < plain.iterations

    def test_length_validated(self, poisson_small):
        with pytest.raises(ValueError):
            GaussSeidelPreconditioner(poisson_small).apply(np.ones(3))
        with pytest.raises(ValueError):
            SSORPreconditioner(poisson_small).apply(np.ones(3))


class TestILU0:
    def test_exact_for_tridiagonal(self, rng):
        # ILU(0) of a tridiagonal matrix is an exact LU factorization
        # (no fill-in is discarded), so applying it solves the system.
        from reference import poisson1d

        A = poisson1d(20)
        m = ILU0Preconditioner(A)
        r = rng.standard_normal(20)
        np.testing.assert_allclose(m.apply(r), np.linalg.solve(A.todense(), r), rtol=1e-10)

    def test_reduces_gmres_iterations(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        plain = gmres(poisson_medium, b, tol=1e-8, maxiter=300)
        precond = gmres(poisson_medium, b, tol=1e-8, maxiter=300,
                        preconditioner=ILU0Preconditioner(poisson_medium))
        assert precond.converged
        assert precond.iterations < plain.iterations

    def test_requires_square(self):
        A = CSRMatrix.from_dense(np.ones((3, 4)))
        with pytest.raises(ValueError):
            ILU0Preconditioner(A)

    def test_length_validated(self, poisson_small):
        m = ILU0Preconditioner(poisson_small)
        with pytest.raises(ValueError):
            m.apply(np.ones(7))

    def test_nonsymmetric_matrix(self, nonsym_small, rng):
        m = ILU0Preconditioner(nonsym_small)
        r = rng.standard_normal(nonsym_small.shape[0])
        z = m.apply(r)
        assert np.all(np.isfinite(z))
        # The preconditioned residual should be much smaller than the raw one.
        approx_residual = np.linalg.norm(r - nonsym_small.matvec(z))
        assert approx_residual < 0.5 * np.linalg.norm(r)


class TestTrisolvePaths:
    """A stationary preconditioner's solves give the same bits whichever way
    its factors are reached: a vector through ``apply``, a column of a block
    through ``apply_block``, or a copy that went through pickle."""

    @pytest.mark.parametrize("cls,kwargs", [
        (GaussSeidelPreconditioner, {}),
        (SSORPreconditioner, {"omega": 1.2}),
        (ILU0Preconditioner, {}),
    ])
    def test_apply_bit_identical_across_paths(self, poisson_medium, nonsym_small, rng,
                                              cls, kwargs):
        for A in (poisson_medium, nonsym_small):
            m = cls(A, **kwargs)
            R = rng.standard_normal((A.shape[0], 3))
            Z = m.apply_block(R)
            for j in range(R.shape[1]):
                np.testing.assert_array_equal(Z[:, j], m.apply(R[:, j]))

    @pytest.mark.parametrize("cls", [GaussSeidelPreconditioner, SSORPreconditioner,
                                     ILU0Preconditioner])
    def test_gmres_history_unchanged_across_paths(self, poisson_medium, rng, cls):
        """Preconditioned GMRES histories are the same with the
        preconditioner as built and with an unpickled copy of it."""
        b = rng.standard_normal(poisson_medium.shape[0])
        m = cls(poisson_medium)
        res_here = gmres(poisson_medium, b, tol=1e-8, maxiter=300, preconditioner=m)
        res_copy = gmres(poisson_medium, b, tol=1e-8, maxiter=300,
                         preconditioner=pickle.loads(pickle.dumps(m)))
        assert res_here.converged and res_copy.converged
        assert res_here.iterations == res_copy.iterations
        np.testing.assert_array_equal(res_here.history.as_array(),
                                      res_copy.history.as_array())
        np.testing.assert_array_equal(res_here.x, res_copy.x)

    def test_fgmres_history_unchanged_across_paths(self, poisson_medium, rng):
        """FGMRES histories are the same with ILU(0) inner solves through
        ``apply`` and through one-column ``apply_block`` blocks."""
        from repro.core.fgmres import fgmres

        b = rng.standard_normal(poisson_medium.shape[0])
        ilu = ILU0Preconditioner(poisson_medium)
        vector, block = [
            fgmres(poisson_medium, b, inner_solver=inner, tol=1e-9, max_outer=100)
            for inner in (lambda q, j: ilu.apply(q),
                          lambda q, j: ilu.apply_block(q[:, None])[:, 0])]
        assert vector.converged and block.converged
        assert vector.iterations == block.iterations
        np.testing.assert_array_equal(vector.history.as_array(),
                                      block.history.as_array())
        np.testing.assert_array_equal(vector.x, block.x)

    def test_invalid_mode_rejected(self, poisson_small):
        """The removed ``trisolve_mode`` is rejected wherever it is named."""
        with pytest.raises(TypeError, match="trisolve_mode"):
            GaussSeidelPreconditioner(poisson_small, trisolve_mode="banana")
        with pytest.raises(SpecError, match="preconditioner"):
            SolveSpec(preconditioner={"name": "gauss_seidel", "trisolve_mode": "banana"})

    def test_factors_built_once_in_init(self, poisson_small):
        """Applies reuse the factors built at construction (no re-splitting)."""
        m = SSORPreconditioner(poisson_small)
        fwd, bwd = m._forward, m._backward
        m.apply(np.ones(poisson_small.shape[0]))
        assert m._forward is fwd and m._backward is bwd
        assert fwd.lower and not bwd.lower


class TestNeumannPolynomial:
    def test_degree_zero_is_jacobi(self, diag_dom_small, rng):
        r = rng.standard_normal(diag_dom_small.shape[0])
        poly = NeumannPolynomialPreconditioner(diag_dom_small, degree=0)
        jac = JacobiPreconditioner(diag_dom_small)
        np.testing.assert_allclose(poly.apply(r), jac.apply(r), rtol=1e-12)

    def test_higher_degree_improves_approximation(self, diag_dom_small, rng):
        r = rng.standard_normal(diag_dom_small.shape[0])
        exact = np.linalg.solve(diag_dom_small.todense(), r)
        err0 = np.linalg.norm(
            NeumannPolynomialPreconditioner(diag_dom_small, degree=0).apply(r) - exact)
        err3 = np.linalg.norm(
            NeumannPolynomialPreconditioner(diag_dom_small, degree=3).apply(r) - exact)
        assert err3 < err0

    def test_negative_degree_rejected(self, poisson_small):
        with pytest.raises(ValueError):
            NeumannPolynomialPreconditioner(poisson_small, degree=-1)

    @pytest.mark.parametrize("degree", [0, 1, 3, 6])
    def test_in_place_loop_matches_expression_form(self, diag_dom_small, rng, degree):
        """The allocation-free degree loop is bit-identical to the naive
        temporary-per-step formulation it replaced."""
        m = NeumannPolynomialPreconditioner(diag_dom_small, degree=degree)
        r = rng.standard_normal(diag_dom_small.shape[0])

        z = m._inv_diag * r
        term = z.copy()
        for _ in range(degree):
            term = term - m._inv_diag * m.A.matvec(term)
            z = z + term
        np.testing.assert_array_equal(m.apply(r), z)

    def test_length_validated(self, poisson_small):
        m = NeumannPolynomialPreconditioner(poisson_small, degree=1)
        with pytest.raises(ValueError):
            m.apply(np.ones(2))
