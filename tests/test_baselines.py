"""Unit tests for the CG baseline and the SciPy GMRES cross-check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cg import cg
from repro.core.gmres import gmres
from repro.core.status import SolverStatus
from repro.precond.jacobi import JacobiPreconditioner

from reference import scipy_gmres


class TestCG:
    def test_converges_on_spd(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = cg(poisson_medium, b, tol=1e-10, maxiter=500)
        assert result.converged
        np.testing.assert_allclose(poisson_medium.matvec(result.x), b, rtol=1e-7, atol=1e-8)

    def test_matches_gmres_solution(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        x_cg = cg(poisson_medium, b, tol=1e-11, maxiter=600).x
        x_gm = gmres(poisson_medium, b, tol=1e-11, maxiter=600).x
        np.testing.assert_allclose(x_cg, x_gm, rtol=1e-6, atol=1e-8)

    def test_preconditioned_cg_faster(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        plain = cg(poisson_medium, b, tol=1e-10, maxiter=600)
        pre = cg(poisson_medium, b, tol=1e-10, maxiter=600,
                 preconditioner=JacobiPreconditioner(poisson_medium))
        assert pre.converged
        assert pre.iterations <= plain.iterations + 1

    def test_zero_rhs(self, poisson_small):
        result = cg(poisson_small, np.zeros(poisson_small.shape[0]))
        assert result.converged
        assert result.iterations == 0

    def test_exact_initial_guess(self, poisson_small, rng):
        x = rng.standard_normal(poisson_small.shape[0])
        result = cg(poisson_small, poisson_small.matvec(x), x0=x, tol=1e-10)
        assert result.iterations == 0

    def test_max_iterations(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = cg(poisson_medium, b, tol=1e-14, maxiter=3)
        assert result.status is SolverStatus.MAX_ITERATIONS

    def test_struggles_on_nonsymmetric(self, circuit_problem_tiny):
        """The paper's point: CG is not applicable to the circuit problem."""
        p = circuit_problem_tiny
        result = cg(p.A, p.b, tol=1e-10, maxiter=p.n)
        gm = gmres(p.A, p.b, tol=1e-10, maxiter=p.n)
        # CG either fails outright or is much less accurate than GMRES here.
        assert (not result.converged) or result.residual_norm > 10 * gm.residual_norm

    def test_invalid_maxiter(self, poisson_small):
        with pytest.raises(ValueError):
            cg(poisson_small, np.ones(poisson_small.shape[0]), maxiter=0)

    def test_callable_preconditioner(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        inv_diag = 1.0 / poisson_medium.diagonal()
        result = cg(poisson_medium, b, tol=1e-10, maxiter=600,
                    preconditioner=lambda r: inv_diag * r)
        assert result.converged


class TestScipyWrapper:
    def test_matches_our_gmres(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        theirs = scipy_gmres(poisson_medium, b, tol=1e-10, maxiter=500, restart=500)
        ours = gmres(poisson_medium, b, tol=1e-10, maxiter=500)
        assert theirs.converged
        np.testing.assert_allclose(theirs.x, ours.x, rtol=1e-6, atol=1e-8)

    def test_history_collected(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.shape[0])
        result = scipy_gmres(poisson_small, b, tol=1e-8, maxiter=200, restart=50)
        assert len(result.history) > 0
