"""Unit and integration tests for the GMRES solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scipy_wrappers import scipy_gmres
from repro.core.detectors import HessenbergBoundDetector
from repro.core.exceptions import FaultDetectedError
from repro.core.gmres import gmres
from repro.core.status import SolverStatus
from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault
from repro.faults.schedule import InjectionSchedule
from repro.precond.jacobi import JacobiPreconditioner
from repro.sparse.norms import frobenius_norm
from repro.specs import SolveSpec


class TestBasicConvergence:
    def test_dense_system(self, small_dense, rng):
        b = rng.standard_normal(12)
        result = gmres(small_dense, b, tol=1e-12, maxiter=50)
        assert result.converged
        np.testing.assert_allclose(small_dense @ result.x, b, rtol=1e-8, atol=1e-8)

    def test_poisson(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = gmres(poisson_medium, b, tol=1e-10, maxiter=400)
        assert result.status is SolverStatus.CONVERGED
        assert result.residual_norm <= 1e-10 * np.linalg.norm(b) * (1 + 1e-6)

    def test_nonsymmetric(self, nonsym_small, rng):
        b = rng.standard_normal(nonsym_small.shape[0])
        result = gmres(nonsym_small, b, tol=1e-10, maxiter=200)
        assert result.converged
        np.testing.assert_allclose(nonsym_small.matvec(result.x), b, rtol=1e-6, atol=1e-6)

    def test_identity_converges_immediately(self):
        n = 20
        b = np.arange(1.0, n + 1)
        result = gmres(np.eye(n), b, tol=1e-12)
        assert result.converged
        assert result.iterations <= 1
        np.testing.assert_allclose(result.x, b, rtol=1e-12)

    def test_zero_rhs(self, poisson_small):
        result = gmres(poisson_small, np.zeros(poisson_small.shape[0]), tol=1e-10)
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.x, np.zeros(poisson_small.shape[0]))

    def test_initial_guess_exact(self, poisson_small, rng):
        x_exact = rng.standard_normal(poisson_small.shape[0])
        b = poisson_small.matvec(x_exact)
        result = gmres(poisson_small, b, x0=x_exact, tol=1e-10)
        assert result.converged
        assert result.iterations == 0

    def test_matches_scipy(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        ours = gmres(poisson_medium, b, tol=1e-10, maxiter=500)
        theirs = scipy_gmres(poisson_medium, b, tol=1e-10, maxiter=500, restart=500)
        np.testing.assert_allclose(ours.x, theirs.x, rtol=1e-6, atol=1e-8)

    def test_residual_history_monotone(self, poisson_medium, rng):
        """GMRES's residual estimate is monotonically non-increasing (no faults)."""
        b = rng.standard_normal(poisson_medium.shape[0])
        result = gmres(poisson_medium, b, tol=1e-10, maxiter=300)
        assert result.history.is_monotone_nonincreasing(rtol=1e-10)

    def test_happy_breakdown(self):
        A = np.diag([2.0, 3.0, 4.0])
        b = np.array([1.0, 0.0, 0.0])
        result = gmres(A, b, tol=0.0, maxiter=3)
        assert result.status in (SolverStatus.HAPPY_BREAKDOWN, SolverStatus.CONVERGED)
        np.testing.assert_allclose(result.x, [0.5, 0.0, 0.0], rtol=1e-12)


class TestRestartAndBudget:
    def test_restarted_converges(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = gmres(poisson_medium, b, tol=1e-8, maxiter=2000, restart=20)
        assert result.converged

    def test_restarted_no_worse_than_iteration_budget(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.shape[0])
        result = gmres(poisson_small, b, tol=1e-14, maxiter=10, restart=5)
        assert result.iterations <= 10

    def test_fixed_iteration_mode(self, poisson_small, rng):
        """tol=0 forces the full budget — the paper's inner-solve mode."""
        b = rng.standard_normal(poisson_small.shape[0])
        result = gmres(poisson_small, b, tol=0.0, maxiter=7, restart=7)
        assert result.iterations == 7
        assert result.status is SolverStatus.MAX_ITERATIONS

    def test_max_iterations_status(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = gmres(poisson_medium, b, tol=1e-14, maxiter=3)
        assert result.status is SolverStatus.MAX_ITERATIONS

    @pytest.mark.parametrize("kwargs", [{"maxiter": 0}, {"restart": 0}])
    def test_invalid_budgets(self, poisson_small, kwargs):
        with pytest.raises(ValueError):
            gmres(poisson_small, np.ones(poisson_small.shape[0]), **kwargs)

    def test_matvec_count(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.shape[0])
        result = gmres(poisson_small, b, tol=0.0, maxiter=5, restart=5)
        # 1 initial residual + 5 Arnoldi steps + 1 final residual
        assert result.matvecs == 7


class TestPreconditioning:
    def test_jacobi_right_preconditioning(self, diag_dom_small, rng):
        b = rng.standard_normal(diag_dom_small.shape[0])
        plain = gmres(diag_dom_small, b, tol=1e-10, maxiter=200)
        pre = gmres(diag_dom_small, b, tol=1e-10, maxiter=200,
                    preconditioner=JacobiPreconditioner(diag_dom_small))
        assert pre.converged
        assert pre.iterations <= plain.iterations
        np.testing.assert_allclose(diag_dom_small.matvec(pre.x), b, rtol=1e-7, atol=1e-8)

    def test_callable_preconditioner(self, diag_dom_small, rng):
        b = rng.standard_normal(diag_dom_small.shape[0])
        inv_diag = 1.0 / diag_dom_small.diagonal()
        pre = gmres(diag_dom_small, b, tol=1e-10, maxiter=200,
                    preconditioner=lambda r: inv_diag * r)
        assert pre.converged

    def test_matrix_preconditioner_shape_validated(self, poisson_small, rng):
        with pytest.raises(ValueError, match="shape"):
            gmres(poisson_small, rng.standard_normal(poisson_small.shape[0]),
                  preconditioner=np.eye(3))


class TestInputValidation:
    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            gmres(np.ones((3, 4)), np.ones(3))

    def test_rhs_length_rejected(self, poisson_small):
        with pytest.raises(ValueError, match="length"):
            gmres(poisson_small, np.ones(5))

    def test_unknown_detector_string(self, poisson_small):
        with pytest.raises(ValueError):
            gmres(poisson_small, np.ones(poisson_small.shape[0]), detector="magic")

    def test_detector_type_checked(self, poisson_small):
        with pytest.raises(TypeError):
            gmres(poisson_small, np.ones(poisson_small.shape[0]), detector=42)


class TestParametersBundle:
    def test_as_kwargs_roundtrip(self, poisson_small, rng):
        params = SolveSpec(tol=1e-9, maxiter=50, orthogonalization="cgs2")
        b = rng.standard_normal(poisson_small.shape[0])
        result = gmres(poisson_small, b, **params.gmres_kwargs())
        assert result.converged

    def test_replace(self):
        params = SolveSpec(tol=1e-6)
        new = params.replace(maxiter=10)
        assert new.maxiter == 10
        assert new.tol == 1e-6
        assert params.maxiter is None


class TestFaultsAndDetection:
    def _injector(self, factor, location, position="first"):
        return FaultInjector(ScalingFault(factor),
                             InjectionSchedule(aggregate_inner_iteration=location,
                                               mgs_position=position))

    def test_undetectable_fault_breaks_monotonicity_or_slows(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        clean = gmres(poisson_medium, b, tol=1e-10, maxiter=400)
        faulty = gmres(poisson_medium, b, tol=1e-10, maxiter=400,
                       injector=self._injector(10 ** -0.5, 1))
        assert faulty.converged
        assert faulty.iterations >= clean.iterations

    def test_large_fault_detected_with_bound_detector(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = gmres(poisson_medium, b, tol=1e-10, maxiter=400,
                       detector="bound", detector_response="zero",
                       injector=self._injector(1e150, 2))
        assert result.events.count("fault_injected") == 1
        assert result.events.count("fault_detected") >= 1
        assert result.converged

    def test_detector_raise_aborts(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        with pytest.raises(FaultDetectedError):
            gmres(poisson_medium, b, tol=1e-10, maxiter=400,
                  detector="bound", detector_response="raise",
                  injector=self._injector(1e150, 2))

    def test_detector_never_fires_without_faults(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = gmres(poisson_medium, b, tol=1e-10, maxiter=400,
                       detector="bound", detector_response="raise")
        assert result.converged
        assert result.events.count("fault_detected") == 0

    def test_explicit_detector_instance(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        det = HessenbergBoundDetector(frobenius_norm(poisson_medium))
        result = gmres(poisson_medium, b, tol=1e-10, maxiter=400, detector=det,
                       detector_response="recompute",
                       injector=self._injector(1e150, 0))
        clean = gmres(poisson_medium, b, tol=1e-10, maxiter=400)
        # recompute restores the correct value, so convergence is unaffected.
        assert result.iterations == clean.iterations

    def test_huge_fault_without_detector_still_terminates(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.shape[0])
        result = gmres(poisson_small, b, tol=1e-8, maxiter=100,
                       injector=self._injector(1e150, 0))
        assert result.iterations <= 100
        assert np.all(np.isfinite(result.residual_norm) or True)  # must not raise

    @pytest.mark.parametrize("policy", ["standard", "hybrid", "rank_revealing"])
    def test_lsq_policies_consistent_without_faults(self, poisson_small, rng, policy):
        b = rng.standard_normal(poisson_small.shape[0])
        result = gmres(poisson_small, b, tol=1e-10, maxiter=100, lsq_policy=policy)
        assert result.converged
        np.testing.assert_allclose(poisson_small.matvec(result.x), b, rtol=1e-6, atol=1e-7)


class TestOrthogonalizationVariants:
    @pytest.mark.parametrize("orth", ["mgs", "cgs", "cgs2"])
    def test_variants_converge(self, nonsym_small, rng, orth):
        b = rng.standard_normal(nonsym_small.shape[0])
        result = gmres(nonsym_small, b, tol=1e-10, maxiter=200, orthogonalization=orth)
        assert result.converged

    def test_unknown_variant_rejected(self, poisson_small, rng):
        with pytest.raises(ValueError):
            gmres(poisson_small, rng.standard_normal(poisson_small.shape[0]),
                  orthogonalization="householder")
