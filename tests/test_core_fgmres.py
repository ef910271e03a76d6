"""Unit and integration tests for Flexible GMRES."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fgmres import fgmres, fgmres_steps
from repro.core.gmres import gmres
from repro.core.status import SolverStatus
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.ilu import ILU0Preconditioner
from repro.specs import SolveSpec


class TestBasicBehaviour:
    def test_identity_inner_solver_matches_gmres(self, poisson_medium, rng):
        """With the identity 'preconditioner', FGMRES is plain (full) GMRES."""
        b = rng.standard_normal(poisson_medium.shape[0])
        flexible = fgmres(poisson_medium, b, inner_solver=None, tol=1e-10, max_outer=300)
        plain = gmres(poisson_medium, b, tol=1e-10, maxiter=300)
        assert flexible.converged
        assert abs(flexible.iterations - plain.iterations) <= 1
        np.testing.assert_allclose(flexible.x, plain.x, rtol=1e-6, atol=1e-8)

    def test_fixed_preconditioner_inner_solver(self, diag_dom_small, rng):
        b = rng.standard_normal(diag_dom_small.shape[0])
        jac = JacobiPreconditioner(diag_dom_small)
        result = fgmres(diag_dom_small, b, inner_solver=lambda q, j: jac.apply(q),
                        tol=1e-10, max_outer=100)
        assert result.converged
        np.testing.assert_allclose(diag_dom_small.matvec(result.x), b, rtol=1e-7, atol=1e-8)

    def test_changing_preconditioner(self, poisson_medium, rng):
        """The preconditioner may change every iteration (the 'flexible' part)."""
        b = rng.standard_normal(poisson_medium.shape[0])
        jac = JacobiPreconditioner(poisson_medium)
        ilu = ILU0Preconditioner(poisson_medium)

        def alternating(q, j):
            return jac.apply(q) if j % 2 == 0 else ilu.apply(q)

        result = fgmres(poisson_medium, b, inner_solver=alternating, tol=1e-9, max_outer=200)
        assert result.converged

    def test_gmres_inner_solver(self, poisson_medium, rng):
        """An inner GMRES solve as the preconditioner (the FT-GMRES structure)."""
        b = rng.standard_normal(poisson_medium.shape[0])

        def inner(q, j):
            return gmres(poisson_medium, q, tol=0.0, maxiter=10, restart=10).x

        result = fgmres(poisson_medium, b, inner_solver=inner, tol=1e-9, max_outer=50)
        assert result.converged
        # The nested iteration should use far fewer outer iterations than
        # unpreconditioned GMRES needs total iterations.
        assert result.iterations < 40

    def test_zero_rhs(self, poisson_small):
        result = fgmres(poisson_small, np.zeros(poisson_small.shape[0]), tol=1e-10)
        assert result.converged
        assert result.iterations == 0

    def test_nonfinite_inner_result_sanitized(self, poisson_small, rng, count_kind):
        b = rng.standard_normal(poisson_small.shape[0])

        def broken(q, j):
            z = q.copy()
            if j == 1:
                z[0] = np.nan
            return z

        result = fgmres(poisson_small, b, inner_solver=broken, tol=1e-8, max_outer=80)
        assert count_kind(result.events, "inner_result_nonfinite") == 1
        assert result.converged

    def test_wrong_inner_length_rejected(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.shape[0])
        with pytest.raises(ValueError, match="length"):
            fgmres(poisson_small, b, inner_solver=lambda q, j: q[:3], max_outer=5)

    def test_invalid_max_outer(self, poisson_small):
        with pytest.raises(ValueError):
            fgmres(poisson_small, np.ones(poisson_small.shape[0]), max_outer=0)

    def test_invalid_orthogonalization(self, poisson_small):
        with pytest.raises(ValueError):
            fgmres(poisson_small, np.ones(poisson_small.shape[0]),
                   orthogonalization="qr")


class TestSteps:
    """``fgmres`` runs the ``fgmres_steps`` generator; so can any caller."""

    def test_running_the_steps_by_hand_is_fgmres(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        jac = JacobiPreconditioner(poisson_medium)
        full = fgmres(poisson_medium, b, inner_solver=lambda q, j: jac.apply(q),
                      tol=1e-10, max_outer=100)
        steps = fgmres_steps(poisson_medium, b, tol=1e-10, max_outer=100)
        asked = []
        try:
            j, q_j = next(steps)
            while True:
                asked.append(j)
                j, q_j = steps.send(jac.apply(q_j))
        except StopIteration as stop:
            result = stop.value
        assert asked == list(range(full.iterations))
        assert result.x.tobytes() == full.x.tobytes()
        assert result.history.residual_norms == full.history.residual_norms
        assert (result.status, result.matvecs) == (full.status, full.matvecs)

    def test_invalid_arguments_raise_on_the_first_step(self, poisson_small):
        steps = fgmres_steps(poisson_small, np.ones(poisson_small.shape[0]), max_outer=0)
        with pytest.raises(ValueError, match="max_outer"):
            next(steps)


class TestTrichotomy:
    def test_converged_branch(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = fgmres(poisson_medium, b, tol=1e-8, max_outer=300)
        assert result.status is SolverStatus.CONVERGED

    def test_happy_breakdown_branch(self):
        """Exact-solution inner solves give a happy breakdown on iteration 1."""
        A = np.diag([2.0, 5.0, 9.0])
        b = np.array([2.0, 5.0, 9.0])
        inv = np.diag(1.0 / np.diag(A))

        result = fgmres(A, b, inner_solver=lambda q, j: inv @ q, tol=1e-12, max_outer=3)
        assert result.status in (SolverStatus.HAPPY_BREAKDOWN, SolverStatus.CONVERGED)
        np.testing.assert_allclose(result.x, np.ones(3), rtol=1e-10)

    def test_rank_deficient_branch_reported_loudly(self):
        """Saad's Prop 2.2 case: zero inner solve makes H singular -> loud failure.

        The inner solver returns the zero vector, so A z_j = 0, every
        Hessenberg entry is zero, and h_{j+1,j} = 0 with a singular H block.
        FGMRES must report RANK_DEFICIENT instead of silently returning a
        wrong answer.
        """
        A = np.diag([1.0, 2.0, 3.0])
        b = np.array([1.0, 1.0, 1.0])
        result = fgmres(A, b, inner_solver=lambda q, j: np.zeros_like(q), max_outer=3)
        assert result.status is SolverStatus.RANK_DEFICIENT
        assert result.status.is_loud_failure
        assert any(e.kind == "rank_deficient" for e in result.events)

    def test_max_iterations_branch(self, poisson_medium, rng):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = fgmres(poisson_medium, b, tol=1e-14, max_outer=3)
        assert result.status is SolverStatus.MAX_ITERATIONS
        assert not result.status.is_loud_failure


class TestParameters:
    def test_replace(self):
        params = SolveSpec(method="fgmres", tol=1e-4, max_outer=10)
        new = params.replace(max_outer=77)
        assert new.max_outer == 77 and new.tol == 1e-4
        assert params.max_outer == 10
        assert new.fgmres_kwargs()["max_outer"] == 77

    @pytest.mark.parametrize("policy", ["standard", "hybrid", "rank_revealing"])
    def test_lsq_policies(self, poisson_medium, rng, policy):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = fgmres(poisson_medium, b, tol=1e-8, max_outer=300, lsq_policy=policy)
        assert result.converged

    @pytest.mark.parametrize("orth", ["mgs", "cgs", "cgs2"])
    def test_orthogonalization_variants(self, poisson_medium, rng, orth):
        b = rng.standard_normal(poisson_medium.shape[0])
        result = fgmres(poisson_medium, b, tol=1e-8, max_outer=300, orthogonalization=orth)
        assert result.converged


class TestNoDetectorFastPath:
    """With ``detector=None`` the outer orthogonalization skips the
    per-coefficient screening hooks entirely; the fast branch must be
    bit-for-bit identical to the hooked branch with a never-firing detector
    (mirror of the no-hook Arnoldi branch of plain GMRES)."""

    @pytest.mark.parametrize("orth", ["mgs", "cgs", "cgs2"])
    def test_bit_identical_to_never_firing_detector(self, poisson_medium, rng, orth):
        from repro.core.detectors import NullDetector
        from repro.precond.ssor import SSORPreconditioner

        b = rng.standard_normal(poisson_medium.shape[0])
        ssor = SSORPreconditioner(poisson_medium)
        inner = lambda q, j: ssor.apply(q)  # noqa: E731
        fast = fgmres(poisson_medium, b, inner_solver=inner, tol=1e-9,
                      max_outer=200, orthogonalization=orth, detector=None)
        hooked = fgmres(poisson_medium, b, inner_solver=inner, tol=1e-9,
                        max_outer=200, orthogonalization=orth, detector=NullDetector())
        assert fast.converged and hooked.converged
        assert fast.iterations == hooked.iterations
        np.testing.assert_array_equal(fast.x, hooked.x)
        np.testing.assert_array_equal(fast.history.as_array(), hooked.history.as_array())

    def test_detector_still_screens_when_attached(self, poisson_medium, rng):
        """Sanity: the slow branch still consults the detector."""
        from repro.core.detectors import HessenbergBoundDetector

        b = rng.standard_normal(poisson_medium.shape[0])
        # An absurdly small bound flags every coefficient.
        result = fgmres(poisson_medium, b, tol=1e-9, max_outer=5,
                        detector=HessenbergBoundDetector(1e-30), detector_response="flag")
        assert any(e.kind == "fault_detected" for e in result.events)


class TestOuterDetector:
    """An outer bound detector answering an outer ``hessenberg`` fault.

    The outer coefficients satisfy ``|h_ij| <= ||A||_2 ||z_j||``, so the
    check is on ``h_ij / ||z_j||``.  A Jacobi inner solve makes ``z_j``
    non-unit, so the scaling matters.
    """

    STEP = 2

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.gallery.problems import poisson_problem

        return poisson_problem(grid_n=8, seed=7)

    def _solve(self, problem, model, detector=None, response="flag"):
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import InjectionSchedule

        injector = FaultInjector(model, InjectionSchedule(
            site="hessenberg", aggregate_inner_iteration=self.STEP,
            mgs_position="last"))
        jacobi = JacobiPreconditioner(problem.A)
        z_norms = {}

        def inner_solver(q, j):
            z = jacobi.apply(q)
            z_norms.setdefault(j, float(np.linalg.norm(z)))
            return z

        result = fgmres(problem.A, problem.b, inner_solver=inner_solver,
                        tol=1e-10, max_outer=30, detector=detector,
                        detector_response=response, injector=injector)
        return result, z_norms

    @pytest.mark.parametrize("response", ["flag", "zero", "clamp", "recompute", "raise"])
    def test_every_response(self, problem, response):
        from repro.core.detectors import HessenbergBoundDetector
        from repro.core.exceptions import FaultDetectedError
        from repro.faults.models import AbsoluteFault, ZeroFault
        from repro.sparse.norms import frobenius_norm

        detector = HessenbergBoundDetector(frobenius_norm(problem.A))
        # Below the bound, but past it once scaled by 1 / ||z_j||.
        fault = AbsoluteFault(20.0)
        if response == "raise":
            with pytest.raises(FaultDetectedError):
                self._solve(problem, fault, detector, response)
            return
        result, z_norms = self._solve(problem, fault, detector, response)
        (event,) = [e for e in result.events if e.kind == "fault_detected"]
        assert (event.where, event.outer_iteration, event.inner_iteration) == \
            ("outer_hessenberg", self.STEP, self.STEP)
        assert event.data == {
            "mgs_index": self.STEP, "response": response,
            "aggregate_inner_iteration": self.STEP, "value": 20.0,
            "bound": detector.effective_bound, "detector": detector.name,
            "reason": event.data["reason"],
        }
        assert 20.0 / z_norms[self.STEP] > detector.effective_bound > 20.0

        # Each response equals an undetected run whose fault leaves the
        # value the response chose: flag and recompute keep h, zero writes
        # 0, clamp writes sign(h) * bound * ||z_j||.
        kept = {"flag": fault, "recompute": fault, "zero": ZeroFault(),
                "clamp": AbsoluteFault(detector.effective_bound * z_norms[self.STEP])}
        reference, _ = self._solve(problem, kept[response])
        np.testing.assert_array_equal(result.x, reference.x)
        np.testing.assert_array_equal(result.history.as_array(),
                                      reference.history.as_array())

    def test_unknown_response_rejected(self, problem):
        with pytest.raises(ValueError, match="detector_response"):
            fgmres(problem.A, problem.b, max_outer=3, detector="bound",
                   detector_response="zeroo")
