"""Unit and integration tests for the nested FT-GMRES solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ftgmres import ft_gmres
from repro.core.detectors import HessenbergBoundDetector
from repro.core.status import SolverStatus
from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault
from repro.faults.schedule import InjectionSchedule
from repro.faults.sandbox import Sandbox
from repro.sparse.norms import frobenius_norm
from repro.specs import SolveSpec


class TestFailureFree:
    def test_converges_on_poisson(self, poisson_problem_tiny):
        p = poisson_problem_tiny
        result = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=40)
        assert result.converged
        assert p.residual_norm(result.x) <= 1e-7 * np.linalg.norm(p.b)

    def test_converges_on_circuit(self, circuit_problem_tiny):
        p = circuit_problem_tiny
        result = ft_gmres(p.A, p.b, inner_iterations=20, max_outer=80)
        assert result.converged

    def test_inner_results_bookkeeping(self, poisson_problem_tiny):
        p = poisson_problem_tiny
        result = ft_gmres(p.A, p.b, inner_iterations=8, max_outer=40)
        assert len(result.inner_results) == result.outer_iterations
        assert result.total_inner_iterations == 8 * result.outer_iterations
        assert all(r.iterations == 8 for r in result.inner_results)

    def test_outer_history_recorded(self, poisson_problem_tiny):
        p = poisson_problem_tiny
        result = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=40)
        assert len(result.history) == result.outer_iterations + 1
        assert result.history.is_monotone_nonincreasing(rtol=1e-8)

    def test_faster_than_plain_gmres_in_outer_iterations(self, poisson_problem_tiny):
        from repro.core.gmres import gmres

        p = poisson_problem_tiny
        nested = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=40)
        plain = gmres(p.A, p.b, tol=1e-8, maxiter=400)
        assert nested.outer_iterations < plain.iterations

    def test_params_override_precedence(self, poisson_problem_tiny):
        p = poisson_problem_tiny
        spec = SolveSpec(method="ft_gmres", tol=1e-4, max_outer=5,
                         inner=SolveSpec(method="gmres", tol=0.0, maxiter=3))
        result = ft_gmres(p.A, p.b, spec=spec, inner_iterations=6, max_outer=30,
                          outer_tol=1e-8)
        # keyword overrides win
        assert all(r.iterations == 6 for r in result.inner_results)
        assert result.converged

    def test_default_inner_budget_is_25(self):
        assert SolveSpec(method="ft_gmres").gmres_kwargs()["maxiter"] == 25
        unset = SolveSpec(method="ft_gmres", inner=SolveSpec(method="gmres"))
        assert unset.gmres_kwargs()["maxiter"] == 25


class TestWithFaults:
    def _injector(self, factor, location, position="first"):
        return FaultInjector(ScalingFault(factor),
                             InjectionSchedule(aggregate_inner_iteration=location,
                                               mgs_position=position))

    def test_exactly_one_fault_injected(self, poisson_problem_tiny):
        p = poisson_problem_tiny
        injector = self._injector(1e150, 3)
        result = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=40, injector=injector)
        assert injector.injections_performed == 1
        assert result.faults_injected == 1

    def test_runs_through_large_fault(self, poisson_problem_tiny):
        """The headline claim: FT-GMRES converges despite an enormous SDC."""
        p = poisson_problem_tiny
        clean = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=60)
        faulty = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=60,
                          injector=self._injector(1e150, 2))
        assert faulty.converged
        assert p.residual_norm(faulty.x) <= 1e-7 * np.linalg.norm(p.b)
        # Bounded penalty: a handful of extra outer iterations at most.
        assert faulty.outer_iterations <= clean.outer_iterations + 5

    @pytest.mark.parametrize("factor", [10 ** -0.5, 1e-300])
    def test_runs_through_small_faults(self, poisson_problem_tiny, factor):
        p = poisson_problem_tiny
        clean = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=60)
        faulty = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=60,
                          injector=self._injector(factor, 5))
        assert faulty.converged
        assert faulty.outer_iterations <= clean.outer_iterations + 3

    def test_fault_location_recorded(self, poisson_problem_tiny):
        p = poisson_problem_tiny
        injector = self._injector(1e150, 13)
        ft_gmres(p.A, p.b, inner_iterations=10, max_outer=40, injector=injector)
        record = injector.records[0]
        assert record.aggregate_inner_iteration == 13
        assert record.inner_solve_index == 1      # 13 // 10
        assert record.inner_iteration == 3        # 13 % 10
        assert record.mgs_index == 0              # first MGS position

    def test_faults_only_inside_sandbox(self, poisson_problem_tiny):
        """The sandbox model: the injector is inert outside inner solves."""
        p = poisson_problem_tiny
        injector = self._injector(1e150, 0)
        sandbox = Sandbox("test-inner")
        ft_gmres(p.A, p.b, inner_iterations=10, max_outer=40, injector=injector,
                 sandbox=sandbox)
        assert injector.sandbox is sandbox
        assert sandbox.entries > 0
        assert not sandbox.active  # deactivated after the solve
        # Trying to corrupt outside the sandbox has no effect now.
        assert injector.corrupt_scalar("hessenberg", 1.0, aggregate_inner_iteration=0,
                                       mgs_index=0, mgs_length=1) == 1.0

    def test_detector_limits_damage(self, poisson_problem_tiny):
        """With the bound detector + filtering, large faults cost no more than
        without the detector (the paper's Section VII-E claim)."""
        p = poisson_problem_tiny
        detector = HessenbergBoundDetector(frobenius_norm(p.A))
        worst_with, worst_without = 0, 0
        for loc in (0, 1, 5, 11):
            unprotected = ft_gmres(
                p.A, p.b, inner_iterations=10, max_outer=60,
                injector=self._injector(1e150, loc))
            spec = SolveSpec(method="ft_gmres",
                             inner=SolveSpec(method="gmres", tol=0.0, maxiter=10,
                                             detector=detector, detector_response="zero"))
            protected = ft_gmres(p.A, p.b, inner_iterations=10, max_outer=60,
                                 spec=spec, injector=self._injector(1e150, loc))
            assert protected.converged
            worst_with = max(worst_with, protected.outer_iterations)
            worst_without = max(worst_without, unprotected.outer_iterations)
        assert worst_with <= worst_without

    def test_detection_events_propagate_to_nested_result(self, poisson_problem_tiny):
        p = poisson_problem_tiny
        detector = HessenbergBoundDetector(frobenius_norm(p.A))
        spec = SolveSpec(method="ft_gmres",
                         inner=SolveSpec(method="gmres", tol=0.0, maxiter=10,
                                         detector=detector, detector_response="zero"))
        result = ft_gmres(p.A, p.b, spec=spec, max_outer=60,
                          injector=self._injector(1e150, 4))
        assert result.faults_detected >= 1
        assert result.faults_injected == 1

    def test_outer_never_silently_wrong(self, circuit_problem_tiny):
        """Whatever the fault does, a CONVERGED status implies a small true residual."""
        p = circuit_problem_tiny
        for loc in (0, 7, 19):
            result = ft_gmres(p.A, p.b, inner_iterations=15, max_outer=80,
                              injector=self._injector(1e150, loc))
            if result.status is SolverStatus.CONVERGED:
                assert p.residual_norm(result.x) <= 1e-7 * np.linalg.norm(p.b)
