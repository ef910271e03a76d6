"""Unit tests for solver status, results, and convergence histories."""

from __future__ import annotations

import numpy as np

from repro.core.status import (
    ConvergenceHistory,
    NestedSolverResult,
    SolverResult,
    SolverStatus,
)
from repro.results.events import Event


class TestSolverStatus:
    def test_success_classification(self):
        assert SolverStatus.CONVERGED.is_success
        assert SolverStatus.HAPPY_BREAKDOWN.is_success
        assert SolverStatus.MAX_ITERATIONS.is_success
        assert not SolverStatus.RANK_DEFICIENT.is_success
        assert not SolverStatus.FAULT_DETECTED.is_success

    def test_loud_failure_classification(self):
        assert SolverStatus.RANK_DEFICIENT.is_loud_failure
        assert SolverStatus.FAULT_DETECTED.is_loud_failure
        assert not SolverStatus.CONVERGED.is_loud_failure
        assert not SolverStatus.MAX_ITERATIONS.is_loud_failure


class TestConvergenceHistory:
    def test_append_and_access(self):
        h = ConvergenceHistory()
        for v in (4.0, 2.0, 1.0):
            h.append(v)
        assert len(h) == 3
        assert h.initial == 4.0
        assert h.final == 1.0
        assert h[1] == 2.0
        np.testing.assert_array_equal(h.as_array(), [4.0, 2.0, 1.0])

    def test_empty_history(self):
        h = ConvergenceHistory()
        assert np.isnan(h.initial)
        assert np.isnan(h.final)
        assert h.is_monotone_nonincreasing()

    def test_monotonicity_check(self):
        h = ConvergenceHistory()
        for v in (8.0, 4.0, 4.0, 1.0):
            h.append(v)
        assert h.is_monotone_nonincreasing()
        h.append(2.0)
        assert not h.is_monotone_nonincreasing()

    def test_monotonicity_tolerance(self):
        h = ConvergenceHistory()
        h.append(1.0)
        h.append(1.0 + 1e-14)
        assert h.is_monotone_nonincreasing(rtol=1e-12)


class TestSolverResult:
    def _result(self, status):
        return SolverResult(x=np.zeros(3), status=status, iterations=5, residual_norm=1e-9)

    def test_converged_property(self):
        assert self._result(SolverStatus.CONVERGED).converged
        assert self._result(SolverStatus.HAPPY_BREAKDOWN).converged
        assert not self._result(SolverStatus.MAX_ITERATIONS).converged

    def test_default_containers(self):
        r = self._result(SolverStatus.CONVERGED)
        assert len(r.history) == 0
        assert len(r.events) == 0
        assert r.matvecs == 0


class TestNestedSolverResult:
    def _nested(self):
        events = [Event("fault_injected", where="hessenberg"),
                  Event("fault_detected", where="hessenberg"),
                  Event("fault_detected", where="hessenberg")]
        return NestedSolverResult(
            x=np.zeros(4), status=SolverStatus.CONVERGED, outer_iterations=9,
            total_inner_iterations=225, residual_norm=1e-10, events=events)

    def test_fault_counters(self):
        r = self._nested()
        assert r.faults_injected == 1
        assert r.faults_detected == 2

    def test_converged(self):
        r = self._nested()
        assert r.converged
        r.status = SolverStatus.RANK_DEFICIENT
        assert not r.converged

    def test_inner_results_default(self):
        assert self._nested().inner_results == []
