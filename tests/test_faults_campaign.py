"""Unit tests for fault campaigns (the Figure 3/4 sweep engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run_campaign
from repro.faults.campaign import FaultCampaign
from repro.faults.models import ScalingFault
from repro.gallery.problems import poisson_problem
from repro.results.events import CollectingSink
from repro.specs import SolveSpec, SpecError


@pytest.fixture(scope="module")
def tiny_problem():
    """A very small Poisson problem shared by the campaign tests."""
    return poisson_problem(grid_n=8)  # 64 unknowns


@pytest.fixture(scope="module")
def tiny_campaign_result(tiny_problem):
    """One campaign run shared by several read-only assertions."""
    campaign = FaultCampaign(tiny_problem, inner_iterations=6, max_outer=30,
                             fault_classes={"large": ScalingFault(1e150),
                                            "near_zero": ScalingFault(1e-300)},
                             mgs_position="first", detector=None, stride=5)
    return campaign.run()


class TestCampaignConfig:
    def test_invalid_mgs_position(self, tiny_problem):
        with pytest.raises(ValueError):
            FaultCampaign(tiny_problem, mgs_position="middle")

    def test_invalid_detector(self, tiny_problem):
        with pytest.raises(ValueError):
            FaultCampaign(tiny_problem, detector="magic")

    def test_solver_dict_is_read_as_a_solve_spec(self, tiny_problem):
        spec = {"method": "ft_gmres", "max_outer": 7,
                "inner": {"method": "gmres", "tol": 0.0, "maxiter": 4}}
        campaign = FaultCampaign(tiny_problem, solver=spec)
        assert campaign.solver == FaultCampaign(
            tiny_problem, solver=SolveSpec.from_dict(spec)).solver
        assert (campaign.max_outer, campaign.inner_iterations) == (7, 4)
        with pytest.raises(SpecError) as excinfo:
            FaultCampaign(tiny_problem, solver={
                "method": "ft_gmres", "inner": {"method": "gmres", "maxiter": 0}})
        assert excinfo.value.field == "solver.inner.maxiter"

    def test_solver_of_another_type_raises_spec_error(self, tiny_problem):
        with pytest.raises(SpecError) as excinfo:
            FaultCampaign(tiny_problem, solver="ft_gmres")
        assert excinfo.value.field == "solver"

    def test_invalid_stride(self, tiny_problem):
        with pytest.raises(ValueError):
            FaultCampaign(tiny_problem, inner_iterations=4, max_outer=20, stride=0)
        campaign = FaultCampaign(tiny_problem, inner_iterations=4, max_outer=20)
        with pytest.raises(ValueError):
            campaign.plan(stride=0)

    def test_bound_detector_resolved(self, tiny_problem):
        from repro.core.detectors import HessenbergBoundDetector

        campaign = FaultCampaign(tiny_problem, detector="bound")
        assert isinstance(campaign.detector, HessenbergBoundDetector)

    def test_default_fault_classes_are_papers(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem)
        assert set(campaign.fault_classes) == {"large", "slightly_smaller", "near_zero"}


class TestFailureFreeBaseline:
    def test_baseline_converges(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=6, max_outer=30)
        baseline = campaign.run_failure_free()
        assert baseline.converged
        assert baseline.outer_iterations > 0


class TestSingleTrial:
    def test_single_trial_record(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=6, max_outer=30,
                                 mgs_position="last", detector=None)
        trial = campaign.run_single("large", ScalingFault(1e150), 3)
        assert trial.fault_class == "large"
        assert trial.aggregate_inner_iteration == 3
        assert trial.mgs_position == "last"
        assert trial.faults_injected == 1
        assert trial.converged
        assert not trial.detector_enabled

    def test_detector_enabled_trial(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=6, max_outer=30,
                                 detector="bound", detector_response="zero")
        trial = campaign.run_single("large", ScalingFault(1e150), 2)
        assert trial.detector_enabled
        assert trial.faults_detected >= 1


class TestCampaignRun:
    def test_trial_counts(self, tiny_campaign_result):
        res = tiny_campaign_result
        expected_locations = len(range(0, res.failure_free_outer * res.inner_iterations, 5))
        assert len(res.trials) == 2 * expected_locations

    def test_every_trial_injected_exactly_one_fault(self, tiny_campaign_result):
        assert all(t.faults_injected == 1 for t in tiny_campaign_result.trials)

    def test_series_sorted_and_complete(self, tiny_campaign_result):
        x, y = tiny_campaign_result.series("large")
        assert np.all(np.diff(x) > 0)
        assert x.size == y.size > 0

    def test_series_empty_for_unknown_class(self, tiny_campaign_result):
        x, y = tiny_campaign_result.series("not_a_class")
        assert x.size == 0 and y.size == 0

    def test_fault_classes_listed(self, tiny_campaign_result):
        assert tiny_campaign_result.fault_classes() == ["large", "near_zero"]

    def test_summary_statistics_consistent(self, tiny_campaign_result):
        res = tiny_campaign_result
        summary = res.summary()
        for cls in res.fault_classes():
            assert summary[cls]["max_outer"] >= res.failure_free_outer
            assert summary[cls]["max_increase"] == summary[cls]["max_outer"] - res.failure_free_outer
            assert 0.0 <= summary[cls]["detection_rate"] <= 1.0

    def test_explicit_locations(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=6, max_outer=30,
                                 fault_classes={"large": ScalingFault(1e150)},
                                 locations=(0, 4, 9))
        res = campaign.run()
        assert sorted({t.aggregate_inner_iteration for t in res.trials}) == [0, 4, 9]

    def test_progress_callback(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=6, max_outer=30,
                                 fault_classes={"large": ScalingFault(1e150)},
                                 locations=(0, 5))
        sink = CollectingSink()
        campaign.run(sink=sink)
        assert [(e.data["done"], e.data["total"])
                for e in sink.of_kind("trial_completed")] == [(1, 2), (2, 2)]

    def test_functional_wrapper(self, tiny_problem):
        res = run_campaign(tiny_problem, inner_iterations=6, max_outer=30,
                           fault_classes={"large": ScalingFault(1e150)},
                           locations=(0, 3))
        assert len(res.trials) == 2
        assert res.problem_name == tiny_problem.name

    def test_non_converged_listing(self, tiny_campaign_result):
        # All tiny-problem trials should converge within the generous budget.
        assert tiny_campaign_result.non_converged() == []
