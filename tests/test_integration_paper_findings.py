"""End-to-end integration tests that reproduce the paper's qualitative findings.

Each test corresponds to a claim made in the paper's evaluation or summary
(Section VII), exercised at reduced problem sizes so the whole suite stays
fast.  The full-size sweeps live in the benchmark harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detectors import HessenbergBoundDetector
from repro.core.ftgmres import ft_gmres
from repro.core.gmres import gmres
from repro.core.least_squares import LeastSquaresPolicy
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.models import PAPER_FAULT_CLASSES, BitFlipFault, ScalingFault
from repro.faults.schedule import InjectionSchedule
from repro.gallery.problems import circuit_problem, poisson_problem
from repro.sparse.norms import frobenius_norm
from repro.specs import SolveSpec


@pytest.fixture(scope="module")
def poisson():
    """SPD problem, 400 unknowns."""
    return poisson_problem(grid_n=20)


@pytest.fixture(scope="module")
def circuit():
    """Nonsymmetric ill-conditioned problem, 400 unknowns."""
    return circuit_problem(400)


INNER = 10  # inner iterations per outer solve for these reduced-size tests


def make_injector(fault, location, position="first"):
    return FaultInjector(fault, InjectionSchedule(aggregate_inner_iteration=location,
                                                  mgs_position=position))


class TestClaimRunThrough:
    """Section VII / conclusions: the inner-outer scheme 'runs through' SDC of
    almost any magnitude in the orthogonalization phase."""

    @pytest.mark.parametrize("fault_class", list(PAPER_FAULT_CLASSES))
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_poisson_runs_through_every_class(self, poisson, fault_class, position):
        clean = ft_gmres(poisson.A, poisson.b, inner_iterations=INNER, max_outer=60)
        assert clean.converged
        for location in (0, 1, INNER - 1, INNER, 3 * INNER + 2):
            faulty = ft_gmres(poisson.A, poisson.b, inner_iterations=INNER, max_outer=60,
                              injector=make_injector(PAPER_FAULT_CLASSES[fault_class],
                                                     location, position))
            assert faulty.converged, (fault_class, position, location)
            assert poisson.residual_norm(faulty.x) <= 1e-7 * np.linalg.norm(poisson.b)

    def test_circuit_runs_through_large_faults(self, circuit):
        clean = ft_gmres(circuit.A, circuit.b, inner_iterations=INNER, max_outer=120)
        assert clean.converged
        for location in (0, 2, INNER + 1):
            faulty = ft_gmres(circuit.A, circuit.b, inner_iterations=INNER, max_outer=120,
                              injector=make_injector(ScalingFault(1e150), location))
            assert faulty.converged
            # Bounded penalty, no silent wrong answer.
            assert circuit.residual_norm(faulty.x) <= 1e-7 * np.linalg.norm(circuit.b)
            assert faulty.outer_iterations <= clean.outer_iterations + 10

    def test_single_gmres_not_as_robust(self, poisson):
        """Contrast: a *single-level* GMRES hit by the same huge SDC converges
        more slowly than the nested scheme relative to its failure-free run
        (this is the motivation for the layered approach)."""
        injector = make_injector(ScalingFault(1e150), 1)
        clean = gmres(poisson.A, poisson.b, tol=1e-8, maxiter=400)
        faulty = gmres(poisson.A, poisson.b, tol=1e-8, maxiter=400,
                       injector=injector)
        nested_clean = ft_gmres(poisson.A, poisson.b, inner_iterations=INNER, max_outer=60)
        nested_faulty = ft_gmres(poisson.A, poisson.b, inner_iterations=INNER, max_outer=60,
                                 injector=make_injector(ScalingFault(1e150), 1))
        single_penalty = faulty.iterations - clean.iterations
        nested_penalty = nested_faulty.outer_iterations - nested_clean.outer_iterations
        # The nested scheme wastes at most a couple of outer iterations; the
        # flat solver loses at least as much work (usually a full restart's worth).
        assert nested_penalty <= max(single_penalty, 2)


class TestClaimDetection:
    """Section V: class-1 faults violate the Hessenberg bound and are caught;
    class-2/3 faults are below the bound and cannot be caught."""

    def test_detection_pattern(self, poisson):
        campaign_kwargs = dict(inner_iterations=INNER, max_outer=60, detector="bound",
                               detector_response="zero")
        campaign = FaultCampaign(poisson, mgs_position="first", **campaign_kwargs)
        result = campaign.run(locations=[0, 3, INNER + 2, 2 * INNER + 5])
        assert result.detection_rate("large") == 1.0
        assert result.detection_rate("slightly_smaller") == 0.0
        assert result.detection_rate("near_zero") == 0.0

    def test_no_false_positives_on_clean_runs(self, poisson, circuit):
        for problem in (poisson, circuit):
            detector = HessenbergBoundDetector(frobenius_norm(problem.A))
            spec = SolveSpec(method="ft_gmres",
                             inner=SolveSpec(method="gmres", tol=0.0, maxiter=INNER,
                                             detector=detector, detector_response="raise"))
            result = ft_gmres(problem.A, problem.b, spec=spec, max_outer=120)
            assert result.faults_detected == 0
            assert result.converged

    def test_bitflips_subsumed_by_numerical_model(self, poisson):
        """The paper argues bit flips are just numerical errors: a high-exponent
        bit flip is detected by the same bound, a low-mantissa flip is run through."""
        detector_kwargs = dict(inner_iterations=INNER, max_outer=60, detector="bound",
                               detector_response="zero")
        big_flip = FaultCampaign(poisson, fault_classes={"exp": BitFlipFault(bit=62)},
                                 **detector_kwargs)
        res_big = big_flip.run(locations=[2])
        small_flip = FaultCampaign(poisson, fault_classes={"mant": BitFlipFault(bit=2)},
                                   **detector_kwargs)
        res_small = small_flip.run(locations=[2])
        assert res_big.detection_rate("exp") == 1.0
        assert res_small.detection_rate("mant") == 0.0
        assert res_small.trials[0].converged


class TestClaimDetectorLimitsDamage:
    """Section VII-E: with the filter, the worst-case penalty shrinks."""

    def test_worst_case_with_detector_not_worse(self, poisson):
        locations = list(range(0, 2 * INNER, 2))
        without = FaultCampaign(poisson, inner_iterations=INNER, max_outer=60,
                                fault_classes={"large": ScalingFault(1e150)},
                                detector=None).run(locations=locations)
        with_det = FaultCampaign(poisson, inner_iterations=INNER, max_outer=60,
                                 fault_classes={"large": ScalingFault(1e150)},
                                 detector="bound", detector_response="zero").run(
            locations=locations)
        assert with_det.max_increase("large") <= without.max_increase("large")
        assert with_det.failure_free_outer == without.failure_free_outer


class TestClaimEarlyVulnerability:
    """Section VII-E: faulting early in the first inner solve is universally bad
    (or at least never better than faulting late)."""

    def test_early_faults_cost_at_least_as_much_as_late_faults(self, poisson, circuit):
        for problem, max_outer in ((poisson, 60), (circuit, 120)):
            campaign = FaultCampaign(problem, inner_iterations=INNER, max_outer=max_outer,
                                     fault_classes={"large": ScalingFault(1e150)},
                                     detector=None)
            baseline = campaign.run_failure_free().outer_iterations
            early = [campaign.run_single("large", ScalingFault(1e150), loc).outer_iterations
                     for loc in range(0, 3)]
            late_start = (baseline - 1) * INNER
            late = [campaign.run_single("large", ScalingFault(1e150), loc).outer_iterations
                    for loc in range(late_start, late_start + 3)]
            assert max(early) >= max(late)


class TestClaimLeastSquaresRobustness:
    """Section VI-D: the rank-revealing policy keeps the update coefficients
    bounded when the projected problem is corrupted into near-singularity."""

    def test_rank_revealing_bounds_update_under_subdiag_corruption(self, poisson):
        injector_std = FaultInjector(
            ScalingFault(1e-300),
            InjectionSchedule(site="subdiag", aggregate_inner_iteration=2, mgs_position=None))
        injector_rr = FaultInjector(
            ScalingFault(1e-300),
            InjectionSchedule(site="subdiag", aggregate_inner_iteration=2, mgs_position=None))
        standard = gmres(poisson.A, poisson.b, tol=0.0, maxiter=8, restart=8,
                         lsq_policy=LeastSquaresPolicy.STANDARD, injector=injector_std)
        robust = gmres(poisson.A, poisson.b, tol=0.0, maxiter=8, restart=8,
                       lsq_policy=LeastSquaresPolicy.RANK_REVEALING, injector=injector_rr)
        assert np.all(np.isfinite(robust.x))
        assert np.linalg.norm(robust.x) <= 1e6 * np.linalg.norm(poisson.b)
        # The robust policy's iterate is never (much) worse than the standard one.
        assert (np.linalg.norm(robust.x) <= 10 * np.linalg.norm(standard.x)
                or not np.all(np.isfinite(standard.x)))

    def test_policies_identical_without_faults(self, poisson):
        results = {}
        for policy in ("standard", "hybrid", "rank_revealing"):
            results[policy] = gmres(poisson.A, poisson.b, tol=1e-10, maxiter=200,
                                    lsq_policy=policy)
        for policy, result in results.items():
            assert result.converged, policy
            np.testing.assert_allclose(result.x, results["standard"].x, rtol=1e-6, atol=1e-8)


class TestClaimTrichotomyNeverSilent:
    """Section VI-C: FGMRES either converges, detects an invariant subspace, or
    loudly reports failure — it never silently returns a wrong answer."""

    @pytest.mark.parametrize("factor", [1e150, 1e-300, 10 ** -0.5])
    def test_converged_means_correct(self, circuit, factor):
        for location in (0, 5, 17):
            result = ft_gmres(circuit.A, circuit.b, inner_iterations=INNER, max_outer=120,
                              injector=make_injector(ScalingFault(factor), location))
            if result.converged:
                assert circuit.residual_norm(result.x) <= 1e-7 * np.linalg.norm(circuit.b)
            else:
                assert result.status.is_loud_failure or result.status.value == "max_iterations"
