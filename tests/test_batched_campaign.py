"""The trial-batched campaign engine vs the serial reference.

The batched backend's contract: for every trial, iteration counts, statuses,
classification and event streams are identical to the serial backend, and
residual norms agree to ~1e-10 (bit-identical where the reduction order
matches).  Trials that leave the lockstep common path — happy breakdown,
early inner convergence, chaotic huge-magnitude faults — are transparently
rerun through the serial engine and therefore match exactly.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.batched import (
    BatchedGivensQR,
    _batched_givens,
    batched_ft_gmres,
    batched_support_reason,
)
from repro.core.ftgmres import ft_gmres
from repro.core.least_squares import IncrementalGivensQR, givens_rotation
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    AbsoluteFault,
    InfFault,
    NaNFault,
    PAPER_FAULT_CLASSES,
    ScalingFault,
)
from repro.faults.schedule import InjectionSchedule
from repro.gallery.problems import TestProblem, circuit_problem, poisson_problem
from repro.results.events import CollectingSink
from repro.sparse.csr import CSRMatrix
from repro.specs import SolveSpec


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def assert_records_equivalent(serial, batched, rtol=1e-10):
    """Field-by-field TrialRecord equivalence with the engine's tolerance."""
    assert len(serial.trials) == len(batched.trials)
    assert batched.failure_free_outer == serial.failure_free_outer
    for s, b in zip(serial.trials, batched.trials):
        assert (s.fault_class, s.aggregate_inner_iteration) == \
            (b.fault_class, b.aggregate_inner_iteration)
        assert s.outer_iterations == b.outer_iterations
        assert s.total_inner_iterations == b.total_inner_iterations
        assert s.converged == b.converged
        assert s.status == b.status
        assert s.faults_injected == b.faults_injected
        assert s.faults_detected == b.faults_detected
        assert s.detector_enabled == b.detector_enabled
        if np.isnan(s.residual_norm):
            assert np.isnan(b.residual_norm)
        else:
            assert abs(s.residual_norm - b.residual_norm) <= \
                rtol * max(1.0, abs(s.residual_norm))


def run_with(campaign, **fields):
    """Run ``campaign``'s spec with ``fields`` replaced."""
    return FaultCampaign(campaign.problem, campaign.spec, **fields).run()


#: The ``exec`` section of a batched run at the default batch size.
BATCHED = {"backend": "batched"}


def event_signature(events):
    return [(e.kind, e.where, e.outer_iteration, e.inner_iteration) for e in events]


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=8)


@pytest.fixture(scope="module")
def detector_campaign(tiny_problem):
    return FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                         detector="bound", detector_response="zero")


# --------------------------------------------------------------------------- #
# lockstep building blocks
# --------------------------------------------------------------------------- #
class TestBatchedGivensQR:
    def test_lanes_bitwise_match_scalar_qr(self):
        rng = np.random.default_rng(3)
        m, lanes = 8, 5
        beta = rng.uniform(0.5, 2.0, lanes)
        batched = BatchedGivensQR(m, beta)
        scalars = [IncrementalGivensQR(m, b) for b in beta]
        for j in range(m):
            cols = rng.standard_normal((j + 2, lanes))
            resid = batched.add_column(cols)
            for lane, qr in enumerate(scalars):
                expected = qr.add_column(cols[:, lane])
                assert resid[lane] == expected
        for lane, qr in enumerate(scalars):
            assert np.array_equal(batched.lane_R(lane), qr.R)
            assert np.array_equal(batched.lane_g(lane), qr.g)

    def test_solve_standard_matches_scalar_triangular_solve(self):
        from repro.core.least_squares import solve_triangular

        rng = np.random.default_rng(4)
        m, lanes = 6, 4
        batched = BatchedGivensQR(m, rng.uniform(0.5, 2.0, lanes))
        for j in range(m):
            batched.add_column(rng.standard_normal((j + 2, lanes)))
        Y = batched.solve_standard()
        for lane in range(lanes):
            expected = solve_triangular(batched.lane_R(lane),
                                        batched.lane_g(lane)[:m])
            np.testing.assert_allclose(Y[:, lane], expected, rtol=1e-13)

    def test_validation(self):
        qr = BatchedGivensQR(2, np.ones(3))
        with pytest.raises(ValueError):
            qr.add_column(np.zeros((3, 3)))  # wrong leading dimension
        qr.add_column(np.zeros((2, 3)))
        qr.add_column(np.zeros((3, 3)))
        with pytest.raises(RuntimeError):
            qr.add_column(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            BatchedGivensQR(0, np.ones(2))


class TestBatchedGivensRotation:
    @pytest.mark.parametrize("a,b", [
        (0.0, 0.0), (1.5, 0.0), (0.0, -2.0), (3.0, 4.0), (4.0, 3.0),
        (-1e-300, 1e300), (1e300, -1e-300), (np.nan, 1.0), (1.0, np.inf),
        (-7.25, 0.5), (0.5, -7.25),
    ])
    def test_matches_scalar_rotation_bitwise(self, a, b):
        c, s = _batched_givens(np.array([a]), np.array([b]))
        cs, ss = givens_rotation(a, b)
        assert (c[0] == cs or (np.isnan(c[0]) and np.isnan(cs)))
        assert (s[0] == ss or (np.isnan(s[0]) and np.isnan(ss)))


# --------------------------------------------------------------------------- #
# campaign-level equivalence
# --------------------------------------------------------------------------- #
class TestCampaignEquivalence:
    def test_detector_campaign_matches_serial(self, detector_campaign):
        serial = run_with(detector_campaign, stride=7)
        batched = run_with(detector_campaign, stride=7,
                           exec={"backend": "batched", "batch_size": 8})
        assert_records_equivalent(serial, batched)

    def test_no_detector_campaign_matches_serial(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50)
        serial = run_with(campaign, stride=7)
        batched = run_with(campaign, stride=7, exec=BATCHED)
        assert_records_equivalent(serial, batched)

    def test_batch_size_only_perturbs_within_tolerance(self, detector_campaign):
        """Any batch size stays within the serial-equivalence contract.

        Results are *deterministic* for a fixed batch size; across batch
        sizes the lockstep reductions may block differently (einsum picks
        its blocking by operand shape), so residuals agree to the same
        ~1e-10 contract as against serial rather than bit-for-bit.
        """
        serial = run_with(detector_campaign, stride=9)
        wide = {"backend": "batched", "batch_size": 64}
        reference = run_with(detector_campaign, stride=9, exec=wide)
        assert run_with(detector_campaign, stride=9, exec=wide).trials == reference.trials
        for batch_size in (1, 3, 7):
            again = run_with(detector_campaign, stride=9,
                             exec={"backend": "batched", "batch_size": batch_size})
            assert_records_equivalent(serial, again)

    def test_mgs_last_position(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                                 mgs_position="last", detector="bound",
                                 detector_response="zero")
        assert_records_equivalent(run_with(campaign, stride=9),
                                  run_with(campaign, stride=9, exec=BATCHED))

    def test_nonsymmetric_circuit_problem(self):
        problem = circuit_problem(200)
        campaign = FaultCampaign(problem, inner_iterations=10, max_outer=60,
                                 detector="bound", detector_response="zero")
        assert_records_equivalent(run_with(campaign, stride=17),
                                  run_with(campaign, stride=17, exec=BATCHED))

    @pytest.mark.parametrize("site", ["hessenberg", "spmv"])
    def test_rate_schedule_campaign(self, tiny_problem, site):
        """Rate-schedule lanes resume from the baseline's outer state at
        their cadence ``start`` (``InjectionSchedule.first_step``), then
        fault twice."""
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector="bound", detector_response="zero",
                                 site=site, fault_rate=2)
        serial = run_with(campaign, stride=11)
        assert any(t.faults_injected == 2 for t in serial.trials)
        assert_records_equivalent(serial, run_with(campaign, stride=11, exec=BATCHED))

    @pytest.mark.parametrize("response", ["flag", "clamp", "recompute"])
    def test_detector_responses(self, tiny_problem, response):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector="bound", detector_response=response)
        assert_records_equivalent(run_with(campaign, stride=11),
                                  run_with(campaign, stride=11, exec=BATCHED))


class TestCommonPathExits:
    def test_converge_at_first_outer_iteration(self, tiny_problem):
        """A loose tolerance makes every trial converge at outer iteration 1."""
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                                 outer_tol=1e-1)
        serial = run_with(campaign, stride=7)
        assert any(t.outer_iterations == 1 for t in serial.trials)
        assert_records_equivalent(serial, run_with(campaign, stride=7, exec=BATCHED))

    def test_happy_breakdown_mid_batch(self):
        """On the identity matrix every inner solve breaks down at step 1."""
        problem = TestProblem(name="identity", A=CSRMatrix.identity(30),
                              b=np.ones(30), spd=True)
        campaign = FaultCampaign(problem, inner_iterations=5, max_outer=10)
        serial = run_with(campaign, locations=(0, 1, 2, 3))
        batched = run_with(campaign, locations=(0, 1, 2, 3), exec=BATCHED)
        assert_records_equivalent(serial, batched)

    def test_nan_trial_continues_while_batch_mates_converge(self, tiny_problem):
        """A NaN-injected lane stays in lockstep (the serial solver also runs
        its full budget on NaN data) while clean batch-mates converge.

        NaN/Inf propagation is the contract, not an error: with every
        RuntimeWarning raised, no trial may turn into an error record.
        """
        classes = {"nan": NaNFault(), "inf": InfFault(),
                   "benign": ScalingFault(10.0 ** -0.5)}
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 fault_classes=classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            serial = run_with(campaign, stride=9)
            batched = run_with(campaign, stride=9, exec=BATCHED)
        assert not [t for t in serial.trials + batched.trials if t.is_error]
        assert_records_equivalent(serial, batched)

    def test_fault_on_an_exactly_cancelled_coefficient_is_peeled(self):
        """On the numpy kernel tier, the first MGS coefficient at location
        46 cancels to exactly zero in the lockstep order but is rounding
        noise (-1.1e-14) serially, where the 1e150 fault fires: the lane
        must be peeled, not left with a fault that scaled zero to zero."""
        inner = SolveSpec(method="gmres", tol=0.0, lsq_policy="standard")
        campaign = FaultCampaign(poisson_problem(grid_n=10), inner_iterations=10,
                                 max_outer=60, detector="bound", detector_response="flag",
                                 solver=SolveSpec(method="ft_gmres", inner=inner))
        serial = run_with(campaign, locations=(46,))
        assert serial.trials[0].faults_detected > 0
        assert_records_equivalent(serial, run_with(campaign, locations=(46,), exec=BATCHED))

    def test_chaotic_large_fault_is_serial_exact(self, tiny_problem):
        """Huge (1e150-scale) faults without a filtering detector are peeled
        to the serial engine, so their records match *exactly*."""
        campaign = FaultCampaign(
            tiny_problem, inner_iterations=10, max_outer=30,
            fault_classes={"large": PAPER_FAULT_CLASSES["large"]})
        serial = run_with(campaign, stride=9)
        batched = run_with(campaign, stride=9, exec=BATCHED)
        assert batched.trials == serial.trials  # exact, not just equivalent


def _serial_and_batched(problem, solver, make_injector):
    """One trial through ft_gmres and through batched_ft_gmres.

    Returns ``(serial, batched, serial_injector, batched_injector)``; the
    two injectors are built identically by ``make_injector``.
    """
    serial_injector, batched_injector = make_injector(), make_injector()
    serial = ft_gmres(problem.A, problem.b, problem.x0, spec=solver,
                      injector=serial_injector)
    (batched,) = batched_ft_gmres(problem.A, problem.b, problem.x0, solver,
                                  [batched_injector])
    return serial, batched, serial_injector, batched_injector


def _record_payload(record):
    """Everything of an InjectionRecord but the (rounding-sensitive) values."""
    return {field: value for field, value in vars(record).items()
            if field not in ("original", "corrupted")}


def _event_payload(event):
    """Kind, where, coordinates, data keys and the non-float data values."""
    return (event.kind, event.where, event.outer_iteration, event.inner_iteration,
            sorted(event.data),
            {key: value for key, value in event.data.items()
             if not isinstance(value, float)})


class TestEventStreams:
    def _nested_results(self, campaign, location):
        """The same ``large`` hessenberg fault serially and batched."""
        def make_injector():
            schedule = InjectionSchedule(site="hessenberg",
                                         aggregate_inner_iteration=location,
                                         mgs_position="first",
                                         persistence="transient")
            return FaultInjector(campaign.fault_classes["large"], schedule)

        serial, batched, _, _ = _serial_and_batched(campaign.problem, campaign.solver,
                                                    make_injector)
        return serial, batched

    def test_event_streams_identical(self, detector_campaign):
        serial, batched = self._nested_results(detector_campaign, location=12)
        assert batched is not None, "trial unexpectedly left the lockstep path"
        assert event_signature(batched.events) == event_signature(serial.events)
        assert batched.outer_iterations == serial.outer_iterations
        assert batched.total_inner_iterations == serial.total_inner_iterations
        assert batched.status == serial.status
        np.testing.assert_allclose(batched.history.as_array(),
                                   serial.history.as_array(),
                                   rtol=1e-10, atol=1e-12)

    def test_inner_histories_match(self, detector_campaign):
        serial, batched = self._nested_results(detector_campaign, location=5)
        assert batched is not None
        assert len(batched.inner_results) == len(serial.inner_results)
        for s_inner, b_inner in zip(serial.inner_results, batched.inner_results):
            assert b_inner.iterations == s_inner.iterations
            assert b_inner.status == s_inner.status
            assert b_inner.matvecs == s_inner.matvecs
            expected = s_inner.history.as_array()
            # The contract: histories agree to 1e-10 on the scale of the
            # solve (the initial residual norm).
            scale = max(1.0, float(expected[0]))
            np.testing.assert_allclose(b_inner.history.as_array(), expected,
                                       rtol=0.0, atol=1e-10 * scale)

    @pytest.mark.parametrize("response", ["flag", "zero", "clamp", "recompute"])
    @pytest.mark.parametrize("site", ["hessenberg", "spmv"])
    def test_payloads_match_serial(self, tiny_problem, site, response, count_kind):
        """Both engines inject, record, screen and respond on one path.

        An overwrite to 1e3 is past the detector's bound (so every response
        fires) and far below the chaos gate (so the lane stays in lockstep).
        Injection records and events must agree exactly on everything but
        the float values.
        """
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector="bound", detector_response=response)

        def make_injector():
            return FaultInjector(
                AbsoluteFault(1e3),
                InjectionSchedule(site=site, aggregate_inner_iteration=12,
                                  mgs_position="last"),
                rng=np.random.default_rng(5))

        serial, batched, s_inj, b_inj = _serial_and_batched(
            tiny_problem, campaign.solver, make_injector)
        if (site, response) == ("spmv", "zero"):
            # Zeroing the flagged coefficients of a corrupted ``A q_j``
            # leaves the fault in the orthogonalized vector, so the
            # subdiagonal is flagged and zeroed too: a breakdown, which the
            # serial engine owns.
            assert batched is None
            assert count_kind(serial.events, "happy_breakdown") >= 1
            return
        assert batched is not None, "trial unexpectedly left the lockstep path"
        assert s_inj.injections_performed == 1
        assert [_record_payload(r) for r in b_inj.records] == \
            [_record_payload(r) for r in s_inj.records]
        assert count_kind(serial.events, "fault_detected") >= 1
        assert [_event_payload(e) for e in batched.events] == \
            [_event_payload(e) for e in serial.events]


def _one_batch(campaign, locations, monkeypatch, fault_class="large"):
    """Run ``locations`` as one batch through the campaign's batched path.

    Returns ``(lanes, serial, lane_solves)``: per lane its injector, the
    outer iteration its state started at and its nested result; the serial
    :meth:`FaultCampaign.run_spec` nested result and injector of the same
    trial; and how many lane inner solves the lockstep engine ran.
    """
    from repro.core import batched as batched_mod

    lanes, lane_solves = [], []
    engine = batched_mod.batched_ft_gmres
    inner_solve = batched_mod._BatchedNestedSolve._inner_solve

    def spy(A, b, x0, spec, injectors, states):
        starts = [state.iterations if state is not None else 0 for state in states]
        results = engine(A, b, x0, spec, injectors, states)
        lanes.extend(zip(injectors, starts, results))
        return results

    def counting(self, rhs_block, *args):
        lane_solves.append(rhs_block.shape[0])
        return inner_solve(self, rhs_block, *args)

    monkeypatch.setattr(batched_mod, "batched_ft_gmres", spy)
    monkeypatch.setattr(batched_mod._BatchedNestedSolve, "_inner_solve", counting)
    campaign.plan(locations=())  # the baseline the lanes resume from
    specs = [spec for spec in campaign.trial_specs(locations)
             if spec.fault_class == fault_class]
    # The campaigns here leave exec.batch_size at its default, which is wider
    # than any spec list below: one batch.
    records = dict(campaign.iter_specs_batched(specs))
    assert len(records) == len(lanes) == len(specs)
    serial = []
    for spec in specs:
        injector = campaign._trial_injector(campaign.fault_classes[fault_class],
                                            spec.aggregate_inner_iteration)
        serial.append((campaign._solve(injector, campaign._resume_state(injector)),
                       injector))
    return lanes, serial, sum(lane_solves)


def _fault_coordinates(events):
    return [(e.kind, e.where, e.outer_iteration, e.inner_iteration,
             e.data.get("aggregate_inner_iteration"))
            for e in events if e.kind in ("fault_injected", "fault_detected")]


class TestResumedLanes:
    """Lanes resume from the baseline's outer state at their own outer
    iterations and still share every lockstep round."""

    @pytest.fixture
    def locations(self, detector_campaign):
        outer = detector_campaign.plan(locations=()).failure_free_outer
        m = detector_campaign.inner_iterations
        # The first, a middle and the last baseline iteration, and past it.
        return [1, (outer // 2) * m + 3, (outer - 1) * m + 5, outer * m + 3]

    def test_lanes_at_different_outer_iterations_match_serial(
            self, detector_campaign, locations, monkeypatch):
        lanes, serial, _ = _one_batch(detector_campaign, locations, monkeypatch)
        outer = detector_campaign._baseline.iterations
        assert [start for _, start, _ in lanes] == [0, outer // 2, outer - 1, outer - 1]
        m = detector_campaign.inner_iterations
        for location, (injector, _, batched), (reference, reference_injector) in zip(
                locations, lanes, serial, strict=True):
            assert batched is not None, f"lane {location} left the lockstep path"
            assert (batched.outer_iterations, batched.total_inner_iterations,
                    batched.status) == (reference.outer_iterations,
                                        reference.total_inner_iterations,
                                        reference.status)
            assert injector.injections_performed == reference_injector.injections_performed
            assert event_signature(batched.events) == event_signature(reference.events)
            np.testing.assert_allclose(batched.history.as_array(),
                                       reference.history.as_array(),
                                       rtol=1e-10, atol=1e-12)
            coordinates = _fault_coordinates(batched.events)
            assert coordinates == _fault_coordinates(reference.events)
            if location < outer * m:  # the fault fires, and is caught
                assert [c[0] for c in coordinates] == ["fault_injected", "fault_detected"]
                assert {(c[2], c[4]) for c in coordinates} == {(location // m, location)}

    def test_lanes_keep_the_baseline_prefix_and_solve_only_the_rest(
            self, detector_campaign, locations, monkeypatch):
        lanes, serial, lane_solves = _one_batch(detector_campaign, locations, monkeypatch)
        baseline = detector_campaign._baseline.inner_results
        for _, start, batched in lanes:
            assert all(a is b for a, b in
                       zip(batched.inner_results[:start], baseline[:start], strict=True))
        assert lane_solves == sum(len(reference.inner_results) - start for
                                  (_, start, _), (reference, _) in zip(lanes, serial))

    def test_outer_cgs2_and_bound_detector_run_batched(self, tiny_problem):
        campaign = FaultCampaign(
            tiny_problem, inner_iterations=10, max_outer=50, detector="bound",
            detector_response="zero",
            solver=SolveSpec(method="ft_gmres", orthogonalization="cgs2",
                             detector="bound", detector_response="clamp"))
        assert campaign.batched_unsupported_reason() is None
        assert_records_equivalent(run_with(campaign, stride=7),
                                  run_with(campaign, stride=7, exec=BATCHED))

    def test_stateful_outer_detector_rejected(self, tiny_problem):
        campaign = FaultCampaign(
            tiny_problem, inner_iterations=10, max_outer=30,
            solver=SolveSpec(method="ft_gmres",
                             detector={"name": "norm_growth", "factor": 1e4}))
        assert "NormGrowthDetector" in campaign.batched_unsupported_reason()


# --------------------------------------------------------------------------- #
# configuration gating and executor integration
# --------------------------------------------------------------------------- #
class TestGating:
    def test_supported_configuration(self, detector_campaign):
        assert detector_campaign.batched_unsupported_reason() is None

    def test_non_mgs_inner_rejected(self, tiny_problem):
        campaign = FaultCampaign(
            tiny_problem, inner_iterations=10, max_outer=30,
            solver=SolveSpec(method="ft_gmres",
                             inner=SolveSpec(method="gmres", tol=0.0,
                                             orthogonalization="cgs2")))
        assert campaign.batched_unsupported_reason() is not None
        with pytest.raises(ValueError, match="not supported by the batched"):
            run_with(campaign, stride=11, exec=BATCHED)

    def test_raise_response_rejected(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector="bound", detector_response="raise")
        assert "raise" in campaign.batched_unsupported_reason()

    def test_spmv_site_supported(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 site="spmv")
        assert campaign.batched_unsupported_reason() is None

    def test_unsupported_site_rejected(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 site="givens")
        assert "site" in campaign.batched_unsupported_reason()

    def test_mixed_site_list_rejected(self, tiny_problem):
        # A comma list is batched-eligible only when *every* site is.
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 site="spmv,precond")
        assert "site" in campaign.batched_unsupported_reason()

    def test_stateful_detector_rejected(self, tiny_problem):
        from repro.core.detectors import NormGrowthDetector

        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector=NormGrowthDetector())
        assert "NormGrowthDetector" in campaign.batched_unsupported_reason()

    def test_support_reason_helper(self, detector_campaign):
        assert batched_support_reason(detector_campaign.solver, "hessenberg") is None
        assert batched_support_reason(detector_campaign.solver, "subdiag") is not None


class TestExecutorIntegration:
    def test_backend_listed(self):
        from repro.exec.executor import BACKENDS

        assert "batched" in BACKENDS

    def test_executor_runs_batched(self, detector_campaign):
        campaign = FaultCampaign(detector_campaign.problem, detector_campaign.spec,
                                 exec={"backend": "batched", "batch_size": 4})
        specs = campaign.trial_specs([1, 12, 23])
        records = [record for _, record in sorted(campaign.iter_records(specs))]
        assert [r.fault_class for r in records] == [s.fault_class for s in specs]

    def test_spec_order_defines_output_order(self, detector_campaign):
        campaign = FaultCampaign(detector_campaign.problem, detector_campaign.spec,
                                 exec=BATCHED)
        plan = campaign.plan(locations=(1, 12))
        assert (campaign.run_plan(plan, specs=list(reversed(plan.specs))).trials
                == campaign.run_plan(plan).trials)

    def test_progress_reaches_total(self, detector_campaign):
        sink = CollectingSink()
        result = FaultCampaign(detector_campaign.problem, detector_campaign.spec,
                               stride=11, exec={"backend": "batched", "batch_size": 2}
                               ).run(sink=sink)
        progress = [(e.data["done"], e.data["total"])
                    for e in sink.of_kind("trial_completed")]
        assert [done for done, _ in progress] == list(range(1, len(result.trials) + 1))
        assert {total for _, total in progress} == {len(result.trials)}

    def test_invalid_batch_size(self, detector_campaign):
        for batch_size in (0, -1):
            with pytest.raises(ValueError):
                FaultCampaign(detector_campaign.problem, detector_campaign.spec,
                              exec={"backend": "batched", "batch_size": batch_size})

    def test_empty_specs(self, detector_campaign):
        assert list(detector_campaign.iter_specs_batched([])) == []

    def test_soft_timeout_gives_serial_error_records(self):
        """The soft ``trial_timeout`` holds lockstep lanes to their
        amortized share, so both backends quarantine every trial alike."""
        campaign = FaultCampaign(poisson_problem(grid_n=8), inner_iterations=10,
                                 max_outer=30, stride=6, exec={"trial_timeout": 1e-9})
        serial = campaign.run()
        batched = run_with(campaign, exec={"trial_timeout": 1e-9, **BATCHED})
        assert len(serial.trials) == 21
        assert all(t.is_error and t.error.startswith("soft timeout")
                   for t in serial.trials + batched.trials)
        assert_records_equivalent(serial, batched)

    def test_unknown_fault_class(self, detector_campaign):
        from repro.exec.spec import TrialSpec

        with pytest.raises(KeyError):
            list(detector_campaign.iter_specs_batched([TrialSpec(0, "no-such", 1)]))
