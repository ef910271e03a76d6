"""Arm-at-step injection: an idle injector costs nothing and changes nothing.

Each Arnoldi step first asks the injector whether any of its sites can fire
(``FaultInjector.armed``).  An unarmed step makes no injector consults and
runs the BLAS orthogonalization loop; an attached detector screens the
whole step (the spmv norm, the coefficients, the subdiagonal) in one
``flag_values`` call, and anything flagged replays the step on the hooked
path.  These tests pin down

* the contracts that make skipping exact: ``matches`` implies
  ``can_match_step``, and ``flag_values`` flags at least every value
  ``check_scalar`` flags;
* the saving: a trial's injector is consulted on its armed step only, in
  the inner solves and in a standalone FGMRES alike;
* bit-identity with the hooked path (forced by an injector without
  ``armed``) over detectors x orthogonalizations x fault classes x sites,
  rate schedules included, and for a step only the spmv check flags.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arnoldi import ArnoldiContext, arnoldi_step
from repro.core.detectors import (
    CompositeDetector,
    HessenbergBoundDetector,
    NonFiniteDetector,
    NormGrowthDetector,
    NullDetector,
)
from repro.core.fgmres import fgmres
from repro.core.ftgmres import ft_gmres
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault
from repro.faults.schedule import KNOWN_SITES, FaultRateSchedule, InjectionSchedule
from repro.gallery.problems import poisson_problem
from repro.sparse.linear_operator import aslinearoperator
from repro.specs import SolveSpec


# --------------------------------------------------------------------------- #
# schedule contract: matches(site, **ctx) implies can_match_step(**ctx)
# --------------------------------------------------------------------------- #
_anchor = st.one_of(st.none(), st.integers(0, 3))


@st.composite
def schedules(draw):
    kwargs = {
        "site": ",".join(draw(st.lists(st.sampled_from(KNOWN_SITES + ("*",)),
                                       min_size=1, max_size=3, unique=True))),
        "aggregate_inner_iteration": draw(_anchor),
        "outer_iteration": draw(_anchor),
        "inner_iteration": draw(_anchor),
        "mgs_position": draw(st.one_of(st.none(), st.sampled_from(["first", "last"]),
                                       st.integers(0, 3))),
        "persistence": draw(st.sampled_from(["transient", "sticky", "persistent"])),
    }
    if draw(st.booleans()):
        return FaultRateSchedule(faults_per_solve=draw(st.integers(1, 3)),
                                 start=draw(st.integers(0, 3)),
                                 interval=draw(st.integers(1, 3)), **kwargs)
    return InjectionSchedule(**kwargs)


_contexts = st.fixed_dictionaries({
    "outer_iteration": st.integers(-1, 3),
    "inner_solve_index": st.integers(-1, 3),
    "inner_iteration": st.integers(-1, 3),
    "aggregate_inner_iteration": st.integers(-1, 9),
    "mgs_index": st.integers(-1, 4),
    "mgs_length": st.integers(0, 5),
})


class TestScheduleStepPredicate:
    @given(schedule=schedules(), site=st.sampled_from(KNOWN_SITES), context=_contexts)
    @settings(max_examples=250, deadline=None)
    def test_matches_implies_can_match_step(self, schedule, site, context):
        if schedule.matches(site, **context):
            assert schedule.can_match_step(**context)

    @given(schedule=schedules(), context=_contexts)
    @settings(max_examples=150, deadline=None)
    def test_can_match_step_is_exact_over_sites(self, schedule, context):
        """Not merely conservative: some site of the step really matches."""
        step = {**context, "mgs_index": -1}
        assert schedule.can_match_step(**step) == any(
            schedule.matches(site, **step) for site in KNOWN_SITES)

    def test_rate_schedule_cadence(self):
        sched = FaultRateSchedule(faults_per_solve=3, start=2, interval=10,
                                  mgs_position=None)
        armed = [k for k in range(40)
                 if sched.can_match_step(aggregate_inner_iteration=k)]
        assert armed == [2, 12, 22, 32]


class TestInjectorArmed:
    def test_disarms_once_the_cap_is_spent(self):
        injector = FaultInjector(ScalingFault(2.0),
                                 InjectionSchedule(mgs_position=None))  # transient
        assert injector.armed(aggregate_inner_iteration=5)
        injector.corrupt_scalar("hessenberg", 1.0, aggregate_inner_iteration=5)
        assert injector.injections_performed == 1
        assert not injector.armed(aggregate_inner_iteration=6)

    def test_follows_the_schedule(self):
        injector = FaultInjector(ScalingFault(2.0),
                                 InjectionSchedule(aggregate_inner_iteration=4))
        assert [k for k in range(8) if injector.armed(aggregate_inner_iteration=k)] == [4]


# --------------------------------------------------------------------------- #
# detector contract: flag_values covers check_scalar
# --------------------------------------------------------------------------- #
_SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, np.finfo(np.float64).max]


@st.composite
def vectorized_detectors(draw):
    hessenberg = HessenbergBoundDetector(draw(st.floats(min_value=1e-300,
                                                        max_value=1e300)))
    return draw(st.sampled_from([
        hessenberg, NonFiniteDetector(), NullDetector(),
        CompositeDetector([hessenberg, NonFiniteDetector()]),
    ]))


def _bound_cusp(detector):
    """The bound and its neighbours one ulp away, both signs."""
    bounds = [getattr(d, "bound", None)
              for d in getattr(detector, "detectors", [detector])]
    cusp = []
    for b in filter(None, bounds):
        for v in (b, np.nextafter(b, np.inf), np.nextafter(b, 0.0)):
            cusp += [float(v), -float(v)]
    return cusp


class TestDetectorVectorPredicate:
    @given(detector=vectorized_detectors(),
           values=st.lists(st.one_of(st.floats(width=64), st.sampled_from(_SPECIAL)),
                           max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_flag_values_covers_check_scalar(self, detector, values):
        values = np.array(values + _SPECIAL + _bound_cusp(detector), dtype=np.float64)
        assert detector.vectorized
        flags = detector.flag_values(values)
        assert flags.shape == values.shape
        for value, flagged in zip(values, flags):
            if detector.check_scalar(float(value)).flagged:
                assert flagged, f"{detector!r} missed {value!r}"

    def test_stateful_detectors_are_not_vectorized(self):
        growth = NormGrowthDetector(factor=10.0)
        assert not growth.vectorized
        assert not CompositeDetector([HessenbergBoundDetector(1.0), growth]).vectorized
        # The conservative default flags everything.
        assert growth.flag_values(np.zeros(3)).all()


# --------------------------------------------------------------------------- #
# the saving: consults happen on the armed step only
# --------------------------------------------------------------------------- #
class SpyInjector(FaultInjector):
    """Records the aggregate iteration of every consult."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.consulted: list[int] = []

    def corrupt_scalar(self, site, value, **context):
        self.consulted.append(context["aggregate_inner_iteration"])
        return super().corrupt_scalar(site, value, **context)

    def corrupt_vector(self, site, vec, **context):
        self.consulted.append(context["aggregate_inner_iteration"])
        return super().corrupt_vector(site, vec, **context)


@pytest.mark.parametrize("location", [0, 37, 99])
def test_paper_trial_consults_only_its_armed_step(location):
    """One transient fault arms one step of the whole nested solve.

    On that step every site is consulted once per value (spmv, each MGS
    coefficient, orth, subdiag, basis, both Givens coefficients); on every
    other step of the ~125 the trial runs, none is.
    """
    campaign = FaultCampaign(poisson_problem(grid_n=30), detector="bound")
    model = campaign.fault_classes["large"]
    spy = SpyInjector(model, campaign._trial_schedule(location))
    result = ft_gmres(campaign.problem.A, campaign.problem.b, campaign.problem.x0,
                      spec=campaign.solver, injector=spy)
    assert result.total_inner_iterations > 100
    assert spy.injections_performed == 1
    assert set(spy.consulted) == {location}
    assert len(spy.consulted) <= campaign.inner_iterations + 6


OUTER_SITES = ["spmv", "hessenberg", "orth", "subdiag", "givens"]


@pytest.mark.parametrize("site", OUTER_SITES)
def test_outer_fgmres_steps_arm_too(site, always_armed):
    """Standalone FGMRES shares the plumbing: only outer step 2 is consulted,
    and the result matches the always-consulted reference bit for bit."""
    problem = poisson_problem(grid_n=8, seed=7)
    runs = []
    for wrap in (lambda inj: inj, always_armed):
        spy = SpyInjector(ScalingFault(1.5),
                          InjectionSchedule(site=site, aggregate_inner_iteration=2,
                                            mgs_position=None), vector_index=2)
        result = fgmres(problem.A, problem.b, inner_solver=lambda q, j: q.copy(),
                        tol=1e-10, max_outer=8, injector=wrap(spy))
        runs.append((spy, result))
    (spy, armed), (reference_spy, reference) = runs
    assert set(spy.consulted) == {2}
    assert len(reference_spy.consulted) > len(spy.consulted)
    assert spy.records == reference_spy.records
    assert np.array_equal(armed.x, reference.x)
    assert [e.to_dict() for e in armed.events] == [e.to_dict() for e in reference.events]


# --------------------------------------------------------------------------- #
# bit-identity with the hooked path over a grid of configurations
# --------------------------------------------------------------------------- #
DETECTORS = {
    "bound-flag": ("bound", "flag"),
    "bound-zero": ("bound", "zero"),
    "bound-clamp": ("bound", "clamp"),
    "bound-recompute": ("bound", "recompute"),
    "nonfinite": ("nonfinite", "zero"),
    "composite": ({"name": "composite", "members": ["bound", "nonfinite"]}, "zero"),
    "norm_growth": ({"name": "norm_growth", "factor": 1e4}, "zero"),
    "none": (None, "flag"),
}
SITES = ("hessenberg", "spmv,givens,orth,basis,subdiag")
SCHEDULES = ({}, {"fault_rate": 2, "fault_persistence": "sticky"})


def _outcome(result, injector):
    events = [(e.kind, e.where, e.outer_iteration, e.inner_iteration,
               sorted((k, repr(v)) for k, v in e.data.items())) for e in result.events]
    return (result.status, result.outer_iterations, result.total_inner_iterations,
            repr(result.residual_norm), result.x.tobytes(),
            [repr(r) for r in result.history.residual_norms],
            events, injector.records)


@pytest.fixture(scope="module")
def grid_problem():
    return poisson_problem(grid_n=6, seed=3)


@pytest.mark.parametrize("orth", ["mgs", "cgs", "cgs2"])
@pytest.mark.parametrize("detector", sorted(DETECTORS))
def test_arm_at_step_matches_always_armed(grid_problem, detector, orth, always_armed):
    spec, response = DETECTORS[detector]
    for site in SITES:
        for schedule in SCHEDULES:
            campaign = FaultCampaign(
                grid_problem, inner_iterations=6, max_outer=20, detector=spec,
                detector_response=response, site=site,
                solver=SolveSpec(method="ft_gmres",
                                 inner=SolveSpec(method="gmres", tol=0.0,
                                                 orthogonalization=orth)),
                **schedule)
            det = campaign.detector
            for location, (fault_class, model) in zip((4, 9, 15),
                                                      campaign.fault_classes.items()):
                outcomes = []
                for wrap in (lambda inj: inj, always_armed):
                    if det is not None:
                        det.reset()  # norm_growth carries state between solves
                    injector = campaign._trial_injector(model, location)
                    result = ft_gmres(grid_problem.A, grid_problem.b, grid_problem.x0,
                                      spec=campaign.solver, injector=wrap(injector))
                    outcomes.append(_outcome(result, injector))
                assert outcomes[0] == outcomes[1], (site, schedule, fault_class)


def test_screen_covers_the_spmv_check(always_armed):
    """A bound between the step's largest coefficient and ``||A q_j||``
    flags only the spmv check, which the one-call screen must still catch."""
    op = aslinearoperator(poisson_problem(grid_n=6, seed=3).A)
    n = op.shape[0]
    q0 = np.random.default_rng(5).standard_normal(n)
    q0 /= np.linalg.norm(q0)
    v = op.matvec(q0)
    h = float(q0 @ v)
    largest = max(abs(h), float(np.linalg.norm(v - h * q0)))
    bound = (largest + float(np.linalg.norm(v))) / 2
    assert largest < bound < np.linalg.norm(v)
    events = []
    for injector in (None, always_armed()):
        ctx = ArnoldiContext(injector=injector, detector=HessenbergBoundDetector(bound))
        basis = np.zeros((n, 2), order="F")
        basis[:, 0] = q0
        arnoldi_step(op, basis, 0, ctx)
        events.append([e.to_dict() for e in ctx.events])
    assert events[0] == events[1]
    assert [e["where"] for e in events[0]] == ["spmv"]
