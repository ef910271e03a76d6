"""Prefix-shared trials: a trial resumed from the baseline's outer state is
the trial solved from scratch.

Until its fault can first fire, a campaign trial repeats the failure-free
solve bit for bit, so the campaign keeps the baseline's outer FGMRES state
(:class:`~repro.core.fgmres.OuterState`) and starts each trial at the outer
iteration whose inner solve spans its first armed step.  These tests pin
down

* the state layer: FGMRES resumed from any prefix of a finished solve ends
  with that solve's result;
* identity over sites x detectors x MGS positions x fault rates on both
  paper problems: every ``FaultCampaign.run`` record equals
  ``run_single`` (a fresh solve), and every resumed nested result equals a
  fresh ``ft_gmres`` solve (``x`` bitwise, history, events, inner results,
  injector records);
* the trials that must not resume (stateful detectors, unbounded
  schedules), locations past the baseline's last outer iteration, a
  ``max_outer`` the baseline exhausts, and ``workers=2``.
"""

from __future__ import annotations

import pytest

from repro.core.detectors import HessenbergBoundDetector
from repro.core.fgmres import OuterState, fgmres
from repro.faults.campaign import FaultCampaign
from repro.faults.schedule import KNOWN_SITES, InjectionSchedule
from repro.gallery.problems import circuit_problem, poisson_problem
from repro.specs import SolveSpec

INNER = 4

DETECTORS = {
    "none": (None, "flag"),
    "bound-flag": ("bound", "flag"),
    "bound-zero": ("bound", "zero"),
    "bound-clamp": ("bound", "clamp"),
    "nonfinite": ("nonfinite", "zero"),
    "composite": ({"name": "composite", "members": ["bound", "nonfinite"]}, "zero"),
}
STATEFUL = {
    "norm_growth": ({"name": "norm_growth", "factor": 1e4}, "zero"),
    "composite-norm_growth": ({"name": "composite",
                               "members": ["bound", {"name": "norm_growth", "factor": 1e4}]},
                              "clamp"),
}


@pytest.fixture(scope="module")
def problems():
    return (poisson_problem(grid_n=6, seed=3), circuit_problem(n_nodes=12, seed=5))


@pytest.fixture(scope="module")
def baseline_outer(problems):
    """Each problem's failure-free outer count (no configuration here moves it)."""
    return {problem.name: _campaign(problem).plan(locations=()).failure_free_outer
            for problem in problems}


def _campaign(problem, site="hessenberg", detector="bound-zero", *, detectors=DETECTORS,
              **kwargs):
    spec, response = detectors[detector]
    inner = SolveSpec(method="gmres", tol=0.0, maxiter=INNER,
                      preconditioner="jacobi" if site == "precond" else None)
    return FaultCampaign(problem, inner_iterations=INNER, detector=spec,
                         detector_response=response, site=site,
                         solver=SolveSpec(method="ft_gmres", inner=inner), **kwargs)


def _outcome(result, injector):
    """Everything a nested solve reports, NaN-safe and bitwise on floats."""
    def events(evs):
        return [(e.kind, e.where, e.outer_iteration, e.inner_iteration,
                 sorted((k, repr(v)) for k, v in e.data.items())) for e in evs]

    return (result.status, result.outer_iterations, result.total_inner_iterations,
            repr(result.residual_norm), result.x.tobytes(),
            [repr(v) for v in result.history.residual_norms], events(result.events),
            [(r.status, r.iterations, r.x.tobytes(), repr(r.history.residual_norms),
              events(r.events)) for r in result.inner_results],
            [repr(r) for r in injector.records])


def _assert_trials_match(campaign, locations, *, resumes=True):
    """``run`` records equal ``run_single``, and so do their nested solves.

    A spy on the campaign's one solve entry point collects the nested
    results of the resumed trials ``run`` makes and of the fresh solves
    ``run_single`` makes, so each trial is solved just twice.
    """
    solves = []
    solve = campaign._solve

    def spy(injector, state=None):
        result = solve(injector, state)
        if injector is not None:
            solves.append((injector, state is not None, result))
        return result

    campaign._solve = spy
    result = campaign.run_plan(campaign.plan(locations=locations))
    resumed = list(solves)
    for record in result.trials:
        model = campaign.fault_classes[record.fault_class]
        assert record == campaign.run_single(record.fault_class, model,
                                             record.aggregate_inner_iteration)
    fresh = solves[len(resumed):]
    assert [started for _, started, _ in resumed] == [resumes] * len(result.trials)
    assert not any(started for _, started, _ in fresh)
    for record, (injector, _, nested), (reference_injector, _, reference) in zip(
            result.trials, resumed, fresh, strict=True):
        assert _outcome(nested, injector) == _outcome(reference, reference_injector), \
            (record.fault_class, record.aggregate_inner_iteration)
    return result


# --------------------------------------------------------------------------- #
# the state layer
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("orthogonalization", ["mgs", "cgs2"])
def test_fgmres_resumes_from_every_prefix(problems, orthogonalization):
    """A flagging outer detector puts events in every iteration's prefix."""
    problem = problems[1]
    jacobi = 1.0 / problem.A.diagonal()
    kwargs = dict(inner_solver=lambda q, j: jacobi * q, max_outer=40,
                  orthogonalization=orthogonalization,
                  detector=HessenbergBoundDetector(1e-3), detector_response="zero")
    state = OuterState()
    full = fgmres(problem.A, problem.b, state=state, **kwargs)
    assert full.events and state.iterations == full.iterations > 2
    kept = state.prefix(state.iterations)
    assert kept.Q.shape == (problem.A.shape[0], full.iterations + 1)
    for k in range(full.iterations + 1):
        resumed = fgmres(problem.A, problem.b, state=kept.prefix(k, 40), **kwargs)
        assert resumed.x.tobytes() == full.x.tobytes(), k
        assert resumed.history.residual_norms == full.history.residual_norms
        assert resumed.events == full.events
        assert (resumed.status, resumed.iterations, resumed.matvecs) == \
            (full.status, full.iterations, full.matvecs)


def test_resume_needs_room_and_a_state(problems):
    problem = problems[0]
    state = OuterState()
    fgmres(problem.A, problem.b, max_outer=10, state=state)
    with pytest.raises(ValueError, match="max_outer"):
        fgmres(problem.A, problem.b, max_outer=10, state=state.prefix(2))
    with pytest.raises(ValueError, match="no state"):
        state.prefix(state.iterations + 1)
    with pytest.raises(ValueError, match="no state"):
        OuterState().prefix(0)


# --------------------------------------------------------------------------- #
# identity over the configuration grid
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("detector", sorted(DETECTORS))
@pytest.mark.parametrize("site", KNOWN_SITES)
def test_resumed_trials_equal_fresh_solves(problems, baseline_outer, site, detector):
    configs = [(problem, mgs, rate) for problem in problems
               for mgs in ("first", "last") for rate in (None, 2)]
    for number, (problem, mgs, rate) in enumerate(configs):
        outer = baseline_outer[problem.name]
        # Resume at the first, a middle, the last outer iteration, and past it.
        location = (1, INNER + 2, (outer - 1) * INNER + 1, outer * INNER + 3)[number % 4]
        campaign = _campaign(problem, site, detector, mgs_position=mgs, fault_rate=rate)
        result = _assert_trials_match(campaign, [location])
        assert campaign._baseline.iterations == result.failure_free_outer == outer


# --------------------------------------------------------------------------- #
# trials that take the full solve, and the edges of the resume point
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("detector", sorted(STATEFUL))
def test_stateful_detectors_take_the_full_solve(problems, detector):
    campaign = _campaign(problems[0], detector=detector, detectors=STATEFUL)
    _assert_trials_match(campaign, [1, 2 * INNER + 1], resumes=False)


def test_unbounded_schedule_takes_the_full_solve(problems, monkeypatch):
    campaign = _campaign(problems[0])

    def schedule(location):
        return InjectionSchedule(site="hessenberg", outer_iteration=location // INNER,
                                 inner_iteration=location % INNER)

    monkeypatch.setattr(campaign, "_trial_schedule", schedule)
    assert schedule(9).first_step() is None
    result = _assert_trials_match(campaign, [2 * INNER + 1], resumes=False)
    assert all(t.faults_injected == 1 for t in result.trials)


def test_location_past_the_baseline_resumes_at_its_last_iteration(problems):
    campaign = _campaign(problems[0])
    outer = campaign.plan(locations=()).failure_free_outer
    assert campaign._baseline.iterations == outer
    for location in (outer * INNER, 3 * outer * INNER):
        injector = campaign._trial_injector(campaign.fault_classes["large"], location)
        assert campaign._resume_state(injector).iterations == outer - 1
    _assert_trials_match(campaign, [outer * INNER, 3 * outer * INNER])


def test_max_outer_below_the_baselines_count(problems):
    unbounded = _campaign(problems[1]).plan(locations=()).failure_free_outer
    campaign = _campaign(problems[1], max_outer=unbounded // 2)
    assert campaign.plan(locations=()).failure_free_outer == unbounded // 2
    result = _assert_trials_match(campaign, [1, INNER * (unbounded // 2 - 1) + 1,
                                             INNER * unbounded])
    assert not all(t.converged for t in result.trials)


def test_sharded_trials_equal_serial(problems):
    serial = _campaign(problems[1], fault_rate=2, stride=7).run()
    sharded = _campaign(problems[1], fault_rate=2, stride=7,
                        exec={"workers": 2}).run()
    assert sharded.trials == serial.trials
    assert len(serial.trials) > 10
