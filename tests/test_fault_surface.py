"""The whole-solver fault surface: sites, models, rate schedules, isolation.

Covers the robustness additions as one surface:

* first-class injection sites (``spmv``/``precond``/``givens``/``orth``)
  wired through the solvers with real iteration context;
* the multi-bit / burst / stuck-at fault models and their uniform
  ``to_spec``/``from_spec`` round-trip through the registry;
* rate-based schedules (N faults per solve, per-site persistence);
* crash-isolated campaign trials: error records, soft timeouts, and
  resume re-running exactly the casualties;
* cross-backend trial identity at every site.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.fgmres import fgmres
from repro.core.gmres import gmres
from repro.core.status import SolverStatus
from repro.exec.spec import TrialSpec
from repro.faults.campaign import FaultCampaign, TrialRecord
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    AbsoluteFault,
    AdditiveFault,
    BitFlipFault,
    BurstFault,
    FaultModel,
    InfFault,
    MultiBitFault,
    NaNFault,
    ScalingFault,
    StuckAtFault,
    ZeroFault,
)
from repro.faults.schedule import KNOWN_SITES, FaultRateSchedule, InjectionSchedule
from repro.gallery.problems import poisson_problem
from repro.precond.jacobi import JacobiPreconditioner
from repro.registry import resolve_fault_model
from repro.specs import CampaignSpec, ExecutionSpec, SolveSpec, SpecError


def run_with(campaign, **fields):
    """Run ``campaign``'s spec with ``fields`` replaced."""
    return FaultCampaign(campaign.problem, campaign.spec, **fields).run()


SHARDED = {"backend": "sharded", "workers": 2}


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=8, seed=7)


# --------------------------------------------------------------------------- #
# fault model spec round-trips (every registered model, uniform dict shape)
# --------------------------------------------------------------------------- #
class TestModelSpecRoundTrip:
    #: One representative instance per registered fault model.
    INSTANCES = [
        ScalingFault(1e150),
        AbsoluteFault(3.5),
        AdditiveFault(-2.0),
        ZeroFault(),
        NaNFault(),
        InfFault(),
        BitFlipFault(bit=51),
        MultiBitFault(bits=(1, 30, 62)),
        BurstFault(start_bit=40, width=8),
        StuckAtFault(bit=62, value=0),
    ]

    def test_every_registered_model_is_covered(self):
        covered = {m.name for m in self.INSTANCES}
        assert covered == set(registry.names("fault_model"))

    @pytest.mark.parametrize("model", INSTANCES, ids=lambda m: m.name)
    def test_to_spec_is_a_dict_with_name(self, model):
        spec = model.to_spec()
        assert isinstance(spec, dict)
        assert spec["name"] == model.name

    @pytest.mark.parametrize("model", INSTANCES, ids=lambda m: m.name)
    def test_round_trip_preserves_spec(self, model):
        rebuilt = resolve_fault_model(model.to_spec())
        assert type(rebuilt) is type(model)
        assert rebuilt.to_spec() == model.to_spec()

    @pytest.mark.parametrize("model", INSTANCES, ids=lambda m: m.name)
    def test_round_trip_corrupts_identically(self, model):
        import struct

        rebuilt = resolve_fault_model(model.to_spec())
        for value in (1.0, -0.3, 1e-12, 7.25e8):
            # Bit-pattern equality: corruption may legitimately yield NaN.
            assert struct.pack("<d", rebuilt.corrupt(value)) == \
                struct.pack("<d", model.corrupt(value))

    def test_campaign_spec_carries_new_models(self):
        spec = CampaignSpec(fault_classes={
            "mb": {"name": "multibit", "bits": [1, 5]},
            "bu": "burst:40:8",
            "sa": {"name": "stuck_at", "bit": 10, "value": 0},
        })
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec


class TestNewModels:
    def test_multibit_explicit_bits_is_deterministic_involution(self):
        model = MultiBitFault(bits=(2, 17, 52))
        corrupted = model.corrupt(3.75)
        assert corrupted == model.corrupt(3.75)
        assert model.corrupt(corrupted) == 3.75  # flipping twice restores

    def test_multibit_rejects_duplicate_bits(self):
        with pytest.raises(ValueError, match="distinct"):
            MultiBitFault(bits=(3, 3))

    def test_burst_is_involution(self):
        model = BurstFault(start_bit=50, width=6)
        assert model.bits == tuple(range(50, 56))
        assert model.corrupt(model.corrupt(-11.5)) == -11.5

    def test_burst_clips_at_bit_63(self):
        assert BurstFault(start_bit=61, width=10).bits == (61, 62, 63)

    def test_stuck_at_is_idempotent(self):
        model = StuckAtFault(bit=62, value=1)
        once = model.corrupt(1.0)
        assert model.corrupt(once) == once

    def test_stuck_at_conforming_value_is_noop(self):
        # 1.0 = 0x3FF0...: exponent bit 61 is already set, the sign bit is
        # already clear — a conforming stuck-at is invisible.
        assert StuckAtFault(bit=61, value=1).corrupt(1.0) == 1.0
        assert StuckAtFault(bit=63, value=0).corrupt(1.0) == 1.0


# --------------------------------------------------------------------------- #
# property-based: bit-level corruption never breaks the status taxonomy
# --------------------------------------------------------------------------- #
def _bit_models():
    return st.one_of(
        st.lists(st.integers(0, 63), min_size=1, max_size=4, unique=True)
          .map(lambda bits: MultiBitFault(bits=tuple(bits))),
        st.tuples(st.integers(0, 63), st.integers(1, 8))
          .map(lambda t: BurstFault(start_bit=t[0], width=t[1])),
        st.tuples(st.integers(0, 63), st.integers(0, 1))
          .map(lambda t: StuckAtFault(bit=t[0], value=t[1])),
    )


class TestCorruptionProperties:
    @given(model=_bit_models(),
           value=st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=200, deadline=None)
    def test_corrupt_returns_a_float(self, model, value):
        out = model.corrupt(value)
        assert isinstance(out, float)  # NaN/Inf allowed; crashes are not

    @given(model=_bit_models(), location=st.integers(0, 7),
           value_seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_solver_status_taxonomy_survives_bit_corruption(
            self, model, location, value_seed):
        """Any bit-level corruption lands in the status trichotomy.

        Exponent-bit faults produce Inf/NaN mid-solve; the solver must
        terminate with a *valid* status — converged, budget exhausted, or a
        loud breakdown — never crash or report a converged solve with a
        non-finite residual.
        """
        problem = poisson_problem(grid_n=4, seed=value_seed % 13 + 1)
        campaign = FaultCampaign(problem, inner_iterations=4, max_outer=6,
                                 fault_classes={"m": model}, site="hessenberg")
        record = campaign.run_spec(TrialSpec(0, "m", location))
        assert record.status in {s.value for s in SolverStatus}
        if record.converged:
            assert np.isfinite(record.residual_norm)


# --------------------------------------------------------------------------- #
# rate schedules
# --------------------------------------------------------------------------- #
class TestFaultRateSchedule:
    def test_cadence(self):
        sched = FaultRateSchedule(site="hessenberg", faults_per_solve=3,
                                  start=2, interval=10, mgs_position=None)
        hits = [k for k in range(40)
                if sched.matches("hessenberg", aggregate_inner_iteration=k)]
        assert hits == [2, 12, 22, 32]  # cadence; the *count* cap is the
        assert sched.max_injections == 3  # injector's job, enforced below

    def test_first_step_bounds_every_armed_step(self):
        schedules = [InjectionSchedule(aggregate_inner_iteration=4),
                     FaultRateSchedule(faults_per_solve=2, start=7, interval=10),
                     InjectionSchedule(outer_iteration=1)]
        assert [s.first_step() for s in schedules] == [4, 7, None]
        for sched in schedules[:2]:
            assert not any(sched.can_match_step(aggregate_inner_iteration=k)
                           for k in range(sched.first_step()))
            assert sched.can_match_step(aggregate_inner_iteration=sched.first_step())

    def test_injector_honors_faults_per_solve(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 site="hessenberg", fault_rate=3)
        record = campaign.run_spec(TrialSpec(0, "near_zero", 4))
        assert record.faults_injected == 3

    def test_rate_one_matches_single_schedule_campaign(self, tiny_problem):
        base = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30)
        rated = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                              fault_rate=1)
        assert rated.run_spec(TrialSpec(0, "near_zero", 7)) == \
            base.run_spec(TrialSpec(0, "near_zero", 7))

    def test_multi_site_schedule(self):
        sched = InjectionSchedule(site="spmv,precond", mgs_position=None)
        assert sched.matches_site("spmv")
        assert sched.matches_site("precond")
        assert not sched.matches_site("hessenberg")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            InjectionSchedule(site="spmv,frobnicator")

    def test_per_site_sticky_windows_are_independent(self):
        injector = FaultInjector(
            ScalingFault(2.0),
            InjectionSchedule(site="spmv,precond", persistence="sticky",
                              sticky_count=2, max_injections=10,
                              mgs_position=None),
            vector_index=0)
        vec = np.ones(4)
        fired = {"spmv": 0, "precond": 0}
        for site in ("spmv", "spmv", "spmv", "precond", "precond", "precond"):
            out = injector.corrupt_vector(site, vec,
                                          aggregate_inner_iteration=0)
            if out is not vec:
                fired[site] += 1
        # Each site gets its own sticky window of 2; spmv exhausting its
        # window must not consume precond's.
        assert fired == {"spmv": 2, "precond": 2}


# --------------------------------------------------------------------------- #
# new sites are native in the solvers
# --------------------------------------------------------------------------- #
def _site_injector(site, model=None, **sched_kwargs):
    sched_kwargs.setdefault("mgs_position", None)
    return FaultInjector(model or ScalingFault(10.0),
                         InjectionSchedule(site=site, **sched_kwargs),
                         vector_index=3)


class TestGMRESSites:
    def test_precond_site_fires_with_real_context(self, tiny_problem, count_kind):
        injector = _site_injector("precond", aggregate_inner_iteration=2)
        result = gmres(tiny_problem.A, tiny_problem.b, tol=0.0, maxiter=6,
                       restart=6, preconditioner=JacobiPreconditioner(tiny_problem.A),
                       injector=injector)
        assert injector.injections_performed == 1
        assert injector.records[0].site == "precond"
        assert injector.records[0].inner_iteration == 2
        assert count_kind(result.events, "fault_injected") == 1

    def test_spmv_site_fires_at_the_arnoldi_step(self, tiny_problem, count_kind):
        """The initial-residual matvec is not an Arnoldi step: a schedule
        pinned to step 2 corrupts the operator product of step 2."""
        injector = _site_injector("spmv", aggregate_inner_iteration=2)
        result = gmres(tiny_problem.A, tiny_problem.b, tol=0.0, maxiter=6,
                       restart=6, injector=injector)
        (record,) = injector.records
        assert (record.site, record.inner_iteration, record.vector_index) == ("spmv", 2, 3)
        assert count_kind(result.events, "fault_injected") == 1

    def test_givens_site_fires_on_rotation_coefficients(self, tiny_problem, count_kind):
        injector = FaultInjector(ScalingFault(0.5),
                                 InjectionSchedule(site="givens",
                                                   aggregate_inner_iteration=3,
                                                   mgs_position="first"))
        result = gmres(tiny_problem.A, tiny_problem.b, tol=0.0, maxiter=6,
                       restart=6, injector=injector)
        rec = injector.records[0]
        assert injector.injections_performed >= 1
        assert rec.site == "givens"
        assert rec.mgs_index in (0, 1)  # 0 = c, 1 = s
        assert count_kind(result.events, "fault_injected") >= 1

    def test_orth_site_fires_before_normalization(self, tiny_problem):
        injector = _site_injector("orth", aggregate_inner_iteration=1)
        gmres(tiny_problem.A, tiny_problem.b, tol=0.0, maxiter=6, restart=6,
              injector=injector)
        assert injector.injections_performed == 1
        assert injector.records[0].site == "orth"

    def test_fault_free_paths_bit_identical_with_site_injector(self, tiny_problem,
                                                              always_armed):
        """An injector whose schedule never fires must not perturb a bit.

        Wrapped so it is consulted on every step: the hooked path runs.
        """
        injector = _site_injector("givens", aggregate_inner_iteration=10 ** 9)
        reference = always_armed(injector)
        clean = gmres(tiny_problem.A, tiny_problem.b, tol=1e-10, maxiter=30)
        hooked = gmres(tiny_problem.A, tiny_problem.b, tol=1e-10, maxiter=30,
                       injector=reference)
        assert reference.consults > 0
        assert injector.injections_performed == 0
        np.testing.assert_array_equal(hooked.x, clean.x)
        assert hooked.residual_norm == clean.residual_norm


class TestFGMRESSites:
    @pytest.mark.parametrize("site", ["spmv", "hessenberg", "orth", "subdiag",
                                      "givens"])
    def test_outer_injection_fires(self, tiny_problem, site, count_kind):
        injector = FaultInjector(
            ScalingFault(1.5),
            InjectionSchedule(site=site, aggregate_inner_iteration=1,
                              mgs_position=None),
            vector_index=2)
        result = fgmres(tiny_problem.A, tiny_problem.b,
                        inner_solver=lambda q, j: q.copy(),
                        tol=1e-10, max_outer=8, injector=injector)
        assert injector.injections_performed == 1
        assert injector.records[0].site == site
        assert count_kind(result.events, "fault_injected") == 1

    def test_no_injector_runs_fast_path(self, tiny_problem, always_armed):
        clean = fgmres(tiny_problem.A, tiny_problem.b,
                       inner_solver=lambda q, j: q.copy(),
                       tol=1e-10, max_outer=8)
        idle = always_armed(FaultInjector(
            ScalingFault(2.0),
            InjectionSchedule(site="spmv", aggregate_inner_iteration=10 ** 9,
                              mgs_position=None)))
        hooked = fgmres(tiny_problem.A, tiny_problem.b,
                        inner_solver=lambda q, j: q.copy(),
                        tol=1e-10, max_outer=8, injector=idle)
        assert idle.consults > 0
        np.testing.assert_array_equal(hooked.x, clean.x)
        assert hooked.residual_norm == clean.residual_norm


# --------------------------------------------------------------------------- #
# every site injects under either MGS position
# --------------------------------------------------------------------------- #
class TestEverySiteInjects:
    @pytest.fixture(scope="class")
    def problem(self):
        return poisson_problem(grid_n=8, seed=7)

    @pytest.mark.parametrize("mgs_position", ["first", "last"])
    @pytest.mark.parametrize("site", KNOWN_SITES)
    def test_every_trial_injects_once(self, problem, site, mgs_position):
        """``mgs_position`` picks among the MGS (and Givens) coefficients;
        the subdiagonal, like the vector sites, is one value per step, so
        every site fires under either position.  The Jacobi inner
        preconditioner gives the ``precond`` site a value to corrupt."""
        campaign = FaultCampaign(
            problem, inner_iterations=10, max_outer=30, site=site,
            mgs_position=mgs_position,
            solver=SolveSpec(method="ft_gmres", inner=SolveSpec(
                method="gmres", tol=0.0,
                preconditioner=JacobiPreconditioner(problem.A))), stride=13)
        trials = campaign.run().trials
        assert trials
        assert [t.faults_injected for t in trials] == [1] * len(trials)


# --------------------------------------------------------------------------- #
# campaigns at every site, across backends
# --------------------------------------------------------------------------- #
class TestSiteCampaignsAcrossBackends:
    @pytest.fixture(scope="class", params=["spmv", "givens", "orth"])
    def site_campaign(self, request):
        problem = poisson_problem(grid_n=8, seed=7)
        return FaultCampaign(problem, inner_iterations=10, max_outer=30,
                             site=request.param, stride=11)

    def test_serial_is_deterministic(self, site_campaign):
        assert site_campaign.run().trials == site_campaign.run().trials

    def test_sharded_matches_serial(self, site_campaign):
        serial = site_campaign.run()
        sharded = run_with(site_campaign, exec=SHARDED)
        assert sharded.trials == serial.trials

    @pytest.fixture(scope="class")
    def precond_campaign(self):
        problem = poisson_problem(grid_n=8, seed=7)
        return FaultCampaign(
            problem, inner_iterations=10, max_outer=30, site="precond",
            solver=SolveSpec(method="ft_gmres", inner=SolveSpec(
                method="gmres", tol=0.0,
                preconditioner=JacobiPreconditioner(problem.A))), stride=17)

    @pytest.mark.parametrize("backend", ["sharded"])
    def test_precond_site_matches_serial(self, precond_campaign, backend):
        serial = precond_campaign.run()
        assert all(t.faults_injected >= 1 for t in serial.trials)
        parallel = run_with(precond_campaign, exec={"backend": backend, "workers": 2})
        assert parallel.trials == serial.trials

    def test_injections_fire_at_every_site(self, site_campaign):
        result = site_campaign.run()
        assert all(t.faults_injected >= 1 for t in result.trials)

    def test_batched_spmv_meets_equivalence_contract(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10,
                                 max_outer=30, site="spmv", detector="bound",
                                 stride=11)
        serial = campaign.run()
        batched = run_with(campaign, exec={"backend": "batched", "batch_size": 4})
        for s, b in zip(serial.trials, batched.trials):
            assert (s.fault_class, s.aggregate_inner_iteration) == \
                (b.fault_class, b.aggregate_inner_iteration)
            assert s.outer_iterations == b.outer_iterations
            assert s.total_inner_iterations == b.total_inner_iterations
            assert s.status == b.status
            assert s.faults_injected == b.faults_injected
            # The engine's documented tolerance (see test_batched_campaign).
            assert abs(s.residual_norm - b.residual_norm) <= \
                1e-10 * max(1.0, abs(s.residual_norm))

    def test_multi_site_campaign_runs(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10,
                                 max_outer=30, site="spmv,givens,orth", stride=17)
        result = campaign.run()
        assert all(t.faults_injected >= 1 for t in result.trials)


# --------------------------------------------------------------------------- #
# crash isolation: error records, soft timeouts, resume semantics
# --------------------------------------------------------------------------- #
class ExplodingFault(FaultModel):
    """Raises when armed — simulates a worker crash inside the solve."""

    name = "exploding"

    def __init__(self):
        self.armed = True
        self.corruptions = 0

    def corrupt(self, value: float) -> float:
        if self.armed:
            raise RuntimeError("simulated worker crash")
        self.corruptions += 1
        return value * 10.0

    def to_spec(self) -> dict:
        return {"name": "exploding"}


class CountingFault(ScalingFault):
    """Counts how many trials actually solved (one corruption per trial)."""

    def __init__(self):
        super().__init__(10.0 ** -0.5)
        self.corruptions = 0

    def corrupt(self, value: float) -> float:
        self.corruptions += 1
        return super().corrupt(value)


class TestCrashIsolation:
    def test_exception_becomes_error_record(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 fault_classes={"boom": ExplodingFault()}, stride=17)
        result = campaign.run()
        assert result.trials, "sweep produced no trials"
        for record in result.trials:
            assert record.is_error
            assert record.status == "error"
            assert "RuntimeError" in record.error
            assert not record.converged
            assert record.outer_iterations == -1
            assert np.isnan(record.residual_norm)

    def test_error_record_round_trips_through_dict(self):
        record = TrialRecord(
            fault_class="boom", fault_description="?",
            aggregate_inner_iteration=3, mgs_position="first",
            outer_iterations=-1, total_inner_iterations=-1, converged=False,
            status="error", residual_norm=float("nan"), faults_injected=0,
            faults_detected=0, detector_enabled=False,
            error="RuntimeError: kaboom")
        again = TrialRecord.from_dict(
            {k: v for k, v in record.to_dict().items() if k != "kind"})
        assert again.is_error and again.error == record.error

    def test_sharded_backend_isolates_crashes(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 fault_classes={"boom": ExplodingFault(),
                                                "ok": ScalingFault(1e-300)},
                                 stride=17, exec=SHARDED)
        result = campaign.run()
        by_class = {}
        for t in result.trials:
            by_class.setdefault(t.fault_class, []).append(t)
        assert all(t.is_error for t in by_class["boom"])
        assert all(not t.is_error for t in by_class["ok"])

    def test_soft_timeout_quarantines_trial(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 exec={"trial_timeout": 1e-9})
        record = campaign.run_spec_safe(TrialSpec(0, "large", 3))
        assert record.is_error
        assert "soft timeout" in record.error

    def test_keyboard_interrupt_propagates(self, tiny_problem, monkeypatch):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30)
        monkeypatch.setattr(campaign, "run_spec",
                            lambda spec: (_ for _ in ()).throw(KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            campaign.run_spec_safe(TrialSpec(0, "large", 3))

    def test_resume_reruns_only_casualties(self, tiny_problem, tmp_path):
        """A crashed shard re-runs its casualties — and nothing else."""
        from repro.api import run_campaign
        from repro.results.store import RunStore

        boom, counter = ExplodingFault(), CountingFault()
        spec = CampaignSpec(problem="poisson:8", inner_iterations=10,
                            max_outer=30, stride=17,
                            fault_classes={"boom": boom, "ok": counter})
        store = RunStore(tmp_path)
        first = run_campaign(spec=spec, store=store, run_id="crashy")
        errored = [t for t in first.trials if t.is_error]
        assert errored and all(t.fault_class == "boom" for t in errored)
        solved_before = counter.corruptions
        assert solved_before > 0

        # The store counts only clean trials as done.
        done = store.completed_indices("crashy")
        assert len(done) == len(first.trials) - len(errored)

        boom.armed = False  # the "hardware" recovers
        second = run_campaign(spec=spec, store=store, run_id="crashy",
                              resume=True)
        assert not any(t.is_error for t in second.trials)
        assert len(second.trials) == len(first.trials)
        # Completed trials were NOT re-solved...
        assert counter.corruptions == solved_before
        # ...while every casualty was.
        assert boom.corruptions == len(errored)

        # The journal now has error records superseded by clean re-runs;
        # reading back must see exactly the resumed result.
        loaded = store.load_result("crashy")
        assert loaded.trials == second.trials

    def test_duplicate_success_records_still_rejected(self, tiny_problem,
                                                      tmp_path):
        from repro.results.store import (RunManifest, RunStore, RunStoreError)

        store = RunStore(tmp_path)
        manifest = RunManifest(
            run_id="dup", spec={}, spec_hash="x", problem_name="p",
            repro_version="0", seed=7, mgs_position="first",
            inner_iterations=10, detector_enabled=False,
            failure_free_outer=5, failure_free_residual=1e-9,
            locations=[0], fault_classes=["large"], total_trials=1,
            created_at="now")
        good = TrialRecord(
            fault_class="large", fault_description="?",
            aggregate_inner_iteration=0, mgs_position="first",
            outer_iterations=5, total_inner_iterations=50, converged=True,
            status="converged", residual_norm=1e-9, faults_injected=1,
            faults_detected=0, detector_enabled=False)
        writer = store.create_run(manifest)
        writer.append(0, good)
        writer.append(0, good)  # a raced writer, not a resumed casualty
        writer.close()
        with pytest.raises(RunStoreError, match="duplicate"):
            store.completed_indices("dup")

    def test_error_then_success_duplicates_allowed(self, tmp_path):
        from repro.results.store import RunManifest, RunStore

        store = RunStore(tmp_path)
        manifest = RunManifest(
            run_id="heal", spec={}, spec_hash="x", problem_name="p",
            repro_version="0", seed=7, mgs_position="first",
            inner_iterations=10, detector_enabled=False,
            failure_free_outer=5, failure_free_residual=1e-9,
            locations=[0], fault_classes=["large"], total_trials=1,
            created_at="now")
        bad = TrialRecord(
            fault_class="large", fault_description="?",
            aggregate_inner_iteration=0, mgs_position="first",
            outer_iterations=-1, total_inner_iterations=-1, converged=False,
            status="error", residual_norm=float("nan"), faults_injected=0,
            faults_detected=0, detector_enabled=False, error="boom")
        good = dataclasses.replace(bad, outer_iterations=5,
                                   total_inner_iterations=50, converged=True,
                                   status="converged", residual_norm=1e-9,
                                   error=None)
        writer = store.create_run(manifest)
        writer.append(0, bad)
        writer.append(0, good)
        writer.close()
        assert store.completed_indices("heal") == {0}
        loaded = store.load_result("heal")
        assert loaded.trials == [good]


# --------------------------------------------------------------------------- #
# spec / CLI plumbing
# --------------------------------------------------------------------------- #
class TestSpecPlumbing:
    def test_campaign_spec_validates_site(self):
        with pytest.raises(SpecError, match="site"):
            CampaignSpec(site="spmv,frobnicator")
        for name in KNOWN_SITES:
            CampaignSpec(site=name)  # all legal

    def test_campaign_spec_validates_fault_rate(self):
        with pytest.raises(SpecError, match="fault_rate"):
            CampaignSpec(fault_rate=0)
        with pytest.raises(SpecError, match="fault_persistence"):
            CampaignSpec(fault_persistence="forever")

    def test_exec_spec_validates_trial_timeout(self):
        with pytest.raises(SpecError, match="trial_timeout"):
            ExecutionSpec(trial_timeout=0.0)
        assert ExecutionSpec(trial_timeout=2.5).trial_timeout == 2.5

    def test_trial_timeout_not_forwarded_to_executor(self):
        # Consumed by the campaign layer, not a pool knob.
        assert "trial_timeout" not in ExecutionSpec(trial_timeout=1.0).executor_kwargs()

    def test_trial_timeout_excluded_from_fingerprint(self):
        from repro.results.store import campaign_fingerprint

        base = CampaignSpec(site="spmv")
        timed = base.replace(exec=ExecutionSpec(trial_timeout=9.0))
        assert campaign_fingerprint(base, "p") == campaign_fingerprint(timed, "p")

    def test_site_and_fault_rate_change_fingerprint(self):
        from repro.results.store import campaign_fingerprint

        base = CampaignSpec()
        assert campaign_fingerprint(base, "p") != \
            campaign_fingerprint(base.replace(site="spmv"), "p")
        assert campaign_fingerprint(base, "p") != \
            campaign_fingerprint(base.replace(fault_rate=2), "p")

    def test_cli_flags_reach_the_spec(self):
        from repro.experiments.runner import build_campaign_spec, build_parser

        args = build_parser().parse_args(
            ["fig3", "--site", "spmv,precond,givens", "--fault-rate", "2",
             "--trial-timeout", "30"])
        spec = build_campaign_spec(args)
        assert spec.site == "spmv,precond,givens"
        assert spec.fault_rate == 2
        assert spec.exec.trial_timeout == 30.0

    def test_campaign_from_spec_carries_new_knobs(self, tiny_problem):
        spec = CampaignSpec(inner_iterations=10, max_outer=30, site="spmv",
                            fault_rate=2, fault_persistence="sticky",
                            exec=ExecutionSpec(trial_timeout=60.0))
        campaign = FaultCampaign.from_spec(spec, tiny_problem)
        assert campaign.site == "spmv"
        assert campaign.fault_rate == 2
        assert campaign.fault_persistence == "sticky"
        assert campaign.trial_timeout == 60.0

    def test_config_round_trip_carries_new_knobs(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10,
                                 max_outer=30, site="spmv", fault_rate=2,
                                 fault_persistence="sticky",
                                 exec={"trial_timeout": 60.0})
        rebuilt = pickle.loads(pickle.dumps(campaign))
        assert rebuilt.site == campaign.site
        assert rebuilt.fault_rate == campaign.fault_rate
        assert rebuilt.fault_persistence == campaign.fault_persistence
        assert rebuilt.trial_timeout == campaign.trial_timeout
