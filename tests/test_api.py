"""The public-API facade: equivalence suite and surface snapshot.

The acceptance contract of the config-first redesign:

* the direct entry points (``gmres``/``fgmres``/``ft_gmres``/``FaultCampaign.run``)
  produce **bit-identical** results to the spec-driven
  :func:`repro.api.solve`/:func:`repro.api.run_campaign` paths (they share one
  execution path; this suite asserts it stays that way, and
  ``tests/test_campaign_entry_points.py`` holds the campaign entry points to
  each other over generated specs);
* a campaign defined purely as a JSON spec file runs through
  ``repro.api.run_campaign`` on all four backends with trial-for-trial
  identical results;
* the public names exported from ``repro``/``repro.api``/``repro.core``/
  ``repro.exec``/``repro.specs``/``repro.registry`` match the committed
  manifest (``tests/data/api_surface.json``), so the API surface cannot
  drift silently.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import api
from repro.baselines.cg import cg
from repro.core.fgmres import fgmres
from repro.core.ftgmres import ft_gmres
from repro.core.gmres import gmres
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault
from repro.faults.schedule import InjectionSchedule
from repro.gallery.problems import circuit_problem, poisson_problem
from repro.specs import CampaignSpec, SolveSpec

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def poisson():
    return poisson_problem(grid_n=8)


@pytest.fixture(scope="module")
def circuit():
    return circuit_problem(n_nodes=60)


def make_injector(location=2):
    return FaultInjector(
        ScalingFault(1e150),
        InjectionSchedule(site="hessenberg", aggregate_inner_iteration=location,
                          mgs_position="first"))


def assert_solver_results_identical(a, b):
    assert type(a) is type(b)
    assert a.status is b.status
    assert np.array_equal(a.x, b.x)
    assert a.residual_norm == b.residual_norm
    assert list(a.history.as_array()) == list(b.history.as_array())


# ====================================================================== #
# solve() facade vs legacy entry points (bit-identical)
# ====================================================================== #
class TestSolveEquivalence:
    def test_gmres_plain(self, poisson):
        legacy = gmres(poisson.A, poisson.b, tol=1e-10, maxiter=200)
        spec = api.solve(poisson.A, poisson.b, {"method": "gmres", "tol": 1e-10,
                                                "maxiter": 200})
        assert legacy.iterations == spec.iterations
        assert_solver_results_identical(legacy, spec)

    def test_gmres_preconditioned_restarted(self, poisson):
        legacy = gmres(poisson.A, poisson.b, tol=1e-10, maxiter=120, restart=15,
                       preconditioner="ilu0", orthogonalization="cgs2")
        spec = api.solve(poisson.A, poisson.b, SolveSpec(
            method="gmres", tol=1e-10, maxiter=120, restart=15,
            preconditioner="ilu0", orthogonalization="cgs2"))
        assert_solver_results_identical(legacy, spec)

    def test_gmres_with_detector_and_injector(self, poisson, count_kind):
        legacy = gmres(poisson.A, poisson.b, tol=1e-10, maxiter=200,
                       detector="bound", detector_response="zero",
                       injector=make_injector())
        spec = api.solve(poisson.A, poisson.b,
                         {"method": "gmres", "tol": 1e-10, "maxiter": 200,
                          "detector": "bound", "detector_response": "zero"},
                         injector=make_injector())
        assert_solver_results_identical(legacy, spec)
        assert count_kind(legacy.events, "fault_detected") == \
            count_kind(spec.events, "fault_detected")

    def test_fgmres(self, poisson):
        legacy = fgmres(poisson.A, poisson.b, tol=1e-10, max_outer=40)
        spec = api.solve(poisson.A, poisson.b, "fgmres", tol=1e-10, max_outer=40)
        assert_solver_results_identical(legacy, spec)

    def test_ft_gmres_failure_free(self, circuit):
        legacy = ft_gmres(circuit.A, circuit.b, inner_iterations=10, max_outer=40)
        spec = api.solve(circuit.A, circuit.b, "ft_gmres", max_outer=40,
                         inner={"method": "gmres", "tol": 0.0, "maxiter": 10})
        assert legacy.outer_iterations == spec.outer_iterations
        assert legacy.total_inner_iterations == spec.total_inner_iterations
        assert_solver_results_identical(legacy, spec)

    def test_ft_gmres_with_fault_and_detector(self, poisson):
        inner = {"method": "gmres", "tol": 0.0, "maxiter": 8,
                 "detector": "bound", "detector_response": "zero"}
        legacy = ft_gmres(poisson.A, poisson.b,
                          spec=SolveSpec.coerce("ft_gmres", inner=inner),
                          max_outer=40, injector=make_injector())
        spec = api.solve(poisson.A, poisson.b, "ft_gmres", max_outer=40,
                         inner=inner, injector=make_injector())
        assert legacy.faults_detected == spec.faults_detected
        assert_solver_results_identical(legacy, spec)

    def test_cg(self, poisson):
        legacy = cg(poisson.A, poisson.b, tol=1e-10, maxiter=300)
        spec = api.solve(poisson.A, poisson.b, "cg", tol=1e-10, maxiter=300)
        assert_solver_results_identical(legacy, spec)

    def test_injector_rejected_for_reliable_methods(self, poisson):
        with pytest.raises(ValueError, match="injector"):
            api.solve(poisson.A, poisson.b, "fgmres", injector=make_injector())
        with pytest.raises(ValueError, match="injection"):
            api.solve(poisson.A, poisson.b, "cg", injector=make_injector())


# ====================================================================== #
# run_campaign() facade vs the legacy campaign entry points
# ====================================================================== #
class TestCampaignEquivalence:
    @pytest.fixture(scope="class")
    def campaign_args(self):
        return dict(inner_iterations=6, max_outer=30, stride=11)

    def test_matches_fault_campaign_run(self, poisson, campaign_args):
        legacy = FaultCampaign(poisson, **campaign_args).run()
        spec = api.run_campaign(poisson, {
            "inner_iterations": campaign_args["inner_iterations"],
            "max_outer": campaign_args["max_outer"],
            "stride": campaign_args["stride"]})
        assert legacy.trials == spec.trials

    def test_problem_spec_and_problem_object_agree(self, campaign_args):
        by_object = api.run_campaign(poisson_problem(grid_n=8),
                                     CampaignSpec(**campaign_args))
        by_spec = api.run_campaign(spec=CampaignSpec(problem="poisson:8",
                                                     **campaign_args))
        assert by_object.trials == by_spec.trials

    def test_both_or_neither_problem_rejected(self, poisson):
        with pytest.raises(ValueError, match="exactly one"):
            api.run_campaign(poisson, CampaignSpec(problem="poisson:8"))
        with pytest.raises(ValueError, match="no problem"):
            api.run_campaign(spec=CampaignSpec())

    def test_solver_inner_maxiter_takes_effect(self, poisson):
        """The advertised `--set solver.inner.maxiter=N` override must not be
        silently clobbered by the campaign-level default."""
        from repro.specs import apply_overrides

        spec = apply_overrides(CampaignSpec(max_outer=30),
                               {"solver.inner.maxiter": 7})
        campaign = FaultCampaign.from_spec(spec, problem=poisson)
        assert campaign.inner_iterations == 7
        assert campaign.solver.inner.maxiter == 7
        legacy = FaultCampaign(poisson, inner_iterations=7, max_outer=30)
        assert (campaign.run_plan(campaign.plan(stride=9)).trials
                == legacy.run_plan(legacy.plan(stride=9)).trials)

    def test_solver_outer_budget_takes_effect(self, poisson):
        spec = CampaignSpec(solver=SolveSpec(method="ft_gmres", max_outer=20))
        campaign = FaultCampaign.from_spec(spec, problem=poisson)
        assert campaign.max_outer == 20
        assert campaign.solver.fgmres_kwargs()["max_outer"] == 20

    def test_solver_outer_tol_takes_effect(self, poisson):
        """`solver.tol` is the outer tolerance, like `solver.max_outer` is the
        outer budget; a conflicting `outer_tol` is rejected, not ignored."""
        from repro.specs import SpecError

        spec = CampaignSpec.from_dict({"inner_iterations": 3,
                                       "solver": {"method": "ft_gmres", "tol": 1e-3}})
        campaign = FaultCampaign.from_spec(spec, problem=poisson)
        assert campaign.outer_tol == 1e-3
        assert campaign.solver.fgmres_kwargs()["tol"] == 1e-3
        loose = campaign.run_failure_free()
        tight = FaultCampaign(poisson, inner_iterations=3).run_failure_free()
        assert loose.outer_iterations < tight.outer_iterations
        conflicting = CampaignSpec(outer_tol=1e-6,
                                   solver=SolveSpec(method="ft_gmres", tol=1e-7))
        with pytest.raises(SpecError, match="solver.tol"):
            FaultCampaign.from_spec(conflicting, problem=poisson)

    def test_conflicting_budgets_rejected(self, poisson):
        from repro.specs import SpecError

        spec = CampaignSpec(inner_iterations=10,
                            solver=SolveSpec(method="ft_gmres",
                                             inner=SolveSpec(method="gmres",
                                                             maxiter=7)))
        with pytest.raises(SpecError, match="solver.inner.maxiter"):
            FaultCampaign.from_spec(spec, problem=poisson)

    def test_conflicting_detector_responses_rejected(self, poisson):
        """An explicit campaign detector_response is not silently overridden
        by the solver spec's inner one."""
        from repro.specs import SpecError

        spec = CampaignSpec.from_dict({
            "detector": "bound", "detector_response": "clamp",
            "solver": {"method": "ft_gmres",
                       "inner": {"method": "gmres", "detector": "bound",
                                 "detector_response": "flag"}}})
        with pytest.raises(SpecError, match="solver.inner.detector_response"):
            FaultCampaign.from_spec(spec, problem=poisson)

    def test_solver_inner_detector_takes_effect(self, poisson):
        """An inner detector configured via the solver spec must actually
        detect (not be clobbered by the campaign-level default of None)."""
        spec = CampaignSpec(
            inner_iterations=5, max_outer=25, locations=(1,),
            solver=SolveSpec(method="ft_gmres",
                             inner=SolveSpec(method="gmres", tol=0.0,
                                             detector="bound",
                                             detector_response="zero")))
        result = api.run_campaign(poisson, spec)
        assert result.detector_enabled
        large = [t for t in result.trials if t.fault_class == "large"]
        assert all(t.faults_detected > 0 for t in large)
        legacy = api.run_campaign(poisson, CampaignSpec(
            inner_iterations=5, max_outer=25, locations=(1,),
            detector="bound", detector_response="zero"))
        assert result.trials == legacy.trials

    def test_solver_inner_explicit_flag_response_honored(self, poisson):
        """detector_response='flag' set on solver.inner must survive (count
        detections without filtering), not be swapped for the campaign
        default 'zero'."""
        spec = CampaignSpec(
            inner_iterations=5, max_outer=25, locations=(1,),
            solver=SolveSpec(method="ft_gmres",
                             inner=SolveSpec(method="gmres", tol=0.0,
                                             detector="bound",
                                             detector_response="flag")))
        campaign = FaultCampaign.from_spec(spec, problem=poisson)
        assert campaign.detector_response == "flag"
        legacy = FaultCampaign(poisson, inner_iterations=5, max_outer=25,
                               detector="bound", detector_response="flag")
        assert (campaign.run_plan(campaign.plan(locations=[1])).trials
                == legacy.run_plan(legacy.plan(locations=[1])).trials)
        # The same holds when the detector itself is set campaign-level.
        split = CampaignSpec(
            inner_iterations=5, max_outer=25, detector="bound",
            solver=SolveSpec(method="ft_gmres",
                             inner=SolveSpec(method="gmres", tol=0.0,
                                             detector_response="flag")))
        assert FaultCampaign.from_spec(split, problem=poisson).detector_response == "flag"

    def test_solver_inner_bound_method_honored(self):
        """solver.inner.bound_method must reach a string detector spec: the
        campaign's 'bound' detector then uses the two-norm bound, exactly as
        the explicit 'bound:two_norm' spec does — not the Frobenius default."""
        from repro.sparse.norms import hessenberg_bound

        problem = poisson_problem(10)
        inner = SolveSpec(method="gmres", tol=0.0, maxiter=25,
                          bound_method="two_norm")
        campaign = FaultCampaign(problem, detector="bound",
                                 solver=SolveSpec(method="ft_gmres", inner=inner))
        explicit = FaultCampaign(problem, detector="bound:two_norm")
        assert campaign.detector.bound == explicit.detector.bound
        assert campaign.detector.bound == hessenberg_bound(problem.A,
                                                           method="two_norm")
        assert campaign.detector.bound < hessenberg_bound(problem.A,
                                                          method="frobenius")

    def test_conflicting_detectors_rejected(self, poisson):
        from repro.specs import SpecError

        spec = CampaignSpec(
            detector="nonfinite",
            solver=SolveSpec(method="ft_gmres",
                             inner=SolveSpec(method="gmres", tol=0.0,
                                             detector="bound")))
        with pytest.raises(SpecError, match="solver.inner.detector"):
            FaultCampaign.from_spec(spec, problem=poisson)

    def test_cg_resolves_preconditioner_spec(self, poisson):
        from repro.precond.jacobi import JacobiPreconditioner

        by_spec = api.solve(poisson.A, poisson.b, "cg", tol=1e-10,
                            preconditioner="jacobi")
        legacy = cg(poisson.A, poisson.b, tol=1e-10,
                    preconditioner=JacobiPreconditioner(poisson.A))
        assert_solver_results_identical(legacy, by_spec)

    def test_fgmres_parameter_defaults_per_method(self):
        assert SolveSpec(method="fgmres").fgmres_kwargs()["max_outer"] == 50
        assert SolveSpec(method="ft_gmres").fgmres_kwargs()["max_outer"] == 100

    def test_inner_detector_resolved_once(self, poisson, monkeypatch):
        """String detector specs on the inner solve resolve once per nested
        solve, not once per inner GMRES call."""
        import repro.registry as registry_mod

        calls = {"n": 0}
        original = registry_mod.resolve

        def counting(namespace, spec, ctx=None):
            if namespace == "detector":
                calls["n"] += 1
            return original(namespace, spec, ctx)

        # Every string/dict detector spec, wherever it is resolved, builds
        # through the registry's resolve().
        monkeypatch.setattr(registry_mod, "resolve", counting)
        api.solve(poisson.A, poisson.b, "ft_gmres", max_outer=30,
                  inner={"method": "gmres", "tol": 0.0, "maxiter": 5,
                         "detector": "bound", "detector_response": "zero"})
        assert calls["n"] == 1


class TestJSONCampaignOnAllBackends:
    """A campaign defined purely as a JSON file, trial-identical per backend."""

    @pytest.fixture(scope="class")
    def spec_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("specs") / "campaign.json"
        CampaignSpec(problem="poisson:7", inner_iterations=5, max_outer=25,
                     stride=9, detector="bound").dump(path)
        return path

    @pytest.fixture(scope="class")
    def reference(self, spec_file):
        spec = CampaignSpec.load(spec_file)
        assert spec.exec.backend is None  # the file leaves execution open
        return api.run_campaign(spec=spec)

    @pytest.mark.parametrize("backend,knobs", [
        ("serial", {}),
        ("sharded", {"workers": 2}),
        (None, {"workers": 2}),  # a worker count alone selects sharded
        ("batched", {"batch_size": 4}),
    ])
    def test_backend_trial_identical(self, spec_file, reference, backend, knobs):
        spec = CampaignSpec.load(spec_file)
        spec = spec.replace(exec=spec.exec.replace(backend=backend, **knobs))
        result = api.run_campaign(spec=spec)
        assert result.failure_free_outer == reference.failure_free_outer
        assert len(result.trials) == len(reference.trials)
        for got, want in zip(result.trials, reference.trials):
            if backend == "batched":
                # The lockstep engine's contract: identical counts/statuses/
                # classification, residuals to ~1e-10 (bit-identical where
                # the reduction order matches).
                assert got.fault_class == want.fault_class
                assert got.aggregate_inner_iteration == want.aggregate_inner_iteration
                assert got.outer_iterations == want.outer_iterations
                assert got.status == want.status
                assert got.converged == want.converged
                assert got.faults_injected == want.faults_injected
                assert got.faults_detected == want.faults_detected
                assert got.residual_norm == pytest.approx(want.residual_norm,
                                                          rel=1e-9, abs=1e-12)
            else:
                assert got == want


# ====================================================================== #
# the common result schema
# ====================================================================== #
class TestResultSchema:
    def test_solver_result_schema(self, poisson):
        result = api.solve(poisson.A, poisson.b, "gmres", tol=1e-10)
        summary = result.summary()
        assert summary["kind"] == "solver"
        data = result.to_dict(include_solution=True)
        json.dumps(data)  # JSON-serializable end to end
        assert data["status"] == "converged"
        assert len(data["x"]) == poisson.n
        assert data["history"][0] >= data["history"][-1]

    def test_nested_result_schema(self, poisson):
        result = api.solve(poisson.A, poisson.b, "ft_gmres", max_outer=30,
                           inner={"method": "gmres", "tol": 0.0, "maxiter": 6})
        summary = result.summary()
        assert summary["kind"] == "nested_solver"
        data = result.to_dict()
        json.dumps(data)
        assert len(data["inner_results"]) == result.outer_iterations
        assert all(inner["kind"] == "solver" for inner in data["inner_results"])

    def test_campaign_and_trial_schema_round_trip(self, poisson):
        from repro.faults.campaign import CampaignResult

        result = api.run_campaign(poisson, inner_iterations=5, max_outer=25,
                                  stride=13)
        data = result.to_dict()
        json.dumps(data)
        assert data["kind"] == "campaign"
        assert all(t["kind"] == "trial" for t in data["trials"])
        rebuilt = CampaignResult.from_dict(data)
        assert rebuilt.trials == result.trials
        assert rebuilt.summary() == result.summary()

    def test_common_keys_across_kinds(self, poisson):
        """Every result kind shares the summary core: kind/status/converged."""
        solver = api.solve(poisson.A, poisson.b, "gmres").summary()
        nested = api.solve(poisson.A, poisson.b, "ft_gmres",
                           inner={"method": "gmres", "tol": 0.0,
                                  "maxiter": 5}).summary()
        campaign = api.run_campaign(poisson, inner_iterations=5, max_outer=25,
                                    locations=[1])
        trial = campaign.trials[0].summary()
        for summary in (solver, nested, trial):
            assert {"kind", "status", "converged"} <= set(summary)


# ====================================================================== #
# API-surface snapshot
# ====================================================================== #
class TestAPISurface:
    MODULES = ("repro", "repro.api", "repro.core", "repro.exec", "repro.specs",
               "repro.registry")

    def surface(self) -> dict:
        import importlib

        return {name: sorted(importlib.import_module(name).__all__)
                for name in self.MODULES}

    def test_all_exports_exist(self):
        import importlib

        for name in self.MODULES:
            module = importlib.import_module(name)
            for symbol in module.__all__:
                assert hasattr(module, symbol), f"{name}.{symbol} is exported but missing"

    def test_surface_matches_manifest(self):
        manifest_path = DATA_DIR / "api_surface.json"
        manifest = json.loads(manifest_path.read_text())
        surface = self.surface()
        assert surface == manifest, (
            "public API surface changed; if intentional, regenerate the "
            "manifest with:\n  python -c \"import json; from tests.test_api "
            "import TestAPISurface; print(json.dumps("
            "TestAPISurface().surface(), indent=2))\" > tests/data/api_surface.json"
        )
