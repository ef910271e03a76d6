"""Tests for the component registry and the typed configuration specs.

Covers the tentpole's declarative layer:

* every registered component name resolves to a built component
  (hypothesis-sampled over the registry contents, so new registrations are
  covered automatically);
* ``CampaignSpec.from_dict(spec.to_dict())`` is equality-preserving over a
  hypothesis grid of solver/preconditioner/detector/backend combinations;
* unknown keys and bad enum values fail with errors naming the offending
  field (dotted paths for nested specs);
* the up-front backend/knob compatibility validation.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detectors import (
    CompositeDetector,
    Detector,
    HessenbergBoundDetector,
    NonFiniteDetector,
    NormGrowthDetector,
    NullDetector,
)
from repro.exec.executor import BACKEND_KNOBS, BACKENDS, resolve_backend
from repro.faults.models import FaultModel, PAPER_FAULT_CLASSES
from repro.gallery.problems import TestProblem, poisson_problem
from repro.precond.base import Preconditioner
from repro.registry import (
    RegistryError,
    ResolveContext,
    names,
    parse_spec,
    registry,
    resolve,
    resolve_detector,
    resolve_fault_classes,
    resolve_preconditioner_apply,
    resolve_problem,
)
from repro.specs import (
    CampaignSpec,
    DETECTOR_RESPONSES,
    ExecutionSpec,
    LSQ_POLICIES,
    MGS_POSITIONS,
    ORTHOGONALIZATIONS,
    SOLVER_METHODS,
    SolveSpec,
    SpecError,
    apply_overrides,
    parse_override_value,
)


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=5)


# ====================================================================== #
# registry
# ====================================================================== #
class TestSpecGrammar:
    def test_plain_name(self):
        assert parse_spec("ilu0") == ("ilu0", {})

    def test_colon_arguments(self):
        name, params = parse_spec("bound:two_norm")
        assert name == "bound" and params == {"_args": ("two_norm",)}

    def test_dict_spec(self):
        assert parse_spec({"name": "ssor", "omega": 1.2}) == ("ssor", {"omega": 1.2})

    def test_dict_without_name_rejected(self):
        with pytest.raises(RegistryError, match="'name'"):
            parse_spec({"omega": 1.2})

    def test_non_spec_rejected(self):
        with pytest.raises(RegistryError, match="string, dict"):
            parse_spec(42)

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError, match="empty"):
            parse_spec(":frobenius")


class TestRegistryResolution:
    def test_unknown_name_lists_registered(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve("detector", "magic")
        message = str(excinfo.value)
        assert "magic" in message and "bound" in message

    def test_unknown_namespace(self):
        with pytest.raises(RegistryError, match="namespace"):
            resolve("flux_capacitor", "bound")

    def test_bad_option_names_component(self, tiny_problem):
        with pytest.raises(RegistryError, match="ssor"):
            resolve("preconditioner", {"name": "ssor", "omega_typo": 1.2},
                    ResolveContext(A=tiny_problem.A))

    def test_too_many_colon_args(self):
        with pytest.raises(RegistryError, match="colon"):
            resolve("detector", "null:a")

    def test_colon_and_keyword_conflict(self, tiny_problem):
        with pytest.raises(RegistryError, match="both"):
            resolve("preconditioner", {"name": "ssor:1.2", "omega": 1.5},
                    ResolveContext(A=tiny_problem.A))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register("detector", "bound")(lambda ctx: None)

    def test_matrix_required_error_is_actionable(self):
        with pytest.raises(RegistryError, match="system matrix"):
            resolve("preconditioner", "ilu0")

    # ------------------------------------------------------------------ #
    # every registered name resolves (hypothesis-sampled so the property
    # keeps holding as namespaces grow)
    # ------------------------------------------------------------------ #
    @given(name=st.sampled_from(names("detector")))
    @settings(max_examples=20, deadline=None)
    def test_every_detector_name_resolves(self, name):
        ctx = ResolveContext(A=poisson_problem(grid_n=4).A)
        spec = {"name": name, "members": ["nonfinite"]} if name == "composite" else name
        det = resolve("detector", spec, ctx)
        assert isinstance(det, Detector)

    @given(name=st.sampled_from(names("preconditioner")))
    @settings(max_examples=20, deadline=None)
    def test_every_preconditioner_name_resolves(self, name):
        ctx = ResolveContext(A=poisson_problem(grid_n=4).A)
        precond = resolve("preconditioner", name, ctx)
        assert isinstance(precond, Preconditioner)

    @given(name=st.sampled_from(names("fault_model")))
    @settings(max_examples=20, deadline=None)
    def test_every_fault_model_name_resolves(self, name):
        needs_arg = {"scaling": "1e150", "absolute": "7.5", "additive": "0.5"}
        spec = f"{name}:{needs_arg[name]}" if name in needs_arg else name
        model = resolve("fault_model", spec)
        assert isinstance(model, FaultModel)

    @given(name=st.sampled_from(names("problem")))
    @settings(max_examples=10, deadline=None)
    def test_every_problem_name_resolves(self, name):
        sizes = {"poisson": "poisson:4", "circuit": "circuit:40"}
        problem = resolve_problem(sizes[name])
        assert isinstance(problem, TestProblem)

    def test_every_solver_name_registered(self):
        assert set(names("solver")) == set(SOLVER_METHODS)


class TestHighLevelResolvers:
    def test_detector_instance_passthrough(self):
        det = NonFiniteDetector()
        assert resolve_detector(det) is det

    def test_detector_none_passthrough(self):
        assert resolve_detector(None) is None

    def test_detector_wrong_type(self):
        with pytest.raises(TypeError):
            resolve_detector(42)

    def test_bound_colon_argument_overrides_context(self, tiny_problem):
        """The detector spec's own argument is the one home of the bound's
        norm: ``bound`` is ||A||_F (Eq. 3), ``bound:two_norm`` an ||A||_2
        estimate, and the same argument works in the dict form."""
        from repro.sparse.norms import hessenberg_bound

        fro = resolve_detector("bound", A=tiny_problem.A)
        colon = resolve_detector("bound:two_norm", A=tiny_problem.A)
        keyword = resolve_detector({"name": "bound", "method": "two_norm"},
                                   A=tiny_problem.A)
        assert fro.bound == hessenberg_bound(tiny_problem.A, method="frobenius")
        assert colon.bound == keyword.bound == hessenberg_bound(tiny_problem.A,
                                                                method="two_norm")
        assert colon.bound < fro.bound  # ||A||_2 <= ||A||_F

    def test_preconditioner_apply_accepts_legacy_types(self, tiny_problem):
        import numpy as np

        n = tiny_problem.n
        assert resolve_preconditioner_apply(None, n=n) is None
        func = lambda r: r  # noqa: E731
        assert resolve_preconditioner_apply(func, n=n) is func
        apply = resolve_preconditioner_apply("jacobi", n=n, A=tiny_problem.A)
        r = np.ones(n)
        assert apply(r).shape == (n,)
        with pytest.raises(ValueError, match="shape"):
            resolve_preconditioner_apply(np.eye(3), n=n)

    def test_fault_classes_paper_and_dict(self):
        paper = resolve_fault_classes("paper")
        assert set(paper) == set(PAPER_FAULT_CLASSES)
        custom = resolve_fault_classes({"big": {"name": "scaling", "factor": 1e100},
                                        "wipe": "zero"})
        assert custom["big"].factor == 1e100
        assert custom["wipe"].corrupt(3.0) == 0.0

    def test_fault_classes_bad_shape(self):
        with pytest.raises(RegistryError, match="fault_classes"):
            resolve_fault_classes([1, 2, 3])


class TestComponentToSpecRoundTrip:
    """Built instances serialize back to specs that rebuild equivalently."""

    def test_detectors(self, tiny_problem):
        detectors = [
            NullDetector(),
            NonFiniteDetector(),
            HessenbergBoundDetector(12.5),
            NormGrowthDetector(factor=1e4, floor=1e-200),
            CompositeDetector([NonFiniteDetector(), HessenbergBoundDetector(3.0)]),
        ]
        for det in detectors:
            rebuilt = resolve_detector(det.to_spec(), A=tiny_problem.A)
            assert type(rebuilt) is type(det)
            if isinstance(det, HessenbergBoundDetector):
                assert rebuilt.bound == det.bound

    def test_fault_models(self):
        from repro.faults.models import (
            AbsoluteFault,
            AdditiveFault,
            BitFlipFault,
            InfFault,
            NaNFault,
            ScalingFault,
            ZeroFault,
        )

        models = [ScalingFault(1e150), AbsoluteFault(4.0), AdditiveFault(-2.0),
                  ZeroFault(), NaNFault(), InfFault(), BitFlipFault(bit=52)]
        for model in models:
            rebuilt = resolve_fault_classes({"m": model.to_spec()})["m"]
            assert type(rebuilt) is type(model)
            assert rebuilt.describe() == model.describe()


# ====================================================================== #
# specs: validation errors name the offending field
# ====================================================================== #
class TestSpecValidation:
    def test_bad_enum_names_field(self):
        with pytest.raises(SpecError, match="orthogonalization") as excinfo:
            SolveSpec(orthogonalization="qr")
        assert excinfo.value.field == "orthogonalization"

    def test_bad_method(self):
        with pytest.raises(SpecError, match="method"):
            SolveSpec(method="bicgstab")

    def test_unknown_key_named(self):
        with pytest.raises(SpecError) as excinfo:
            SolveSpec.from_dict({"method": "gmres", "tollerance": 1e-8})
        assert excinfo.value.field == "tollerance"

    def test_nested_unknown_key_uses_dotted_path(self):
        with pytest.raises(SpecError) as excinfo:
            SolveSpec.from_dict({"method": "ft_gmres",
                                 "inner": {"method": "gmres", "maxitr": 3}})
        assert excinfo.value.field == "inner.maxitr"

    def test_nested_bad_enum_uses_dotted_path(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict({"exec": {"backend": "gpu"}})
        assert excinfo.value.field == "exec.backend"

    def test_nested_solver_path(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(
                {"solver": {"method": "ft_gmres",
                            "inner": {"method": "gmres", "restarts": 2}}})
        assert excinfo.value.field == "solver.inner.restarts"

    def test_method_capability_matrix(self):
        with pytest.raises(SpecError, match="restart"):
            SolveSpec(method="fgmres", restart=10)
        with pytest.raises(SpecError, match="max_outer"):
            SolveSpec(method="gmres", max_outer=10)
        with pytest.raises(SpecError, match="detector"):
            SolveSpec(method="cg", detector="bound")
        with pytest.raises(SpecError, match="inner.method"):
            SolveSpec(method="ft_gmres", inner=SolveSpec(method="fgmres"))

    def test_ft_gmres_inner_restart_rejected(self):
        """The inner solves run one unrestarted cycle; a restart would be ignored."""
        with pytest.raises(SpecError) as excinfo:
            SolveSpec(method="ft_gmres", inner=SolveSpec(method="gmres", restart=3))
        assert excinfo.value.field == "inner.restart"
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict({"solver": {"method": "ft_gmres",
                                               "inner": {"method": "gmres", "restart": 3}}})
        assert excinfo.value.field == "solver.inner.restart"

    def test_campaign_bad_values(self):
        with pytest.raises(SpecError, match="mgs_position"):
            CampaignSpec(mgs_position="middle")
        with pytest.raises(SpecError, match="stride"):
            CampaignSpec(stride=0)
        with pytest.raises(SpecError, match="inner_iterations"):
            CampaignSpec(inner_iterations=0)
        with pytest.raises(SpecError, match=r"locations\[1\]"):
            CampaignSpec(locations=[1, "two"])
        with pytest.raises(SpecError, match="fault_classes"):
            CampaignSpec(fault_classes="exotic")
        with pytest.raises(SpecError, match="solver.method"):
            CampaignSpec(solver=SolveSpec(method="gmres"))

    @pytest.mark.parametrize("build, expected", [
        (lambda: CampaignSpec(exec={"workers": 2}),
         CampaignSpec(exec=ExecutionSpec(workers=2))),
        (lambda: CampaignSpec(solver={"method": "ft_gmres"}),
         CampaignSpec(solver=SolveSpec(method="ft_gmres"))),
        (lambda: SolveSpec(method="ft_gmres", inner={"method": "gmres", "maxiter": 5}),
         SolveSpec(method="ft_gmres", inner=SolveSpec(method="gmres", maxiter=5))),
        (lambda: CampaignSpec().replace(exec={"backend": "serial"}),
         CampaignSpec(exec=ExecutionSpec(backend="serial"))),
        (lambda: CampaignSpec(exec={"workers": -1}), "exec.workers"),
        (lambda: CampaignSpec(solver={"method": "ft_gmres", "inner": {"maxiter": 0}}),
         "solver.inner.maxiter"),
        (lambda: SolveSpec(method="ft_gmres", inner={"maxitr": 3}), "inner.maxitr"),
        (lambda: CampaignSpec().replace(exec={"backend": "gpu"}), "exec.backend"),
        (lambda: CampaignSpec(exec=None), "exec"),
    ], ids=["campaign-exec", "campaign-solver", "solve-inner", "replace-exec",
            "bad-exec", "bad-solver-inner", "bad-inner", "bad-replace-exec", "null-exec"])
    def test_nested_specs_accept_dicts(self, build, expected):
        """A nested spec may be given as a dict wherever it is a field; a bad
        one names its dotted path."""
        if isinstance(expected, str):
            with pytest.raises(SpecError) as excinfo:
                build()
            assert excinfo.value.field == expected
        else:
            assert build() == expected

    @pytest.mark.parametrize("data, field, named", [
        ({"solver": {"method": "ft_gmres", "lsq_tol": 1e-3}}, "solver.lsq_tol", "lsq_tol"),
        ({"solver": {"method": "ft_gmres", "rank_tol": 1e-3}}, "solver.rank_tol",
         "rank_tol"),
        ({"solver": {"method": "ft_gmres", "bound_method": "two_norm"}},
         "solver.bound_method", "bound_method"),
        ({"solver": {"method": "ft_gmres",
                     "inner": {"method": "gmres", "bound_method": "exact"}}},
         "solver.inner.bound_method", "bound_method"),
        ({"detector": {"name": "bound", "slack": 2}}, "detector", "slack"),
        ({"detector": {"name": "bound", "check_nonfinite": False}}, "detector",
         "check_nonfinite"),
        ({"problem": {"name": "circuit", "n_nodes": 50, "jacobi_equilibrate": False}},
         "problem", "jacobi_equilibrate"),
    ], ids=["lsq_tol", "rank_tol", "bound_method", "inner-bound_method", "slack",
            "check_nonfinite", "jacobi_equilibrate"])
    def test_deleted_settings_are_spec_errors(self, data, field, named):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(data)
        assert excinfo.value.field == field
        assert named in str(excinfo.value)

    @pytest.mark.parametrize("solver, field, home", [
        ({"tol": 1e-7}, "solver.tol", "outer_tol"),
        ({"max_outer": 60}, "solver.max_outer", "max_outer"),
        ({"inner": {"method": "gmres", "maxiter": 25}}, "solver.inner.maxiter",
         "inner_iterations"),
        ({"inner": {"method": "gmres", "detector": "bound"}}, "solver.inner.detector",
         "detector"),
        ({"inner": {"method": "gmres", "detector_response": "flag"}},
         "solver.inner.detector_response", "detector_response"),
    ], ids=["tol", "max_outer", "inner-maxiter", "inner-detector",
            "inner-detector_response"])
    def test_solver_twins_are_spec_errors(self, solver, field, home):
        """Each of the five settings has one home, a campaign field: the
        solver spec that sets it is refused where the spec is built, naming
        the path and the field to set instead (even when both agree)."""
        for build in (lambda: CampaignSpec.from_dict({"solver": {"method": "ft_gmres",
                                                                 **solver}}),
                      lambda: CampaignSpec(solver=SolveSpec.from_dict(
                          {"method": "ft_gmres", **solver}))):
            with pytest.raises(SpecError) as excinfo:
                build()
            assert excinfo.value.field == field
            assert f"set {home} instead" in str(excinfo.value)

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecError, match="stride"):
            CampaignSpec(stride=True)

    def test_invalid_json_document(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            CampaignSpec.from_json("{not json")


class TestComponentArgumentsBind:
    """A component spec's colon arguments and keywords bind to its
    registered factory when the spec is built, not when it is resolved."""

    @pytest.mark.parametrize("spec", [
        "ilu0:level",
        "gauss_seidel:sequential",
        {"name": "ssor", "trisolve_mode": "level"},
        {"name": "ssor:1.2", "omega": 1.5},
        "ssor:1.2:level",
    ], ids=["ilu0-colon", "gs-colon", "ssor-keyword", "ssor-twice", "ssor-colons"])
    def test_unbindable_preconditioner_rejected(self, spec):
        with pytest.raises(SpecError) as excinfo:
            SolveSpec(preconditioner=spec)
        assert excinfo.value.field == "preconditioner"

    def test_nested_path_named(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict({"solver": {
                "method": "ft_gmres",
                "inner": {"method": "gmres", "preconditioner": "ilu0:zz"}}})
        assert excinfo.value.field == "solver.inner.preconditioner"
        with pytest.raises(SpecError) as excinfo:
            apply_overrides(CampaignSpec(),
                            {"solver.inner.preconditioner": "ilu0:zz"})
        assert excinfo.value.field == "solver.inner.preconditioner"

    def test_detector_and_problem_arguments_bind(self):
        with pytest.raises(SpecError, match="detector"):
            CampaignSpec(detector="null:a")
        with pytest.raises(SpecError, match="detector"):
            SolveSpec(detector={"name": "bound", "methd": "two_norm"})
        with pytest.raises(SpecError, match="problem"):
            CampaignSpec(problem="poisson:10:3")

    def test_bindable_specs_accepted(self):
        SolveSpec(preconditioner="ssor:1.2", detector="bound:two_norm")
        SolveSpec(preconditioner={"name": "ssor", "omega": 1.5},
                  detector={"name": "norm_growth", "factor": 10.0})
        CampaignSpec(problem={"name": "circuit", "n_nodes": 50, "seed": 3},
                     detector="composite")

    def test_unregistered_names_fail_when_resolved(self):
        """Binding needs a registered factory; an unknown name still builds
        and raises, listing what is registered, when it is resolved."""
        spec = CampaignSpec(problem="no-such-problem:9")
        with pytest.raises(RegistryError, match="poisson"):
            resolve_problem(spec.problem)


class TestFaultClassesBind:
    """Each fault-class value binds to its registered fault model, and is
    built by it, when the campaign spec is built; a failure names
    ``fault_classes.<label>``."""

    @pytest.mark.parametrize("model", [
        {"name": "scaling", "facto": 2.0},
        "bitflip:1:2:3",
        "",
        None,
        "bitflip:999",
        {"name": "burst", "width": "x"},
        {"name": "bitflip", "rng": 5},
    ], ids=["misspelled-keyword", "extra-colon-arguments", "empty", "null",
            "value-the-factory-rejects", "non-integer-value", "removed-rng-option"])
    def test_unbindable_fault_class_rejected(self, model):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict({"fault_classes": {"a": model}})
        assert excinfo.value.field == "fault_classes.a"

    def test_every_spec_route_names_the_label(self):
        bad = {"a": {"name": "scaling", "factor": 2.0},
               "b": {"name": "scaling", "facto": 2.0}}
        for build in (lambda: CampaignSpec(fault_classes=bad),
                      lambda: CampaignSpec.coerce(CampaignSpec(), fault_classes=bad),
                      lambda: apply_overrides(CampaignSpec(), {"fault_classes": bad}),
                      lambda: CampaignSpec.from_json(json.dumps({"fault_classes": bad}))):
            with pytest.raises(SpecError) as excinfo:
                build()
            assert excinfo.value.field == "fault_classes.b"

    def test_bindable_and_built_models_accepted(self):
        from repro.faults.models import ScalingFault

        spec = CampaignSpec(fault_classes={"a": "bitflip:3", "b": ScalingFault(2.0),
                                           "c": {"name": "scaling", "factor": 1e150}})
        assert set(spec.fault_classes) == {"a", "b", "c"}
        # An unregistered name still builds; resolving it lists what is.
        unknown = CampaignSpec(fault_classes={"a": "no-such-model"})
        with pytest.raises(RegistryError, match="scaling"):
            resolve_fault_classes(unknown.fault_classes)


class TestFactoryValueErrors:
    """A factory that rejects an argument's value raises RegistryError
    naming the component, as it does for an unknown keyword."""

    @pytest.mark.parametrize("namespace, spec, named", [
        ("problem", "poisson:abc", "problem 'poisson'"),
        ("problem", "poisson:-3", "problem 'poisson'"),
        ("detector", "bound:nope", "detector 'bound'"),
    ])
    def test_bad_value_is_a_registry_error(self, namespace, spec, named):
        ctx = ResolveContext(A=poisson_problem(4).A)
        with pytest.raises(RegistryError, match=named):
            registry.resolve(namespace, spec, ctx)

    def test_factory_registry_errors_pass_through_unwrapped(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve_detector({"name": "composite", "members": []})
        assert "invalid options" not in str(excinfo.value)


class TestExecutionSpecKnobs:
    def test_batch_size_with_sharded_rejected(self):
        with pytest.raises(SpecError, match="batch_size"):
            ExecutionSpec(backend="sharded", batch_size=8)

    def test_workers_with_serial_rejected(self):
        with pytest.raises(SpecError, match="workers"):
            ExecutionSpec(backend="serial", workers=4)

    def test_chunksize_with_batched_rejected(self):
        """chunksize is no longer an ExecutionSpec field on any backend."""
        with pytest.raises(SpecError, match="chunksize"):
            ExecutionSpec.from_dict({"backend": "batched", "chunksize": 2})

    def test_workers_one_is_always_consistent(self):
        assert ExecutionSpec(backend="serial", workers=1).workers == 1
        assert ExecutionSpec(backend="batched", workers=1).backend == "batched"

    def test_ambiguous_auto_backend_rejected(self):
        with pytest.raises(SpecError, match="mutually"):
            ExecutionSpec(workers=4, batch_size=8)

    def test_valid_combinations_accepted(self):
        ExecutionSpec(backend="sharded", workers=4, max_retries=2)
        ExecutionSpec(workers=2)
        ExecutionSpec(backend="batched", batch_size=16)
        ExecutionSpec()

    def test_validity_never_depends_on_repro_workers(self, monkeypatch):
        """max_retries needs a spec-level selector of the sharded backend."""
        for env in ("1", "4"):
            monkeypatch.setenv("REPRO_WORKERS", env)
            with pytest.raises(SpecError, match="max_retries"):
                ExecutionSpec(max_retries=2)
            assert ExecutionSpec(workers=2, max_retries=2).max_retries == 2

    def test_heartbeat_interval_is_gone(self):
        """The supervisor polls at its fixed cadence; a spec naming the
        removed knob fails naming it, on every spec route."""
        for build in (
                lambda: CampaignSpec.from_dict({"exec": {"heartbeat_interval": 0.1}}),
                lambda: CampaignSpec.from_json('{"exec": {"heartbeat_interval": 0.1}}'),
                lambda: CampaignSpec.coerce(CampaignSpec(),
                                            exec={"heartbeat_interval": 0.1}),
                lambda: apply_overrides(CampaignSpec(),
                                        {"exec.heartbeat_interval": 0.1})):
            with pytest.raises(SpecError) as excinfo:
                build()
            assert excinfo.value.field == "exec.heartbeat_interval"
        assert "heartbeat_interval" not in {knob for knobs in BACKEND_KNOBS.values()
                                            for knob in knobs}

    def test_resolve_backend_direct(self):
        assert resolve_backend(workers=4) == "sharded"
        assert resolve_backend("batched", batch_size=4) == "batched"
        with pytest.raises(ValueError, match="batch_size"):
            resolve_backend("sharded", batch_size=4)
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("gpu")


# ====================================================================== #
# specs: hypothesis round-trip grid
# ====================================================================== #
precond_specs = st.one_of(
    st.none(),
    st.sampled_from(["jacobi", "ilu0", "gauss_seidel", "identity"]),
    st.builds(lambda omega: {"name": "ssor", "omega": omega},
              st.floats(min_value=0.1, max_value=1.9)),
    st.builds(lambda d: {"name": "neumann", "degree": d},
              st.integers(min_value=1, max_value=4)),
)
detector_specs = st.one_of(
    st.none(),
    st.sampled_from(["bound", "bound:two_norm", "nonfinite", "null"]),
    st.builds(lambda f: {"name": "norm_growth", "factor": f},
              st.floats(min_value=2.0, max_value=1e6)),
)


@st.composite
def solve_specs(draw):
    method = draw(st.sampled_from(SOLVER_METHODS))
    fields = {"method": method,
              "tol": draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-6]))}
    if method in ("gmres", "cg"):
        fields["maxiter"] = draw(st.one_of(st.none(),
                                           st.integers(min_value=1, max_value=200)))
    if method == "gmres":
        fields["restart"] = draw(st.one_of(st.none(),
                                           st.integers(min_value=1, max_value=50)))
        fields["preconditioner"] = draw(precond_specs)
    if method == "cg":
        fields["preconditioner"] = draw(st.sampled_from([None, "jacobi"]))
    if method in ("fgmres", "ft_gmres"):
        fields["max_outer"] = draw(st.one_of(st.none(),
                                             st.integers(min_value=1, max_value=100)))
    if method in ("gmres", "fgmres", "ft_gmres"):
        fields["orthogonalization"] = draw(st.sampled_from(ORTHOGONALIZATIONS))
        fields["lsq_policy"] = draw(st.one_of(st.none(), st.sampled_from(LSQ_POLICIES)))
        fields["detector"] = draw(detector_specs)
        fields["detector_response"] = draw(st.sampled_from(DETECTOR_RESPONSES))
    if method == "ft_gmres" and draw(st.booleans()):
        fields["inner"] = SolveSpec(
            method="gmres", tol=0.0,
            maxiter=draw(st.integers(min_value=1, max_value=50)),
            preconditioner=draw(precond_specs),
            detector=draw(detector_specs))
    return SolveSpec(**{k: v for k, v in fields.items() if v is not None
                        or k in ("maxiter", "restart", "max_outer", "lsq_policy")})


@st.composite
def execution_specs(draw):
    backend = draw(st.sampled_from([None, *BACKENDS]))
    fields = {"backend": backend}
    allowed = BACKEND_KNOBS[backend] if backend is not None else {"workers"}
    if "workers" in allowed:
        fields["workers"] = draw(st.one_of(st.none(),
                                           st.integers(min_value=1, max_value=8)))
    if "batch_size" in allowed:
        fields["batch_size"] = draw(st.one_of(st.none(),
                                              st.integers(min_value=1, max_value=64)))
    return ExecutionSpec(**fields)


fault_class_specs = st.one_of(
    st.just("paper"),
    st.dictionaries(
        st.sampled_from(["large", "small", "weird"]),
        st.one_of(st.sampled_from(["zero", "nan", "inf"]),
                  st.builds(lambda f: {"name": "scaling", "factor": f},
                            st.sampled_from([1e150, 10.0 ** -0.5, 1e-300]))),
        min_size=1, max_size=3),
)


@st.composite
def campaign_specs(draw):
    return CampaignSpec(
        problem=draw(st.sampled_from([None, "poisson:6",
                                      {"name": "circuit", "n_nodes": 50}])),
        inner_iterations=draw(st.integers(min_value=1, max_value=50)),
        max_outer=draw(st.integers(min_value=1, max_value=200)),
        outer_tol=draw(st.sampled_from([0.0, 1e-10, 1e-8])),
        fault_classes=draw(fault_class_specs),
        mgs_position=draw(st.sampled_from(MGS_POSITIONS)),
        detector=draw(detector_specs),
        detector_response=draw(st.sampled_from(DETECTOR_RESPONSES)),
        stride=draw(st.integers(min_value=1, max_value=25)),
        locations=draw(st.one_of(st.none(),
                                 st.lists(st.integers(min_value=0, max_value=500),
                                          min_size=1, max_size=5))),
        solver=draw(st.one_of(st.none(), st.just(SolveSpec(
            method="ft_gmres", inner=SolveSpec(method="gmres", tol=0.0,
                                               preconditioner="jacobi"))))),
        exec=draw(execution_specs()),
    )


class TestSpecRoundTrips:
    @given(spec=solve_specs())
    @settings(max_examples=60, deadline=None)
    def test_solve_spec_round_trip(self, spec):
        data = spec.to_dict()
        assert json.loads(json.dumps(data)) == data  # genuinely JSON-able
        assert SolveSpec.from_dict(data) == spec
        assert SolveSpec.from_json(spec.to_json()) == spec

    @given(spec=execution_specs())
    @settings(max_examples=40, deadline=None)
    def test_execution_spec_round_trip(self, spec):
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec

    @given(spec=campaign_specs())
    @settings(max_examples=60, deadline=None)
    def test_campaign_spec_round_trip(self, spec):
        data = spec.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert CampaignSpec.from_dict(data) == spec
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_instance_bearing_spec_serializes_via_to_spec(self):
        spec = CampaignSpec(detector=HessenbergBoundDetector(9.0),
                            fault_classes={"large": PAPER_FAULT_CLASSES["large"]})
        data = spec.to_dict()
        assert data["detector"] == {"name": "bound", "bound": 9.0}
        assert data["fault_classes"]["large"] == {"name": "scaling", "factor": 1e150}

    def test_unserializable_instance_names_field(self):
        class Opaque:
            pass

        spec = CampaignSpec(detector=Opaque())
        with pytest.raises(SpecError, match="detector"):
            spec.to_dict()


class TestOverrides:
    def test_parse_override_value(self):
        assert parse_override_value("25") == 25
        assert parse_override_value("1e-8") == 1e-8
        assert parse_override_value("true") is True
        assert parse_override_value("null") is None
        assert parse_override_value("batched") == "batched"
        assert parse_override_value("[1, 2]") == [1, 2]

    def test_dotted_paths_create_nested_specs(self):
        spec = apply_overrides(CampaignSpec(), {"solver.inner.orthogonalization": "cgs2",
                                                "exec.backend": "batched"})
        assert spec.solver.inner.orthogonalization == "cgs2"
        # The created inner solve is the paper's, with no budget of its own:
        # inner_iterations stays the campaign's only inner budget.
        assert spec.solver.inner == SolveSpec(method="gmres", tol=0.0,
                                              orthogonalization="cgs2")
        assert spec.exec.backend == "batched"

    def test_list_values_become_tuples(self):
        spec = apply_overrides(CampaignSpec(), {"locations": [1, 2, 3]})
        assert spec.locations == (1, 2, 3)

    def test_unknown_field_names_path(self):
        with pytest.raises(SpecError, match="exec.bogus"):
            apply_overrides(CampaignSpec(), {"exec.bogus": 1})

    def test_overridden_spec_revalidates(self):
        with pytest.raises(SpecError, match="batch_size"):
            apply_overrides(CampaignSpec(), {"exec.backend": "sharded",
                                             "exec.batch_size": 8})

    def test_cannot_descend_into_scalar(self):
        with pytest.raises(SpecError, match="stride.deeper"):
            apply_overrides(CampaignSpec(), {"stride.deeper": 1})


class TestDefaultsSingleSource:
    """Satellite: FaultCampaign and sweep defaults derive from CampaignSpec."""

    def test_campaign_defaults_match_spec_defaults(self, tiny_problem):
        from repro.faults.campaign import FaultCampaign

        campaign = FaultCampaign(tiny_problem)
        defaults = CampaignSpec()
        assert campaign.inner_iterations == defaults.inner_iterations == 25
        assert campaign.max_outer == defaults.max_outer == 100
        assert campaign.outer_tol == defaults.outer_tol == 1e-8
        assert campaign.mgs_position == defaults.mgs_position
        assert campaign.detector_response == defaults.detector_response
        assert campaign.site == defaults.site

    def test_ftgmres_parameters_agree_with_campaign_defaults(self):
        params = SolveSpec(method="ft_gmres")
        defaults = CampaignSpec()
        assert params.gmres_kwargs()["maxiter"] == defaults.inner_iterations
        assert params.fgmres_kwargs()["max_outer"] == defaults.max_outer
        assert params.fgmres_kwargs()["tol"] == defaults.outer_tol
