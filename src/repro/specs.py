"""Typed, frozen, JSON-round-trippable configuration specs.

This module is the declarative half of the public API: a solve or a whole
fault campaign is described by plain data — :class:`SolveSpec`,
:class:`ExecutionSpec`, :class:`CampaignSpec` — that serializes to JSON
(``to_dict``/``to_json``), deserializes with validation
(``from_dict``/``from_json``), and resolves to built components through
:mod:`repro.registry` only at execution time.  The imperative half lives in
:mod:`repro.api` (``solve``/``run_campaign``).

:class:`SolveSpec` is the only solver configuration: the solvers take its
:meth:`~SolveSpec.gmres_kwargs`/:meth:`~SolveSpec.fgmres_kwargs` (which hold
the per-method defaults), :func:`repro.core.ftgmres.ft_gmres` takes the spec
itself, and a :class:`~repro.faults.campaign.FaultCampaign` keeps its merged
nested-solver spec as ``campaign.solver``.

Validation errors are :class:`SpecError` (a ``ValueError``) and always name
the offending field, including its dotted path inside nested specs
(``"solver.inner.maxiter"``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Mapping, TypeVar

_SpecT = TypeVar("_SpecT", bound="_SpecBase")

__all__ = [
    "SpecError",
    "SolveSpec",
    "ExecutionSpec",
    "CampaignSpec",
    "ServiceSpec",
    "apply_overrides",
    "parse_override_value",
    "spec_hash",
    "SOLVER_METHODS",
    "ORTHOGONALIZATIONS",
    "DETECTOR_RESPONSES",
    "BOUND_METHODS",
    "LSQ_POLICIES",
    "MGS_POSITIONS",
    "FAULT_PERSISTENCES",
]

#: Valid values of the enum-like spec fields (the execution layer re-derives
#: its behavior from these same vocabularies, so they cannot drift).
SOLVER_METHODS = ("gmres", "fgmres", "ft_gmres", "cg")
ORTHOGONALIZATIONS = ("mgs", "cgs", "cgs2")
DETECTOR_RESPONSES = ("flag", "zero", "clamp", "recompute", "raise")
BOUND_METHODS = ("frobenius", "two_norm", "exact")
LSQ_POLICIES = ("standard", "hybrid", "rank_revealing")
MGS_POSITIONS = ("first", "last")
FAULT_PERSISTENCES = ("transient", "sticky", "persistent")


class SpecError(ValueError):
    """A spec validation failure, carrying the offending field's dotted path."""

    def __init__(self, field_path: str, message: str) -> None:
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


# ---------------------------------------------------------------------- #
# validation helpers
# ---------------------------------------------------------------------- #
def _check_choice(field_path: str, value: Any, choices: Iterable[Any], *,
                  allow_none: bool = False) -> Any:
    if value is None and allow_none:
        return None
    if value not in choices:
        raise SpecError(field_path, f"expected one of {list(choices)}, got {value!r}")
    return value


def _check_int(field_path: str, value: Any, *, minimum: int | None = None,
               allow_none: bool = False) -> int | None:
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(field_path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(field_path, f"must be >= {minimum}, got {value}")
    return value


def _check_float(field_path: str, value: Any, *, minimum: float | None = None,
                 allow_none: bool = False) -> float | None:
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(field_path, f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise SpecError(field_path, f"must be >= {minimum}, got {value}")
    return value


def _check_component(field_path: str, value: Any, *, namespace: str | None = None,
                     allow_none: bool = True) -> Any:
    """A component spec field: string, dict-with-name, built instance, or None.

    ``namespace`` is the field's registry namespace (default: the field's
    name).  A string or dict spec's colon arguments and keywords must bind
    to the registered factory's signature (see
    :meth:`repro.registry.Registry.check`).
    """
    if value is None:
        if not allow_none:
            raise SpecError(field_path, "may not be null")
        return None
    if isinstance(value, str):
        if not value.strip():
            raise SpecError(field_path, "component name may not be empty")
    elif isinstance(value, dict):
        if "name" not in value:
            raise SpecError(field_path,
                            f"dict component spec needs a 'name' key, got {sorted(value)}")
    else:
        # Built instances (Preconditioner, Detector, ...) pass through; they
        # are resolved by identity and serialized via their ``to_spec``.
        return value
    from repro.registry import RegistryError, registry

    try:
        registry.check(namespace or field_path, value)
    except RegistryError as exc:
        raise SpecError(field_path, str(exc)) from None
    return value


def _jsonable_component(field_path: str, value: Any) -> Any:
    """Serialize a component field: specs verbatim, instances via ``to_spec``."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {k: _jsonable_component(f"{field_path}.{k}", v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_component(f"{field_path}[{i}]", v) for i, v in enumerate(value)]
    to_spec = getattr(value, "to_spec", None)
    if to_spec is not None:
        return to_spec()
    raise SpecError(field_path,
                    f"{type(value).__name__} instance is not JSON-serializable "
                    f"(it has no to_spec()); use a string/dict component spec instead")


def _reject_unknown_keys(cls: type, data: Mapping[str, Any],
                         prefix: str) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        path = f"{prefix}{unknown[0]}" if prefix else unknown[0]
        raise SpecError(path,
                        f"unknown field (valid fields of {cls.__name__}: {sorted(known)})")


def _field_default(cls: type, name: str) -> Any:
    for f in fields(cls):
        if f.name == name:
            return (f.default_factory() if f.default_factory is not dataclasses.MISSING
                    else f.default)
    raise AttributeError(f"{cls.__name__} has no field {name!r}")  # pragma: no cover


def _construct_with_prefix(cls: Callable[..., _SpecT], data: Mapping[str, Any],
                           prefix: str) -> _SpecT:
    """Instantiate a spec, re-raising SpecErrors with the dotted prefix."""
    try:
        return cls(**data)
    except SpecError as exc:
        if prefix and not exc.field.startswith(prefix):
            raise SpecError(f"{prefix}{exc.field}",
                            str(exc).split(": ", 1)[1]) from None
        raise


class _SpecBase:
    """Shared JSON plumbing for the frozen spec dataclasses."""

    def replace(self: _SpecT, **changes: Any) -> _SpecT:
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)  # type: ignore[type-var]

    def to_json(self, *, indent: int | None = 2) -> str:
        """The spec as a JSON document (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_dict(self) -> dict[str, Any]:  # overridden by every subclass
        raise NotImplementedError  # pragma: no cover

    @classmethod
    def from_dict(cls, data: dict) -> "_SpecBase":  # overridden by subclasses
        raise NotImplementedError  # pragma: no cover

    @classmethod
    def from_json(cls, text: str) -> "_SpecBase":
        """Parse a spec from a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(cls.__name__.lower(), f"invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise SpecError(cls.__name__.lower(),
                            f"expected a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    def _compact_dict(self, *, skip: Iterable[str] = ()) -> dict[str, Any]:
        """Fields that differ from the class defaults, JSON-ready.

        Keeping serialized specs *compact* (defaults omitted) makes config
        files diffable and keeps ``from_dict(to_dict(spec)) == spec`` exact:
        omitted fields re-fill with the same defaults they were compared to.
        """
        out = {}
        for f in fields(self):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            default = (f.default_factory() if f.default_factory is not dataclasses.MISSING
                       else f.default)
            if value == default:
                continue
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            else:
                value = _jsonable_component(f.name, value)
            out[f.name] = value
        return out


# ---------------------------------------------------------------------- #
# SolveSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolveSpec(_SpecBase):
    """Declarative configuration of one linear solve.

    One spec type covers all the solver families (``method`` selects among
    the registered solvers: ``"gmres"``, ``"fgmres"``, ``"ft_gmres"``,
    ``"cg"``); fields that do not apply to the chosen method must stay at
    their defaults (validated, with the offending field named).

    Component fields (``preconditioner``, ``detector``) hold registry specs —
    strings like ``"ilu0"`` / ``"bound:two_norm"`` or dicts like
    ``{"name": "ssor", "omega": 1.2}`` — or, for in-code use, already-built
    instances (these pass through by identity but are only JSON-serializable
    when they implement ``to_spec()``).

    ``inner`` nests the inner-solve spec of the nested ``"ft_gmres"`` method
    (default: the paper's fixed 25-iteration unconverged GMRES).
    """

    method: str = "gmres"
    tol: float = 1e-8
    maxiter: int | None = None
    restart: int | None = None
    max_outer: int | None = None
    preconditioner: Any = None
    orthogonalization: str = "mgs"
    lsq_policy: str | None = None
    lsq_tol: float | None = None
    rank_tol: float | None = None
    detector: Any = None
    #: ``None`` means "the solver's default" (``"flag"``); keeping the unset
    #: state distinct lets campaign composition honor an explicit ``"flag"``.
    detector_response: str | None = None
    bound_method: str = "frobenius"
    inner: "SolveSpec | None" = None

    def __post_init__(self) -> None:
        _check_choice("method", self.method, SOLVER_METHODS)
        _check_float("tol", self.tol, minimum=0.0)
        _check_int("maxiter", self.maxiter, minimum=1, allow_none=True)
        _check_int("restart", self.restart, minimum=1, allow_none=True)
        _check_int("max_outer", self.max_outer, minimum=1, allow_none=True)
        _check_component("preconditioner", self.preconditioner)
        _check_choice("orthogonalization", self.orthogonalization, ORTHOGONALIZATIONS)
        _check_choice("lsq_policy", self.lsq_policy, LSQ_POLICIES, allow_none=True)
        _check_float("lsq_tol", self.lsq_tol, minimum=0.0, allow_none=True)
        _check_float("rank_tol", self.rank_tol, minimum=0.0, allow_none=True)
        _check_component("detector", self.detector)
        _check_choice("detector_response", self.detector_response, DETECTOR_RESPONSES,
                      allow_none=True)
        _check_choice("bound_method", self.bound_method, BOUND_METHODS)

        if self.method == "gmres":
            self._forbid("max_outer", "rank_tol", "inner")
        elif self.method == "fgmres":
            self._forbid("restart", "maxiter", "preconditioner", "inner")
        elif self.method == "ft_gmres":
            self._forbid("restart", "maxiter", "preconditioner")
            if self.inner is not None:
                if not isinstance(self.inner, SolveSpec):
                    raise SpecError("inner", f"expected a SolveSpec or dict, "
                                             f"got {type(self.inner).__name__}")
                if self.inner.method != "gmres":
                    raise SpecError("inner.method",
                                    "the FT-GMRES inner solver is GMRES; "
                                    f"got {self.inner.method!r}")
                if self.inner.restart is not None:
                    raise SpecError("inner.restart",
                                    "the FT-GMRES inner solves never restart "
                                    "(one cycle of maxiter steps each)")
        elif self.method == "cg":
            self._forbid("restart", "max_outer", "rank_tol", "inner",
                         "lsq_policy", "lsq_tol", "detector", "orthogonalization",
                         "detector_response", "bound_method")

    def _forbid(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) != _field_default(SolveSpec, name):
                raise SpecError(name, f"does not apply to method {self.method!r}")

    # ------------------------------------------------------------------ #
    @classmethod
    def coerce(cls, spec: Any = None, **overrides: Any) -> "SolveSpec":
        """Build a SolveSpec from a spec, a dict, a method name, or kwargs."""
        if spec is None:
            return cls.from_dict(overrides) if overrides else cls()
        if isinstance(spec, cls):
            if isinstance(overrides.get("inner"), dict):
                overrides["inner"] = cls.from_dict(overrides["inner"], _prefix="inner.")
            return spec.replace(**overrides) if overrides else spec
        if isinstance(spec, str):
            return cls.from_dict({"method": spec, **overrides})
        if isinstance(spec, dict):
            return cls.from_dict({**spec, **overrides})
        raise SpecError("spec", f"expected a SolveSpec, dict, or method name, "
                                f"got {type(spec).__name__}")

    @classmethod
    def from_dict(cls, data: dict, *, _prefix: str = "") -> "SolveSpec":
        """Validated construction from a plain dict (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise SpecError(_prefix or "solve", f"expected a dict, got {type(data).__name__}")
        _reject_unknown_keys(cls, data, _prefix)
        data = dict(data)
        inner = data.get("inner")
        if isinstance(inner, dict):
            data["inner"] = cls.from_dict(inner, _prefix=f"{_prefix}inner.")
        return _construct_with_prefix(cls, data, _prefix)

    def to_dict(self) -> dict[str, Any]:
        """A compact JSON-ready dict (defaults omitted, ``method`` always kept)."""
        out = self._compact_dict()  # a non-default inner serializes recursively
        out["method"] = self.method
        return out

    @property
    def inner_spec(self) -> "SolveSpec":
        """The ``ft_gmres`` inner solve: ``inner``, or the paper's fixed
        25-iteration unconverged GMRES when unset."""
        return self.inner if self.inner is not None else _PAPER_INNER

    # ------------------------------------------------------------------ #
    # solver keyword arguments (the one place the method defaults live)
    # ------------------------------------------------------------------ #
    def gmres_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.core.gmres.gmres`.

        On an ``ft_gmres`` spec these are the inner solves' arguments: the
        ``inner`` spec (default: the paper's fixed 25-iteration GMRES), run
        as one unrestarted cycle of ``maxiter`` steps (``None`` means 25).
        """
        if self.method == "ft_gmres":
            kwargs = self.inner_spec.gmres_kwargs()
            budget = kwargs["maxiter"] if kwargs["maxiter"] is not None else 25
            kwargs["maxiter"] = kwargs["restart"] = budget
            return kwargs
        assert self.method == "gmres", self.method
        return {
            "tol": self.tol,
            "maxiter": self.maxiter,
            "restart": self.restart,
            "preconditioner": self.preconditioner,
            "orthogonalization": self.orthogonalization,
            "lsq_policy": self.lsq_policy if self.lsq_policy is not None else "standard",
            "lsq_tol": self.lsq_tol,
            "detector": self.detector,
            "detector_response": (self.detector_response
                                  if self.detector_response is not None else "flag"),
            "bound_method": self.bound_method,
        }

    def fgmres_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.core.fgmres.fgmres`.

        On an ``ft_gmres`` spec these are the outer iteration's arguments.
        An unset ``max_outer`` means 50 for ``fgmres`` and 100 for
        ``ft_gmres``.
        """
        assert self.method in ("fgmres", "ft_gmres"), self.method
        default_outer = 100 if self.method == "ft_gmres" else 50
        return {
            "tol": self.tol,
            "max_outer": self.max_outer if self.max_outer is not None else default_outer,
            "orthogonalization": self.orthogonalization,
            "lsq_policy": (self.lsq_policy if self.lsq_policy is not None
                           else "rank_revealing"),
            "lsq_tol": self.lsq_tol,
            "rank_tol": self.rank_tol,
            "detector": self.detector,
            "detector_response": (self.detector_response
                                  if self.detector_response is not None else "flag"),
            "bound_method": self.bound_method,
        }

    def cg_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.baselines.cg.cg`."""
        assert self.method == "cg", self.method
        return {"tol": self.tol, "maxiter": self.maxiter,
                "preconditioner": self.preconditioner}


#: The paper's inner solve: fixed 25 GMRES iterations, no convergence test.
_PAPER_INNER = SolveSpec(method="gmres", tol=0.0, maxiter=25)


# ---------------------------------------------------------------------- #
# ExecutionSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecutionSpec(_SpecBase):
    """How a campaign's independent trials are scheduled.

    ``backend`` is ``"serial"``, ``"batched"`` or ``"sharded"``; ``None``
    auto-selects (``"batched"`` when ``batch_size`` is set, ``"sharded"``
    when the worker count exceeds 1, else ``"serial"``).  ``workers`` is the
    sharded backend's worker-process count; left unset it comes from
    ``REPRO_WORKERS`` when the campaign runs.  Knob/backend combinations are
    validated *up front* — ``batch_size`` only applies to the batched
    backend, ``workers``/``max_retries`` only to the sharded one — with
    errors that say which knob to drop or which backend to pick (see
    :func:`repro.exec.executor.resolve_backend`).  A
    :class:`~repro.faults.campaign.FaultCampaign` runs on the backend its
    spec's ``exec`` selects.
    """

    backend: str | None = None
    workers: int | None = None
    batch_size: int | None = None
    #: Per-trial time budget in seconds.  Enforcement depends on the backend:
    #: the ``sharded`` supervisor *hard*-enforces the budget — a worker whose
    #: current trial exceeds it is SIGKILL-ed and the trial recorded as
    #: ``status="error"`` — while ``serial``/``batched`` only apply the soft
    #: after-the-fact check (the solve is never interrupted mid-flight, so a
    #: stuck kernel still wedges those backends).
    trial_timeout: float | None = None
    #: How many times a trial may crash its sharded worker before it is
    #: quarantined as a poison ``"error"`` record (sharded backend only).
    max_retries: int | None = None

    def __post_init__(self) -> None:
        from repro.exec.executor import BACKENDS, BackendKnobError, resolve_backend

        _check_choice("backend", self.backend, BACKENDS, allow_none=True)
        _check_int("workers", self.workers, minimum=0, allow_none=True)
        _check_int("batch_size", self.batch_size, minimum=1, allow_none=True)
        _check_float("trial_timeout", self.trial_timeout, minimum=0.0, allow_none=True)
        if self.trial_timeout is not None and self.trial_timeout <= 0.0:
            raise SpecError("trial_timeout", f"must be > 0, got {self.trial_timeout}")
        _check_int("max_retries", self.max_retries, minimum=1, allow_none=True)
        # Validity never depends on REPRO_WORKERS: an unset worker count
        # validates as 1, the environment's fallback.
        knobs = dict(self.executor_kwargs(),
                     workers=1 if self.workers is None else self.workers)
        try:
            resolve_backend(**knobs)
        except BackendKnobError as exc:
            raise SpecError("backend", str(exc)) from None

    @classmethod
    def from_dict(cls, data: dict, *, _prefix: str = "") -> "ExecutionSpec":
        if not isinstance(data, dict):
            raise SpecError(_prefix or "exec", f"expected a dict, got {type(data).__name__}")
        _reject_unknown_keys(cls, data, _prefix)
        return _construct_with_prefix(cls, data, _prefix)

    def to_dict(self) -> dict[str, Any]:
        return self._compact_dict()

    def executor_kwargs(self) -> dict[str, Any]:
        """The backend knobs, as keyword arguments for
        :func:`repro.exec.executor.resolve_backend`."""
        return {"backend": self.backend, "workers": self.workers,
                "batch_size": self.batch_size, "max_retries": self.max_retries}


# ---------------------------------------------------------------------- #
# CampaignSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignSpec(_SpecBase):
    """Declarative configuration of a whole fault-injection campaign.

    This is a campaign's only configuration: a
    :class:`~repro.faults.campaign.FaultCampaign` is built from one (or
    from its fields as keywords) and runs what it says — its
    ``locations`` (default: every location the failure-free solve
    reaches, at ``stride``) on its ``exec`` backend.

    ``fault_classes`` is ``"paper"`` (the paper's three scaling classes) or
    a dict mapping labels to fault-model registry specs or built
    :class:`~repro.faults.models.FaultModel` instances; a spec's arguments
    are bound to the model's factory when the spec is built, so a misspelled
    option is a :class:`SpecError` naming ``fault_classes.<label>``.

    ``problem`` is a gallery spec (``"poisson:30"``,
    ``{"name": "circuit", "n_nodes": 800}``) or ``None`` when the problem
    object is supplied in code.  ``solver`` optionally configures the nested
    solver (a :class:`SolveSpec` of method ``"ft_gmres"``).  Five campaign
    fields have a twin inside it: ``outer_tol`` (``solver.tol``),
    ``max_outer`` (``solver.max_outer``), ``inner_iterations``
    (``solver.inner.maxiter``), ``detector`` and ``detector_response``
    (``solver.inner.detector``/``solver.inner.detector_response``).  A
    solver value that is set takes effect; setting both twins to different
    values is a :class:`SpecError` naming the solver field (raised when the
    campaign is built).
    """

    problem: Any = None
    inner_iterations: int = 25
    max_outer: int = 100
    outer_tol: float = 1e-8
    fault_classes: Any = "paper"
    mgs_position: str = "first"
    detector: Any = None
    detector_response: str = "zero"
    site: str = "hessenberg"
    #: Rate-based injection: ``None`` keeps the paper's one-fault-per-trial
    #: location sweep; an integer ``k`` switches every trial to a
    #: :class:`~repro.faults.schedule.FaultRateSchedule` firing ``k`` faults
    #: per nested solve, anchored at the trial's sweep location.
    fault_rate: int | None = None
    #: How long the injected "hardware" fault lasts at each scheduled point
    #: (``"transient"``/``"sticky"``/``"persistent"``; per-site windows).
    fault_persistence: str = "transient"
    stride: int = 1
    locations: tuple | None = None
    solver: SolveSpec | None = None
    exec: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        _check_component("problem", self.problem)
        _check_int("inner_iterations", self.inner_iterations, minimum=1)
        _check_int("max_outer", self.max_outer, minimum=1)
        _check_float("outer_tol", self.outer_tol, minimum=0.0)
        if not (self.fault_classes == "paper" or isinstance(self.fault_classes, dict)):
            raise SpecError("fault_classes",
                            f"expected 'paper' or a dict of label -> fault-model "
                            f"spec, got {self.fault_classes!r}")
        if isinstance(self.fault_classes, dict):
            for label, model in self.fault_classes.items():
                _check_component(f"fault_classes.{label}", model,
                                 namespace="fault_model", allow_none=False)
        _check_choice("mgs_position", self.mgs_position, MGS_POSITIONS)
        _check_component("detector", self.detector)
        _check_choice("detector_response", self.detector_response, DETECTOR_RESPONSES)
        if not isinstance(self.site, str) or not self.site:
            raise SpecError("site", f"expected a non-empty string, got {self.site!r}")
        from repro.faults.schedule import KNOWN_SITES

        for part in self.site.split(","):
            name = part.strip()
            if name != "*" and name not in KNOWN_SITES:
                raise SpecError("site",
                                f"unknown injection site {name!r}; expected one of "
                                f"{list(KNOWN_SITES)}, '*', or a comma-separated list")
        _check_int("fault_rate", self.fault_rate, minimum=1, allow_none=True)
        _check_choice("fault_persistence", self.fault_persistence, FAULT_PERSISTENCES)
        _check_int("stride", self.stride, minimum=1)
        if self.locations is not None:
            if not isinstance(self.locations, (list, tuple)):
                raise SpecError("locations",
                                f"expected a list of integers, got "
                                f"{type(self.locations).__name__}")
            locs = tuple(_check_int(f"locations[{i}]", loc, minimum=0)
                         for i, loc in enumerate(self.locations))
            object.__setattr__(self, "locations", locs)
        if self.solver is not None:
            if not isinstance(self.solver, SolveSpec):
                raise SpecError("solver", f"expected a SolveSpec or dict, "
                                          f"got {type(self.solver).__name__}")
            if self.solver.method != "ft_gmres":
                raise SpecError("solver.method",
                                "campaigns run the nested FT-GMRES solver; "
                                f"got {self.solver.method!r}")
        if not isinstance(self.exec, ExecutionSpec):
            raise SpecError("exec", f"expected an ExecutionSpec or dict, "
                                    f"got {type(self.exec).__name__}")

    # ------------------------------------------------------------------ #
    @classmethod
    def coerce(cls, spec: Any = None, **overrides: Any) -> "CampaignSpec":
        """Build a CampaignSpec from a spec, a dict, or keyword fields."""
        if spec is None:
            return cls.from_dict(overrides) if overrides else cls()
        if isinstance(spec, cls):
            if isinstance(overrides.get("solver"), dict):
                overrides["solver"] = SolveSpec.from_dict(overrides["solver"],
                                                          _prefix="solver.")
            if isinstance(overrides.get("exec"), dict):
                overrides["exec"] = ExecutionSpec.from_dict(overrides["exec"],
                                                            _prefix="exec.")
            if isinstance(overrides.get("locations"), list):
                overrides["locations"] = tuple(overrides["locations"])
            return spec.replace(**overrides) if overrides else spec
        if isinstance(spec, dict):
            return cls.from_dict({**spec, **overrides})
        raise SpecError("spec", f"expected a CampaignSpec or dict, "
                                f"got {type(spec).__name__}")

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Validated construction from a plain dict (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise SpecError("campaign", f"expected a dict, got {type(data).__name__}")
        _reject_unknown_keys(cls, data, "")
        data = dict(data)
        solver = data.get("solver")
        if isinstance(solver, dict):
            data["solver"] = SolveSpec.from_dict(solver, _prefix="solver.")
        execution = data.get("exec")
        if isinstance(execution, dict):
            data["exec"] = ExecutionSpec.from_dict(execution, _prefix="exec.")
        if isinstance(data.get("locations"), list):
            data["locations"] = tuple(data["locations"])
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        """A compact JSON-ready dict (defaults omitted)."""
        out = self._compact_dict(skip=("fault_classes",))
        if self.fault_classes != "paper":
            out["fault_classes"] = {
                str(label): _jsonable_component(f"fault_classes[{label!r}]", model)
                for label, model in self.fault_classes.items()
            }
        return out

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CampaignSpec":
        """Read a campaign spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            spec = cls.from_json(handle.read())
            assert isinstance(spec, CampaignSpec)
            return spec

    def dump(self, path: str | os.PathLike) -> None:
        """Write the campaign spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


# ---------------------------------------------------------------------- #
# ServiceSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServiceSpec(_SpecBase):
    """Configuration of the long-running campaign service (``repro serve``).

    The service (:mod:`repro.service`) binds an HTTP/JSONL API to
    ``host:port`` (``port=0`` binds an ephemeral port; the bound address is
    recorded in ``<store>/_jobs/daemon.json``), runs at most ``max_jobs``
    campaigns concurrently, and polls its scheduler every ``poll_interval``
    seconds.  On shutdown (SIGTERM/SIGINT) running campaigns get
    ``drain_grace`` seconds to drain at a trial boundary before they are
    killed; either way their jobs re-queue and a restarted daemon resumes
    exactly the missing trials.

    Like every execution-layer knob, none of these fields participate in
    job or campaign fingerprints.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    max_jobs: int = 2
    poll_interval: float = 0.05
    drain_grace: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host.strip():
            raise SpecError("host", f"expected a non-empty string, got {self.host!r}")
        _check_int("port", self.port, minimum=0)
        if self.port > 65535:
            raise SpecError("port", f"must be <= 65535, got {self.port}")
        _check_int("max_jobs", self.max_jobs, minimum=1)
        _check_float("poll_interval", self.poll_interval, minimum=0.0)
        if self.poll_interval <= 0.0:
            raise SpecError("poll_interval", f"must be > 0, got {self.poll_interval}")
        _check_float("drain_grace", self.drain_grace, minimum=0.0)

    @classmethod
    def coerce(cls, spec: Any = None, **overrides: Any) -> "ServiceSpec":
        """Build a ServiceSpec from a spec, a dict, or keyword fields."""
        if spec is None:
            return cls.from_dict(overrides) if overrides else cls()
        if isinstance(spec, cls):
            return spec.replace(**overrides) if overrides else spec
        if isinstance(spec, dict):
            return cls.from_dict({**spec, **overrides})
        raise SpecError("service", f"expected a ServiceSpec or dict, "
                                   f"got {type(spec).__name__}")

    @classmethod
    def from_dict(cls, data: dict, *, _prefix: str = "") -> "ServiceSpec":
        if not isinstance(data, dict):
            raise SpecError(_prefix or "service",
                            f"expected a dict, got {type(data).__name__}")
        _reject_unknown_keys(cls, data, _prefix)
        return _construct_with_prefix(cls, data, _prefix)

    def to_dict(self) -> dict[str, Any]:
        return self._compact_dict()


# ---------------------------------------------------------------------- #
# provenance hashing
# ---------------------------------------------------------------------- #
def spec_hash(spec: Any) -> str:
    """A short stable hash identifying a spec (or any JSON-able dict).

    The hash is over the *canonical* JSON form (compact ``to_dict`` output,
    keys sorted), so two specs that compare equal hash equal regardless of
    how they were written down.  Used as the provenance stamp on results and
    as the resume-compatibility check of the run store.
    """
    import hashlib

    data = spec.to_dict() if hasattr(spec, "to_dict") else spec
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# dotted-path overrides (the CLI's --set)
# ---------------------------------------------------------------------- #
def parse_override_value(text: str) -> Any:
    """Parse a ``--set`` value: JSON literal when possible, else the raw string.

    ``--set exec.backend=batched`` needs no quoting (``batched`` is not valid
    JSON, so the raw string survives); ``--set solver.inner.maxiter=25``
    parses as an integer; ``--set detector=null`` clears a field.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(spec: _SpecT, assignments: Mapping[str, Any]) -> _SpecT:
    """Apply ``{"dotted.path": value}`` overrides to a (frozen) spec tree.

    Each dotted path names a field, descending through nested specs
    (``exec.backend``, ``solver.inner.maxiter``).  Intermediate specs that
    are ``None`` are created with their defaults so a path like
    ``solver.inner.maxiter`` works on a spec that never mentioned a solver.
    Returns a new spec; raises :class:`SpecError` naming the bad segment.
    """
    for path, value in assignments.items():
        spec = _apply_one(spec, path.split("."), path, value)
    return spec


#: Default constructors for nested spec fields that may be None.
_NESTED_DEFAULTS = {
    ("CampaignSpec", "solver"): lambda: SolveSpec(method="ft_gmres"),
    ("CampaignSpec", "exec"): ExecutionSpec,
    ("SolveSpec", "inner"): lambda: _PAPER_INNER,
}


def _apply_one(spec: Any, segments: list[str], full_path: str,
               value: Any) -> Any:
    name = segments[0]
    if not dataclasses.is_dataclass(spec):
        raise SpecError(full_path, f"cannot descend into {type(spec).__name__}")
    if name not in {f.name for f in fields(spec)}:
        raise SpecError(full_path,
                        f"{type(spec).__name__} has no field {name!r} "
                        f"(valid: {sorted(f.name for f in fields(spec))})")
    if len(segments) == 1:
        if isinstance(value, list):
            value = tuple(value)
        # Name the full dotted path in errors: "exec.backend", not "backend".
        return _construct_with_prefix(spec.replace, {name: value},
                                      full_path[: -len(name)])
    child = getattr(spec, name)
    if child is None:
        factory = _NESTED_DEFAULTS.get((type(spec).__name__, name))
        if factory is None:
            raise SpecError(full_path, f"{name!r} is not a nested spec")
        child = factory()
    new_child = _apply_one(child, segments[1:], full_path, value)
    return spec.replace(**{name: new_child})
