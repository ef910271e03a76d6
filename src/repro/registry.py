"""Component registries: one place where string/dict specs become objects.

Every configurable axis of the reproduction — solver family, preconditioner,
SDC detector, fault model, gallery problem, event sink — is registered
here under a short name, so a *spec* like ``"ilu0"``,
``{"name": "ssor", "omega": 1.2}`` or ``"bound:two_norm"`` resolves to a
built component uniformly everywhere: in :func:`repro.api.solve`, in the
campaign layer, in the experiment runner's ``--config``/``--set`` interface,
and in the solvers' keyword arguments (``gmres(..., detector="bound")``).

Spec grammar
------------
A spec is one of:

* a **string** ``"name"`` — the registered component with default options;
* a **string** ``"name:arg1:arg2"`` — colon-separated positional arguments,
  mapped onto the factory's declared ``positional`` parameter names (e.g.
  the detector spec ``"bound:two_norm"`` means ``method="two_norm"``);
* a **dict** ``{"name": "ssor", "omega": 1.2}`` — every other key is a
  keyword argument of the factory;
* an already-built **instance** of the namespace's base type — passed
  through untouched (so in-code callers can hand over built components).

Factories receive a :class:`ResolveContext` (carrying the system matrix
``A`` and friends) as their first argument, so components that depend on the
problem — an ILU factorization, the Hessenberg-bound detector built from
``||A||_F`` — can be described by problem-independent, JSON-serializable
specs.

The registry raises :class:`RegistryError` (a ``ValueError``) for unknown
names, always listing what *is* registered in the namespace.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "NAMESPACES",
    "Registry",
    "RegistryError",
    "ResolveContext",
    "registry",
    "parse_spec",
    "register",
    "resolve",
    "names",
    "resolve_detector",
    "resolve_preconditioner",
    "resolve_preconditioner_apply",
    "resolve_fault_model",
    "resolve_fault_classes",
    "resolve_problem",
    "resolve_sink",
]

#: The registered component namespaces.
NAMESPACES = ("solver", "preconditioner", "detector", "fault_model",
              "problem", "sink")


class RegistryError(ValueError):
    """An unresolvable component spec (unknown name, bad shape, ...)."""


@dataclass
class ResolveContext:
    """What a component factory may need from the surrounding problem.

    Attributes
    ----------
    A : matrix or operator, optional
        The system matrix/operator of the solve being configured.
    n : int, optional
        System dimension (when known independently of ``A``).
    """

    A: Any = None
    n: int | None = None

    def require_matrix(self, what: str) -> Any:
        """``A`` or a :class:`RegistryError` naming the component that needs it."""
        if self.A is None:
            raise RegistryError(f"{what} requires the system matrix, but none "
                                f"was supplied in the resolve context")
        return self.A


@dataclass(frozen=True)
class _Entry:
    name: str
    factory: Callable[..., Any]
    positional: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()


class Registry:
    """Namespace → name → factory mapping with a decorator-based API."""

    def __init__(self, namespaces: Iterable[str] = NAMESPACES) -> None:
        self._spaces: dict[str, dict[str, _Entry]] = {ns: {} for ns in namespaces}

    # ------------------------------------------------------------------ #
    def _space(self, namespace: str) -> dict[str, _Entry]:
        try:
            return self._spaces[namespace]
        except KeyError:
            raise RegistryError(
                f"unknown registry namespace {namespace!r}; "
                f"expected one of {sorted(self._spaces)}"
            ) from None

    def register(self, namespace: str, name: str, *,
                 aliases: Iterable[str] = (),
                 positional: Iterable[str] = ()) -> Callable[[Callable[..., Any]],
                                                            Callable[..., Any]]:
        """Decorator registering ``factory(ctx, **params)`` under ``name``.

        Parameters
        ----------
        namespace : str
            One of :data:`NAMESPACES`.
        name : str
            Canonical component name.
        aliases : sequence of str
            Alternative names resolving to the same factory.
        positional : sequence of str
            Parameter names that colon-separated string arguments map onto,
            in order (``"bound:two_norm"`` → ``method="two_norm"`` when
            ``positional=("method",)``).
        """
        space = self._space(namespace)

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            entry = _Entry(name=name, factory=factory,
                           positional=tuple(positional), aliases=tuple(aliases))
            for key in (name, *aliases):
                if key in space:
                    raise RegistryError(
                        f"duplicate registration of {key!r} in namespace {namespace!r}")
                space[key] = entry
            return factory

        return decorator

    def names(self, namespace: str) -> list[str]:
        """Canonical names registered in a namespace, sorted."""
        return sorted({entry.name for entry in self._space(namespace).values()})

    def entry(self, namespace: str, name: str) -> _Entry:
        """The registry entry for ``name`` (aliases allowed)."""
        space = self._space(namespace)
        try:
            return space[name]
        except KeyError:
            raise RegistryError(
                f"unknown {namespace} {name!r}; registered {namespace}s: "
                f"{self.names(namespace)}"
            ) from None

    # ------------------------------------------------------------------ #
    def resolve(self, namespace: str, spec: Any,
                ctx: ResolveContext | None = None) -> Any:
        """Build the component described by ``spec``.

        ``spec`` may be a string (``"name"`` / ``"name:arg"``), a dict with a
        ``"name"`` key, or a ``(name, params)`` pair produced by
        :func:`parse_spec`.  Instance passthrough is the *caller's* job (the
        ``resolve_*`` helpers below do it), because only the caller knows the
        namespace's base type.
        """
        name, params = parse_spec(spec)
        entry = self.entry(namespace, name)
        params = _bind_positional(entry, params)
        try:
            return entry.factory(ctx if ctx is not None else ResolveContext(), **params)
        except RegistryError:
            raise
        except (TypeError, ValueError) as exc:
            # A wrong keyword reads as "unexpected keyword argument 'omega'",
            # a bad value (``poisson:abc``) as the factory's ValueError;
            # re-raise with the component named so config errors are findable.
            raise RegistryError(f"invalid options for {namespace} {name!r}: {exc}") from exc

    def check(self, namespace: str, spec: Any, *, build: bool = False) -> None:
        """Bind a string/dict spec's arguments; with ``build``, also build it.

        The colon arguments and keywords are bound against the registered
        factory's signature, so a misspelled option or a colon argument the
        component does not take fails where the spec is written down, not
        where it is resolved.  Values are checked only by ``build=True``, for
        namespaces whose factories need no context (fault models).  A name
        that is not registered passes: resolving it raises, listing what is.
        """
        name, params = parse_spec(spec)
        entry = self._space(namespace).get(name)
        if entry is None:
            return
        params = _bind_positional(entry, params)
        try:
            inspect.signature(entry.factory).bind(None, **params)
        except TypeError as exc:
            raise RegistryError(f"invalid options for {namespace} {name!r}: {exc}") from None
        if build:
            self.resolve(namespace, spec)


def parse_spec(spec: Any) -> tuple[str, dict[str, Any]]:
    """Normalize a string/dict spec into ``(name, params)``.

    String colon arguments are returned under the reserved key ``"_args"``
    only transiently; they are mapped to declared positional parameter names
    by :meth:`Registry.resolve` — callers normally never see them.
    """
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
        name, params = spec
        return name, dict(params)
    if isinstance(spec, str):
        name, _, rest = spec.partition(":")
        name = name.strip()
        if not name:
            raise RegistryError(f"empty component name in spec {spec!r}")
        if not rest:
            return name, {}
        return name, {"_args": tuple(part.strip() for part in rest.split(":"))}
    if isinstance(spec, dict):
        params = dict(spec)
        try:
            name = params.pop("name")
        except KeyError:
            raise RegistryError(
                f"dict component spec must have a 'name' key, got {sorted(spec)}"
            ) from None
        if not isinstance(name, str):
            raise RegistryError(f"component name must be a string, got {name!r}")
        # Colon arguments work in the dict form too ({"name": "bound:two_norm"}),
        # so the string and dict grammars stay interchangeable.
        colon_name, colon_params = parse_spec(name)
        if "_args" in colon_params:
            params["_args"] = colon_params["_args"]
        return colon_name, params
    raise RegistryError(
        f"component spec must be a string, dict, or (name, params) pair; "
        f"got {type(spec).__name__}"
    )


def _bind_positional(entry: _Entry, params: dict[str, Any]) -> dict[str, Any]:
    """Map transient colon arguments onto the entry's declared parameters."""
    args = params.pop("_args", ())
    if not args:
        return params
    if len(args) > len(entry.positional):
        raise RegistryError(
            f"{entry.name!r} takes at most {len(entry.positional)} "
            f"colon argument(s) ({', '.join(entry.positional) or 'none'}), "
            f"got {len(args)}")
    for key, value in zip(entry.positional, args):
        if key in params:
            raise RegistryError(f"{entry.name!r}: {key!r} given both as a colon "
                                f"argument and as a keyword")
        params[key] = value
    return params


#: The process-wide registry instance.
registry = Registry()


def register(namespace: str, name: str,
             **kwargs: Any) -> Callable[[Callable[..., Any]],
                                        Callable[..., Any]]:
    """Shorthand for :meth:`Registry.register` on the global registry."""
    return registry.register(namespace, name, **kwargs)


def resolve(namespace: str, spec: Any,
            ctx: ResolveContext | None = None) -> Any:
    """Build a component from the global registry (see :meth:`Registry.resolve`)."""
    return registry.resolve(namespace, spec, ctx)


def names(namespace: str) -> list[str]:
    """Canonical names registered in a namespace of the global registry."""
    return registry.names(namespace)


# ====================================================================== #
# high-level resolvers (instance passthrough + namespace dispatch)
# ====================================================================== #
def resolve_detector(spec: Any, *, A: Any = None) -> Any:
    """A Detector instance, ``None``, or a registered detector spec.

    This is the single replacement for the previously duplicated
    ``_resolve_detector`` helpers of ``gmres``/``fgmres``/``FaultCampaign``:

    * ``None`` and :class:`~repro.core.detectors.Detector` instances pass
      through untouched (the legacy fast path — unchanged semantics);
    * strings and dicts go through the ``"detector"`` registry namespace
      (``"bound"``, ``"bound:two_norm"``, ``{"name": "norm_growth",
      "factor": 1e4}``, ...).
    """
    from repro.core.detectors import Detector

    if spec is None or isinstance(spec, Detector):
        return spec
    if not isinstance(spec, (str, dict)):
        raise TypeError(
            f"detector must be a Detector, a registered detector spec "
            f"(one of {names('detector')}), or None; got {type(spec).__name__}")
    return resolve("detector", spec, ResolveContext(A=A))


def resolve_preconditioner(spec: Any, *, A: Any = None,
                           n: int | None = None) -> Any:
    """A Preconditioner (or operator) instance, ``None``, or a registered spec.

    Strings and dicts resolve through the ``"preconditioner"`` namespace and
    require the system matrix in the context (stationary preconditioners are
    factored from ``A``).  Everything else passes through for
    :func:`resolve_preconditioner_apply` to coerce.
    """
    if spec is None or not isinstance(spec, (str, dict)):
        return spec
    return resolve("preconditioner", spec, ResolveContext(A=A, n=n))


def resolve_preconditioner_apply(spec: Any, *, n: int, A: Any = None) -> Any:
    """Resolve a preconditioner spec down to an ``apply(r) -> z`` callable.

    Accepts everything :func:`repro.core.gmres.gmres` historically accepted —
    a Preconditioner, a bare callable, a matrix-like, or ``None`` — plus
    registered string/dict specs.  The legacy branches are checked in the
    same order as the old ``_resolve_preconditioner`` helper, so existing
    callers see identical behavior.
    """
    spec = resolve_preconditioner(spec, A=A, n=n)
    if spec is None:
        return None
    if callable(spec):
        return spec
    if hasattr(spec, "apply"):
        return spec.apply
    from repro.sparse.linear_operator import aslinearoperator

    op = aslinearoperator(spec)
    if op.shape != (n, n):
        raise ValueError(f"preconditioner shape {op.shape} does not match system size {n}")
    return op.matvec


def resolve_fault_model(spec: Any) -> Any:
    """A FaultModel instance or a registered fault-model spec."""
    from repro.faults.models import FaultModel

    if isinstance(spec, FaultModel):
        return spec
    return resolve("fault_model", spec)


def resolve_fault_classes(spec: Any) -> dict[str, Any]:
    """A campaign's fault-class mapping from a spec.

    ``"paper"`` (or ``None``) yields a fresh copy of the paper's three
    scaling classes; a dict maps labels to fault-model specs (or built
    instances, passed through).
    """
    from repro.faults.models import PAPER_FAULT_CLASSES

    if spec is None or spec == "paper":
        return dict(PAPER_FAULT_CLASSES)
    if not isinstance(spec, dict):
        raise RegistryError(
            f"fault_classes must be 'paper' or a dict of label -> fault-model "
            f"spec, got {type(spec).__name__}")
    return {str(label): resolve_fault_model(model) for label, model in spec.items()}


def resolve_problem(spec: Any) -> Any:
    """A TestProblem instance or a registered gallery-problem spec."""
    from repro.gallery.problems import TestProblem

    if isinstance(spec, TestProblem):
        return spec
    return resolve("problem", spec)


def resolve_sink(spec: Any) -> Any:
    """An EventSink instance, ``None``, a callable, or a registered sink spec.

    Sinks are the consumer side of the results event bus
    (:mod:`repro.results.events`).  ``None``, built sinks, and bare
    callables pass through (the campaign layer coerces callables); strings
    and dicts resolve through the ``"sink"`` namespace — which is what makes
    ``--sink jsonl:runs/`` work from the CLI.
    """
    from repro.results.events import EventSink

    if spec is None or isinstance(spec, EventSink):
        return spec
    if isinstance(spec, (str, dict)):
        return resolve("sink", spec)
    if (isinstance(spec, tuple) and len(spec) == 2
            and isinstance(spec[0], str) and isinstance(spec[1], dict)):
        # The ("name", params) pair form parse_spec supports everywhere else.
        return resolve("sink", spec)
    if isinstance(spec, (list, tuple)):
        # Resolve each element, so a list may mix registered specs, built
        # sinks, and callables; the caller's ensure_sink fans them out.
        return [resolve_sink(s) for s in spec]
    if callable(spec):
        return spec
    raise TypeError(
        f"sink must be an EventSink, a callable, a registered sink spec "
        f"(one of {names('sink')}), or None; got {type(spec).__name__}")


# ====================================================================== #
# built-in registrations
# ====================================================================== #
# Factories import lazily so ``import repro.registry`` stays cheap and free
# of ordering constraints during package initialization.

# ---------------------------- detectors ------------------------------- #
@register("detector", "bound", aliases=("hessenberg_bound",),
          positional=("method",))
def _build_bound_detector(ctx, method="frobenius", bound=None):
    """The paper's invariant detector ``|h_ij| <= ||A||``.

    ``bound`` short-circuits the norm computation (used when re-building a
    detector from a serialized instance); otherwise the bound is computed
    from the context matrix with ``method``: ``||A||_F`` (Eq. (3)),
    ``"two_norm"`` for an estimate of ``||A||_2`` or ``"exact"``.
    """
    from repro.core.detectors import HessenbergBoundDetector

    if bound is None:
        from repro.sparse.norms import hessenberg_bound

        bound = hessenberg_bound(ctx.require_matrix("detector 'bound'"), method=method)
    return HessenbergBoundDetector(float(bound))


@register("detector", "null")
def _build_null_detector(ctx):
    from repro.core.detectors import NullDetector

    return NullDetector()


@register("detector", "nonfinite")
def _build_nonfinite_detector(ctx):
    from repro.core.detectors import NonFiniteDetector

    return NonFiniteDetector()


@register("detector", "norm_growth", positional=("factor",))
def _build_norm_growth_detector(ctx, factor=1e3, floor=1e-300):
    from repro.core.detectors import NormGrowthDetector

    return NormGrowthDetector(factor=float(factor), floor=float(floor))


@register("detector", "composite")
def _build_composite_detector(ctx, members=()):
    from repro.core.detectors import CompositeDetector

    if not members:
        raise RegistryError("detector 'composite' requires a non-empty 'members' list")
    return CompositeDetector([resolve_detector(m, A=ctx.A) for m in members])


# -------------------------- preconditioners --------------------------- #
@register("preconditioner", "identity", aliases=("none",))
def _build_identity(ctx, n=None):
    from repro.precond.identity import IdentityPreconditioner

    if n is None:
        n = ctx.n if ctx.n is not None else ctx.require_matrix(
            "preconditioner 'identity'").shape[0]
    return IdentityPreconditioner(int(n))


@register("preconditioner", "jacobi")
def _build_jacobi(ctx):
    from repro.precond.jacobi import JacobiPreconditioner

    return JacobiPreconditioner(ctx.require_matrix("preconditioner 'jacobi'"))


@register("preconditioner", "block_jacobi", positional=("block_size",))
def _build_block_jacobi(ctx, block_size=32):
    from repro.precond.jacobi import BlockJacobiPreconditioner

    return BlockJacobiPreconditioner(
        ctx.require_matrix("preconditioner 'block_jacobi'"),
        block_size=int(block_size))


@register("preconditioner", "gauss_seidel", aliases=("gs",))
def _build_gauss_seidel(ctx):
    from repro.precond.ssor import GaussSeidelPreconditioner

    return GaussSeidelPreconditioner(
        ctx.require_matrix("preconditioner 'gauss_seidel'"))


@register("preconditioner", "ssor", positional=("omega",))
def _build_ssor(ctx, omega=1.0):
    from repro.precond.ssor import SSORPreconditioner

    return SSORPreconditioner(ctx.require_matrix("preconditioner 'ssor'"),
                              omega=float(omega))


@register("preconditioner", "ilu0")
def _build_ilu0(ctx):
    from repro.precond.ilu import ILU0Preconditioner

    return ILU0Preconditioner(ctx.require_matrix("preconditioner 'ilu0'"))


@register("preconditioner", "neumann", positional=("degree",))
def _build_neumann(ctx, degree=2):
    from repro.precond.polynomial import NeumannPolynomialPreconditioner

    return NeumannPolynomialPreconditioner(
        ctx.require_matrix("preconditioner 'neumann'"), degree=int(degree))


# ----------------------------- fault models --------------------------- #
@register("fault_model", "scaling", positional=("factor",))
def _build_scaling_fault(ctx, factor):
    from repro.faults.models import ScalingFault

    return ScalingFault(float(factor))


@register("fault_model", "absolute", positional=("replacement",))
def _build_absolute_fault(ctx, replacement):
    from repro.faults.models import AbsoluteFault

    return AbsoluteFault(float(replacement))


@register("fault_model", "additive", positional=("delta",))
def _build_additive_fault(ctx, delta):
    from repro.faults.models import AdditiveFault

    return AdditiveFault(float(delta))


@register("fault_model", "zero")
def _build_zero_fault(ctx):
    from repro.faults.models import ZeroFault

    return ZeroFault()


@register("fault_model", "nan")
def _build_nan_fault(ctx):
    from repro.faults.models import NaNFault

    return NaNFault()


@register("fault_model", "inf")
def _build_inf_fault(ctx):
    from repro.faults.models import InfFault

    return InfFault()


@register("fault_model", "bitflip", positional=("bit",))
def _build_bitflip_fault(ctx, bit=None, bits=None):
    from repro.faults.models import BitFlipFault

    return BitFlipFault(bit=int(bit) if bit is not None else None, bits=bits)


@register("fault_model", "multibit", positional=("num_bits",))
def _build_multibit_fault(ctx, num_bits=2, bits=None):
    from repro.faults.models import MultiBitFault

    return MultiBitFault(num_bits=int(num_bits), bits=bits)


@register("fault_model", "burst", positional=("start_bit", "width"))
def _build_burst_fault(ctx, start_bit=48, width=4):
    from repro.faults.models import BurstFault

    return BurstFault(start_bit=int(start_bit), width=int(width))


@register("fault_model", "stuck_at", positional=("bit", "value"))
def _build_stuck_at_fault(ctx, bit=62, value=1):
    from repro.faults.models import StuckAtFault

    return StuckAtFault(bit=int(bit), value=int(value))


# ----------------------------- problems ------------------------------- #
@register("problem", "poisson", positional=("grid_n",))
def _build_poisson_problem(ctx, grid_n=100, seed=7):
    from repro.gallery.problems import poisson_problem

    return poisson_problem(grid_n=int(grid_n), seed=int(seed))


@register("problem", "circuit", positional=("n_nodes",))
def _build_circuit_problem(ctx, n_nodes=25187, seed=20140519):
    from repro.gallery.problems import circuit_problem

    return circuit_problem(n_nodes=int(n_nodes), seed=int(seed))


# ----------------------------- solvers -------------------------------- #
# Solver entries are thin adapters used by :func:`repro.api.solve`; they
# forward the spec to the solver functions, so the facade and a direct call
# share one execution path (bit-identical).
@register("solver", "gmres")
def _run_gmres(ctx, *, A, b, x0, spec, injector=None, events=None):
    from repro.core.gmres import gmres

    return gmres(A, b, x0, injector=injector, events=events,
                 **spec.gmres_kwargs())


@register("solver", "fgmres")
def _run_fgmres(ctx, *, A, b, x0, spec, injector=None, events=None):
    if injector is not None:
        raise ValueError("fgmres runs reliably and takes no injector; "
                         "inject into method='ft_gmres' inner solves instead")
    from repro.core.fgmres import fgmres

    return fgmres(A, b, x0=x0, events=events, **spec.fgmres_kwargs())


@register("solver", "ft_gmres", aliases=("ftgmres",))
def _run_ft_gmres(ctx, *, A, b, x0, spec, injector=None, events=None):
    from repro.core.ftgmres import ft_gmres

    return ft_gmres(A, b, x0, spec=spec, injector=injector, events=events)


@register("solver", "cg")
def _run_cg(ctx, *, A, b, x0, spec, injector=None, events=None):
    if injector is not None:
        raise ValueError("the CG baseline has no fault-injection sites; "
                         "use method='gmres' or 'ft_gmres'")
    from repro.baselines.cg import cg

    kwargs = spec.cg_kwargs()
    # cg() predates the registry and does not resolve specs itself.
    if isinstance(kwargs["preconditioner"], (str, dict)):
        kwargs["preconditioner"] = resolve_preconditioner(
            kwargs["preconditioner"], A=A)
    return cg(A, b, x0, events=events, **kwargs)


# ------------------------------- sinks -------------------------------- #
@register("sink", "jsonl", positional=("path",))
def _build_jsonl_sink(ctx, path="runs"):
    """Append events as JSON lines under ``path`` (``--sink jsonl:runs/``),
    each flushed as it is written."""
    from repro.results.events import JsonlEventSink

    return JsonlEventSink(path)


@register("sink", "broadcast")
def _build_broadcast_sink(ctx):
    """Fan events out to live subscribers with bounded queues (the campaign
    service's ``GET /events`` bus; see :mod:`repro.service.streams`)."""
    from repro.service.streams import BroadcastSink

    return BroadcastSink()


@register("sink", "memory", aliases=("collect",))
def _build_memory_sink(ctx):
    from repro.results.events import CollectingSink

    return CollectingSink()


@register("sink", "null")
def _build_null_sink(ctx):
    from repro.results.events import NullSink

    return NullSink()


@register("sink", "console", positional=("every",))
def _build_console_sink(ctx, every=1):
    """Progress lines on stderr; ``console:25`` prints every 25th trial."""
    from repro.results.events import ConsoleSink

    return ConsoleSink(every=int(every))
