"""The config-first public API: ``solve`` and ``run_campaign``.

Two facades cover the library's whole execution surface:

* :func:`solve` — one linear solve, any registered solver family
  (``gmres``, ``fgmres``, ``ft_gmres``, ``cg``), configured by a
  :class:`~repro.specs.SolveSpec` (or an equivalent dict / keyword set);
* :func:`run_campaign` — a whole fault-injection campaign, configured by a
  :class:`~repro.specs.CampaignSpec`, scheduled over any execution backend.

Both consume *specs*: frozen, validated, JSON-round-trippable configuration
objects whose component fields (preconditioner, detector, fault models,
gallery problem, backend) resolve through :mod:`repro.registry`.  Both
return results sharing the common ``to_dict()``/``summary()`` schema
(:class:`~repro.core.status.SolverResult`,
:class:`~repro.core.status.NestedSolverResult`,
:class:`~repro.faults.campaign.TrialRecord`,
:class:`~repro.faults.campaign.CampaignResult`).

The facades are thin by design: they hand the spec to the same functions a
direct call uses (``gmres``/``fgmres`` through
:meth:`~repro.specs.SolveSpec.gmres_kwargs`/:meth:`~repro.specs.SolveSpec.fgmres_kwargs`,
``ft_gmres(spec=...)``, ``FaultCampaign(problem, spec)``), so a spec-driven
solve is bit-identical to the equivalent direct call (asserted in the
equivalence suite).

>>> from repro import api
>>> from repro.gallery.problems import poisson_problem
>>> p = poisson_problem(10)
>>> result = api.solve(p.A, p.b, {"method": "gmres", "tol": 1e-10,
...                               "preconditioner": "jacobi"})
>>> result.summary()["converged"]
True
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.status import NestedSolverResult, SolverResult
from repro.faults.campaign import CampaignResult, FaultCampaign, TrialRecord
from repro.registry import ResolveContext, registry, resolve_problem, resolve_sink
from repro.results.events import ensure_sink
from repro.results.query import TrialQuery
from repro.results.store import (RunManifest, RunStore, RunStoreError,
                                 campaign_fingerprint)
from repro.specs import (CampaignSpec, ExecutionSpec, ServiceSpec, SolveSpec,
                         SpecError)

__all__ = [
    "solve",
    "run_campaign",
    "iter_trials",
    "serve",
    "SolveSpec",
    "ExecutionSpec",
    "CampaignSpec",
    "ServiceSpec",
    "SpecError",
    "SolverResult",
    "NestedSolverResult",
    "TrialRecord",
    "CampaignResult",
    "TrialQuery",
    "RunStore",
    "RunStoreError",
]


def solve(A: Any, b: Any, spec: Any = None, *, x0: Any = None,
          injector: Any = None, events: Any = None,
          **overrides: Any) -> SolverResult | NestedSolverResult:
    """Solve ``A x = b`` as described by a solve spec.

    Parameters
    ----------
    A : matrix or operator
        The system operator.
    b : array_like
        Right-hand side.
    spec : SolveSpec, dict, or str, optional
        The solve configuration.  A string is a solver method name
        (``"gmres"``, ``"ft_gmres"``, ...); a dict is validated through
        :meth:`SolveSpec.from_dict`; ``None`` uses the defaults.
    x0 : array_like, optional
        Initial guess.
    injector : FaultInjector, optional
        Fault injector (``gmres`` and the ``ft_gmres`` inner solves only).
    events : EventSink, callable, or list of them, optional
        Receives every event of the solve the moment it is recorded
        (anything :func:`~repro.results.events.ensure_sink` accepts).  The
        result's ``events`` list holds the same events in the same order.
    **overrides
        Individual :class:`SolveSpec` fields overriding ``spec``, e.g.
        ``solve(A, b, "ft_gmres", tol=1e-10, detector="bound")``.

    Returns
    -------
    SolverResult or NestedSolverResult
        ``ft_gmres`` returns the nested result; everything else the flat
        one.  Both expose the common ``summary()``/``to_dict()`` schema.
    """
    spec = SolveSpec.coerce(spec, **overrides)
    entry = registry.entry("solver", spec.method)
    return entry.factory(ResolveContext(A=A), A=A, b=b, x0=x0, spec=spec,
                         injector=injector, events=events)


def run_campaign(problem: Any = None, spec: Any = None, *,
                 sink: Any = None, store: Any = None,
                 run_id: str | None = None, resume: bool = False,
                 chaos: Any = None, **overrides: Any) -> CampaignResult:
    """Run a fault-injection campaign as described by a campaign spec.

    Parameters
    ----------
    problem : TestProblem, str, or dict, optional
        The system to sweep: a built problem, or a gallery registry spec
        (``"poisson:30"``, ``{"name": "circuit", "n_nodes": 800}``).  May be
        omitted when ``spec.problem`` carries the gallery spec instead —
        a campaign defined purely as a JSON file runs with
        ``run_campaign(spec=CampaignSpec.load(path))``.
    spec : CampaignSpec or dict, optional
        The campaign configuration (defaults: the paper's).
    sink : EventSink, callable, or registered sink spec, optional
        Receives campaign lifecycle events as the campaign runs
        (``"jsonl:runs/"``, ``"console"``, a
        :class:`~repro.results.events.CollectingSink`, ...); progress is
        its ``trial_completed`` events (``data["done"]``/``data["total"]``).
    store : RunStore or path, optional
        Persist the run: every completed trial is appended to
        ``<store>/<run_id>/trials.jsonl`` (flushed per trial), under a
        manifest carrying the full spec, its hash, the problem seed, and the
        repro version.  A crash at trial N loses at most the trial being
        written.
    run_id : str, optional
        Name of the stored run.  Defaults to
        ``"<problem name>-<fingerprint8>"`` — deterministic in (spec,
        problem), so a rerun of the same campaign finds its own store entry.
    resume : bool
        Continue an interrupted stored run: verifies the spec fingerprint,
        recovers a torn JSONL tail, re-runs only the missing trials, and
        returns the merged result — trial-identical to an uninterrupted run
        (the batched backend per its documented 1e-10 residual contract).
        A resumed run that is already complete returns immediately with
        zero new solves; one with trials left solves the failure-free
        baseline once, for the outer state those trials start from.
        ``resume=True`` on a run that does not exist yet simply starts it.
    chaos : ChaosPolicy, optional
        Infrastructure fault injection for the ``"sharded"`` backend — test
        and CI instrumentation that kills/hangs shard workers and tears
        their record messages (see :mod:`repro.faults.chaos`).  Ignored by
        the in-process backends.

    Returns
    -------
    CampaignResult
        Trials in canonical order for every backend (common
        ``to_dict()``/``summary()`` schema), stamped with provenance
        (``repro_version``, ``seed``, ``spec_hash``).
    """
    if problem is not None and not hasattr(problem, "A"):
        problem = resolve_problem(problem)
    campaign = FaultCampaign(problem, spec, **overrides)
    # A sink built here from a registered spec is owned here and closed on
    # the way out; caller-supplied instances stay the caller's to close.
    owns_sink = isinstance(sink, (str, dict, tuple))
    sink = ensure_sink(resolve_sink(sink))
    try:
        if store is None:
            if resume or run_id is not None:
                raise RunStoreError("resume=/run_id= require store=")
            return campaign.run_plan(campaign.plan(), sink=sink, chaos=chaos)
        return _run_stored_campaign(campaign, RunStore.coerce(store),
                                    run_id=run_id, resume=resume,
                                    sink=sink, chaos=chaos)
    finally:
        if owns_sink and sink is not None:
            sink.close()


def iter_trials(problem: Any = None, spec: Any = None,
                **overrides: Any) -> Iterator[TrialRecord]:
    """Stream a campaign's trial records as the backends complete them.

    A lazy generator over the serial backend (each record is yielded before
    the next trial starts); per completed batch on the batched backend, and
    as shard workers send them on the sharded backend (in completion order).
    Each record is provenance-stamped.  Closing the generator early shuts
    the execution backend down cleanly.

    Arguments are as for :func:`run_campaign` (minus the store/observer
    machinery — for persistent streaming, use ``run_campaign(store=...)``;
    for the full result object, use :func:`run_campaign`).

    Yields
    ------
    TrialRecord
    """
    if problem is not None and not hasattr(problem, "A"):
        problem = resolve_problem(problem)
    campaign = FaultCampaign(problem, spec, **overrides)
    for _, record in campaign.iter_records(campaign.plan().specs):
        yield record


def serve(store: Any, spec: Any = None, **overrides: Any) -> int:
    """Run the campaign service daemon over a run store (blocking).

    The imperative facade of :mod:`repro.service`: accepts CampaignSpecs
    over HTTP/JSONL (``POST /jobs``), schedules up to ``max_jobs`` of them
    concurrently through :func:`run_campaign`'s store/resume path, and
    streams live events to subscribers.  ``spec`` is a
    :class:`~repro.specs.ServiceSpec` (or dict / keyword fields — ``host``,
    ``port``, ``max_jobs``, ``drain_grace``).  The scheduler has no timer: a
    submit, a cancel or a worker exit wakes it.

    Blocks until stopped (SIGTERM/SIGINT drains running campaigns and
    re-queues them for the next daemon); returns the process exit status.
    Equivalent to the ``repro serve`` CLI subcommand.
    """
    from repro.service.server import ServiceDaemon

    spec = ServiceSpec.coerce(spec, **overrides)  # before the store is made
    return ServiceDaemon(RunStore.coerce(store), spec).serve()


# ---------------------------------------------------------------------- #
# store-backed execution (checkpoint / resume)
# ---------------------------------------------------------------------- #
def _run_stored_campaign(campaign: FaultCampaign, store: RunStore, *,
                         run_id: str | None, resume: bool, sink: Any,
                         chaos: Any = None) -> CampaignResult:
    """Execute a campaign with trial-granularity checkpointing in a store."""
    # Raises SpecError for a spec holding a component with no hashable form.
    fingerprint = campaign_fingerprint(campaign.spec, campaign.problem.name)
    if run_id is None:
        run_id = f"{campaign.problem.name}-{fingerprint[:8]}"

    completed: list[tuple[int, Any]] = []
    if resume and store.exists(run_id):
        manifest = store.manifest(run_id)
        if manifest.spec_hash != fingerprint:
            raise RunStoreError(
                f"run {run_id!r} was produced by a different campaign "
                f"(stored spec hash {manifest.spec_hash}, this campaign "
                f"{fingerprint}); choose another run_id")
        # Error records (worker crash, timeout, poison) leave their indices
        # *not done*, so the resumed run re-executes exactly the casualties.
        completed = [(index, record) for index, record in store.recover(run_id)
                     if not record.is_error]
        plan = campaign.plan(
            locations=manifest.locations,
            baseline=(manifest.failure_free_outer,
                      manifest.failure_free_residual))
    else:
        if store.exists(run_id):
            raise RunStoreError(
                f"run {run_id!r} already exists in {store.root}; pass "
                f"resume=True to continue it or choose another run_id")
        plan = campaign.plan()
        manifest = RunManifest(
            run_id=run_id,
            spec=campaign.spec.replace(problem=None).to_dict(),
            spec_hash=fingerprint,
            problem_name=campaign.problem.name,
            repro_version=campaign.provenance["repro_version"],
            seed=campaign.provenance["seed"],
            mgs_position=campaign.mgs_position,
            inner_iterations=campaign.inner_iterations,
            detector_enabled=campaign.detector is not None,
            failure_free_outer=plan.failure_free_outer,
            failure_free_residual=plan.failure_free_residual,
            locations=list(plan.locations),
            fault_classes=list(campaign.fault_classes),
            total_trials=len(plan.specs),
            created_at=_utc_now(),
        )

    # The manifest goes down first, so an interrupted run identifies itself
    # on resume; iter_records persists every trial before the sink sees it.
    store.write_manifest(manifest, resume=resume)
    done = {index for index, _ in completed}
    result = campaign.run_plan(
        plan, specs=[spec for spec in plan.specs if spec.index not in done],
        sink=sink, completed=completed, event_data={"run_id": run_id},
        run_dir=store.run_path(run_id), chaos=chaos,
        on_supervisor_state=lambda state: store.update_manifest_extra(
            run_id, supervisor=state))
    store.finalize(run_id)
    # A run begun by an older release may hold shard directories: compact
    # them into the flat layout now that the run is complete (a no-op for
    # every run this release writes).
    store.merge_shards(run_id)
    return result


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
