"""Fault-injection campaigns: the engine behind Figures 3 and 4.

A campaign runs the nested FT-GMRES solver once without faults to establish
the failure-free iteration count, then once per (fault class, injection
location) pair, injecting exactly one SDC event per run into the chosen
Hessenberg coefficient.  The result is the set of series plotted in the
paper: "number of outer iterations to convergence" versus "aggregate inner
solve iteration that faults".

A :class:`~repro.specs.CampaignSpec` is the campaign's only configuration:
:class:`FaultCampaign` is built from one (or from its fields as keywords),
keeps it as ``campaign.spec``, and :meth:`FaultCampaign.run` sweeps its
``locations`` at its ``stride`` on its ``exec`` backend.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.fgmres import OuterState
from repro.core.ftgmres import ft_gmres
from repro.core.status import NestedSolverResult
from repro.exec.executor import DEFAULT_BATCH_SIZE, resolve_backend, resolve_workers
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultModel
from repro.faults.schedule import InjectionSchedule
from repro.gallery.problems import TestProblem
from repro.registry import (
    resolve_detector,
    resolve_fault_classes,
    resolve_preconditioner,
    resolve_problem,
)
from repro.results.events import Event, ensure_sink
from repro.results.query import TrialQuery
from repro.results.store import RunWriter, campaign_fingerprint
from repro.specs import CampaignSpec, SolveSpec, SpecError
from repro.utils.timer import Timer

__all__ = ["TrialRecord", "CampaignResult", "CampaignPlan", "FaultCampaign"]


def _repro_version() -> str:
    from repro import __version__  # lazy: repro/__init__ imports this module

    return __version__


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one faulted nested solve.

    The payload fields (fault class, location, iteration counts, status,
    residual) define equality; the measurement/provenance fields —
    ``elapsed`` wall time, and the ``repro_version``/``seed``/``spec_hash``
    stamps — are ``compare=False`` so trial-identity assertions across
    backends and across resumed runs compare physics, not bookkeeping.
    """

    fault_class: str
    fault_description: str
    aggregate_inner_iteration: int
    mgs_position: str
    outer_iterations: int
    total_inner_iterations: int
    converged: bool
    status: str
    residual_norm: float
    faults_injected: int
    faults_detected: int
    detector_enabled: bool
    #: Wall-clock seconds for this trial (batched lanes: their amortized
    #: share of the batch, see :meth:`FaultCampaign.iter_specs_batched`).
    #: A trial that resumes from the failure-free baseline's outer state
    #: (see :meth:`FaultCampaign.run_spec`) counts only the part it solves.
    elapsed: float = field(default=0.0, compare=False)
    #: Crash isolation: when a trial's solve raised (or blew its soft
    #: timeout), ``status`` is ``"error"`` and this carries the message.
    #: ``compare=False``: an error record never equals a real measurement
    #: anyway (the payload fields are sentinels), and traceback text may
    #: differ across interpreters.
    error: str | None = field(default=None, compare=False)
    #: Provenance stamps (``None`` until stamped by the campaign layer).
    repro_version: str | None = field(default=None, compare=False)
    seed: int | None = field(default=None, compare=False)
    spec_hash: str | None = field(default=None, compare=False)
    #: How many times this trial crashed its worker before this record was
    #: produced (sharded supervisor bookkeeping).  ``compare=False``: a
    #: retried trial's measurement is still the same physics.
    retries: int = field(default=0, compare=False)

    @property
    def is_error(self) -> bool:
        """True if this records a crashed/timed-out trial, not a measurement."""
        return self.status == "error"

    def to_dict(self) -> dict:
        """JSON-ready dict (the common result schema, ``kind="trial"``).

        Provenance stamps are included when set, so a record written to a
        run store proves which repro version, RNG seed, and spec produced it.
        """
        from dataclasses import asdict

        out = {"kind": "trial", **asdict(self)}
        for key in ("error", "repro_version", "seed", "spec_hash"):
            if out[key] is None:
                del out[key]
        if not out["retries"]:
            del out["retries"]  # the overwhelmingly common case stays compact
        return out

    def summary(self) -> dict:
        """The headline fields of this trial (common result schema)."""
        return {
            "kind": "trial",
            "status": self.status,
            "converged": self.converged,
            "fault_class": self.fault_class,
            "aggregate_inner_iteration": self.aggregate_inner_iteration,
            "outer_iterations": self.outer_iterations,
            "residual_norm": self.residual_norm,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        data = {k: v for k, v in data.items() if k != "kind"}
        return cls(**data)


@dataclass
class CampaignResult:
    """All trials of a campaign plus the failure-free reference.

    The aggregate helpers (``series``, ``detection_rate``, ...) are built on
    the :class:`~repro.results.query.TrialQuery` API — the same queries work
    identically on a result loaded back from a
    :class:`~repro.results.store.RunStore`.
    """

    problem_name: str
    mgs_position: str
    inner_iterations: int
    detector_enabled: bool
    failure_free_outer: int
    failure_free_residual: float
    trials: list[TrialRecord] = field(default_factory=list)
    #: Provenance stamps (``None`` for legacy/unstamped results).
    repro_version: str | None = None
    seed: int | None = None
    spec_hash: str | None = None

    # ------------------------------------------------------------------ #
    def query(self) -> TrialQuery:
        """A :class:`TrialQuery` over this campaign's trials."""
        return TrialQuery(self.trials)

    def fault_classes(self) -> list[str]:
        """Fault-class labels present in the campaign, in first-seen order."""
        return self.query().distinct("fault_class")

    def series(self, fault_class: str) -> tuple[np.ndarray, np.ndarray]:
        """The plotted series for one fault class.

        Returns ``(locations, outer_iterations)`` sorted by location — the x
        and y data of one panel of Figure 3 or 4.
        """
        return self.query().filter(fault_class=fault_class).series()

    def max_outer(self, fault_class: str) -> int:
        """Worst-case outer-iteration count over the sweep for one class."""
        _, outers = self.series(fault_class)
        return int(outers.max()) if outers.size else 0

    def max_increase(self, fault_class: str) -> int:
        """Worst-case increase over the failure-free outer count."""
        return max(self.max_outer(fault_class) - self.failure_free_outer, 0)

    def percent_increase(self, fault_class: str) -> float:
        """Worst-case percentage increase in time-to-solution (outer iterations)."""
        if self.failure_free_outer == 0:
            return 0.0
        return 100.0 * self.max_increase(fault_class) / self.failure_free_outer

    def detection_rate(self, fault_class: str) -> float:
        """Fraction of trials of this class in which the detector fired."""
        return (self.query().filter(fault_class=fault_class)
                .rate(lambda t: t.faults_detected > 0))

    def non_converged(self) -> list[TrialRecord]:
        """Trials that failed to converge within the outer-iteration budget."""
        return self.query().filter(converged=False).records()

    def summary(self) -> dict:
        """Aggregate statistics keyed by fault class (the Figures 3/4 footer table).

        Besides the paper's convergence statistics, each class reports its
        reliability totals — ``errors`` (crashed/timed-out/quarantined
        trials), ``quarantined`` (the poison subset), and ``retries``
        (worker crashes survived before the records were produced) — so
        flaky infrastructure is visible instead of silently healed.
        """
        def per_class(q: TrialQuery) -> dict:
            worst = int(q.max("outer_iterations"))
            increase = max(worst - self.failure_free_outer, 0)
            errors = q.errors()
            return {
                "max_outer": worst,
                "max_increase": increase,
                "percent_increase": (100.0 * increase / self.failure_free_outer
                                     if self.failure_free_outer else 0.0),
                "detection_rate": q.rate(lambda t: t.faults_detected > 0),
                "trials": len(q),
                "errors": len(errors),
                "quarantined": errors.count(
                    lambda t: (t.error or "").startswith("poison")),
                "retries": q.retry_count(),
            }

        return {cls: per_class(q)
                for cls, q in self.query().group_by("fault_class").items()}

    def to_dict(self) -> dict:
        """JSON-ready dict (the common result schema, ``kind="campaign"``).

        Round-trips through :meth:`from_dict` — including the provenance
        stamps — so whole campaign artifacts can be saved next to the spec
        that produced them and still prove which spec that was.
        """
        out = {
            "kind": "campaign",
            "problem_name": self.problem_name,
            "mgs_position": self.mgs_position,
            "inner_iterations": self.inner_iterations,
            "detector_enabled": self.detector_enabled,
            "failure_free_outer": self.failure_free_outer,
            "failure_free_residual": self.failure_free_residual,
            "trials": [t.to_dict() for t in self.trials],
        }
        for key in ("repro_version", "seed", "spec_hash"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        """Rebuild a campaign result from :meth:`to_dict` output."""
        data = {k: v for k, v in data.items() if k != "kind"}
        trials = [TrialRecord.from_dict(t) for t in data.pop("trials", [])]
        return cls(trials=trials, **data)


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign's frozen work list (see :meth:`FaultCampaign.plan`).

    Carries the failure-free baseline numbers, the resolved injection
    locations, and the canonical-order trial specs — exactly what the run
    store persists in a manifest, so an interrupted campaign can be resumed
    from the same plan (:meth:`FaultCampaign.run_plan` solves the baseline
    once more only for the outer state the remaining trials start from).
    """

    locations: tuple[int, ...]
    failure_free_outer: int
    failure_free_residual: float
    specs: list


class FaultCampaign:
    """Sweep single-SDC injections over every inner-iteration location.

    Parameters
    ----------
    problem : TestProblem, optional
        The linear system to solve (see :mod:`repro.gallery.problems`).
        Exactly one of this argument and ``spec.problem`` (a gallery
        registry spec like ``"poisson:30"``) must be given.
    spec : CampaignSpec or dict, optional
        The campaign's configuration (default: the paper's).  A dict is
        validated through :meth:`CampaignSpec.from_dict`.
    **fields
        :class:`~repro.specs.CampaignSpec` fields, overriding ``spec``'s:
        ``FaultCampaign(problem, inner_iterations=10, detector="bound")``
        builds the same campaign as
        ``FaultCampaign(problem, CampaignSpec(inner_iterations=10,
        detector="bound"))``.  Invalid values raise
        :class:`~repro.specs.SpecError` naming the field.

    The spec is kept as :attr:`spec`, and :meth:`run` runs what it says: its
    ``locations`` (default: every location the failure-free solve reaches)
    at its ``stride``, on its ``exec`` backend.  The nested solver is
    ``spec.solver`` with the campaign's outer tolerance and budget, inner
    iterations and inner detector put in; it is kept as :attr:`solver`, its
    components resolved against the problem.
    """

    def __init__(self, problem: TestProblem | None = None,
                 spec: CampaignSpec | dict | None = None, **fields):
        spec = CampaignSpec.coerce(spec, **fields)
        if (problem is None) == (spec.problem is None):
            raise ValueError(
                "exactly one of the problem argument and spec.problem must be "
                "given" if problem is not None else
                "no problem to sweep: pass a TestProblem or set spec.problem "
                "to a gallery spec (e.g. 'poisson:30')")
        if problem is None:
            problem = resolve_problem(spec.problem)
        #: The campaign's configuration (what :meth:`run` runs).
        self.spec = spec
        self.problem = problem
        self.fault_classes = resolve_fault_classes(spec.fault_classes)
        self.mgs_position = spec.mgs_position
        self.site = spec.site
        self.fault_rate = spec.fault_rate
        self.fault_persistence = spec.fault_persistence
        #: Soft per-trial wall-clock budget in seconds (``spec.exec``): a
        #: trial that finishes over it is quarantined as a
        #: ``status="error"`` record; the sharded supervisor also enforces
        #: it as a hard timeout.
        self.trial_timeout = spec.exec.trial_timeout

        self.inner_iterations = spec.inner_iterations
        self.max_outer = spec.max_outer
        self.outer_tol = spec.outer_tol
        self.detector_response = spec.detector_response
        self.detector = resolve_detector(spec.detector, A=problem.A)
        solver = spec.solver if spec.solver is not None else SolveSpec(method="ft_gmres")
        inner = solver.inner_spec
        #: The nested solver's spec, its components resolved against the
        #: problem so no trial re-resolves them.
        self.solver = solver.replace(
            tol=spec.outer_tol, max_outer=spec.max_outer,
            detector=resolve_detector(solver.detector, A=problem.A),
            inner=inner.replace(maxiter=spec.inner_iterations, detector=self.detector,
                                detector_response=spec.detector_response,
                                preconditioner=resolve_preconditioner(inner.preconditioner,
                                                                      A=problem.A)))
        try:
            fingerprint = campaign_fingerprint(spec, problem.name)
        except SpecError:
            fingerprint = None  # a built component without to_spec() has no hash
        #: Provenance stamped onto every record this campaign produces.
        self.provenance = {
            "repro_version": _repro_version(),
            "seed": getattr(problem, "seed", None),
            "spec_hash": fingerprint,
        }
        #: The failure-free solve's outer state, which prefix-shared trials
        #: resume from (see :meth:`_resume_state`); ``None`` until solved.
        self._baseline: OuterState | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: CampaignSpec | dict, problem: TestProblem | None = None
                  ) -> "FaultCampaign":
        """The campaign ``FaultCampaign(problem, spec)``."""
        return cls(problem, spec)

    def run_failure_free(self) -> NestedSolverResult:
        """Run the nested solver without any fault injection."""
        return self._solve(None)

    def _solve(self, injector: FaultInjector | None,
               state: OuterState | None = None) -> NestedSolverResult:
        """One nested solve, from freshly reset inner and outer detectors.

        A stateful detector (``NormGrowthDetector``, or a composite holding
        one) would otherwise carry its running reference from the baseline
        and every earlier trial into this one, so a trial's record would
        depend on what ran before it in the same process.  ``state`` is
        passed to :func:`ft_gmres`: empty to keep the solve's outer state,
        or a prefix of the baseline's to resume from it.
        """
        for detector in (self.detector, self.solver.detector):
            if detector is not None:
                detector.reset()
        return ft_gmres(self.problem.A, self.problem.b, self.problem.x0,
                        spec=self.solver, injector=injector, state=state)

    def _solve_baseline(self) -> NestedSolverResult:
        """The failure-free solve, keeping its outer state for the trials.

        Only the iterations it ran are kept (``K + 1`` basis columns for
        ``K`` outer iterations, not the ``max_outer + 1`` it allocated).
        """
        state = OuterState()
        result = self._solve(None, state)
        self._baseline = state.prefix(state.iterations) if state.iterations else state
        return result

    def _resume_state(self, injector: FaultInjector) -> OuterState | None:
        """The outer state a trial starts from, or ``None`` for a full solve.

        Until its fault can first fire, a trial repeats the failure-free
        solve bit for bit, so it starts at the outer iteration whose inner
        solve spans its schedule's
        :meth:`~repro.faults.schedule.InjectionSchedule.first_step` (at the
        latest the baseline's last one) from a copy of the baseline's state
        there.  That needs the state (kept by :meth:`plan` or
        :meth:`run_plan`), stateless detectors (:attr:`_prefix_shared`) and
        a schedule that bounds its first step.
        """
        first = injector.schedule.first_step()
        if (first is None or self._baseline is None or not self._baseline.iterations
                or not self._prefix_shared):
            return None
        outer = min(first // self.inner_iterations, self._baseline.iterations - 1)
        return self._baseline.prefix(outer, self.max_outer)

    @property
    def _prefix_shared(self) -> bool:
        """Whether every detector is stateless (``vectorized``), so a trial
        sees the same values before its fault as the baseline did."""
        return all(d is None or d.vectorized for d in (self.detector, self.solver.detector))

    def _trial_schedule(self, aggregate_inner_iteration: int) -> InjectionSchedule:
        """The injection schedule of one campaign trial.

        Shared by the serial and the batched execution paths so both inject
        under exactly the same schedule.  Without a ``fault_rate`` this is
        the paper's single-SDC schedule anchored at the trial's aggregate
        location; with one, a :class:`FaultRateSchedule` fires at that
        location of consecutive inner solves until the budget is spent.
        """
        from repro.faults.schedule import FaultRateSchedule

        if self.fault_rate is not None:
            return FaultRateSchedule(
                site=self.site,
                mgs_position=self.mgs_position,
                persistence=self.fault_persistence,
                faults_per_solve=self.fault_rate,
                start=int(aggregate_inner_iteration),
                interval=max(self.inner_iterations, 1),
            )
        return InjectionSchedule(
            site=self.site,
            aggregate_inner_iteration=int(aggregate_inner_iteration),
            mgs_position=self.mgs_position,
            persistence=self.fault_persistence,
        )

    def _trial_injector(self, model: FaultModel,
                        aggregate_inner_iteration: int) -> FaultInjector:
        """The trial's injector, with *deterministic* per-trial randomness.

        The injector's generator is the trial's only random source: it picks
        the corrupted element at a vector site (``spmv``/``precond``/
        ``orth``/``basis``) and every random bit a fault model draws
        (``bitflip`` without ``bit``, ``multibit`` without ``bits``).  Seeding
        it from the problem seed and the trial's sweep location makes such
        campaigns trial-identical across reruns and across the serial,
        batched and sharded backends — which is what the store's resume
        contract requires.
        """
        seed = self.provenance.get("seed")
        entropy = (0 if seed is None else int(seed) & 0xFFFFFFFF,
                   int(aggregate_inner_iteration))
        return FaultInjector(model, self._trial_schedule(aggregate_inner_iteration),
                             rng=np.random.default_rng(entropy))

    def run_single(self, fault_class: str, model: FaultModel,
                   aggregate_inner_iteration: int) -> TrialRecord:
        """Run one faulted nested solve from a fresh start as a TrialRecord.

        The reference the campaign's prefix-shared trials (:meth:`run_spec`)
        must equal.
        """
        return self._trial(fault_class, model, aggregate_inner_iteration, resume=False)

    def _trial(self, fault_class: str, model: FaultModel, aggregate_inner_iteration: int,
               *, resume: bool) -> TrialRecord:
        """One trial, resumed from the baseline's outer state if ``resume``
        and the trial allows it (see :meth:`_resume_state`).

        The trial's wall time is measured here — inside the shard worker, on
        the sharded backend — so ``TrialRecord.elapsed`` means the same thing
        on every backend.
        """
        injector = self._trial_injector(model, aggregate_inner_iteration)
        state = self._resume_state(injector) if resume else None
        timer = Timer()
        with timer:
            result = self._solve(injector, state)
        return self._record(fault_class, aggregate_inner_iteration, injector, result,
                            timer.elapsed)

    def _record(self, fault_class: str, aggregate_inner_iteration: int,
                injector: FaultInjector, result: NestedSolverResult,
                elapsed: float) -> TrialRecord:
        """The record of one solved trial, on every backend.

        A trial that took longer than the soft ``trial_timeout`` is
        quarantined as a ``status="error"`` record instead of reported as a
        measurement; a batched lane is held to its amortized ``elapsed``.
        """
        record = TrialRecord(
            fault_class=fault_class,
            fault_description=injector.model.describe(),
            aggregate_inner_iteration=int(aggregate_inner_iteration),
            mgs_position=self.mgs_position,
            outer_iterations=result.outer_iterations,
            total_inner_iterations=result.total_inner_iterations,
            converged=result.converged,
            status=result.status.value,
            residual_norm=result.residual_norm,
            faults_injected=injector.injections_performed,
            faults_detected=result.faults_detected,
            detector_enabled=self.detector is not None,
            elapsed=elapsed,
        )
        if self.trial_timeout is None or elapsed <= self.trial_timeout:
            return record
        return dataclasses.replace(
            record, outer_iterations=-1, total_inner_iterations=-1, converged=False,
            status="error", residual_norm=float("nan"),
            error=f"soft timeout: trial took {elapsed:.3f}s (budget {self.trial_timeout:.3f}s)")

    def run_spec(self, spec) -> TrialRecord:
        """Run the trial described by a :class:`~repro.exec.spec.TrialSpec`.

        The trial starts from the failure-free baseline's outer state where
        it shares that prefix (see :meth:`_resume_state`), and gives the
        record :meth:`run_single` would.
        """
        return self._trial(spec.fault_class, self._model_for(spec.fault_class),
                           spec.aggregate_inner_iteration, resume=True)

    def error_record(self, spec, message: str, *, elapsed: float = 0.0,
                     retries: int = 0) -> TrialRecord:
        """A ``status="error"`` record for a crashed or quarantined trial.

        The payload fields are sentinels (``-1`` iterations, NaN residual):
        an error record marks a casualty to be re-run, not a measurement —
        the run store's resume logic treats its index as missing.  The
        sharded supervisor builds its hard-timeout and poison records here
        too, after the worker that ran the trial has died.
        """
        model = self.fault_classes.get(spec.fault_class)
        return TrialRecord(
            fault_class=spec.fault_class,
            fault_description=(model.describe() if model is not None
                               else spec.fault_class),
            aggregate_inner_iteration=int(spec.aggregate_inner_iteration),
            mgs_position=self.mgs_position,
            outer_iterations=-1,
            total_inner_iterations=-1,
            converged=False,
            status="error",
            residual_norm=float("nan"),
            faults_injected=0,
            faults_detected=0,
            detector_enabled=self.detector is not None,
            elapsed=float(elapsed),
            error=str(message),
            retries=int(retries),
        )

    def run_spec_safe(self, spec) -> TrialRecord:
        """Run one trial with crash isolation.

        A trial whose solve raises — a ``raise``-response detector, a fault
        model that explodes, a kernel bug — becomes a ``status="error"``
        record instead of killing the whole campaign (and, on the sharded
        backend, the shard worker running it).  Every backend's records come
        from here or :meth:`_record` (which applies the soft timeout), so
        error semantics are backend-independent.
        """
        timer = Timer()
        try:
            with timer:
                return self.run_spec(spec)
        except Exception as exc:  # noqa: BLE001 - the whole point is isolation
            return self.error_record(
                spec, f"{type(exc).__name__}: {exc}", elapsed=timer.elapsed)

    def _model_for(self, fault_class: str) -> FaultModel:
        try:
            return self.fault_classes[fault_class]
        except KeyError:
            raise KeyError(
                f"unknown fault class {fault_class!r}; "
                f"campaign has {sorted(self.fault_classes)}"
            ) from None

    # ------------------------------------------------------------------ #
    # trial-batched lockstep execution
    # ------------------------------------------------------------------ #
    def batched_unsupported_reason(self) -> str | None:
        """Why this campaign cannot run on the lockstep batched engine
        (:func:`repro.core.batched.batched_support_reason`); ``None`` means
        it can."""
        from repro.core.batched import batched_support_reason

        return batched_support_reason(self.solver, self.site)

    def iter_specs_batched(self, specs):
        """Stream ``(index, record)`` pairs from the lockstep batched engine.

        Trials advance ``spec.exec.batch_size`` at a time (default
        :data:`~repro.exec.executor.DEFAULT_BATCH_SIZE`; see
        :mod:`repro.core.batched`): each lane runs the serial outer loop from
        the outer state :meth:`run_spec` would start it from
        (:meth:`_resume_state`), and each round solves the inner systems of
        every running lane in one lockstep batch.  Each batch's records are
        yielded as the batch completes, which is what lets the run store
        checkpoint a batched campaign at trial granularity.  Trials that
        leave the lockstep common path are transparently rerun through the
        serial reference implementation, so the output is equivalent to
        :meth:`run_spec` on every spec: identical iteration counts, statuses
        and event streams, residual norms to ~1e-10.

        Per-trial wall time: lanes that stay in lockstep report their
        amortized share of the batch (batch wall time divided by its lane
        count — lockstep lanes have no individual wall clock by
        construction), and the soft ``trial_timeout`` applies to that share;
        peeled trials report their true serial time.
        """
        from repro.core.batched import batched_ft_gmres

        reason = self.batched_unsupported_reason()
        if reason is not None:
            raise ValueError(
                f"campaign configuration not supported by the batched backend "
                f"({reason}); use backend='serial' (or 'sharded')")
        specs = list(specs)
        batch_size = self.spec.exec.batch_size or DEFAULT_BATCH_SIZE
        # Strided batch composition: batch i takes specs[i::num_batches], so
        # every batch spans the whole injection-location range.  A lane's
        # residual bits depend on its batch-mates (the lockstep reductions
        # block by batch shape), so this composition is part of the output;
        # results are reassembled by spec.index.
        num_batches = -(-len(specs) // batch_size) if specs else 0
        for start in range(num_batches):
            chunk = specs[start::num_batches]
            injectors = [self._trial_injector(self._model_for(spec.fault_class),
                                              spec.aggregate_inner_iteration)
                         for spec in chunk]
            states = [self._resume_state(injector) for injector in injectors]
            timer = Timer()
            try:
                with timer:
                    results = batched_ft_gmres(self.problem.A, self.problem.b,
                                               self.problem.x0, self.solver, injectors,
                                               states)
            except Exception:
                # A crash in the shared block kernels cannot be attributed to
                # one lane; peel the whole batch to the serial path, where
                # run_spec_safe isolates the actual casualty per trial.
                results = [None] * len(chunk)
            lane_elapsed = timer.elapsed / len(chunk)
            for spec, injector, result in zip(chunk, injectors, results):
                if result is None:
                    # Off the lockstep common path: the serial reference
                    # engine is the fallback, so rare paths never rely on
                    # the batched reproduction of them.
                    record = self.run_spec_safe(spec)
                else:
                    record = self._record(spec.fault_class, spec.aggregate_inner_iteration,
                                          injector, result, lane_elapsed)
                yield spec.index, record

    # ------------------------------------------------------------------ #
    # execution-engine integration
    # ------------------------------------------------------------------ #
    def trial_specs(self, locations) -> list:
        """The campaign's work list in canonical (serial) order."""
        from repro.exec.spec import TrialSpec

        locations = list(locations)  # every fault class sweeps all locations
        return [
            TrialSpec(index=index, fault_class=fault_class,
                      aggregate_inner_iteration=int(loc))
            for index, (fault_class, loc) in enumerate(
                (cls, loc) for cls in self.fault_classes for loc in locations)
        ]

    # ------------------------------------------------------------------ #
    # planning and streaming execution
    # ------------------------------------------------------------------ #
    def plan(self, locations=None, *,
             baseline: tuple[int, float] | None = None) -> "CampaignPlan":
        """Freeze the campaign's work list: baseline + locations + specs.

        ``locations`` defaults (``None``) to the spec's ``locations``, else
        every ``spec.stride``-th location the failure-free solve reaches
        (``failure_free_outer * inner_iterations``, exactly as in the paper
        at ``stride=1``).
        ``baseline`` short-circuits the failure-free reference solve with
        known ``(failure_free_outer, failure_free_residual)`` numbers — the
        run store uses this on resume, so resuming a complete run solves
        nothing (:meth:`run_plan` solves the baseline once if trials are
        left that can resume from its outer state).
        """
        if locations is None:
            locations = self.spec.locations
        if baseline is None:
            reference = self._solve_baseline()
            baseline = (reference.outer_iterations, reference.residual_norm)
        failure_free_outer, failure_free_residual = baseline
        if locations is None:
            total_locations = max(failure_free_outer, 1) * self.inner_iterations
            locations = range(0, total_locations, self.spec.stride)
        locations = tuple(int(loc) for loc in locations)
        return CampaignPlan(
            locations=locations,
            failure_free_outer=int(failure_free_outer),
            failure_free_residual=float(failure_free_residual),
            specs=self.trial_specs(locations),
        )

    def result_scaffold(self, plan: "CampaignPlan") -> CampaignResult:
        """An empty, provenance-stamped CampaignResult for a plan."""
        return CampaignResult(
            problem_name=self.problem.name,
            mgs_position=self.mgs_position,
            inner_iterations=self.inner_iterations,
            detector_enabled=self.detector is not None,
            failure_free_outer=plan.failure_free_outer,
            failure_free_residual=plan.failure_free_residual,
            **self.provenance,
        )

    def stamp(self, record: TrialRecord) -> TrialRecord:
        """The record with this campaign's provenance fields set."""
        return dataclasses.replace(record, **self.provenance)

    def run_plan(self, plan: "CampaignPlan", *, specs=None, sink=None,
                 completed=(), event_data: dict | None = None,
                 run_dir: str | None = None, chaos=None,
                 on_supervisor_state=None) -> CampaignResult:
        """Execute (the remainder of) a plan and assemble the result.

        The one implementation of the campaign lifecycle — event emission,
        progress accounting, canonical reassembly — shared by :meth:`run`
        and the run store's checkpoint/resume path in :mod:`repro.api`.

        Parameters
        ----------
        specs : sequence of TrialSpec, optional
            The trials to actually execute (default: all of ``plan.specs``;
            a resume passes only the missing ones).
        sink : EventSink, callable, or list of them, optional
            Receives the lifecycle events; progress is the
            ``trial_completed`` events, whose ``data["done"]`` counts
            ``completed`` trials too and reaches ``data["total"]``
            (``len(plan.specs)``) on the last one.
        completed : sequence of (index, record)
            Already-finished trials (from a resumed store) counted as done.
        event_data : dict, optional
            Extra payload merged into the ``campaign_started`` and
            ``campaign_completed`` events (e.g. the store ``run_id``).
        run_dir, chaos, on_supervisor_state
            Passed to :meth:`iter_records`, which persists every record in
            the run directory ``run_dir`` before the sink sees it.
        """
        sink = ensure_sink(sink)
        result = self.result_scaffold(plan)
        total = len(plan.specs)
        pairs: list[tuple[int, TrialRecord]] = list(completed)
        extra = dict(event_data or {})
        if sink is not None:
            sink.emit(Event("campaign_started", where="campaign",
                            data={"problem": self.problem.name,
                                  "total_trials": total,
                                  "resumed_trials": len(pairs), **extra}))
            sink.emit(Event(
                "baseline_completed", where="campaign",
                data={"failure_free_outer": plan.failure_free_outer,
                      "failure_free_residual": plan.failure_free_residual}))
        todo = list(plan.specs) if specs is None else list(specs)
        if todo and self._baseline is None and self._prefix_shared:
            # A plan from stored baseline numbers solved nothing: solve the
            # baseline once, here, so the trials (even sharded workers, which
            # inherit it through fork) resume from its outer state.
            self._solve_baseline()
        for index, record in self.iter_records(todo, run_dir=run_dir, chaos=chaos,
                                               on_supervisor_state=on_supervisor_state):
            pairs.append((index, record))
            if sink is not None:
                sink.emit(Event("trial_completed", where="campaign", trial_index=index,
                                data={"done": len(pairs), "total": total,
                                      "record": record.to_dict()}))
        pairs.sort(key=lambda pair: pair[0])
        result.trials.extend(record for _, record in pairs)
        if sink is not None:
            sink.emit(Event("campaign_completed", where="campaign",
                            data={"total_trials": total, **extra}))
        return result

    @property
    def backend(self) -> str:
        """The backend :meth:`iter_records` runs on, resolved from
        ``spec.exec`` (see :func:`~repro.exec.executor.resolve_backend`)."""
        return resolve_backend(**self.spec.exec.executor_kwargs())

    def iter_records(self, specs, *, run_dir: str | None = None, chaos=None,
                     on_supervisor_state=None):
        """Stream provenance-stamped ``(index, record)`` pairs as trials finish.

        The one execution path under :meth:`run`,
        :func:`repro.api.iter_trials`, and the run store's incremental
        checkpointing.  It runs on :attr:`backend`: lazily one by one on
        ``"serial"``, per completed batch on ``"batched"``
        (:meth:`iter_specs_batched`), and as shard workers send their records
        on ``"sharded"`` (:class:`~repro.exec.supervisor.ShardedSupervisor`,
        which also takes the ``chaos`` policy of :mod:`repro.faults.chaos`
        and ``on_supervisor_state``, called whenever its retry/quarantine
        bookkeeping changes).  Records arrive in completion order;
        ``spec.index`` values must be unique, and the caller reassembles
        canonical order by them.  Closing the generator early stops the
        shard workers.

        Persist first, observe second: with ``run_dir`` (a run-store run
        directory) every record is durable before it is yielded, so an
        interrupt raised by whoever consumes the stream never loses a
        completed trial.  On every backend this process alone appends the
        records, to ``<run_dir>/trials.jsonl`` through one
        :class:`~repro.results.store.RunWriter`.
        """
        specs = list(specs)
        if len({spec.index for spec in specs}) != len(specs):
            raise ValueError("trial spec indices must be unique")
        if not specs:
            return
        backend = self.backend
        if backend == "sharded":
            from repro.exec.supervisor import ShardedSupervisor

            records = ShardedSupervisor(
                self, shards=resolve_workers(self.spec.exec.workers),
                max_retries=self.spec.exec.max_retries, run_dir=run_dir,
                chaos=chaos, on_state=on_supervisor_state).iter_records(specs)
        elif backend == "batched":
            records = self.iter_specs_batched(specs)
        else:
            records = ((spec.index, self.run_spec_safe(spec)) for spec in specs)
        writer = None if run_dir is None else RunWriter(run_dir)
        try:
            for index, record in records:
                record = self.stamp(record)
                if writer is not None:
                    writer.append(index, record)
                yield index, record
        finally:
            records.close()
            if writer is not None:
                writer.close()

    def run(self, *, sink=None) -> CampaignResult:
        """Run the campaign its spec describes: ``run_plan(plan(), sink=sink)``.

        Parameters
        ----------
        sink : EventSink, callable, or registered sink spec, optional
            Receives campaign lifecycle events (``campaign_started``,
            ``baseline_completed``, ``trial_completed`` with the record
            payload, ``campaign_completed``) as the campaign runs.  It is
            the only progress report: each ``trial_completed`` event carries
            ``data["done"]`` and ``data["total"]``.

        Returns
        -------
        CampaignResult
            Trials appear in the canonical (fault class, location) order
            regardless of backend.  Every trial (and the baseline) starts
            from reset detectors, so a stateful detector such as
            :class:`NormGrowthDetector` gives each trial the record a fresh
            campaign would, on every backend.  Fault models keep no state:
            a random bit comes from the trial's generator (see
            :meth:`_trial_injector`), so it is the same on every backend.
        """
        from repro.registry import resolve_sink

        return self.run_plan(self.plan(), sink=resolve_sink(sink))
