"""The fault injector consulted by the solvers at every injection site.

A :class:`FaultInjector` combines

* a :class:`~repro.faults.models.FaultModel` (what the corruption looks like),
* an :class:`~repro.faults.schedule.InjectionSchedule` (when/where it strikes),
* book-keeping: every corruption is recorded so experiments can verify that
  exactly one SDC event occurred per trial.

An injector corrupts whatever solve consults it.  Confining faults to the
unreliable phase is the caller's job: :func:`~repro.core.ftgmres.ft_gmres`
hands its injector to the inner solves only.

The solver-facing protocol is two methods, ``corrupt_scalar`` and
``corrupt_vector``; both receive the full injection context as keyword
arguments and return the (possibly corrupted) value.  An optional third,
``armed(**step_context)``, lets the solvers skip every consult of a step
that cannot fire; an injector without it is consulted on every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.models import FaultModel
from repro.faults.schedule import STICKY_COUNT, InjectionSchedule, Persistence

__all__ = ["InjectionRecord", "FaultInjector"]


@dataclass(frozen=True)
class InjectionRecord:
    """One executed corruption, kept for post-mortem analysis."""

    site: str
    original: float
    corrupted: float
    outer_iteration: int
    inner_solve_index: int
    inner_iteration: int
    aggregate_inner_iteration: int
    mgs_index: int
    vector_index: int = -1
    context: dict = field(default_factory=dict)


class FaultInjector:
    """Injects faults according to a model and a schedule.

    Parameters
    ----------
    model : FaultModel
        The corruption applied to eligible values.
    schedule : InjectionSchedule
        Eligibility predicate.
    vector_index : int, optional
        For vector sites, the element to corrupt (random when omitted).
    rng : seed or Generator, optional
        Picks the random element of a vector site, and is passed to every
        ``model.corrupt(value, rng)`` unless ``model_rng`` is given.
        Omitted, it is seeded with 0, never from OS entropy.
    model_rng : seed or Generator, optional
        The generator the model's draws come from instead of ``rng``, so
        two models can draw different bits at the same element.
    """

    def __init__(self, model: FaultModel, schedule: InjectionSchedule,
                 vector_index: int | None = None, rng=None, model_rng=None):
        if not isinstance(model, FaultModel):
            raise TypeError(f"model must be a FaultModel, got {type(model).__name__}")
        if not isinstance(schedule, InjectionSchedule):
            raise TypeError(
                f"schedule must be an InjectionSchedule, got {type(schedule).__name__}"
            )
        self.model = model
        self.schedule = schedule
        self.vector_index = vector_index
        self._rng = np.random.default_rng(0 if rng is None else rng)
        self._model_rng = (self._rng if model_rng is None
                           else np.random.default_rng(model_rng))
        self.records: list[InjectionRecord] = []
        # Persistence windows are tracked per site, so a sticky fault at one
        # site (say spmv) never consumes the window of another (precond) —
        # the "per-site persistence" contract of rate schedules.  Single-site
        # schedules see exactly the historical single-window behavior.
        self._sticky_started: set[str] = set()
        self._sticky_remaining: dict[str, int] = {}
        # Rate schedules mark transient faults as "once per scheduled point
        # per site"; this records the (site, aggregate iteration) points that
        # have already fired.
        self._fired_points: set[tuple[str, int]] = set()

    def reset(self) -> None:
        """Forget all prior corruptions so the injector can be reused."""
        self.records.clear()
        self._sticky_started.clear()
        self._sticky_remaining.clear()
        self._fired_points.clear()

    @property
    def injections_performed(self) -> int:
        """Number of corruptions executed so far."""
        return len(self.records)

    # ------------------------------------------------------------------ #
    # firing logic
    # ------------------------------------------------------------------ #
    def armed(self, **context) -> bool:
        """Whether any consult of one solver step with this context may fire.

        ``context`` carries the step coordinates (outer iteration, inner
        iteration, aggregate inner iteration).  False is exact: every
        ``corrupt_*`` call of such a step would return its input and leave
        the injector untouched, because :meth:`_may_fire` rejects it through
        the schedule or the spent cap before any side effect.  The solvers
        skip all consults of an unarmed step.
        """
        cap = self.schedule.max_injections
        if cap is not None and self.injections_performed >= cap:
            return False
        return self.schedule.can_match_step(**context)

    def _may_fire(self, site: str, context: dict) -> bool:
        if not self.schedule.matches(site, **context):
            return False
        persistence = self.schedule.persistence
        cap = self.schedule.max_injections
        if cap is not None and self.injections_performed >= cap:
            # Sticky faults may still be within their window but the explicit
            # cap always wins.
            return False
        if persistence is Persistence.TRANSIENT:
            if getattr(self.schedule, "transient_per_point", False):
                point = (site, int(context.get("aggregate_inner_iteration", -1)))
                return point not in self._fired_points
            return self.injections_performed < 1
        if persistence is Persistence.STICKY:
            if site not in self._sticky_started:
                self._sticky_started.add(site)
                self._sticky_remaining[site] = STICKY_COUNT
            if self._sticky_remaining[site] <= 0:
                return False
            return True
        return True  # PERSISTENT

    def _record(self, site: str, original: float, corrupted: float, context: dict,
                vector_index: int = -1) -> None:
        if (self.schedule.persistence is Persistence.STICKY
                and self._sticky_remaining.get(site, 0) > 0):
            self._sticky_remaining[site] -= 1
        self._fired_points.add((site, int(context.get("aggregate_inner_iteration", -1))))
        self.records.append(
            InjectionRecord(
                site=site,
                original=float(original),
                corrupted=float(corrupted),
                outer_iteration=int(context.get("outer_iteration", -1)),
                inner_solve_index=int(context.get("inner_solve_index", -1)),
                inner_iteration=int(context.get("inner_iteration", -1)),
                aggregate_inner_iteration=int(context.get("aggregate_inner_iteration", -1)),
                mgs_index=int(context.get("mgs_index", -1)),
                vector_index=vector_index,
                context=dict(context),
            )
        )

    # ------------------------------------------------------------------ #
    # solver-facing protocol
    # ------------------------------------------------------------------ #
    def corrupt_scalar(self, site: str, value: float, **context) -> float:
        """Return ``value``, corrupted if this call is scheduled to fault."""
        if not self._may_fire(site, context):
            return value
        corrupted = self.model.corrupt(float(value), self._model_rng)
        self._record(site, value, corrupted, context)
        return corrupted

    def corrupt_vector(self, site: str, vec: np.ndarray, **context) -> np.ndarray:
        """Return ``vec``, with one element corrupted if scheduled to fault."""
        if not self._may_fire(site, context):
            return vec
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size == 0:
            return vec
        index = self.vector_index
        if index is None:
            index = int(self._rng.integers(0, vec.size))
        index = int(np.clip(index, 0, vec.size - 1))
        out = vec.copy()
        original = float(out.reshape(-1)[index])
        out.reshape(-1)[index] = self.model.corrupt(original, self._model_rng)
        self._record(site, original, float(out.reshape(-1)[index]), context, vector_index=index)
        return out
