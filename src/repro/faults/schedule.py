"""Injection schedules: when and where a fault strikes.

A schedule is a predicate over the *injection context* — the keyword
arguments the solvers pass at every injection site (site name, outer
iteration, inner-solve index, local and aggregate inner iteration, position
within the Modified Gram–Schmidt loop).  The paper's experiments use the
narrowest possible schedule: one specific Hessenberg coefficient (first or
last MGS position) of one specific aggregate inner iteration, corrupted
exactly once (a transient fault).  Sticky and persistent variants are
provided for the extension studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Persistence", "InjectionSchedule", "FaultRateSchedule", "KNOWN_SITES"]

#: Every injection site the solvers consult (see repro.core.arnoldi's site
#: table).  Schedules validate their ``site`` field against this set so a
#: typo'd site fails loudly instead of silently never firing.
KNOWN_SITES = ("hessenberg", "subdiag", "spmv", "precond", "givens", "orth", "basis")


class Persistence(Enum):
    """How long the underlying "hardware" stays faulty (Section I-B)."""

    TRANSIENT = "transient"    # fires once
    STICKY = "sticky"          # fires for a bounded number of matching calls
    PERSISTENT = "persistent"  # fires on every matching call

    @classmethod
    def coerce(cls, value) -> "Persistence":
        """Accept an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise ValueError(
                f"unknown persistence {value!r}; expected one of {[p.value for p in cls]}"
            ) from exc


@dataclass
class InjectionSchedule:
    """Describes when a fault model should be applied.

    Attributes
    ----------
    site : str
        Injection site name (``"hessenberg"``, ``"subdiag"``, ``"spmv"``,
        ``"basis"``, ``"precond"``, ``"givens"``, ``"orth"``); ``"*"``
        matches any site, and a comma-separated list (``"spmv,precond"``)
        matches any of the named sites.
    aggregate_inner_iteration : int or None
        Fire only when the aggregate inner-iteration counter (the x-axis of
        Figures 3 and 4: ``inner_solve_index * inner_iterations + local
        iteration``) equals this value.  ``None`` means "any".
    outer_iteration : int or None
        Fire only during this outer iteration (``None`` = any).
    inner_iteration : int or None
        Fire only at this *local* inner-iteration index (``None`` = any).
    mgs_position : {"first", "last", int, None}
        Position within the orthogonalization loop: ``"first"`` (the paper's
        Figure 3a/4a), ``"last"`` (Figure 3b/4b), an explicit 0-based index,
        or ``None`` for any position.
    persistence : Persistence or str
        Transient (default, the paper's model), sticky, or persistent.
    sticky_count : int
        For sticky faults, how many matching invocations are corrupted
        (counted from the first firing).
    max_injections : int or None
        Hard cap on the number of corruptions regardless of persistence
        (transient implies 1).  ``None`` means unlimited.
    """

    site: str = "hessenberg"
    aggregate_inner_iteration: int | None = None
    outer_iteration: int | None = None
    inner_iteration: int | None = None
    mgs_position: str | int | None = "first"
    persistence: Persistence | str = Persistence.TRANSIENT
    sticky_count: int = 3
    max_injections: int | None = None

    #: Rate schedules override this: a transient fault then means "once per
    #: scheduled point per site" rather than "once per solve".
    transient_per_point = False

    def __post_init__(self) -> None:
        self.persistence = Persistence.coerce(self.persistence)
        self._sites = tuple(part.strip() for part in str(self.site).split(",")
                            if part.strip())
        if not self._sites:
            raise ValueError(f"site must name at least one site, got {self.site!r}")
        for name in self._sites:
            if name != "*" and name not in KNOWN_SITES:
                raise ValueError(
                    f"unknown injection site {name!r}; expected one of "
                    f"{list(KNOWN_SITES)} or '*'"
                )
        if isinstance(self.mgs_position, str) and self.mgs_position not in ("first", "last"):
            raise ValueError(
                f"mgs_position must be 'first', 'last', an integer, or None, "
                f"got {self.mgs_position!r}"
            )
        if self.sticky_count <= 0:
            raise ValueError(f"sticky_count must be positive, got {self.sticky_count}")
        if self.persistence is Persistence.TRANSIENT:
            self.max_injections = 1 if self.max_injections is None else min(1, self.max_injections)

    # ------------------------------------------------------------------ #
    def matches_site(self, site: str) -> bool:
        """True if the schedule targets the given site."""
        return "*" in self._sites or site in self._sites

    def can_match_step(self, *, outer_iteration: int = -1, inner_iteration: int = -1,
                       aggregate_inner_iteration: int = -1, **_ignored) -> bool:
        """True if some call of a solver step with this context may match.

        A conservative superset of :meth:`matches` over every site and MGS
        position of one step: it checks only the coordinates that stay fixed
        for a whole step, so ``matches(site, **ctx)`` implies
        ``can_match_step(**ctx)``.  The solvers skip every injector consult
        of a step for which this is False.  A subclass that narrows
        :meth:`matches` by other step coordinates narrows this method too.
        """
        if (self.aggregate_inner_iteration is not None
                and aggregate_inner_iteration != self.aggregate_inner_iteration):
            return False
        if self.outer_iteration is not None and outer_iteration != self.outer_iteration:
            return False
        if self.inner_iteration is not None and inner_iteration != self.inner_iteration:
            return False
        return True

    def first_step(self) -> int | None:
        """The first aggregate inner iteration :meth:`can_match_step` allows.

        A lower bound: no step before it can fire.  ``None`` when the
        schedule does not bound it.  A campaign starts a trial from the
        failure-free baseline's outer state at the inner solve that spans
        this step (:meth:`repro.faults.campaign.FaultCampaign.run_spec`).
        """
        return self.aggregate_inner_iteration

    def matches(self, site: str, *, mgs_index: int = -1, mgs_length: int = 0,
                **context) -> bool:
        """True if a call with this context is eligible for corruption.

        ``context`` holds the step coordinates checked by
        :meth:`can_match_step` (``outer_iteration``, ``inner_iteration``,
        ``aggregate_inner_iteration``, ...); unknown keys are ignored, which
        keeps the schedule forward compatible with additional context the
        solvers may provide.
        """
        if not self.matches_site(site):
            return False
        if not self.can_match_step(**context):
            return False
        if self.mgs_position is not None and mgs_index >= 0:
            if self.mgs_position == "first" and mgs_index != 0:
                return False
            if self.mgs_position == "last" and mgs_index != max(mgs_length - 1, 0):
                return False
            if isinstance(self.mgs_position, int) and mgs_index != self.mgs_position:
                return False
        return True

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        parts = [f"site={self.site}"]
        if self.aggregate_inner_iteration is not None:
            parts.append(f"aggregate_iter={self.aggregate_inner_iteration}")
        if self.outer_iteration is not None:
            parts.append(f"outer={self.outer_iteration}")
        if self.inner_iteration is not None:
            parts.append(f"inner={self.inner_iteration}")
        if self.mgs_position is not None:
            parts.append(f"mgs={self.mgs_position}")
        parts.append(f"persistence={self.persistence.value}")
        return ", ".join(parts)


@dataclass
class FaultRateSchedule(InjectionSchedule):
    """A rate-based schedule: up to N faults per solve at a fixed cadence.

    The paper's experiments inject exactly one transient fault per nested
    solve; a rate schedule generalizes that to ``faults_per_solve`` faults,
    fired at aggregate inner iterations ``start``, ``start + interval``,
    ``start + 2*interval``, ... until the per-solve budget is spent.  The
    cadence is deterministic, so rate campaigns stay trial-identical across
    execution backends.

    Persistence applies *per scheduled point, per site*: a transient rate
    fault corrupts each scheduled (site, iteration) point once; a sticky
    one corrupts ``sticky_count`` eligible calls from each point's first
    firing, tracked separately for every site (per-site persistence — a
    stuck spmv lane does not consume a precond fault's window).

    Attributes
    ----------
    faults_per_solve : int
        Total injection budget for one nested solve (the "rate").
    start : int
        Aggregate inner iteration of the first fault.
    interval : int
        Gap, in aggregate inner iterations, between consecutive faults.
    """

    faults_per_solve: int = 1
    start: int = 0
    interval: int = 1

    transient_per_point = True

    def __post_init__(self) -> None:
        # Remember the caller's explicit cap before the transient clamp in
        # the parent initializer can collapse it to 1.
        explicit_cap = self.max_injections
        super().__post_init__()
        if self.faults_per_solve < 1:
            raise ValueError(
                f"faults_per_solve must be positive, got {self.faults_per_solve}")
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.interval < 1:
            raise ValueError(f"interval must be positive, got {self.interval}")
        # The rate IS the cap: the budget bounds total corruptions no matter
        # the persistence; an explicit tighter cap still wins.
        cap = self.faults_per_solve
        if explicit_cap is not None:
            cap = min(cap, explicit_cap)
        self.max_injections = cap

    def can_match_step(self, *, aggregate_inner_iteration: int = -1,
                       **context) -> bool:
        """Eligible only at the scheduled cadence points."""
        if aggregate_inner_iteration < self.start:
            return False
        if (aggregate_inner_iteration - self.start) % self.interval != 0:
            return False
        # The cadence is the location anchor; the base class keeps the
        # outer/inner predicates (its own aggregate anchor stays None unless
        # a caller narrows the cadence to one point on purpose), and
        # ``matches`` adds the site and MGS predicates.
        return super().can_match_step(
            aggregate_inner_iteration=aggregate_inner_iteration, **context)

    def first_step(self) -> int | None:
        """The cadence starts at ``start``."""
        return self.start

    def describe(self) -> str:
        base = super().describe()
        return (f"{base}, rate={self.faults_per_solve}/solve "
                f"(start={self.start}, every {self.interval})")
