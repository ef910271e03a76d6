"""Solver status reporting and convergence histories.

The paper's FGMRES "trichotomy" (Section VI-C) is represented explicitly:
a solve either converges, detects an invariant subspace (happy breakdown), or
gives a clear indication of failure (detected rank deficiency).  Two more
statuses cover the practical outcomes of a finite iteration budget and of a
detector configured to abort on SDC.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.results.events import Event

__all__ = ["SolverStatus", "ConvergenceHistory", "SolverResult", "NestedSolverResult"]


class SolverStatus(Enum):
    """Terminal state of a Krylov solve."""

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    HAPPY_BREAKDOWN = "happy_breakdown"
    RANK_DEFICIENT = "rank_deficient"
    FAULT_DETECTED = "fault_detected"
    STAGNATED = "stagnated"

    @property
    def is_success(self) -> bool:
        """True for outcomes that produced a usable solution.

        ``MAX_ITERATIONS`` is treated as success for *inner* solves (the
        sandbox model only requires the inner solver to return something in
        finite time); outer solves additionally check the residual.
        """
        return self in (
            SolverStatus.CONVERGED,
            SolverStatus.HAPPY_BREAKDOWN,
            SolverStatus.MAX_ITERATIONS,
        )

    @property
    def is_loud_failure(self) -> bool:
        """True when the solver reported a failure explicitly (not silently)."""
        return self in (SolverStatus.RANK_DEFICIENT, SolverStatus.FAULT_DETECTED)


class ConvergenceHistory:
    """Per-iteration residual-norm history with convenience accessors."""

    def __init__(self) -> None:
        self.residual_norms: list[float] = []

    def append(self, value: float) -> None:
        """Record the residual norm after one iteration."""
        self.residual_norms.append(float(value))

    def __len__(self) -> int:
        return len(self.residual_norms)

    def __getitem__(self, idx):
        return self.residual_norms[idx]

    @property
    def initial(self) -> float:
        """Residual norm before the first iteration (NaN if empty)."""
        return self.residual_norms[0] if self.residual_norms else float("nan")

    @property
    def final(self) -> float:
        """Most recent residual norm (NaN if empty)."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")

    def as_array(self) -> np.ndarray:
        """The history as a float64 array."""
        return np.asarray(self.residual_norms, dtype=np.float64)

    def is_monotone_nonincreasing(self, rtol: float = 1e-12) -> bool:
        """True if the history never increases (up to relative slack ``rtol``).

        GMRES guarantees this in exact, fault-free arithmetic — the property
        tests use it as an invariant, and its violation is itself a symptom
        of SDC.
        """
        arr = self.as_array()
        if arr.size < 2:
            return True
        allowed = arr[:-1] * (1.0 + rtol) + rtol
        return bool(np.all(arr[1:] <= allowed))


@dataclass
class SolverResult:
    """Outcome of a single-level solve (GMRES, FGMRES, CG, ...).

    Attributes
    ----------
    x : numpy.ndarray
        The approximate solution.
    status : SolverStatus
        Terminal state.
    iterations : int
        Number of iterations performed (Arnoldi steps for GMRES).
    residual_norm : float
        Final (preconditioned, for preconditioned solves) residual norm.
    history : ConvergenceHistory
        Residual norm after every iteration.
    events : list of Event
        Structured events (faults injected/detected, breakdowns, ...), in
        the order the solve recorded them.
    matvecs : int
        Number of operator applications (the dominant cost).
    profile : KernelProfile or None
        Per-phase kernel timings (see :mod:`repro.utils.profile`), present
        only when the solve was run with profiling enabled.
    """

    x: np.ndarray
    status: SolverStatus
    iterations: int
    residual_norm: float
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)
    events: list[Event] = field(default_factory=list)
    matvecs: int = 0
    profile: object | None = None

    @property
    def converged(self) -> bool:
        """True if the solver reported convergence or a happy breakdown."""
        return self.status in (SolverStatus.CONVERGED, SolverStatus.HAPPY_BREAKDOWN)

    def summary(self) -> dict:
        """The headline fields (common result schema, ``kind="solver"``)."""
        out = {
            "kind": "solver",
            "status": self.status.value,
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "matvecs": self.matvecs,
        }
        if self.profile is not None:
            out["kernel_profile"] = self.profile.to_dict()
        return out

    def to_dict(self, *, include_solution: bool = False) -> dict:
        """JSON-ready dict: the summary plus history and event counts.

        ``include_solution`` adds the solution vector itself (omitted by
        default: it can be large and is rarely what result files are for).
        """
        out = self.summary()
        out["history"] = [float(v) for v in self.history.as_array()]
        counts = Counter(e.kind for e in self.events)
        out["events"] = {kind: counts[kind] for kind in sorted(counts)}
        if include_solution:
            out["x"] = [float(v) for v in np.asarray(self.x).ravel()]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverResult(status={self.status.value}, iterations={self.iterations}, "
            f"residual_norm={self.residual_norm:.3e})"
        )


@dataclass
class NestedSolverResult:
    """Outcome of a nested (inner–outer) solve such as FT-GMRES.

    Attributes
    ----------
    x : numpy.ndarray
        The approximate solution produced by the reliable outer iteration.
    status : SolverStatus
        Outer-solver terminal state.
    outer_iterations : int
        Number of outer (FGMRES) iterations.
    total_inner_iterations : int
        Sum of inner GMRES iterations across all inner solves.
    residual_norm : float
        Final true residual norm ``||b - A x||``.
    history : ConvergenceHistory
        Outer residual history.
    inner_results : list of SolverResult
        One entry per inner solve, in order.
    events : list of Event
        The whole nested solve's events in the order they were recorded:
        each inner solve's events, then the outer events that follow it.
    profile : KernelProfile or None
        Per-phase kernel timings accumulated across all inner solves
        (see :mod:`repro.utils.profile`); ``None`` unless profiling was on.
    """

    x: np.ndarray
    status: SolverStatus
    outer_iterations: int
    total_inner_iterations: int
    residual_norm: float
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)
    inner_results: list[SolverResult] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    profile: object | None = None

    @property
    def converged(self) -> bool:
        """True if the outer solver reported convergence or a happy breakdown."""
        return self.status in (SolverStatus.CONVERGED, SolverStatus.HAPPY_BREAKDOWN)

    @property
    def faults_injected(self) -> int:
        """Total number of fault-injection events across the whole solve."""
        return sum(e.kind == "fault_injected" for e in self.events)

    @property
    def faults_detected(self) -> int:
        """Total number of detector hits across the whole solve."""
        return sum(e.kind == "fault_detected" for e in self.events)

    def summary(self) -> dict:
        """The headline fields (common result schema, ``kind="nested_solver"``)."""
        out = {
            "kind": "nested_solver",
            "status": self.status.value,
            "converged": self.converged,
            "outer_iterations": self.outer_iterations,
            "total_inner_iterations": self.total_inner_iterations,
            "residual_norm": self.residual_norm,
            "faults_injected": self.faults_injected,
            "faults_detected": self.faults_detected,
        }
        if self.profile is not None:
            out["kernel_profile"] = self.profile.to_dict()
        return out

    def to_dict(self, *, include_solution: bool = False) -> dict:
        """JSON-ready dict: summary, outer history, per-inner-solve summaries."""
        out = self.summary()
        out["history"] = [float(v) for v in self.history.as_array()]
        out["inner_results"] = [r.summary() for r in self.inner_results]
        if include_solution:
            out["x"] = [float(v) for v in np.asarray(self.x).ravel()]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NestedSolverResult(status={self.status.value}, "
            f"outer_iterations={self.outer_iterations}, "
            f"residual_norm={self.residual_norm:.3e})"
        )
