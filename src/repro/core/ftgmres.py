"""FT-GMRES: the paper's fault-tolerant inner–outer (nested) solver.

The outer iteration is Flexible GMRES executed reliably; the inner solves
are plain GMRES executed *unreliably* inside a sandbox (Section IV): they may
experience silent data corruption, and they only promise to return something
in finite time.  The outer iteration "rolls forward" through whatever the
inner solves return and drives convergence with reliably computed residuals.

The experiment harness injects exactly one SDC event per nested solve into
one Hessenberg coefficient of one inner solve, which is how Figures 3 and 4
of the paper are produced.
"""

from __future__ import annotations

import numpy as np

from repro.core.fgmres import fgmres
from repro.core.gmres import gmres
from repro.core.status import NestedSolverResult, SolverResult
from repro.registry import resolve_detector, resolve_preconditioner
from repro.specs import SolveSpec
from repro.utils.events import EventLog

__all__ = ["ft_gmres"]

#: The paper's configuration: outer tol 1e-8 and 100 iterations around
#: fixed 25-iteration inner solves.
_PAPER_SPEC = SolveSpec(method="ft_gmres")


def ft_gmres(
    A,
    b,
    x0=None,
    *,
    spec: SolveSpec | None = None,
    outer_tol: float | None = None,
    max_outer: int | None = None,
    inner_iterations: int | None = None,
    injector=None,
    sandbox=None,
    events: EventLog | None = None,
    profile=None,
) -> NestedSolverResult:
    """Solve ``A x = b`` with the fault-tolerant nested FT-GMRES iteration.

    Parameters
    ----------
    A : matrix or operator
        System operator (used by both the inner and the outer iteration).
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Initial guess for the outer iteration.
    spec : SolveSpec, optional
        The nested solver's configuration, a ``method="ft_gmres"`` spec
        whose ``inner`` configures the inner GMRES (default: the paper's
        setup, see :meth:`~repro.specs.SolveSpec.gmres_kwargs`).  String and
        dict components resolve against ``A`` once per call.  The
        convenience keywords below override the corresponding fields when
        given.
    outer_tol : float, optional
        Outer relative convergence tolerance.
    max_outer : int, optional
        Maximum number of outer iterations.
    inner_iterations : int, optional
        Fixed iteration count of every inner GMRES solve (paper: 25).
    injector : FaultInjector, optional
        Fault injector passed to the *inner* solves only — the outer
        iteration always runs reliably, which is the sandbox model.
    sandbox : Sandbox, optional
        Explicit sandbox marking the unreliable region.  When omitted but an
        injector is supplied, a fresh sandbox is created; the injector is
        activated only while an inner solve is running inside it.
    events : EventLog, EventSink, or callable, optional
        Merged event destination for the whole nested solve (any
        :class:`~repro.results.events.EventSink` streams the events: outer
        events as they happen, each inner solve's events when it completes).
    profile : KernelProfile, optional
        Accumulate per-phase kernel time (spmv/precond/orth/lsq) of every
        *inner* solve into this :class:`~repro.utils.profile.KernelProfile`.
        ``None`` (default) performs no timing; profiled runs are bit-identical
        to unprofiled ones (see :func:`repro.core.gmres.gmres`).

    Returns
    -------
    NestedSolverResult
    """
    spec = spec if spec is not None else _PAPER_SPEC
    if spec.method != "ft_gmres":
        raise ValueError(f"ft_gmres needs a method='ft_gmres' spec, got {spec.method!r}")
    inner_kwargs = spec.gmres_kwargs()
    outer_kwargs = spec.fgmres_kwargs()
    if outer_tol is not None:
        outer_kwargs["tol"] = outer_tol
    if max_outer is not None:
        outer_kwargs["max_outer"] = max_outer
    if inner_iterations is not None:
        inner_kwargs["maxiter"] = inner_kwargs["restart"] = inner_iterations
    # Resolve component specs against A once, up front: the inner GMRES runs
    # up to max_outer times per nested solve, and a string spec left in place
    # would recompute the detector bound (or re-factor the preconditioner) on
    # every one of them.
    for kwargs in (inner_kwargs, outer_kwargs):
        kwargs["detector"] = resolve_detector(kwargs["detector"], A=A,
                                              bound_method=kwargs["bound_method"])
    inner_kwargs["preconditioner"] = resolve_preconditioner(inner_kwargs["preconditioner"],
                                                            A=A)

    if sandbox is None and injector is not None:
        from repro.faults.sandbox import Sandbox

        sandbox = Sandbox(name="ft-gmres-inner")
    if sandbox is not None and injector is not None and hasattr(injector, "attach_sandbox"):
        injector.attach_sandbox(sandbox)

    events = EventLog.ensure(events)
    inner_budget = inner_kwargs["maxiter"]
    inner_results: list[SolverResult] = []

    def inner_solver(q_j: np.ndarray, outer_iteration: int) -> np.ndarray:
        """One unreliable inner solve: approximately solve ``A z = q_j``."""
        inner_events = EventLog()
        offset = outer_iteration * inner_budget

        def run() -> SolverResult:
            return gmres(
                A,
                q_j,
                injector=injector,
                events=inner_events,
                profile=profile,
                outer_iteration=outer_iteration,
                inner_solve_index=outer_iteration,
                iteration_offset=offset,
                **inner_kwargs,
            )

        if sandbox is not None:
            with sandbox:
                result = run()
        else:
            result = run()
        inner_results.append(result)
        events.extend(inner_events)
        return result.x

    outer_result = fgmres(A, b, inner_solver=inner_solver, x0=x0, events=events,
                          **outer_kwargs)

    total_inner = sum(r.iterations for r in inner_results)
    return NestedSolverResult(
        x=outer_result.x,
        status=outer_result.status,
        outer_iterations=outer_result.iterations,
        total_inner_iterations=total_inner,
        residual_norm=outer_result.residual_norm,
        history=outer_result.history,
        inner_results=inner_results,
        events=events,
        profile=profile,
    )
