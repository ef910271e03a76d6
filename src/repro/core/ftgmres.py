"""FT-GMRES: the paper's fault-tolerant inner–outer (nested) solver.

The outer iteration is Flexible GMRES executed reliably; the inner solves
are plain GMRES executed *unreliably* (Section IV): they may experience
silent data corruption, and they only promise to return something in finite
time.  The split is structural: the fault injector is handed to the inner
solves and to nothing else, so no outer operation can be corrupted.  The
outer iteration "rolls forward" through whatever the inner solves return
and drives convergence with reliably computed residuals.

The experiment harness injects exactly one SDC event per nested solve into
one Hessenberg coefficient of one inner solve, which is how Figures 3 and 4
of the paper are produced.
"""

from __future__ import annotations

import numpy as np

from repro.core.fgmres import OuterState, fgmres
from repro.core.gmres import gmres
from repro.core.status import NestedSolverResult, SolverResult
from repro.registry import resolve_detector, resolve_preconditioner
from repro.results.events import ensure_sink
from repro.specs import SolveSpec

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
    events=None,
    profile=None,
    state: OuterState | None = None,
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
        Fault injector passed to the *inner* solves only: the outer FGMRES
        never receives it, so the outer iteration always runs reliably
        (the paper's Section IV model).  Every consult carries the inner
        solve's ``inner_solve_index``, which equals its ``outer_iteration``.
    events : EventSink, callable, or list of them, optional
        Receives every event of the whole nested solve the moment it is
        recorded (anything :func:`~repro.results.events.ensure_sink`
        accepts): the outer FGMRES and every inner GMRES emit into one
        stream, so an inner ``fault_detected`` reaches the sink before a
        ``"raise"`` response propagates.  The result's ``events`` list holds
        the same events in the same order.
    profile : KernelProfile, optional
        Accumulate per-phase kernel time (spmv/precond/orth/lsq) of every
        *inner* solve into this :class:`~repro.utils.profile.KernelProfile`.
        ``None`` (default) performs no timing; profiled runs are bit-identical
        to unprofiled ones (see :func:`repro.core.gmres.gmres`).
    state : OuterState, optional
        The outer FGMRES state, as for :func:`~repro.core.fgmres.fgmres`,
        with each inner solve's result in ``state.inner_results``: an empty
        ``OuterState()`` keeps this solve's final state, and a prefix of an
        earlier solve of the same system and spec resumes it at that outer
        iteration.  The copied inner results and events head the result's
        lists (the events are not emitted to ``events`` again).  The resumed
        result is the whole solve's only when nothing before the resume
        point can differ: ``injector`` cannot fire there and every detector
        is stateless (``vectorized``).  ``profile`` then times only the
        inner solves actually run.

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

    # One event list for the outer solve and every inner solve: fgmres
    # records into state.events and each inner solve appends there too
    # (fgmres is blocked inside an inner solve while that solve records),
    # so events arrive in the order they happen.
    state = state if state is not None else OuterState()
    inner_sink = ensure_sink(state.events.append if events is None
                             else [state.events.append, events])
    inner_budget = inner_kwargs["maxiter"]
    inner_results = state.inner_results

    def inner_solver(q_j: np.ndarray, outer_iteration: int) -> np.ndarray:
        """One unreliable inner solve: approximately solve ``A z = q_j``."""
        result = gmres(
            A,
            q_j,
            injector=injector,
            events=inner_sink,
            profile=profile,
            outer_iteration=outer_iteration,
            inner_solve_index=outer_iteration,
            iteration_offset=outer_iteration * inner_budget,
            **inner_kwargs,
        )
        inner_results.append(result)
        return result.x

    outer_result = fgmres(A, b, inner_solver=inner_solver, x0=x0, events=events,
                          state=state, **outer_kwargs)
    return nested_result(outer_result, state, profile)


def nested_result(outer: SolverResult, state: OuterState,
                  profile=None) -> NestedSolverResult:
    """The nested solve's result from its outer result and outer state.

    ``state`` holds every inner solve's result and the whole solve's events;
    shared by :func:`ft_gmres` and the batched engine's lanes
    (:func:`repro.core.batched.batched_ft_gmres`).
    """
    return NestedSolverResult(
        x=outer.x,
        status=outer.status,
        outer_iterations=outer.iterations,
        total_inner_iterations=sum(r.iterations for r in state.inner_results),
        residual_norm=outer.residual_norm,
        history=outer.history,
        inner_results=state.inner_results,
        events=state.events,
        profile=profile,
    )
