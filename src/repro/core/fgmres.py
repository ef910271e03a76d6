"""Flexible GMRES (FGMRES) — Algorithm 2 of the paper (after Saad 1993).

FGMRES allows the preconditioner to change every iteration, which is what
makes the inner–outer FT-GMRES construction possible: a *faulty* inner solve
is simply "a different preconditioner".  Two additions relative to standard
GMRES matter for fault tolerance and are implemented here:

* the solution update is formed from the ``Z`` basis (the preconditioned
  vectors ``z_j = M_j^{-1} q_j``), not from ``Q``;
* when the subdiagonal entry ``h_{j+1,j}`` is (numerically) zero the solver
  must distinguish a happy breakdown from a rank-deficient projected matrix
  (Saad's Proposition 2.2): the paper's "trichotomy".  We check the rank of
  ``H(1:j,1:j)`` with a small SVD and report ``RANK_DEFICIENT`` loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from repro.core.arnoldi import ArnoldiContext
from repro.core.detectors import Detector
from repro.core.hessenberg import HessenbergMatrix
from repro.core.least_squares import LeastSquaresPolicy
from repro.core.status import ConvergenceHistory, SolverResult, SolverStatus
from repro.registry import resolve_detector
from repro.results.events import Event
from repro.sparse.linear_operator import LinearOperator, aslinearoperator
from repro.utils.validation import as_dense_vector, check_square

__all__ = ["fgmres", "fgmres_steps", "OuterState"]

#: Relative threshold below which ``h_{j+1,j}`` triggers the breakdown logic.
BREAKDOWN_TOL = 1e-12


@dataclass
class OuterState:
    """The outer FGMRES loop's state: bases, Hessenberg matrix, history, events.

    Outer iteration ``j`` only appends to it: ``Z[:, j]``, ``Q[:, j + 1]``,
    Hessenberg column ``j``, one history entry and the events it records.
    So the state a solve ends with holds the state at the start of every
    earlier iteration as a prefix, and :meth:`prefix` copies one out.
    :func:`fgmres` fills an empty ``OuterState()`` and resumes from a
    non-empty one.  ``Q`` and ``Z`` are allocated uninitialized (every
    column is written before it is read), so their columns past the
    written ones are undefined.
    """

    #: Outer basis (``n x (room + 1)``) and flexible basis (``n x room``);
    #: ``None`` until a solve allocates them.
    Q: np.ndarray | None = None
    Z: np.ndarray | None = None
    hess: HessenbergMatrix | None = None
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)
    events: list[Event] = field(default_factory=list)
    #: ``len(events)`` at the start of each outer iteration, and once more
    #: when the loop ends (so a finished solve's post-loop events are cut).
    marks: list[int] = field(default_factory=list)
    #: One result per outer iteration for a caller that keeps them (FT-GMRES
    #: keeps its inner solves' here); :func:`fgmres` leaves it alone.
    inner_results: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Completed outer iterations."""
        return 0 if self.hess is None else self.hess.k

    def prefix(self, k: int, max_outer: int | None = None) -> "OuterState":
        """Copies of the state as it stood at the start of outer iteration ``k``.

        The copies have room for ``max_outer`` iterations; the default,
        ``k``, keeps only what resuming at ``k`` or earlier needs.
        """
        if self.hess is None or not 0 <= k <= self.iterations:
            raise ValueError(f"no state at outer iteration {k}: it holds "
                             f"{self.iterations} iterations")
        room = k if max_outer is None else max_outer
        hess = self.hess.prefix(k, room)
        Q = np.empty((self.Q.shape[0], room + 1), dtype=np.float64, order="F")
        Z = np.empty((self.Q.shape[0], room), dtype=np.float64, order="F")
        Q[:, : k + 1] = self.Q[:, : k + 1]
        Z[:, :k] = self.Z[:, :k]
        history = ConvergenceHistory()
        history.residual_norms = self.history.residual_norms[: k + 1]
        cut = self.marks[k] if k < len(self.marks) else len(self.events)
        return OuterState(Q, Z, hess, history, self.events[:cut], self.marks[:k],
                          self.inner_results[:k])


def fgmres(
    A,
    b,
    inner_solver: Callable[[np.ndarray, int], np.ndarray] | None = None,
    x0=None,
    *,
    tol: float = 1e-8,
    max_outer: int = 50,
    orthogonalization: str = "mgs",
    lsq_policy=LeastSquaresPolicy.RANK_REVEALING,
    detector: Detector | str | None = None,
    detector_response: str = "flag",
    injector=None,
    events=None,
    state: OuterState | None = None,
) -> SolverResult:
    """Solve ``A x = b`` with Flexible GMRES (by running :func:`fgmres_steps`).

    Parameters
    ----------
    A : matrix or operator
        System operator.
    b : array_like
        Right-hand side.
    inner_solver : callable, optional
        The per-iteration preconditioner: ``inner_solver(q_j, j)`` returns
        ``z_j ≈ A^{-1} q_j``.  It may be a full iterative solve (FT-GMRES),
        a stationary preconditioner's ``apply``, or ``None`` (identity, in
        which case FGMRES reduces to plain GMRES).  To watch each inner
        result, wrap the callable.
    x0 : array_like, optional
        Initial guess.
    tol : float
        Relative convergence tolerance on ``||b - A x|| / ||b||``.
    max_outer : int
        Maximum number of outer iterations (also the Krylov dimension: the
        outer iteration is not restarted, matching the paper's setup).
    orthogonalization : {"mgs", "cgs", "cgs2"}
        Orthogonalization of the *outer* basis (always executed reliably).
    lsq_policy : LeastSquaresPolicy or str
        Policy for the projected least-squares solve.  The paper recommends
        the rank-revealing policy for the fault-tolerant outer solver, which
        is therefore the default here (plain GMRES defaults to STANDARD).
    detector : Detector, registry spec, or None
        Invariant detector for the *outer* Hessenberg entries.  String/dict
        specs (``"bound"``, ``"bound:two_norm"``) resolve through
        :mod:`repro.registry` against ``A``.  Note that the
        outer bound involves ``||A z_j||`` rather than ``||A||`` because
        ``z_j`` is not a unit vector; when a detector is supplied here it is
        applied to ``h_ij / ||z_j||`` so the paper's bound still applies.
    detector_response : str
        Response policy for outer detections (same vocabulary as GMRES; an
        unknown name raises ``ValueError``).  The outer check is on
        ``h_ij / ||z_j||``: ``"clamp"`` answers with
        ``sign(h_ij) * bound * ||z_j||``, and ``"recompute"`` keeps ``h_ij``
        (the outer phase is reliable, so there is nothing to recompute).
    injector : FaultInjector, optional
        Fault injector consulted at the outer iteration's named sites:
        ``"spmv"`` (operator product), ``"hessenberg"`` (each
        orthogonalization coefficient), ``"orth"`` (orthogonalized
        un-normalized vector), ``"subdiag"`` (subdiagonal norm) and
        ``"givens"`` (rotation coefficients).  The outer iteration here is
        both the outer and the aggregate coordinate of the schedule context.
        FT-GMRES deliberately does **not** pass its injector here — its outer
        solver is the reliable phase — so this is for standalone FGMRES
        fault studies.  ``None`` (the default) keeps the hook-free fast path.
    events : EventSink, callable, or list of them, optional
        Receives every event the moment it is recorded (anything
        :func:`~repro.results.events.ensure_sink` accepts).  The result's
        ``events`` list holds the same events in the same order.
    state : OuterState, optional
        Where the outer loop keeps its bases, Hessenberg matrix, history and
        events, and leaves them when it returns.  An empty ``OuterState()``
        starts afresh.  A state holding ``k`` iterations (an
        :meth:`OuterState.prefix` of an earlier solve of the same system,
        ``x0`` and configuration, with room for ``max_outer``) resumes that
        solve at outer iteration ``k``: the result is the one the whole
        solve would give, provided the first ``k`` iterations would repeat
        bit for bit.  The copied events head the result's ``events`` list
        but are not emitted to ``events`` again.

    Returns
    -------
    SolverResult
        ``iterations`` counts outer iterations.
    """
    steps = fgmres_steps(A, b, x0, tol=tol, max_outer=max_outer,
                         orthogonalization=orthogonalization, lsq_policy=lsq_policy,
                         detector=detector, detector_response=detector_response,
                         injector=injector, events=events, state=state)
    # Faulted inner results and outer fault studies propagate NaN/Inf by
    # contract; see the error-state note on repro.core.gmres.gmres.  The
    # generator body runs under this errstate, and so do the inner solves.
    with np.errstate(invalid="ignore", over="ignore"):
        z_j = None  # the first send starts the generator
        while True:
            try:
                j, q_j = steps.send(z_j)
            except StopIteration as stop:
                return stop.value
            z_j = q_j.copy() if inner_solver is None else inner_solver(q_j, j)


def fgmres_steps(
    A,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    max_outer: int = 50,
    orthogonalization: str = "mgs",
    lsq_policy=LeastSquaresPolicy.RANK_REVEALING,
    detector: Detector | str | None = None,
    detector_response: str = "flag",
    injector=None,
    events=None,
    state: OuterState | None = None,
) -> Generator[tuple[int, np.ndarray], np.ndarray, SolverResult]:
    """The outer FGMRES loop of :func:`fgmres`, paused at every inner solve.

    Yields ``(j, q_j)`` where outer iteration ``j`` applies its
    preconditioner, takes ``z_j ≈ A^{-1} q_j`` back through ``send``, and
    returns the :class:`SolverResult` (the ``StopIteration`` value).  The
    arguments are :func:`fgmres`'s less ``inner_solver``; invalid ones raise
    on the first ``next``.  :func:`fgmres` answers with its
    ``inner_solver``; the batched engine (:mod:`repro.core.batched`) solves
    the ``q_j`` of many generators in one lockstep batch.  The body runs
    under the caller's :class:`numpy.errstate`, so a caller silences
    ``invalid`` and ``over`` around its loop, as :func:`fgmres` does.
    """
    op: LinearOperator = aslinearoperator(A)
    n = check_square(op.shape, "A")
    b = as_dense_vector(b, n, "b")
    x = as_dense_vector(x0, n, "x0") if x0 is not None else np.zeros(n, dtype=np.float64)
    if max_outer <= 0:
        raise ValueError(f"max_outer must be positive, got {max_outer}")
    max_outer = min(max_outer, n)
    policy = LeastSquaresPolicy.coerce(lsq_policy)
    if orthogonalization not in ("mgs", "cgs", "cgs2"):
        raise ValueError(f"unknown orthogonalization {orthogonalization!r}")
    detector = resolve_detector(detector, A=A)

    if state is None:
        state = OuterState()

    # Outer-iteration injection, screening and every outer event go through
    # the same ArnoldiContext as the inner solves (raising ValueError for an
    # unknown detector_response).  The outer iteration j doubles as the
    # aggregate coordinate: a standalone FGMRES solve has no inner
    # iterations, so schedules addressed in aggregate terms fire at outer
    # step j.  Unarmed steps (always, without an injector) make no consults
    # and perform the identical floating-point operations.
    ctx = ArnoldiContext(injector=injector, detector=detector,
                         detector_response=detector_response, events=state.events,
                         sink=events)

    norm_b = float(np.linalg.norm(b))
    target = tol * norm_b if norm_b > 0.0 else tol

    start = state.iterations
    if state.hess is None:
        r = b - op.matvec(x)
        beta = float(np.linalg.norm(r))
        state.history.append(beta)
        if beta <= target:
            return SolverResult(x, SolverStatus.CONVERGED, 0, beta, state.history,
                                ctx.events, 1)
        # Fortran order: basis columns are the unit of access in the
        # orthogonalization and update kernels, so keep them contiguous.
        # Uninitialized: every column is written before it is read, and the
        # pages of columns never reached cost no memory.
        state.Q = np.empty((n, max_outer + 1), dtype=np.float64, order="F")
        state.Z = np.empty((n, max_outer), dtype=np.float64, order="F")
        state.Q[:, 0] = r / beta
        state.hess = HessenbergMatrix(max_outer, beta)
    elif start > max_outer or state.hess.max_columns < max_outer:
        raise ValueError(f"state holds {start} outer iterations with room for "
                         f"{state.hess.max_columns}; max_outer is {max_outer}")
    Q, Z, hess, history = state.Q, state.Z, state.hess, state.history
    matvecs = 1 + start  # the initial residual, then one per outer iteration
    scratch = np.empty(n)  # the MGS axpy buffer

    status = SolverStatus.MAX_ITERATIONS
    k = start
    for j in range(start, max_outer):
        state.marks.append(len(ctx.events))
        # ----- inner solve (the "apply current preconditioner" step) -------
        z_j = np.asarray((yield j, Q[:, j]), dtype=np.float64).ravel()
        if z_j.shape[0] != n:
            raise ValueError(
                f"inner solver returned a vector of length {z_j.shape[0]}, expected {n}"
            )
        # The sandbox model promises only that the inner solve returns
        # *something*; a non-finite result would poison the reliable outer
        # phase, so the outer solver screens it (this is "computing the
        # residual reliably" in sandbox terms).
        if not np.all(np.isfinite(z_j)):
            ctx.record("inner_result_nonfinite", where="inner_solve", outer_iteration=j)
            z_j = np.nan_to_num(z_j, nan=0.0, posinf=0.0, neginf=0.0)
        Z[:, j] = z_j
        ctx.record("inner_solve_complete", where="inner_solve", outer_iteration=j)

        # ----- reliable operator application and orthogonalization ---------
        ctx.outer_iteration = j
        armed = ctx.arm(j)
        v = op.matvec(z_j)
        matvecs += 1
        if armed:
            v = ctx.inject_vector("spmv", v, iteration=j)
        z_norm = math.sqrt(z_j.dot(z_j))
        h_col = np.zeros(j + 2, dtype=np.float64)
        # With no detector attached and the step unarmed the per-coefficient
        # hooks are pure overhead (they return the value unchanged), so the
        # common configuration skips them entirely — mirroring the no-hook
        # Arnoldi branch.  Both branches perform the identical floating-point
        # operations (asserted bit-for-bit in the tests).
        hooked = armed or detector is not None
        w = v.copy()
        if orthogonalization == "mgs":
            for i, q_i in enumerate(Q.T[: j + 1]):
                h = q_i.dot(w)
                if hooked:
                    h = ctx.consult_coefficient("outer_hessenberg", float(h), j, i, j + 1,
                                                scale=z_norm)
                h_col[i] = h
                np.subtract(w, np.multiply(h, q_i, out=scratch), out=w)
        else:
            for _ in range(2 if orthogonalization == "cgs2" else 1):
                coeffs = Q[:, : j + 1].T @ w
                if hooked:
                    for i in range(j + 1):
                        coeffs[i] = ctx.consult_coefficient(
                            "outer_hessenberg", float(coeffs[i]), j, i, j + 1, scale=z_norm)
                w = w - Q[:, : j + 1] @ coeffs
                h_col[: j + 1] += coeffs

        if armed:
            w = ctx.inject_vector("orth", w, iteration=j)
        h_sub = math.sqrt(w.dot(w))
        if armed:
            h_sub = ctx.inject_scalar("subdiag", h_sub, iteration=j)
        h_col[j + 1] = h_sub
        resid_est = hess.add_column(h_col, givens_hook=ctx.givens_hook)
        k = j + 1
        history.append(resid_est)

        # ----- breakdown trichotomy (Section VI-C) --------------------------
        scale = max(float(np.abs(h_col[: j + 1]).max()), 1.0)
        if h_sub <= BREAKDOWN_TOL * scale:
            if hess.is_rank_deficient():
                ctx.record("rank_deficient", where="hessenberg", outer_iteration=j,
                           smallest_singular_value=hess.smallest_singular_value())
                status = SolverStatus.RANK_DEFICIENT
            else:
                ctx.record("happy_breakdown", where="hessenberg", outer_iteration=j)
                status = SolverStatus.HAPPY_BREAKDOWN
            break

        np.divide(w, h_sub, out=Q[:, j + 1])

        if math.isfinite(resid_est) and resid_est <= target:
            status = SolverStatus.CONVERGED
            break
    state.marks.append(len(ctx.events))

    # ----- solution update from the flexible basis Z ------------------------
    if k > 0:
        y, lsq_info = hess.solve_y(policy=policy)
        if lsq_info.get("fallback"):
            ctx.record("lsq_fallback", where="least_squares", outer_iteration=k)
        x = x + Z[:, :k] @ y

    r = b - op.matvec(x)
    matvecs += 1
    residual_norm = float(np.linalg.norm(r))

    if status is SolverStatus.MAX_ITERATIONS and residual_norm <= target:
        status = SolverStatus.CONVERGED
    if status is SolverStatus.RANK_DEFICIENT:
        ctx.record("failure_reported", where="fgmres", outer_iteration=k)

    return SolverResult(
        x=x,
        status=status,
        iterations=k,
        residual_norm=residual_norm,
        history=history,
        events=ctx.events,
        matvecs=matvecs,
    )
