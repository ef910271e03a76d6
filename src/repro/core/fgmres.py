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

from typing import Callable

import numpy as np

from repro.core.arnoldi import ArnoldiContext
from repro.core.detectors import Detector
from repro.core.hessenberg import HessenbergMatrix
from repro.core.least_squares import LeastSquaresPolicy
from repro.core.status import ConvergenceHistory, SolverResult, SolverStatus
from repro.registry import resolve_detector
from repro.sparse.linear_operator import LinearOperator, aslinearoperator
from repro.utils.events import EventLog
from repro.utils.validation import as_dense_vector, check_square

__all__ = ["fgmres"]

#: Relative threshold below which ``h_{j+1,j}`` triggers the breakdown logic.
BREAKDOWN_TOL = 1e-12


# Faulted inner results and outer fault studies propagate NaN/Inf by
# contract; see the error-state note on repro.core.gmres.gmres.
@np.errstate(invalid="ignore", over="ignore")
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
    lsq_tol: float | None = None,
    rank_tol: float | None = None,
    detector: Detector | str | None = None,
    detector_response: str = "flag",
    bound_method: str = "frobenius",
    injector=None,
    events: EventLog | None = None,
    inner_callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> SolverResult:
    """Solve ``A x = b`` with Flexible GMRES.

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
        which case FGMRES reduces to plain GMRES).
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
    lsq_tol : float, optional
        Truncation tolerance for the rank-revealing least-squares solve.
    rank_tol : float, optional
        Tolerance for the rank test in the breakdown trichotomy.
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
    bound_method : {"frobenius", "two_norm", "exact"}
        Norm used when ``detector`` is a spec that computes a bound from ``A``.
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
    events : EventLog, EventSink, or callable, optional
        Event destination (any :class:`~repro.results.events.EventSink`
        streams the events as they are recorded).
    inner_callback : callable, optional
        ``inner_callback(j, q_j, z_j)`` invoked after every inner solve;
        used by FT-GMRES to harvest inner results.

    Returns
    -------
    SolverResult
        ``iterations`` counts outer iterations.
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
    detector = resolve_detector(detector, A=A, bound_method=bound_method)

    events = EventLog.ensure(events)
    history = ConvergenceHistory()

    # Outer-iteration injection and screening go through the same
    # ArnoldiContext as the inner solves (raising ValueError for an unknown
    # detector_response).  The outer iteration j doubles as the aggregate
    # coordinate: a standalone FGMRES solve has no inner iterations, so
    # schedules addressed in aggregate terms fire at outer step j.  Unarmed
    # steps (always, without an injector) make no consults and perform the
    # identical floating-point operations.
    ctx = ArnoldiContext(injector=injector, detector=detector,
                         detector_response=detector_response, events=events)

    norm_b = float(np.linalg.norm(b))
    target = tol * norm_b if norm_b > 0.0 else tol

    r = b - op.matvec(x)
    matvecs = 1
    beta = float(np.linalg.norm(r))
    history.append(beta)
    if beta <= target:
        return SolverResult(x, SolverStatus.CONVERGED, 0, beta, history, events, matvecs)

    # Fortran order: basis columns are the unit of access in the
    # orthogonalization and update kernels, so keep them contiguous.
    Q = np.zeros((n, max_outer + 1), dtype=np.float64, order="F")
    Z = np.zeros((n, max_outer), dtype=np.float64, order="F")
    Q[:, 0] = r / beta
    hess = HessenbergMatrix(max_outer, beta)

    status = SolverStatus.MAX_ITERATIONS
    k = 0
    for j in range(max_outer):
        q_j = Q[:, j]
        # ----- inner solve (the "apply current preconditioner" step) -------
        if inner_solver is None:
            z_j = q_j.copy()
        else:
            z_j = np.asarray(inner_solver(q_j, j), dtype=np.float64).ravel()
            if z_j.shape[0] != n:
                raise ValueError(
                    f"inner solver returned a vector of length {z_j.shape[0]}, expected {n}"
                )
        # The sandbox model promises only that the inner solve returns
        # *something*; a non-finite result would poison the reliable outer
        # phase, so the outer solver screens it (this is "computing the
        # residual reliably" in sandbox terms).
        if not np.all(np.isfinite(z_j)):
            events.record("inner_result_nonfinite", where="inner_solve", outer_iteration=j)
            z_j = np.nan_to_num(z_j, nan=0.0, posinf=0.0, neginf=0.0)
        Z[:, j] = z_j
        events.record("inner_solve_complete", where="inner_solve", outer_iteration=j)
        if inner_callback is not None:
            inner_callback(j, q_j, z_j)

        # ----- reliable operator application and orthogonalization ---------
        ctx.outer_iteration = j
        armed = ctx.arm(j)
        v = op.matvec(z_j)
        matvecs += 1
        if armed:
            v = ctx.inject_vector("spmv", v, iteration=j)
        z_norm = float(np.linalg.norm(z_j))
        h_col = np.zeros(j + 2, dtype=np.float64)
        # With no detector attached and the step unarmed the per-coefficient
        # hooks are pure overhead (they return the value unchanged), so the
        # common configuration skips them entirely — mirroring the no-hook
        # Arnoldi branch.  Both branches perform the identical floating-point
        # operations (asserted bit-for-bit in the tests).
        hooked = armed or detector is not None
        if orthogonalization == "mgs":
            w = v.copy()
            for i in range(j + 1):
                h = float(np.dot(Q[:, i], w))
                if hooked:
                    if armed:
                        h = ctx.inject_scalar("hessenberg", h, iteration=j, mgs_index=i,
                                              mgs_length=j + 1)
                    h = ctx.screen_scalar("outer_hessenberg", h, iteration=j, mgs_index=i,
                                          scale=z_norm)
                h_col[i] = h
                w -= h * Q[:, i]
        else:
            passes = 2 if orthogonalization == "cgs2" else 1
            w = v.copy()
            for _ in range(passes):
                coeffs = Q[:, : j + 1].T @ w
                if hooked:
                    for i in range(j + 1):
                        h = float(coeffs[i])
                        if armed:
                            h = ctx.inject_scalar("hessenberg", h, iteration=j, mgs_index=i,
                                                  mgs_length=j + 1)
                        coeffs[i] = ctx.screen_scalar("outer_hessenberg", h, iteration=j,
                                                      mgs_index=i, scale=z_norm)
                w = w - Q[:, : j + 1] @ coeffs
                h_col[: j + 1] += coeffs

        if armed:
            w = ctx.inject_vector("orth", w, iteration=j)
        h_sub = float(np.linalg.norm(w))
        if armed:
            h_sub = ctx.inject_scalar("subdiag", h_sub, iteration=j)
        h_col[j + 1] = h_sub
        resid_est = hess.add_column(h_col, givens_hook=ctx.givens_hook)
        k = j + 1
        history.append(resid_est)

        # ----- breakdown trichotomy (Section VI-C) --------------------------
        scale = max(float(np.abs(h_col[: j + 1]).max()) if j + 1 > 0 else 0.0, 1.0)
        if h_sub <= BREAKDOWN_TOL * scale:
            if hess.is_rank_deficient(tol=rank_tol):
                events.record("rank_deficient", where="hessenberg", outer_iteration=j,
                              smallest_singular_value=hess.smallest_singular_value())
                status = SolverStatus.RANK_DEFICIENT
            else:
                events.record("happy_breakdown", where="hessenberg", outer_iteration=j)
                status = SolverStatus.HAPPY_BREAKDOWN
            break

        Q[:, j + 1] = w / h_sub

        if np.isfinite(resid_est) and resid_est <= target:
            status = SolverStatus.CONVERGED
            break

    # ----- solution update from the flexible basis Z ------------------------
    if k > 0:
        y, lsq_info = hess.solve_y(policy=policy, tol=lsq_tol)
        if lsq_info.get("fallback"):
            events.record("lsq_fallback", where="least_squares", outer_iteration=k)
        x = x + Z[:, :k] @ y

    r = b - op.matvec(x)
    matvecs += 1
    residual_norm = float(np.linalg.norm(r))

    if status is SolverStatus.MAX_ITERATIONS and residual_norm <= target:
        status = SolverStatus.CONVERGED
    if status is SolverStatus.RANK_DEFICIENT:
        events.record("failure_reported", where="fgmres", outer_iteration=k)

    return SolverResult(
        x=x,
        status=status,
        iterations=k,
        residual_norm=residual_norm,
        history=history,
        events=events,
        matvecs=matvecs,
    )
