"""GMRES with SDC detection, fault-injection hooks and restart.

This implements Algorithm 1 of the paper (Saad & Schultz GMRES with Modified
Gram–Schmidt), extended with:

* optional right preconditioning (so the same routine can serve as the
  preconditioned inner solver of FT-GMRES),
* the Hessenberg-bound detector inserted exactly where the paper prescribes
  (after each orthogonalization coefficient and after the subdiagonal norm),
* the three projected least-squares policies of Section VI-D,
* named fault-injection sites so the experiment harness can corrupt
  individual coefficients,
* restart (GMRES(m)) for long solves.
"""

from __future__ import annotations

import math
from time import perf_counter as _perf_counter

import numpy as np

from repro.core.arnoldi import ArnoldiContext, arnoldi_step
from repro.core.detectors import Detector
from repro.core.hessenberg import HessenbergMatrix
from repro.core.least_squares import LeastSquaresPolicy
from repro.core.status import ConvergenceHistory, SolverResult, SolverStatus
from repro.registry import resolve_detector, resolve_preconditioner_apply
from repro.sparse.linear_operator import LinearOperator, aslinearoperator
from repro.utils.validation import as_dense_vector, check_square

__all__ = ["gmres"]


# NaN/Inf propagation through faulted data is the documented contract, not
# an error: the whole solve runs with those floating-point warnings off (one
# error-state switch per solve keeps the Arnoldi steps free of it).
@np.errstate(invalid="ignore", over="ignore")
def gmres(
    A,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    maxiter: int | None = None,
    restart: int | None = None,
    preconditioner=None,
    orthogonalization: str = "mgs",
    lsq_policy=LeastSquaresPolicy.STANDARD,
    lsq_tol: float | None = None,
    detector: Detector | str | None = None,
    detector_response: str = "flag",
    bound_method: str = "frobenius",
    injector=None,
    events=None,
    profile=None,
    outer_iteration: int = -1,
    inner_solve_index: int = -1,
    iteration_offset: int = 0,
) -> SolverResult:
    """Solve ``A x = b`` with (restarted, right-preconditioned) GMRES.

    Parameters
    ----------
    A : matrix or operator
        Anything accepted by :func:`repro.sparse.aslinearoperator`.
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Initial guess (default: zero vector).
    tol : float
        Relative convergence tolerance on ``||b - A x|| / ||b||``.  Use
        ``tol=0`` to force a fixed number of iterations (the paper's inner
        solves always run their full 25 iterations).
    maxiter : int, optional
        Total iteration budget across restart cycles.  Defaults to ``n``.
    restart : int, optional
        Restart length ``m``.  ``None`` means no restart (full GMRES up to
        ``maxiter``).
    preconditioner : Preconditioner, callable, matrix, registry spec, or None
        Right preconditioner ``M^{-1}`` applied as ``A M^{-1}``.  String/dict
        specs (``"ilu0"``, ``{"name": "ssor", "omega": 1.2}``) resolve
        through :mod:`repro.registry` against ``A``.
    orthogonalization : {"mgs", "cgs", "cgs2"}
        Orthogonalization variant; the paper uses Modified Gram–Schmidt.
    lsq_policy : LeastSquaresPolicy or str
        Policy for the projected least-squares solve (Section VI-D).
    lsq_tol : float, optional
        Singular-value truncation tolerance for the rank-revealing policies.
    detector : Detector, registry spec, or None
        SDC detector applied to every Hessenberg coefficient.  The string
        ``"bound"`` builds a :class:`HessenbergBoundDetector` from ``A``
        using ``bound_method``; any other registered detector spec
        (``"nonfinite"``, ``{"name": "norm_growth", "factor": 1e4}``, ...)
        also resolves here.
    detector_response : {"flag", "zero", "clamp", "recompute", "raise"}
        Response applied when the detector flags a value.
    bound_method : {"frobenius", "two_norm", "exact"}
        Norm used when ``detector="bound"``.
    injector : FaultInjector, optional
        Fault injector with access to the named sites (see
        :mod:`repro.core.arnoldi`).
    events : EventSink, callable, or list of them, optional
        Receives every event the moment it is recorded (anything
        :func:`~repro.results.events.ensure_sink` accepts).  The result's
        ``events`` list holds the same events in the same order, sink or
        not.
    profile : KernelProfile, optional
        Accumulate per-phase wall time (spmv/precond/orth/lsq) into this
        :class:`~repro.utils.profile.KernelProfile`.  ``None`` (the default)
        skips all timing — the hot loop performs no clock reads — and the
        profiled path performs the identical floating-point operations, so
        results match bit for bit either way.  When set, the profile lands
        on the result and a ``kernel_profile`` event is recorded.
    outer_iteration, inner_solve_index, iteration_offset : int
        Bookkeeping for nested (FT-GMRES) use: they position this solve's
        iterations on the "aggregate inner iteration" axis of the paper's
        figures.

    Returns
    -------
    SolverResult
    """
    op: LinearOperator = aslinearoperator(A)
    n = check_square(op.shape, "A")
    b = as_dense_vector(b, n, "b")
    x = as_dense_vector(x0, n, "x0") if x0 is not None else np.zeros(n, dtype=np.float64)

    if maxiter is None:
        maxiter = n
    if maxiter <= 0:
        raise ValueError(f"maxiter must be positive, got {maxiter}")
    m = restart if restart is not None else maxiter
    if m <= 0:
        raise ValueError(f"restart must be positive, got {restart}")
    m = min(m, maxiter)
    policy = LeastSquaresPolicy.coerce(lsq_policy)
    det = resolve_detector(detector, A=A, bound_method=bound_method)
    apply_precond = resolve_preconditioner_apply(preconditioner, n=n, A=A)

    history = ConvergenceHistory()
    ctx = ArnoldiContext(
        injector=injector,
        detector=det,
        detector_response=detector_response,
        sink=events,
        outer_iteration=outer_iteration,
        inner_solve_index=inner_solve_index,
        iteration_offset=iteration_offset,
    )

    norm_b = float(np.linalg.norm(b))
    target = tol * norm_b if norm_b > 0.0 else tol

    # Armed steps consult the injector at the "precond" (preconditioned
    # vector) and "givens" (rotation coefficients, ``ctx.givens_hook``)
    # sites with the live iteration context; unarmed steps skip both and
    # perform the identical floating-point operations.
    precond_apply = apply_precond
    if apply_precond is not None and injector is not None:
        def precond_apply(q, _mi=apply_precond, _ctx=ctx):
            z = np.asarray(_mi(q), dtype=np.float64)
            if not _ctx.armed:
                return z
            return _ctx.inject_vector("precond", z, iteration=_ctx.current_iteration)

    if profile is None:
        if precond_apply is None:
            operator_apply = None  # arnoldi_step will call op.matvec directly
        else:
            def operator_apply(q, _op=op.matvec, _mi=precond_apply):
                return _op(_mi(q))
    else:
        # Timed closures pass values through unchanged (conforming float64
        # vectors survive arnoldi_step's asarray untouched), so profiling
        # never perturbs the arithmetic.
        timed_matvec = profile.timed("spmv", op.matvec)
        if precond_apply is None:
            operator_apply = timed_matvec
        else:
            def operator_apply(q, _op=timed_matvec,
                               _mi=profile.timed("precond", precond_apply)):
                return _op(_mi(q))

    total_iterations = 0
    status = SolverStatus.MAX_ITERATIONS
    residual_norm = float("nan")
    # Per-solve MGS scratch: arnoldi_step would otherwise allocate an
    # n-vector every iteration (see its ``workspace`` parameter).
    mgs_scratch = np.empty(n, dtype=np.float64)

    # Initial residual (reliable).
    r = b - op.matvec(x)
    ctx.matvecs += 1
    residual_norm = math.sqrt(r.dot(r))
    history.append(residual_norm)
    if residual_norm <= target:
        return SolverResult(x, SolverStatus.CONVERGED, 0, residual_norm, history,
                            ctx.events, ctx.matvecs, profile=profile)

    while total_iterations < maxiter:
        beta = residual_norm  # ||r|| of the current residual
        if not math.isfinite(beta) or beta == 0.0:
            status = SolverStatus.STAGNATED if beta == 0.0 else SolverStatus.MAX_ITERATIONS
            break
        cycle_len = min(m, maxiter - total_iterations)
        # Fortran order makes every basis column contiguous, which is what
        # the BLAS-level dot/axpy kernels of the orthogonalization want.
        # Uninitialized: a step writes column j + 1 before anything reads it.
        basis = np.empty((n, cycle_len + 1), dtype=np.float64, order="F")
        np.divide(r, beta, out=basis[:, 0])
        hess = HessenbergMatrix(cycle_len, beta)

        k = 0
        cycle_status = None
        for j in range(cycle_len):
            if profile is not None:
                hooked_before = profile.spmv_time + profile.precond_time
                step_start = _perf_counter()
            h_col, q_next, breakdown = arnoldi_step(
                op, basis, j, ctx, orthogonalization=orthogonalization,
                apply_operator=operator_apply, workspace=mgs_scratch,
            )
            if profile is not None:
                # Orthogonalization time is the step minus what the timed
                # operator closures already booked to spmv/precond.
                hooked = (profile.spmv_time + profile.precond_time) - hooked_before
                profile.add("orth", _perf_counter() - step_start - hooked)
                lsq_start = _perf_counter()
            resid_est = hess.add_column(h_col, givens_hook=ctx.givens_hook)
            if profile is not None:
                profile.add("lsq", _perf_counter() - lsq_start)
            total_iterations += 1
            k = j + 1
            history.append(resid_est)
            if breakdown:
                cycle_status = SolverStatus.HAPPY_BREAKDOWN
                break
            if math.isfinite(resid_est) and resid_est <= target:
                cycle_status = SolverStatus.CONVERGED
                break

        # Form the solution update from this cycle.
        if k > 0:
            if profile is not None:
                lsq_start = _perf_counter()
            y, lsq_info = hess.solve_y(policy=policy, tol=lsq_tol)
            if profile is not None:
                profile.add("lsq", _perf_counter() - lsq_start)
            if lsq_info.get("fallback"):
                ctx.record("lsq_fallback", where="least_squares",
                           outer_iteration=outer_iteration, inner_iteration=total_iterations)
            if not lsq_info.get("finite", True):
                ctx.record("lsq_nonfinite", where="least_squares",
                           outer_iteration=outer_iteration, inner_iteration=total_iterations)
            update = basis[:, :k] @ y
            if apply_precond is not None:
                update = apply_precond(update)
            x = x + update

        # True residual for the next cycle / convergence confirmation.
        r = b - op.matvec(x)
        ctx.matvecs += 1
        residual_norm = math.sqrt(r.dot(r))

        if cycle_status is SolverStatus.HAPPY_BREAKDOWN:
            # In exact, fault-free arithmetic a happy breakdown means the exact
            # solution was found.  Under SDC the subdiagonal can collapse
            # spuriously (e.g. a huge corrupted coefficient makes the new basis
            # vector a duplicate), so verify the claim against the reliably
            # computed residual before declaring success; otherwise keep
            # iterating (restart) if budget remains, or report stagnation.
            breakdown_target = max(target, 1e-13 * norm_b)
            if residual_norm <= breakdown_target:
                status = SolverStatus.HAPPY_BREAKDOWN
                break
            ctx.record("spurious_breakdown", where="gmres",
                       outer_iteration=outer_iteration,
                       inner_iteration=total_iterations,
                       residual_norm=residual_norm)
            if total_iterations >= maxiter:
                status = SolverStatus.STAGNATED
                break
            continue
        if cycle_status is SolverStatus.CONVERGED and residual_norm <= max(target, 0.0) * (1 + 1e-8):
            status = SolverStatus.CONVERGED
            break
        if cycle_status is SolverStatus.CONVERGED:
            # The Givens estimate said converged but the true residual
            # disagrees (possible under SDC): keep iterating if budget allows.
            if total_iterations >= maxiter:
                status = SolverStatus.MAX_ITERATIONS
                break
            continue
        if total_iterations >= maxiter:
            status = SolverStatus.MAX_ITERATIONS
            break

    if profile is not None:
        ctx.record("kernel_profile", where="gmres",
                   outer_iteration=outer_iteration,
                   inner_iteration=total_iterations,
                   profile=profile.to_dict())
    return SolverResult(
        x=x,
        status=status,
        iterations=total_iterations,
        residual_norm=residual_norm,
        history=history,
        events=ctx.events,
        matvecs=ctx.matvecs,
        profile=profile,
    )
