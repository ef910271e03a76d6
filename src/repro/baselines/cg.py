"""Conjugate Gradient (CG) for symmetric positive-definite systems.

The paper's Table I notes that the Poisson problem "could be solved using the
Conjugate Gradient method" while the circuit problem could not.  CG is
included as that baseline, with the same operator abstraction, optional
preconditioning, and event logging as the GMRES family, so the example
scripts can compare iteration counts directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.status import ConvergenceHistory, SolverResult, SolverStatus
from repro.results.events import CollectingSink, Event, MultiSink
from repro.sparse.linear_operator import aslinearoperator
from repro.utils.validation import as_dense_vector, check_square

__all__ = ["cg"]


def cg(
    A,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    maxiter: int | None = None,
    preconditioner=None,
    events=None,
) -> SolverResult:
    """Solve ``A x = b`` with (preconditioned) Conjugate Gradient.

    Parameters
    ----------
    A : matrix or operator
        Symmetric positive-definite operator.  Symmetry is not verified (it
        would cost more than the solve); using CG on a nonsymmetric matrix
        typically stagnates or diverges, which the example scripts
        demonstrate deliberately.
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Initial guess.
    tol : float
        Relative tolerance on ``||b - A x|| / ||b||``.
    maxiter : int, optional
        Iteration budget (default ``n``).
    preconditioner : Preconditioner, callable, matrix, or None
        SPD preconditioner ``M^{-1}``.
    events : EventSink, callable, or list of them, optional
        Receives every event the moment it is recorded (anything
        :func:`~repro.results.events.ensure_sink` accepts).  The result's
        ``events`` list holds the same events in the same order.

    Returns
    -------
    SolverResult
    """
    op = aslinearoperator(A)
    n = check_square(op.shape, "A")
    b = as_dense_vector(b, n, "b")
    x = as_dense_vector(x0, n, "x0") if x0 is not None else np.zeros(n, dtype=np.float64)
    if maxiter is None:
        maxiter = n
    if maxiter <= 0:
        raise ValueError(f"maxiter must be positive, got {maxiter}")

    if preconditioner is None:
        apply_m = None
    elif callable(preconditioner) and not hasattr(preconditioner, "apply"):
        apply_m = preconditioner
    elif hasattr(preconditioner, "apply"):
        apply_m = preconditioner.apply
    else:
        apply_m = aslinearoperator(preconditioner).matvec

    collected = CollectingSink()
    stream = collected if events is None else MultiSink([collected, events])
    history = ConvergenceHistory()

    norm_b = float(np.linalg.norm(b))
    target = tol * norm_b if norm_b > 0.0 else tol

    r = b - op.matvec(x)
    matvecs = 1
    residual_norm = float(np.linalg.norm(r))
    history.append(residual_norm)
    if residual_norm <= target:
        return SolverResult(x, SolverStatus.CONVERGED, 0, residual_norm, history,
                            collected.events, matvecs)

    z = apply_m(r) if apply_m is not None else r
    p = z.copy()
    rz = float(np.dot(r, z))
    status = SolverStatus.MAX_ITERATIONS
    iterations = 0

    for k in range(maxiter):
        Ap = op.matvec(p)
        matvecs += 1
        pAp = float(np.dot(p, Ap))
        if pAp == 0.0 or not np.isfinite(pAp):
            stream.emit(Event("breakdown", where="cg", inner_iteration=k,
                              data={"value": pAp}))
            status = SolverStatus.STAGNATED
            break
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        iterations = k + 1
        residual_norm = float(np.linalg.norm(r))
        history.append(residual_norm)
        if residual_norm <= target:
            status = SolverStatus.CONVERGED
            break
        z = apply_m(r) if apply_m is not None else r
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz if rz != 0.0 else 0.0
        p = z + beta * p
        rz = rz_new

    return SolverResult(x, status, iterations, residual_norm, history, collected.events,
                        matvecs)
