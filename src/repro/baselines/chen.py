"""A checkpoint/rollback fault-tolerance baseline in the spirit of Online-ABFT.

Chen's Online-ABFT (reference [18] of the paper) detects soft errors in
Krylov solvers by periodically verifying solver invariants with extra
computation and communication, and rolls the solver back to the last
checkpoint when a violation is found.  The paper positions its own detector
against this style of scheme: the Hessenberg bound needs no extra reduction
and no checkpointed state.

:func:`gmres_with_rollback` implements the baseline for comparison:

* every ``check_interval`` iterations the solver reliably computes the true
  residual ``||b - A x_k||`` and compares it with the (cheap) Givens
  estimate;
* a relative mismatch larger than ``invariant_tol`` counts as a detected
  fault: the solver discards the current Krylov cycle and restarts from the
  last verified iterate (the rollback);
* the number of verifications, detections, rollbacks, and extra matrix-vector
  products is reported so the overhead can be compared with the in-band
  Hessenberg-bound check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gmres import gmres
from repro.core.status import SolverResult, SolverStatus
from repro.results.events import CollectingSink, Event, MultiSink
from repro.sparse.linear_operator import aslinearoperator
from repro.utils.validation import as_dense_vector, check_square

__all__ = ["RollbackResult", "gmres_with_rollback"]


@dataclass
class RollbackResult:
    """Outcome of a rollback-protected solve.

    Attributes
    ----------
    result : SolverResult
        The final solver state (solution, status, residual).
    verifications : int
        Number of reliable invariant checks performed.
    detections : int
        Number of checks that flagged a violation.
    rollbacks : int
        Number of times the solver rolled back to a checkpoint.
    extra_matvecs : int
        Operator applications spent purely on verification.
    """

    result: SolverResult
    verifications: int
    detections: int
    rollbacks: int
    extra_matvecs: int

    @property
    def x(self) -> np.ndarray:
        """The final iterate."""
        return self.result.x

    @property
    def converged(self) -> bool:
        """Whether the protected solve converged."""
        return self.result.converged


def gmres_with_rollback(
    A,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    maxiter: int = 1000,
    check_interval: int = 10,
    invariant_tol: float = 1e-6,
    max_rollbacks: int = 10,
    injector=None,
    events=None,
    **gmres_options,
) -> RollbackResult:
    """GMRES protected by periodic residual verification and rollback.

    Parameters
    ----------
    A, b, x0 : as in :func:`repro.core.gmres.gmres`.
    tol : float
        Relative convergence tolerance.
    maxiter : int
        Total iteration budget across all segments and retries.
    check_interval : int
        Number of GMRES iterations between reliable verifications; each
        verified segment becomes a checkpoint.
    invariant_tol : float
        Maximum tolerated relative mismatch between the solver's internal
        residual estimate and the reliably recomputed residual.
    max_rollbacks : int
        Give up (status ``FAULT_DETECTED``) after this many rollbacks.
    injector : FaultInjector, optional
        Fault injector threaded through to the underlying GMRES segments.
    events : EventSink, callable, or list of them, optional
        Receives every event the moment it is recorded, the GMRES
        segments' included (anything
        :func:`~repro.results.events.ensure_sink` accepts).  The final
        result's ``events`` list holds the same events in the same order.
    **gmres_options
        Forwarded to :func:`repro.core.gmres.gmres` (orthogonalization,
        least-squares policy, preconditioner, ...).

    Returns
    -------
    RollbackResult
    """
    if check_interval <= 0:
        raise ValueError(f"check_interval must be positive, got {check_interval}")
    op = aslinearoperator(A)
    n = check_square(op.shape, "A")
    b = as_dense_vector(b, n, "b")
    x_checkpoint = as_dense_vector(x0, n, "x0") if x0 is not None else np.zeros(n)

    collected = CollectingSink()
    stream = collected if events is None else MultiSink([collected, events])
    norm_b = float(np.linalg.norm(b))
    target = tol * norm_b if norm_b > 0.0 else tol

    verifications = 0
    detections = 0
    rollbacks = 0
    extra_matvecs = 0
    iterations_used = 0
    last_result: SolverResult | None = None

    while iterations_used < maxiter:
        budget = min(check_interval, maxiter - iterations_used)
        segment = gmres(
            A, b, x_checkpoint,
            tol=tol, maxiter=budget, restart=budget,
            injector=injector, events=stream, **gmres_options,
        )
        iterations_used += max(segment.iterations, 1)
        last_result = segment

        # Reliable verification: recompute the true residual and compare it
        # with the solver's *internal* (Givens) residual estimate — the
        # quantity a fault in the projected problem corrupts.  The mismatch is
        # normalized by ||b|| so a converged segment (both values tiny) does
        # not trigger a spurious rollback.
        true_residual = float(np.linalg.norm(b - op.matvec(segment.x)))
        extra_matvecs += 1
        verifications += 1
        reported = float(segment.history.final)
        mismatch = abs(true_residual - reported) / max(norm_b, 1e-300)
        invariant_ok = np.isfinite(true_residual) and mismatch <= invariant_tol

        if not invariant_ok:
            detections += 1
            stream.emit(Event("rollback_detection", where="chen_verify",
                              inner_iteration=iterations_used,
                              data={"true_residual": true_residual, "reported": reported,
                                    "mismatch": mismatch}))
            rollbacks += 1
            if rollbacks > max_rollbacks:
                final = SolverResult(
                    x=x_checkpoint,
                    status=SolverStatus.FAULT_DETECTED,
                    iterations=iterations_used,
                    residual_norm=float(np.linalg.norm(b - op.matvec(x_checkpoint))),
                    history=segment.history,
                    events=collected.events,
                    matvecs=segment.matvecs,
                )
                return RollbackResult(final, verifications, detections, rollbacks, extra_matvecs)
            # Roll back: discard the segment, resume from the checkpoint.
            continue

        # Verified: promote the segment result to the new checkpoint.
        x_checkpoint = segment.x
        if true_residual <= target:
            final = SolverResult(
                x=x_checkpoint,
                status=SolverStatus.CONVERGED,
                iterations=iterations_used,
                residual_norm=true_residual,
                history=segment.history,
                events=collected.events,
                matvecs=segment.matvecs,
            )
            return RollbackResult(final, verifications, detections, rollbacks, extra_matvecs)

    final_residual = float(np.linalg.norm(b - op.matvec(x_checkpoint)))
    final = SolverResult(
        x=x_checkpoint,
        status=SolverStatus.MAX_ITERATIONS if last_result is None else last_result.status,
        iterations=iterations_used,
        residual_norm=final_residual,
        history=last_result.history if last_result is not None else None,
        events=collected.events,
        matvecs=last_result.matvecs if last_result is not None else 0,
    )
    if final.history is None:
        from repro.core.status import ConvergenceHistory

        final.history = ConvergenceHistory()
    if final_residual <= target:
        final.status = SolverStatus.CONVERGED
    return RollbackResult(final, verifications, detections, rollbacks, extra_matvecs)
