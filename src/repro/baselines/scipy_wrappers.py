"""Cross-validation wrappers around SciPy's Krylov solvers.

Used by the test suite (and available to users) to confirm that our GMRES
implementation produces solutions of the same quality as a mature reference
implementation on the same problems.
"""

from __future__ import annotations

import numpy as np

from repro.core.status import ConvergenceHistory, SolverResult, SolverStatus
from repro.sparse.csr import CSRMatrix

__all__ = ["scipy_gmres"]


def scipy_gmres(A, b, x0=None, *, tol: float = 1e-8, maxiter: int | None = None,
                restart: int | None = None) -> SolverResult:
    """Solve ``A x = b`` with ``scipy.sparse.linalg.gmres``.

    Parameters mirror :func:`repro.core.gmres.gmres` where applicable.  The
    result is converted into our :class:`SolverResult` (without a per-
    iteration history, which SciPy does not expose directly — the callback
    residuals are collected instead).
    """
    import scipy.sparse.linalg as spla

    mat = A.to_scipy() if isinstance(A, CSRMatrix) else A
    b = np.asarray(b, dtype=np.float64).ravel()
    history = ConvergenceHistory()

    def callback(res):
        history.append(float(res))

    x, info = spla.gmres(
        mat, b, x0=x0, rtol=tol, atol=0.0, maxiter=maxiter, restart=restart,
        callback=callback, callback_type="pr_norm",
    )
    residual = float(np.linalg.norm(b - mat @ x))
    status = SolverStatus.CONVERGED if info == 0 else SolverStatus.MAX_ITERATIONS
    iterations = len(history)
    return SolverResult(
        x=np.asarray(x, dtype=np.float64),
        status=status,
        iterations=iterations,
        residual_norm=residual,
        history=history,
        matvecs=iterations,
    )
