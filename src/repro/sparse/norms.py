"""Matrix norms and the Hessenberg-entry bound.

The paper's detector (Section V) relies on the chain of inequalities

    |h_ij|  <=  ||A q_j||_2  <=  ||A||_2  <=  ||A||_F

so the library provides both the Frobenius norm (cheap, one pass over the
stored entries) and a power-method estimate of the 2-norm (the largest
singular value).
:func:`hessenberg_bound` packages the paper's recommended choice.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.linear_operator import LinearOperator, aslinearoperator
from repro.utils.rng import as_generator

__all__ = [
    "frobenius_norm",
    "two_norm_estimate",
    "hessenberg_bound",
]


def frobenius_norm(A) -> float:
    """Frobenius norm ``||A||_F = sqrt(sum a_ij^2)``.

    Accepts a :class:`CSRMatrix`, a dense array, or a ``scipy.sparse`` matrix.
    For sparse input this is a single vectorized pass over the stored values.
    """
    if isinstance(A, CSRMatrix):
        return float(np.sqrt(np.sum(A.data * A.data)))
    if isinstance(A, np.ndarray):
        return float(np.linalg.norm(A, "fro"))
    if hasattr(A, "data"):
        data = np.asarray(A.data, dtype=np.float64).ravel()
        return float(np.sqrt(np.sum(data * data)))
    raise TypeError(f"cannot compute the Frobenius norm of a {type(A).__name__}")


def two_norm_estimate(A, tol: float = 1e-8, maxiter: int = 200, seed=0) -> float:
    """Estimate ``||A||_2`` (the largest singular value) by power iteration.

    The iteration is run on ``A.T A`` through repeated ``matvec``/``rmatvec``
    calls, so it works for any :class:`LinearOperator` that provides both.
    The estimate converges from below, which makes it a slightly optimistic
    detector threshold; the paper notes the Frobenius norm as the safe,
    cheaper alternative (:func:`hessenberg_bound` defaults to Frobenius).

    Parameters
    ----------
    A : matrix or operator
        Anything accepted by :func:`repro.sparse.aslinearoperator`.
    tol : float
        Relative change in the estimate at which to stop.
    maxiter : int
        Maximum number of power iterations.
    seed : int or numpy.random.Generator
        Seed for the random start vector.
    """
    op: LinearOperator = aslinearoperator(A)
    rng = as_generator(seed)
    n = op.shape[1]
    if n == 0:
        return 0.0
    v = rng.standard_normal(n)
    v_norm = np.linalg.norm(v)
    if v_norm == 0.0:  # pragma: no cover - probability zero
        v = np.ones(n)
        v_norm = np.sqrt(n)
    v /= v_norm
    sigma = 0.0
    for _ in range(maxiter):
        w = op.matvec(v)
        z = op.rmatvec(w)
        z_norm = np.linalg.norm(z)
        if z_norm == 0.0:
            return 0.0
        new_sigma = float(np.sqrt(np.dot(v, z))) if np.dot(v, z) > 0 else float(np.sqrt(z_norm))
        v = z / z_norm
        if sigma > 0 and abs(new_sigma - sigma) <= tol * new_sigma:
            sigma = new_sigma
            break
        sigma = new_sigma
    return float(sigma)


def hessenberg_bound(A, method: str = "frobenius") -> float:
    """The paper's upper bound on any Hessenberg entry produced by Arnoldi.

    Parameters
    ----------
    A : matrix or operator
        The system matrix (or preconditioned operator) given to GMRES.
    method : {"frobenius", "two_norm", "exact"}
        * ``"frobenius"`` — ``||A||_F`` (default; cheapest and an upper
          bound on ``||A||_2``, Eq. (3) of the paper).
        * ``"two_norm"`` — power-method estimate of ``||A||_2`` (tighter).
        * ``"exact"`` — dense SVD; only sensible for small matrices and used
          in tests to validate the estimates.

    Returns
    -------
    float
        A value ``B`` such that, in exact arithmetic, every ``|h_ij| <= B``.
    """
    if method == "frobenius":
        if isinstance(A, (CSRMatrix, np.ndarray)) or hasattr(A, "data"):
            return frobenius_norm(A)
        raise TypeError(
            "frobenius bound requires a materialized matrix; "
            "use method='two_norm' for matrix-free operators"
        )
    if method == "two_norm":
        return two_norm_estimate(A)
    if method == "exact":
        dense = A.todense() if hasattr(A, "todense") else np.asarray(A, dtype=np.float64)
        dense = np.asarray(dense, dtype=np.float64)
        if dense.size == 0:
            return 0.0
        return float(np.linalg.svd(dense, compute_uv=False)[0])
    raise ValueError(f"unknown bound method {method!r}")
