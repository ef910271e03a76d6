"""Reference implementations and matrix generators the test suite compares against.

None of these run on a product path; tests import them as ``from reference
import ...`` (``tests/`` is on ``sys.path`` under pytest).

* :func:`householder_arnoldi` — Arnoldi with Householder orthogonalization,
  the check of the paper's Section V-B claim that the Hessenberg-entry bound
  "is invariant of the orthogonalization algorithm chosen".  It follows
  Walker's formulation (SIAM J. Sci. Stat. Comput., 1988): reflectors
  ``P_0 ... P_k`` are accumulated so that
  ``P_k ... P_0 [v0, A q_1, ..., A q_k]`` is upper trapezoidal, the basis
  vectors are ``q_j = P_0 ... P_j e_j``, and the Hessenberg columns are read
  off the reflected vectors.
* :func:`scipy_gmres` — ``scipy.sparse.linalg.gmres`` with its answer as a
  :class:`~repro.core.status.SolverResult`, the cross-check of our GMRES.
* :func:`poisson1d`, :func:`poisson3d`, :func:`random_sparse`,
  :func:`diagonally_dominant`, :func:`tridiagonal` and :func:`spd_random` —
  matrices with spectra the paper's two problems do not cover.
"""

from __future__ import annotations

import numpy as np

from repro.core.status import ConvergenceHistory, SolverResult, SolverStatus
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.linear_operator import aslinearoperator
from repro.utils.rng import as_generator
from repro.utils.validation import require_positive_int


# ---------------------------------------------------------------------- #
# Householder Arnoldi (Section V-B)
# ---------------------------------------------------------------------- #
def _householder_vector(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Return ``(w, beta)`` such that ``(I - beta w w^T) x = -sign(x0)*||x|| e_1``.

    ``beta`` is zero when ``x`` is (numerically) zero, in which case the
    reflector is the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    norm_x = np.linalg.norm(x)
    w = x.copy()
    if norm_x == 0.0:
        return w, 0.0
    sign = 1.0 if x[0] >= 0.0 else -1.0
    w[0] += sign * norm_x
    norm_w = np.linalg.norm(w)
    if norm_w == 0.0:  # pragma: no cover - only for x = -sign*norm*e1 exactly
        return w, 0.0
    w /= norm_w
    return w, 2.0


def _apply_reflectors(w_list, betas, vec, start: int, stop: int, forward: bool) -> np.ndarray:
    """Apply reflectors ``P_start ... P_{stop-1}`` (or reversed) to ``vec`` in place."""
    indices = range(start, stop) if forward else range(stop - 1, start - 1, -1)
    for i in indices:
        beta = betas[i]
        if beta == 0.0:
            continue
        w = w_list[i]
        # Reflector i acts on components i: (w is stored full-length, zero above i).
        vec = vec - beta * w * np.dot(w, vec)
    return vec


def householder_arnoldi(A, v0: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Run ``m`` Arnoldi steps using Householder orthogonalization.

    Parameters
    ----------
    A : matrix or operator
        Square operator.
    v0 : array_like
        Nonzero start vector.
    m : int
        Number of Arnoldi steps (capped at the matrix dimension).

    Returns
    -------
    Q : numpy.ndarray
        Orthonormal basis of the Krylov space, shape ``(n, k+1)`` with
        ``k <= m`` completed steps.
    H : numpy.ndarray
        The ``(k+1) x k`` upper Hessenberg matrix satisfying
        ``A Q[:, :k] = Q H`` (up to rounding).
    breakdown : bool
        True if an invariant subspace was found before ``m`` steps.

    Notes
    -----
    Each Hessenberg column produced here satisfies the same bound
    ``|h_ij| <= ||A||_2 <= ||A||_F`` as the Gram–Schmidt variants, because
    the reflectors are orthogonal: the column is an orthogonal transformation
    of ``A q_j``, whose norm is at most ``||A||_2``.
    """
    op = aslinearoperator(A)
    n = op.shape[1]
    v0 = np.asarray(v0, dtype=np.float64).ravel()
    if v0.shape[0] != n:
        raise ValueError(f"v0 has length {v0.shape[0]}, expected {n}")
    if np.linalg.norm(v0) == 0.0:
        raise ValueError("v0 must be nonzero")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    m = min(m, n)

    w_list: list[np.ndarray] = []
    betas: list[float] = []
    Q = np.zeros((n, m + 1), dtype=np.float64)
    H = np.zeros((m + 1, m), dtype=np.float64)

    # Reflector 0 maps v0 to a multiple of e_0; q_0 = P_0 e_0.
    z = v0.copy()
    breakdown = False
    k = 0
    for j in range(m + 1):
        if j == n:
            # The Krylov space has filled R^n: there is no (n+1)-st basis
            # vector or reflector, and the final Hessenberg column is the
            # fully reflected z with an implicit zero subdiagonal entry.
            H[:n, j - 1] = z[:n]
            k = m
            break
        # Build reflector j from the trailing part of z (components j:).
        w = np.zeros(n, dtype=np.float64)
        tail = z[j:]
        w_tail, beta = _householder_vector(tail)
        w[j:] = w_tail
        w_list.append(w)
        betas.append(beta)

        # The reflected vector: entries 0..j of P_j z are the Hessenberg column
        # for the previous step (for j = 0 it is just beta * e_0, the start).
        reflected = z - beta * w * np.dot(w, z) if beta != 0.0 else z.copy()
        if j > 0:
            H[: j + 1, j - 1] = reflected[: j + 1]

        # Basis vector q_j = P_0 ... P_j e_j.
        e_j = np.zeros(n, dtype=np.float64)
        e_j[j] = 1.0
        q_j = _apply_reflectors(w_list, betas, e_j, 0, j + 1, forward=False)
        Q[:, j] = q_j

        if j == m:
            k = m
            break
        # Check for breakdown: after the first step the subdiagonal entry
        # h_{j+1, j} is |reflected[j+1..]| collapsed into reflected[j] by the
        # next reflector; a zero tail of the *next* z signals an invariant
        # subspace, detected below once z is formed.
        z = op.matvec(q_j)
        # Apply all existing reflectors P_j ... P_0 to A q_j.
        z = _apply_reflectors(w_list, betas, z, 0, j + 1, forward=True)
        if np.linalg.norm(z[j + 1:]) <= 1e-14 * max(np.linalg.norm(z), 1.0):
            # The next column has no component outside the current space.
            end = min(j + 2, n)
            H[:end, j] = z[:end]
            k = j + 1
            breakdown = True
            break
        k = j + 1

    # Note: unlike the Gram-Schmidt variants, the Householder basis vectors
    # carry the reflectors' sign convention (subdiagonal entries may be
    # negative).  The factorization A Q_k = Q_{k+1} H_k and the entry bound
    # |h_ij| <= ||A||_2 are unaffected.
    return Q[:, : k + 1], H[: k + 1, : k], breakdown


# ---------------------------------------------------------------------- #
# SciPy cross-check
# ---------------------------------------------------------------------- #
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


# ---------------------------------------------------------------------- #
# Matrix generators
# ---------------------------------------------------------------------- #
def poisson1d(n: int) -> CSRMatrix:
    """1-D Poisson (second-difference) matrix: tridiagonal ``[-1, 2, -1]``.

    Parameters
    ----------
    n : int
        Number of interior grid points (matrix dimension).
    """
    n = require_positive_int(n, "n")
    idx = np.arange(n, dtype=np.int64)
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 2.0)]
    if n > 1:
        rows += [idx[:-1], idx[1:]]
        cols += [idx[1:], idx[:-1]]
        vals += [np.full(n - 1, -1.0), np.full(n - 1, -1.0)]
    coo = COOMatrix((n, n), rows=np.concatenate(rows), cols=np.concatenate(cols),
                    values=np.concatenate(vals))
    return coo.tocsr()


def poisson3d(n: int) -> CSRMatrix:
    """3-D Poisson 7-point stencil on an ``n x n x n`` grid (``n^3`` rows).

    Diagonal 6, off-diagonals -1 for the six neighbours; SPD.  Used by the
    wider test suite and scaling benchmarks, not by the paper itself.
    """
    n = require_positive_int(n, "n")
    N = n * n * n
    i = np.arange(N, dtype=np.int64)
    ix = i % n
    iy = (i // n) % n
    iz = i // (n * n)

    rows = [i]
    cols = [i]
    vals = [np.full(N, 6.0)]

    for mask, offset in (
        (ix > 0, -1),
        (ix < n - 1, +1),
        (iy > 0, -n),
        (iy < n - 1, +n),
        (iz > 0, -n * n),
        (iz < n - 1, +n * n),
    ):
        rows.append(i[mask])
        cols.append(i[mask] + offset)
        vals.append(np.full(int(mask.sum()), -1.0))

    coo = COOMatrix((N, N), rows=np.concatenate(rows), cols=np.concatenate(cols),
                    values=np.concatenate(vals))
    return coo.tocsr()


def random_sparse(n: int, density: float = 0.05, seed=0, value_scale: float = 1.0) -> CSRMatrix:
    """A random ``n x n`` sparse matrix with approximately ``density * n**2`` entries.

    Values are standard normal scaled by ``value_scale``; the diagonal is
    always included (set to ``n * density + 1`` times a positive random
    value) so the matrix is comfortably nonsingular.
    """
    n = require_positive_int(n, "n")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = as_generator(seed)
    nnz_target = max(n, int(round(density * n * n)))
    rows = rng.integers(0, n, size=nnz_target).astype(np.int64)
    cols = rng.integers(0, n, size=nnz_target).astype(np.int64)
    vals = rng.standard_normal(nnz_target) * value_scale
    diag_idx = np.arange(n, dtype=np.int64)
    diag_vals = (n * density + 1.0) * (1.0 + rng.random(n)) * value_scale
    coo = COOMatrix(
        (n, n),
        rows=np.concatenate([rows, diag_idx]),
        cols=np.concatenate([cols, diag_idx]),
        values=np.concatenate([vals, diag_vals]),
    )
    return coo.tocsr()


def diagonally_dominant(n: int, density: float = 0.05, dominance: float = 2.0,
                        seed=0) -> CSRMatrix:
    """A strictly row-diagonally-dominant random matrix (guaranteed nonsingular).

    Off-diagonal entries are random; each diagonal entry is set to
    ``dominance`` times the absolute row sum of the off-diagonals (plus one).
    """
    n = require_positive_int(n, "n")
    if dominance <= 1.0:
        raise ValueError(f"dominance must exceed 1.0, got {dominance}")
    rng = as_generator(seed)
    nnz_target = max(n, int(round(density * n * n)))
    rows = rng.integers(0, n, size=nnz_target).astype(np.int64)
    cols = rng.integers(0, n, size=nnz_target).astype(np.int64)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    vals = rng.standard_normal(rows.shape[0])

    rowsum = np.zeros(n)
    np.add.at(rowsum, rows, np.abs(vals))
    diag_idx = np.arange(n, dtype=np.int64)
    diag_vals = dominance * rowsum + 1.0

    coo = COOMatrix(
        (n, n),
        rows=np.concatenate([rows, diag_idx]),
        cols=np.concatenate([cols, diag_idx]),
        values=np.concatenate([vals, diag_vals]),
    )
    return coo.tocsr()


def tridiagonal(n: int, lower: float = -1.0, diag: float = 2.0, upper: float = -1.0) -> CSRMatrix:
    """A Toeplitz tridiagonal matrix ``tridiag(lower, diag, upper)``.

    With ``lower != upper`` this is the simplest nonsymmetric matrix for
    which the Arnoldi Hessenberg matrix is *not* tridiagonal, which the
    structure tests (Figure 2) rely on.
    """
    n = require_positive_int(n, "n")
    idx = np.arange(n, dtype=np.int64)
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, float(diag))]
    if n > 1:
        rows += [idx[1:], idx[:-1]]
        cols += [idx[:-1], idx[1:]]
        vals += [np.full(n - 1, float(lower)), np.full(n - 1, float(upper))]
    coo = COOMatrix((n, n), rows=np.concatenate(rows), cols=np.concatenate(cols),
                    values=np.concatenate(vals))
    return coo.tocsr()


def spd_random(n: int, density: float = 0.1, shift: float = 1.0, seed=0) -> CSRMatrix:
    """A random sparse symmetric positive-definite matrix ``B B^T + shift I``."""
    n = require_positive_int(n, "n")
    rng = as_generator(seed)
    B = random_sparse(n, density=density, seed=rng)
    dense = B.todense()
    spd = dense @ dense.T
    spd += float(shift) * np.eye(n)
    # Drop tiny fill-in so the CSR stays reasonably sparse for small tests.
    tol = 1e-14 * max(1.0, np.abs(spd).max())
    return CSRMatrix.from_dense(spd, tol=tol)
