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
* :func:`reference_arnoldi_step`, :func:`reference_givens_rotation`,
  :class:`ReferenceGivensQR`, :func:`reference_solve_triangular`,
  :func:`reference_gmres` and :func:`reference_fgmres` — the inner solve's
  unarmed arithmetic (and FGMRES's outer step) written with plain NumPy
  calls (``np.dot``, ``w - h * q``, ``np.linalg.norm``, ``np.sqrt``, NumPy
  scalars in the Givens recurrence): the bit-for-bit oracle for the
  library's lean hot loop.
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


# ---------------------------------------------------------------------- #
# the inner solve's arithmetic in plain NumPy (bit-for-bit oracle)
# ---------------------------------------------------------------------- #
def reference_breakdown(h_col: np.ndarray, norm_v: float, tol: float = 1e-14) -> bool:
    """The happy-breakdown test: ``norm_v <= tol * max(max |h_ij|, 1)``.

    A NaN coefficient makes the scale NaN, which vetoes the breakdown.
    """
    scale = max(np.abs(h_col[:-1]).max(), 1.0)
    return bool(np.isfinite(norm_v) and norm_v <= tol * scale)


def reference_arnoldi_step(matvec, basis: np.ndarray, j: int):
    """The unarmed MGS Arnoldi step: ``(h_col, q_next, breakdown)``.

    Writes column ``j + 1`` of ``basis`` unless the step breaks down; a
    non-finite norm poisons it with NaN.
    """
    v = matvec(basis[:, j])
    Q = basis[:, : j + 1]
    h_col = np.zeros(j + 2)
    w = v.copy()
    for i in range(j + 1):
        q_i = Q[:, i]
        h = np.dot(q_i, w)
        h_col[i] = h
        w = w - h * q_i
    norm_v = float(np.linalg.norm(w))
    h_col[j + 1] = norm_v
    if not np.isfinite(norm_v):
        q_next = np.full_like(w, np.nan)
        basis[:, j + 1] = q_next
        return h_col, q_next, False
    if reference_breakdown(h_col, norm_v):
        return h_col, None, True
    q_next = w / norm_v
    basis[:, j + 1] = q_next
    return h_col, q_next, False


def reference_givens_rotation(a: float, b: float):
    """``(c, s)`` with ``[c s; -s c] [a; b] = [r; 0]``, NumPy scalars inside."""
    if b == 0.0:
        return 1.0, 0.0
    if a == 0.0:
        return 0.0, 1.0
    if not (np.isfinite(a) and np.isfinite(b)):
        return float("nan"), float("nan")
    if abs(b) > abs(a):
        t = a / b
        s = 1.0 / np.sqrt(1.0 + t * t)
        return s * t, s
    t = b / a
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, c * t


class ReferenceGivensQR:
    """Incremental Givens QR of a growing Hessenberg matrix (no hooks)."""

    def __init__(self, max_columns: int, beta: float):
        self.k = 0
        self.R = np.zeros((max_columns + 1, max_columns))
        self.g = np.zeros(max_columns + 1)
        self.g[0] = float(beta)
        self.cs = [0.0] * max_columns
        self.sn = [0.0] * max_columns

    def add_column(self, column) -> float:
        """Rotate column ``k`` in; returns the residual estimate ``|g_{k+1}|``."""
        j = self.k
        r = [float(v) for v in column]
        for i in range(j):
            c, s = self.cs[i], self.sn[i]
            r_i, r_i1 = r[i], r[i + 1]
            r[i] = c * r_i + s * r_i1
            r[i + 1] = -s * r_i + c * r_i1
        c, s = reference_givens_rotation(r[j], r[j + 1])
        self.cs[j], self.sn[j] = c, s
        r[j] = c * r[j] + s * r[j + 1]
        r[j + 1] = 0.0
        self.R[: j + 2, j] = r
        g_j = float(self.g[j])
        self.g[j] = c * g_j
        self.g[j + 1] = -s * g_j
        self.k = j + 1
        return abs(float(self.g[j + 1]))


def reference_solve_triangular(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back-substitution for ``R y = rhs``; a zero pivot gives Inf/NaN."""
    k = R.shape[1]
    y = np.zeros(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k - 1, -1, -1):
            acc = rhs[i] - np.dot(R[i, i + 1 : k], y[i + 1 : k])
            y[i] = acc / R[i, i]
    return y


def reference_gmres(matvec, b: np.ndarray, restart: int, maxiter: int):
    """Restarted GMRES with ``tol=0``, no detector and no preconditioner.

    Returns ``(x, history)``, where ``history`` is ``||r_0||`` followed by
    every residual estimate.  Raises ``AssertionError`` on a breakdown: the
    library then re-checks the true residual, which this sketch leaves out.
    """
    n = b.shape[0]
    x = np.zeros(n)
    r = b - matvec(x)
    history = [float(np.linalg.norm(r))]
    total = 0
    while total < maxiter:
        beta = float(np.linalg.norm(r))
        cycle_len = min(restart, maxiter - total)
        basis = np.zeros((n, cycle_len + 1), order="F")
        basis[:, 0] = r / beta
        qr = ReferenceGivensQR(cycle_len, beta)
        for j in range(cycle_len):
            h_col, _, breakdown = reference_arnoldi_step(matvec, basis, j)
            assert not breakdown
            history.append(qr.add_column(h_col))
        total += cycle_len
        y = reference_solve_triangular(qr.R[:cycle_len, :cycle_len], qr.g[:cycle_len])
        x = x + basis[:, :cycle_len] @ y
        r = b - matvec(x)
    return x, history


def reference_fgmres(matvec, b: np.ndarray, inner, max_outer: int, tol: float,
                     breakdown_tol: float = 1e-12):
    """Flexible GMRES's outer loop with the STANDARD least-squares policy.

    No detector or injector, and finite inner results.  Returns
    ``(x, history, H, qr)``.
    """
    n = b.shape[0]
    x = np.zeros(n)
    r = b - matvec(x)
    beta = float(np.linalg.norm(r))
    target = tol * float(np.linalg.norm(b))
    Q = np.zeros((n, max_outer + 1), order="F")
    Z = np.zeros((n, max_outer), order="F")
    Q[:, 0] = r / beta
    H = np.zeros((max_outer + 1, max_outer))
    qr = ReferenceGivensQR(max_outer, beta)
    history = [beta]
    k = 0
    for j in range(max_outer):
        z_j = inner(Q[:, j])
        Z[:, j] = z_j
        v = matvec(z_j)
        h_col = np.zeros(j + 2)
        w = v.copy()
        for i in range(j + 1):
            h = float(np.dot(Q[:, i], w))
            h_col[i] = h
            w -= h * Q[:, i]
        h_sub = float(np.linalg.norm(w))
        h_col[j + 1] = h_sub
        H[: j + 2, j] = h_col
        resid_est = qr.add_column(h_col)
        k = j + 1
        history.append(resid_est)
        scale = max(float(np.abs(h_col[: j + 1]).max()), 1.0)
        if h_sub <= breakdown_tol * scale:
            break
        Q[:, j + 1] = w / h_sub
        if np.isfinite(resid_est) and resid_est <= target:
            break
    y = reference_solve_triangular(qr.R[:k, :k], qr.g[:k])
    return x + Z[:, :k] @ y, history, H[: k + 1, :k], qr

