"""The upper Hessenberg matrix produced by the Arnoldi process.

GMRES builds ``H`` one column per iteration; :class:`HessenbergMatrix` stores
the growing matrix, maintains the incremental Givens-rotation QR
factorization that Saad and Schultz use to solve the projected least-squares
problem in O(k) extra work per iteration, and answers the rank(-deficiency)
test behind FGMRES's trichotomy (Section VI-C).
"""

from __future__ import annotations

import numpy as np

from repro.core.least_squares import IncrementalGivensQR, LeastSquaresPolicy

__all__ = ["HessenbergMatrix"]


class HessenbergMatrix:
    """A growing ``(k+1) x k`` upper Hessenberg matrix with incremental QR.

    Parameters
    ----------
    max_columns : int
        Maximum number of Arnoldi steps (restart length); storage is
        allocated once up front to avoid repeated reallocation in the solver
        hot loop.
    beta : float
        Norm of the initial residual; the projected least-squares right-hand
        side is ``beta * e_1``.
    """

    def __init__(self, max_columns: int, beta: float = 0.0):
        if max_columns <= 0:
            raise ValueError(f"max_columns must be positive, got {max_columns}")
        m = int(max_columns)
        self.max_columns = m
        self._H = np.zeros((m + 1, m), dtype=np.float64)
        # Incremental QR state lives in the least-squares layer: rotations
        # are reused across iterations, never recomputed.
        self._qr = IncrementalGivensQR(m, beta)
        self.beta = float(beta)

    # ------------------------------------------------------------------ #
    # column insertion and incremental QR
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Number of completed columns."""
        return self._qr.k

    def add_column(self, column: np.ndarray, givens_hook=None) -> float:
        """Append the ``k``-th Arnoldi column and update the QR factorization.

        Parameters
        ----------
        column : array_like
            The ``k+2`` values ``h_{1,k+1}, ..., h_{k+2,k+1}`` (i.e. the
            orthogonalization coefficients plus the subdiagonal norm) of the
            new column, where ``k`` is the current number of columns.
        givens_hook : callable, optional
            The ``"givens"`` injection site, forwarded to
            :meth:`IncrementalGivensQR.add_column` (``hook(c, s) -> (c, s)``
            on the new rotation).  ``None`` performs the identical
            floating-point operations with no hook overhead.

        Returns
        -------
        float
            The updated least-squares residual norm ``|g_{k+1}|`` — GMRES's
            monotone residual estimate.
        """
        j = self._qr.k
        if j >= self.max_columns:
            raise RuntimeError("HessenbergMatrix is full; increase max_columns")
        if not (isinstance(column, np.ndarray) and column.ndim == 1
                and column.dtype == np.float64):
            column = np.asarray(column, dtype=np.float64).ravel()
        if column.shape[0] != j + 2:
            raise ValueError(
                f"column {j} must have {j + 2} entries, got {column.shape[0]}"
            )
        self._H[: j + 2, j] = column
        return self._qr.add_column(column, givens_hook=givens_hook)

    def prefix(self, k: int, max_columns: int) -> "HessenbergMatrix":
        """A copy of the matrix and its QR as they stood after the first ``k`` columns.

        ``max_columns`` sizes the copy's storage, so a solver can keep
        appending to it (see :class:`repro.core.fgmres.OuterState`).
        """
        out = HessenbergMatrix(max_columns, self.beta)
        out._qr = self._qr.prefix(k, max_columns)
        out._H[: k + 1, :k] = self._H[: k + 1, :k]
        return out

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def H(self) -> np.ndarray:
        """The current ``(k+1) x k`` Hessenberg matrix (a copy-free view)."""
        return self._H[: self.k + 1, : self.k]

    @property
    def R(self) -> np.ndarray:
        """Upper-triangular factor of the QR factorization, shape ``k x k``."""
        return self._qr.R

    @property
    def g(self) -> np.ndarray:
        """The rotated right-hand side ``Q^T (beta e1)``, length ``k+1``."""
        return self._qr.g

    def solve_y(self, policy=LeastSquaresPolicy.STANDARD) -> tuple[np.ndarray, dict]:
        """Solve for the update coefficients from the maintained factorization.

        The STANDARD policy back-substitutes the incrementally maintained
        triangular system (no re-factorization, Inf/NaN propagation intact);
        the rank-revealing policies are handed the full Hessenberg matrix, as
        the solvers did before (see :func:`solve_projected_lsq`).
        """
        policy = LeastSquaresPolicy.coerce(policy)
        H = self.H if policy is not LeastSquaresPolicy.STANDARD else None
        return self._qr.solve(policy=policy, H=H, beta=self.beta)

    @property
    def square(self) -> np.ndarray:
        """The leading ``k x k`` square block ``H(1:k, 1:k)``."""
        return self._H[: self.k, : self.k]

    def least_squares_residual(self) -> float:
        """Current GMRES residual estimate ``|g_{k+1}|``."""
        return self._qr.residual_estimate()

    # ------------------------------------------------------------------ #
    # the rank test of FGMRES's trichotomy
    # ------------------------------------------------------------------ #
    def smallest_singular_value(self) -> float:
        """Smallest singular value of the square block ``H(1:k, 1:k)``."""
        if self.k == 0:
            return 0.0
        s = np.linalg.svd(self.square, compute_uv=False)
        return float(s[-1])

    def numerical_rank(self) -> int:
        """Numerical rank of ``H(1:k, 1:k)``: singular values below
        ``k * eps * sigma_max`` count as zero, as in
        ``numpy.linalg.matrix_rank``."""
        if self.k == 0:
            return 0
        square = self.square
        if not np.all(np.isfinite(square)):
            finite = np.nan_to_num(square, nan=0.0, posinf=0.0, neginf=0.0)
            square = finite
        s = np.linalg.svd(square, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        tol = self.k * np.finfo(np.float64).eps
        return int(np.count_nonzero(s > tol * s[0]))

    def is_rank_deficient(self) -> bool:
        """True if ``H(1:k, 1:k)`` is numerically rank deficient.

        This is the third branch of FGMRES's trichotomy.  (We use a small
        dense SVD rather than an updatable rank-revealing ULV decomposition;
        the paper notes Stewart's O(k^2) update as the production choice, but
        k is at most the restart length so the O(k^3) SVD is negligible next
        to the SpMV and orthogonalization costs.)
        """
        return self.numerical_rank() < self.k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HessenbergMatrix(k={self.k}, max_columns={self.max_columns})"
