"""ILU(0): incomplete LU factorization with zero fill-in.

The factorization keeps exactly the sparsity pattern of ``A`` (the classic
IKJ variant of Saad, *Iterative Methods for Sparse Linear Systems*, Alg.
10.4).  It is the strongest of the bundled preconditioners for the
convection–diffusion and circuit problems and is exercised by the ablation
benchmarks.

Performance architecture: the IKJ elimination keeps only the outer row loop
and the inherently sequential k-loop in Python — the row-k update is one
vectorized scatter through a precomputed column→position map — and the
factors are handed to :class:`~repro.sparse.trisolve.TriangularFactor`
(unit-lower L, upper U with pivots).  Every ``apply`` is one SuperLU
``gstrs`` call over both factors (:func:`~repro.sparse.trisolve.fused_gstrs`)
plus U's inverse-diagonal scaling, on operands prepared once, when the
preconditioner was built.  When either factor solves by substitution, or
the call reports ``info``, ``apply`` chains the two factors' own solves.
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner
from repro.sparse.csr import CSRMatrix
from repro.sparse.trisolve import (TriangularFactor, fused_gstrs, gstrs_solve,
                                   split_triangle)

__all__ = ["ILU0Preconditioner"]


def _sum_duplicates(A: CSRMatrix) -> CSRMatrix:
    """Collapse duplicate ``(row, col)`` entries (summed) if any exist.

    Rows are sorted (validated CSR invariant), so duplicates are adjacent.
    """
    if A.nnz and bool(np.any((A.indices[1:] == A.indices[:-1])
                             & (A.row_ids[1:] == A.row_ids[:-1]))):
        return A.tocoo().tocsr()
    return A


class ILU0Preconditioner(Preconditioner):
    """Incomplete LU with zero fill on the pattern of ``A``.

    Parameters
    ----------
    A : CSRMatrix
        The matrix to factor.  Rows must contain their diagonal entry; a
        missing or zero pivot is replaced by a small multiple of the largest
        row magnitude so factorization always completes (standard shifted
        ILU practice).
    """

    def __init__(self, A: CSRMatrix):
        self.shape = A.shape
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"ILU(0) requires a square matrix, got {A.shape}")
        # Duplicate (i, j) entries are legal CSR input (reductions sum them)
        # but the elimination below needs one stored slot per pattern entry,
        # so collapse duplicates into canonical summed form first.
        A = _sum_duplicates(A)
        # Work on a copy of the CSR data; the pattern never changes.
        self.indptr = A.indptr.copy()
        self.indices = A.indices.copy()
        self.data = A.data.copy()
        self._diag_ptr = np.full(n, -1, dtype=np.int64)
        # The cached entry->row expansion of A is shared by the
        # factorization's structure passes and both triangle splits below.
        row_ids = A.row_ids
        self._factorize(n, row_ids)
        self._build_factors(n, row_ids)

    def _factorize(self, n: int, row_ids: np.ndarray) -> None:
        indptr, indices = self.indptr, self.indices
        nnz = int(indptr[-1])
        # Per-row structure, precomputed in single vectorized passes instead
        # of per-row searches inside the elimination loop:
        #   * diagonal positions (first stored hit per row, matching the
        #     row-scan order of the scalar formulation),
        #   * strictly-lower entry counts (the k-loop extent of each row),
        #   * first strictly-upper position of each row (the row-k update
        #     source range),
        #   * row magnitude maxima for the surrogate-pivot shift (row i's
        #     values are untouched until its own elimination step, so the
        #     maxima may be taken from the original data up front).
        on_diag = np.flatnonzero(indices == row_ids)
        self._diag_ptr[row_ids[on_diag][::-1]] = on_diag[::-1]
        lower_counts = np.bincount(row_ids[indices < row_ids], minlength=n)
        upper_starts = indptr[:-1] + np.bincount(row_ids[indices <= row_ids], minlength=n)
        row_max = np.ones(n, dtype=np.float64)
        nonempty = np.diff(indptr) > 0
        if nnz:
            row_max[nonempty] = np.maximum.reduceat(np.abs(self.data),
                                                    indptr[:-1][nonempty])
        # The factor data lives in a buffer with one trailing scratch slot:
        # the column->position map sends columns absent from the current row
        # there, so the row-k update scatters unconditionally (no per-k
        # membership masks) and pattern misses land harmlessly in the slot.
        data = np.empty(nnz + 1, dtype=np.float64)
        data[:nnz] = self.data
        data[nnz] = 0.0  # the slot is read by the gather before being written
        colpos = np.full(n, nnz, dtype=np.int64)
        diag_ptr = self._diag_ptr
        for i in range(n):
            start, stop = indptr[i], indptr[i + 1]
            row_cols = indices[start:stop]
            colpos[row_cols] = np.arange(start, stop)
            rmax = row_max[i]
            for kpos in range(start, start + lower_counts[i]):
                k = indices[kpos]
                dk_ptr = diag_ptr[k]
                pivot = data[dk_ptr] if dk_ptr >= 0 else 0.0
                if pivot == 0.0:
                    pivot = 1e-12 * max(rmax, 1.0)
                factor = data[kpos] / pivot
                data[kpos] = factor
                # Row update restricted to the existing pattern of row i:
                # subtract factor * (upper part of row k) wherever row i has
                # a matching column.  One vectorized gather/scatter replaces
                # the former per-entry Python loop; the real targets are
                # distinct positions of row i, so the fancy-indexed
                # subtraction performs the same independent updates.
                u0, u1 = upper_starts[k], indptr[k + 1]
                if u1 > u0:
                    data[colpos[indices[u0:u1]]] -= factor * data[u0:u1]
            dptr = diag_ptr[i]
            if dptr >= 0 and data[dptr] == 0.0:
                # Zero pivot: shift.  (A missing diagonal cannot be added to
                # the pattern; such a row gets a unit pivot in the solve.)
                data[dptr] = 1e-12 * max(rmax, 1.0)
            colpos[row_cols] = nnz
        self.data = data[:nnz]

    def _build_factors(self, n: int, row_ids: np.ndarray) -> None:
        """Split the factored data into the L and U triangular factors."""
        l_ptr, l_ind, l_dat = split_triangle(self.indptr, self.indices, self.data, n, "lower",
                                             row_ids=row_ids)
        u_ptr, u_ind, u_dat = split_triangle(self.indptr, self.indices, self.data, n, "upper",
                                             row_ids=row_ids)
        pivots = np.ones(n, dtype=np.float64)
        present = self._diag_ptr >= 0
        stored = self.data[self._diag_ptr[present]]
        pivots[present] = np.where(stored != 0.0, stored, 1.0)
        self._L = TriangularFactor(n, l_ptr, l_ind, l_dat, diag=None, lower=True,
                                   check=False)
        self._U = TriangularFactor(n, u_ptr, u_ind, u_dat, diag=pivots, lower=False,
                                   check=False)
        self._fused = fused_gstrs(self._L, self._U)

    @property
    def factors(self) -> tuple[TriangularFactor, TriangularFactor]:
        """The ``(L, U)`` triangular factors (unit-lower, pivoted upper)."""
        return self._L, self._U

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Solve ``L U z = r`` with the incomplete factors."""
        r = np.asarray(r, dtype=np.float64).ravel()
        if r.shape[0] != self.n:
            raise ValueError(f"vector length {r.shape[0]} does not match {self.n}")
        return self._solve(r)

    def apply_block(self, R: np.ndarray) -> np.ndarray:
        """Solve ``L U Z = R`` for a whole ``(n, B)`` block in one solve.

        The block goes through the same single ``gstrs`` call as a vector,
        so the per-call overhead is paid once per block instead of once per
        trial.
        """
        return self._solve(self._coerce_block(R))

    def _solve(self, r: np.ndarray) -> np.ndarray:
        """``U⁻¹ L⁻¹ r`` in one fused call, or by the chained factor solves."""
        if self._fused is not None:
            z = gstrs_solve(self._fused, r)
            if z is not None:
                return z
        return self._U.solve(self._L.solve(r))
