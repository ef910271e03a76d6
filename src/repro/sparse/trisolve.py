"""Sparse triangular solves through SuperLU.

A sparse triangular solve is the kernel behind every stationary
preconditioner (Gauss–Seidel, SSOR) and behind applying an incomplete LU
factorization.  :class:`TriangularFactor` is the unit of currency: CSR data
split at construction into a strict triangle plus a dense diagonal (or an
implicit unit diagonal).  Preconditioners build their factors once in
``__init__`` and call :meth:`TriangularFactor.solve` per application.

Every factor solves through SuperLU's compiled ``gstrs`` routine, the one
:func:`scipy.sparse.linalg.spsolve_triangular` calls.  Everything that
function prepares on *every* call — assembling the full triangle,
transposing the CSR input to CSC, scaling to a unit diagonal, splitting into
SuperLU's L/U operands and casting the index arrays — runs once, when the
factor is built, so a solve of a vector or of an ``(n, B)`` block is one
``gstrs`` call plus the inverse-diagonal scaling.  :func:`fused_gstrs`
pairs a unit-lower factor's operands with an upper factor's, so an LU pair
(ILU(0)) also solves in one call.  scipy is imported then
and not when the package loads, so a process that builds no factor never
pays for the import.

Some factors cannot use ``gstrs``: one whose diagonal holds a zero or a
non-finite value, an empty one, and any factor when scipy lacks the private
``_superlu`` module.  They solve by row-sequential substitution, which
lets a zero pivot produce Inf/NaN in the solution rather than an error.
That substitution is also the reference the test suite holds ``gstrs`` to.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TriangularFactor", "fused_gstrs", "gstrs_solve", "split_triangle"]


def split_triangle(indptr, indices, data, n: int, part: str, row_ids=None):
    """Extract the strict lower or upper triangle of square CSR arrays.

    Returns ``(indptr, indices, data)`` of the strict triangle, preserving
    the within-row column order of the input.  ``row_ids`` may supply the
    precomputed row index of every stored entry (e.g. the cached
    ``CSRMatrix.row_ids``) to skip the ``np.repeat`` expansion.
    """
    if part not in ("lower", "upper"):
        raise ValueError(f"part must be 'lower' or 'upper', got {part!r}")
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    if row_ids is None:
        row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep = indices < row_ids if part == "lower" else indices > row_ids
    counts = np.bincount(row_ids[keep], minlength=n)
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    # Boolean fancy indexing already yields fresh arrays; no copies needed.
    return out_indptr, indices[keep], data[keep]


#: Shared zero-offset index for the single-segment ``np.add.reduceat`` calls
#: of the sequential substitution (keeps each row's reduction allocation-free).
_SEG0 = np.zeros(1, dtype=np.int64)


class TriangularFactor:
    """A sparse triangular matrix prepared for repeated fast solves.

    Parameters
    ----------
    n : int
        Dimension.
    indptr, indices, data : array_like
        CSR arrays of the *strict* triangle (no diagonal entries).  Column
        indices must all lie strictly below (``lower=True``) or strictly
        above (``lower=False``) the diagonal; violations raise.
    diag : array_like or None
        Dense diagonal of length ``n``; the solve divides by it.  ``None``
        means a unit diagonal (no division), e.g. the L factor of ILU.
    lower : bool
        Orientation; decides forward vs backward substitution.
    check : bool
        Verify the strict-triangle invariant (an O(nnz) pass).  Callers
        whose arrays come from :func:`split_triangle` pass ``False`` —
        strictness holds by construction.
    """

    def __init__(self, n, indptr, indices, data, diag=None, *, lower: bool = True,
                 check: bool = True):
        self.n = int(n)
        self.lower = bool(lower)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if self.indptr.shape[0] != self.n + 1:
            raise ValueError(f"indptr must have length n+1={self.n + 1}, "
                             f"got {self.indptr.shape[0]}")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have the same length")
        if diag is None:
            self.unit_diagonal = True
            self.diag = None
        else:
            self.unit_diagonal = False
            self.diag = np.ascontiguousarray(diag, dtype=np.float64)
            if self.diag.shape[0] != self.n:
                raise ValueError(f"diag must have length {self.n}, got {self.diag.shape[0]}")
        if check:
            self._check_strict()
        #: ``(gstrs, operands, inverse diagonal)``, or ``None`` when this
        #: factor solves by sequential substitution.
        self._gstrs = self._prepare_gstrs()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_csr(cls, A, part: str = "lower", diag=None, *,
                 unit_diagonal: bool = False) -> "TriangularFactor":
        """Build a factor from the triangle of a square :class:`CSRMatrix`.

        ``diag=None`` extracts the diagonal of ``A`` (missing entries are 0
        and will poison the solve — pass a corrected diagonal when the
        matrix may lack one).  ``unit_diagonal=True`` ignores ``diag``.
        """
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"triangular factors require a square matrix, got {A.shape}")
        n = A.shape[0]
        indptr, indices, data = split_triangle(A.indptr, A.indices, A.data, n, part,
                                               row_ids=A.row_ids)
        if unit_diagonal:
            d = None
        else:
            d = A.diagonal() if diag is None else diag
        return cls(n, indptr, indices, data, d, lower=(part == "lower"), check=False)

    def _check_strict(self) -> None:
        if self.indices.size == 0:
            return
        row_ids = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        if self.lower:
            bad = self.indices >= row_ids
        else:
            bad = self.indices <= row_ids
        if bad.any():
            side = "strictly lower" if self.lower else "strictly upper"
            where = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"entry (row {int(row_ids[where])}, col {int(self.indices[where])}) is not "
                f"{side} triangular")
        if self.indices.min() < 0 or self.indices.max() >= self.n:
            raise IndexError("column index out of bounds")

    def _prepare_gstrs(self):
        """The once-per-factor ``gstrs`` arguments, or ``None``.

        This performs, ahead of time, exactly what
        ``scipy.sparse.linalg.spsolve_triangular`` does on *every* call:
        assemble the full triangle, transpose the CSR input to CSC
        (``trans="T"``), scale the columns to a unit diagonal, split into
        SuperLU's L/U operands and cast the index arrays — leaving one
        compiled ``gstrs`` call (plus the inverse-diagonal scaling) per
        solve.  ``None`` (an empty factor, a zero or non-finite diagonal
        entry, no ``_superlu`` module) selects the sequential substitution.
        """
        n = self.n
        if n == 0:
            return None
        if self.unit_diagonal:
            diag = np.ones(n, dtype=np.float64)
            invdiag = None
        else:
            diag = self.diag
            if not np.all(np.isfinite(diag)) or np.any(diag == 0.0):
                return None  # poisoned diagonal: keep substitution semantics
            invdiag = 1.0 / diag
        try:
            from scipy.sparse.linalg._dsolve._superlu import gstrs
        except ImportError:  # private API moved: substitute
            return None
        import scipy.sparse as sp

        # Full triangle (strict part + diagonal) as CSR, then the
        # spsolve_triangular recipe: CSR input → work on its transpose in
        # CSC with trans="T", orientation flipped.
        strict = sp.csr_array((self.data, self.indices, self.indptr), shape=(n, n),
                              copy=False)
        T = (strict + sp.diags_array(diag, format="csr")).T  # csc_array
        lower = not self.lower
        if invdiag is not None:
            T = (T.T @ sp.diags_array(invdiag)).T
        T.sum_duplicates()
        if lower:
            L, U = T, sp.csc_array((n, n), dtype=np.float64)
        else:
            L = sp.eye_array(n, dtype=np.float64, format="csc")
            U = T
            U.setdiag(0)
        operands = (n, L.nnz, L.data, L.indices.astype(np.intc), L.indptr.astype(np.intc),
                    n, U.nnz, U.data, U.indices.astype(np.intc), U.indptr.astype(np.intc))
        return gstrs, operands, invdiag

    # ------------------------------------------------------------------ #
    # solves
    # ------------------------------------------------------------------ #
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b``; returns a fresh array.

        ``b`` may be a vector of length ``n`` or a multi-RHS block of shape
        ``(n, B)``; a block is solved in the same single ``gstrs`` call, and
        column ``j`` of the result equals ``solve(b[:, j])``.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2):
            raise ValueError(f"b must be a vector or a 2-D block, got shape {b.shape}")
        if b.shape[0] != self.n:
            raise ValueError(
                f"b has {b.shape[0]} rows, expected {self.n} "
                f"(a length-{self.n} vector or a ({self.n}, B) block)")
        if self._gstrs is not None:
            x = gstrs_solve(self._gstrs, b)
            if x is not None:
                return x
        return self._substitute(b)

    def _substitute(self, b: np.ndarray) -> np.ndarray:
        """Row-by-row substitution: the fallback path and the tests' reference."""
        x = b.copy()
        block = x.ndim == 2
        indptr, indices, data = self.indptr, self.indices, self.data
        coeff = data[:, None] if block else data
        diag, unit = self.diag, self.unit_diagonal
        order = range(self.n) if self.lower else range(self.n - 1, -1, -1)
        for i in order:
            start, stop = indptr[i], indptr[i + 1]
            if stop > start:
                prods = coeff[start:stop] * x[indices[start:stop]]
                val = x[i] - np.add.reduceat(prods, _SEG0, axis=0)[0]
            else:
                val = x[i]
            x[i] = val if unit else val / diag[i]
        return x

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Stored strict-triangle entries (the diagonal is held densely)."""
        return int(self.data.shape[0])

    def to_csr(self):
        """The full triangle (strict part + diagonal) as a :class:`CSRMatrix`.

        For validation against reference solvers; not used on the hot path.
        """
        from repro.sparse.coo import COOMatrix

        row_ids = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        diag = np.ones(self.n, dtype=np.float64) if self.unit_diagonal else self.diag
        diag_rows = np.arange(self.n, dtype=np.int64)
        coo = COOMatrix(
            (self.n, self.n),
            rows=np.concatenate([row_ids, diag_rows]),
            cols=np.concatenate([self.indices, diag_rows]),
            values=np.concatenate([self.data, diag]),
        )
        return coo.tocsr()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "lower" if self.lower else "upper"
        path = "gstrs" if self._gstrs is not None else "sequential"
        return f"TriangularFactor(n={self.n}, nnz={self.nnz}, {kind}, {path})"


def gstrs_solve(prepared, b: np.ndarray):
    """One ``gstrs`` call on prepared arguments plus their inverse-diagonal
    scaling, or ``None`` when the call reports ``info``.

    ``prepared`` is ``(gstrs, operands, inverse diagonal or None)``, as a
    factor's ``_gstrs`` or :func:`fused_gstrs` holds it; ``b`` is a vector
    or an ``(n, B)`` block, and is not written.
    """
    gstrs, operands, invdiag = prepared
    x, info = gstrs("T", *operands, b.copy())
    if info:
        return None
    if invdiag is not None:
        x *= invdiag if x.ndim == 1 else invdiag[:, None]
    return x


def fused_gstrs(lower: TriangularFactor, upper: TriangularFactor):
    """One ``gstrs`` call's arguments for ``upper⁻¹ lower⁻¹``, or ``None``.

    With ``trans="T"``, ``gstrs`` first solves with the transpose of its U
    operand, dividing by the diagonal its L operand stores, then runs a
    unit-diagonal solve with the transpose of its L operand.  A unit-lower
    factor prepares that U operand (its transposed strict part) and an
    upper factor prepares that L operand (its transposed, column-scaled
    ``U D⁻¹``), so the pair solves in one call followed by ``upper``'s
    inverse-diagonal scaling.  The first stage then divides by the scaled
    diagonal ``u·(1/u)``, which can differ from 1.0 in its last bit, so the
    result is not bit-identical to ``upper.solve(lower.solve(b))``.
    ``None`` when either factor solves by substitution.  Solve with
    :func:`gstrs_solve`.
    """
    if not (lower.lower and lower.unit_diagonal and not upper.lower):
        raise ValueError("fused_gstrs needs a unit-lower and an upper factor")
    if lower._gstrs is None or upper._gstrs is None:
        return None
    gstrs, lower_operands, _ = lower._gstrs
    _, upper_operands, invdiag = upper._gstrs
    return gstrs, upper_operands[:5] + lower_operands[5:], invdiag
