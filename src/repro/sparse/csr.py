"""Compressed Sparse Row (CSR) matrix.

CSR is the compute format: the sparse matrix–vector product (SpMV) used by
every Krylov iteration is implemented here with vectorized NumPy reductions
(``np.add.reduceat`` over the row pointer), the fastest pure-NumPy
formulation for matrices whose rows are short and uniform — exactly the
finite-difference and circuit matrices in the paper's evaluation.  The
products stay off scipy on purpose: every forked service job worker would
otherwise pay a fresh ``scipy.sparse`` import (see the README's *Sparse
kernels* section).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRMatrix"]


def _convert_vector(x) -> np.ndarray:
    """The slow path: densify/retype/flatten an operand (one copy).

    Kept as a separate function so the no-copy regression test can count
    how often the hot loop falls off the fast path (it must be zero).
    """
    return np.asarray(x, dtype=np.float64).ravel()


def as_kernel_vector(x) -> np.ndarray:
    """Normalize a vector operand once, at the kernel boundary.

    Conforming inputs — 1-D, float64, C-contiguous ndarrays, which is what
    every solver hot loop produces — pass through untouched (no copy, no
    ``asarray`` dispatch).  Anything else (lists, wrong dtypes, strided
    views, ``(n, 1)`` columns) is converted exactly as the kernels always
    converted it, but in one clearly-identified place.
    """
    if (type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64
            and x.flags.c_contiguous):
        return x
    return _convert_vector(x)


def _convert_block(X) -> np.ndarray:
    """Slow-path counterpart of :func:`_convert_vector` for 2-D blocks."""
    return np.asarray(X, dtype=np.float64)


def as_kernel_block(X) -> np.ndarray:
    """Normalize a 2-D block operand at the kernel boundary.

    Fortran-ordered float64 blocks (the batched engine's layout) pass
    through untouched — contiguity is *not* forced.  Dimensionality/shape
    checks stay with the caller, which owns the error message.
    """
    if type(X) is np.ndarray and X.dtype == np.float64:
        return X
    return _convert_block(X)


class CSRMatrix:
    """A sparse matrix in CSR format with the operations Krylov solvers need.

    Parameters
    ----------
    shape : tuple of int
        ``(nrows, ncols)``.
    indptr : array_like of int
        Row pointer of length ``nrows + 1``.
    indices : array_like of int
        Column indices of the stored entries, length ``nnz``.
    data : array_like of float
        Stored values, length ``nnz``.

    Notes
    -----
    Column indices within a row are kept sorted (the validating ``__init__``
    enforces this so property-based tests can build CSR matrices directly).
    Duplicate ``(row, col)`` entries are legal — reductions sum them; the
    canonical constructor :meth:`from_coo` additionally collapses duplicates.
    """

    def __init__(self, shape, indptr, indices, data, *, check: bool = True):
        nrows, ncols = int(shape[0]), int(shape[1])
        self.shape = (nrows, ncols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        # Lazily built structure caches (see _structure / row_ids).  They
        # depend only on indptr, which is never mutated in place, so they
        # stay valid for the lifetime of the instance.
        self._structure_cache: tuple | None = None
        self._row_ids_cache: np.ndarray | None = None
        if check:
            self._validate()

    def __getstate__(self) -> dict:
        """Pickle without the derived caches (workers rebuild them lazily)."""
        state = self.__dict__.copy()
        state["_structure_cache"] = None
        state["_row_ids_cache"] = None
        return state

    # ------------------------------------------------------------------ #
    # construction / validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        nrows, ncols = self.shape
        if self.indptr.shape[0] != nrows + 1:
            raise ValueError(
                f"indptr must have length nrows+1={nrows + 1}, got {self.indptr.shape[0]}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr[-1] must equal the number of stored entries")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have the same length")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= ncols:
                raise IndexError("column index out of bounds")
            # Column order within each row must be non-decreasing: the
            # triangular-solve layer and ILU(0) rely on the lower|diag|upper
            # layout of sorted rows, and an unsorted row would silently
            # produce wrong factors rather than an error.  (Duplicates stay
            # allowed; reductions sum them.)
            within_row = self.row_ids[1:] == self.row_ids[:-1]
            if np.any(np.diff(self.indices)[within_row] < 0):
                raise ValueError("column indices must be sorted within each row")

    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Build a CSR matrix from a :class:`~repro.sparse.coo.COOMatrix`.

        Duplicate ``(row, col)`` triplets are summed; explicit zeros are kept
        (they do not affect any algorithm and keeping them makes round-trips
        exact).
        """
        nrows, ncols = coo.shape
        if coo.nnz == 0:
            return cls((nrows, ncols), np.zeros(nrows + 1, dtype=np.int64), [], [])
        # Sort by (row, col) then collapse duplicates.
        order = np.lexsort((coo.cols, coo.rows))
        rows = coo.rows[order]
        cols = coo.cols[order]
        vals = coo.values[order]
        # Identify the first element of each unique (row, col) run.
        new_run = np.empty(rows.shape[0], dtype=bool)
        new_run[0] = True
        new_run[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        run_starts = np.flatnonzero(new_run)
        summed = np.add.reduceat(vals, run_starts)
        rows_u = rows[run_starts]
        cols_u = cols[run_starts]
        counts = np.bincount(rows_u, minlength=nrows)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls((nrows, ncols), indptr, cols_u, summed, check=False)

    @classmethod
    def from_dense(cls, dense, tol: float = 0.0) -> "CSRMatrix":
        """Build a CSR matrix from a dense array, dropping ``|a_ij| <= tol``."""
        from repro.sparse.coo import COOMatrix

        return cls.from_coo(COOMatrix.from_dense(dense, tol=tol))

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The ``n x n`` identity matrix."""
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        data = np.ones(n, dtype=np.float64)
        return cls((n, n), indptr, indices, data, check=False)

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any ``scipy.sparse`` matrix (converted to CSR)."""
        csr = mat.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape, csr.indptr, csr.indices, csr.data)

    def to_scipy(self):
        """Return the equivalent ``scipy.sparse.csr_matrix`` (for validation)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.shape[0])

    def _structure(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """Cached row structure used by every :meth:`matvec`.

        Returns ``(starts, nonempty, all_nonempty)`` where ``starts`` are the
        ``np.add.reduceat`` segment offsets of the nonempty rows, ``nonempty``
        is the boolean row mask, and ``all_nonempty`` short-circuits the
        masked scatter for matrices without empty rows (the common case for
        the paper's problems).
        """
        cache = self._structure_cache
        if cache is None:
            row_lengths = np.diff(self.indptr)
            nonempty = row_lengths > 0
            all_nonempty = bool(nonempty.all()) if nonempty.size else True
            starts = self.indptr[:-1] if all_nonempty else self.indptr[:-1][nonempty]
            cache = self._structure_cache = (starts, nonempty, all_nonempty)
        return cache

    @property
    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry (cached, read-only).

        This is the ``np.repeat`` expansion used by :meth:`rmatvec`,
        :meth:`tocoo`, :meth:`todense` and the diagonal-scaling helpers.
        The returned array is marked non-writable; ``copy()`` it to mutate.
        """
        if self._row_ids_cache is None:
            row_ids = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
            row_ids.setflags(write=False)
            self._row_ids_cache = row_ids
        return self._row_ids_cache

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"row {i} outside matrix with {self.shape[0]} rows")
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    def diagonal(self) -> np.ndarray:
        """Return the main diagonal as a dense vector (missing entries are 0).

        Fully vectorized: diagonal entries are the stored entries whose row
        and column indices coincide, and duplicates (allowed by the
        validating constructor) are summed, as before.
        """
        n = min(self.shape)
        if self.nnz == 0 or n == 0:
            return np.zeros(n, dtype=np.float64)
        on_diag = self.row_ids == self.indices
        return np.bincount(self.row_ids[on_diag].astype(np.int64),
                           weights=self.data[on_diag], minlength=n)[:n]

    def todense(self) -> np.ndarray:
        """Return a dense copy of the matrix."""
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.row_ids, self.indices), self.data)
        return dense

    def tocoo(self):
        """Return the matrix in COO format."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix(self.shape, rows=self.row_ids.copy(), cols=self.indices.copy(),
                         values=self.data.copy())

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), check=False)

    # ------------------------------------------------------------------ #
    # numerical kernels
    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix–vector product ``y = A @ x`` (the GMRES hot kernel).

        Normalization happens once, here at the kernel boundary: conforming
        float64 vectors pass straight to the kernel with no copy, anything
        else is converted exactly once per call.  The kernel forms the
        products ``data * x[indices]`` in one vectorized pass and reduces
        per row with ``np.add.reduceat``; rows with no stored entries
        produce exactly 0.
        """
        x = as_kernel_vector(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: matrix has {self.shape[1]} columns, vector has {x.shape[0]}"
            )
        return self._matvec(x)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """The 1-D product kernel on a normalized, shape-checked vector."""
        if self.nnz == 0:
            return np.zeros(self.shape[0], dtype=np.float64)
        products = self.data * x[self.indices]
        starts, nonempty, all_nonempty = self._structure()
        if all_nonempty:
            return np.add.reduceat(products, starts)
        y = np.zeros(self.shape[0], dtype=np.float64)
        y[nonempty] = np.add.reduceat(products, starts)
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Transpose matrix–vector product ``y = A.T @ x`` (a scatter-add)."""
        x = as_kernel_vector(x)
        if x.shape[0] != self.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix has {self.shape[0]} rows, vector has {x.shape[0]}"
            )
        y = np.zeros(self.shape[1], dtype=np.float64)
        if self.nnz == 0:
            return y
        np.add.at(y, self.indices, self.data * x[self.row_ids])
        return y

    #: Above this many elements in the ``(nnz, B)`` product block, ``matmat``
    #: sweeps columns through the cache-resident 1-D kernel instead of
    #: forming the block in one pass: the single-pass gather's intermediates
    #: fall out of cache and it becomes memory-bound (measured ~4x slower at
    #: the paper's medium scale), while the column sweep reuses the same hot
    #: ``(nnz,)`` scratch for every right-hand side.  Both paths produce
    #: bit-identical columns.
    _MATMAT_BLOCK_LIMIT = 1 << 16

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Sparse matrix–matrix product ``Y = A @ X`` for a dense block ``X``.

        The multi-RHS generalization of :meth:`matvec`.  Small blocks take a
        single-pass kernel (one 2-D gather forming the ``(nnz, B)`` product
        block, one ``np.add.reduceat`` along axis 0); large blocks sweep
        columns through the 1-D kernel, which keeps its intermediates
        cache-resident.  Because ``reduceat`` accumulates each column in the
        same sequential order either way, every column of the result is
        *bit-identical* to ``matvec(X[:, b])`` regardless of the path taken
        — the batched campaign engine relies on this to stay equivalent to
        serial trials.
        """
        X = as_kernel_block(X)
        if X.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {X.shape}")
        if X.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: matrix has {self.shape[1]} columns, block has {X.shape[0]} rows"
            )
        nrows, ncols = self.shape[0], X.shape[1]
        if self.nnz == 0:
            return np.zeros((nrows, ncols), dtype=np.float64)
        if self.nnz * ncols > self._MATMAT_BLOCK_LIMIT:
            Y = np.empty((nrows, ncols), dtype=np.float64)
            for j in range(ncols):
                Y[:, j] = self._matvec(np.ascontiguousarray(X[:, j]))
            return Y
        products = self.data[:, None] * X[self.indices, :]
        starts, nonempty, all_nonempty = self._structure()
        if all_nonempty:
            return np.add.reduceat(products, starts, axis=0)
        Y = np.zeros((nrows, ncols), dtype=np.float64)
        Y[nonempty, :] = np.add.reduceat(products, starts, axis=0)
        return Y

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        """Transpose matrix–matrix product ``Y = A.T @ X`` for a dense block."""
        X = as_kernel_block(X)
        if X.ndim != 2:
            raise ValueError(f"rmatmat expects a 2-D block, got shape {X.shape}")
        if X.shape[0] != self.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix has {self.shape[0]} rows, block has {X.shape[0]} rows"
            )
        Y = np.zeros((self.shape[1], X.shape[1]), dtype=np.float64)
        if self.nnz == 0:
            return Y
        np.add.at(Y, self.indices, self.data[:, None] * X[self.row_ids, :])
        return Y

    def __matmul__(self, x):
        """``A @ x``: 1-D operands dispatch to :meth:`matvec`, 2-D to :meth:`matmat`."""
        arr = np.asarray(x)
        if arr.ndim == 2:
            return self.matmat(arr)
        return self.matvec(arr)

    def transpose(self) -> "CSRMatrix":
        """Return ``A.T`` as a new CSR matrix."""
        return self.tocoo().transpose().tocsr()

    def scale(self, alpha: float) -> "CSRMatrix":
        """Return ``alpha * A`` as a new CSR matrix with the same pattern."""
        out = self.copy()
        out.data *= float(alpha)
        return out

    def add(self, other: "CSRMatrix") -> "CSRMatrix":
        """Return ``A + B`` (shapes must match)."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        from repro.sparse.coo import COOMatrix

        a = self.tocoo()
        b = other.tocoo()
        merged = COOMatrix(
            self.shape,
            rows=np.concatenate([a.rows, b.rows]),
            cols=np.concatenate([a.cols, b.cols]),
            values=np.concatenate([a.values, b.values]),
        )
        return merged.tocsr()

    # ------------------------------------------------------------------ #
    # structural / analytical queries used by Table I
    # ------------------------------------------------------------------ #
    def is_pattern_symmetric(self, tol: float = 0.0) -> bool:
        """True if the *nonzero pattern* is symmetric (values may differ)."""
        if self.shape[0] != self.shape[1]:
            return False
        a = self.drop_small(tol) if tol > 0 else self
        at = a.transpose()
        if a.nnz != at.nnz:
            return False
        return (
            np.array_equal(a.indptr, at.indptr)
            and np.array_equal(a.indices, at.indices)
        )

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """True if ``A`` is numerically symmetric to relative tolerance ``tol``."""
        if self.shape[0] != self.shape[1]:
            return False
        diff = self.add(self.transpose().scale(-1.0))
        scale = np.abs(self.data).max() if self.nnz else 1.0
        if diff.nnz == 0:
            return True
        return bool(np.abs(diff.data).max() <= tol * max(scale, 1.0))

    def drop_small(self, tol: float) -> "CSRMatrix":
        """Return a copy with entries ``|a_ij| <= tol`` removed from the pattern."""
        keep = np.abs(self.data) > tol
        coo = self.tocoo()
        from repro.sparse.coo import COOMatrix

        pruned = COOMatrix(self.shape, rows=coo.rows[keep], cols=coo.cols[keep],
                           values=coo.values[keep])
        return pruned.tocsr()

    def has_full_structural_rank(self) -> bool:
        """True if a perfect matching exists between rows and columns.

        This is the "structural full rank" property reported in the paper's
        Table I.  We compute it via maximum bipartite matching on the nonzero
        pattern (Hopcroft–Karp through :mod:`scipy.sparse.csgraph` when
        available, with a pure-Python augmenting-path fallback).
        """
        n = min(self.shape)
        try:
            from scipy.sparse.csgraph import maximum_bipartite_matching

            match = maximum_bipartite_matching(self.to_scipy(), perm_type="column")
            return int(np.count_nonzero(match >= 0)) == n
        except Exception:  # pragma: no cover - exercised only without scipy
            return self._structural_rank_fallback() == n

    def _structural_rank_fallback(self) -> int:
        """Simple augmenting-path bipartite matching (O(V·E)), rows -> cols."""
        nrows, ncols = self.shape
        match_col = np.full(ncols, -1, dtype=np.int64)

        def try_assign(row: int, visited: np.ndarray) -> bool:
            cols, _ = self.row(row)
            for c in cols:
                if not visited[c]:
                    visited[c] = True
                    if match_col[c] == -1 or try_assign(match_col[c], visited):
                        match_col[c] = row
                        return True
            return False

        rank = 0
        for r in range(nrows):
            visited = np.zeros(ncols, dtype=bool)
            if try_assign(r, visited):
                rank += 1
        return rank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
