"""Level-scheduled sparse triangular solves.

A sparse triangular solve is the kernel behind every stationary
preconditioner (Gauss–Seidel, SSOR) and behind applying an incomplete LU
factorization.  Row ``i`` of a lower-triangular solve depends only on the
rows named by its strictly-lower column indices, so the rows fall into
*dependency levels*: level 0 holds the rows with no off-diagonal entries,
level ``k`` the rows whose deepest dependency sits at level ``k-1``.  All
rows inside one level are independent and can be solved in a single
vectorized gather/segment-sum/scatter, turning ``n`` Python iterations per
solve into one iteration per level (Saad, *Iterative Methods for Sparse
Linear Systems*, ch. 11; "level scheduling").

For the paper's 2-D grid problems the level structure is the diagonal
wavefront of the grid — ``O(sqrt(n))`` levels of ``O(sqrt(n))`` rows — so
the level-scheduled path replaces ~n-iteration sweeps with ~2·sqrt(n)
vectorized steps.  For pathologically sequential structures (a tridiagonal
matrix has one row per level) the engine falls back to a row-sequential
sweep that performs the *bit-identical* floating-point operations; the two
paths are interchangeable and the test suite asserts their equality.

:class:`TriangularFactor` is the unit of currency: CSR data split at
construction into a strict triangle plus a dense diagonal (or an implicit
unit diagonal), with the level schedule computed once and reused by every
solve.  Preconditioners build their factors once in ``__init__`` and call
:meth:`TriangularFactor.solve` per application.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.kernels import NUMPY_ENGINE, resolve_engine

__all__ = ["TriangularFactor", "split_triangle", "SEQUENTIAL_LEVEL_THRESHOLD"]

#: Below this mean number of rows per level the vectorized path's slicing
#: overhead exceeds its gain and ``mode="auto"`` picks the sequential sweep.
SEQUENTIAL_LEVEL_THRESHOLD = 4.0

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
    mode : {"auto", "level", "sequential"}
        Default solve path.  ``"auto"`` picks the level-scheduled kernel
        unless the schedule is too sequential to pay off (fewer than
        :data:`SEQUENTIAL_LEVEL_THRESHOLD` rows per level on average).
    check : bool
        Verify the strict-triangle invariant (an O(nnz) pass).  Callers
        whose arrays come from :func:`split_triangle` pass ``False`` —
        strictness holds by construction.
    engine : str, KernelEngine or None
        The kernel tier computing default solves (see
        :mod:`repro.sparse.kernels`); ``None`` resolves the ambient default.
        Explicit ``mode=`` overrides on :meth:`solve` always run the numpy
        reference paths — the documented level/sequential bit-identity
        contract is a property of the reference kernels.
    """

    def __init__(self, n, indptr, indices, data, diag=None, *, lower: bool = True,
                 mode: str = "auto", check: bool = True, engine=None):
        if mode not in ("auto", "level", "sequential"):
            raise ValueError(f"mode must be 'auto', 'level' or 'sequential', got {mode!r}")
        self.n = int(n)
        self._engine = resolve_engine(engine)
        self._kernel_cache: dict = {}
        self._ws = None
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
        self._build_schedule()
        if mode == "auto":
            mode = "level" if self.mean_rows_per_level >= SEQUENTIAL_LEVEL_THRESHOLD \
                else "sequential"
        self.mode = mode

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_csr(cls, A, part: str = "lower", diag=None, *, unit_diagonal: bool = False,
                 mode: str = "auto", engine=None) -> "TriangularFactor":
        """Build a factor from the triangle of a square :class:`CSRMatrix`.

        ``diag=None`` extracts the diagonal of ``A`` (missing entries are 0
        and will poison the solve — pass a corrected diagonal when the
        matrix may lack one).  ``unit_diagonal=True`` ignores ``diag``.
        ``engine=None`` inherits ``A``'s kernel engine, so preconditioners
        built from an engine-bound matrix solve on the same tier.
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
        if engine is None:
            engine = getattr(A, "engine", None)
        return cls(n, indptr, indices, data, d, lower=(part == "lower"), mode=mode,
                   check=False, engine=engine)

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

    def _build_schedule(self) -> None:
        """Compute dependency levels and the level-permuted entry arrays.

        Runs once per factor; the per-row Python loop here is setup cost
        amortized over every subsequent solve.
        """
        n, indptr, indices = self.n, self.indptr, self.indices
        # The one sequential pass of the whole engine: plain-list traversal
        # of the entries is markedly cheaper than per-row numpy calls for
        # the short rows typical of the paper's matrices.
        ip = indptr.tolist()
        ind = indices.tolist()
        lv = [0] * n
        order = range(n) if self.lower else range(n - 1, -1, -1)
        for i in order:
            deepest = -1
            for p in range(ip[i], ip[i + 1]):
                d = lv[ind[p]]
                if d > deepest:
                    deepest = d
            lv[i] = deepest + 1
        level = np.asarray(lv, dtype=np.int64) if n else np.zeros(0, dtype=np.int64)
        self.num_levels = int(level.max()) + 1 if n else 0
        self.levels = level
        # Rows grouped by level; within a level keep the natural sweep order
        # (ascending for forward, descending for backward substitution) so
        # the permutation is deterministic and cache-friendly.
        if self.lower:
            rows = np.argsort(level, kind="stable")
        else:
            rows = (n - 1) - np.argsort(level[::-1], kind="stable")
        counts = np.bincount(level, minlength=self.num_levels) if n else \
            np.zeros(0, dtype=np.int64)
        level_ptr = np.zeros(self.num_levels + 1, dtype=np.int64)
        np.cumsum(counts, out=level_ptr[1:])
        # Permute the CSR entries into level order once, so each level's
        # gather/segment-sum works on one contiguous slice.
        row_counts = (indptr[1:] - indptr[:-1])[rows]
        perm_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_counts, out=perm_indptr[1:])
        total = int(perm_indptr[-1])
        if total:
            entry_idx = (np.arange(total, dtype=np.int64)
                         + np.repeat(indptr[rows] - perm_indptr[:-1], row_counts))
            self._perm_indices = indices[entry_idx]
            self._perm_data = self.data[entry_idx]
        else:
            self._perm_indices = np.zeros(0, dtype=np.int64)
            self._perm_data = np.zeros(0, dtype=np.float64)
        self._rows = rows
        self._level_ptr = level_ptr
        self._perm_indptr = perm_indptr
        self.mean_rows_per_level = float(n) / self.num_levels if self.num_levels else 0.0

    # ------------------------------------------------------------------ #
    # solves
    # ------------------------------------------------------------------ #
    def solve(self, b: np.ndarray, mode: str | None = None) -> np.ndarray:
        """Solve ``T x = b`` by substitution; returns a fresh array.

        ``b`` may be a vector of length ``n`` or a multi-RHS block of shape
        ``(n, B)`` — every level's gather/segment-sum/scatter generalizes to
        ``(rows_in_level, B)`` slabs, and because ``np.add.reduceat`` reduces
        each column in the same sequential order as the 1-D kernel, column
        ``b`` of a block solve is *bit-identical* to ``solve(b[:, b])``.

        ``mode`` overrides the factor's default path; the level-scheduled
        and row-sequential paths produce bit-identical results.  Default
        solves (``mode=None``) dispatch to the factor's kernel engine; an
        explicit ``mode`` always runs the corresponding numpy reference
        path, which is what the bit-identity contract is stated for.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2):
            raise ValueError(f"b must be a vector or a 2-D block, got shape {b.shape}")
        if b.shape[0] != self.n:
            raise ValueError(
                f"b has {b.shape[0]} rows, expected {self.n} "
                f"(a length-{self.n} vector or a ({self.n}, B) block)")
        if mode is None:
            return self._engine.trisolve(self, b)
        if mode == "sequential":
            return self._solve_sequential(b)
        if mode != "level":
            raise ValueError(f"mode must be 'level' or 'sequential', got {mode!r}")
        return self._solve_levels(b)

    def _level_workspace(self) -> tuple:
        """Preallocated buffers for the reference 1-D level solve.

        Sized once per factor to the widest level: ``(gather, products,
        row-values, diagonal)`` scratch, sliced per level so the hot loop
        performs zero allocations.  Built lazily — factors that only ever
        run block solves or compiled tiers never pay for it.
        """
        ws = self._ws
        if ws is None:
            level_entry = self._perm_indptr[self._level_ptr]
            max_entries = int(np.diff(level_entry).max()) if self.num_levels else 0
            max_rows = int(np.diff(self._level_ptr).max()) if self.num_levels else 0
            ws = self._ws = (
                np.empty(max_entries, dtype=np.float64),
                np.empty(max_entries, dtype=np.float64),
                np.empty(max_rows, dtype=np.float64),
                np.empty(max_rows, dtype=np.float64),
            )
        return ws

    def _solve_levels(self, b: np.ndarray) -> np.ndarray:
        """One vectorized gather + segment sum + scatter per dependency level.

        Handles vectors and ``(n, B)`` blocks with the same code: the gathers
        pick whole rows of ``x``, the segment sum runs along axis 0, and the
        diagonal scaling broadcasts across the block axis.  (Implemented by
        the reference :class:`~repro.sparse.kernels.NumpyEngine`; kept as a
        method because the equivalence suites exercise the paths by name.)
        """
        return NUMPY_ENGINE.trisolve_levels(self, b)

    def _solve_sequential(self, b: np.ndarray) -> np.ndarray:
        """Row-by-row substitution, bit-identical to the level path."""
        return NUMPY_ENGINE.trisolve_sequential(self, b)

    # ------------------------------------------------------------------ #
    # kernel engine / pickling
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The :class:`~repro.sparse.kernels.KernelEngine` for default solves."""
        return self._engine

    @property
    def engine_name(self) -> str:
        """The kernel tier name (``"numpy"`` or ``"scipy"``)."""
        return self._engine.name

    def with_engine(self, engine) -> "TriangularFactor":
        """This factor on another kernel tier, sharing all data and schedule."""
        resolved = resolve_engine(engine)
        if resolved is self._engine:
            return self
        other = TriangularFactor.__new__(TriangularFactor)
        other.__dict__.update(self.__dict__)
        other._engine = resolved
        return other

    def __getstate__(self) -> dict:
        """Pickle by tier name, without per-engine caches and workspaces."""
        state = self.__dict__.copy()
        state["_kernel_cache"] = {}
        state["_ws"] = None
        state["_engine"] = self._engine.name
        return state

    def __setstate__(self, state: dict) -> None:
        state["_engine"] = resolve_engine(state["_engine"])
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Stored strict-triangle entries (the diagonal is held densely)."""
        return int(self.data.shape[0])

    def schedule_stats(self) -> dict:
        """Level-schedule shape, for benchmarks and reports."""
        return {
            "n": self.n,
            "nnz": self.nnz,
            "num_levels": self.num_levels,
            "mean_rows_per_level": round(self.mean_rows_per_level, 3),
            "mode": self.mode,
        }

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
        return (f"TriangularFactor(n={self.n}, nnz={self.nnz}, {kind}, "
                f"levels={self.num_levels}, mode={self.mode!r})")
