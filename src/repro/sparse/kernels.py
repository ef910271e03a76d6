"""Pluggable sparse kernel engines: numpy / scipy tiers.

Every sparse hot kernel of the library — CSR ``matvec``/``rmatvec``/
``matmat``/``rmatmat`` and the level-scheduled triangular solves behind the
stationary preconditioners — dispatches through a :class:`KernelEngine`.
Two tiers are provided:

``numpy``
    The original pure-NumPy kernels, moved here verbatim from
    :class:`~repro.sparse.csr.CSRMatrix` and
    :class:`~repro.sparse.trisolve.TriangularFactor`.  This tier is the
    **bit-exact reference** and the default: results are identical, bit for
    bit, to every release before the engine existed.

``scipy``
    Dispatch to :mod:`scipy.sparse`'s compiled C kernels through *zero-copy*
    ``csr_array`` views over the existing ``indptr``/``indices``/``data``
    arrays (no data is duplicated; the view is built once per matrix and
    cached).  Triangular solves go through SuperLU's compiled ``gstrs``
    routine with all of :func:`scipy.sparse.linalg.spsolve_triangular`'s
    per-call preparation (triangle assembly, transposition, diagonal
    scaling, index casting) hoisted to a once-per-factor setup.

Equivalence contract (mirrors the PR 2/3 batched-engine contract): kernels
whose floating-point accumulation order matches the reference — ``rmatvec``/
``rmatmat`` (scatter-add) — are *bit-identical* to the
``numpy`` tier; kernels backed by independently-ordered compiled reductions
(``scipy`` matvec/matmat/trisolve) agree to a stated ``<= 1e-14`` relative
tolerance.  The cross-tier suite in ``tests/test_kernel_engines.py`` asserts
both halves of the contract on the gallery and on hypothesis-generated
matrices.

Selection
---------
``resolve_engine`` accepts a tier name, ``"auto"`` (scipy → numpy),
``None`` (the ambient default: the ``REPRO_KERNELS`` environment variable,
else ``"numpy"``), or a built engine.  The campaign stack threads a spec
value through :func:`effective_kernels` with precedence
``spec < REPRO_KERNELS < explicit flag``.  The same tiers are exposed under
the registry's ``"kernels"`` namespace for spec-driven resolution.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "KernelEngine",
    "NumpyEngine",
    "ScipyEngine",
    "KERNEL_TIERS",
    "KERNEL_CHOICES",
    "KERNELS_ENV_VAR",
    "available_kernels",
    "default_kernels",
    "effective_kernels",
    "get_engine",
    "resolve_engine",
    "have_scipy",
    "as_kernel_vector",
    "as_kernel_block",
]

#: Environment variable naming the ambient default kernel tier.
KERNELS_ENV_VAR = "REPRO_KERNELS"

#: The kernel tiers, in reference-first order.
KERNEL_TIERS = ("numpy", "scipy")

#: Valid values for ``ExecutionSpec.kernels`` / ``--kernels`` / the env var.
KERNEL_CHOICES = ("auto",) + KERNEL_TIERS


# ---------------------------------------------------------------------- #
# tier availability probes (cached; import errors are the only signal)
# ---------------------------------------------------------------------- #
_AVAILABILITY: dict[str, bool] = {}


def have_scipy() -> bool:
    """True when :mod:`scipy.sparse` is importable (cached probe)."""
    if "scipy" not in _AVAILABILITY:
        try:
            import scipy.sparse  # noqa: F401

            _AVAILABILITY["scipy"] = True
        except ImportError:  # pragma: no cover - scipy present in CI/dev envs
            _AVAILABILITY["scipy"] = False
    return _AVAILABILITY["scipy"]


def available_kernels() -> tuple[str, ...]:
    """The kernel tiers usable in this environment, reference first."""
    tiers = ["numpy"]
    if have_scipy():
        tiers.append("scipy")
    return tuple(tiers)


# ---------------------------------------------------------------------- #
# input normalization at the engine boundary
# ---------------------------------------------------------------------- #
def _convert_vector(x) -> np.ndarray:
    """The slow path: densify/retype/flatten an operand (one copy).

    Kept as a separate function so the no-copy regression test can count
    how often the hot loop falls off the fast path (it must be zero).
    """
    return np.asarray(x, dtype=np.float64).ravel()


def as_kernel_vector(x) -> np.ndarray:
    """Normalize a vector operand once, at the engine boundary.

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
    """Normalize a 2-D block operand at the engine boundary.

    Fortran-ordered float64 blocks (the batched engine's layout) pass
    through untouched — contiguity is *not* forced, matching the original
    ``matmat`` behavior.  Dimensionality/shape checks stay with the caller,
    which owns the error message.
    """
    if type(X) is np.ndarray and X.dtype == np.float64:
        return X
    return _convert_block(X)


# ---------------------------------------------------------------------- #
# the engine protocol
# ---------------------------------------------------------------------- #
class KernelEngine:
    """Protocol for a sparse kernel tier.

    Engines are stateless singletons: any per-matrix preparation (cached
    views, prepared factorizations, workspaces) lives on the matrix/factor
    object in its ``_kernel_cache`` dict, keyed by engine name, so matrices
    stay picklable and engines shareable.

    All methods receive operands already normalized by the caller
    (:func:`as_kernel_vector` / :func:`as_kernel_block`, shape-checked), so
    implementations contain kernels only.
    """

    #: Registry/tier name.
    name: str = "abstract"
    #: True for tiers backed by compiled (C / JIT) kernels.
    compiled: bool = False

    # -- CSR products ------------------------------------------------- #
    def matvec(self, A, x: np.ndarray) -> np.ndarray:
        """``y = A @ x`` for a CSRMatrix ``A`` and a normalized vector."""
        raise NotImplementedError

    def rmatvec(self, A, x: np.ndarray) -> np.ndarray:
        """``y = A.T @ x``."""
        raise NotImplementedError

    def matmat(self, A, X: np.ndarray) -> np.ndarray:
        """``Y = A @ X`` for a dense ``(n, B)`` block."""
        raise NotImplementedError

    def rmatmat(self, A, X: np.ndarray) -> np.ndarray:
        """``Y = A.T @ X`` for a dense block."""
        raise NotImplementedError

    # -- triangular solves -------------------------------------------- #
    def trisolve(self, F, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b`` for a TriangularFactor ``F`` (vector or block)."""
        raise NotImplementedError

    def level_segsum(self, coeff: np.ndarray, gathered: np.ndarray,
                     seg_starts: np.ndarray) -> np.ndarray:
        """The fused per-level gather/segment-sum primitive.

        Given one level's permuted coefficients, the gathered ``x`` values
        they multiply, and the segment start offsets (one per row in the
        level), return the per-row accumulations.  The default is the
        reference formulation every tier's level path must reproduce.
        """
        return np.add.reduceat(coeff * gathered, seg_starts, axis=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------- #
# numpy tier: the bit-exact reference (original kernels, moved verbatim)
# ---------------------------------------------------------------------- #
class NumpyEngine(KernelEngine):
    """The original pure-NumPy kernels — the bit-exact reference tier."""

    name = "numpy"
    compiled = False

    def matvec(self, A, x: np.ndarray) -> np.ndarray:
        if A.nnz == 0:
            return np.zeros(A.shape[0], dtype=np.float64)
        products = A.data * x[A.indices]
        starts, nonempty, all_nonempty = A._structure()
        if all_nonempty:
            return np.add.reduceat(products, starts)
        y = np.zeros(A.shape[0], dtype=np.float64)
        y[nonempty] = np.add.reduceat(products, starts)
        return y

    def rmatvec(self, A, x: np.ndarray) -> np.ndarray:
        y = np.zeros(A.shape[1], dtype=np.float64)
        if A.nnz == 0:
            return y
        np.add.at(y, A.indices, A.data * x[A.row_ids])
        return y

    def matmat(self, A, X: np.ndarray) -> np.ndarray:
        nrows, ncols = A.shape[0], X.shape[1]
        if A.nnz == 0:
            return np.zeros((nrows, ncols), dtype=np.float64)
        if A.nnz * ncols > A._MATMAT_BLOCK_LIMIT:
            Y = np.empty((nrows, ncols), dtype=np.float64)
            for j in range(ncols):
                Y[:, j] = self.matvec(A, np.ascontiguousarray(X[:, j]))
            return Y
        products = A.data[:, None] * X[A.indices, :]
        starts, nonempty, all_nonempty = A._structure()
        if all_nonempty:
            return np.add.reduceat(products, starts, axis=0)
        Y = np.zeros((nrows, ncols), dtype=np.float64)
        Y[nonempty, :] = np.add.reduceat(products, starts, axis=0)
        return Y

    def rmatmat(self, A, X: np.ndarray) -> np.ndarray:
        Y = np.zeros((A.shape[1], X.shape[1]), dtype=np.float64)
        if A.nnz == 0:
            return Y
        np.add.at(Y, A.indices, A.data[:, None] * X[A.row_ids, :])
        return Y

    # -- triangular solves -------------------------------------------- #
    def trisolve(self, F, b: np.ndarray) -> np.ndarray:
        if F.mode == "sequential":
            return self.trisolve_sequential(F, b)
        return self.trisolve_levels(F, b)

    def trisolve_levels(self, F, b: np.ndarray) -> np.ndarray:
        """One vectorized gather + segment sum + scatter per dependency level.

        Vector solves run through per-factor workspaces (see
        ``TriangularFactor._level_workspace``): every level's gather,
        product, segment-sum, subtraction and division lands in preallocated
        buffers, with the identical operations in the identical order as the
        allocating formulation — bit-identical results, no per-level
        temporaries.  Block solves keep the allocating formulation (the
        block axis varies per call and already amortizes allocation).
        """
        x = b.copy()
        block = x.ndim == 2
        rows_all, level_ptr = F._rows, F._level_ptr
        perm_indptr, perm_indices, perm_data = \
            F._perm_indptr, F._perm_indices, F._perm_data
        diag, unit = F.diag, F.unit_diagonal
        if block:
            coeff = perm_data[:, None]
            for lev in range(F.num_levels):
                r0, r1 = level_ptr[lev], level_ptr[lev + 1]
                rows = rows_all[r0:r1]
                e0, e1 = perm_indptr[r0], perm_indptr[r1]
                if e1 > e0:
                    # Every row past level 0 owns >= 1 entry, so the segment
                    # starts are strictly valid reduceat offsets.
                    prods = coeff[e0:e1] * x[perm_indices[e0:e1]]
                    acc = np.add.reduceat(prods, perm_indptr[r0:r1] - e0, axis=0)
                    vals = x[rows] - acc
                else:
                    vals = x[rows]
                if not unit:
                    vals = vals / diag[rows][:, None]
                x[rows] = vals
            return x
        ws_gather, ws_prods, ws_rowbuf, ws_diag = F._level_workspace()
        for lev in range(F.num_levels):
            r0, r1 = level_ptr[lev], level_ptr[lev + 1]
            rows = rows_all[r0:r1]
            e0, e1 = perm_indptr[r0], perm_indptr[r1]
            m = r1 - r0
            vals = np.take(x, rows, out=ws_rowbuf[:m])
            if e1 > e0:
                k = e1 - e0
                gathered = np.take(x, perm_indices[e0:e1], out=ws_gather[:k])
                prods = np.multiply(perm_data[e0:e1], gathered, out=ws_prods[:k])
                acc = np.add.reduceat(prods, perm_indptr[r0:r1] - e0)
                np.subtract(vals, acc, out=vals)
            if not unit:
                d = np.take(diag, rows, out=ws_diag[:m])
                np.divide(vals, d, out=vals)
            x[rows] = vals
        return x

    def trisolve_sequential(self, F, b: np.ndarray) -> np.ndarray:
        """Row-by-row substitution, bit-identical to the level path."""
        x = b.copy()
        block = x.ndim == 2
        indptr, indices, data = F.indptr, F.indices, F.data
        coeff = data[:, None] if block else data
        diag, unit = F.diag, F.unit_diagonal
        order = range(F.n) if F.lower else range(F.n - 1, -1, -1)
        for i in order:
            start, stop = indptr[i], indptr[i + 1]
            if stop > start:
                prods = coeff[start:stop] * x[indices[start:stop]]
                val = x[i] - np.add.reduceat(prods, _SEG0, axis=0)[0]
            else:
                val = x[i]
            x[i] = val if unit else val / diag[i]
        return x


#: Shared zero-offset index for single-segment ``np.add.reduceat`` calls in
#: the sequential path (keeps it allocation-free and — crucially — performs
#: the *same ufunc reduction* as the level-scheduled path, so the two paths
#: agree bit for bit).
_SEG0 = np.zeros(1, dtype=np.int64)


# ---------------------------------------------------------------------- #
# scipy tier: compiled C kernels over zero-copy views
# ---------------------------------------------------------------------- #
class ScipyEngine(KernelEngine):
    """Dispatch to :mod:`scipy.sparse`'s compiled kernels.

    The ``csr_array`` view shares this matrix's ``indptr``/``indices``/
    ``data`` buffers (``copy=False``; verified by the test suite with
    ``np.shares_memory``) and is cached per matrix, so the per-call cost is
    one compiled kernel invocation.  Triangular solves run SuperLU's
    ``gstrs`` with :func:`~scipy.sparse.linalg.spsolve_triangular`'s entire
    per-call preparation hoisted into a once-per-factor setup; factors whose
    diagonal contains zeros or non-finite values fall back to the numpy
    reference path, preserving its Inf/NaN propagation semantics.

    Accumulation order inside scipy's row reductions differs from
    ``np.add.reduceat``'s, so ``matvec``/``matmat``/``trisolve`` carry the
    ``<= 1e-14`` relative contract; ``rmatvec``/``rmatmat`` (scatter-add in
    index order, same as ``np.add.at``) are bit-identical.
    """

    name = "scipy"
    compiled = True

    def _view(self, A):
        """The cached zero-copy ``(csr, csc-transpose)`` views of ``A``."""
        cached = A._kernel_cache.get("scipy")
        if cached is None:
            import scipy.sparse as sp

            csr = sp.csr_array((A.data, A.indices, A.indptr), shape=A.shape,
                               copy=False)
            cached = A._kernel_cache["scipy"] = (csr, csr.T)
        return cached

    def matvec(self, A, x: np.ndarray) -> np.ndarray:
        return self._view(A)[0] @ x

    def rmatvec(self, A, x: np.ndarray) -> np.ndarray:
        return self._view(A)[1] @ x

    def matmat(self, A, X: np.ndarray) -> np.ndarray:
        return self._view(A)[0] @ X

    def rmatmat(self, A, X: np.ndarray) -> np.ndarray:
        return self._view(A)[1] @ X

    # -- triangular solves -------------------------------------------- #
    def _prepared(self, F):
        """Once-per-factor ``gstrs`` arguments (or ``None`` → numpy fallback).

        This performs, ahead of time, exactly what
        ``scipy.sparse.linalg.spsolve_triangular`` does on *every* call:
        assemble the full triangle, transpose the CSR input to CSC
        (``trans="T"``), scale the columns to a unit diagonal, split into
        SuperLU's L/U operands and cast the index arrays — leaving one
        compiled ``gstrs`` call (plus the inverse-diagonal scaling) per
        solve.
        """
        cached = F._kernel_cache.get("scipy", _UNSET)
        if cached is _UNSET:
            cached = F._kernel_cache["scipy"] = self._prepare_gstrs(F)
        return cached

    @staticmethod
    def _prepare_gstrs(F):
        try:
            from scipy.sparse.linalg._dsolve import _superlu  # noqa: F401
        except ImportError:  # pragma: no cover - private API moved
            return None
        import scipy.sparse as sp

        n = F.n
        if n == 0:
            return None
        if F.unit_diagonal:
            diag = np.ones(n, dtype=np.float64)
            invdiag = None
        else:
            diag = F.diag
            if not np.all(np.isfinite(diag)) or np.any(diag == 0.0):
                return None  # poisoned diagonal: keep reference semantics
            invdiag = 1.0 / diag
        # Full triangle (strict part + diagonal) as CSR, then the
        # spsolve_triangular recipe: CSR input → work on A.T in CSC with
        # trans="T", orientation flipped.
        strict = sp.csr_array((F.data, F.indices, F.indptr), shape=(n, n),
                              copy=False)
        T = (strict + sp.diags_array(diag, format="csr")).T  # csc_array
        lower = not F.lower
        if invdiag is not None:
            T = (T.T @ sp.diags_array(invdiag)).T
        T.sum_duplicates()
        if lower:
            L, U = T, sp.csc_array((n, n), dtype=np.float64)
        else:
            L = sp.eye_array(n, dtype=np.float64, format="csc")
            U = T
            U.setdiag(0)
        return {
            "n": n,
            "L": (L.nnz, L.data, L.indices.astype(np.intc), L.indptr.astype(np.intc)),
            "U": (U.nnz, U.data, U.indices.astype(np.intc), U.indptr.astype(np.intc)),
            "invdiag": invdiag,
        }

    def trisolve(self, F, b: np.ndarray) -> np.ndarray:
        prep = self._prepared(F)
        if prep is None:
            return NUMPY_ENGINE.trisolve(F, b)
        from scipy.sparse.linalg._dsolve import _superlu

        n = prep["n"]
        l_nnz, l_data, l_ind, l_ptr = prep["L"]
        u_nnz, u_data, u_ind, u_ptr = prep["U"]
        x, info = _superlu.gstrs("T", n, l_nnz, l_data, l_ind, l_ptr,
                                 n, u_nnz, u_data, u_ind, u_ptr, b.copy())
        if info:  # pragma: no cover - zero diagonals are screened at prep
            return NUMPY_ENGINE.trisolve(F, b)
        invdiag = prep["invdiag"]
        if invdiag is not None:
            x = x * invdiag.reshape(-1, *([1] * (x.ndim - 1)))
        return x


_UNSET = object()


# ---------------------------------------------------------------------- #
# resolution
# ---------------------------------------------------------------------- #
#: The reference engine, shared by fallbacks and delegation.
NUMPY_ENGINE = NumpyEngine()

_ENGINES: dict[str, KernelEngine] = {"numpy": NUMPY_ENGINE}


def get_engine(name: str) -> KernelEngine:
    """The singleton engine for a tier name (building it on first use)."""
    try:
        return _ENGINES[name]
    except KeyError:
        pass
    if name == "scipy":
        if not have_scipy():
            raise ValueError(
                "the 'scipy' kernel tier requires scipy, which is not "
                "importable in this environment; available tiers: "
                f"{list(available_kernels())}")
        engine = ScipyEngine()
    else:
        raise ValueError(
            f"unknown kernel tier {name!r}; expected one of {list(KERNEL_CHOICES)}")
    _ENGINES[name] = engine
    return engine


def default_kernels() -> str:
    """The ambient default tier name: ``$REPRO_KERNELS`` or ``"numpy"``."""
    return os.environ.get(KERNELS_ENV_VAR) or "numpy"


def _resolve_auto() -> str:
    """``"auto"``: the compiled scipy tier when available, else numpy."""
    return "scipy" if have_scipy() else "numpy"


def effective_kernels(spec_value: str | None = None,
                      flag: str | None = None) -> str:
    """Resolve the effective tier name with precedence ``spec < env < flag``.

    ``spec_value`` is what a :class:`~repro.specs.ExecutionSpec` carries
    (``None`` means unset), the environment variable ``REPRO_KERNELS``
    overrides it, and an explicit ``flag`` (e.g. the CLI ``--kernels``)
    overrides both.  ``"auto"`` resolves to the best available tier
    (scipy → numpy).  The returned name is validated and available.
    """
    value = flag or os.environ.get(KERNELS_ENV_VAR) or spec_value or "numpy"
    if value not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel tier {value!r}; expected one of {list(KERNEL_CHOICES)}")
    if value == "auto":
        value = _resolve_auto()
    get_engine(value)  # availability check (raises with the install hint)
    return value


def resolve_engine(spec) -> KernelEngine:
    """Coerce an engine spec to a :class:`KernelEngine` instance.

    ``None`` resolves to the ambient default (``$REPRO_KERNELS`` else
    ``"numpy"``), ``"auto"`` to the best available tier, a tier name to its
    singleton; built engines pass through.
    """
    if spec is None:
        spec = default_kernels()
    if isinstance(spec, KernelEngine):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"kernel engine must be a tier name (one of {list(KERNEL_CHOICES)}), "
            f"a KernelEngine, or None; got {type(spec).__name__}")
    if spec == "auto":
        spec = _resolve_auto()
    if spec not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel tier {spec!r}; expected one of {list(KERNEL_CHOICES)}")
    return get_engine(spec)
