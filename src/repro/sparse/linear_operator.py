"""The operator abstraction the Krylov solvers are written against.

GMRES, FGMRES, FT-GMRES and CG only ever need ``y = A @ x``; expressing the
solvers against :class:`LinearOperator` lets users pass:

* a :class:`repro.sparse.csr.CSRMatrix`,
* a dense ``numpy.ndarray``,
* any ``scipy.sparse`` matrix,
* an arbitrary matrix-free callable (:class:`MatrixFreeOperator`).

Fault injection into the SpMV result needs no wrapper: the solvers offer
every operator product to their injector at the ``spmv`` site (see
:mod:`repro.core.arnoldi`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["LinearOperator", "MatrixFreeOperator", "aslinearoperator"]


class LinearOperator:
    """Base class: a square or rectangular linear map with ``matvec``.

    Subclasses must set ``shape`` and implement :meth:`matvec`.  ``rmatvec``
    (the transpose product) is optional; operators that cannot provide it
    raise ``NotImplementedError``.
    """

    shape: tuple[int, int]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x``."""
        raise NotImplementedError

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A.T @ x`` (optional)."""
        raise NotImplementedError(f"{type(self).__name__} does not implement rmatvec")

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Return ``A @ X`` for a dense ``(n, B)`` block.

        The default applies :meth:`matvec` column by column, so every
        operator supports block operands; subclasses wrapping formats with a
        native block kernel (CSR, dense, scipy sparse) override this with a
        single-pass implementation whose columns match the column-at-a-time
        result bit for bit (CSR) or to rounding (BLAS-backed formats).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {X.shape}")
        if X.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: operator has {self.shape[1]} columns, "
                f"block has {X.shape[0]} rows"
            )
        Y = np.empty((self.shape[0], X.shape[1]), dtype=np.float64, order="F")
        for j in range(X.shape[1]):
            Y[:, j] = self.matvec(X[:, j])
        return Y

    def __matmul__(self, x):
        arr = np.asarray(x)
        if arr.ndim == 2:
            return self.matmat(arr)
        return self.matvec(arr)

    @property
    def n(self) -> int:
        """Number of columns (the dimension of the solution vector)."""
        return self.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shape={self.shape})"


class _DenseOperator(LinearOperator):
    """Wrap a dense NumPy array."""

    def __init__(self, array: np.ndarray):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError(f"dense operator must be 2-D, got shape {array.shape}")
        self.array = np.ascontiguousarray(array)
        self.shape = array.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.array @ np.asarray(x, dtype=np.float64)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self.array.T @ np.asarray(x, dtype=np.float64)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {X.shape}")
        return self.array @ X


class _CSROperator(LinearOperator):
    """Wrap a :class:`repro.sparse.csr.CSRMatrix`."""

    def __init__(self, csr):
        self.csr = csr
        self.shape = csr.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.csr.matvec(x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self.csr.rmatvec(x)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.csr.matmat(X)


class _ScipyOperator(LinearOperator):
    """Wrap a ``scipy.sparse`` matrix (or anything with ``@`` and ``.T``).

    Block operands take the native ``@`` path: scipy's sparse·dense product
    returns a dense ``(m, B)`` array without densifying the operator.  The
    1-D entry points reject 2-D inputs instead of ``ravel()``-ing them (the
    old behaviour silently flattened a block into a length-``n*B`` vector,
    which is exactly the kind of shape bug the block kernels must not hide).
    """

    def __init__(self, mat):
        self.mat = mat
        self.shape = tuple(int(s) for s in mat.shape)

    @staticmethod
    def _vector(x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 1 and min(x.shape) > 1:
            raise ValueError(
                f"matvec/rmatvec expect a vector, got a block of shape {x.shape}; "
                "use matmat for block operands"
            )
        return x.ravel()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.mat @ self._vector(x)).ravel()

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.mat.T @ self._vector(x)).ravel()

    def matmat(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {X.shape}")
        if X.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: operator has {self.shape[1]} columns, "
                f"block has {X.shape[0]} rows"
            )
        Y = np.asarray(self.mat @ X, dtype=np.float64)
        if Y.shape != (self.shape[0], X.shape[1]):  # pragma: no cover - defensive
            raise ValueError(
                f"underlying operator returned shape {Y.shape}, "
                f"expected {(self.shape[0], X.shape[1])}"
            )
        return Y


class MatrixFreeOperator(LinearOperator):
    """A matrix-free operator defined by callables.

    Parameters
    ----------
    shape : tuple of int
        Operator shape ``(m, n)``.
    matvec : callable
        Function mapping a length-``n`` vector to a length-``m`` vector.
    rmatvec : callable, optional
        Transpose product; omit if unavailable.
    matmat : callable, optional
        Native block product mapping ``(n, B)`` to ``(m, B)``; when omitted
        the inherited column-at-a-time default is used.
    """

    def __init__(self, shape, matvec: Callable[[np.ndarray], np.ndarray],
                 rmatvec: Callable[[np.ndarray], np.ndarray] | None = None,
                 matmat: Callable[[np.ndarray], np.ndarray] | None = None):
        self.shape = (int(shape[0]), int(shape[1]))
        self._matvec = matvec
        self._rmatvec = rmatvec
        self._matmat = matmat

    def matmat(self, X: np.ndarray) -> np.ndarray:
        if self._matmat is None:
            return super().matmat(X)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"matmat expects a 2-D block, got shape {X.shape}")
        Y = np.asarray(self._matmat(X), dtype=np.float64)
        if Y.shape != (self.shape[0], X.shape[1]):
            raise ValueError(
                f"matmat returned shape {Y.shape}, expected {(self.shape[0], X.shape[1])}"
            )
        return Y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(self._matvec(np.asarray(x, dtype=np.float64)), dtype=np.float64).ravel()
        if y.shape[0] != self.shape[0]:
            raise ValueError(
                f"matvec returned length {y.shape[0]}, expected {self.shape[0]}"
            )
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        if self._rmatvec is None:
            raise NotImplementedError("this MatrixFreeOperator has no rmatvec")
        return np.asarray(self._rmatvec(np.asarray(x, dtype=np.float64)),
                          dtype=np.float64).ravel()


def aslinearoperator(A) -> LinearOperator:
    """Coerce ``A`` into a :class:`LinearOperator`.

    Accepted inputs: an existing :class:`LinearOperator` (returned as-is), a
    :class:`repro.sparse.csr.CSRMatrix`, a :class:`repro.sparse.coo.COOMatrix`
    (converted to CSR), a dense ``numpy.ndarray``, or any object exposing
    ``shape`` and supporting ``@`` (e.g. ``scipy.sparse`` matrices).
    """
    from repro.sparse.coo import COOMatrix
    from repro.sparse.csr import CSRMatrix

    if isinstance(A, LinearOperator):
        return A
    if isinstance(A, CSRMatrix):
        return _CSROperator(A)
    if isinstance(A, COOMatrix):
        return _CSROperator(A.tocsr())
    if isinstance(A, np.ndarray):
        return _DenseOperator(A)
    if hasattr(A, "shape") and hasattr(A, "__matmul__"):
        return _ScipyOperator(A)
    raise TypeError(f"cannot interpret object of type {type(A).__name__} as a linear operator")
