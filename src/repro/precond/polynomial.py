"""Neumann-series polynomial preconditioner.

Approximates ``A^{-1}`` by the truncated Neumann series of the Jacobi-scaled
matrix:

    M^{-1} = (I + N + N^2 + ... + N^degree) D^{-1},   N = I - D^{-1} A.

Entirely made of SpMVs and vector updates, so it shares GMRES's performance
profile and is a natural "unreliable inner operator" for the fault
experiments (its application is pure floating-point data flow).
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner
from repro.sparse.csr import CSRMatrix

__all__ = ["NeumannPolynomialPreconditioner"]


class NeumannPolynomialPreconditioner(Preconditioner):
    """Truncated Neumann-series preconditioner of a given degree.

    Parameters
    ----------
    A : CSRMatrix
        Matrix to precondition.
    degree : int
        Number of Neumann terms beyond the identity (``degree=0`` reduces to
        Jacobi).  The series only converges when the Jacobi iteration matrix
        has spectral radius below one (e.g. diagonally dominant matrices);
        for other matrices the preconditioner is still a valid linear
        operator, just a weaker one.
    """

    def __init__(self, A: CSRMatrix, degree: int = 2):
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        self.shape = A.shape
        self.A = A
        self.degree = int(degree)
        diag = A.diagonal()
        diag = np.where(diag == 0.0, 1.0, diag)
        self._inv_diag = 1.0 / diag

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64).ravel()
        if r.shape[0] != self.n:
            raise ValueError(f"vector length {r.shape[0]} does not match {self.n}")
        # z_0 = D^{-1} r;  z_{k+1} = z_k + N z_k with N = I - D^{-1} A
        z = self._inv_diag * r
        if self.degree == 0:
            return z
        term = z.copy()
        for _ in range(self.degree):
            # Allocation-free update: the SpMV result doubles as scratch, so
            # the loop performs no temporaries beyond it (same floating-point
            # operations as the expression form, asserted in the tests).
            Av = self.A.matvec(term)
            np.multiply(Av, self._inv_diag, out=Av)
            np.subtract(term, Av, out=term)
            np.add(z, term, out=z)
        return z

    def apply_block(self, R: np.ndarray) -> np.ndarray:
        """Block Neumann application: the same recurrence on ``(n, B)`` slabs.

        Every step is the multi-RHS twin of the vector kernel (``matmat``
        instead of ``matvec``, broadcast diagonal scaling), so each column is
        bit-identical to ``apply`` on that column.
        """
        R = self._coerce_block(R)
        inv_diag = self._inv_diag[:, None]
        Z = inv_diag * R
        if self.degree == 0:
            return Z
        term = Z.copy()
        for _ in range(self.degree):
            AV = self.A.matmat(term)
            np.multiply(AV, inv_diag, out=AV)
            np.subtract(term, AV, out=term)
            np.add(Z, term, out=Z)
        return Z
