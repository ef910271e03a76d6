"""Gauss–Seidel and SSOR preconditioners.

Both are stationary sweeps over the CSR matrix.  The ``(D + L)`` /
``(D/ω + L)`` / ``(D/ω + U)`` factors are split from ``A`` once at
construction as :class:`~repro.sparse.trisolve.TriangularFactor` objects,
which prepare SuperLU's ``gstrs`` operands then, so each sweep is one
compiled triangular solve (see :mod:`repro.sparse.trisolve`).
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner
from repro.sparse.csr import CSRMatrix
from repro.sparse.trisolve import TriangularFactor

__all__ = ["GaussSeidelPreconditioner", "SSORPreconditioner"]


class GaussSeidelPreconditioner(Preconditioner):
    """One forward Gauss–Seidel sweep: solve ``(D + L) z = r``.

    ``D`` is the diagonal and ``L`` the strictly lower triangle of ``A``.
    Zero diagonal entries are replaced by 1.

    Parameters
    ----------
    A : CSRMatrix
        The matrix to sweep over.
    """

    def __init__(self, A: CSRMatrix):
        self.shape = A.shape
        self.A = A
        diag = A.diagonal()
        self._diag = np.where(diag == 0.0, 1.0, diag)
        self._factor = TriangularFactor.from_csr(A, "lower", diag=self._diag)

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64).ravel()
        if r.shape[0] != self.n:
            raise ValueError(f"vector length {r.shape[0]} does not match {self.n}")
        return self._factor.solve(r)

    def apply_block(self, R: np.ndarray) -> np.ndarray:
        """One forward sweep over a whole ``(n, B)`` block of residuals."""
        R = self._coerce_block(R)
        return self._factor.solve(R)


class SSORPreconditioner(Preconditioner):
    """Symmetric successive over-relaxation preconditioner.

    Applies the standard SSOR operator

        M = (D/ω + L) [ (2-ω)/ω · D ]^{-1} (D/ω + U)

    through one forward and one backward sweep.  With ``omega = 1`` this is
    symmetric Gauss–Seidel.

    Parameters
    ----------
    A : CSRMatrix
        The matrix to sweep over.
    omega : float
        Relaxation parameter in ``(0, 2)``.
    """

    def __init__(self, A: CSRMatrix, omega: float = 1.0):
        if not 0.0 < omega < 2.0:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        self.shape = A.shape
        self.A = A
        self.omega = float(omega)
        diag = A.diagonal()
        self._diag = np.where(diag == 0.0, 1.0, diag)
        scaled = self._diag / self.omega
        self._forward = TriangularFactor.from_csr(A, "lower", diag=scaled)
        self._backward = TriangularFactor.from_csr(A, "upper", diag=scaled)
        self._mid_scale = (2.0 - self.omega) / self.omega * self._diag

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64).ravel()
        if r.shape[0] != self.n:
            raise ValueError(f"vector length {r.shape[0]} does not match {self.n}")
        # Forward sweep: (D/w + L) y = r
        y = self._forward.solve(r)
        # Diagonal scaling: y <- [(2-w)/w * D] y   (solve returned a fresh
        # array, so the in-place scale is safe)
        y *= self._mid_scale
        # Backward sweep: (D/w + U) z = y
        return self._backward.solve(y)

    def apply_block(self, R: np.ndarray) -> np.ndarray:
        """Both SSOR sweeps on a whole ``(n, B)`` block of residuals."""
        R = self._coerce_block(R)
        Y = self._forward.solve(R)
        Y *= self._mid_scale[:, None]
        return self._backward.solve(Y)
