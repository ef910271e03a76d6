"""Sparse-matrix substrate.

The paper's experiments run on Trilinos/Tpetra sparse operators.  This
subpackage rebuilds the pieces the algorithms actually need, from scratch:

* :class:`~repro.sparse.coo.COOMatrix` — coordinate-format builder.
* :class:`~repro.sparse.csr.CSRMatrix` — compressed-sparse-row storage with
  NumPy sparse products (``matvec``, ``rmatvec``, ``matmat``, ``rmatmat``;
  the matrix–vector product is the dominant kernel of GMRES) and the
  ``add``/``scale``/``diagonal`` helpers.
* :class:`~repro.sparse.linear_operator.LinearOperator` — the abstraction the
  Krylov solvers are written against, so dense arrays, our CSR matrices,
  ``scipy.sparse`` matrices, and matrix-free callables are all accepted.
* :class:`~repro.sparse.trisolve.TriangularFactor` — sparse triangular
  solves through SuperLU's ``gstrs``, prepared once per factor (the kernel
  behind the ILU(0), Gauss–Seidel and SSOR preconditioners); scipy is
  imported when the first factor is built, not with this package.
* Norm computations (:mod:`repro.sparse.norms`) used by the SDC detector
  bound ``|h_ij| <= ||A||_2 <= ||A||_F``.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.linear_operator import LinearOperator, aslinearoperator, MatrixFreeOperator
from repro.sparse.norms import (
    frobenius_norm,
    two_norm_estimate,
    hessenberg_bound,
)
from repro.sparse.trisolve import TriangularFactor, split_triangle

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "TriangularFactor",
    "split_triangle",
    "LinearOperator",
    "MatrixFreeOperator",
    "aslinearoperator",
    "frobenius_norm",
    "two_norm_estimate",
    "hessenberg_bound",
]
