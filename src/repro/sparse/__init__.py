"""Sparse-matrix substrate.

The paper's experiments run on Trilinos/Tpetra sparse operators.  This
subpackage rebuilds the pieces the algorithms actually need, from scratch:

* :class:`~repro.sparse.coo.COOMatrix` — coordinate-format builder.
* :class:`~repro.sparse.csr.CSRMatrix` — compressed-sparse-row storage with a
  vectorized sparse matrix–vector product (the dominant kernel of GMRES);
  callers use its methods (``matvec``, ``rmatvec``, ``matmat``, ``add``,
  ``scale``, ``diagonal``) directly.
* :mod:`~repro.sparse.kernels` — the pluggable kernel tiers (``numpy``,
  ``scipy``) those methods and the triangular solves dispatch through.
* :class:`~repro.sparse.linear_operator.LinearOperator` — the abstraction the
  Krylov solvers are written against, so dense arrays, our CSR matrices,
  ``scipy.sparse`` matrices, and matrix-free callables are all accepted.
* :class:`~repro.sparse.trisolve.TriangularFactor` — level-scheduled sparse
  triangular solves (the kernel behind the stationary/ILU preconditioners).
* Norm computations (:mod:`repro.sparse.norms`) used by the SDC detector
  bound ``|h_ij| <= ||A||_2 <= ||A||_F``.
* Matrix-Market I/O (:mod:`repro.sparse.mmio`) so external matrices (e.g. the
  real ``mult_dcop_03``) can be dropped in when available.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.linear_operator import LinearOperator, aslinearoperator, MatrixFreeOperator
from repro.sparse.norms import (
    frobenius_norm,
    one_norm,
    inf_norm,
    two_norm_estimate,
    hessenberg_bound,
)
from repro.sparse.trisolve import TriangularFactor, split_triangle
from repro.sparse.mmio import read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "TriangularFactor",
    "split_triangle",
    "LinearOperator",
    "MatrixFreeOperator",
    "aslinearoperator",
    "frobenius_norm",
    "one_norm",
    "inf_norm",
    "two_norm_estimate",
    "hessenberg_bound",
    "read_matrix_market",
    "write_matrix_market",
]
