"""Finite-difference Poisson matrices (the paper's SPD test problem).

``poisson2d(n)`` reproduces MATLAB's ``gallery('poisson', n)``: the block
tridiagonal matrix of the 5-point stencil on an ``n x n`` grid with Dirichlet
boundary conditions, scaled so the diagonal is 4.  The paper uses ``n = 100``
(10,000 rows, 49,600 nonzeros).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require_positive_int

__all__ = ["poisson2d"]


def poisson2d(n: int) -> CSRMatrix:
    """2-D Poisson 5-point stencil on an ``n x n`` grid (``n^2 x n^2`` matrix).

    Equivalent to MATLAB ``gallery('poisson', n)``: diagonal 4, off-diagonals
    -1 for the four grid neighbours, natural (row-major) ordering.  The
    result is symmetric positive definite.

    Parameters
    ----------
    n : int
        Grid points per side; the matrix has ``n**2`` rows.
    """
    n = require_positive_int(n, "n")
    N = n * n
    i = np.arange(N, dtype=np.int64)
    ix = i % n       # x position within a grid row
    iy = i // n      # grid row

    rows = [i]
    cols = [i]
    vals = [np.full(N, 4.0)]

    # West neighbour (ix > 0)
    mask = ix > 0
    rows.append(i[mask]); cols.append(i[mask] - 1); vals.append(np.full(mask.sum(), -1.0))
    # East neighbour (ix < n-1)
    mask = ix < n - 1
    rows.append(i[mask]); cols.append(i[mask] + 1); vals.append(np.full(mask.sum(), -1.0))
    # South neighbour (iy > 0)
    mask = iy > 0
    rows.append(i[mask]); cols.append(i[mask] - n); vals.append(np.full(mask.sum(), -1.0))
    # North neighbour (iy < n-1)
    mask = iy < n - 1
    rows.append(i[mask]); cols.append(i[mask] + n); vals.append(np.full(mask.sum(), -1.0))

    coo = COOMatrix((N, N), rows=np.concatenate(rows), cols=np.concatenate(cols),
                    values=np.concatenate(vals))
    return coo.tocsr()
