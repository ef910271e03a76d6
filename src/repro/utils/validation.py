"""Input validation helpers used across the library.

All solver entry points funnel user input through these functions so that
error messages are consistent and the numerical kernels can assume clean,
contiguous float64 data (see the HPC guide: keep hot loops free of checks).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_dense_vector",
    "check_square",
    "require_positive_int",
]


def as_dense_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a contiguous 1-D float64 array.

    Parameters
    ----------
    x : array_like
        Input data.  A ``(n, 1)`` or ``(1, n)`` array is flattened.
    n : int, optional
        Required length.  If given and the coerced vector has a different
        length, a ``ValueError`` is raised.
    name : str
        Name used in error messages.

    Returns
    -------
    numpy.ndarray
        A C-contiguous ``float64`` vector.  The input is copied only when
        necessary (dtype/contiguity conversion or reshaping).
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.reshape(-1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    return np.ascontiguousarray(arr)


def check_square(shape: tuple[int, int], name: str = "matrix") -> int:
    """Validate that ``shape`` is square and return its dimension."""
    if len(shape) != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {shape}")
    nrows, ncols = shape
    if nrows != ncols:
        raise ValueError(f"{name} must be square, got shape {shape}")
    return nrows


def require_positive_int(value, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return ivalue
