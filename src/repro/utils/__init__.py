"""Shared utilities: validation, RNG handling and timing.

These helpers are deliberately dependency-free (NumPy only) so that every
other subpackage can use them without circular imports.
"""

from repro.utils.validation import (
    as_dense_vector,
    check_square,
    require_positive_int,
)
from repro.utils.rng import as_generator
from repro.utils.timer import Timer

__all__ = [
    "as_dense_vector",
    "check_square",
    "require_positive_int",
    "as_generator",
    "Timer",
]
