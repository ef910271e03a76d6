"""Deterministic random-number-generator plumbing.

The stochastic parts of the library (the matrix gallery, norm estimates
and the Figure 2 experiment) accept either an integer seed, an existing
``numpy.random.Generator``, or ``None``.  These helpers normalize that input
so experiment scripts are reproducible by construction.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator"]


def as_generator(seed_or_rng=None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, generator, or ``None``.

    Passing an existing generator returns it unchanged (so callers can share
    a stream); passing ``None`` creates a freshly seeded generator.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)
