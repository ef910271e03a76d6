"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens to a few hundred unknowns) so the full
suite runs in seconds; the paper-scale configurations are exercised by the
benchmark harness instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gallery.poisson import poisson2d
from repro.gallery.convection_diffusion import convection_diffusion_2d
from repro.gallery.problems import circuit_problem, poisson_problem
from repro.sparse.csr import CSRMatrix

from reference import diagonally_dominant, tridiagonal


class AlwaysArmedInjector:
    """Forwards to an injector (or to none) but has no ``armed`` method.

    The solvers count such an injector as armed on every step, so it forces
    the hooked Arnoldi path with every per-coefficient consult: the
    reference the arm-at-step fast path must reproduce bit for bit.
    ``consults`` counts the calls that reached it.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.consults = 0

    def corrupt_scalar(self, site, value, **context):
        self.consults += 1
        if self.inner is None:
            return value
        return self.inner.corrupt_scalar(site, value, **context)

    def corrupt_vector(self, site, vec, **context):
        self.consults += 1
        if self.inner is None:
            return vec
        return self.inner.corrupt_vector(site, vec, **context)


@pytest.fixture
def always_armed():
    """The :class:`AlwaysArmedInjector` class (call it to wrap an injector)."""
    return AlwaysArmedInjector


@pytest.fixture
def count_kind():
    """``count_kind(events, kind)``: how many events of ``kind`` a list holds.

    Results and Arnoldi contexts carry a plain ``list[Event]``, whose own
    ``count("kind")`` compares whole events and silently returns 0.
    """
    def count(events, kind: str) -> int:
        return sum(event.kind == kind for event in events)

    return count


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense(rng) -> np.ndarray:
    """A well-conditioned dense 12x12 matrix."""
    A = rng.standard_normal((12, 12))
    return A + 12.0 * np.eye(12)


@pytest.fixture
def poisson_small() -> CSRMatrix:
    """2-D Poisson matrix on a 6x6 grid (36 rows, SPD)."""
    return poisson2d(6)


@pytest.fixture
def poisson_medium() -> CSRMatrix:
    """2-D Poisson matrix on a 12x12 grid (144 rows, SPD)."""
    return poisson2d(12)


@pytest.fixture
def nonsym_small() -> CSRMatrix:
    """A small nonsymmetric convection-diffusion matrix (36 rows)."""
    return convection_diffusion_2d(6)


@pytest.fixture
def tridiag_nonsym() -> CSRMatrix:
    """A nonsymmetric Toeplitz tridiagonal matrix."""
    return tridiagonal(30, lower=-1.0, diag=3.0, upper=-2.0)


@pytest.fixture
def diag_dom_small() -> CSRMatrix:
    """A strictly diagonally dominant random matrix (50 rows)."""
    return diagonally_dominant(50, density=0.1, dominance=3.0, seed=7)


@pytest.fixture
def poisson_problem_tiny():
    """The paper's SPD problem at tiny scale (100 rows)."""
    return poisson_problem(grid_n=10)


@pytest.fixture
def circuit_problem_tiny():
    """The paper's nonsymmetric problem surrogate at tiny scale (200 rows)."""
    return circuit_problem(200)
