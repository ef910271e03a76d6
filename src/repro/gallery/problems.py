"""Packaged test problems: matrix + right-hand side + metadata.

The experiment drivers (Table I, Figures 3 and 4) operate on
:class:`TestProblem` instances so the same code runs on the paper's two
problems at full size, on reduced sizes for fast benchmarking, or on a
user-supplied matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gallery.circuit import mult_dcop_surrogate
from repro.gallery.poisson import poisson2d
from repro.sparse.csr import CSRMatrix
from repro.sparse.norms import frobenius_norm, two_norm_estimate
from repro.utils.rng import as_generator

__all__ = ["TestProblem", "poisson_problem", "circuit_problem", "paper_problems"]


@dataclass
class TestProblem:
    """A linear system ``A x = b`` with metadata used by the experiment harness.

    Attributes
    ----------
    name : str
        Human-readable problem name (appears in reports).
    A : CSRMatrix
        The system matrix.
    b : numpy.ndarray
        Right-hand side.
    x0 : numpy.ndarray
        Initial guess (defaults to zeros).
    x_exact : numpy.ndarray or None
        Known exact solution when the right-hand side was manufactured,
        otherwise ``None``.
    spd : bool
        Whether the matrix is symmetric positive definite (drives the
        tridiagonal-Hessenberg structure discussion of the paper).
    description : str
        Free-form provenance notes.
    seed : int or None
        The RNG seed the problem was generated from (``None`` for problems
        without one, e.g. a user-supplied matrix).  Stamped into
        campaign results as provenance.
    """

    #: Tell pytest this is library code, not a test class, despite the name.
    __test__ = False

    name: str
    A: CSRMatrix
    b: np.ndarray
    x0: np.ndarray = field(default=None)  # type: ignore[assignment]
    x_exact: np.ndarray | None = None
    spd: bool = False
    description: str = ""
    seed: int | None = None

    def __post_init__(self) -> None:
        n = self.A.shape[0]
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        if self.b.shape[0] != n:
            raise ValueError(f"b has length {self.b.shape[0]}, expected {n}")
        if self.x0 is None:
            self.x0 = np.zeros(n, dtype=np.float64)
        else:
            self.x0 = np.asarray(self.x0, dtype=np.float64).ravel()
        if self.x_exact is not None:
            self.x_exact = np.asarray(self.x_exact, dtype=np.float64).ravel()

    @property
    def n(self) -> int:
        """Problem dimension."""
        return self.A.shape[0]

    def residual_norm(self, x: np.ndarray) -> float:
        """The unpreconditioned residual norm ``||b - A x||_2``."""
        return float(np.linalg.norm(self.b - self.A.matvec(x)))

    def error_norm(self, x: np.ndarray) -> float:
        """``||x - x_exact||_2`` (raises if no exact solution is recorded)."""
        if self.x_exact is None:
            raise ValueError(f"problem {self.name!r} has no recorded exact solution")
        return float(np.linalg.norm(np.asarray(x, dtype=np.float64) - self.x_exact))

    def detector_bounds(self, estimate_two_norm: bool = True) -> dict[str, float]:
        """The paper's "potential fault detectors": ``||A||_2`` and ``||A||_F``."""
        bounds = {"frobenius": frobenius_norm(self.A)}
        if estimate_two_norm:
            bounds["two_norm"] = two_norm_estimate(self.A)
        return bounds


def _manufactured_rhs(A: CSRMatrix, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Manufacture ``b = A @ x_exact`` with a smooth, O(1) exact solution."""
    rng = as_generator(seed)
    n = A.shape[0]
    x_exact = 1.0 + 0.5 * np.sin(np.linspace(0.0, 4.0 * np.pi, n)) + 0.01 * rng.standard_normal(n)
    return A.matvec(x_exact), x_exact


def poisson_problem(grid_n: int = 100, seed: int = 7) -> TestProblem:
    """The paper's SPD problem: 2-D Poisson on a ``grid_n x grid_n`` grid.

    ``grid_n=100`` reproduces the paper's 10,000-row matrix; smaller grids
    are used for fast tests and benchmarks.
    """
    A = poisson2d(grid_n)
    b, x_exact = _manufactured_rhs(A, seed=seed)
    return TestProblem(
        name=f"poisson-{grid_n}x{grid_n}",
        A=A,
        b=b,
        x_exact=x_exact,
        spd=True,
        description=(
            "2-D Poisson 5-point finite-difference matrix "
            f"(gallery('poisson',{grid_n}) equivalent), manufactured RHS"
        ),
        seed=seed,
    )


def circuit_problem(n_nodes: int = 25187, seed: int = 20140519) -> TestProblem:
    """The nonsymmetric ill-conditioned problem: ``mult_dcop_03`` surrogate.

    The matrix is symmetrically scaled by the inverse square roots of its
    diagonal magnitudes (Jacobi equilibration) before the problem is built.
    Circuit simulators do the same before handing systems to a Krylov
    solver; it keeps the problem solvable by unpreconditioned GMRES while
    remaining nonsymmetric and badly conditioned.

    Parameters
    ----------
    n_nodes : int
        Matrix dimension; defaults to the size of the real matrix.
    seed : int
        Seed for the synthetic circuit.
    """
    A = mult_dcop_surrogate(n_nodes, seed=seed)
    scale = 1.0 / np.sqrt(np.maximum(np.abs(A.diagonal()), 1e-300))
    A = _diagonal_scale(A, scale, scale)
    b, x_exact = _manufactured_rhs(A, seed=seed)
    return TestProblem(
        name=f"mult_dcop_surrogate-{n_nodes}",
        A=A,
        b=b,
        x_exact=x_exact,
        spd=False,
        description=(
            "Synthetic modified-nodal-analysis circuit matrix standing in for "
            "UF mult_dcop_03 (nonsymmetric, structurally full rank, ill-conditioned)"
        ),
        seed=seed,
    )


def _diagonal_scale(A: CSRMatrix, left: np.ndarray, right: np.ndarray) -> CSRMatrix:
    """Return ``diag(left) @ A @ diag(right)`` without densifying."""
    out = A.copy()
    out.data = A.data * left[A.row_ids] * right[A.indices]
    return out


def paper_problems(scale: str = "paper") -> dict[str, TestProblem]:
    """The two problems of the paper's evaluation, at a chosen scale.

    Parameters
    ----------
    scale : {"paper", "medium", "small", "tiny"}
        * ``"paper"`` — full-size matrices (10,000 and 25,187 rows), as in
          Table I.  Sweeps at this size take minutes.
        * ``"medium"`` — 2,500 and 5,000 rows.
        * ``"small"`` — 900 and 1,500 rows (default for benchmarks).
        * ``"tiny"`` — 100 and 200 rows (unit tests).
    """
    sizes = {
        "paper": (100, 25187),
        "medium": (50, 5000),
        "small": (30, 1500),
        "tiny": (10, 200),
    }
    if scale not in sizes:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(sizes)}")
    grid_n, circuit_n = sizes[scale]
    return {
        "poisson": poisson_problem(grid_n),
        "circuit": circuit_problem(circuit_n),
    }
