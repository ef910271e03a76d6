"""Test-problem generators ("matrix gallery").

The paper evaluates on two matrices:

* the 2-D Poisson finite-difference matrix (MATLAB ``gallery('poisson',100)``,
  10,000 rows, SPD) — reproduced exactly by :func:`poisson2d`;
* ``mult_dcop_03`` from the UF Sparse Matrix Collection (25,187 rows,
  nonsymmetric circuit-simulation matrix, condition number ≈ 7.3e13) — not
  redistributable offline, so :func:`mult_dcop_surrogate` builds a synthetic
  circuit-like matrix with the same structural properties (see
  :mod:`repro.gallery.circuit` for the substitution rationale).

:func:`convection_diffusion_2d` adds a nonsymmetric PDE matrix for the
preconditioner benchmarks.
"""

from repro.gallery.poisson import poisson2d
from repro.gallery.convection_diffusion import convection_diffusion_2d
from repro.gallery.circuit import circuit_network, mult_dcop_surrogate
from repro.gallery.problems import TestProblem, paper_problems, poisson_problem, circuit_problem

__all__ = [
    "poisson2d",
    "convection_diffusion_2d",
    "circuit_network",
    "mult_dcop_surrogate",
    "TestProblem",
    "paper_problems",
    "poisson_problem",
    "circuit_problem",
]
