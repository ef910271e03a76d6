"""Core Krylov solvers and the paper's SDC-detection machinery.

Public entry points:

* :func:`repro.core.gmres.gmres` — GMRES (optionally restarted) with the
  Hessenberg-bound detector, fault-injection hooks, and selectable projected
  least-squares policy.
* :func:`repro.core.fgmres.fgmres` — Flexible GMRES with a per-iteration
  preconditioner/inner-solver, rank-revealing breakdown handling
  (the paper's "trichotomy").
* :func:`repro.core.ftgmres.ft_gmres` — the paper's nested FT-GMRES solver:
  reliable FGMRES outside, unreliable GMRES inside; only the inner
  solves receive the fault injector.
* :class:`repro.core.detectors.HessenbergBoundDetector` — the cheap invariant
  check ``|h_ij| <= ||A||_F``.
"""

from repro.core.status import SolverStatus, SolverResult, NestedSolverResult, ConvergenceHistory
from repro.core.hessenberg import HessenbergMatrix
from repro.core.arnoldi import ArnoldiContext, arnoldi_step, arnoldi_process
from repro.core.least_squares import (
    IncrementalGivensQR,
    LeastSquaresPolicy,
    solve_projected_lsq,
    solve_triangular,
    solve_rank_revealing,
)
from repro.core.detectors import (
    Detector,
    DetectionResult,
    HessenbergBoundDetector,
    NonFiniteDetector,
    NormGrowthDetector,
    CompositeDetector,
    NullDetector,
)
from repro.core.gmres import gmres
from repro.core.fgmres import fgmres
from repro.core.ftgmres import ft_gmres
from repro.core.batched import (
    BatchedArnoldi,
    BatchedGivensQR,
    batched_ft_gmres,
    batched_support_reason,
)

__all__ = [
    "SolverStatus",
    "SolverResult",
    "NestedSolverResult",
    "ConvergenceHistory",
    "HessenbergMatrix",
    "ArnoldiContext",
    "arnoldi_step",
    "arnoldi_process",
    "IncrementalGivensQR",
    "LeastSquaresPolicy",
    "solve_projected_lsq",
    "solve_triangular",
    "solve_rank_revealing",
    "Detector",
    "DetectionResult",
    "HessenbergBoundDetector",
    "NonFiniteDetector",
    "NormGrowthDetector",
    "CompositeDetector",
    "NullDetector",
    "gmres",
    "fgmres",
    "ft_gmres",
    "BatchedArnoldi",
    "BatchedGivensQR",
    "batched_ft_gmres",
    "batched_support_reason",
]
