"""Baseline solvers the paper compares against.

* :func:`repro.baselines.cg.cg` — Conjugate Gradient, the solver the paper
  notes could be used for the SPD Poisson problem (and cannot be used for
  the nonsymmetric circuit problem).
"""

from repro.baselines.cg import cg

__all__ = ["cg"]
