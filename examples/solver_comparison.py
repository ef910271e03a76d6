#!/usr/bin/env python
"""Solver comparison: layered FT-GMRES vs flat GMRES.

The paper positions its "run through" philosophy against solving with a
single (unprotected) GMRES.  This example subjects both to the same single
SDC event and compares iterations and outcome, on both of the paper's
problem classes.

Both strategies are driven through the one :func:`repro.api.solve` facade —
the *same* call with a different ``method`` in the spec — which is the point
of the config-first API: strategy comparisons are spec edits, not new
plumbing.

Run with:  python examples/solver_comparison.py [grid_n] [circuit_n]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import ScalingFault, FaultInjector, InjectionSchedule, solve
from repro.experiments.report import format_table
from repro.gallery.problems import circuit_problem, poisson_problem

#: The nested and the flat strategy, as declarative solve specs.
NESTED_SPEC = {"method": "ft_gmres", "max_outer": 120,
               "inner": {"method": "gmres", "tol": 0.0, "maxiter": 25}}
FLAT_SPEC = {"method": "gmres", "tol": 1e-8}


def make_injector(location: int = 1):
    return FaultInjector(
        ScalingFault(1e150),
        InjectionSchedule(site="hessenberg", aggregate_inner_iteration=location,
                          mgs_position="first"))


def run_case(problem, max_total_iterations: int = 600):
    norm_b = np.linalg.norm(problem.b)
    rows = []

    # 1. Nested FT-GMRES (the paper's approach): run through the fault.
    nested_clean = solve(problem.A, problem.b, NESTED_SPEC)
    nested_faulty = solve(problem.A, problem.b, NESTED_SPEC,
                          injector=make_injector())
    rows.append([
        "FT-GMRES (run through)",
        f"{nested_clean.outer_iterations} outer",
        f"{nested_faulty.outer_iterations} outer",
        f"{nested_faulty.residual_norm / norm_b:.1e}",
        nested_faulty.status.value,
    ])

    # 2. Flat GMRES, unprotected — the same facade, a different method.
    flat_clean = solve(problem.A, problem.b, FLAT_SPEC,
                       maxiter=max_total_iterations)
    flat_faulty = solve(problem.A, problem.b, FLAT_SPEC,
                        maxiter=max_total_iterations, injector=make_injector())
    rows.append([
        "GMRES (unprotected)",
        f"{flat_clean.iterations} iters",
        f"{flat_faulty.iterations} iters",
        f"{flat_faulty.residual_norm / norm_b:.1e}",
        flat_faulty.status.value,
    ])
    return rows


def main(grid_n: int = 25, circuit_n: int = 800) -> None:
    for problem in (poisson_problem(grid_n), circuit_problem(circuit_n)):
        print(f"\n=== {problem.name} ({problem.n} unknowns), "
              f"single SDC h -> h * 1e+150 at aggregate inner iteration 1 ===")
        rows = run_case(problem)
        print(format_table(
            ["strategy", "failure-free cost", "cost with the SDC", "final rel. residual",
             "status"],
            rows))
    print("\nTakeaways (matching the paper's argument):")
    print(" * the nested solver absorbs the fault at the cost of at most a couple of outer")
    print("   iterations and needs no verification traffic or checkpointed state;")
    print(" * the flat solver also eventually converges but pays for the corrupted Krylov")
    print("   space inside a single long recurrence.")


if __name__ == "__main__":
    grid_n = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    circuit_n = int(sys.argv[2]) if len(sys.argv) > 2 else 800
    main(grid_n, circuit_n)
