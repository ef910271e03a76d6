"""Preconditioner setup/apply cost benchmarks.

Times the construction and per-application cost of every bundled
preconditioner on the Poisson and convection–diffusion problems at the
configured scale, and — for the preconditioners that solve through
triangular factors — times a *seed-style reference sweep* (the row-by-row
masked formulation the factors replaced) in-process, so the recorded
``speedup_vs_seed_sweep`` stays an honest apples-to-apples number no matter
how the surrounding code evolves.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import SCALE_SIZES
from repro.gallery.convection_diffusion import convection_diffusion_2d
from repro.precond.ilu import ILU0Preconditioner
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.polynomial import NeumannPolynomialPreconditioner
from repro.precond.ssor import GaussSeidelPreconditioner, SSORPreconditioner

#: Scales at which the acceptance floor (>= 5x on ILU/SSOR apply) is
#: asserted.  Tiny/small problems are too short for a stable factor in CI
#: smoke runs; they still record their measurements.
SPEEDUP_ASSERT_SCALES = ("medium", "paper")
SPEEDUP_FLOOR = 5.0


@pytest.fixture(scope="module")
def convdiff_bench_matrix(scale):
    """Convection–diffusion matrix on the same grid as the Poisson problem."""
    grid_n, _ = SCALE_SIZES[scale]
    return convection_diffusion_2d(grid_n)


# --------------------------------------------------------------------------- #
# seed-style reference sweeps (the formulation PR 2 replaced)
# --------------------------------------------------------------------------- #
def _seed_forward_sweep(A, r, diag, omega=None):
    """Row-by-row ``(D + L) z = r`` (or ``(D/w + L) y = r``), seed formulation."""
    z = np.zeros_like(r)
    for i in range(A.shape[0]):
        cols, vals = A.row(i)
        mask = cols < i
        acc = float(np.dot(vals[mask], z[cols[mask]])) if mask.any() else 0.0
        z[i] = (r[i] - acc) / diag[i] if omega is None else (r[i] - acc) * omega / diag[i]
    return z


def _seed_backward_sweep(A, y, diag, omega):
    z = np.zeros_like(y)
    for i in range(A.shape[0] - 1, -1, -1):
        cols, vals = A.row(i)
        mask = cols > i
        acc = float(np.dot(vals[mask], z[cols[mask]])) if mask.any() else 0.0
        z[i] = (y[i] - acc) * omega / diag[i]
    return z


def _seed_ssor_apply(A, r, diag, omega):
    y = _seed_forward_sweep(A, r, diag, omega=omega)
    y *= (2.0 - omega) / omega * diag
    return _seed_backward_sweep(A, y, diag, omega)


def _seed_ilu_apply(m, r):
    """Row-by-row L/U substitution over the factored CSR data (seed apply)."""
    n = m.shape[0]
    indptr, indices, data = m.indptr, m.indices, m.data
    y = np.zeros_like(r)
    for i in range(n):
        start, stop = indptr[i], indptr[i + 1]
        cols = indices[start:stop]
        vals = data[start:stop]
        mask = cols < i
        acc = float(np.dot(vals[mask], y[cols[mask]])) if mask.any() else 0.0
        y[i] = r[i] - acc
    z = np.zeros_like(r)
    for i in range(n - 1, -1, -1):
        start, stop = indptr[i], indptr[i + 1]
        cols = indices[start:stop]
        vals = data[start:stop]
        mask = cols > i
        acc = float(np.dot(vals[mask], z[cols[mask]])) if mask.any() else 0.0
        dptr = m._diag_ptr[i]
        pivot = data[dptr] if dptr >= 0 and data[dptr] != 0.0 else 1.0
        z[i] = (y[i] - acc) / pivot
    return z


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_factor_benchmark(benchmark, scale, A, build, seed_apply, problem_name):
    rng = np.random.default_rng(2014)
    r = rng.standard_normal(A.shape[0])

    setup_seconds = _best_of(lambda: build())
    m = build()
    z = benchmark(m.apply, r)

    seed_seconds = _best_of(lambda: seed_apply(m, r))
    # The seed-style reference must agree numerically (it sums rows in a
    # different order).
    reference = seed_apply(m, r)
    np.testing.assert_allclose(z, reference, rtol=1e-9, atol=1e-12)

    apply_seconds = benchmark.stats.stats.min
    speedup = seed_seconds / apply_seconds if apply_seconds > 0 else float("inf")
    benchmark.extra_info.update({
        "problem": problem_name,
        "n": A.shape[0],
        "nnz": A.nnz,
        "scale": scale,
        "setup_seconds": round(setup_seconds, 6),
        "seed_sweep_seconds": round(seed_seconds, 6),
        "speedup_vs_seed_sweep": round(speedup, 2),
    })
    print(f"\n{problem_name}: apply {apply_seconds * 1e3:.3f} ms vs seed-style "
          f"{seed_seconds * 1e3:.3f} ms -> {speedup:.1f}x")
    if scale in SPEEDUP_ASSERT_SCALES:
        assert speedup >= SPEEDUP_FLOOR, (
            f"apply is only {speedup:.2f}x the seed sweep "
            f"(floor {SPEEDUP_FLOOR}x)")


# --------------------------------------------------------------------------- #
# triangular-factor preconditioners: ILU(0), SSOR, Gauss-Seidel
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("problem_name", ["poisson", "convdiff"])
def test_precond_ilu0_apply(benchmark, poisson_bench_problem, convdiff_bench_matrix,
                            scale, problem_name):
    A = poisson_bench_problem.A if problem_name == "poisson" else convdiff_bench_matrix
    _run_factor_benchmark(benchmark, scale, A, lambda: ILU0Preconditioner(A),
                          _seed_ilu_apply, f"ILU0/{problem_name}")


@pytest.mark.parametrize("problem_name", ["poisson", "convdiff"])
def test_precond_ssor_apply(benchmark, poisson_bench_problem, convdiff_bench_matrix,
                            scale, problem_name):
    A = poisson_bench_problem.A if problem_name == "poisson" else convdiff_bench_matrix
    omega = 1.0

    def seed_apply(m, r):
        return _seed_ssor_apply(m.A, r, m._diag, m.omega)

    _run_factor_benchmark(benchmark, scale, A,
                          lambda: SSORPreconditioner(A, omega=omega),
                          seed_apply, f"SSOR/{problem_name}")


def test_precond_gauss_seidel_apply(benchmark, poisson_bench_problem, scale):
    A = poisson_bench_problem.A

    def seed_apply(m, r):
        return _seed_forward_sweep(m.A, r, m._diag)

    _run_factor_benchmark(benchmark, scale, A,
                          lambda: GaussSeidelPreconditioner(A),
                          seed_apply, "GaussSeidel/poisson")


# --------------------------------------------------------------------------- #
# diagonal/polynomial preconditioners (setup + apply context numbers)
# --------------------------------------------------------------------------- #
def test_precond_jacobi_apply(benchmark, poisson_bench_problem, scale):
    A = poisson_bench_problem.A
    r = np.random.default_rng(2014).standard_normal(A.shape[0])
    setup_seconds = _best_of(lambda: JacobiPreconditioner(A))
    m = JacobiPreconditioner(A)
    benchmark(m.apply, r)
    benchmark.extra_info.update({"n": A.shape[0], "scale": scale,
                                 "setup_seconds": round(setup_seconds, 6)})


def test_precond_neumann_apply(benchmark, poisson_bench_problem, scale):
    A = poisson_bench_problem.A
    r = np.random.default_rng(2014).standard_normal(A.shape[0])
    m = NeumannPolynomialPreconditioner(A, degree=3)
    z = benchmark(m.apply, r)
    assert np.all(np.isfinite(z))
    benchmark.extra_info.update({"n": A.shape[0], "scale": scale, "degree": 3})
