"""Kernel micro-benchmarks: SpMV, orthogonalization, detection overhead, solvers.

These are conventional pytest-benchmark timings (many rounds) rather than
one-shot experiment regenerations.  They quantify two performance claims the
paper makes qualitatively:

* the bound check is "very little extra computation" — compare GMRES with and
  without the detector;
* the orthogonalization work grows linearly with the iteration index, so extra
  robustness early in the inner solve is cheap (Section VII-E-1).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines.cg import cg
from repro.core.arnoldi import ArnoldiContext, arnoldi_process
from repro.core.detectors import HessenbergBoundDetector
from repro.core.ftgmres import ft_gmres
from repro.core.gmres import gmres
from repro.faults.injector import FaultInjector
from repro.faults.models import PAPER_FAULT_CLASSES
from repro.faults.schedule import InjectionSchedule
from repro.sparse.norms import frobenius_norm, two_norm_estimate


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2014)


def test_kernel_spmv(benchmark, poisson_bench_problem, rng):
    A = poisson_bench_problem.A
    x = rng.standard_normal(A.shape[1])
    y = benchmark(A.matvec, x)
    assert y.shape == (A.shape[0],)
    benchmark.extra_info["n"] = A.shape[0]
    benchmark.extra_info["nnz"] = A.nnz


def test_kernel_spmv_vs_scipy(benchmark, poisson_bench_problem, rng):
    """Our CSR SpMV should stay within a small factor of SciPy's C implementation."""
    A = poisson_bench_problem.A
    sp = A.to_scipy()
    x = rng.standard_normal(A.shape[1])
    benchmark(lambda: sp @ x)
    ours = A.matvec(x)
    np.testing.assert_allclose(ours, sp @ x, rtol=1e-12)


def test_kernel_frobenius_norm(benchmark, circuit_bench_problem):
    value = benchmark(frobenius_norm, circuit_bench_problem.A)
    assert value > 0.0


def test_kernel_two_norm_estimate(benchmark, poisson_bench_problem):
    value = benchmark.pedantic(lambda: two_norm_estimate(poisson_bench_problem.A),
                               rounds=3, iterations=1)
    assert 0.0 < value <= 8.0 + 1e-6


def test_kernel_arnoldi_25_steps(benchmark, poisson_bench_problem, rng):
    A = poisson_bench_problem.A
    v0 = rng.standard_normal(A.shape[0])
    Q, H, _ = benchmark.pedantic(lambda: arnoldi_process(A, v0, 25), rounds=3, iterations=1)
    assert H.shape[1] == 25


def test_kernel_arnoldi_detection_overhead(benchmark, poisson_bench_problem, rng):
    """The paper's detector costs one comparison per Hessenberg entry."""
    A = poisson_bench_problem.A
    v0 = rng.standard_normal(A.shape[0])
    detector = HessenbergBoundDetector(frobenius_norm(A))

    def with_detector():
        ctx = ArnoldiContext(detector=detector, detector_response="zero")
        return arnoldi_process(A, v0, 25, ctx=ctx)

    benchmark.pedantic(with_detector, rounds=3, iterations=1)
    benchmark.extra_info["note"] = ("compare against test_kernel_arnoldi_25_steps for the "
                                    "detection overhead")


def test_kernel_gmres_solve(benchmark, poisson_bench_problem):
    p = poisson_bench_problem
    result = benchmark.pedantic(lambda: gmres(p.A, p.b, tol=1e-8, maxiter=300),
                                rounds=3, iterations=1)
    assert result.converged
    benchmark.extra_info["iterations"] = result.iterations


class _AlwaysArmed:
    """Forwards to an injector but has no ``armed``: consulted on every step."""

    def __init__(self, inner):
        self.inner = inner

    def corrupt_scalar(self, site, value, **context):
        return self.inner.corrupt_scalar(site, value, **context)

    def corrupt_vector(self, site, vec, **context):
        return self.inner.corrupt_vector(site, vec, **context)


def test_kernel_gmres_nohook_fast_path(benchmark, poisson_bench_problem):
    """The zero-overhead Arnoldi branch vs the hooked branch and an idle injector.

    The hooked reference runs the identical arithmetic through the
    injection/detection plumbing with a never-firing injector that has no
    ``armed`` method, so every step consults it — what every step of a
    faulted trial cost before arm-at-step.  The idle run attaches the same
    never-firing ``FaultInjector`` as is: it is never armed, so its steps
    take the fast path.  ``speedup_vs_hooked`` is the fast path's dividend,
    ``idle_overhead`` what an attached but idle injector still costs.
    """
    p = poisson_bench_problem
    schedule = InjectionSchedule(site="hessenberg", aggregate_inner_iteration=-1,
                                 mgs_position="first")

    def idle_injector():
        return FaultInjector(PAPER_FAULT_CLASSES["large"], schedule)

    def best_of_three(injector_factory):
        seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            result = gmres(p.A, p.b, tol=1e-8, maxiter=300, injector=injector_factory())
            seconds = min(seconds, time.perf_counter() - start)
        return seconds, result

    hooked_seconds, hooked_result = best_of_three(lambda: _AlwaysArmed(idle_injector()))
    idle_seconds, idle_result = best_of_three(idle_injector)

    fast_result = benchmark.pedantic(lambda: gmres(p.A, p.b, tol=1e-8, maxiter=300),
                                     rounds=3, iterations=1)

    # Neither the fast path nor an idle injector may change the solve at all.
    for other in (hooked_result, idle_result):
        assert fast_result.iterations == other.iterations
        assert np.array_equal(fast_result.x, other.x)

    fast_seconds = benchmark.stats.stats.min
    speedup = hooked_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    benchmark.extra_info["iterations"] = fast_result.iterations
    benchmark.extra_info["hooked_seconds"] = round(hooked_seconds, 4)
    benchmark.extra_info["idle_seconds"] = round(idle_seconds, 4)
    benchmark.extra_info["fast_seconds"] = round(fast_seconds, 4)
    benchmark.extra_info["speedup_vs_hooked"] = round(speedup, 3)
    benchmark.extra_info["idle_overhead"] = round(idle_seconds / fast_seconds - 1.0, 3)
    print(f"\nno-hook fast path: {fast_seconds:.4f}s vs hooked {hooked_seconds:.4f}s "
          f"-> {speedup:.2f}x; idle injector {idle_seconds:.4f}s")


def test_kernel_cg_solve(benchmark, poisson_bench_problem):
    p = poisson_bench_problem
    result = benchmark.pedantic(lambda: cg(p.A, p.b, tol=1e-8, maxiter=2000),
                                rounds=3, iterations=1)
    assert result.converged
    benchmark.extra_info["iterations"] = result.iterations


def test_kernel_ftgmres_nested_solve(benchmark, poisson_bench_problem):
    p = poisson_bench_problem
    result = benchmark.pedantic(
        lambda: ft_gmres(p.A, p.b, inner_iterations=25, max_outer=100),
        rounds=3, iterations=1)
    assert result.converged
    benchmark.extra_info["outer_iterations"] = result.outer_iterations
    benchmark.extra_info["total_inner_iterations"] = result.total_inner_iterations
