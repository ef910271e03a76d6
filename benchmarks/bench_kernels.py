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
from repro.sparse.kernels import available_kernels
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


# --------------------------------------------------------------------------
# kernel-tier comparisons (PR 6): the compiled scipy tier vs the numpy
# reference, per kernel and end to end.  Each benchmark times the compiled
# tier through pytest-benchmark, times the in-process numpy reference with
# the same best-of-N discipline, and asserts the speedup floor directly —
# BENCH_PR6_kernels.json therefore certifies the floors it records.
# --------------------------------------------------------------------------

#: Microbenchmark floors (ISSUE: scipy >= 1.5x on medium matvec+trisolve).
TIER_MICRO_FLOOR = 1.5
#: End-to-end campaign floor: the solve also contains orthogonalization and
#: least-squares work the kernel tier cannot touch, so the honest floor is
#: "measurably faster", not the microbenchmark multiple (measured ~1.15-1.2x
#: at medium scale).
TIER_CAMPAIGN_FLOOR = 1.05

needs_scipy_tier = pytest.mark.skipif("scipy" not in available_kernels(),
                                      reason="scipy kernel tier unavailable")


def _best_of(func, rounds=10):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _record_speedup(benchmark, ref_seconds, floor, *, assert_floor=True):
    tier_seconds = benchmark.stats.stats.min
    speedup = ref_seconds / tier_seconds if tier_seconds > 0 else float("inf")
    benchmark.extra_info["numpy_seconds"] = round(ref_seconds, 6)
    benchmark.extra_info["scipy_seconds"] = round(tier_seconds, 6)
    benchmark.extra_info["speedup_vs_numpy"] = round(speedup, 3)
    benchmark.extra_info["floor"] = floor
    if assert_floor:
        assert speedup >= floor, \
            f"scipy tier speedup {speedup:.2f}x below the {floor}x floor"
    return speedup


@needs_scipy_tier
def test_kernel_tier_matvec(benchmark, poisson_bench_problem, rng, scale):
    from repro.sparse.kernels import get_engine

    A = poisson_bench_problem.A
    x = rng.standard_normal(A.shape[1])
    numpy_eng, scipy_eng = get_engine("numpy"), get_engine("scipy")
    ref = numpy_eng.matvec(A, x)
    got = scipy_eng.matvec(A, x)  # warm the cached view before timing
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    ref_seconds = _best_of(lambda: numpy_eng.matvec(A, x), rounds=20)
    benchmark.pedantic(lambda: scipy_eng.matvec(A, x), rounds=20, iterations=5)
    benchmark.extra_info["n"] = A.shape[0]
    benchmark.extra_info["nnz"] = A.nnz
    # The compiled win shrinks with the matrix (call overhead dominates tiny
    # problems); the stated floor applies from the default scale up.
    speedup = _record_speedup(benchmark, ref_seconds, TIER_MICRO_FLOOR,
                              assert_floor=(scale != "tiny"))
    print(f"\nscipy matvec: {speedup:.2f}x vs numpy (n={A.shape[0]})")


@needs_scipy_tier
def test_kernel_tier_matmat(benchmark, poisson_bench_problem, rng, scale):
    from repro.sparse.kernels import get_engine

    A = poisson_bench_problem.A
    X = np.asfortranarray(rng.standard_normal((A.shape[1], 8)))
    numpy_eng, scipy_eng = get_engine("numpy"), get_engine("scipy")
    np.testing.assert_allclose(scipy_eng.matmat(A, X), numpy_eng.matmat(A, X),
                               rtol=1e-12, atol=1e-14)

    ref_seconds = _best_of(lambda: numpy_eng.matmat(A, X), rounds=10)
    benchmark.pedantic(lambda: scipy_eng.matmat(A, X), rounds=10, iterations=5)
    benchmark.extra_info["n"] = A.shape[0]
    benchmark.extra_info["block_width"] = 8
    speedup = _record_speedup(benchmark, ref_seconds, TIER_MICRO_FLOOR,
                              assert_floor=(scale != "tiny"))
    print(f"\nscipy matmat (B=8): {speedup:.2f}x vs numpy")


@needs_scipy_tier
def test_kernel_tier_trisolve(benchmark, poisson_bench_problem, rng, scale):
    """Level-scheduled reference vs SuperLU's prepared ``gstrs`` solve on a
    real ILU(0) lower factor."""
    from repro.precond.ilu import ILU0Preconditioner
    from repro.sparse.kernels import get_engine

    A = poisson_bench_problem.A
    L, _ = ILU0Preconditioner(A).factors
    b = rng.standard_normal(A.shape[0])
    numpy_eng, scipy_eng = get_engine("numpy"), get_engine("scipy")
    np.testing.assert_allclose(scipy_eng.trisolve(L, b),
                               numpy_eng.trisolve(L, b), rtol=1e-12)

    ref_seconds = _best_of(lambda: numpy_eng.trisolve(L, b), rounds=10)
    benchmark.pedantic(lambda: scipy_eng.trisolve(L, b), rounds=10, iterations=5)
    benchmark.extra_info["n"] = A.shape[0]
    benchmark.extra_info["levels"] = L.num_levels
    speedup = _record_speedup(benchmark, ref_seconds, TIER_MICRO_FLOOR,
                              assert_floor=(scale != "tiny"))
    print(f"\nscipy trisolve: {speedup:.2f}x vs numpy "
          f"({L.num_levels} levels, n={A.shape[0]})")


@needs_scipy_tier
def test_kernel_tier_campaign_end_to_end(benchmark, poisson_bench_problem,
                                         stride, scale):
    """A whole injection campaign per tier, identical spec, default backend.

    The campaign also spends time in orthogonalization and least-squares
    updates that no kernel tier accelerates, so the asserted floor is the
    measured end-to-end dividend, not the microbenchmark multiple.  The
    trial-identity contract across tiers is asserted by
    ``tests/test_kernel_engines.py``; here both runs must agree on statuses.
    """
    from repro import api
    from repro.specs import CampaignSpec, ExecutionSpec

    p = poisson_bench_problem
    def spec(tier):
        return CampaignSpec(inner_iterations=25, max_outer=60,
                            stride=max(stride * 10, 60),
                            exec=ExecutionSpec(kernels=tier))

    numpy_result = api.run_campaign(p, spec("numpy"))
    ref_seconds = _best_of(lambda: api.run_campaign(p, spec("numpy")), rounds=2)
    scipy_result = benchmark.pedantic(
        lambda: api.run_campaign(p, spec("scipy")), rounds=3, iterations=1)

    statuses = [t.status for t in numpy_result.trials]
    assert [t.status for t in scipy_result.trials] == statuses
    benchmark.extra_info["trials"] = len(statuses)
    speedup = _record_speedup(benchmark, ref_seconds, TIER_CAMPAIGN_FLOOR,
                              assert_floor=(scale not in ("tiny",)))
    print(f"\nscipy-tier campaign: {speedup:.2f}x vs numpy "
          f"({len(statuses)} trials)")
