"""Ablation ``ablation-lsq``: the three projected least-squares policies (§VI-D).

The paper recommends either the standard triangular solve (policy 1) or the
always-rank-revealing solve (policy 3) and warns that the hybrid policy 2
"conceals the natural error detection" of IEEE-754.  This ablation injects a
near-zeroing SDC into the subdiagonal entry (driving the triangular factor
toward singularity) and compares the three policies on both test problems.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gmres import gmres
from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault
from repro.faults.schedule import InjectionSchedule


POLICIES = ("standard", "hybrid", "rank_revealing")


def _subdiag_injector(location=3):
    return FaultInjector(
        ScalingFault(1e-300),
        InjectionSchedule(site="subdiag", aggregate_inner_iteration=location,
                          mgs_position=None),
    )


@pytest.mark.parametrize("problem_name", ["poisson", "circuit"])
def test_ablation_lsq_policies_under_subdiag_sdc(benchmark, poisson_bench_problem,
                                                 circuit_bench_problem, problem_name, scale):
    problem = poisson_bench_problem if problem_name == "poisson" else circuit_bench_problem

    def run():
        results = {}
        for policy in POLICIES:
            result = gmres(problem.A, problem.b, tol=0.0, maxiter=25, restart=25,
                           lsq_policy=policy, injector=_subdiag_injector())
            results[policy] = {
                "residual_norm": result.residual_norm,
                "solution_norm": float(np.linalg.norm(result.x)),
                "finite": bool(np.all(np.isfinite(result.x))),
                "fallback_events": sum(e.kind == "lsq_fallback" for e in result.events),
                "nonfinite_events": sum(e.kind == "lsq_nonfinite" for e in result.events),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"Least-squares policy ablation under a x1e-300 subdiagonal SDC "
          f"({problem_name}, scale={scale}):")
    norm_b = float(np.linalg.norm(problem.b))
    for policy, info in results.items():
        print(f"  {policy:15s}: relative residual={info['residual_norm'] / norm_b:.3e}, "
              f"||x||={info['solution_norm']:.3e}, finite={info['finite']}, "
              f"hybrid fallbacks={info['fallback_events']}")
        for key, value in info.items():
            benchmark.extra_info[f"{policy}.{key}"] = value

    # The rank-revealing policy always returns a bounded, finite update.
    assert results["rank_revealing"]["finite"]
    # Its iterate is never (much) worse than the standard policy's.
    assert (results["rank_revealing"]["residual_norm"]
            <= 10.0 * results["standard"]["residual_norm"]
            or not results["standard"]["finite"])


def test_ablation_lsq_policies_failure_free_cost(benchmark, poisson_bench_problem):
    """Without faults the three policies produce the same iterate; this measures
    the (small) extra cost of the rank-revealing SVD per restart cycle."""

    def run():
        iterates = {}
        for policy in POLICIES:
            result = gmres(poisson_bench_problem.A, poisson_bench_problem.b, tol=1e-8,
                           maxiter=200, restart=50, lsq_policy=policy)
            iterates[policy] = result
        return iterates

    iterates = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = iterates["standard"].x
    for policy, result in iterates.items():
        assert result.converged
        np.testing.assert_allclose(result.x, reference, rtol=1e-5, atol=1e-7)
        benchmark.extra_info[f"{policy}.iterations"] = result.iterations
