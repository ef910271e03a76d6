"""Benchmark ``fig3a``/``fig3b``: single-SDC sweeps on the Poisson problem (Figure 3).

Each benchmark reruns the nested FT-GMRES solve once per (fault class,
injection location) pair, injecting a single multiplicative SDC into the
chosen Modified Gram–Schmidt coefficient, and reports the number of outer
iterations to convergence.  This is the paper's Figure 3:

* panel (a): fault on the *first* MGS iteration,
* panel (b): fault on the *last* MGS iteration,

with the three fault classes h*1e+150, h*10^-0.5, h*1e-300.
"""

from __future__ import annotations

import pytest

from repro.api import run_campaign


def _run_panel(problem, mgs_position, stride, max_outer=100, workers=1):
    return run_campaign(
        problem,
        mgs_position=mgs_position,
        detector=None,
        inner_iterations=25,
        max_outer=max_outer,
        outer_tol=1e-8,
        stride=stride,
        exec={"workers": workers},
    )


def _report(campaign, label):
    print()
    print(f"{label}: failure-free outer iterations = {campaign.failure_free_outer}, "
          f"{len(campaign.trials)} faulted runs")
    for cls in campaign.fault_classes():
        print(f"  fault class {cls:18s}: worst outer = {campaign.max_outer(cls):3d} "
              f"(+{campaign.max_increase(cls)}, {campaign.percent_increase(cls):.1f}%), "
              f"no-penalty fraction = "
              f"{(campaign.series(cls)[1] <= campaign.failure_free_outer).mean():.2f}")


def _record(benchmark, campaign):
    benchmark.extra_info["failure_free_outer"] = campaign.failure_free_outer
    benchmark.extra_info["trials"] = len(campaign.trials)
    for cls in campaign.fault_classes():
        benchmark.extra_info[f"{cls}.max_outer"] = campaign.max_outer(cls)
        benchmark.extra_info[f"{cls}.max_increase"] = campaign.max_increase(cls)
        benchmark.extra_info[f"{cls}.percent_increase"] = round(
            campaign.percent_increase(cls), 2)


@pytest.mark.parametrize("mgs_position", ["first", "last"], ids=["fig3a", "fig3b"])
def test_figure3_poisson_sdc_sweep(benchmark, poisson_bench_problem, stride, scale,
                                   workers, mgs_position):
    campaign = benchmark.pedantic(
        lambda: _run_panel(poisson_bench_problem, mgs_position, stride, workers=workers),
        rounds=1, iterations=1)
    benchmark.extra_info["workers"] = workers
    _report(campaign, f"Figure 3{'a' if mgs_position == 'first' else 'b'} "
                      f"(Poisson, SDC on the {mgs_position} MGS iteration, scale={scale})")
    _record(benchmark, campaign)

    # Shape checks corresponding to the paper's findings.
    assert campaign.non_converged() == [], "every faulted solve must still converge"
    small_classes = [c for c in campaign.fault_classes() if c != "large"]
    for cls in small_classes:
        # Undetectable (small) faults are run through with a bounded penalty
        # (the paper reports at most 1-2 extra outer iterations for Poisson).
        assert campaign.max_increase(cls) <= max(4, campaign.failure_free_outer // 2)
    if mgs_position == "first":
        # Away from the very first inner solve, small faults mostly cost nothing.
        for cls in small_classes:
            locations, outers = campaign.series(cls)
            if outers.size:
                late = outers[locations >= 25]
                if late.size:
                    no_penalty = (late <= campaign.failure_free_outer).mean()
                    assert no_penalty >= 0.5
