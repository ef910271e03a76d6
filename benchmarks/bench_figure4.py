"""Benchmark ``fig4a``/``fig4b``: single-SDC sweeps on the circuit problem (Figure 4).

Same protocol as Figure 3, applied to the nonsymmetric, ill-conditioned
circuit matrix (the ``mult_dcop_03`` surrogate): a single multiplicative SDC
injected into the first or last MGS coefficient of every aggregate inner
iteration, for the paper's three fault classes.
"""

from __future__ import annotations

import pytest

from repro.api import run_campaign


def _report(campaign, label):
    print()
    print(f"{label}: failure-free outer iterations = {campaign.failure_free_outer}, "
          f"{len(campaign.trials)} faulted runs")
    for cls in campaign.fault_classes():
        locations, outers = campaign.series(cls)
        no_penalty = (outers <= campaign.failure_free_outer).mean() if outers.size else 0.0
        print(f"  fault class {cls:18s}: worst outer = {campaign.max_outer(cls):3d} "
              f"(+{campaign.max_increase(cls)}, {campaign.percent_increase(cls):.1f}%), "
              f"no-penalty fraction = {no_penalty:.2f}")


def _record(benchmark, campaign):
    benchmark.extra_info["failure_free_outer"] = campaign.failure_free_outer
    benchmark.extra_info["trials"] = len(campaign.trials)
    benchmark.extra_info["non_converged"] = len(campaign.non_converged())
    for cls in campaign.fault_classes():
        benchmark.extra_info[f"{cls}.max_outer"] = campaign.max_outer(cls)
        benchmark.extra_info[f"{cls}.max_increase"] = campaign.max_increase(cls)
        benchmark.extra_info[f"{cls}.percent_increase"] = round(
            campaign.percent_increase(cls), 2)


@pytest.mark.parametrize("mgs_position", ["first", "last"], ids=["fig4a", "fig4b"])
def test_figure4_circuit_sdc_sweep(benchmark, circuit_bench_problem, stride, scale,
                                   circuit_max_outer, workers, mgs_position):
    campaign = benchmark.pedantic(
        lambda: run_campaign(
            circuit_bench_problem,
            mgs_position=mgs_position,
            detector=None,
            inner_iterations=25,
            max_outer=circuit_max_outer,
            outer_tol=1e-8,
            stride=stride,
            exec={"workers": workers},
        ),
        rounds=1, iterations=1)
    benchmark.extra_info["workers"] = workers
    _report(campaign, f"Figure 4{'a' if mgs_position == 'first' else 'b'} "
                      f"(circuit, SDC on the {mgs_position} MGS iteration, scale={scale})")
    _record(benchmark, campaign)

    # Shape check: single SDC events never push the solver past its budget
    # (the paper reports at most a handful of extra outer iterations).
    assert len(campaign.non_converged()) == 0
