"""Benchmark ``summary``: the Section VII-E with/without-detector comparison.

Runs the Figure-3-style sweep on the Poisson problem twice — once without any
detection and once with the Hessenberg-bound detector filtering impossible
values — and reports the worst-case increase in outer iterations for each.
The paper's headline numbers: with the detector the worst case is ~2 extra
outer iterations, without it ~5 (Poisson); faulting early in the first inner
solve is the universally bad region (33 % / 14 % worst-case increase in
time-to-solution for Poisson / circuit).
"""

from __future__ import annotations

from repro.experiments.summary import detector_comparison
from repro.faults.campaign import FaultCampaign
from repro.faults.models import PAPER_FAULT_CLASSES


def _sweep(problem, detector, stride, max_outer, workers=1):
    campaign = FaultCampaign(
        problem,
        inner_iterations=25,
        max_outer=max_outer,
        outer_tol=1e-8,
        fault_classes=PAPER_FAULT_CLASSES,
        mgs_position="first",
        detector=detector,
        detector_response="zero",
        stride=stride,
        exec={"workers": workers},
    )
    return campaign.run()


def test_summary_detector_effect_poisson(benchmark, poisson_bench_problem, stride, scale,
                                         workers):
    def run():
        without = _sweep(poisson_bench_problem, None, stride, max_outer=100,
                         workers=workers)
        with_det = _sweep(poisson_bench_problem, "bound", stride, max_outer=100,
                          workers=workers)
        return detector_comparison(without, with_det)

    comparison = benchmark.pedantic(run, rounds=1, iterations=1)

    without = comparison["without_detector"]
    with_det = comparison["with_detector"]
    print()
    print(f"Section VII-E summary (Poisson, scale={scale}, "
          f"failure-free outer = {without['failure_free_outer']}):")
    print(f"  worst-case extra outer iterations without detector: "
          f"{comparison['worst_case_without']} "
          f"({without['worst_case_percent']:.1f}% increase)")
    print(f"  worst-case extra outer iterations with detector:    "
          f"{comparison['worst_case_with']} "
          f"({with_det['worst_case_percent']:.1f}% increase)")
    print(f"  large-fault detection rate with detector: "
          f"{with_det['per_class']['large']['detection_rate'] * 100:.0f}%")

    benchmark.extra_info["worst_case_without_detector"] = comparison["worst_case_without"]
    benchmark.extra_info["worst_case_with_detector"] = comparison["worst_case_with"]
    benchmark.extra_info["percent_increase_without"] = round(
        without["worst_case_percent"], 1)
    benchmark.extra_info["percent_increase_with"] = round(with_det["worst_case_percent"], 1)
    benchmark.extra_info["detection_rate_large"] = with_det["per_class"]["large"][
        "detection_rate"]

    # Paper claims: the detector never makes things worse, and it catches
    # every class-1 (large) fault while classes 2/3 stay silent.
    assert comparison["worst_case_with"] <= comparison["worst_case_without"]
    assert with_det["per_class"]["large"]["detection_rate"] == 1.0
    assert with_det["per_class"]["slightly_smaller"]["detection_rate"] == 0.0
    assert with_det["per_class"]["near_zero"]["detection_rate"] == 0.0


def test_summary_early_fault_vulnerability(benchmark, poisson_bench_problem,
                                           circuit_bench_problem, stride, scale,
                                           circuit_max_outer):
    """The 'faulting early in the first inner solve is universally bad' finding."""

    def run():
        results = {}
        for label, problem, max_outer in (
            ("poisson", poisson_bench_problem, 100),
            ("circuit", circuit_bench_problem, circuit_max_outer),
        ):
            campaign = FaultCampaign(problem, inner_iterations=25, max_outer=max_outer,
                                     outer_tol=1e-8, mgs_position="first", detector=None)
            baseline = campaign.run_failure_free().outer_iterations
            early = campaign.run_plan(campaign.plan(range(0, 25, max(stride // 2, 1))))
            late_start = max(baseline - 1, 1) * 25
            late = campaign.run_plan(campaign.plan(range(late_start, late_start + 25,
                                                         max(stride // 2, 1))))
            results[label] = (baseline, early, late)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for label, (baseline, early, late) in results.items():
        worst_early = max(early.max_increase(c) for c in early.fault_classes())
        worst_late = max(late.max_increase(c) for c in late.fault_classes())
        pct = 100.0 * worst_early / baseline if baseline else 0.0
        print(f"  {label}: failure-free={baseline}, worst increase for faults in the first "
              f"inner solve=+{worst_early} ({pct:.0f}%), in the last inner solve=+{worst_late}")
        benchmark.extra_info[f"{label}.worst_increase_first_inner_solve"] = worst_early
        benchmark.extra_info[f"{label}.worst_increase_last_inner_solve"] = worst_late
        benchmark.extra_info[f"{label}.percent_increase_first_inner_solve"] = round(pct, 1)
        # Early faults are at least as damaging as late faults.
        assert worst_early >= worst_late
