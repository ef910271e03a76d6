"""Ablation ``ablation-detector``: detector thresholds and bit-flip coverage.

Two questions the paper raises but does not quantify:

1. How much tighter is the ``||A||_2`` bound than the ``||A||_F`` bound in
   practice, and does the tighter bound catch more corruption?  (Table I
   lists both as "potential fault detectors".)
2. The paper argues bit flips are subsumed by the numerical-error model: what
   fraction of single bit flips in a Hessenberg coefficient is detectable by
   the bound check, and what fraction is harmless?
"""

from __future__ import annotations

import numpy as np

from repro.core.detectors import HessenbergBoundDetector
from repro.faults.bitflip import flip_bit
from repro.faults.campaign import FaultCampaign
from repro.faults.models import ScalingFault
from repro.sparse.norms import frobenius_norm, two_norm_estimate


def test_ablation_detector_threshold(benchmark, poisson_bench_problem, stride, scale):
    """Sweep a range of fault magnitudes and measure the detection rate of the
    Frobenius-norm bound versus the (tighter) 2-norm bound."""
    problem = poisson_bench_problem
    fro = frobenius_norm(problem.A)
    two = two_norm_estimate(problem.A)
    magnitudes = {"x1e+150": 1e150, "x1e+6": 1e6, "x1e+2": 1e2, "x10^-0.5": 10 ** -0.5,
                  "x1e-300": 1e-300}

    def run():
        rates = {}
        for bound_name, bound in (("frobenius", fro), ("two_norm", two)):
            detector = HessenbergBoundDetector(bound)
            for label, factor in magnitudes.items():
                campaign = FaultCampaign(
                    problem, inner_iterations=25, max_outer=100,
                    fault_classes={label: ScalingFault(factor)},
                    mgs_position="first", detector=detector, detector_response="zero",
                    locations=tuple(range(0, 50, max(stride, 5))))
                result = campaign.run()
                rates[(bound_name, label)] = (result.detection_rate(label),
                                              result.max_increase(label))
        return rates

    rates = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"Detector-threshold ablation (Poisson, scale={scale}): "
          f"||A||_F={fro:.3f}, ||A||_2~{two:.3f}")
    print(f"  {'fault':12s} {'detect (F)':>12s} {'detect (2)':>12s} "
          f"{'max extra outer (F)':>20s}")
    for label in magnitudes:
        f_rate, f_incr = rates[("frobenius", label)]
        t_rate, _ = rates[("two_norm", label)]
        print(f"  {label:12s} {f_rate:12.2f} {t_rate:12.2f} {f_incr:20d}")
        benchmark.extra_info[f"{label}.frobenius_detection_rate"] = f_rate
        benchmark.extra_info[f"{label}.two_norm_detection_rate"] = t_rate

    # The tighter bound can only detect at least as much as the looser one.
    for label in magnitudes:
        assert rates[("two_norm", label)][0] >= rates[("frobenius", label)][0] - 1e-12
    # The paper's class-1 fault is always caught, classes 2/3 never.
    assert rates[("frobenius", "x1e+150")][0] == 1.0
    assert rates[("frobenius", "x10^-0.5")][0] == 0.0


def test_ablation_bitflip_detectability(benchmark, poisson_bench_problem):
    """Empirically confirm the paper's claim that bit flips reduce to numerical
    errors: classify every one of the 64 possible single-bit flips of a typical
    Hessenberg coefficient as detectable / silent under the Frobenius bound."""
    problem = poisson_bench_problem
    bound = frobenius_norm(problem.A)
    detector = HessenbergBoundDetector(bound)
    # A typical orthogonalization coefficient for the Poisson problem is O(1).
    representative_values = [3.9987, -0.731, 0.0124]

    def run():
        detectable = 0
        silent = 0
        huge_but_silent = 0
        for value in representative_values:
            for bit in range(64):
                corrupted = flip_bit(value, bit)
                if detector.check_scalar(corrupted).flagged:
                    detectable += 1
                else:
                    silent += 1
                    if np.isfinite(corrupted) and abs(corrupted) > 100 * abs(value):
                        huge_but_silent += 1
        return detectable, silent, huge_but_silent

    detectable, silent, huge_but_silent = benchmark.pedantic(run, rounds=1, iterations=1)
    total = detectable + silent
    print()
    print(f"Bit-flip detectability under the ||A||_F bound ({bound:.1f}):")
    print(f"  detectable flips: {detectable}/{total} ({100 * detectable / total:.0f}%)")
    print(f"  silent flips:     {silent}/{total} "
          f"(of which {huge_but_silent} exceed 100x the original value but stay below the bound)")

    benchmark.extra_info["detectable"] = detectable
    benchmark.extra_info["silent"] = silent
    benchmark.extra_info["huge_but_silent"] = huge_but_silent
    # High exponent-bit flips must be caught; low mantissa-bit flips must not.
    assert detectable > 0
    assert silent > 0
