"""Benchmark ``batched``: the trial-batched campaign engine vs serial.

Runs the Figure-3(a)-style sweep (Poisson, SDC on the first MGS coefficient,
the paper's Hessenberg-bound detector with the filtering response) once
through the serial backend and once through the trial-batched lockstep
backend (``exec={"backend": "batched"}``), asserting that the batched
result is equivalent to the serial one (identical per-trial iteration counts
and classification, residual norms within 1e-10) and that the batched
backend actually delivers its speedup.

Single-CPU framing: unlike the sharded backend — whose recorded "speedups"
on a single-core host are pure dispatch overhead (see
``bench_campaign_scaling.py``) — batching amortizes interpreter and kernel
dispatch overhead *inside one process*, so its win must and does show up on
one CPU.  The speedup floor below is therefore asserted unconditionally, not
gated on ``cpu_count``.

Scale framing: the amortization is largest where per-trial Python/BLAS-1
dispatch dominates (the tiny/small matrices).  Serial trials and batched
lanes skip the shared failure-free prefix the same way (both resume from
the baseline's outer state), so the tiny/small floor is the 1.5x margin
below which the batched engine no longer earns its place.  At the
medium/paper matrix sizes both backends are memory-bandwidth-bound in the
same sparse kernels and dispatch amortization is all that is left: the
medium floor dates from when only the batched engine shared the prefix,
and batched now runs below 1x there (see ROADMAP item 7).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import run_campaign

#: Asserted lower bound on the batched-vs-serial wall-time ratio per scale.
#: tiny/small: interpreter-overhead domain -> the 1.5x keep-or-delete margin
#: of the batched engine over prefix-shared serial trials.
#: medium/paper: memory-bound domain; set for the batched-only prefix-sharing
#: win (~2x measured at medium then), which serial trials now share too.
SPEEDUP_FLOORS = {"tiny": 1.5, "small": 1.5, "medium": 1.4, "paper": 1.1}

#: Batch width used by the benchmark (wider than the default 32: the sweep
#: has hundreds of trials and a single wide batch amortizes best).
BATCH_SIZE = 64


def _sweep(problem, stride, detector="bound", **execution):
    return run_campaign(
        problem,
        mgs_position="first",
        detector=detector,
        detector_response="zero",
        inner_iterations=25,
        max_outer=100,
        outer_tol=1e-8,
        stride=stride,
        exec=execution,
    )


def _assert_equivalent(serial, batched):
    """The engine's contract, asserted trial for trial."""
    assert len(batched.trials) == len(serial.trials)
    assert batched.failure_free_outer == serial.failure_free_outer
    for s, b in zip(serial.trials, batched.trials):
        assert (s.fault_class, s.aggregate_inner_iteration) == \
            (b.fault_class, b.aggregate_inner_iteration)
        assert b.outer_iterations == s.outer_iterations
        assert b.total_inner_iterations == s.total_inner_iterations
        assert b.converged == s.converged
        assert b.status == s.status
        assert b.faults_injected == s.faults_injected
        assert b.faults_detected == s.faults_detected
        assert abs(b.residual_norm - s.residual_norm) <= \
            1e-10 * max(1.0, abs(s.residual_norm))


@pytest.fixture(scope="module")
def serial_reference(poisson_bench_problem, stride):
    """The serial sweep, run once: (campaign result, wall seconds)."""
    start = time.perf_counter()
    campaign = _sweep(poisson_bench_problem, stride, backend="serial")
    elapsed = time.perf_counter() - start
    return campaign, elapsed


def test_batched_campaign_speedup(benchmark, serial_reference,
                                  poisson_bench_problem, scale, stride):
    serial_campaign, serial_seconds = serial_reference

    batched_campaign = benchmark.pedantic(
        lambda: _sweep(poisson_bench_problem, stride, backend="batched",
                       batch_size=BATCH_SIZE),
        rounds=1, iterations=1)

    _assert_equivalent(serial_campaign, batched_campaign)

    batched_seconds = benchmark.stats.stats.mean
    speedup = serial_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["stride"] = stride
    benchmark.extra_info["trials"] = len(batched_campaign.trials)
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    benchmark.extra_info["cpu_count"] = os.cpu_count() or 1
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 4)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    benchmark.extra_info["speedup_floor"] = SPEEDUP_FLOORS[scale]
    print(f"\nbatched sweep ({scale}): {len(batched_campaign.trials)} trials, "
          f"{batched_seconds:.2f}s vs serial {serial_seconds:.2f}s "
          f"-> speedup {speedup:.2f}x (floor {SPEEDUP_FLOORS[scale]}x, 1 CPU valid)")

    floor = SPEEDUP_FLOORS[scale]
    assert speedup >= floor, (
        f"batched backend delivered {speedup:.2f}x at scale {scale!r}; "
        f"expected >= {floor}x even on a single CPU")


def test_batched_campaign_no_detector(benchmark, poisson_bench_problem, scale, stride):
    """The detector-off sweep: huge-fault trials are chaos-peeled to serial,
    so the batched win is smaller; recorded for the trajectory, asserted only
    not to be a slowdown beyond noise."""
    start = time.perf_counter()
    serial_campaign = _sweep(poisson_bench_problem, stride, detector=None,
                             backend="serial")
    serial_seconds = time.perf_counter() - start

    batched_campaign = benchmark.pedantic(
        lambda: _sweep(poisson_bench_problem, stride, detector=None,
                       backend="batched", batch_size=BATCH_SIZE),
        rounds=1, iterations=1)
    _assert_equivalent(serial_campaign, batched_campaign)

    batched_seconds = benchmark.stats.stats.mean
    speedup = serial_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["trials"] = len(batched_campaign.trials)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 4)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    print(f"\nbatched no-detector sweep ({scale}): speedup {speedup:.2f}x "
          "(1/3 of trials are chaos-peeled to the serial engine)")
    assert speedup >= 0.9
