"""Shared configuration for the benchmark harness.

Every benchmark regenerates one artifact of the paper's evaluation (see the
experiment index in DESIGN.md).  Because the paper's exhaustive sweeps take
minutes at full scale, the harness exposes two knobs through environment
variables:

* ``REPRO_BENCH_SCALE``  — ``tiny`` | ``small`` (default) | ``medium`` | ``paper``.
  Controls the matrix sizes (``paper`` uses the 10,000-row Poisson matrix and
  the 25,187-row circuit surrogate, exactly as in Table I).
* ``REPRO_BENCH_STRIDE`` — subsampling of the injection locations for the
  Figure 3/4 sweeps (default 5 at ``small`` scale, 1 reproduces the paper's
  exhaustive sweep).
* ``REPRO_WORKERS``      — shard workers for the sweep campaigns; above 1
  they run on the sharded backend (default 1 = serial; 0 = one per CPU).
  The execution engine guarantees sharded output is trial-for-trial
  identical to serial output, so the recorded ``extra_info`` numbers are
  invariant under this knob.

Each benchmark stores its headline numbers in ``benchmark.extra_info`` so
``pytest benchmarks/ --benchmark-only --benchmark-json=out.json`` leaves a
machine-readable record, and prints a small report (visible with ``-s``).
"""

from __future__ import annotations

import os

import pytest

from repro.exec.executor import resolve_workers
from repro.gallery.problems import circuit_problem, poisson_problem

#: Matrix sizes per scale: (poisson grid side, circuit dimension).
SCALE_SIZES = {
    "tiny": (10, 200),
    "small": (30, 1500),
    "medium": (50, 5000),
    "paper": (100, 25187),
}

#: Default injection-location stride per scale (1 = the paper's exhaustive sweep).
DEFAULT_STRIDE = {"tiny": 2, "small": 5, "medium": 10, "paper": 25}

#: Outer-iteration budget per scale for the circuit problem (it needs more
#: room than the Poisson problem, especially at larger sizes).
CIRCUIT_MAX_OUTER = {"tiny": 80, "small": 80, "medium": 120, "paper": 200}


def bench_scale() -> str:
    """The configured benchmark scale."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale not in SCALE_SIZES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALE_SIZES)}, got {scale!r}")
    return scale


def bench_stride() -> int:
    """The configured injection-location stride."""
    value = os.environ.get("REPRO_BENCH_STRIDE")
    if value is None:
        return DEFAULT_STRIDE[bench_scale()]
    stride = int(value)
    if stride <= 0:
        raise ValueError("REPRO_BENCH_STRIDE must be positive")
    return stride


def bench_workers() -> int:
    """The configured sweep worker count (the ``REPRO_WORKERS`` knob)."""
    return resolve_workers(None)


@pytest.fixture(scope="session")
def scale() -> str:
    """Benchmark scale name."""
    return bench_scale()


@pytest.fixture(scope="session")
def workers() -> int:
    """Parallel workers for the sweep campaigns (1 = serial)."""
    return bench_workers()


@pytest.fixture(scope="session")
def stride() -> int:
    """Injection-location stride for the sweep benchmarks."""
    return bench_stride()


@pytest.fixture(scope="session")
def poisson_bench_problem(scale):
    """The paper's SPD problem at the configured scale."""
    grid_n, _ = SCALE_SIZES[scale]
    return poisson_problem(grid_n)


@pytest.fixture(scope="session")
def circuit_bench_problem(scale):
    """The paper's nonsymmetric problem (surrogate) at the configured scale."""
    _, n_nodes = SCALE_SIZES[scale]
    return circuit_problem(n_nodes)


@pytest.fixture(scope="session")
def circuit_max_outer(scale) -> int:
    """Outer-iteration budget for circuit-problem sweeps at this scale."""
    return CIRCUIT_MAX_OUTER[scale]
