"""The repository benchmark: solve latency, sweep throughput, service turnaround.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the workload with every layer's entry points wrapped
by ``tracer.py`` and reports per-layer self time and call counts instead.
Every time is scaled by a speed probe paired with it (see ``probe.py``).
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The library is imported from ``src/`` next to this directory; without it
the script exits with a nonzero status and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Per-layer metrics beyond the layer table, with their units; a workload
#: that has no such stage reports 0.
STAGE_METRICS = {"outer_iterations": "count", "detected_pct": "%",
                 "queue_wait_ms": "ms", "job_run_ms": "ms", "notify_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SOURCE / 'repro'}; "
                 f"run from the root of a repository checkout")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SOURCE}")


class Meter:
    """Times the operations a workload runs and pairs them with the probe."""

    def __init__(self, probe, tracer) -> None:
        self.probe = probe
        self.tracer = tracer

    def time(self, operation, *args) -> tuple:
        """``(seconds, result)`` of one unit of measured work.

        In traced runs the operation is the root span, whose self time is
        the ``other`` layer.
        """
        if self.tracer is not None:
            operation = self.tracer.wrap("other", operation)
        start = time.perf_counter()
        result = operation(*args)
        return time.perf_counter() - start, result

    def factor(self, repeats: int = 1) -> float:
        """Run the speed probe; returns the factor for the preceding work."""
        probe = self.probe.factor
        if self.tracer is not None:
            probe = self.tracer.wrap("probe", probe)
        return probe(repeats)


def end_to_end(measurement, setup_times) -> dict:
    latencies_ms = [1e3 * s for s in measurement.latencies]
    return {
        "latency_ms": (statistics.median(latencies_ms), "ms"),
        "p90_ms": (statistics.quantiles(latencies_ms, n=10)[-1], "ms"),
        "throughput": (measurement.operations / measurement.busy, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind through the finally blocks below, which stop the service daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_library()
    sys.path.insert(0, str(HERE))
    from probe import Probe
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe = Probe()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_times = []
        for repeat in range(workload.SETUP_REPEATS):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            setup_times.append(elapsed * probe.factor(3))
        if tracer is not None:
            tracer.install()
        try:
            measurement = workload.measure(args.seconds, Meter(probe, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = workload.check()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    if tracer is None:
        metrics = end_to_end(measurement, setup_times)
    else:
        metrics = layer_metrics(tracer.snapshot(), measurement.operations,
                                statistics.median(measurement.factors))
        for name, unit in STAGE_METRICS.items():
            metrics[name] = measurement.extras.get(name, (0.0, unit))
    for problem in problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and measurement.failed == 0,
        "attempted": measurement.operations,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
