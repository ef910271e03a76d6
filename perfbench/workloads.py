"""The benchmark's workloads: solve latency, sweep throughput, service turnaround.

Every workload follows the same life cycle, driven by ``run.py``:

``setup()``
    Build the inputs from the seed, resolve every component the operations
    need (detector bound, preconditioner factors, campaign baseline, the
    daemon) and complete one first operation, which fills the library's
    lazy caches (without a first job, the service's median turnaround
    read ~20% higher over 10 seeds).
    Timed ``SETUP_REPEATS`` times for ``setup_s`` (time to a first result);
    ``teardown()`` runs between repetitions.
``measure(seconds, meter)``
    Closed-loop operations, one after another, until ``seconds`` have
    passed.  Each operation is timed and paired with a run of the speed
    probe (see ``probe.py``) through ``meter``.
``check()``
    Verifies the outputs collected by ``measure`` against references that
    do not go through the code being timed; returns the problems found.

Inputs are generated here from ``--seed``; the library only ever receives
the generated matrices, right-hand sides and campaign specs.
"""

from __future__ import annotations

import datetime
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse

from repro import api
from repro.faults.campaign import FaultCampaign, TrialRecord
from repro.gallery.problems import circuit_problem, poisson_problem
from repro.registry import resolve_detector, resolve_preconditioner
from repro.results.events import CallbackSink, JsonlEventSink
from repro.results.store import RunStore
from repro.service.client import ServiceClient
from repro.specs import CampaignSpec, ExecutionSpec, SolveSpec

#: The paper's three fault classes; each campaign trial flips one bit of
#: one Hessenberg coefficient, so it must report exactly one injection.
FAULT_CLASSES = 3
#: Fields of a trial record that must match a reference run exactly.
EXACT_FIELDS = ("fault_class", "aggregate_inner_iteration", "outer_iterations",
                "total_inner_iterations", "converged", "status",
                "faults_injected", "faults_detected")


@dataclass
class Measurement:
    """What one measured loop produced; times are scaled by the probe."""

    latencies: list = field(default_factory=list)  # seconds per sample
    operations: int = 0
    busy: float = 0.0   # seconds spent inside operations
    failed: int = 0
    factors: list = field(default_factory=list)    # probe speed factors
    #: Per-operation extras reported with the per-layer metrics.
    extras: dict = field(default_factory=dict)


class Workload:
    """Defaults of the life cycle above."""

    #: Set-ups timed for ``setup_s``.  Their median moves with the host's
    #: speed state over the ~1 s they span; short set-ups take more so that
    #: the span is comparable.
    SETUP_REPEATS = 15

    def teardown(self) -> None:
        """Undo ``setup()`` before it runs again."""

    def close(self) -> None:
        """Stop everything the workload started."""


def reference_matrix(A) -> scipy.sparse.csr_matrix:
    """The matrix as scipy CSR, for checks independent of the library's kernels."""
    return scipy.sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def manufactured_solutions(n: int, rng: np.random.Generator, count: int) -> list:
    """Smooth O(1) exact solutions with seeded noise (the gallery's recipe).

    The noise is small enough that every right-hand side needs the same
    number of iterations, so the seed varies the inputs, not the work.
    """
    smooth = 1.0 + 0.5 * np.sin(np.linspace(0.0, 4.0 * np.pi, n))
    return [smooth + 0.01 * rng.standard_normal(n) for _ in range(count)]


def same_trial(record: TrialRecord, reference: TrialRecord, rel_tol: float) -> bool:
    if any(getattr(record, f) != getattr(reference, f) for f in EXACT_FIELDS):
        return False
    return math.isclose(record.residual_norm, reference.residual_norm,
                        rel_tol=rel_tol, abs_tol=0.0)


def stratified_locations(rng: np.random.Generator, count: int, size: int) -> tuple:
    """``size`` fault locations, one drawn from each of ``size`` equal strata.

    A fault's cost depends on where in the solve it lands, so spreading
    every campaign over the whole range keeps the work per campaign steady
    across seeds.
    """
    edges = np.linspace(0, count, size + 1).astype(int)
    return tuple(int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:]))


# --------------------------------------------------------------------- #
# solve: one nested FT-GMRES solve per operation
# --------------------------------------------------------------------- #
class SolveWorkload(Workload):
    """Failure-free FT-GMRES solves of one paper problem, seeded right-hand sides."""

    SETUP_REPEATS = 25
    RHS_COUNT = 8
    TOL = 1e-8

    def __init__(self, seed: int, workdir: Path, *, problem,
                 preconditioner=None, detector=None, error_tol: float):
        self.seed = seed
        self.make_problem = problem
        self.preconditioner = preconditioner
        self.detector = detector
        self.error_tol = error_tol
        self.solutions: list = []

    def setup(self) -> None:
        A = self.make_problem().A
        self.A = A
        self.reference = reference_matrix(A)
        rng = np.random.default_rng(self.seed)
        self.x_true = manufactured_solutions(A.shape[0], rng, self.RHS_COUNT)
        self.rhs = [self.reference @ x for x in self.x_true]
        inner = SolveSpec(
            method="gmres", tol=0.0, maxiter=25,
            preconditioner=(resolve_preconditioner(self.preconditioner, A=A)
                            if self.preconditioner else None),
            detector=(resolve_detector(self.detector, A=A)
                      if self.detector else None),
            detector_response="zero" if self.detector else None)
        self.spec = SolveSpec(method="ft_gmres", tol=self.TOL, inner=inner)
        self._solve(0)

    def _solve(self, index: int):
        return api.solve(self.A, self.rhs[index % self.RHS_COUNT], self.spec)

    def measure(self, seconds: float, meter) -> Measurement:
        m = Measurement()
        outer = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            index = m.operations
            elapsed, result = meter.time(self._solve, index)
            factor = meter.factor()
            m.factors.append(factor)
            m.latencies.append(elapsed * factor)
            m.busy += elapsed * factor
            m.operations += 1
            outer += result.outer_iterations
            m.failed += not result.converged
            self.solutions.append((index % self.RHS_COUNT, result.x))
        m.extras = {"outer_iterations": (outer / m.operations, "count")}
        return m

    def check(self) -> list:
        problems = []
        for index, x in self.solutions:
            b = self.rhs[index]
            residual = np.linalg.norm(b - self.reference @ x) / np.linalg.norm(b)
            error = (np.linalg.norm(x - self.x_true[index])
                     / np.linalg.norm(self.x_true[index]))
            if not (residual <= self.TOL * 1.01 and error <= self.error_tol):
                problems.append(f"solve of rhs {index}: relative residual "
                                f"{residual:.3e}, relative error {error:.3e}")
        return problems


# --------------------------------------------------------------------- #
# sweep: fault-injection campaigns persisted to a run store
# --------------------------------------------------------------------- #
class SweepWorkload(Workload):
    """Stored campaigns of the paper's experiment over seeded fault locations.

    Every campaign flips bits at 10 locations: 30 trials, which the batched
    backend advances as one lockstep batch (its default width is 32).  The
    first campaign of a set-up has one location, enough to reach every
    code path.
    """

    GRID = 30   # Poisson grid side: the paper's SPD problem at n = 900
    LOCATIONS = 10

    def __init__(self, seed: int, workdir: Path, *, backend: str):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.backend = backend
        self.workdir = workdir
        self.runs: list = []   # (run_id, spec, result)

    def setup(self) -> None:
        self.problem = poisson_problem(self.GRID, seed=self.seed)
        self.base = CampaignSpec(detector="bound", fault_classes="paper",
                                 exec=ExecutionSpec(backend=self.backend))
        self.reference = FaultCampaign.from_spec(self.base, problem=self.problem)
        plan = self.reference.plan(locations=())
        self.location_count = plan.failure_free_outer * self.reference.inner_iterations
        shutil.rmtree(self.workdir / "store", ignore_errors=True)
        self.store = RunStore(self.workdir / "store")
        self._campaign("first", 1, None, None)

    def _campaign(self, run_id: str, locations: int, meter, m: Measurement | None):
        """Run one stored campaign; with a meter, time its trials one by one."""
        spec = self.base.replace(locations=stratified_locations(
            self.rng, self.location_count, locations))
        state = {"last": 0.0, "probing": 0.0, "factors": []}

        def on_event(event):
            if meter is None or self.backend != "serial":
                return
            now = time.perf_counter()
            if event.kind == "trial_completed":
                # A serial trial's latency runs from the previous completion
                # (or the baseline) to its own, store append and event
                # emission included; the probe runs outside that interval.
                factor = meter.factor()
                state["factors"].append(factor)
                m.latencies.append((now - state["last"]) * factor)
            if event.kind in ("baseline_completed", "trial_completed"):
                state["last"] = time.perf_counter()
                state["probing"] += state["last"] - now

        events = JsonlEventSink(self.workdir / "events" / f"{run_id}.jsonl")
        start = time.perf_counter()
        try:
            result = api.run_campaign(self.problem, spec, store=self.store,
                                      run_id=run_id,
                                      sink=[events, CallbackSink(on_event)])
        finally:
            events.close()
        elapsed = time.perf_counter() - start - state["probing"]
        return spec, result, elapsed, state["factors"]

    def measure(self, seconds: float, meter) -> Measurement:
        m = Measurement()
        outer = detected = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            run_id = f"c{len(self.runs):04d}"
            _, (spec, result, elapsed, factors) = meter.time(
                self._campaign, run_id, self.LOCATIONS, meter, m)
            if self.backend != "serial":
                # Lockstep lanes all complete with their batch: a trial's
                # result is available only when the campaign returns.
                factors = [meter.factor(3)]
                m.latencies.append(elapsed * factors[0])
            m.factors.extend(factors)
            m.busy += elapsed * statistics.median(factors)
            self.runs.append((run_id, spec, result))
            for trial in result.trials:
                m.operations += 1
                outer += trial.outer_iterations
                detected += trial.faults_detected > 0
                m.failed += trial.status != "converged"
        m.extras = {"outer_iterations": (outer / m.operations, "count"),
                    "detected_pct": (100.0 * detected / m.operations, "%")}
        return m

    def check(self) -> list:
        problems = []
        # The serial engine is the reference; the batched engine promises
        # identical counts and statuses with residuals to 1e-10.
        rel_tol = 0.0 if self.backend == "serial" else 1e-6
        for number, (run_id, spec, result) in enumerate(self.runs):
            expected = FAULT_CLASSES * len(spec.locations)
            if len(result.trials) != expected:
                problems.append(f"{run_id}: {len(result.trials)} trials, "
                                f"expected {expected}")
                continue
            if any(t.faults_injected != 1 for t in result.trials):
                problems.append(f"{run_id}: a trial did not inject exactly one fault")
            if self.store.load_result(run_id).trials != result.trials:
                problems.append(f"{run_id}: stored trials differ from the result")
            trial = result.trials[(number * 7) % expected]
            reference = self.reference.run_single(
                trial.fault_class, self.reference.fault_classes[trial.fault_class],
                trial.aggregate_inner_iteration)
            if not same_trial(trial, reference, rel_tol):
                problems.append(f"{run_id}: trial at {trial.aggregate_inner_iteration} "
                                f"({trial.fault_class}) differs from a serial rerun")
        return problems


# --------------------------------------------------------------------- #
# service: tiny campaigns submitted to a `repro serve` daemon over HTTP
# --------------------------------------------------------------------- #
def _timestamp(text: str) -> float:
    return datetime.datetime.strptime(text, "%Y-%m-%dT%H:%M:%S.%fZ").replace(
        tzinfo=datetime.timezone.utc).timestamp()


class ServiceWorkload(Workload):
    """One closed-loop client submitting distinct tiny campaigns to the daemon.

    The client learns that a job finished from the daemon's broadcast event
    stream, then fetches the result, so the turnaround contains no client
    polling delay.  With one client the probe after each job runs while the
    daemon is idle, so it measures the host and not the workload's own load.
    """

    SETUP_REPEATS = 7
    PROBLEM = "poisson:10"
    LOCATIONS = 2          # per job, x 3 fault classes = 6 trials
    REFERENCE_JOBS = 3     # jobs re-run in-process by check()

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.proc = None
        self.jobs: list = []   # (spec, final job record, result, seen_at, factor)
        self._seen: set = set()
        self._listener = None
        campaign = FaultCampaign.from_spec(CampaignSpec(problem=self.PROBLEM))
        plan = campaign.plan(locations=())
        self.location_count = plan.failure_free_outer * campaign.inner_iterations

    # -- daemon life cycle ------------------------------------------------ #
    def setup(self) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = [sys.executable, "-m", "repro", "serve",
                   "--store", str(self.workdir / "store"), "--port", "0"]
        self.proc = subprocess.Popen(command, env=env, cwd=self.workdir,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.client = ServiceClient(line.split("listening on ")[1].split()[0])
        self._start_listener()
        self._run_job()

    def teardown(self) -> None:
        self.close()
        shutil.rmtree(self.workdir / "store", ignore_errors=True)

    def close(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        if self._listener is not None:
            self._listener.join(timeout=30)
            self._listener = None

    # -- jobs ------------------------------------------------------------- #
    def _start_listener(self) -> None:
        self._done = threading.Condition()
        self._finished: dict = {}
        self._listening = True
        stream = self.client.service_events()
        self._listener = threading.Thread(target=self._listen, args=(stream,),
                                          daemon=True)
        self._listener.start()

    def _listen(self, stream) -> None:
        """Record every terminal job update the daemon broadcasts."""
        try:
            for event in stream:
                data = event.get("data", {})
                if event.get("kind") == "job_update" and data.get("status") in (
                        "completed", "failed", "cancelled"):
                    with self._done:
                        self._finished[data["job_id"]] = (data, time.time())
                        self._done.notify_all()
        except (OSError, ValueError):
            pass  # the daemon went away; waiters see _listening drop
        finally:
            with self._done:
                self._listening = False
                self._done.notify_all()

    def _run_job(self):
        """Submit one new campaign and wait for its result."""
        while True:
            locations = stratified_locations(self.rng, self.location_count,
                                           self.LOCATIONS)
            if locations not in self._seen:
                self._seen.add(locations)
                break
        spec = {"problem": self.PROBLEM, "detector": "bound",
                "fault_classes": "paper", "locations": list(locations)}
        job_id = self.client.submit(spec)["job_id"]
        with self._done:
            while job_id not in self._finished and self._listening:
                self._done.wait(timeout=1.0)
            final, seen_at = self._finished.pop(job_id, (None, None))
        if final is None or final["status"] != "completed":
            return spec, final, None, seen_at
        return spec, final, self.client.result(job_id)["result"], seen_at

    def measure(self, seconds: float, meter) -> Measurement:
        m = Measurement()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            elapsed, (spec, final, result, seen_at) = meter.time(self._run_job)
            factor = meter.factor(3)
            m.factors.append(factor)
            m.operations += 1
            m.busy += elapsed * factor
            if result is None:
                m.failed += 1
                continue
            m.latencies.append(elapsed * factor)
            self.jobs.append((spec, final, result, seen_at, factor))
        # The daemon stamps job transitions with the wall clock, which the
        # client shares: submit to worker start, worker start to completion,
        # completion to the client's event, each scaled like the turnaround.
        stages = [(1e3 * factor * (_timestamp(f["started_at"]) - _timestamp(f["created_at"])),
                   1e3 * factor * (_timestamp(f["finished_at"]) - _timestamp(f["started_at"])),
                   1e3 * factor * (seen - _timestamp(f["finished_at"])))
                  for _, f, _, seen, factor in self.jobs]
        trials = [t for _, _, result, _, _ in self.jobs for t in result["trials"]]
        m.extras = {
            "queue_wait_ms": (statistics.median(s[0] for s in stages), "ms"),
            "job_run_ms": (statistics.median(s[1] for s in stages), "ms"),
            "notify_ms": (statistics.median(s[2] for s in stages), "ms"),
            "outer_iterations": (sum(t["outer_iterations"] for t in trials)
                                 / len(trials), "count"),
            "detected_pct": (100.0 * sum(t["faults_detected"] > 0 for t in trials)
                             / len(trials), "%"),
        }
        return m

    def check(self) -> list:
        problems = []
        for number, (spec, final, result, _, _) in enumerate(self.jobs):
            trials = [TrialRecord.from_dict(t) for t in result["trials"]]
            expected = FAULT_CLASSES * len(spec["locations"])
            if len(trials) != expected or any(
                    t.status != "converged" or t.faults_injected != 1 for t in trials):
                problems.append(f"job {final['job_id']}: wrong trial set")
            elif number < self.REFERENCE_JOBS:
                reference = api.run_campaign(spec=CampaignSpec.from_dict(spec))
                if trials != reference.trials:
                    problems.append(f"job {final['job_id']}: trials differ from "
                                    f"an in-process run of the same spec")
        return problems


WORKLOADS = {
    "solve": lambda seed, workdir: SolveWorkload(
        seed, workdir, problem=lambda: poisson_problem(30),
        detector="bound", error_tol=1e-5),
    "solve-ilu": lambda seed, workdir: SolveWorkload(
        seed, workdir, problem=lambda: circuit_problem(1500),
        preconditioner="ilu0", error_tol=1e-3),
    "sweep": lambda seed, workdir: SweepWorkload(
        seed, workdir, backend="serial"),
    "sweep-batched": lambda seed, workdir: SweepWorkload(
        seed, workdir, backend="batched"),
    "service": ServiceWorkload,
}
