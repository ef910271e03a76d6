"""Per-layer span tracer for the benchmark's traced runs (``--trace 1``).

The tracer wraps the entry points of each layer of the library (see
:data:`LAYER_TARGETS`) with a timing shim and accounts *self* time: a span's
duration minus the part covered by the spans it encloses.  So ``orth`` is
the orthogonalization loop of an Arnoldi step without the spmv, injector
and detector calls made inside it, and the benchmark's root span per
operation (``other``) holds whatever no layer span covered.

A wrapped call costs about as much as the per-coefficient work of the
``inject`` and ``detect`` layers it times.  :meth:`Tracer.calibrate`
measures that cost on an empty method, and every span moves it out of the
layers it landed in and into a ``tracer`` bucket of its own.  The estimate
falls short of the cost inside a real solve, so the layer figures still
carry part of it: compare traced numbers with traced numbers.

Nothing is patched until :meth:`Tracer.install`, which untraced runs
(``--trace 0``) never call, so their timings carry no tracing overhead.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
import time

import numpy as np

#: Reporting order of the layers.  ``other`` is the self time of the
#: benchmark's root span per operation (time no layer span covered).
LAYERS = ("spmv", "precond", "orth", "lsq", "inject", "detect", "inner",
          "outer", "campaign", "store", "events", "http", "other")
#: Buckets that are not layers of the library: the tracer's own cost, and
#: the speed probe, which gets a span of its own so that its time, when it
#: runs inside a layer's span, is not booked to that layer.
OVERHEAD = ("tracer", "probe")

#: ``(module, attribute path, layer)`` for every wrapped entry point.  An
#: entry point the library no longer has is skipped with a warning, so
#: removing a backend does not break the traced runs of other workloads.
#: Detector checks made from ``ArnoldiContext.screen_scalar`` are not
#: wrapped again: that would double the per-coefficient tracer cost.
LAYER_TARGETS = (
    ("repro.sparse.csr", "CSRMatrix.matvec", "spmv"),
    ("repro.sparse.csr", "CSRMatrix.matmat", "spmv"),
    ("repro.precond.ilu", "ILU0Preconditioner.apply", "precond"),
    ("repro.precond.ilu", "ILU0Preconditioner.apply_block", "precond"),
    ("repro.core.gmres", "arnoldi_step", "orth"),
    ("repro.core.batched", "BatchedArnoldi.step", "orth"),
    ("repro.core.hessenberg", "HessenbergMatrix.add_column", "lsq"),
    ("repro.core.hessenberg", "HessenbergMatrix.solve_y", "lsq"),
    ("repro.core.batched", "BatchedGivensQR.add_column", "lsq"),
    ("repro.core.batched", "BatchedGivensQR.solve_standard", "lsq"),
    ("repro.core.arnoldi", "ArnoldiContext.inject_scalar", "inject"),
    ("repro.core.arnoldi", "ArnoldiContext.inject_vector", "inject"),
    ("repro.faults.injector", "FaultInjector.corrupt_scalar", "inject"),
    ("repro.faults.injector", "FaultInjector.corrupt_vector", "inject"),
    ("repro.core.arnoldi", "ArnoldiContext.screen_scalar", "detect"),
    ("repro.core.detectors", "Detector.check_vector", "detect"),
    ("repro.core.batched", "_detector_flags", "detect"),
    ("repro.core.ftgmres", "gmres", "inner"),
    ("repro.core.ftgmres", "ft_gmres", "outer"),
    ("repro.core.ftgmres", "fgmres", "outer"),
    ("repro.faults.campaign", "ft_gmres", "outer"),
    ("repro.core.batched", "batched_ft_gmres", "outer"),
    ("repro.api", "run_campaign", "campaign"),
    ("repro.faults.campaign", "FaultCampaign.plan", "campaign"),
    ("repro.faults.campaign", "FaultCampaign.run_plan", "campaign"),
    ("repro.faults.campaign", "FaultCampaign.run_spec_safe", "campaign"),
    ("repro.results.store", "RunWriter.append", "store"),
    ("repro.results.store", "RunStore.create_run", "store"),
    ("repro.results.store", "RunStore.write_manifest", "store"),
    ("repro.results.store", "RunStore.finalize", "store"),
    ("repro.utils.events", "EventLog.emit", "events"),
    ("repro.utils.events", "EventLog.extend", "events"),
    ("repro.results.events", "MultiSink.emit", "events"),
    ("repro.results.events", "JsonlEventSink.emit", "events"),
    ("repro.service.client", "ServiceClient._request", "http"),
)


class Tracer:
    """Accumulates self seconds and call counts per layer."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        #: Tracer cost of one wrapped call booked inside its own span, and
        #: in the span that encloses it (see :meth:`calibrate`).
        self.inner_cost = self.outer_cost = 0.0
        self.reset()

    def reset(self) -> None:
        """Zero the totals."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []

    def _state(self) -> tuple:
        """This thread's span stack and totals (no lock on the hot path)."""
        state = getattr(self._local, "state", None)
        if state is None:
            totals = (dict.fromkeys(LAYERS + OVERHEAD, 0.0),
                      dict.fromkeys(LAYERS + OVERHEAD, 0))
            state = self._local.state = ([], *totals)
            with self._lock:
                self._threads.append(totals)
        return state

    def wrap(self, layer: str, func):
        """``func`` timed as a span of ``layer``.

        The tracer costs known when ``wrap`` is called are moved out of this
        span and the one enclosing it, into ``tracer``.
        """
        state, clock = self._state, time.perf_counter
        inner, outer = self.inner_cost, self.outer_cost

        def traced(*args, **kwargs):
            stack, seconds, calls = state()
            frame = [0.0]   # time covered by the spans this one encloses
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed + outer
                    seconds["tracer"] += outer
                seconds[layer] += elapsed - frame[0] - inner
                seconds["tracer"] += inner
                calls[layer] += 1

        return traced

    def calibrate(self, calls: int = 20000, rounds: int = 7) -> None:
        """Measure the cost of a wrapped call to an empty method.

        Per call, a loop that only does a small dot product costs ``loop``,
        and with a bare call added ``bare``.  Wrapped, the call books
        ``inner_cost`` more than ``bare - loop`` to its own span and
        ``outer_cost`` more than ``loop`` to the enclosing one.  The empty
        method takes the arguments of the hottest wrapped calls, the
        per-coefficient detector and injector consults, and the dot product
        between calls evicts the wrapper from the caches as the solver's
        own work does; a tight loop of calls alone reads low.  Medians over
        ``rounds``.
        """
        vector = np.linspace(0.0, 1.0, 900)
        dot = np.dot

        def empty(owner, site, value, iteration, mgs_index=-1):
            pass

        def loop():
            for _ in range(calls):
                dot(vector, vector)

        def bare():
            for index in range(calls):
                dot(vector, vector)
                empty(None, "h", 1.0, 3, mgs_index=index)

        self.inner_cost = self.outer_cost = 0.0
        wrapped = self.wrap("tracer", empty)

        def traced():
            for index in range(calls):
                dot(vector, vector)
                wrapped(None, "h", 1.0, 3, mgs_index=index)

        traced = self.wrap("other", traced)
        inner, outer = [], []
        for _ in range(rounds):
            start = time.perf_counter()
            loop()
            looping = time.perf_counter() - start
            start = time.perf_counter()
            bare()
            calling = time.perf_counter() - start - looping
            self.reset()
            traced()
            seconds = self.snapshot()["seconds"]
            inner.append((seconds["tracer"] - calling) / calls)
            outer.append((seconds["other"] - looping) / calls)
        self.inner_cost = max(statistics.median(inner), 0.0)
        self.outer_cost = max(statistics.median(outer), 0.0)
        self.reset()

    def install(self) -> None:
        """Calibrate, then wrap every entry point of :data:`LAYER_TARGETS`."""
        self.calibrate()
        for module_name, path, layer in LAYER_TARGETS:
            *parents, name = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for parent in parents:
                    owner = getattr(owner, parent)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                print(f"perfbench: trace target {module_name}.{path} not found; "
                      f"its time is booked to the enclosing layer",
                      file=sys.stderr)
                continue
            self._patched.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Totals summed over every thread that recorded spans."""
        out = {"seconds": {}, "calls": {}}
        with self._lock:
            for thread_totals in self._threads:
                for kind, values in zip(("seconds", "calls"), thread_totals):
                    for layer, value in values.items():
                        out[kind][layer] = out[kind].get(layer, 0) + value
        return out


def layer_metrics(totals: dict, operations: int, scale: float) -> dict:
    """Every layer's self time and calls per operation, and the tracer's time.

    Times are scaled by the run's median probe factor ``scale``.  A layer
    the workload never enters reads 0.
    """
    metrics = {}
    for layer in LAYERS + ("tracer",):
        seconds = totals["seconds"].get(layer, 0.0)
        metrics[f"{layer}_ms"] = (1e3 * scale * seconds / operations, "ms")
        if layer not in ("other", "tracer"):
            metrics[f"{layer}_calls"] = (
                totals["calls"].get(layer, 0) / operations, "count")
    return metrics
