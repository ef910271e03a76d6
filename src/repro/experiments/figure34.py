"""Figures 3 and 4 — single-SDC injection sweeps over the nested solver.

Each figure of the paper is a set of three panels (one per fault class)
showing the number of outer iterations FT-GMRES needs to converge when a
single SDC event is injected at every possible aggregate inner iteration:

* Figure 3: the Poisson (SPD) problem; (a) fault on the first MGS iteration,
  (b) fault on the last MGS iteration.
* Figure 4: the circuit (nonsymmetric) problem; same two panels.

:func:`run_fault_sweep` produces one panel set (one
:class:`~repro.faults.campaign.CampaignResult`); :class:`FigureSweep` bundles
the "first" and "last" campaigns of a figure together with rendering helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import run_campaign
from repro.core.detectors import Detector
from repro.experiments.report import (ascii_series_plot, campaign_class_table,
                                      format_table)
from repro.faults.campaign import CampaignResult
from repro.faults.models import FaultModel
from repro.gallery.problems import TestProblem, circuit_problem, poisson_problem
from repro.specs import CampaignSpec

__all__ = ["run_fault_sweep", "load_fault_sweep", "sweep_run_id", "FigureSweep",
           "figure3", "figure4"]


def run_fault_sweep(
    problem: TestProblem,
    spec: CampaignSpec | dict | None = None,
    *,
    mgs_position: str | None = None,
    detector: Detector | str | dict | None = None,
    detector_response: str | None = None,
    fault_classes: dict[str, FaultModel] | str | None = None,
    inner_iterations: int | None = None,
    max_outer: int | None = None,
    outer_tol: float | None = None,
    stride: int | None = None,
    locations=None,
    progress=None,
    backend: str | None = None,
    workers: int | None = None,
    batch_size: int | None = None,
    sink=None,
    store=None,
    run_id: str | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run one injection sweep (one sub-figure of Figure 3 or 4).

    The sweep is a :class:`~repro.specs.CampaignSpec` run through
    :func:`repro.api.run_campaign`; pass ``spec`` directly, or use the
    keyword arguments (which mirror :class:`~repro.faults.campaign.FaultCampaign`,
    defaults from the CampaignSpec field defaults; ``stride=1`` is the
    paper's exhaustive sweep).  Keywords override ``spec`` fields when both
    are given.  ``backend``/``workers``/``batch_size`` configure the
    execution engine (see :class:`repro.exec.CampaignExecutor`); results are
    equivalent to a serial run for any setting (identical for the sharded
    backend, identical counts/statuses with residuals to ~1e-10 for the
    trial-batched backend).

    ``sink``/``store``/``run_id``/``resume`` are forwarded to
    :func:`repro.api.run_campaign`: the sweep streams lifecycle events to the
    sink, checkpoints each trial into the store, and resumes an interrupted
    sweep from it; :func:`load_fault_sweep` rebuilds a completed sweep with
    zero new solves.
    """
    spec = CampaignSpec.coerce(spec)
    if spec.problem is not None:
        from repro.specs import SpecError

        raise SpecError("problem",
                        "run_fault_sweep received both a problem argument and "
                        "spec.problem; drop spec.problem (or use "
                        "repro.api.run_campaign, which takes either)")
    fields = {
        "mgs_position": mgs_position,
        "detector": detector,
        "detector_response": detector_response,
        "fault_classes": fault_classes,
        "inner_iterations": inner_iterations,
        "max_outer": max_outer,
        "outer_tol": outer_tol,
        "stride": stride,
        "locations": tuple(locations) if locations is not None else None,
    }
    overrides = {key: value for key, value in fields.items() if value is not None}
    exec_fields = {"backend": backend, "workers": workers,
                   "batch_size": batch_size}
    exec_overrides = {key: value for key, value in exec_fields.items()
                      if value is not None}
    if exec_overrides:
        overrides["exec"] = spec.exec.replace(**exec_overrides)
    if overrides:
        spec = spec.replace(**overrides)
    return run_campaign(problem, spec, progress=progress, sink=sink,
                        store=store, run_id=run_id, resume=resume)


def sweep_run_id(spec: "CampaignSpec", problem_name: str, label: str) -> str:
    """The deterministic store id of one sweep: ``<label>-<fingerprint8>``.

    Deterministic in (spec, problem), so rerunning the same configuration
    resumes (or regenerates from) its own store entry, and a changed
    configuration lands in a fresh one instead of colliding.  Execution
    knobs are excluded from the fingerprint (see
    :func:`~repro.results.store.campaign_fingerprint`): a sweep run with
    ``--workers 4`` and its serial resume share one store entry.
    """
    from repro.results.store import campaign_fingerprint

    return f"{label}-{campaign_fingerprint(spec, problem_name)[:8]}"


def load_fault_sweep(store, spec: "CampaignSpec", problem_name: str,
                     label: str) -> CampaignResult:
    """Rebuild one stored sweep — zero new solves.

    The run is located by its deterministic :func:`sweep_run_id`; a missing
    or incomplete run raises :class:`~repro.results.store.RunStoreError`
    telling the user to run (or resume) with the store first.
    """
    from repro.results.store import RunStore

    return RunStore.coerce(store).load_result(
        sweep_run_id(spec, problem_name, label))


@dataclass
class FigureSweep:
    """A complete figure: sweeps for both MGS positions on one problem."""

    problem_name: str
    first: CampaignResult
    last: CampaignResult
    metadata: dict = field(default_factory=dict)

    def panels(self) -> dict[str, CampaignResult]:
        """The two sub-figures keyed by MGS position."""
        return {"first": self.first, "last": self.last}

    def render(self, width: int = 64, height: int = 10) -> str:
        """Render all panels as ASCII plots plus a summary table."""
        chunks = []
        for position, campaign in self.panels().items():
            chunks.append(
                f"=== {self.problem_name}: SDC on the {position} MGS iteration "
                f"(failure-free outer iterations = {campaign.failure_free_outer}) ==="
            )
            for fault_class in campaign.fault_classes():
                x, y = campaign.series(fault_class)
                description = next(
                    (t.fault_description for t in campaign.trials
                     if t.fault_class == fault_class), fault_class)
                chunks.append(ascii_series_plot(
                    x, y, width=width, height=height,
                    title=f"fault class: {fault_class} ({description})",
                    xlabel="aggregate inner solve iteration that faults",
                    ylabel="outer iterations",
                ))
            chunks.append(format_table(*campaign_class_table(campaign)))
        return "\n\n".join(chunks)


def _figure(problem: TestProblem, **kwargs) -> FigureSweep:
    first = run_fault_sweep(problem, mgs_position="first", **kwargs)
    last = run_fault_sweep(problem, mgs_position="last", **kwargs)
    return FigureSweep(problem_name=problem.name, first=first, last=last,
                       metadata={"options": dict(kwargs)})


def figure3(grid_n: int = 100, stride: int = 1, detector=None, **kwargs) -> FigureSweep:
    """Reproduce Figure 3 (Poisson / SPD problem).

    Parameters
    ----------
    grid_n : int
        Poisson grid size per side (100 reproduces the paper's 10,000-row
        matrix; smaller values give the fast configurations).
    stride : int
        Injection-location subsampling (1 = exhaustive, as in the paper).
    detector : {"bound", None} or Detector
        Detector configuration for the inner solves.
    **kwargs
        Forwarded to :func:`run_fault_sweep`.
    """
    problem = poisson_problem(grid_n)
    return _figure(problem, stride=stride, detector=detector, **kwargs)


def figure4(n_nodes: int = 25187, stride: int = 1, detector=None, **kwargs) -> FigureSweep:
    """Reproduce Figure 4 (circuit / nonsymmetric ill-conditioned problem).

    Parameters
    ----------
    n_nodes : int
        Circuit-surrogate dimension (25187 matches the real matrix's size).
    stride : int
        Injection-location subsampling.
    detector : {"bound", None} or Detector
        Detector configuration for the inner solves.
    **kwargs
        Forwarded to :func:`run_fault_sweep`.
    """
    problem = circuit_problem(n_nodes)
    return _figure(problem, stride=stride, detector=detector, **kwargs)
