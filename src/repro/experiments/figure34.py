"""Figures 3 and 4 — single-SDC injection sweeps over the nested solver.

Each figure of the paper is a set of three panels (one per fault class)
showing the number of outer iterations FT-GMRES needs to converge when a
single SDC event is injected at every possible aggregate inner iteration:

* Figure 3: the Poisson (SPD) problem; (a) fault on the first MGS iteration,
  (b) fault on the last MGS iteration.
* Figure 4: the circuit (nonsymmetric) problem; same two panels.

One panel set (one :class:`~repro.faults.campaign.CampaignResult`) is one
:class:`~repro.specs.CampaignSpec` run through :func:`repro.api.run_campaign`;
:class:`FigureSweep` bundles the "first" and "last" campaigns of a figure
together with rendering helpers, and :func:`figure3`/:func:`figure4` run
both panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import run_campaign
from repro.experiments.report import (ascii_series_plot, campaign_class_table,
                                      format_table)
from repro.faults.campaign import CampaignResult
from repro.gallery.problems import TestProblem, circuit_problem, poisson_problem
from repro.specs import CampaignSpec

__all__ = ["load_fault_sweep", "sweep_run_id", "FigureSweep", "figure3", "figure4"]


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
    first = run_campaign(problem, mgs_position="first", **kwargs)
    last = run_campaign(problem, mgs_position="last", **kwargs)
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
        Forwarded to :func:`repro.api.run_campaign`: more
        :class:`~repro.specs.CampaignSpec` fields (``exec={"workers": 2}``,
        ``max_outer=200``, ...) and its ``sink``/``store`` keywords.
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
        Forwarded to :func:`repro.api.run_campaign`: more
        :class:`~repro.specs.CampaignSpec` fields (``exec={"workers": 2}``,
        ``max_outer=200``, ...) and its ``sink``/``store`` keywords.
    """
    problem = circuit_problem(n_nodes)
    return _figure(problem, stride=stride, detector=detector, **kwargs)
