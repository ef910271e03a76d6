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
together with rendering helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import (ascii_series_plot, campaign_class_table,
                                      format_table)
from repro.faults.campaign import CampaignResult
from repro.specs import CampaignSpec

__all__ = ["load_fault_sweep", "sweep_run_id", "FigureSweep"]


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


def load_fault_sweep(store, spec: "CampaignSpec", problem,
                     label: str) -> CampaignResult:
    """Rebuild one stored sweep of ``problem`` — zero new solves.

    The run is located by its deterministic :func:`sweep_run_id`; a missing
    or incomplete run, or one stored for a problem of another seed, raises
    :class:`~repro.results.store.RunStoreError` telling the user to run (or
    resume) with the store first.
    """
    from repro.results.store import RunStore

    store = RunStore.coerce(store)
    run_id = sweep_run_id(spec, problem.name, label)
    store.manifest(run_id).check_seed(getattr(problem, "seed", None))
    return store.load_result(run_id)


@dataclass
class FigureSweep:
    """A complete figure: sweeps for both MGS positions on one problem."""

    problem_name: str
    first: CampaignResult
    last: CampaignResult

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
