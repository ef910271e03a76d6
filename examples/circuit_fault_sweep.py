#!/usr/bin/env python
"""Reproduce Figure 4 (reduced scale): SDC sweep on the circuit problem.

Same protocol as ``poisson_fault_sweep.py`` applied to the nonsymmetric,
ill-conditioned circuit matrix (the offline surrogate for UF ``mult_dcop_03``).
The nonsymmetric case differs from the SPD case in two ways the paper
highlights: every Hessenberg entry may legitimately be nonzero, and the very
first inner iterations are extremely sensitive even to *small* faults.

Run with:  python examples/circuit_fault_sweep.py [n_nodes] [stride]
"""

from __future__ import annotations

import sys

from repro.api import run_campaign
from repro.experiments.figure34 import FigureSweep
from repro.experiments.summary import summarize_campaign
from repro.gallery.problems import circuit_problem
from repro.specs import CampaignSpec


def main(n_nodes: int = 1500, stride: int = 10) -> None:
    print(f"Running the Figure 4 sweep on a {n_nodes}-node circuit surrogate, "
          f"injection-location stride {stride} ...")
    problem = circuit_problem(n_nodes)
    panels = {}
    for position in ("first", "last"):
        spec = CampaignSpec(mgs_position=position, stride=stride, max_outer=120)
        panels[position] = run_campaign(problem, spec)
    figure = FigureSweep(problem_name=problem.name,
                         first=panels["first"], last=panels["last"])
    print()
    print(figure.render(width=70, height=12))

    print("\nSummary statistics:")
    for position, campaign in figure.panels().items():
        summary = summarize_campaign(campaign)
        print(f"  SDC on the {position} MGS iteration: failure-free outer = "
              f"{summary['failure_free_outer']}, worst-case increase = "
              f"+{summary['worst_case_increase']} ({summary['worst_case_percent']:.0f}%)")

    print("\nWhat to look for (compare with the paper's Figure 4):")
    print(" * the first few iterations of the first inner solve are the vulnerable region,")
    print("   including for the small (undetectable) fault classes;")
    print(" * away from that region the penalty is at most a couple of outer iterations;")
    print(" * faulting the last MGS coefficient penalizes more locations than the first.")


if __name__ == "__main__":
    n_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    stride = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    main(n_nodes, stride)
