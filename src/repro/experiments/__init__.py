"""Experiment drivers that regenerate the paper's tables and figures.

Each module corresponds to one artifact of the paper's evaluation section
(the README's *Quickstart* shows the ``repro`` commands that print them):

* :mod:`repro.experiments.table1`   — Table I, sample-matrix properties;
* :mod:`repro.experiments.figure2`  — Figure 2, Hessenberg vs tridiagonal
  structure of the projected matrix;
* :mod:`repro.experiments.figure34` — Figures 3 and 4, the single-SDC
  injection sweeps;
* :mod:`repro.experiments.summary`  — the Section VII-E summary statistics
  (worst-case increase in time-to-solution with and without the detector);
* :mod:`repro.experiments.report`   — plain-text tables and ASCII series
  plots used by the examples and benchmark output.
"""

from repro.experiments.report import format_table, ascii_series_plot
from repro.experiments.table1 import matrix_properties, table1_rows, PAPER_TABLE1
from repro.experiments.figure2 import hessenberg_structure, figure2_comparison
from repro.experiments.figure34 import FigureSweep, figure3, figure4
from repro.experiments.summary import detector_comparison, summarize_campaign

__all__ = [
    "format_table",
    "ascii_series_plot",
    "matrix_properties",
    "table1_rows",
    "PAPER_TABLE1",
    "hessenberg_structure",
    "figure2_comparison",
    "FigureSweep",
    "figure3",
    "figure4",
    "detector_comparison",
    "summarize_campaign",
]
