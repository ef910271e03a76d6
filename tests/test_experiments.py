"""Unit tests for the experiment drivers (Table I, Figures 2-4, summary, reports)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run_campaign
from repro.experiments.figure2 import figure2_comparison, hessenberg_structure, pattern_string
from repro.experiments.figure34 import FigureSweep
from repro.experiments.report import ascii_series_plot, format_table
from repro.experiments.summary import (
    detector_comparison,
    summarize_campaign,
    worst_case_increase,
)
from repro.experiments.table1 import (
    PAPER_TABLE1,
    condition_estimate,
    matrix_properties,
    table1_rows,
)
from repro.gallery.poisson import poisson2d
from repro.gallery.problems import circuit_problem, poisson_problem

from reference import tridiagonal


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bee"], [[1, 2.5], ["x", 1e-7]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "bee" in lines[1]
        assert len(lines) == 5

    def test_ascii_plot_basic(self):
        x = np.arange(10)
        y = np.arange(10) ** 2
        text = ascii_series_plot(x, y, width=40, height=8, title="parabola",
                                 xlabel="x", ylabel="y")
        assert "parabola" in text
        assert "*" in text
        assert "x" in text.splitlines()[-1]

    def test_ascii_plot_empty(self):
        assert "(no data)" in ascii_series_plot([], [], title="empty")

    def test_ascii_plot_constant_series(self):
        text = ascii_series_plot([0, 1, 2], [5, 5, 5])
        assert "*" in text

    def test_ascii_plot_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ascii_series_plot([1, 2], [1])


class TestTable1:
    def test_poisson_properties_match_paper(self):
        """At the paper's size the generated matrix matches Table I exactly
        for the structural entries and closely for the norms."""
        problem = poisson_problem(grid_n=100)
        props = matrix_properties(problem, compute_condition=False)
        paper = PAPER_TABLE1["poisson"]
        assert props["rows"] == paper["rows"]
        assert props["nnz"] == paper["nnz"]
        assert props["structural_full_rank"] == paper["structural_full_rank"]
        assert props["pattern_symmetric"] == paper["pattern_symmetric"]
        # ||A||_2 -> 8 as the grid grows; ||A||_F = sqrt(16n^2 + 2*(nnz-n^2)).
        assert props["two_norm"] == pytest.approx(paper["two_norm"], rel=2e-3)
        assert props["frobenius_norm"] == pytest.approx(paper["frobenius_norm"], rel=2e-2)

    def test_poisson_condition_small_grid(self):
        problem = poisson_problem(grid_n=10)
        props = matrix_properties(problem, compute_condition=True, condition_method="dense")
        # cond_2 of gallery('poisson', n) ~ (2(n+1)/pi)^2; for n=10 about 49.
        assert 30 < props["condition_number"] < 80

    def test_circuit_properties(self):
        problem = circuit_problem(300)
        props = matrix_properties(problem, compute_condition=True, condition_method="dense")
        assert props["pattern_symmetric"] is False or props["numerically_symmetric"] is False
        assert props["structural_full_rank"]
        assert props["condition_number"] > PAPER_TABLE1["poisson"]["condition_number"]

    def test_condition_estimate_methods_agree(self):
        A = poisson2d(12)
        dense = condition_estimate(A, method="dense")
        sparse = condition_estimate(A, method="sparse")
        # 1-norm and 2-norm condition numbers agree within a modest factor.
        assert dense / 5 < sparse < dense * 5

    def test_condition_estimate_unknown_method(self):
        with pytest.raises(ValueError):
            condition_estimate(poisson2d(4), method="guess")

    def test_table_rows_layout(self):
        problems = {"poisson": poisson_problem(grid_n=8), "circuit": circuit_problem(100)}
        headers, rows = table1_rows(problems, compute_condition=False)
        assert headers == ["Properties", "poisson", "circuit"]
        assert rows[0][0] == "number of rows"
        assert len(rows) == 9
        sym_row = [r for r in rows if r[0] == "nonzero pattern symmetry"][0]
        assert sym_row[1] == "symmetric"


class TestFigure2:
    def test_spd_gives_tridiagonal(self):
        report = hessenberg_structure(poisson2d(8), steps=8)
        assert report["is_tridiagonal"]
        assert report["orthogonality_error"] < 1e-8

    def test_nonsymmetric_gives_full_hessenberg(self):
        report = hessenberg_structure(tridiagonal(40, -1.0, 3.0, -2.0), steps=8)
        assert not report["is_tridiagonal"]
        assert report["bandwidth"] > 1

    def test_pattern_string(self):
        H = np.array([[1.0, 2.0], [1e-14, 3.0], [0.0, 1.0]])
        text = pattern_string(H)
        lines = text.splitlines()
        assert lines[0] == "x x"
        assert lines[1] == "0 x"

    def test_comparison_consistent_with_paper(self):
        result = figure2_comparison(poisson2d(8), tridiagonal(40, -1.0, 3.0, -2.0), steps=8)
        assert result["consistent_with_paper"]


class TestFigure34AndSummary:
    @pytest.fixture(scope="class")
    def sweeps(self):
        problem = poisson_problem(grid_n=8)
        from repro.faults.models import ScalingFault

        common = dict(inner_iterations=6, max_outer=30, stride=6,
                      fault_classes={"large": ScalingFault(1e150)})
        without = run_campaign(problem, mgs_position="first", detector=None, **common)
        with_det = run_campaign(problem, mgs_position="first", detector="bound",
                                detector_response="zero", **common)
        return without, with_det

    def test_sweep_results_shape(self, sweeps):
        without, _ = sweeps
        assert without.failure_free_outer > 0
        assert len(without.trials) > 0
        assert without.mgs_position == "first"

    def test_detector_detects_large_faults(self, sweeps):
        _, with_det = sweeps
        assert with_det.detection_rate("large") == 1.0

    def test_summary_fields(self, sweeps):
        without, _ = sweeps
        summary = summarize_campaign(without)
        assert summary["failure_free_outer"] == without.failure_free_outer
        assert summary["worst_case_increase"] >= 0
        assert "large" in summary["per_class"]
        assert 0.0 <= summary["per_class"]["large"]["fraction_no_penalty"] <= 1.0

    def test_detector_comparison(self, sweeps):
        without, with_det = sweeps
        comparison = detector_comparison(without, with_det)
        assert comparison["worst_case_with"] <= comparison["worst_case_without"] + 1
        assert isinstance(comparison["detector_helps"], (bool, np.bool_))

    def test_helper_statistics(self, sweeps):
        without, _ = sweeps
        assert worst_case_increase(without) >= 0
        large = summarize_campaign(without)["per_class"]["large"]
        assert large["median_increase"] >= 0.0
        assert 0.0 <= large["fraction_no_penalty"] <= 1.0

    def test_figure_sweep_render(self, sweeps):
        without, with_det = sweeps
        fig = FigureSweep(problem_name="poisson-8x8", first=without, last=with_det)
        text = fig.render(width=40, height=6)
        assert "poisson-8x8" in text
        assert "fault class: large" in text
        assert "worst outer" in text
