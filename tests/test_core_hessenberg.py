"""Unit tests for the Hessenberg matrix container and its incremental QR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arnoldi import arnoldi_process
from repro.core.hessenberg import HessenbergMatrix


def build_from_arnoldi(A, m, beta_vec):
    """Helper: run Arnoldi and feed its columns into a HessenbergMatrix."""
    Q, H, _ = arnoldi_process(A, beta_vec, m)
    hess = HessenbergMatrix(H.shape[1], beta=float(np.linalg.norm(beta_vec)))
    for j in range(H.shape[1]):
        hess.add_column(H[: j + 2, j])
    return hess, H


class TestConstruction:
    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            HessenbergMatrix(0)

    def test_initial_state(self):
        h = HessenbergMatrix(5, beta=3.0)
        assert h.k == 0
        assert h.beta == 3.0
        assert h.least_squares_residual() == 3.0
        assert h.H.shape == (1, 0)

    def test_column_length_validated(self):
        h = HessenbergMatrix(4, beta=1.0)
        with pytest.raises(ValueError, match="entries"):
            h.add_column([1.0, 2.0, 3.0])  # first column needs exactly 2

    def test_overflow_rejected(self):
        h = HessenbergMatrix(1, beta=1.0)
        h.add_column([1.0, 0.5])
        with pytest.raises(RuntimeError, match="full"):
            h.add_column([1.0, 0.5, 0.1])


class TestIncrementalQR:
    def test_residual_matches_lstsq(self, rng):
        # The Givens residual must equal the true least-squares residual of
        # min ||H y - beta e1||.
        m = 8
        beta = 2.5
        hess = HessenbergMatrix(m, beta=beta)
        H = np.zeros((m + 1, m))
        for j in range(m):
            col = rng.standard_normal(j + 2)
            col[j + 1] = abs(col[j + 1]) + 0.1
            H[: j + 2, j] = col
            est = hess.add_column(col)
            e1 = np.zeros(j + 2)
            e1[0] = beta
            _, res, _, _ = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)
            true_res = np.sqrt(res[0]) if res.size else np.linalg.norm(
                H[: j + 2, : j + 1] @ np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)[0] - e1)
            assert est == pytest.approx(true_res, rel=1e-10, abs=1e-12)

    def test_triangular_factor_consistent(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        hess, H = build_from_arnoldi(poisson_small, 6, v0)
        # Solving R y = g must give the least-squares solution of H y = beta e1.
        y_qr = np.linalg.solve(hess.R, hess.g[: hess.k])
        e1 = np.zeros(hess.k + 1)
        e1[0] = hess.beta
        y_ls, *_ = np.linalg.lstsq(H, e1, rcond=None)
        np.testing.assert_allclose(y_qr, y_ls, rtol=1e-8, atol=1e-10)

    def test_r_is_upper_triangular(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        hess, _ = build_from_arnoldi(poisson_small, 5, v0)
        R = hess.R
        np.testing.assert_allclose(R, np.triu(R))

    def test_huge_entries_do_not_overflow(self):
        # Givens rotations must survive the paper's 1e+150-scaled faults.
        hess = HessenbergMatrix(2, beta=1.0)
        res = hess.add_column([1e150, 1.0])
        assert np.isfinite(res)
        res = hess.add_column([1.0, 1e150, 2.0])
        assert np.isfinite(res)
        assert np.all(np.isfinite(hess.R))

    def test_nonfinite_entry_propagates(self):
        hess = HessenbergMatrix(2, beta=1.0)
        res = hess.add_column([np.nan, 1.0])
        assert np.isnan(res) or not np.isfinite(res)


class TestAnalysis:
    def test_entry_accessor(self):
        """``H`` is the entry accessor: a view of the ``(k+1) x k`` columns
        added so far."""
        hess = HessenbergMatrix(3, beta=1.0)
        hess.add_column([2.0, 3.0])
        assert hess.H.tolist() == [[2.0], [3.0]]
        with pytest.raises(IndexError):
            hess.H[0, 1]

    def test_bound_violation(self):
        """The detector's screen over the stored entries finds the one
        above the bound."""
        from repro.core.detectors import HessenbergBoundDetector

        hess = HessenbergMatrix(2, beta=1.0)
        hess.add_column([5.0, 1.0])
        assert HessenbergBoundDetector(4.0).flag_values(hess.H).tolist() == [[True],
                                                                             [False]]
        assert not HessenbergBoundDetector(6.0).flag_values(hess.H).any()

    def test_spd_hessenberg_is_tridiagonal(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        hess, _ = build_from_arnoldi(poisson_small, 8, v0)
        scale = np.abs(hess.H).max()
        assert np.all(np.abs(np.triu(hess.H, 2)) <= 1e-10 * scale)

    def test_nonsymmetric_hessenberg_is_not_tridiagonal(self, rng, tridiag_nonsym):
        v0 = rng.standard_normal(tridiag_nonsym.shape[0])
        hess, _ = build_from_arnoldi(tridiag_nonsym, 8, v0)
        scale = np.abs(hess.H).max()
        assert np.any(np.abs(np.triu(hess.H, 2)) > 1e-10 * scale)

    def test_rank_of_well_conditioned_block(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        hess, _ = build_from_arnoldi(poisson_small, 6, v0)
        assert hess.numerical_rank() == hess.k
        assert not hess.is_rank_deficient()
        assert hess.smallest_singular_value() > 0.0

    def test_rank_deficiency_detected(self):
        hess = HessenbergMatrix(3, beta=1.0)
        hess.add_column([1.0, 1.0])
        hess.add_column([0.0, 0.0, 1.0])   # second column of the square block is zero
        assert hess.is_rank_deficient()
        assert hess.numerical_rank() < hess.k

    def test_rank_with_nonfinite_entries(self):
        hess = HessenbergMatrix(2, beta=1.0)
        hess.add_column([np.inf, 1.0])
        # Must not raise; NaN/Inf are treated as zero for the rank query.
        assert isinstance(hess.numerical_rank(), int)

    def test_empty_matrix_queries(self):
        hess = HessenbergMatrix(3, beta=1.0)
        assert hess.numerical_rank() == 0
        assert hess.smallest_singular_value() == 0.0
        assert hess.H.size == 0
