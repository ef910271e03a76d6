"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.hessenberg import HessenbergMatrix
from repro.core.least_squares import solve_rank_revealing, solve_triangular
from repro.core.detectors import HessenbergBoundDetector
from repro.faults.bitflip import flip_bit
from repro.faults.models import ScalingFault
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.norms import frobenius_norm, two_norm_estimate

# ----------------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                          allow_infinity=False)


@st.composite
def dense_matrices(draw, max_dim=8):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return draw(hnp.arrays(np.float64, (rows, cols), elements=finite_floats))


@st.composite
def square_dense_matrices(draw, max_dim=8):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return draw(hnp.arrays(np.float64, (n, n), elements=finite_floats))


@st.composite
def coo_triplets(draw, max_dim=10, max_nnz=30):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    r = draw(hnp.arrays(np.int64, (nnz,), elements=st.integers(0, rows - 1)))
    c = draw(hnp.arrays(np.int64, (nnz,), elements=st.integers(0, cols - 1)))
    v = draw(hnp.arrays(np.float64, (nnz,), elements=finite_floats))
    return (rows, cols), r, c, v


# ----------------------------------------------------------------------------
# sparse substrate properties
# ----------------------------------------------------------------------------

class TestSparseProperties:
    @given(coo_triplets())
    @settings(max_examples=60, deadline=None)
    def test_coo_to_csr_preserves_dense(self, triplets):
        shape, r, c, v = triplets
        coo = COOMatrix(shape, rows=r, cols=c, values=v)
        np.testing.assert_allclose(coo.tocsr().todense(), coo.todense(), rtol=1e-12, atol=1e-12)

    @given(dense_matrices(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_spmv_matches_dense(self, dense, seed):
        m = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(seed).standard_normal(dense.shape[1])
        np.testing.assert_allclose(m.matvec(x), dense @ x, rtol=1e-10, atol=1e-8)

    @given(dense_matrices(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rmatvec_is_transpose_matvec(self, dense, seed):
        m = CSRMatrix.from_dense(dense)
        y = np.random.default_rng(seed).standard_normal(dense.shape[0])
        np.testing.assert_allclose(m.rmatvec(y), m.transpose().matvec(y), rtol=1e-10, atol=1e-8)

    @given(dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution(self, dense):
        m = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(m.transpose().transpose().todense(), m.todense())

    @given(square_dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_norm_ordering(self, dense):
        """||A||_2 <= ||A||_F and ||A||_2^2 <= ||A||_1 * ||A||_inf."""
        m = CSRMatrix.from_dense(dense)
        fro = frobenius_norm(m)
        two = two_norm_estimate(m, tol=1e-10, maxiter=500)
        assert two <= fro * (1 + 1e-8) + 1e-12
        one, inf = np.linalg.norm(dense, 1), np.linalg.norm(dense, np.inf)
        assert two ** 2 <= one * inf * (1 + 1e-8) + 1e-12

    @given(square_dense_matrices())
    @settings(max_examples=30, deadline=None)
    def test_add_scale_linearity(self, dense):
        m = CSRMatrix.from_dense(dense)
        combined = m.scale(2.0).add(m.scale(-2.0))
        if combined.nnz:
            assert np.abs(combined.data).max() <= 1e-9 * max(np.abs(dense).max(), 1.0)


# ----------------------------------------------------------------------------
# bit flips and fault models
# ----------------------------------------------------------------------------

class TestFaultProperties:
    @given(st.floats(allow_nan=False), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_bitflip_involution(self, value, bit):
        assert flip_bit(flip_bit(value, bit), bit) == value

    @given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_bitflip_changes_value(self, value, bit):
        flipped = flip_bit(value, bit)
        # A single bit flip always changes the stored representation; the
        # value itself changes unless it becomes NaN (exponent flips on Inf).
        if not np.isnan(flipped):
            assert flipped != value or (value == 0.0 and flipped == -0.0 and
                                        np.signbit(flipped) != np.signbit(value))

    @given(finite_floats, st.floats(min_value=1e-310, max_value=1e300))
    @settings(max_examples=100, deadline=None)
    def test_scaling_fault_magnitude(self, value, factor):
        corrupted = ScalingFault(factor).corrupt(value)
        if value != 0.0 and np.isfinite(value * factor):
            assert corrupted == pytest.approx(value * factor)


# ----------------------------------------------------------------------------
# detector properties
# ----------------------------------------------------------------------------

class TestDetectorProperties:
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_values_within_bound_never_flagged(self, bound, fraction):
        detector = HessenbergBoundDetector(bound)
        assert not detector.check_scalar(fraction * bound).flagged

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1.0 + 1e-9, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_values_beyond_bound_always_flagged(self, bound, factor):
        detector = HessenbergBoundDetector(bound)
        assume(bound * factor > bound)  # guard against rounding at the boundary
        assert detector.check_scalar(bound * factor).flagged
        assert detector.check_scalar(-bound * factor).flagged


# ----------------------------------------------------------------------------
# Hessenberg / least-squares properties
# ----------------------------------------------------------------------------

@st.composite
def hessenberg_columns(draw, max_k=6):
    k = draw(st.integers(min_value=1, max_value=max_k))
    cols = []
    for j in range(k):
        col = draw(hnp.arrays(np.float64, (j + 2,),
                              elements=st.floats(min_value=-100, max_value=100,
                                                 allow_nan=False)))
        # Keep the subdiagonal entry away from zero so the QR stays well posed.
        col[j + 1] = abs(col[j + 1]) + 1.0
        cols.append(col)
    beta = draw(st.floats(min_value=0.1, max_value=100.0))
    return beta, cols


class TestHessenbergProperties:
    @given(hessenberg_columns())
    @settings(max_examples=60, deadline=None)
    def test_givens_residual_matches_lstsq(self, data):
        beta, cols = data
        k = len(cols)
        hess = HessenbergMatrix(k, beta=beta)
        H = np.zeros((k + 1, k))
        residual = beta
        for j, col in enumerate(cols):
            H[: j + 2, j] = col
            residual = hess.add_column(col)
        e1 = np.zeros(k + 1)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(H, e1, rcond=None)
        true_residual = np.linalg.norm(H @ y - e1)
        assert residual == pytest.approx(true_residual, rel=1e-8, abs=1e-8)

    @given(hessenberg_columns())
    @settings(max_examples=60, deadline=None)
    def test_residual_never_increases(self, data):
        beta, cols = data
        hess = HessenbergMatrix(len(cols), beta=beta)
        previous = beta
        for col in cols:
            current = hess.add_column(col)
            assert current <= previous * (1 + 1e-10) + 1e-12
            previous = current


class TestLeastSquaresProperties:
    @given(square_dense_matrices(max_dim=6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_triangular_solve_matches_numpy(self, dense, seed):
        # Shift by n + sum(|diag|) so no diagonal entry can cancel to zero
        # (entry d becomes d + |d| + rest >= n > 0); the plain n*I shift made
        # R singular for e.g. dense=[[-1.]] (found by hypothesis).
        shift = dense.shape[0] + np.abs(np.diag(dense)).sum()
        R = np.triu(dense) + shift * np.eye(dense.shape[0])
        rhs = np.random.default_rng(seed).standard_normal(dense.shape[0])
        np.testing.assert_allclose(solve_triangular(R, rhs), np.linalg.solve(R, rhs),
                                   rtol=1e-8, atol=1e-8)

    @given(dense_matrices(max_dim=6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rank_revealing_residual_optimality(self, dense, seed):
        """The truncated-SVD solution is a true least-squares minimizer:
        no random perturbation of it achieves a smaller residual."""
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(dense.shape[0])
        y, rank = solve_rank_revealing(dense, rhs, tol=1e-10)
        base = np.linalg.norm(dense @ y - rhs)
        for _ in range(3):
            perturbed = y + rng.standard_normal(y.shape) * 1e-3
            assert base <= np.linalg.norm(dense @ perturbed - rhs) + 1e-9

    @given(dense_matrices(max_dim=6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rank_revealing_always_finite(self, dense, seed):
        rhs = np.random.default_rng(seed).standard_normal(dense.shape[0])
        y, _ = solve_rank_revealing(dense, rhs)
        assert np.all(np.isfinite(y))
