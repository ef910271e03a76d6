"""Tests for the triangular solves behind the ILU(0)/GS/SSOR preconditioners.

Covers :class:`TriangularFactor` (SuperLU ``gstrs`` solves with a
row-sequential fallback; their agreement is asserted in
``tests/test_kernel_engines.py``), the CSR triangle splitter, and the ILU(0)
factors — checked against ``scipy.sparse.linalg.spsolve_triangular`` /
``splu`` on random sparse, Poisson, convection–diffusion, and circuit
matrices, including the empty-row / missing-diagonal / zero-pivot edge
cases.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gallery.circuit import mult_dcop_surrogate
from repro.gallery.convection_diffusion import convection_diffusion_2d
from repro.gallery.poisson import poisson2d
from repro.precond.ilu import ILU0Preconditioner
from repro.sparse.csr import CSRMatrix
from repro.sparse.trisolve import TriangularFactor, split_triangle

from reference import poisson1d


# ----------------------------------------------------------------------------
# strategies / helpers
# ----------------------------------------------------------------------------

@st.composite
def triangular_systems(draw, max_dim=24):
    """A random sparse triangular system as (dense matrix, lower, unit, rhs)."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    lower = draw(st.booleans())
    unit = draw(st.booleans())
    density = draw(st.floats(min_value=0.05, max_value=0.9))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    dense = np.tril(dense, -1) if lower else np.triu(dense, 1)
    # Keep the system well conditioned: unit-magnitude diagonal, bounded fill.
    diag = rng.uniform(1.0, 2.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    np.fill_diagonal(dense, 1.0 if unit else diag)
    b = rng.standard_normal(n)
    return dense, lower, unit, b


def factor_from_dense(dense, lower, unit):
    A = CSRMatrix.from_dense(dense)
    part = "lower" if lower else "upper"
    if unit:
        return TriangularFactor.from_csr(A, part, unit_diagonal=True)
    return TriangularFactor.from_csr(A, part)


# ----------------------------------------------------------------------------
# property-based: solves match scipy
# ----------------------------------------------------------------------------

class TestSolveProperties:
    @given(triangular_systems())
    @settings(max_examples=80, deadline=None)
    def test_solve_matches_spsolve_triangular(self, system):
        dense, lower, unit, b = system
        factor = factor_from_dense(dense, lower, unit)
        x = factor.solve(b)
        ref = spla.spsolve_triangular(sp.csr_matrix(dense), b, lower=lower,
                                      unit_diagonal=unit)
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-9)

    @given(triangular_systems())
    @settings(max_examples=40, deadline=None)
    def test_to_csr_roundtrip(self, system):
        dense, lower, unit, b = system
        factor = factor_from_dense(dense, lower, unit)
        np.testing.assert_allclose(factor.to_csr().todense(), dense,
                                   rtol=1e-12, atol=0.0)

    @given(triangular_systems())
    @settings(max_examples=40, deadline=None)
    def test_solve_residual(self, system):
        """``T x = b`` holds for the returned x (independent of scipy)."""
        dense, lower, unit, b = system
        factor = factor_from_dense(dense, lower, unit)
        x = factor.solve(b)
        np.testing.assert_allclose(dense @ x, b, rtol=1e-8, atol=1e-8)


# ----------------------------------------------------------------------------
# gallery matrices: the paper's problems
# ----------------------------------------------------------------------------

class TestGalleryMatrices:
    @pytest.mark.parametrize("make", [lambda: poisson2d(10),
                                      lambda: convection_diffusion_2d(10),
                                      lambda: mult_dcop_surrogate(150)])
    @pytest.mark.parametrize("part", ["lower", "upper"])
    def test_triangle_solves_match_scipy(self, make, part):
        A = make()
        n = A.shape[0]
        diag = A.diagonal()
        diag = np.where(diag == 0.0, 1.0, diag)
        factor = TriangularFactor.from_csr(A, part, diag=diag)
        b = np.random.default_rng(99).standard_normal(n)
        x = factor.solve(b)
        tri = sp.tril(A.to_scipy()) if part == "lower" else sp.triu(A.to_scipy())
        tri = tri.tocsr()
        tri.setdiag(diag)
        ref = spla.spsolve_triangular(tri, b, lower=(part == "lower"))
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-9)

    def test_tridiagonal_is_fully_sequential(self):
        """A bidiagonal triangle: every row depends on the one before."""
        A = poisson1d(32)
        factor = TriangularFactor.from_csr(A, "lower", diag=A.diagonal())
        b = np.random.default_rng(3).standard_normal(32)
        np.testing.assert_allclose(np.tril(A.todense()) @ factor.solve(b), b,
                                   rtol=1e-12, atol=1e-12)

    def test_diagonal_matrix_is_one_level(self):
        """No row depends on another (a single dependency level)."""
        A = CSRMatrix.identity(9).scale(4.0)
        factor = TriangularFactor.from_csr(A, "lower", diag=A.diagonal())
        np.testing.assert_allclose(factor.solve(np.ones(9)), np.full(9, 0.25))


# ----------------------------------------------------------------------------
# refactored ILU(0) factors
# ----------------------------------------------------------------------------

class TestILU0Factors:
    def test_tridiagonal_factors_match_splu(self):
        """ILU(0) of a tridiagonal matrix is an exact LU factorization, so
        the triangular engines must reproduce scipy's complete solve."""
        A = poisson1d(25)
        m = ILU0Preconditioner(A)
        lu = spla.splu(A.to_scipy().tocsc(), permc_spec="NATURAL",
                       options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
        b = np.random.default_rng(1).standard_normal(25)
        np.testing.assert_allclose(m.apply(b), lu.solve(b), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("make", [lambda: poisson2d(9),
                                      lambda: convection_diffusion_2d(9),
                                      lambda: mult_dcop_surrogate(120)])
    def test_apply_is_triangular_solve_chain(self, make):
        """``apply`` equals scipy triangular solves with the stored factors."""
        A = make()
        n = A.shape[0]
        m = ILU0Preconditioner(A)
        L, U = m.factors
        b = np.random.default_rng(5).standard_normal(n)
        y = spla.spsolve_triangular(L.to_csr().to_scipy(), b, lower=True,
                                    unit_diagonal=True)
        z = spla.spsolve_triangular(U.to_csr().to_scipy(), y, lower=False)
        np.testing.assert_allclose(m.apply(b), z, rtol=1e-9, atol=1e-10)

    def test_factor_product_matches_a_on_pattern(self):
        """L @ U agrees with A exactly on the pattern of A (the defining
        property of zero-fill ILU)."""
        A = convection_diffusion_2d(8)
        m = ILU0Preconditioner(A)
        L, U = m.factors
        product = L.to_csr().to_scipy() @ U.to_csr().to_scipy()
        dense_a = A.todense()
        pattern = dense_a != 0.0
        np.testing.assert_allclose(product.toarray()[pattern], dense_a[pattern],
                                   rtol=1e-10, atol=1e-12)


# ----------------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------------

class TestEdgeCases:
    def test_empty_rows(self):
        """Rows without any stored entry solve as b_i / diag_i."""
        dense = np.zeros((5, 5))
        dense[3, 1] = 2.0
        A = CSRMatrix.from_dense(dense)
        factor = TriangularFactor.from_csr(A, "lower", diag=np.full(5, 2.0))
        b = np.arange(5, dtype=np.float64)
        x = factor.solve(b)
        expected = b / 2.0
        expected[3] = (b[3] - 2.0 * expected[1]) / 2.0
        np.testing.assert_allclose(x, expected)

    def test_missing_diagonal_with_replacement(self):
        """A structurally missing diagonal is handled by the explicit diag."""
        dense = np.array([[0.0, 0.0], [3.0, 0.0]])
        A = CSRMatrix.from_dense(dense)
        factor = TriangularFactor.from_csr(A, "lower", diag=np.ones(2))
        np.testing.assert_allclose(factor.solve(np.array([1.0, 5.0])),
                                   np.array([1.0, 2.0]))

    def test_ilu_zero_pivot_shift_keeps_solve_finite(self):
        """A zero pivot triggers the surrogate shift; apply stays finite."""
        dense = np.array([[0.0, 1.0, 0.0],
                          [1.0, 2.0, 1.0],
                          [0.0, 1.0, 1.0]])
        A = CSRMatrix.from_dense(dense)
        m = ILU0Preconditioner(A)
        z = m.apply(np.ones(3))
        assert np.all(np.isfinite(z))

    def test_ilu_missing_diagonal_unit_pivot(self):
        """A row with no stored diagonal gets a unit pivot in the solve."""
        dense = np.array([[2.0, 1.0], [1.0, 0.0]])
        A = CSRMatrix.from_dense(dense)
        m = ILU0Preconditioner(A)
        z = m.apply(np.ones(2))
        assert np.all(np.isfinite(z))
        # Second pivot is the (shifted) Schur complement, not exactly zero.
        _, U = m.factors
        assert U.diag[1] != 0.0

    def test_ilu_duplicate_columns_summed_before_factorization(self):
        """Duplicate (i, j) entries are legal CSR input; ILU(0) must factor
        the canonical summed matrix, not silently drop contributions."""
        dup = CSRMatrix((2, 2), indptr=[0, 3, 5], indices=[0, 1, 1, 0, 1],
                        data=[4.0, 1.0, 1.0, 2.0, 5.0])
        summed = CSRMatrix((2, 2), indptr=[0, 2, 4], indices=[0, 1, 0, 1],
                           data=[4.0, 2.0, 2.0, 5.0])
        m_dup = ILU0Preconditioner(dup)
        m_sum = ILU0Preconditioner(summed)
        np.testing.assert_array_equal(m_dup.data, m_sum.data)
        r = np.array([1.0, 2.0])
        np.testing.assert_array_equal(m_dup.apply(r), m_sum.apply(r))

    def test_wrong_side_entry_rejected(self):
        with pytest.raises(ValueError, match="triangular"):
            TriangularFactor(2, [0, 0, 1], [1], [1.0], diag=np.ones(2), lower=True)
        with pytest.raises(ValueError, match="triangular"):
            TriangularFactor(2, [0, 1, 1], [0], [1.0], diag=np.ones(2), lower=False)
        with pytest.raises(ValueError, match="triangular"):
            # A diagonal entry is not part of a *strict* triangle either.
            TriangularFactor(2, [0, 1, 1], [0], [1.0], diag=np.ones(2), lower=True)

    def test_validation(self):
        factor = TriangularFactor(2, [0, 0, 1], [0], [1.0], diag=np.ones(2))
        with pytest.raises(ValueError):
            factor.solve(np.ones(3))
        with pytest.raises(ValueError):
            TriangularFactor(2, [0, 0, 1], [0], [1.0], diag=np.ones(3))
        with pytest.raises(ValueError):
            TriangularFactor(2, [0, 1], [0], [1.0], diag=np.ones(2))

    def test_empty_matrix(self):
        factor = TriangularFactor(0, [0], [], [], diag=np.zeros(0))
        assert factor.solve(np.zeros(0)).shape == (0,)

    def test_split_triangle_parts(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((7, 7))
        dense[rng.random((7, 7)) > 0.4] = 0.0
        np.fill_diagonal(dense, 1.0)
        A = CSRMatrix.from_dense(dense)
        for part, ref in (("lower", np.tril(dense, -1)), ("upper", np.triu(dense, 1))):
            indptr, indices, data = split_triangle(A.indptr, A.indices, A.data, 7, part)
            got = CSRMatrix((7, 7), indptr, indices, data).todense()
            np.testing.assert_allclose(got, ref, rtol=0, atol=0)
        with pytest.raises(ValueError):
            split_triangle(A.indptr, A.indices, A.data, 7, "diag")

    def test_repr_names_the_solve_path(self):
        A = poisson2d(6)
        factor = TriangularFactor.from_csr(A, "lower", diag=A.diagonal())
        assert repr(factor) == "TriangularFactor(n=36, nnz=60, lower, gstrs)"
        poisoned = TriangularFactor.from_csr(A, "upper", diag=np.zeros(36))
        assert repr(poisoned).endswith("upper, sequential)")
