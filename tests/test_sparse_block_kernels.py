"""Block (multi-RHS) sparse kernels: matmat/rmatmat, multi-RHS triangular
solves, operator matmat defaults, and block preconditioner application.

The batched campaign engine leans on two properties established here:

* every column of ``CSRMatrix.matmat(X)`` / multi-RHS
  ``TriangularFactor.solve(B)`` / ``Preconditioner.apply_block(R)`` is
  *bit-identical* to the corresponding single-vector kernel on that column
  (the block kernels reduce in exactly the serial order), and
* block operands round-trip through every :class:`LinearOperator` flavor
  without densifying, flattening, or transposing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gallery.convection_diffusion import convection_diffusion_2d
from repro.gallery.poisson import poisson2d
from repro.precond.identity import IdentityPreconditioner
from repro.precond.ilu import ILU0Preconditioner
from repro.precond.jacobi import BlockJacobiPreconditioner, JacobiPreconditioner
from repro.precond.polynomial import NeumannPolynomialPreconditioner
from repro.precond.ssor import GaussSeidelPreconditioner, SSORPreconditioner
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.linear_operator import MatrixFreeOperator, aslinearoperator
from repro.sparse.trisolve import TriangularFactor

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                          allow_infinity=False)


@st.composite
def csr_and_block(draw, max_dim=10, max_nnz=40, max_width=5):
    """A random CSR matrix (possibly with empty rows/cols) plus a dense block."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    r = draw(hnp.arrays(np.int64, (nnz,), elements=st.integers(0, rows - 1)))
    c = draw(hnp.arrays(np.int64, (nnz,), elements=st.integers(0, cols - 1)))
    v = draw(hnp.arrays(np.float64, (nnz,), elements=finite_floats))
    A = COOMatrix((rows, cols), rows=r, cols=c, values=v).tocsr()
    width = draw(st.integers(min_value=1, max_value=max_width))
    X = draw(hnp.arrays(np.float64, (cols, width), elements=finite_floats))
    order = draw(st.sampled_from(["C", "F"]))
    return A, np.asarray(X, order=order)


class TestCSRMatmat:
    @given(csr_and_block())
    @settings(max_examples=80, deadline=None)
    def test_matmat_matches_scipy(self, case):
        A, X = case
        Y = A.matmat(X)
        assert Y.shape == (A.shape[0], X.shape[1])
        np.testing.assert_allclose(Y, A.to_scipy() @ X, rtol=1e-12, atol=1e-9)

    @given(csr_and_block())
    @settings(max_examples=80, deadline=None)
    def test_matmat_bit_identical_to_matvec_columns(self, case):
        A, X = case
        Y = A.matmat(X)
        for j in range(X.shape[1]):
            assert np.array_equal(Y[:, j], A.matvec(X[:, j]))

    @given(csr_and_block())
    @settings(max_examples=60, deadline=None)
    def test_rmatmat_matches_scipy(self, case):
        A, X = case
        # rmatmat takes a block with as many rows as A.
        R = np.ascontiguousarray(np.tile(X[: 1, :], (A.shape[0], 1)))
        Y = A.rmatmat(R)
        assert Y.shape == (A.shape[1], R.shape[1])
        np.testing.assert_allclose(Y, A.to_scipy().T @ R, rtol=1e-12, atol=1e-9)

    def test_single_column_matches_matvec(self):
        A = poisson2d(5)
        x = np.linspace(-1.0, 1.0, A.shape[1])
        assert np.array_equal(A.matmat(x[:, None])[:, 0], A.matvec(x))
        assert np.array_equal(A.rmatmat(x[:, None])[:, 0], A.rmatvec(x))

    def test_both_matmat_paths_agree(self):
        """The single-pass and the column-sweep kernels are interchangeable."""
        A = poisson2d(6)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((A.shape[1], 4))
        single_pass = A.matmat(X)
        old_limit = CSRMatrix._MATMAT_BLOCK_LIMIT
        try:
            CSRMatrix._MATMAT_BLOCK_LIMIT = 0  # force the column sweep
            swept = A.matmat(X)
        finally:
            CSRMatrix._MATMAT_BLOCK_LIMIT = old_limit
        assert np.array_equal(single_pass, swept)

    def test_empty_rows_produce_zeros(self):
        A = COOMatrix((4, 3), rows=[0, 3], cols=[1, 2], values=[2.0, -1.0]).tocsr()
        Y = A.matmat(np.ones((3, 2)))
        assert np.array_equal(Y[1], np.zeros(2)) and np.array_equal(Y[2], np.zeros(2))
        np.testing.assert_allclose(Y[0], [2.0, 2.0])

    def test_dunder_matmul_dispatches_by_ndim(self):
        A = poisson2d(4)
        x = np.ones(A.shape[1])
        assert (A @ x).shape == (A.shape[0],)
        assert (A @ x[:, None]).shape == (A.shape[0], 1)

    def test_dimension_mismatch_raises(self):
        A = poisson2d(4)
        with pytest.raises(ValueError):
            A.matmat(np.ones((3, 2)))
        with pytest.raises(ValueError):
            A.rmatmat(np.ones((3, 2)))
        with pytest.raises(ValueError):
            A.matmat(np.ones((A.shape[1], 2, 2)))


class TestOperatorMatmat:
    def test_csr_operator_passthrough(self):
        A = convection_diffusion_2d(5)
        op = aslinearoperator(A)
        X = np.random.default_rng(0).standard_normal((A.shape[1], 3))
        assert np.array_equal(op.matmat(X), A.matmat(X))
        assert np.array_equal(op.rmatmat(np.ascontiguousarray(X)), A.rmatmat(X))

    def test_dense_operator_block(self):
        M = np.arange(12.0).reshape(3, 4)
        op = aslinearoperator(M)
        X = np.ones((4, 2))
        np.testing.assert_allclose(op.matmat(X), M @ X)
        np.testing.assert_allclose(op.rmatmat(np.ones((3, 2))), M.T @ np.ones((3, 2)))

    def test_scipy_operator_block_no_densify_no_flatten(self):
        """Block operands must survive the scipy wrapper with shape intact."""
        sp = pytest.importorskip("scipy.sparse")
        A = sp.random(7, 5, density=0.4, format="csr", random_state=3)
        op = aslinearoperator(A)
        X = np.random.default_rng(1).standard_normal((5, 3))
        Y = op.matmat(X)
        assert isinstance(Y, np.ndarray) and type(Y) is np.ndarray
        assert Y.shape == (7, 3)
        np.testing.assert_allclose(Y, A @ X)
        Yt = op.rmatmat(np.ones((7, 2)))
        assert Yt.shape == (5, 2)
        # The 1-D entry points now refuse blocks instead of silently
        # ravel()-ing them into a length n*B vector.
        with pytest.raises(ValueError):
            op.matvec(X)
        with pytest.raises(ValueError):
            op.rmatvec(np.ones((7, 2)))

    def test_matrix_free_default_is_column_loop(self):
        calls = []

        def mv(x):
            calls.append(1)
            return 2.0 * x

        op = MatrixFreeOperator((4, 4), mv)
        X = np.arange(8.0).reshape(4, 2)
        np.testing.assert_allclose(op.matmat(X), 2.0 * X)
        assert len(calls) == 2

    def test_matrix_free_native_matmat(self):
        op = MatrixFreeOperator((4, 4), lambda x: 2.0 * x, matmat=lambda X: 2.0 * X)
        X = np.arange(8.0).reshape(4, 2)
        np.testing.assert_allclose(op.matmat(X), 2.0 * X)

    def test_matrix_free_matmat_shape_check(self):
        op = MatrixFreeOperator((4, 4), lambda x: 2.0 * x, matmat=lambda X: X[:2])
        with pytest.raises(ValueError):
            op.matmat(np.ones((4, 2)))


@st.composite
def triangular_cases(draw, max_dim=9, max_width=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    dense = draw(hnp.arrays(np.float64, (n, n),
                            elements=st.floats(min_value=-4.0, max_value=4.0,
                                               allow_nan=False, allow_infinity=False)))
    lower = draw(st.booleans())
    unit = draw(st.booleans())
    tri = np.tril(dense, k=-1) if lower else np.triu(dense, k=1)
    strict = CSRMatrix.from_dense(tri)
    diag = None if unit else draw(
        hnp.arrays(np.float64, (n,),
                   elements=st.floats(min_value=0.5, max_value=4.0)))
    width = draw(st.integers(min_value=1, max_value=max_width))
    B = draw(hnp.arrays(np.float64, (n, width), elements=finite_floats))
    factor = TriangularFactor(n, strict.indptr, strict.indices, strict.data,
                              diag, lower=lower)
    return factor, np.asarray(B, order=draw(st.sampled_from(["C", "F"])))


class TestTriangularMultiRHS:
    @given(triangular_cases())
    @settings(max_examples=80, deadline=None)
    def test_block_solve_bit_identical_to_columns(self, case):
        factor, B = case
        X = factor.solve(B)
        assert X.shape == B.shape
        for j in range(B.shape[1]):
            assert np.array_equal(X[:, j], factor.solve(B[:, j]))

    def test_block_solve_matches_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(7)
        n = 20
        dense = np.tril(rng.standard_normal((n, n)), k=-1)
        diag = rng.uniform(1.0, 2.0, n)
        strict = CSRMatrix.from_dense(dense)
        factor = TriangularFactor(n, strict.indptr, strict.indices, strict.data,
                                  diag, lower=True)
        B = rng.standard_normal((n, 3))
        expected = scipy_linalg.solve_triangular(dense + np.diag(diag), B, lower=True)
        np.testing.assert_allclose(factor.solve(B), expected, rtol=1e-10, atol=1e-12)

    def test_shape_validation(self):
        strict = CSRMatrix.from_dense(np.zeros((3, 3)))
        factor = TriangularFactor(3, strict.indptr, strict.indices, strict.data,
                                  np.ones(3))
        with pytest.raises(ValueError):
            factor.solve(np.ones((4, 2)))
        with pytest.raises(ValueError):
            factor.solve(np.ones((3, 2, 2)))
        with pytest.raises(ValueError):
            factor.solve(np.ones((1, 3)))  # a (1, n) row is not a vector


class TestPreconditionerBlocks:
    @pytest.mark.parametrize("build", [
        lambda A: JacobiPreconditioner(A),
        lambda A: NeumannPolynomialPreconditioner(A, degree=3),
        lambda A: ILU0Preconditioner(A),
        lambda A: GaussSeidelPreconditioner(A),
        lambda A: SSORPreconditioner(A, omega=1.3),
        lambda A: IdentityPreconditioner(A.shape[0]),
        lambda A: BlockJacobiPreconditioner(A, block_size=7),
    ])
    def test_apply_block_bit_identical_to_columns(self, build):
        A = convection_diffusion_2d(6)
        precond = build(A)
        R = np.random.default_rng(11).standard_normal((A.shape[0], 5))
        Z = precond.apply_block(R)
        assert Z.shape == R.shape
        for j in range(R.shape[1]):
            assert np.array_equal(Z[:, j], precond.apply(R[:, j]))
        # F-ordered blocks behave identically.
        assert np.array_equal(precond.apply_block(np.asfortranarray(R)), Z)

    def test_apply_block_shape_checks(self):
        precond = JacobiPreconditioner(poisson2d(4))
        with pytest.raises(ValueError):
            precond.apply_block(np.ones(precond.n))
        with pytest.raises(ValueError):
            precond.apply_block(np.ones((precond.n + 1, 2)))
