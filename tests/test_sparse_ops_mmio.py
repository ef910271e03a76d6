"""Unit tests for Matrix-Market I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix
from repro.sparse.mmio import read_matrix_market, write_matrix_market


class TestMatrixMarket:
    def test_roundtrip_general(self, tmp_path, rng):
        dense = rng.standard_normal((8, 6))
        dense[np.abs(dense) < 0.6] = 0.0
        m = CSRMatrix.from_dense(dense)
        path = tmp_path / "matrix.mtx"
        write_matrix_market(path, m, comment="round trip test")
        back = read_matrix_market(path)
        assert back.shape == m.shape
        np.testing.assert_allclose(back.todense(), dense, rtol=1e-15)

    def test_roundtrip_gzip(self, tmp_path, poisson_small):
        path = tmp_path / "matrix.mtx.gz"
        write_matrix_market(path, poisson_small)
        back = read_matrix_market(path)
        np.testing.assert_allclose(back.todense(), poisson_small.todense())

    def test_symmetric_storage(self, tmp_path):
        text = """%%MatrixMarket matrix coordinate real symmetric
% lower triangle only
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 2.0
"""
        path = tmp_path / "sym.mtx"
        path.write_text(text)
        m = read_matrix_market(path)
        dense = m.todense()
        assert dense[0, 1] == dense[1, 0] == -1.0
        assert dense[2, 2] == 2.0

    def test_skew_symmetric_storage(self, tmp_path):
        text = """%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
"""
        path = tmp_path / "skew.mtx"
        path.write_text(text)
        dense = read_matrix_market(path).todense()
        assert dense[1, 0] == 3.0
        assert dense[0, 1] == -3.0

    def test_pattern_field(self, tmp_path):
        text = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
"""
        path = tmp_path / "pattern.mtx"
        path.write_text(text)
        dense = read_matrix_market(path).todense()
        np.testing.assert_allclose(dense, np.eye(2))

    def test_array_format(self, tmp_path):
        text = """%%MatrixMarket matrix array real general
2 2
1.0
2.0
3.0
4.0
"""
        path = tmp_path / "array.mtx"
        path.write_text(text)
        dense = read_matrix_market(path).todense()
        np.testing.assert_allclose(dense, [[1.0, 3.0], [2.0, 4.0]])

    def test_rejects_non_mm_file(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("this is not a matrix\n1 2 3\n")
        with pytest.raises(ValueError, match="banner"):
            read_matrix_market(path)

    def test_rejects_complex(self, tmp_path):
        path = tmp_path / "complex.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n")
        with pytest.raises(ValueError, match="complex"):
            read_matrix_market(path)
