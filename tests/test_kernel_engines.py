"""The one sparse-kernel path: NumPy CSR products, SuperLU triangular solves.

The contract under test:

* the NumPy products agree with :mod:`scipy.sparse`'s compiled products, an
  independent reference: ``matvec``/``matmat`` to ``<= 1e-14`` of each
  row's reduction magnitude, ``rmatvec`` bit for bit (a scatter-add in
  index order);
* :meth:`TriangularFactor.solve` runs SuperLU's ``gstrs`` on operands
  prepared once per factor, and agrees with the row-sequential
  substitution (``_substitute``, the reference) to ``<= 1e-14`` of the
  solve's componentwise error scale, for vectors and ``(n, B)`` blocks;
* factors ``gstrs`` cannot take — a zero or non-finite diagonal entry,
  ``n == 0``, a scipy without the private ``_superlu`` module — solve by
  that substitution, bit for bit, Inf/NaN included;
* an ILU(0) apply is one ``gstrs`` call over both factors, held to the
  chained substitutions by the same contract on their composed error
  scale, and falls back to the two factor solves, bit for bit, when either
  factor cannot take ``gstrs`` or the call reports ``info``;
* scipy is imported when the first factor is built, never by
  ``import repro`` or by a solve that builds no factor;
* ``numpy.random`` is imported by ``ServiceDaemon.serve`` before its
  first fork, never by ``import repro`` or the service modules;
* matrices and factors survive pickling bit for bit, solve path included;
* the products' boundary normalization never copies in a solver hot loop;
* the kernel tiers that once chose between these paths are unknown names
  at every boundary;
* :class:`KernelProfile` timing leaves results bit-identical.

Test ids keep the ``numpy``/``scipy`` names of those tiers: a parameter
names a solve path (:func:`solve_path`), a matrix's origin
(:func:`from_source`) or the reference implementation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.sparse.csr as csr_mod
from repro.gallery.poisson import poisson2d
from repro.precond.ilu import ILU0Preconditioner
from repro.registry import RegistryError, names, resolve
from repro.sparse.csr import CSRMatrix, as_kernel_vector
from repro.sparse.trisolve import TriangularFactor, fused_gstrs
from repro.specs import CampaignSpec, ExecutionSpec, SpecError, apply_overrides

CONTRACT_RTOL = 1e-14

#: The private scipy module whose ``gstrs`` the factors call.
SUPERLU_MODULE = "scipy.sparse.linalg._dsolve._superlu"


def assert_contract(ref: np.ndarray, got: np.ndarray, bound: np.ndarray) -> None:
    """Assert ``|got - ref| <= 1e-14 * bound`` componentwise.

    ``bound`` is the componentwise scale of the kernel's rounding error: for
    a product, the magnitude sum ``|A| @ |x|`` of each row's reduction (see
    :func:`trisolve_bound` for a triangular solve).  Rows that cancel
    catastrophically have ``ref`` near zero while the rounding error scales
    with ``bound``, so the relative contract is stated against that scale,
    not the (possibly vanishing) result.
    """
    err = np.abs(got - ref)
    assert np.all(err <= CONTRACT_RTOL * bound), \
        f"max err {err.max():.3e} exceeds contract"


def trisolve_bound(F: TriangularFactor, x: np.ndarray) -> np.ndarray:
    """``M(T)^-1 |T| |x|``: the componentwise scale of the forward error of a
    triangular solve ``T x = b`` in any summation order.

    ``M(T) = |D| - |strict part|`` is the comparison matrix; a computed
    solution satisfies ``(T + dT) x = b`` with ``|dT| <= gamma_n |T|``, so it
    is within ``gamma_n M(T)^-1 |T| |x|`` of the exact one.  Formed densely
    (the factors here have at most 12 rows) and solved by substitution,
    whose terms are all nonnegative, so the bound is too.
    """
    strict, diag = _comparison_parts(F)
    rhs = diag.reshape((-1,) + (1,) * (x.ndim - 1)) * np.abs(x) + strict @ np.abs(x)
    return comparison_solve(F, rhs)


def _comparison_parts(F: TriangularFactor) -> tuple[np.ndarray, np.ndarray]:
    """``|strict part|`` (dense) and ``|D|`` of a factor's comparison matrix."""
    strict = np.zeros((F.n, F.n))
    strict[np.repeat(np.arange(F.n), np.diff(F.indptr)), F.indices] = np.abs(F.data)
    return strict, np.abs(np.ones(F.n) if F.unit_diagonal else F.diag)


def comparison_solve(F: TriangularFactor, rhs: np.ndarray) -> np.ndarray:
    """``M(T)^-1 rhs`` for a nonnegative ``rhs``: how an error of ``rhs`` in
    the right-hand side of ``T x = b`` can grow in ``x``."""
    strict, diag = _comparison_parts(F)
    out = np.zeros_like(rhs)
    for i in range(F.n) if F.lower else reversed(range(F.n)):
        out[i] = (rhs[i] + strict[i] @ out) / diag[i]
    return out


def solve_path(F: TriangularFactor) -> str:
    """The path a factor solves by: ``"scipy"`` (SuperLU ``gstrs``) or
    ``"numpy"`` (the row-sequential substitution)."""
    return "numpy" if F._gstrs is None else "scipy"


def from_source(A: CSRMatrix, source: str) -> CSRMatrix:
    """``A`` as the NumPy gallery built it (``"numpy"``), or imported from a
    ``scipy.sparse`` matrix, whose int32 index arrays the constructor
    normalizes (``"scipy"``)."""
    return A if source == "numpy" else CSRMatrix.from_scipy(A.to_scipy())


# ----------------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------------

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                          allow_infinity=False)


@st.composite
def csr_matrices(draw, max_dim=12):
    """Random CSR matrices, including empty rows and fully-empty matrices."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    mask = draw(hnp.arrays(np.bool_, (rows, cols), elements=st.booleans()))
    dense = draw(hnp.arrays(np.float64, (rows, cols), elements=finite_floats))
    dense = np.where(mask, dense, 0.0)
    return CSRMatrix.from_dense(dense)


@st.composite
def triangular_factors(draw, max_dim=12):
    """Random well-conditioned lower/upper triangular factors."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    lower = draw(st.booleans())
    unit = draw(st.booleans())
    mask = draw(hnp.arrays(np.bool_, (n, n), elements=st.booleans()))
    dense = draw(hnp.arrays(np.float64, (n, n), elements=finite_floats))
    dense = np.where(mask, dense, 0.0)
    dense = np.tril(dense, k=-1) if lower else np.triu(dense, k=1)
    # Diagonal dominance keeps the substitution well-conditioned, so the
    # comparison measures kernel rounding, not error growth.
    diag = 1.0 + np.abs(dense).sum(axis=1)
    A = CSRMatrix.from_dense(dense + np.diag(diag))
    return TriangularFactor.from_csr(A, part="lower" if lower else "upper",
                                     unit_diagonal=unit)


@st.composite
def ilu_preconditioners(draw, max_dim=12):
    """ILU(0) of random row-diagonally-dominant matrices (zero pivots
    cannot occur, so both factors solve through ``gstrs``)."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    mask = draw(hnp.arrays(np.bool_, (n, n), elements=st.booleans()))
    dense = draw(hnp.arrays(np.float64, (n, n), elements=finite_floats))
    dense = np.where(mask, dense, 0.0)
    np.fill_diagonal(dense, 0.0)
    dense += np.diag(1.0 + np.abs(dense).sum(axis=1))
    return ILU0Preconditioner(CSRMatrix.from_dense(dense))


@pytest.fixture
def small_csr(rng) -> CSRMatrix:
    dense = rng.standard_normal((20, 16))
    dense[np.abs(dense) < 0.8] = 0.0
    dense[3, :] = 0.0  # an empty row
    dense[:, 5] = 0.0  # an empty column
    return CSRMatrix.from_dense(dense)


# ----------------------------------------------------------------------------
# the removed kernel tiers are unknown names at every boundary
# ----------------------------------------------------------------------------

class TestRegistryNamespace:
    def test_missing_tier_raises_registry_error(self):
        """The ``kernels`` namespace is gone: listing it or resolving a tier
        in it raises, naming the namespaces that are left."""
        with pytest.raises(RegistryError, match="namespace 'kernels'"):
            names("kernels")
        with pytest.raises(RegistryError, match="namespace 'kernels'"):
            resolve("kernels", "numba")


class TestSpecIntegration:
    def test_exec_spec_accepts_and_validates(self):
        """ExecutionSpec has five fields; ``kernels`` is rejected from a
        keyword, a dict, a coerced section or an override, naming
        ``exec.kernels``."""
        assert [f.name for f in dataclasses.fields(ExecutionSpec)] == [
            "backend", "workers", "batch_size", "trial_timeout", "max_retries"]
        with pytest.raises(TypeError, match="kernels"):
            ExecutionSpec(kernels="scipy")
        builds = [
            lambda: CampaignSpec.from_dict({"exec": {"kernels": "scipy"}}),
            lambda: CampaignSpec.coerce(CampaignSpec(), exec={"kernels": "numpy"}),
            lambda: apply_overrides(CampaignSpec(), {"exec.kernels": "auto"}),
        ]
        for build in builds:
            with pytest.raises(SpecError) as excinfo:
                build()
            assert excinfo.value.field == "exec.kernels"

    def test_exec_spec_json_round_trip(self):
        """The exec section round-trips through JSON with no ``kernels`` key;
        a stored spec that still names one is rejected."""
        spec = CampaignSpec(exec=ExecutionSpec(backend="sharded", workers=2))
        blob = spec.to_json()
        assert "kernels" not in json.loads(blob)["exec"]
        assert CampaignSpec.from_json(blob) == spec
        stale = json.loads(blob)
        stale["exec"]["kernels"] = "scipy"
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_json(json.dumps(stale))
        assert excinfo.value.field == "exec.kernels"


# ----------------------------------------------------------------------------
# what a matrix or factor carries into a worker process
# ----------------------------------------------------------------------------

class TestEngineAttachment:
    """A pickled matrix keeps its arrays and a pickled factor keeps its solve
    path and prepared operands, so a copy's results equal the original's."""

    @pytest.mark.parametrize("source", ["numpy", "scipy"])
    def test_csr_pickle_round_trip(self, small_csr, source):
        A = from_source(small_csr, source)
        x = np.linspace(-1.0, 1.0, A.shape[1])
        expect = A.matvec(x)
        B = pickle.loads(pickle.dumps(A))
        np.testing.assert_array_equal(B.matvec(x), expect)

    @pytest.mark.parametrize("path", ["numpy", "scipy"])
    def test_factor_pickle_round_trip(self, path, monkeypatch):
        if path == "numpy":
            monkeypatch.setitem(sys.modules, SUPERLU_MODULE, None)
        F = TriangularFactor.from_csr(poisson2d(5), part="lower")
        assert solve_path(F) == path
        b = np.linspace(1.0, 2.0, F.n)
        expect = F.solve(b)
        G = pickle.loads(pickle.dumps(F))
        assert solve_path(G) == path
        np.testing.assert_array_equal(G.solve(b), expect)


# ----------------------------------------------------------------------------
# the NumPy products against scipy.sparse's compiled products
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("reference", ["scipy"])
class TestCrossTierProducts:
    @given(A=csr_matrices())
    @settings(max_examples=40, deadline=None)
    def test_matvec_and_rmatvec(self, reference, A):
        S = A.to_scipy()
        x = np.linspace(-1.0, 1.0, A.shape[1])
        xt = np.linspace(-1.0, 1.0, A.shape[0])
        bound = np.abs(A.todense()) @ np.abs(x)
        assert_contract(S @ x, A.matvec(x), bound)
        np.testing.assert_array_equal(A.rmatvec(xt), S.T @ xt)

    @given(A=csr_matrices(), B=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_matmat(self, reference, A, B):
        S = A.to_scipy()
        X = np.linspace(-1.0, 1.0, A.shape[1] * B).reshape(A.shape[1], B)
        bound = np.abs(A.todense()) @ np.abs(X)
        assert_contract(S @ X, A.matmat(X), bound)

    def test_empty_matrix(self, reference):
        A = CSRMatrix((4, 3), [0, 0, 0, 0, 0], [], [])
        S = A.to_scipy()
        np.testing.assert_array_equal(A.matvec(np.ones(3)), S @ np.ones(3))
        np.testing.assert_array_equal(A.rmatvec(np.ones(4)), S.T @ np.ones(4))
        np.testing.assert_array_equal(A.matmat(np.ones((3, 2))),
                                      S @ np.ones((3, 2)))

    def test_fortran_ordered_block(self, reference, small_csr):
        """The batched engine hands the products Fortran-ordered blocks."""
        X = np.asfortranarray(
            np.linspace(-1.0, 1.0, small_csr.shape[1] * 4).reshape(-1, 4))
        assert not X.flags.c_contiguous
        bound = np.abs(small_csr.todense()) @ np.abs(X)
        assert_contract(small_csr.to_scipy() @ X, small_csr.matmat(X), bound)

    def test_single_column_matmat_matches_matvec(self, reference, small_csr):
        """A B=1 block agrees with the reference matvec to the tolerance."""
        x = np.linspace(-2.0, 2.0, small_csr.shape[1])
        got = small_csr.matmat(x[:, None])[:, 0]
        np.testing.assert_allclose(got, small_csr.to_scipy() @ x,
                                   rtol=CONTRACT_RTOL, atol=0.0)


# ----------------------------------------------------------------------------
# SuperLU gstrs (the ``scipy`` path) against the sequential reference
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("path", ["scipy"])
class TestCrossTierTrisolve:
    @given(F=triangular_factors())
    @settings(max_examples=40, deadline=None)
    def test_vector_solve(self, path, F):
        assert solve_path(F) == path
        b = np.linspace(-1.0, 1.0, F.n)
        ref = F._substitute(b)
        assert_contract(ref, F.solve(b), trisolve_bound(F, ref))

    @given(F=triangular_factors(), B=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_block_solve(self, path, F, B):
        assert solve_path(F) == path
        b = np.linspace(-1.0, 1.0, F.n * B).reshape(F.n, B)
        ref = F._substitute(b)
        got = F.solve(b)
        assert got.shape == b.shape
        assert_contract(ref, got, trisolve_bound(F, ref))

    def test_sequential_fallback_levels(self, path):
        """A dense chain factor — every row depends on the one before, one
        row per dependency level, the case a level schedule can only run
        sequentially — through gstrs."""
        n = 12
        dense = np.tril(np.ones((n, n))) + np.diag(np.arange(2.0, n + 2.0))
        F = TriangularFactor.from_csr(CSRMatrix.from_dense(dense), part="lower")
        assert solve_path(F) == path
        b = np.linspace(1.0, 3.0, n)
        np.testing.assert_allclose(F.solve(b), F._substitute(b),
                                   rtol=CONTRACT_RTOL, atol=1e-15)

    def test_unit_diagonal(self, path):
        F = TriangularFactor.from_csr(poisson2d(5), part="lower", unit_diagonal=True)
        assert solve_path(F) == path
        b = np.linspace(-1.0, 1.0, F.n)
        np.testing.assert_allclose(F.solve(b), F._substitute(b),
                                   rtol=CONTRACT_RTOL, atol=1e-15)

    def test_operands_prepared_once(self, path, monkeypatch):
        """Solves reuse the operands built with the factor: no scipy
        preparation runs per solve, and the input is never written."""
        F = TriangularFactor.from_csr(poisson2d(5), part="upper")
        assert solve_path(F) == path
        prepared = F._gstrs

        def rebuild(self):
            raise AssertionError("gstrs operands rebuilt during a solve")

        monkeypatch.setattr(TriangularFactor, "_prepare_gstrs", rebuild)
        b = np.linspace(1.0, 2.0, F.n)
        keep = b.copy()
        F.solve(b)
        F.solve(np.column_stack([b, 2.0 * b]))
        assert F._gstrs is prepared
        np.testing.assert_array_equal(b, keep)


class TestFusedILUApply:
    """An ILU(0) apply is one ``gstrs`` call over both factors; it agrees
    with the chained substitutions ``U⁻¹ L⁻¹ r`` to the contract, and falls
    back to the chained factor solves, bit for bit, whenever a factor
    cannot take ``gstrs``."""

    @staticmethod
    def chained(m: ILU0Preconditioner, r: np.ndarray):
        """The reference solve and its componentwise error scale: U's own
        rounding plus L's, carried through ``M(U)^-1``."""
        L, U = m.factors
        y = L._substitute(r)
        z = U._substitute(y)
        return z, trisolve_bound(U, z) + comparison_solve(U, trisolve_bound(L, y))

    @given(m=ilu_preconditioners())
    @settings(max_examples=40, deadline=None)
    def test_vector_apply(self, m):
        assert m._fused is not None
        r = np.linspace(-1.0, 1.0, m.n)
        ref, bound = self.chained(m, r)
        assert_contract(ref, m.apply(r), bound)

    @given(m=ilu_preconditioners(), B=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_block_apply(self, m, B):
        R = np.linspace(-1.0, 1.0, m.n * B).reshape(m.n, B)
        ref, bound = self.chained(m, R)
        got = m.apply_block(R)
        assert got.shape == R.shape
        assert_contract(ref, got, bound)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_nonfinite_pivot_chains_the_factor_solves(self, poison):
        A = poisson2d(4)
        data = A.data.copy()
        data[np.flatnonzero((A.row_ids == 5) & (A.indices == 5))] = poison
        m = ILU0Preconditioner(CSRMatrix(A.shape, A.indptr, A.indices, data))
        L, U = m.factors
        assert solve_path(L) == "scipy" and solve_path(U) == "numpy"
        assert m._fused is None
        R = np.linspace(1.0, 2.0, 2 * m.n).reshape(m.n, 2)
        with np.errstate(invalid="ignore", over="ignore"):
            np.testing.assert_array_equal(m.apply(R[:, 0]), U.solve(L.solve(R[:, 0])))
            np.testing.assert_array_equal(m.apply_block(R), U.solve(L.solve(R)))

    def test_zero_pivot_factor_is_not_fused(self):
        """ILU(0) shifts its own zero pivots, so a zero pivot reaches a
        factor only when one is built directly; it substitutes, unfused."""
        L, U = ILU0Preconditioner(poisson2d(3)).factors
        pivots = U.diag.copy()
        pivots[4] = 0.0
        zero = TriangularFactor(U.n, U.indptr, U.indices, U.data, diag=pivots,
                                lower=False, check=False)
        assert solve_path(zero) == "numpy"
        assert fused_gstrs(L, zero) is None
        assert fused_gstrs(L, U) is not None
        with pytest.raises(ValueError, match="unit-lower"):
            fused_gstrs(U, L)

    def test_empty_and_missing_superlu_chain(self, monkeypatch):
        empty = ILU0Preconditioner(CSRMatrix((0, 0), [0], [], []))
        assert empty._fused is None
        assert empty.apply(np.empty(0)).shape == (0,)
        monkeypatch.setitem(sys.modules, SUPERLU_MODULE, None)
        m = ILU0Preconditioner(poisson2d(4))
        assert m._fused is None
        L, U = m.factors
        r = np.linspace(-1.0, 1.0, m.n)
        np.testing.assert_array_equal(m.apply(r), U.solve(L.solve(r)))

    def test_info_chains_the_factor_solves(self):
        """A fused call that reports ``info`` falls back to the chained
        factor solves, which are the parent's apply bit for bit."""
        m = ILU0Preconditioner(poisson2d(4))
        L, U = m.factors
        _, operands, invdiag = m._fused
        m._fused = (lambda trans, *args: (np.zeros(m.n), 1), operands, invdiag)
        r = np.linspace(-1.0, 1.0, m.n)
        np.testing.assert_array_equal(m.apply(r), U.solve(L.solve(r)))

    def test_operands_prepared_once_and_pickled(self, monkeypatch):
        """Applies reuse the fused operands built with the preconditioner,
        never write their input, and a pickled copy applies the same bits."""
        import repro.precond.ilu as ilu_mod

        m = ILU0Preconditioner(poisson2d(5))
        prepared = m._fused
        assert prepared is not None

        def rebuild(*args):
            raise AssertionError("gstrs operands rebuilt during an apply")

        monkeypatch.setattr(TriangularFactor, "_prepare_gstrs", rebuild)
        monkeypatch.setattr(ilu_mod, "fused_gstrs", rebuild)
        r = np.linspace(1.0, 2.0, m.n)
        keep = r.copy()
        z = m.apply(r)
        Z = m.apply_block(np.column_stack([r, 2.0 * r]))
        assert m._fused is prepared
        np.testing.assert_array_equal(r, keep)
        copy = pickle.loads(pickle.dumps(m))
        assert copy._fused is not None
        np.testing.assert_array_equal(copy.apply(r), z)
        np.testing.assert_array_equal(copy.apply_block(np.column_stack([r, 2.0 * r])), Z)


class TestScipyTrisolveFallback:
    """Factors ``gstrs`` cannot take solve by the sequential substitution."""

    def test_zero_diagonal_keeps_reference_semantics(self):
        """A poisoned diagonal falls back to the substitution, so Inf/NaN
        propagation is the reference's, bit for bit."""
        dense = np.array([[2.0, 0.0], [1.0, 0.0]])
        F = TriangularFactor.from_csr(CSRMatrix.from_dense(dense), part="lower")
        assert solve_path(F) == "numpy"
        b = np.array([4.0, 1.0])
        with np.errstate(divide="ignore"):
            ref = F._substitute(b)
            got = F.solve(b)
        assert not np.all(np.isfinite(ref))
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_nonfinite_diagonal(self, poison):
        A = poisson2d(3)
        diag = A.diagonal()
        diag[4] = poison
        F = TriangularFactor.from_csr(A, part="upper", diag=diag)
        assert solve_path(F) == "numpy"
        B = np.linspace(1.0, 2.0, 2 * F.n).reshape(F.n, 2)
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(F.solve(B), F._substitute(B))

    def test_empty_factor(self):
        F = TriangularFactor(0, [0], [], [], np.empty(0))
        assert solve_path(F) == "numpy"
        assert F.solve(np.empty(0)).shape == (0,)

    def test_missing_superlu_module(self, monkeypatch):
        """Without the private ``_superlu`` module every factor substitutes."""
        monkeypatch.setitem(sys.modules, SUPERLU_MODULE, None)
        F = TriangularFactor.from_csr(poisson2d(4), part="lower")
        assert solve_path(F) == "numpy"
        b = np.linspace(-1.0, 1.0, F.n)
        np.testing.assert_array_equal(F.solve(b), F._substitute(b))


# ----------------------------------------------------------------------------
# the import boundary: scipy loads with the first factor, not with the package
# ----------------------------------------------------------------------------

class TestImportBoundary:
    def test_scipy_loads_only_when_a_factor_is_built(self):
        """``import repro`` and an unpreconditioned campaign leave scipy
        unloaded (a forked service job worker would otherwise pay the
        import); an ILU(0)-preconditioned solve imports it."""
        script = textwrap.dedent("""
            import sys
            import repro
            from repro import api

            assert "scipy" not in sys.modules, "import repro"
            api.run_campaign(spec={"problem": "poisson:10", "inner_iterations": 5,
                                   "max_outer": 20, "stride": 20,
                                   "exec": {"backend": "serial"}})
            assert "scipy" not in sys.modules, "unpreconditioned campaign"
            problem = repro.poisson_problem(grid_n=10)
            result = api.solve(problem.A, problem.b,
                               {"method": "gmres", "preconditioner": "ilu0"})
            assert result.converged
            assert "scipy.sparse.linalg" in sys.modules, "ILU(0) solve"
        """)
        _run_isolated(script)

    def test_numpy_random_loads_with_the_daemon_only(self, tmp_path):
        """``import repro``, the service modules and the runner's service
        command lookup leave ``numpy.random`` unloaded (every CLI command
        pays for them); ``ServiceDaemon.serve`` imports it before its first
        scheduler round, so forked job workers inherit it."""
        script = textwrap.dedent(f"""
            import sys
            import threading
            import repro
            from repro.experiments import runner
            from repro.service import ServiceDaemon

            assert "repro.service.server" in sys.modules
            assert runner._service_commands()
            assert "numpy.random" not in sys.modules, "import repro.service"
            daemon = ServiceDaemon({str(tmp_path)!r}, port=0)
            loaded = []
            tick = daemon.scheduler.tick

            def first_tick():
                loaded.append("numpy.random" in sys.modules)
                daemon.request_stop()
                tick()

            daemon.scheduler.tick = first_tick
            thread = threading.Thread(target=daemon.serve, kwargs={{"quiet": True}})
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "the daemon did not stop"
            assert loaded == [True], loaded
        """)
        _run_isolated(script)


def _run_isolated(script: str) -> None:
    """Run ``script`` in a fresh interpreter with this checkout's ``src/``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------------
# boundary normalization: the no-copy regression
# ----------------------------------------------------------------------------

class TestBoundaryNormalization:
    def test_fast_path_returns_same_object(self):
        x = np.linspace(0.0, 1.0, 7)
        assert as_kernel_vector(x) is x

    def test_slow_path_conversions(self):
        np.testing.assert_array_equal(as_kernel_vector([1, 2, 3]),
                                      np.array([1.0, 2.0, 3.0]))
        col = np.ones((4, 1))
        assert as_kernel_vector(col).shape == (4,)
        strided = np.arange(10.0)[::2]
        assert as_kernel_vector(strided).flags.c_contiguous

    def test_matvec_accepts_column_and_list(self, small_csr):
        x = np.linspace(-1.0, 1.0, small_csr.shape[1])
        ref = small_csr.matvec(x)
        np.testing.assert_array_equal(small_csr.matvec(x[:, None]), ref)
        np.testing.assert_array_equal(small_csr.matvec(list(x)), ref)

    def test_dimension_mismatch_message_preserved(self, small_csr):
        with pytest.raises(ValueError, match="dimension mismatch"):
            small_csr.matvec(np.ones(small_csr.shape[1] + 1))

    @pytest.mark.parametrize("source", ["numpy", "scipy"])
    def test_gmres_hot_loop_never_copies(self, source, monkeypatch):
        """The solver hot loop must stay on the no-copy fast path: zero
        trips through the slow-path converter during a whole solve, whether
        the matrix was built here or imported from scipy.sparse."""
        from repro.core.gmres import gmres

        calls = []
        real = csr_mod._convert_vector

        def counting(x):
            calls.append(type(x).__name__)
            return real(x)

        monkeypatch.setattr(csr_mod, "_convert_vector", counting)
        A = from_source(poisson2d(8), source)
        assert A.indices.dtype == np.int64
        b = np.ones(A.shape[0])
        result = gmres(A, b, tol=1e-10, maxiter=120, restart=30)
        assert result.converged
        assert calls == []

    @pytest.mark.parametrize("source", ["numpy", "scipy"])
    def test_preconditioned_hot_loop_never_copies(self, source, monkeypatch):
        from repro.core.gmres import gmres
        from repro.precond.ilu import ILU0Preconditioner

        calls = []
        real = csr_mod._convert_vector
        monkeypatch.setattr(csr_mod, "_convert_vector",
                            lambda x: calls.append(1) or real(x))
        A = from_source(poisson2d(8), source)
        M = ILU0Preconditioner(A)
        b = np.ones(A.shape[0])
        result = gmres(A, b, preconditioner=M, tol=1e-10, maxiter=60)
        assert result.converged
        assert calls == []


# ----------------------------------------------------------------------------
# per-phase timing counters
# ----------------------------------------------------------------------------

class TestKernelProfile:
    def test_profiled_solve_is_bit_identical(self):
        from repro.core.gmres import gmres
        from repro.utils.profile import KernelProfile

        A = poisson2d(6)
        b = np.ones(A.shape[0])
        plain = gmres(A, b, tol=1e-10, maxiter=60)
        prof = KernelProfile()
        timed = gmres(A, b, tol=1e-10, maxiter=60, profile=prof)
        np.testing.assert_array_equal(timed.x, plain.x)
        assert timed.iterations == plain.iterations
        assert timed.residual_norm == plain.residual_norm

    def test_profile_counts_and_summary(self):
        from repro.core.gmres import gmres
        from repro.utils.profile import KernelProfile

        A = poisson2d(6)
        b = np.ones(A.shape[0])
        prof = KernelProfile()
        result = gmres(A, b, tol=1e-10, maxiter=60, profile=prof)
        # The profile times the Arnoldi hot loop: one spmv per iteration.
        # (`matvecs` additionally counts the untimed true-residual
        # computations outside the loop.)
        assert prof.spmv_calls == result.iterations
        assert prof.spmv_calls <= result.matvecs
        assert prof.orth_calls == result.iterations
        assert prof.total_time >= 0.0
        summary = result.summary()
        assert summary["kernel_profile"]["spmv"]["calls"] == prof.spmv_calls
        assert "total_seconds" in summary["kernel_profile"]

    def test_profile_off_leaves_summary_unchanged(self):
        from repro.core.gmres import gmres

        A = poisson2d(5)
        result = gmres(A, np.ones(A.shape[0]), tol=1e-10, maxiter=40)
        assert result.profile is None
        assert "kernel_profile" not in result.summary()

    def test_kernel_profile_event_emitted(self):
        from repro.core.gmres import gmres
        from repro.utils.profile import KernelProfile

        A = poisson2d(5)
        result = gmres(A, np.ones(A.shape[0]), tol=1e-10, maxiter=40,
                       profile=KernelProfile())
        events = [e for e in result.events if e.kind == "kernel_profile"]
        assert len(events) == 1
        assert events[0].data["profile"]["spmv"]["calls"] == result.iterations

    def test_ft_gmres_accumulates_inner_profiles(self):
        from repro.core.ftgmres import ft_gmres
        from repro.utils.profile import KernelProfile

        A = poisson2d(5)
        prof = KernelProfile()
        result = ft_gmres(A, np.ones(A.shape[0]), inner_iterations=5,
                          max_outer=10, profile=prof)
        assert result.profile is prof
        assert prof.spmv_calls > 0
        assert result.summary()["kernel_profile"]["spmv"]["calls"] \
            == prof.spmv_calls

    def test_merge(self):
        from repro.utils.profile import KernelProfile

        a = KernelProfile()
        a.add("spmv", 0.5, calls=3)
        b = KernelProfile()
        b.add("spmv", 0.25, calls=1)
        b.add("lsq", 0.125, calls=2)
        a.merge(b)
        assert a.spmv_calls == 4
        assert a.spmv_time == 0.75
        assert a.lsq_calls == 2
        with pytest.raises(ValueError, match="unknown phase"):
            a.add("fft", 1.0)
