"""Cross-tier equivalence suite for the pluggable sparse kernel engines.

The contract under test (see :mod:`repro.sparse.kernels`):

* the ``numpy`` tier is the bit-exact reference and the default;
* ``rmatvec``/``rmatmat`` are bit-identical across tiers (scatter-add in
  index order, same as ``np.add.at``);
* ``matvec``/``matmat``/``trisolve`` on compiled tiers agree with the
  reference to ``<= 1e-14`` relative;
* campaign runs are trial-identical across tiers: statuses and iteration
  counts match exactly, residual norms to 1e-6 relative (restarted
  iteration amplifies the per-kernel rounding differences).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.sparse.kernels as kernels_mod
from repro.gallery.poisson import poisson2d
from repro.gallery.problems import poisson_problem
from repro.registry import RegistryError, names, resolve_kernels
from repro.sparse.csr import CSRMatrix
from repro.sparse.kernels import (
    KERNEL_CHOICES,
    KERNEL_TIERS,
    KernelEngine,
    NumpyEngine,
    as_kernel_vector,
    available_kernels,
    default_kernels,
    effective_kernels,
    get_engine,
    have_scipy,
    resolve_engine,
)
from repro.sparse.trisolve import TriangularFactor
from repro.specs import CampaignSpec, ExecutionSpec, SpecError

needs_scipy = pytest.mark.skipif(not have_scipy(), reason="scipy not installed")

#: The compiled tiers present in this environment (empty → tests skip).
COMPILED_TIERS = [t for t in ("scipy",) if t in available_kernels()]

#: Bit-identical kernels across every tier.
EXACT_KERNELS = ("rmatvec", "rmatmat")
#: Kernels allowed the stated relative tolerance on compiled tiers.
TOL_KERNELS = ("matvec", "matmat")
CONTRACT_RTOL = 1e-14


def assert_contract(kind: str, ref: np.ndarray, got: np.ndarray,
                    bound: np.ndarray | None = None) -> None:
    """Assert one kernel's half of the equivalence contract.

    ``bound`` is the componentwise scale of the kernel's rounding error: for
    a product, the magnitude sum ``|A| @ |x|`` of each row's reduction (see
    :func:`trisolve_bound` for a triangular solve).  Rows that cancel
    catastrophically have ``ref`` near zero while the reduction error scales
    with ``bound``, so the relative contract is stated against the reduction
    magnitude, not the (possibly vanishing) result.
    """
    if kind in EXACT_KERNELS:
        np.testing.assert_array_equal(got, ref)
    elif bound is not None:
        err = np.abs(got - ref)
        assert np.all(err <= CONTRACT_RTOL * bound), \
            f"{kind}: max err {err.max():.3e} exceeds contract"
    else:
        np.testing.assert_allclose(got, ref, rtol=CONTRACT_RTOL, atol=0.0)


def trisolve_bound(F: TriangularFactor, x: np.ndarray) -> np.ndarray:
    """``M(T)^-1 |T| |x|``: the componentwise scale of the forward error of a
    triangular solve ``T x = b`` in any summation order.

    ``M(T) = |D| - |strict part|`` is the comparison matrix; a computed
    solution satisfies ``(T + dT) x = b`` with ``|dT| <= gamma_n |T|``, so it
    is within ``gamma_n M(T)^-1 |T| |x|`` of the exact one.  Formed densely
    (the factors here have at most 12 rows) and solved by substitution,
    whose terms are all nonnegative, so the bound is too.
    """
    strict = np.zeros((F.n, F.n))
    strict[np.repeat(np.arange(F.n), np.diff(F.indptr)), F.indices] = np.abs(F.data)
    diag = np.abs(np.ones(F.n) if F.unit_diagonal else F.diag)
    rhs = diag.reshape((-1,) + (1,) * (x.ndim - 1)) * np.abs(x) + strict @ np.abs(x)
    bound = np.zeros_like(rhs)
    for i in range(F.n) if F.lower else reversed(range(F.n)):
        bound[i] = (rhs[i] + strict[i] @ bound) / diag[i]
    return bound


# ----------------------------------------------------------------------------
# strategies: CSR matrices with empty rows, duplicates-free sorted layout
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
    # cross-tier comparison measures kernel rounding, not error growth.
    diag = 1.0 + np.abs(dense).sum(axis=1)
    A = CSRMatrix.from_dense(dense + np.diag(diag))
    return TriangularFactor.from_csr(A, part="lower" if lower else "upper",
                                     unit_diagonal=unit)


@pytest.fixture
def small_csr(rng) -> CSRMatrix:
    dense = rng.standard_normal((20, 16))
    dense[np.abs(dense) < 0.8] = 0.0
    dense[3, :] = 0.0  # an empty row
    dense[:, 5] = 0.0  # an empty column
    return CSRMatrix.from_dense(dense)


# ----------------------------------------------------------------------------
# tier discovery, selection and registry surface
# ----------------------------------------------------------------------------

class TestTierSelection:
    def test_numpy_is_default(self, monkeypatch):
        monkeypatch.delenv(kernels_mod.KERNELS_ENV_VAR, raising=False)
        assert default_kernels() == "numpy"
        assert effective_kernels() == "numpy"
        assert CSRMatrix.identity(3).engine_name == "numpy"

    def test_available_starts_with_reference(self):
        tiers = available_kernels()
        assert tiers[0] == "numpy"
        assert set(tiers) <= set(KERNEL_TIERS)

    @needs_scipy
    def test_scipy_available_here(self):
        assert "scipy" in available_kernels()

    def test_get_engine_rejects_auto_and_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            get_engine("auto")
        with pytest.raises(ValueError, match="unknown kernel tier"):
            get_engine("fortran")

    def test_get_engine_singletons(self):
        assert get_engine("numpy") is get_engine("numpy")
        assert isinstance(get_engine("numpy"), NumpyEngine)

    @needs_scipy
    def test_auto_resolves_to_best_available(self):
        assert resolve_engine("auto").name == "scipy"
        assert effective_kernels("auto") == "scipy"

    def test_resolve_engine_passthrough_and_errors(self):
        eng = get_engine("numpy")
        assert resolve_engine(eng) is eng
        with pytest.raises(TypeError, match="tier name"):
            resolve_engine(3.14)

    def test_effective_kernels_precedence(self, monkeypatch):
        # spec < REPRO_KERNELS < explicit flag, "numpy" when all unset.
        monkeypatch.delenv(kernels_mod.KERNELS_ENV_VAR, raising=False)
        assert effective_kernels(None) == "numpy"
        assert effective_kernels("numpy") == "numpy"
        monkeypatch.setenv(kernels_mod.KERNELS_ENV_VAR, "numpy")
        assert effective_kernels("auto") == "numpy"
        if have_scipy():
            monkeypatch.setenv(kernels_mod.KERNELS_ENV_VAR, "scipy")
            assert effective_kernels("numpy") == "scipy"
            assert effective_kernels("scipy", flag="numpy") == "numpy"
        monkeypatch.delenv(kernels_mod.KERNELS_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="unknown kernel tier"):
            effective_kernels("cuda")


class TestRegistryNamespace:
    def test_tiers_registered(self):
        assert set(names("kernels")) == set(KERNEL_CHOICES) == {"numpy", "scipy", "auto"}

    def test_resolve_kernels_returns_engine(self):
        eng = resolve_kernels("numpy")
        assert isinstance(eng, KernelEngine)
        assert eng.name == "numpy"

    @needs_scipy
    def test_resolve_kernels_scipy(self):
        assert resolve_kernels("scipy").name == "scipy"

    def test_resolve_kernels_passthrough_and_default(self, monkeypatch):
        eng = get_engine("numpy")
        assert resolve_kernels(eng) is eng
        monkeypatch.delenv(kernels_mod.KERNELS_ENV_VAR, raising=False)
        assert resolve_kernels(None).name == "numpy"

    def test_missing_tier_raises_registry_error(self):
        """The deleted numba tier is an unknown name at every boundary."""
        with pytest.raises(RegistryError, match="numba"):
            resolve_kernels("numba")
        with pytest.raises(ValueError, match="unknown kernel tier"):
            effective_kernels(flag="numba")
        with pytest.raises(SpecError, match="kernels"):
            ExecutionSpec(kernels="numba")


class TestSpecIntegration:
    def test_exec_spec_accepts_and_validates(self):
        assert ExecutionSpec().kernels is None
        assert ExecutionSpec(kernels="scipy").kernels == "scipy"
        with pytest.raises(ValueError, match="kernels"):
            ExecutionSpec(kernels="cython")

    def test_exec_spec_json_round_trip(self):
        spec = CampaignSpec(exec=ExecutionSpec(kernels="scipy"))
        blob = spec.to_json()
        assert json.loads(blob)["exec"]["kernels"] == "scipy"
        assert CampaignSpec.from_json(blob).exec.kernels == "scipy"

    def test_kernels_excluded_from_fingerprint(self):
        from repro.results.store import campaign_fingerprint

        a = CampaignSpec(exec=ExecutionSpec(kernels="scipy"))
        b = CampaignSpec(exec=ExecutionSpec(kernels=None))
        assert campaign_fingerprint(a, "poisson") == campaign_fingerprint(b, "poisson")


# ----------------------------------------------------------------------------
# engine attachment: construction, with_engine, pickling, zero-copy views
# ----------------------------------------------------------------------------

class TestEngineAttachment:
    def test_with_engine_same_is_identity(self, small_csr):
        # (small_csr carries the ambient default tier, whatever it is.)
        assert small_csr.with_engine(small_csr.engine_name) is small_csr

    @needs_scipy
    def test_with_engine_shares_arrays(self, small_csr):
        base = small_csr.with_engine("numpy")
        other = base.with_engine("scipy")
        assert other is not base
        assert other.engine_name == "scipy"
        assert base.engine_name == "numpy"
        for attr in ("indptr", "indices", "data"):
            assert np.shares_memory(getattr(other, attr), getattr(base, attr))

    @needs_scipy
    def test_scipy_view_is_zero_copy(self, small_csr):
        A = small_csr.with_engine("scipy")
        A.matvec(np.ones(A.shape[1]))  # builds and caches the view
        view, _ = A._kernel_cache["scipy"]
        assert np.shares_memory(view.data, A.data)
        assert np.shares_memory(view.indices, A.indices)
        assert np.shares_memory(view.indptr, A.indptr)

    @pytest.mark.parametrize("tier", ["numpy"] + COMPILED_TIERS)
    def test_csr_pickle_round_trip(self, small_csr, tier):
        A = small_csr.with_engine(tier)
        x = np.linspace(-1.0, 1.0, A.shape[1])
        expect = A.matvec(x)
        B = pickle.loads(pickle.dumps(A))
        assert B.engine_name == tier
        np.testing.assert_array_equal(B.matvec(x), expect)

    @pytest.mark.parametrize("tier", ["numpy"] + COMPILED_TIERS)
    def test_factor_pickle_round_trip(self, tier):
        F = TriangularFactor.from_csr(poisson2d(5), part="lower",
                                      engine=tier)
        b = np.linspace(1.0, 2.0, F.n)
        expect = F.solve(b)
        G = pickle.loads(pickle.dumps(F))
        assert G.engine_name == tier
        np.testing.assert_array_equal(G.solve(b), expect)

    def test_factor_inherits_matrix_engine(self):
        for tier in ["numpy"] + COMPILED_TIERS:
            A = poisson2d(4).with_engine(tier)
            F = TriangularFactor.from_csr(A, part="lower")
            assert F.engine_name == tier

    @needs_scipy
    def test_ilu_factors_inherit_engine(self):
        from repro.precond.ilu import ILU0Preconditioner

        M = ILU0Preconditioner(poisson2d(5).with_engine("scipy"))
        L, U = M.factors
        assert L.engine_name == "scipy"
        assert U.engine_name == "scipy"


# ----------------------------------------------------------------------------
# cross-tier kernel equivalence (hypothesis + directed edge cases)
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("tier", COMPILED_TIERS)
class TestCrossTierProducts:
    @given(A=csr_matrices())
    @settings(max_examples=40, deadline=None)
    def test_matvec_and_rmatvec(self, tier, A):
        eng = get_engine(tier)
        x = np.linspace(-1.0, 1.0, A.shape[1])
        xt = np.linspace(-1.0, 1.0, A.shape[0])
        bound = np.abs(A.todense()) @ np.abs(x)
        assert_contract("matvec", A.matvec(x), eng.matvec(A, x), bound)
        assert_contract("rmatvec", A.rmatvec(xt), eng.rmatvec(A, xt))

    @given(A=csr_matrices(), B=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_matmat_and_rmatmat(self, tier, A, B):
        eng = get_engine(tier)
        X = np.linspace(-1.0, 1.0, A.shape[1] * B).reshape(A.shape[1], B)
        Xt = np.linspace(-1.0, 1.0, A.shape[0] * B).reshape(A.shape[0], B)
        bound = np.abs(A.todense()) @ np.abs(X)
        assert_contract("matmat", A.matmat(X), eng.matmat(A, X), bound)
        assert_contract("rmatmat", A.rmatmat(Xt), eng.rmatmat(A, Xt))

    def test_empty_matrix(self, tier):
        A = CSRMatrix((4, 3), [0, 0, 0, 0, 0], [], [])
        eng = get_engine(tier)
        np.testing.assert_array_equal(eng.matvec(A, np.ones(3)), np.zeros(4))
        np.testing.assert_array_equal(eng.rmatvec(A, np.ones(4)), np.zeros(3))
        np.testing.assert_array_equal(eng.matmat(A, np.ones((3, 2))),
                                      np.zeros((4, 2)))

    def test_fortran_ordered_block(self, tier, small_csr):
        """The batched engine hands kernels Fortran-ordered blocks."""
        eng = get_engine(tier)
        X = np.asfortranarray(
            np.linspace(-1.0, 1.0, small_csr.shape[1] * 4).reshape(-1, 4))
        assert not X.flags.c_contiguous
        bound = np.abs(small_csr.todense()) @ np.abs(X)
        assert_contract("matmat", small_csr.matmat(X),
                        eng.matmat(small_csr, X), bound)

    def test_single_column_matmat_matches_matvec(self, tier, small_csr):
        """A B=1 block must agree with matvec up to the stated tolerance."""
        eng = get_engine(tier)
        x = np.linspace(-2.0, 2.0, small_csr.shape[1])
        ref = small_csr.matvec(x)
        got = eng.matmat(small_csr, x[:, None])[:, 0]
        np.testing.assert_allclose(got, ref, rtol=CONTRACT_RTOL, atol=0.0)


@pytest.mark.parametrize("tier", COMPILED_TIERS)
class TestCrossTierTrisolve:
    @given(F=triangular_factors())
    @settings(max_examples=40, deadline=None)
    def test_vector_solve(self, tier, F):
        eng = get_engine(tier)
        b = np.linspace(-1.0, 1.0, F.n)
        ref = F.solve(b, mode="level")
        got = eng.trisolve(F, b)
        assert_contract("trisolve", ref, got, bound=trisolve_bound(F, ref))

    @given(F=triangular_factors(), B=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_block_solve(self, tier, F, B):
        eng = get_engine(tier)
        b = np.linspace(-1.0, 1.0, F.n * B).reshape(F.n, B)
        ref = F.solve(b, mode="level")
        got = eng.trisolve(F, b)
        assert_contract("trisolve", ref, got, bound=trisolve_bound(F, ref))

    def test_sequential_fallback_levels(self, tier):
        """A dense chain factor (one row per level) hits the sequential
        reference path on the numpy tier; compiled tiers must still agree."""
        n = 12
        dense = np.tril(np.ones((n, n))) + np.diag(np.arange(2.0, n + 2.0))
        F = TriangularFactor.from_csr(CSRMatrix.from_dense(dense),
                                      part="lower")
        assert F.mode == "sequential"
        b = np.linspace(1.0, 3.0, n)
        ref = F.solve(b, mode="sequential")
        np.testing.assert_allclose(get_engine(tier).trisolve(F, b),
                                   ref, rtol=CONTRACT_RTOL, atol=1e-15)

    def test_unit_diagonal(self, tier):
        A = poisson2d(5)
        F = TriangularFactor.from_csr(A, part="lower", unit_diagonal=True)
        b = np.linspace(-1.0, 1.0, F.n)
        np.testing.assert_allclose(get_engine(tier).trisolve(F, b),
                                   F.solve(b, mode="level"),
                                   rtol=CONTRACT_RTOL, atol=1e-15)


@needs_scipy
class TestScipyTrisolveFallback:
    def test_zero_diagonal_keeps_reference_semantics(self):
        """A poisoned diagonal must fall back to the numpy path so Inf/NaN
        propagation matches the reference bit for bit."""
        dense = np.array([[2.0, 0.0], [1.0, 0.0]])
        F = TriangularFactor.from_csr(CSRMatrix.from_dense(dense),
                                      part="lower", engine="scipy")
        b = np.array([4.0, 1.0])
        with np.errstate(divide="ignore"):
            ref = F.solve(b, mode="level")
            got = F.solve(b)
        assert not np.all(np.isfinite(ref))
        np.testing.assert_array_equal(got, ref)

    def test_empty_factor(self):
        F = TriangularFactor(0, [0], [], [], np.empty(0), engine="scipy")
        assert F.solve(np.empty(0)).shape == (0,)


# ----------------------------------------------------------------------------
# boundary normalization: the no-copy regression (satellite 6)
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

    @pytest.mark.parametrize("tier", ["numpy"] + COMPILED_TIERS)
    def test_gmres_hot_loop_never_copies(self, tier, monkeypatch):
        """The solver hot loop must stay on the no-copy fast path: zero
        trips through the slow-path converter during a whole solve."""
        from repro.core.gmres import gmres

        calls = []
        real = kernels_mod._convert_vector

        def counting(x):
            calls.append(type(x).__name__)
            return real(x)

        monkeypatch.setattr(kernels_mod, "_convert_vector", counting)
        A = poisson2d(8).with_engine(tier)
        b = np.ones(A.shape[0])
        result = gmres(A, b, tol=1e-10, maxiter=120, restart=30)
        assert result.converged
        assert calls == []

    @pytest.mark.parametrize("tier", ["numpy"] + COMPILED_TIERS)
    def test_preconditioned_hot_loop_never_copies(self, tier, monkeypatch):
        from repro.core.gmres import gmres
        from repro.precond.ilu import ILU0Preconditioner

        calls = []
        real = kernels_mod._convert_vector
        monkeypatch.setattr(kernels_mod, "_convert_vector",
                            lambda x: calls.append(1) or real(x))
        A = poisson2d(8).with_engine(tier)
        M = ILU0Preconditioner(A)
        b = np.ones(A.shape[0])
        result = gmres(A, b, preconditioner=M, tol=1e-10, maxiter=60)
        assert result.converged
        assert calls == []


# ----------------------------------------------------------------------------
# end-to-end: solves and campaigns are trial-identical per the contract
# ----------------------------------------------------------------------------

class TestEndToEnd:
    @pytest.mark.parametrize("tier", COMPILED_TIERS)
    def test_gmres_matches_reference_tier(self, tier):
        from repro.core.gmres import gmres

        b = np.ones(poisson2d(8).shape[0])
        ref = gmres(poisson2d(8), b, tol=1e-10, maxiter=120, restart=30)
        got = gmres(poisson2d(8).with_engine(tier), b, tol=1e-10,
                    maxiter=120, restart=30)
        assert got.status == ref.status
        assert got.iterations == ref.iterations
        np.testing.assert_allclose(got.x, ref.x, rtol=1e-8)

    @needs_scipy
    def test_campaign_trial_identity_across_tiers(self, poisson_problem_tiny):
        """Statuses and iteration counts match exactly across tiers;
        residual norms to 1e-6 relative (the restarted iteration amplifies
        the 1e-16 per-kernel differences; measured worst case ~7e-8)."""
        from repro import api

        spec = CampaignSpec(inner_iterations=5, max_outer=20, stride=10)
        spec_sp = spec.replace(exec=ExecutionSpec(kernels="scipy"))
        r_np = api.run_campaign(poisson_problem_tiny, spec)
        r_sp = api.run_campaign(poisson_problem_tiny, spec_sp)
        assert len(r_np.trials) == len(r_sp.trials)
        for a, b in zip(r_np.trials, r_sp.trials):
            assert a.fault_class == b.fault_class
            assert a.status == b.status
            assert a.outer_iterations == b.outer_iterations
            assert a.residual_norm == pytest.approx(b.residual_norm,
                                                    rel=1e-6)

    def test_numpy_tier_campaign_bit_identical_to_default(
            self, poisson_problem_tiny, monkeypatch):
        """Explicitly selecting "numpy" is indistinguishable from the
        engine-less default — same trials, bit for bit."""
        from repro import api

        monkeypatch.delenv(kernels_mod.KERNELS_ENV_VAR, raising=False)
        spec = CampaignSpec(inner_iterations=5, max_outer=10, stride=25)
        r_default = api.run_campaign(poisson_problem_tiny, spec)
        r_numpy = api.run_campaign(
            poisson_problem_tiny,
            spec.replace(exec=ExecutionSpec(kernels="numpy")))
        for a, b in zip(r_default.trials, r_numpy.trials):
            assert a.status == b.status
            assert a.residual_norm == b.residual_norm
            assert a.outer_iterations == b.outer_iterations


# ----------------------------------------------------------------------------
# per-phase timing counters (satellite: kernel profiling)
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
