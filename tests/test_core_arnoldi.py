"""Unit tests for the Arnoldi process, its hooks, and its invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arnoldi import ArnoldiContext, arnoldi_process, arnoldi_step
from repro.core.detectors import HessenbergBoundDetector
from repro.core.exceptions import FaultDetectedError
from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault
from repro.faults.schedule import InjectionSchedule
from repro.sparse.linear_operator import aslinearoperator
from repro.sparse.norms import frobenius_norm


class TestArnoldiRelation:
    @pytest.mark.parametrize("orth", ["mgs", "cgs", "cgs2"])
    def test_arnoldi_relation(self, rng, poisson_small, orth):
        """A Q_k = Q_{k+1} H_k must hold for every orthogonalization variant."""
        n = poisson_small.shape[0]
        v0 = rng.standard_normal(n)
        Q, H, breakdown = arnoldi_process(poisson_small, v0, 10, orthogonalization=orth)
        assert not breakdown
        AQ = np.column_stack([poisson_small.matvec(Q[:, j]) for j in range(H.shape[1])])
        np.testing.assert_allclose(AQ, Q @ H, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("orth", ["mgs", "cgs2"])
    def test_orthonormal_basis(self, rng, nonsym_small, orth):
        v0 = rng.standard_normal(nonsym_small.shape[0])
        Q, H, _ = arnoldi_process(nonsym_small, v0, 12, orthogonalization=orth)
        gram = Q.T @ Q
        np.testing.assert_allclose(gram, np.eye(Q.shape[1]), atol=1e-10)

    def test_hessenberg_entries_bounded(self, rng, poisson_medium):
        """The paper's invariant: every |h_ij| <= ||A||_F (Eq. 3)."""
        v0 = rng.standard_normal(poisson_medium.shape[0])
        _, H, _ = arnoldi_process(poisson_medium, v0, 20)
        assert np.abs(H).max() <= frobenius_norm(poisson_medium) + 1e-12

    def test_happy_breakdown_on_invariant_subspace(self):
        """Starting in an eigenvector gives an invariant subspace after 1 step."""
        A = np.diag([1.0, 2.0, 3.0])
        v0 = np.array([1.0, 0.0, 0.0])
        Q, H, breakdown = arnoldi_process(A, v0, 3)
        assert breakdown
        assert H.shape[1] == 1
        assert H[1, 0] == pytest.approx(0.0, abs=1e-14)

    def test_m_capped_at_n(self, rng):
        A = np.eye(4) * 2.0 + np.diag(np.ones(3), 1)
        v0 = rng.standard_normal(4)
        Q, H, _ = arnoldi_process(A, v0, 10)
        assert H.shape[1] <= 4

    def test_zero_start_vector_rejected(self, poisson_small):
        with pytest.raises(ValueError, match="nonzero"):
            arnoldi_process(poisson_small, np.zeros(poisson_small.shape[0]), 3)

    def test_wrong_length_rejected(self, poisson_small):
        with pytest.raises(ValueError, match="length"):
            arnoldi_process(poisson_small, np.ones(3), 3)

    def test_nonpositive_steps_rejected(self, poisson_small, rng):
        with pytest.raises(ValueError):
            arnoldi_process(poisson_small, rng.standard_normal(poisson_small.shape[0]), 0)

    def test_invalid_orthogonalization(self, poisson_small, rng):
        v0 = rng.standard_normal(poisson_small.shape[0])
        with pytest.raises(ValueError, match="orthogonalization"):
            arnoldi_process(poisson_small, v0, 3, orthogonalization="householder")


class TestContext:
    def test_invalid_response_rejected(self):
        with pytest.raises(ValueError):
            ArnoldiContext(detector_response="explode")

    def test_matvec_counter(self, rng, poisson_small):
        ctx = ArnoldiContext()
        v0 = rng.standard_normal(poisson_small.shape[0])
        arnoldi_process(poisson_small, v0, 5, ctx=ctx)
        assert ctx.matvecs == 5


class TestInjectionHooks:
    def _injector(self, site="hessenberg", factor=1e150, **sched_kwargs):
        return FaultInjector(ScalingFault(factor),
                             InjectionSchedule(site=site, **sched_kwargs))

    def test_hessenberg_injection_changes_h(self, rng, poisson_small, count_kind):
        v0 = rng.standard_normal(poisson_small.shape[0])
        injector = self._injector(aggregate_inner_iteration=2, mgs_position="first")
        ctx = ArnoldiContext(injector=injector)
        _, H_faulty, _ = arnoldi_process(poisson_small, v0, 6, ctx=ctx)
        _, H_clean, _ = arnoldi_process(poisson_small, v0, 6)
        assert injector.injections_performed == 1
        assert count_kind(ctx.events, "fault_injected") == 1
        # Columns before the fault are untouched; the targeted entry h_{1,3}
        # (first MGS coefficient of step 2) carries the x1e150 corruption.
        np.testing.assert_allclose(H_faulty[:3, :2], H_clean[:3, :2], rtol=1e-12)
        assert H_faulty[0, 2] == pytest.approx(H_clean[0, 2] * 1e150, rel=1e-12)

    def test_single_transient_fault_fires_once(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        injector = self._injector(mgs_position="first")  # matches every iteration
        ctx = ArnoldiContext(injector=injector)
        arnoldi_process(poisson_small, v0, 8, ctx=ctx)
        assert injector.injections_performed == 1

    def test_spmv_injection(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        injector = FaultInjector(ScalingFault(1e10),
                                 InjectionSchedule(site="spmv", aggregate_inner_iteration=1,
                                                   mgs_position=None),
                                 vector_index=3)
        ctx = ArnoldiContext(injector=injector)
        arnoldi_process(poisson_small, v0, 4, ctx=ctx)
        assert injector.injections_performed == 1
        assert injector.records[0].site == "spmv"
        assert injector.records[0].vector_index == 3

    def test_subdiag_injection(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        injector = FaultInjector(ScalingFault(1e-300),
                                 InjectionSchedule(site="subdiag", aggregate_inner_iteration=2,
                                                   mgs_position=None))
        ctx = ArnoldiContext(injector=injector)
        _, H, _ = arnoldi_process(poisson_small, v0, 5, ctx=ctx)
        assert injector.injections_performed == 1
        # The corrupted subdiagonal entry is (3, 2) in 0-based indexing.
        assert abs(H[3, 2]) < 1e-200


class TestDetectionHooks:
    def test_large_fault_detected_and_zeroed(self, rng, poisson_small, count_kind):
        v0 = rng.standard_normal(poisson_small.shape[0])
        bound = frobenius_norm(poisson_small)
        injector = FaultInjector(ScalingFault(1e150),
                                 InjectionSchedule(aggregate_inner_iteration=1,
                                                   mgs_position="first"))
        detector = HessenbergBoundDetector(bound)
        ctx = ArnoldiContext(injector=injector, detector=detector, detector_response="zero")
        _, H, _ = arnoldi_process(poisson_small, v0, 5, ctx=ctx)
        assert count_kind(ctx.events, "fault_detected") == 1
        assert abs(H[0, 1]) == 0.0  # filtered to zero

    def test_small_fault_not_detected(self, rng, poisson_small, count_kind):
        v0 = rng.standard_normal(poisson_small.shape[0])
        bound = frobenius_norm(poisson_small)
        injector = FaultInjector(ScalingFault(10 ** -0.5),
                                 InjectionSchedule(aggregate_inner_iteration=1,
                                                   mgs_position="first"))
        detector = HessenbergBoundDetector(bound)
        ctx = ArnoldiContext(injector=injector, detector=detector, detector_response="zero")
        arnoldi_process(poisson_small, v0, 5, ctx=ctx)
        assert count_kind(ctx.events, "fault_detected") == 0
        assert injector.injections_performed == 1

    def test_recompute_response_restores_value(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        bound = frobenius_norm(poisson_small)
        injector = FaultInjector(ScalingFault(1e150),
                                 InjectionSchedule(aggregate_inner_iteration=0,
                                                   mgs_position="first"))
        detector = HessenbergBoundDetector(bound)
        ctx = ArnoldiContext(injector=injector, detector=detector, detector_response="recompute")
        _, H_protected, _ = arnoldi_process(poisson_small, v0, 5, ctx=ctx)
        _, H_clean, _ = arnoldi_process(poisson_small, v0, 5)
        np.testing.assert_allclose(H_protected, H_clean, rtol=1e-12, atol=1e-12)

    def test_raise_response(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        bound = frobenius_norm(poisson_small)
        injector = FaultInjector(ScalingFault(1e150),
                                 InjectionSchedule(aggregate_inner_iteration=0,
                                                   mgs_position="first"))
        detector = HessenbergBoundDetector(bound)
        ctx = ArnoldiContext(injector=injector, detector=detector, detector_response="raise")
        with pytest.raises(FaultDetectedError):
            arnoldi_process(poisson_small, v0, 5, ctx=ctx)

    def test_clamp_response_bounds_value(self, rng, poisson_small):
        v0 = rng.standard_normal(poisson_small.shape[0])
        bound = frobenius_norm(poisson_small)
        injector = FaultInjector(ScalingFault(1e150),
                                 InjectionSchedule(aggregate_inner_iteration=0,
                                                   mgs_position="first"))
        detector = HessenbergBoundDetector(bound)
        ctx = ArnoldiContext(injector=injector, detector=detector, detector_response="clamp")
        _, H, _ = arnoldi_process(poisson_small, v0, 5, ctx=ctx)
        assert np.abs(H).max() <= bound * (1 + 1e-12)

    def test_no_false_positives_without_faults(self, rng, poisson_medium, count_kind):
        """The bound detector never fires on a clean Arnoldi run (Eq. 3)."""
        v0 = rng.standard_normal(poisson_medium.shape[0])
        detector = HessenbergBoundDetector(frobenius_norm(poisson_medium))
        ctx = ArnoldiContext(detector=detector, detector_response="raise")
        arnoldi_process(poisson_medium, v0, 25, ctx=ctx)  # must not raise
        assert count_kind(ctx.events, "fault_detected") == 0


class TestArnoldiStepEdgeCases:
    def test_nonfinite_subdiag_returns_nan_basis(self, rng, poisson_small):
        op = aslinearoperator(poisson_small)
        n = op.shape[0]
        basis = np.zeros((n, 3))
        v0 = rng.standard_normal(n)
        basis[:, 0] = v0 / np.linalg.norm(v0)
        injector = FaultInjector(ScalingFault(np.inf),
                                 InjectionSchedule(site="subdiag", mgs_position=None))
        ctx = ArnoldiContext(injector=injector)
        h_col, q_next, breakdown = arnoldi_step(op, basis, 0, ctx)
        assert not breakdown
        assert q_next is not None
        assert not np.all(np.isfinite(q_next))


class TestNoHookFastPath:
    """The zero-overhead branch must be bit-identical to the hooked branch.

    ``arnoldi_step`` skips the injection/detection plumbing entirely on a
    step no injector can fire on and no detector flags; these tests pin
    down that the fast branch performs the exact same floating-point
    operations as the hooked branch, forced here with an injector that
    never fires and has no ``armed`` method (so every step is consulted).
    """

    @pytest.mark.parametrize("orth", ["mgs", "cgs", "cgs2"])
    def test_bit_identical_to_null_context(self, rng, poisson_medium, orth, always_armed):
        n = poisson_medium.shape[0]
        v0 = rng.standard_normal(n)
        fast_ctx = ArnoldiContext()  # injector=None, detector=None -> fast path
        reference = always_armed()
        hooked_ctx = ArnoldiContext(injector=reference)  # forces hooked path
        Q_fast, H_fast, bd_fast = arnoldi_process(
            poisson_medium, v0, 15, orthogonalization=orth, ctx=fast_ctx)
        Q_hook, H_hook, bd_hook = arnoldi_process(
            poisson_medium, v0, 15, orthogonalization=orth, ctx=hooked_ctx)
        assert reference.consults > 0
        assert bd_fast == bd_hook
        assert np.array_equal(H_fast, H_hook), "h_col values must match bit-for-bit"
        assert np.array_equal(Q_fast, Q_hook), "q_next values must match bit-for-bit"

    def test_single_step_h_col_and_q_next(self, rng, poisson_small, always_armed):
        op = aslinearoperator(poisson_small)
        n = op.shape[0]
        v0 = rng.standard_normal(n)
        q0 = v0 / np.linalg.norm(v0)
        basis_fast = np.zeros((n, 3), order="F")
        basis_hook = np.zeros((n, 3), order="F")
        basis_fast[:, 0] = basis_hook[:, 0] = q0
        h_fast, q_fast, _ = arnoldi_step(op, basis_fast, 0, ArnoldiContext())
        h_hook, q_hook, _ = arnoldi_step(op, basis_hook, 0,
                                         ArnoldiContext(injector=always_armed()))
        assert np.array_equal(h_fast, h_hook)
        assert np.array_equal(q_fast, q_hook)

    def test_gmres_identical_with_and_without_hooks(self, poisson_problem_tiny, always_armed):
        """End-to-end: the whole solve is unchanged by the fast path."""
        from repro.core.gmres import gmres

        p = poisson_problem_tiny
        reference = always_armed()
        fast = gmres(p.A, p.b, tol=1e-10, maxiter=80)
        hooked = gmres(p.A, p.b, tol=1e-10, maxiter=80, injector=reference)
        assert reference.consults > 0
        assert fast.iterations == hooked.iterations
        assert fast.residual_norm == hooked.residual_norm
        assert np.array_equal(fast.x, hooked.x)

    def test_null_injector_is_never_armed(self, poisson_problem_tiny):
        """An idle injector costs nothing: one never armed is consulted nowhere."""
        from repro.core.gmres import gmres

        class CountingNull:
            consults = 0

            def armed(self, **context):
                return False

            def corrupt_scalar(self, site, value, **context):
                self.consults += 1
                return value

            def corrupt_vector(self, site, vec, **context):
                self.consults += 1
                return vec

        p = poisson_problem_tiny
        idle = CountingNull()
        fast = gmres(p.A, p.b, tol=1e-10, maxiter=80)
        with_idle = gmres(p.A, p.b, tol=1e-10, maxiter=80, injector=idle)
        assert idle.consults == 0
        assert np.array_equal(fast.x, with_idle.x)

    def test_fast_path_skips_event_plumbing(self, rng, poisson_small):
        """No events, no matvec miscounts on the fast path."""
        ctx = ArnoldiContext()
        v0 = rng.standard_normal(poisson_small.shape[0])
        arnoldi_process(poisson_small, v0, 5, ctx=ctx)
        assert ctx.matvecs == 5
        assert len(ctx.events) == 0
