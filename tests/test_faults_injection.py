"""Unit tests for injection schedules and the injector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault, ZeroFault
from repro.faults.schedule import InjectionSchedule, Persistence


def ctx(**overrides):
    """A complete injection context with sensible defaults."""
    base = dict(outer_iteration=0, inner_solve_index=0, inner_iteration=0,
                aggregate_inner_iteration=0, mgs_index=0, mgs_length=4)
    base.update(overrides)
    return base


class TestSchedule:
    def test_site_matching(self):
        s = InjectionSchedule(site="hessenberg")
        assert s.matches("hessenberg", **ctx())
        assert not s.matches("spmv", **ctx())
        assert InjectionSchedule(site="*").matches("spmv", **ctx())

    def test_aggregate_iteration_matching(self):
        s = InjectionSchedule(aggregate_inner_iteration=7)
        assert s.matches("hessenberg", **ctx(aggregate_inner_iteration=7))
        assert not s.matches("hessenberg", **ctx(aggregate_inner_iteration=8))

    def test_outer_and_inner_matching(self):
        s = InjectionSchedule(outer_iteration=2, inner_iteration=3, mgs_position=None)
        assert s.matches("hessenberg", **ctx(outer_iteration=2, inner_iteration=3))
        assert not s.matches("hessenberg", **ctx(outer_iteration=1, inner_iteration=3))
        assert not s.matches("hessenberg", **ctx(outer_iteration=2, inner_iteration=0))

    def test_mgs_first_last(self):
        first = InjectionSchedule(mgs_position="first")
        last = InjectionSchedule(mgs_position="last")
        assert first.matches("hessenberg", **ctx(mgs_index=0, mgs_length=5))
        assert not first.matches("hessenberg", **ctx(mgs_index=4, mgs_length=5))
        assert last.matches("hessenberg", **ctx(mgs_index=4, mgs_length=5))
        assert not last.matches("hessenberg", **ctx(mgs_index=0, mgs_length=5))
        # With a single coefficient, first and last coincide.
        assert last.matches("hessenberg", **ctx(mgs_index=0, mgs_length=1))

    def test_mgs_explicit_index(self):
        s = InjectionSchedule(mgs_position=2)
        assert s.matches("hessenberg", **ctx(mgs_index=2))
        assert not s.matches("hessenberg", **ctx(mgs_index=1))

    def test_mgs_any(self):
        s = InjectionSchedule(mgs_position=None)
        assert s.matches("hessenberg", **ctx(mgs_index=3))

    def test_invalid_mgs_position(self):
        with pytest.raises(ValueError):
            InjectionSchedule(mgs_position="middle")

    def test_persistence_coercion(self):
        assert InjectionSchedule(persistence="sticky").persistence is Persistence.STICKY
        with pytest.raises(ValueError):
            InjectionSchedule(persistence="forever")

    def test_transient_caps_max_injections(self):
        s = InjectionSchedule(persistence="transient")
        assert s.max_injections == 1

    def test_describe(self):
        s = InjectionSchedule(aggregate_inner_iteration=12, mgs_position="last")
        text = s.describe()
        assert "12" in text and "last" in text and "transient" in text

    def test_ignores_unknown_context(self):
        s = InjectionSchedule()
        assert s.matches("hessenberg", **ctx(), future_field=123)


class TestInjector:
    def test_transient_fires_once(self):
        inj = FaultInjector(ScalingFault(2.0), InjectionSchedule(mgs_position=None))
        assert inj.corrupt_scalar("hessenberg", 1.0, **ctx()) == 2.0
        assert inj.corrupt_scalar("hessenberg", 1.0, **ctx()) == 1.0
        assert inj.injections_performed == 1

    def test_persistent_fires_every_time(self):
        inj = FaultInjector(ScalingFault(2.0),
                            InjectionSchedule(mgs_position=None, persistence="persistent"))
        for _ in range(4):
            assert inj.corrupt_scalar("hessenberg", 1.0, **ctx()) == 2.0
        assert inj.injections_performed == 4

    def test_sticky_fires_bounded_number(self):
        inj = FaultInjector(ScalingFault(2.0),
                            InjectionSchedule(mgs_position=None, persistence="sticky",
                                              sticky_count=2))
        results = [inj.corrupt_scalar("hessenberg", 1.0, **ctx()) for _ in range(5)]
        assert results == [2.0, 2.0, 1.0, 1.0, 1.0]

    def test_max_injections_cap(self):
        inj = FaultInjector(ScalingFault(2.0),
                            InjectionSchedule(mgs_position=None, persistence="persistent",
                                              max_injections=2))
        results = [inj.corrupt_scalar("hessenberg", 1.0, **ctx()) for _ in range(4)]
        assert results.count(2.0) == 2

    def test_non_matching_site_ignored(self):
        inj = FaultInjector(ScalingFault(2.0), InjectionSchedule(site="spmv"))
        assert inj.corrupt_scalar("hessenberg", 1.0, **ctx()) == 1.0

    def test_record_contents(self):
        inj = FaultInjector(ScalingFault(3.0), InjectionSchedule(mgs_position=None))
        inj.corrupt_scalar("hessenberg", 2.0,
                           **ctx(outer_iteration=4, inner_solve_index=4, inner_iteration=6,
                                 aggregate_inner_iteration=106, mgs_index=2))
        rec = inj.records[0]
        assert rec.original == 2.0 and rec.corrupted == 6.0
        assert rec.outer_iteration == 4
        assert rec.aggregate_inner_iteration == 106
        assert rec.mgs_index == 2

    def test_reset_allows_reuse(self):
        inj = FaultInjector(ScalingFault(2.0), InjectionSchedule(mgs_position=None))
        inj.corrupt_scalar("hessenberg", 1.0, **ctx())
        inj.reset()
        assert inj.injections_performed == 0
        assert inj.corrupt_scalar("hessenberg", 1.0, **ctx()) == 2.0

    def test_vector_corruption_specific_index(self):
        inj = FaultInjector(ZeroFault(), InjectionSchedule(site="spmv", mgs_position=None),
                            vector_index=2)
        out = inj.corrupt_vector("spmv", np.array([1.0, 2.0, 3.0, 4.0]), **ctx())
        np.testing.assert_array_equal(out, [1.0, 2.0, 0.0, 4.0])
        assert inj.records[0].vector_index == 2

    def test_vector_not_copied_when_not_firing(self):
        inj = FaultInjector(ZeroFault(), InjectionSchedule(site="spmv"))
        vec = np.ones(3)
        out = inj.corrupt_vector("hessenberg_wrong_site", vec, **ctx())
        assert out is vec

    def test_type_validation(self):
        with pytest.raises(TypeError):
            FaultInjector("not a model", InjectionSchedule())
        with pytest.raises(TypeError):
            FaultInjector(ScalingFault(2.0), "not a schedule")
