"""Unit tests for the SDC detectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detectors import (
    CompositeDetector,
    DetectionResult,
    Detector,
    HessenbergBoundDetector,
    NonFiniteDetector,
    NormGrowthDetector,
    NullDetector,
)


class TestDetectionResult:
    def test_truthiness(self):
        assert bool(DetectionResult(True))
        assert not bool(DetectionResult(False))

    def test_base_detector_abstract(self):
        with pytest.raises(NotImplementedError):
            Detector().check_scalar(1.0)


class TestNullDetector:
    def test_never_flags(self):
        d = NullDetector()
        assert not d.check_scalar(1e308)
        assert not d.check_scalar(float("nan"))
        assert not d.check_vector(np.array([np.inf, 1.0]))


class TestNonFiniteDetector:
    def test_flags_nan_and_inf(self):
        d = NonFiniteDetector()
        assert d.check_scalar(float("nan"))
        assert d.check_scalar(float("inf"))
        assert d.check_scalar(float("-inf"))

    def test_passes_finite(self):
        d = NonFiniteDetector()
        assert not d.check_scalar(1e300)
        assert not d.check_scalar(0.0)

    def test_vector_check(self):
        d = NonFiniteDetector()
        assert d.check_vector(np.array([1.0, np.nan, 2.0]))
        assert not d.check_vector(np.array([1.0, 2.0]))


class TestHessenbergBoundDetector:
    def test_respects_bound(self):
        d = HessenbergBoundDetector(10.0)
        assert not d.check_scalar(9.99)
        assert not d.check_scalar(-10.0)
        assert d.check_scalar(10.01)
        assert d.check_scalar(-11.0)

    def test_result_payload(self):
        d = HessenbergBoundDetector(5.0)
        res = d.check_scalar(7.0, site="hessenberg")
        assert res.flagged
        assert res.bound == 5.0
        assert res.value == 7.0
        assert "hessenberg" in res.reason

    def test_nonfinite_flagged(self):
        d = HessenbergBoundDetector(5.0)
        assert d.check_scalar(float("nan"))
        assert d.check_scalar(float("inf"))

    def test_slack(self):
        """The bound is the threshold as given: no slack widens it."""
        d = HessenbergBoundDetector(10.0)
        assert not d.check_scalar(10.0)
        assert d.check_scalar(np.nextafter(10.0, np.inf))
        assert d.check_scalar(-np.nextafter(10.0, np.inf))

    def test_vector_check_uses_norm(self):
        d = HessenbergBoundDetector(5.0)
        assert d.check_vector(np.full(100, 1.0))       # norm 10 > 5
        assert not d.check_vector(np.full(4, 1.0))     # norm 2 < 5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_bound_rejected(self, bad):
        with pytest.raises(ValueError):
            HessenbergBoundDetector(bad)

    def test_invalid_slack_rejected(self):
        """``slack`` and ``check_nonfinite`` are no options of the detector
        or of its ``bound`` registry spec."""
        from repro.registry import RegistryError, resolve_detector

        for option in ({"slack": 2.0}, {"check_nonfinite": False}):
            with pytest.raises(TypeError):
                HessenbergBoundDetector(1.0, **option)
            with pytest.raises(RegistryError, match=next(iter(option))):
                resolve_detector({"name": "bound", "bound": 1.0, **option})

    def test_paper_fault_classes(self):
        """Class 1 faults (x1e150) are detectable; classes 2 and 3 are not."""
        correct = 3.7
        bound = 10.0
        d = HessenbergBoundDetector(bound)
        assert d.check_scalar(correct * 1e150)          # class 1: detected
        assert not d.check_scalar(correct * 10 ** -0.5)  # class 2: silent
        assert not d.check_scalar(correct * 1e-300)      # class 3: silent


_BOUND = 7.5
_BAND = _BOUND * (1.0 - 1e-12)


@st.composite
def screens(draw):
    """Step screens mixing ordinary values, NaN, +-Inf and values at the
    bound: inside its guard band, on either edge of it, and past it."""
    edges = [_BAND, np.nextafter(_BAND, 0.0), np.nextafter(_BAND, np.inf),
             _BOUND, np.nextafter(_BOUND, np.inf), 0.5 * (_BAND + _BOUND)]
    value = st.one_of(
        st.floats(min_value=-2 * _BOUND, max_value=2 * _BOUND, allow_nan=False),
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
        st.sampled_from(edges).flatmap(lambda v: st.sampled_from([v, -v])),
    )
    return np.array(draw(st.lists(value, max_size=30)), dtype=np.float64)


class TestFlagsAny:
    """``flags_any`` is the one-call screen of an unarmed Arnoldi step: it
    must equal ``flag_values(values).any()`` on every screen."""

    @pytest.mark.parametrize("detector", [
        NullDetector(), NonFiniteDetector(), HessenbergBoundDetector(_BOUND),
        CompositeDetector([NonFiniteDetector(), HessenbergBoundDetector(_BOUND)]),
    ], ids=["null", "nonfinite", "bound", "composite"])
    @given(values=screens())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_mask(self, detector, values):
        expect = bool(detector.flag_values(values).any())
        got = detector.flags_any(values)
        assert type(got) is bool
        assert got == expect

    def test_bound_guard_band_and_nan_trip(self):
        d = HessenbergBoundDetector(_BOUND)
        assert not d.flags_any(np.array([np.nextafter(_BAND, 0.0), -1.0]))
        assert d.flags_any(np.array([0.5 * (_BAND + _BOUND)]))
        assert d.flags_any(np.array([1.0, np.nan, 2.0]))
        assert d.flags_any(np.array([-np.inf]))
        assert not d.flags_any(np.empty(0))


class TestNormGrowthDetector:
    def test_flags_sudden_growth(self):
        d = NormGrowthDetector(factor=100.0)
        assert not d.check_scalar(1.0)
        assert not d.check_scalar(5.0)
        assert d.check_scalar(1e4)

    def test_reset_clears_reference(self):
        d = NormGrowthDetector(factor=10.0)
        d.check_scalar(1.0)
        d.reset()
        assert not d.check_scalar(1e6)  # no reference yet after reset

    def test_nonfinite_always_flagged(self):
        d = NormGrowthDetector()
        assert d.check_scalar(float("nan"))

    def test_factor_validated(self):
        with pytest.raises(ValueError):
            NormGrowthDetector(factor=1.0)


class TestCompositeDetector:
    def test_any_member_flags(self):
        comp = CompositeDetector([NullDetector(), HessenbergBoundDetector(5.0)])
        res = comp.check_scalar(7.0)
        assert res.flagged
        assert res.detector == "hessenberg_bound"

    def test_passes_when_no_member_flags(self):
        comp = CompositeDetector([NonFiniteDetector(), HessenbergBoundDetector(100.0)])
        assert not comp.check_scalar(50.0)

    def test_vector_dispatch(self):
        comp = CompositeDetector([NonFiniteDetector()])
        assert comp.check_vector(np.array([np.inf]))

    def test_reset_propagates(self):
        growth = NormGrowthDetector(factor=10.0)
        comp = CompositeDetector([growth])
        growth.check_scalar(1.0)
        comp.reset()
        assert not comp.check_scalar(1e6)

    def test_requires_members(self):
        with pytest.raises(ValueError):
            CompositeDetector([])
