"""SDC detectors.

The paper's detector (Section V) checks each Arnoldi orthogonalization
coefficient against the bound ``|h_ij| <= ||A||_2 <= ||A||_F``: a violation
is theoretically impossible, so it must be the effect of silent data
corruption.  This module packages that check — plus the "free" IEEE-754
NaN/Inf check and a norm-growth heuristic — behind a common
:class:`Detector` interface so solvers can compose them.

Detectors are *pure* predicates: they never modify data.  The solver decides
how to respond to a positive verdict (see the ``detector_response`` option of
:func:`repro.core.gmres.gmres`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectionResult",
    "Detector",
    "NullDetector",
    "HessenbergBoundDetector",
    "NonFiniteDetector",
    "NormGrowthDetector",
    "CompositeDetector",
]


@dataclass(frozen=True)
class DetectionResult:
    """Verdict of a detector on a single value.

    Attributes
    ----------
    flagged : bool
        True if the value is considered corrupt.
    detector : str
        Name of the detector that produced the verdict.
    reason : str
        Human-readable explanation (empty when not flagged).
    value : float
        The checked value.
    bound : float
        The bound it was compared against (NaN when not applicable).
    """

    flagged: bool
    detector: str = ""
    reason: str = ""
    value: float = float("nan")
    bound: float = float("nan")

    def __bool__(self) -> bool:
        return self.flagged

    def event_data(self) -> dict:
        """The verdict as ``fault_detected`` event payload fields.

        Its one producer is :meth:`~repro.core.arnoldi.ArnoldiContext.screen_scalar`,
        which screens for the inner Arnoldi step, FGMRES's outer step and
        each lane of the batched engine alike, so event consumers never
        special-case the engine.
        """
        return {
            "value": self.value,
            "bound": self.bound,
            "detector": self.detector,
            "reason": self.reason,
        }


_NOT_FLAGGED = DetectionResult(False)


class Detector:
    """Base class.  Subclasses implement :meth:`check_scalar`.

    ``check_vector`` has a default implementation that checks the vector's
    2-norm, which is the right quantity for the Arnoldi vectors (the bound
    of Eq. (2) is on ``||A q_j||_2``).

    Stateless detectors also provide a *vector predicate*,
    :meth:`flag_values`, and set ``vectorized = True``: the solvers then
    screen a whole Arnoldi step in one :meth:`flags_any` call and fall back
    to per-value :meth:`check_scalar`/:meth:`check_vector` only when
    something is flagged.  The predicate must flag every value
    :meth:`check_scalar` flags, and the 2-norm of every vector
    :meth:`check_vector` flags; a subclass that changes either check keeps
    that true or sets ``vectorized = False``.
    """

    name = "detector"

    #: Whether :meth:`flag_values` is a stateless vector predicate.  Stateful
    #: detectors (a running reference, say) must see every value in order,
    #: so the solvers keep screening them one coefficient at a time.
    vectorized = False

    def check_scalar(self, value: float, site: str = "") -> DetectionResult:
        """Return a verdict on a single floating-point value."""
        raise NotImplementedError

    def flag_values(self, values: np.ndarray) -> np.ndarray:
        """Conservative screen of many values at once: a boolean mask.

        The mask is True at least wherever :meth:`check_scalar` would flag
        the value (and at the norm of any vector :meth:`check_vector` would
        flag); it may be wider (a guard band at a bound), since every
        flagged value is re-checked one at a time, and that verdict is
        authoritative.  The default flags everything.
        """
        return np.ones(np.shape(values), dtype=bool)

    def flags_any(self, values: np.ndarray) -> bool:
        """Whether :meth:`flag_values` flags any of ``values``.

        The unarmed Arnoldi step asks only this and builds no mask.  An
        override must equal ``flag_values(values).any()`` on every input.
        """
        return bool(self.flag_values(values).any())

    def check_vector(self, vec: np.ndarray, site: str = "") -> DetectionResult:
        """Return a verdict on a vector (default: check its 2-norm)."""
        nrm = float(np.linalg.norm(np.asarray(vec, dtype=np.float64)))
        return self.check_scalar(nrm, site=site)

    def reset(self) -> None:
        """Clear any internal state (e.g. reference norms).  Default: no-op."""

    def to_spec(self):
        """The registry spec (string or dict) that rebuilds this detector.

        Used by :mod:`repro.specs` to serialize configurations that carry
        built detector instances.  Subclasses with constructor arguments
        override this; the argument-free ones serialize as their name.
        """
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NullDetector(Detector):
    """A detector that never flags anything (the "no detection" baseline)."""

    name = "null"
    vectorized = True

    def check_scalar(self, value: float, site: str = "") -> DetectionResult:
        return _NOT_FLAGGED

    def flag_values(self, values: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(values), dtype=bool)


class NonFiniteDetector(Detector):
    """Flags NaN and Inf values.

    The paper points out that IEEE-754 gives this check "for free": any SDC
    that produces a non-numeric value is trivially detectable.  It is always
    safe to enable.
    """

    name = "nonfinite"
    vectorized = True

    def check_scalar(self, value: float, site: str = "") -> DetectionResult:
        if not np.isfinite(value):
            return DetectionResult(True, self.name, f"non-finite value at {site or 'unknown site'}",
                                   float(value))
        return _NOT_FLAGGED

    def flag_values(self, values: np.ndarray) -> np.ndarray:
        return ~np.isfinite(values)

    def check_vector(self, vec: np.ndarray, site: str = "") -> DetectionResult:
        vec = np.asarray(vec, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            bad = int(np.count_nonzero(~np.isfinite(vec)))
            return DetectionResult(True, self.name,
                                   f"{bad} non-finite entries at {site or 'unknown site'}")
        return _NOT_FLAGGED


class HessenbergBoundDetector(Detector):
    """The paper's invariant detector: ``|h_ij| <= bound``.

    Parameters
    ----------
    bound : float
        An upper bound on ``||A||_2`` — typically ``||A||_F`` (Eq. (3)) or a
        power-method estimate of ``||A||_2``.  Must be positive and finite.
        It is used as-is, exactly as in the paper: rounding error cannot
        push a correct ``h_ij`` past ``||A||_F`` by any meaningful margin,
        because the Frobenius norm already overestimates the 2-norm.  NaN
        and Inf are always flagged.
    """

    name = "hessenberg_bound"
    vectorized = True

    def __init__(self, bound: float):
        bound = float(bound)
        if not np.isfinite(bound) or bound <= 0.0:
            raise ValueError(f"bound must be a positive finite number, got {bound}")
        self.bound = bound

    def to_spec(self) -> dict:
        return {"name": "bound", "bound": self.bound}

    def check_scalar(self, value: float, site: str = "") -> DetectionResult:
        v = float(value)
        if not np.isfinite(v):
            return DetectionResult(True, self.name,
                                   f"non-finite value at {site or 'hessenberg'}", v, self.bound)
        if abs(v) > self.bound:
            return DetectionResult(
                True,
                self.name,
                f"|{v:.6e}| exceeds bound {self.bound:.6e} at {site or 'hessenberg'}",
                v,
                self.bound,
            )
        return DetectionResult(False, self.name, "", v, self.bound)

    def flag_values(self, values: np.ndarray) -> np.ndarray:
        """The bound test with a relative guard band just below the bound.

        A mask that rounded the other way at the bound cusp would silently
        miss a detection :meth:`check_scalar` records; the band only costs
        a scalar re-check of values within ~1e-12 of the bound.  NaN fails
        the ``<=`` test, so non-finite values are flagged too.
        """
        return ~(np.abs(values) <= self.bound * (1.0 - 1e-12))

    def flags_any(self, values: np.ndarray) -> bool:
        """:meth:`flag_values`'s test as one reduction: a NaN propagates
        through the maximum and fails the ``<=``, so it still trips."""
        return not (np.maximum.reduce(np.abs(values), initial=0.0)
                    <= self.bound * (1.0 - 1e-12))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HessenbergBoundDetector(bound={self.bound:.6e})"


class NormGrowthDetector(Detector):
    """Flags values whose magnitude exceeds ``factor`` times a running reference.

    A heuristic companion to the theory-based bound: it adapts to the data it
    has seen, so it can catch corruption *below* ``||A||_F`` at the cost of
    potential false positives.  Nothing is flagged while the reference is
    at most 1e-300 (before the first nonzero value).  Used only in the
    detector-ablation benchmark; the paper's detector is
    :class:`HessenbergBoundDetector`.
    """

    name = "norm_growth"

    def __init__(self, factor: float = 1e3):
        if factor <= 1.0:
            raise ValueError(f"factor must exceed 1, got {factor}")
        self.factor = float(factor)
        self._reference = 0.0

    def reset(self) -> None:
        self._reference = 0.0

    def to_spec(self) -> dict:
        return {"name": "norm_growth", "factor": self.factor}

    def check_scalar(self, value: float, site: str = "") -> DetectionResult:
        v = float(value)
        if not np.isfinite(v):
            return DetectionResult(True, self.name, f"non-finite value at {site}", v)
        magnitude = abs(v)
        if self._reference > 1e-300 and magnitude > self.factor * self._reference:
            result = DetectionResult(
                True,
                self.name,
                f"|{v:.3e}| grew more than {self.factor:g}x past running reference "
                f"{self._reference:.3e} at {site}",
                v,
                self.factor * self._reference,
            )
        else:
            result = DetectionResult(False, self.name, "", v, self.factor * self._reference)
        self._reference = max(self._reference, magnitude)
        return result


class CompositeDetector(Detector):
    """Combines several detectors; flags if *any* member flags.

    The first positive verdict is returned so the caller knows which member
    fired.
    """

    name = "composite"

    def __init__(self, detectors):
        self.detectors = list(detectors)
        if not self.detectors:
            raise ValueError("CompositeDetector requires at least one member detector")

    def check_scalar(self, value: float, site: str = "") -> DetectionResult:
        for det in self.detectors:
            result = det.check_scalar(value, site=site)
            if result.flagged:
                return result
        return _NOT_FLAGGED

    def check_vector(self, vec: np.ndarray, site: str = "") -> DetectionResult:
        for det in self.detectors:
            result = det.check_vector(vec, site=site)
            if result.flagged:
                return result
        return _NOT_FLAGGED

    @property
    def vectorized(self) -> bool:
        return all(det.vectorized for det in self.detectors)

    def flag_values(self, values: np.ndarray) -> np.ndarray:
        flagged = self.detectors[0].flag_values(values)
        for det in self.detectors[1:]:
            flagged = flagged | det.flag_values(values)
        return flagged

    def reset(self) -> None:
        for det in self.detectors:
            det.reset()

    def to_spec(self) -> dict:
        return {"name": "composite", "members": [d.to_spec() for d in self.detectors]}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompositeDetector({self.detectors!r})"
