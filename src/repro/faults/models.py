"""Fault models: what a corrupted value looks like.

The paper deliberately models SDC as an arbitrary numerical error rather than
a bit flip, and evaluates three representative *multiplicative* corruption
classes relative to the correct value ``h``:

1. very large            — ``h * 1e+150``  (detectable: exceeds ``||A||_F``),
2. slightly smaller      — ``h * 10**-0.5`` (undetectable),
3. very small, near zero — ``h * 1e-300``  (undetectable).

:data:`PAPER_FAULT_CLASSES` exposes exactly these three.  The other models
(bit flips, overwrites, offsets, zeroing, NaN/Inf) support the wider test
suite and the detector-ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.faults.bitflip import flip_bit, random_bit_flip
from repro.utils.rng import as_generator

__all__ = [
    "FaultModel",
    "ScalingFault",
    "AbsoluteFault",
    "AdditiveFault",
    "ZeroFault",
    "NaNFault",
    "InfFault",
    "BitFlipFault",
    "MultiBitFault",
    "BurstFault",
    "StuckAtFault",
    "PAPER_FAULT_CLASSES",
]


class FaultModel:
    """Base class for fault models.

    A model is a deterministic (or seeded) transformation of a correct value
    into a corrupted one.  Models are stateless with respect to the solve;
    all "when does the fault strike" logic lives in the schedule/injector.
    """

    name = "fault"

    def corrupt(self, value: float) -> float:
        """Return the corrupted version of a scalar ``value``."""
        raise NotImplementedError

    def corrupt_vector(self, vec: np.ndarray, index: int | None = None, rng=None) -> np.ndarray:
        """Return a copy of ``vec`` with one element corrupted.

        Parameters
        ----------
        vec : numpy.ndarray
            The correct vector.
        index : int, optional
            Element to corrupt; a random element is chosen when omitted.
        rng : seed or Generator, optional
            Randomness source for the random-element choice.
        """
        vec = np.asarray(vec, dtype=np.float64)
        out = vec.copy()
        if out.size == 0:
            return out
        if index is None:
            index = int(as_generator(rng).integers(0, out.size))
        if not 0 <= index < out.size:
            raise IndexError(f"index {index} outside vector of size {out.size}")
        flat = out.reshape(-1)
        flat[index] = self.corrupt(float(flat[index]))
        return out

    def describe(self) -> str:
        """One-line human-readable description (used in reports)."""
        return self.name

    def to_spec(self) -> dict:
        """The registry spec (dict) that rebuilds this model.

        Used by :mod:`repro.specs` to serialize campaign configurations that
        carry built fault-model instances.  Every model serializes to a dict
        with a ``"name"`` key (uniform shape, so spec consumers never need a
        string-vs-dict case split); subclasses with constructor arguments
        add their argument fields.
        """
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ScalingFault(FaultModel):
    """Multiplicative corruption: ``h -> h * factor`` (the paper's model).

    Parameters
    ----------
    factor : float
        Corruption factor.  The paper's three classes use ``1e+150``,
        ``10**-0.5`` and ``1e-300``.
    """

    name = "scaling"

    def __init__(self, factor: float):
        self.factor = float(factor)

    def corrupt(self, value: float) -> float:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return float(np.float64(value) * np.float64(self.factor))

    def describe(self) -> str:
        return f"h * {self.factor:g}"

    def to_spec(self) -> dict:
        return {"name": "scaling", "factor": self.factor}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScalingFault(factor={self.factor:g})"


class AbsoluteFault(FaultModel):
    """Overwrite corruption: the corrupted value is a fixed constant."""

    name = "absolute"

    def __init__(self, replacement: float):
        self.replacement = float(replacement)

    def corrupt(self, value: float) -> float:
        return self.replacement

    def describe(self) -> str:
        return f"h := {self.replacement:g}"

    def to_spec(self) -> dict:
        return {"name": "absolute", "replacement": self.replacement}


class AdditiveFault(FaultModel):
    """Offset corruption: ``h -> h + delta``."""

    name = "additive"

    def __init__(self, delta: float):
        self.delta = float(delta)

    def corrupt(self, value: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.float64(value) + np.float64(self.delta))

    def describe(self) -> str:
        return f"h + {self.delta:g}"

    def to_spec(self) -> dict:
        return {"name": "additive", "delta": self.delta}


class ZeroFault(AbsoluteFault):
    """Replace the value with exactly zero (a total loss of information)."""

    name = "zero"

    def __init__(self):
        super().__init__(0.0)

    def describe(self) -> str:
        return "h := 0"

    def to_spec(self) -> dict:
        return {"name": "zero"}


class NaNFault(AbsoluteFault):
    """Replace the value with NaN (trivially detectable via IEEE-754)."""

    name = "nan"

    def __init__(self):
        super().__init__(float("nan"))

    def describe(self) -> str:
        return "h := NaN"

    def to_spec(self) -> dict:
        return {"name": "nan"}


class InfFault(AbsoluteFault):
    """Replace the value with +Inf (trivially detectable via IEEE-754)."""

    name = "inf"

    def __init__(self):
        super().__init__(float("inf"))

    def describe(self) -> str:
        return "h := Inf"

    def to_spec(self) -> dict:
        return {"name": "inf"}


class BitFlipFault(FaultModel):
    """Flip one bit of the IEEE-754 representation.

    Parameters
    ----------
    bit : int, optional
        Bit position (0 = least-significant mantissa bit, 63 = sign).  When
        omitted, a uniformly random bit is flipped per corruption, drawn from
        ``rng``.
    bits : sequence of int, optional
        Candidate bit positions for the random choice (e.g. only exponent
        bits).  Ignored when ``bit`` is given.
    rng : seed or Generator, optional
        Randomness source for random bit selection.
    """

    name = "bitflip"

    def __init__(self, bit: int | None = None, bits=None, rng=None):
        if bit is not None and not 0 <= bit <= 63:
            raise ValueError(f"bit must be in [0, 63], got {bit}")
        self.bit = bit
        self.bits = tuple(bits) if bits is not None else None
        self._rng = as_generator(rng)
        self.last_bit: int | None = None

    def corrupt(self, value: float) -> float:
        if self.bit is not None:
            self.last_bit = self.bit
            return flip_bit(value, self.bit)
        corrupted, bit = random_bit_flip(value, rng=self._rng, bits=self.bits)
        self.last_bit = bit
        return corrupted

    def describe(self) -> str:
        return f"bit flip (bit={'random' if self.bit is None else self.bit})"

    def to_spec(self) -> dict:
        spec = {"name": "bitflip"}
        if self.bit is not None:
            spec["bit"] = self.bit
        if self.bits is not None:
            spec["bits"] = list(self.bits)
        return spec


class MultiBitFault(FaultModel):
    """Flip several bits of the IEEE-754 representation at once.

    Models a multi-bit upset (e.g. a charged particle clipping adjacent
    cells of a register).  Deterministic when explicit ``bits`` are given;
    otherwise ``num_bits`` distinct random positions are drawn per
    corruption.

    Parameters
    ----------
    num_bits : int
        How many distinct bits to flip when ``bits`` is omitted.
    bits : sequence of int, optional
        Explicit bit positions to flip (makes the model deterministic —
        what the cross-backend identity tests require).
    rng : seed or Generator, optional
        Randomness source for random bit selection.
    """

    name = "multibit"

    def __init__(self, num_bits: int = 2, bits=None, rng=None):
        num_bits = int(num_bits)
        if bits is not None:
            bits = tuple(int(b) for b in bits)
            if len(set(bits)) != len(bits):
                raise ValueError(f"bits must be distinct, got {bits}")
            for b in bits:
                if not 0 <= b <= 63:
                    raise ValueError(f"bit must be in [0, 63], got {b}")
        elif not 1 <= num_bits <= 64:
            raise ValueError(f"num_bits must be in [1, 64], got {num_bits}")
        self.num_bits = num_bits
        self.bits = bits
        self._rng = as_generator(rng)
        self.last_bits: tuple[int, ...] | None = None

    def corrupt(self, value: float) -> float:
        if self.bits is not None:
            chosen = self.bits
        else:
            chosen = tuple(int(b) for b in
                           self._rng.choice(64, size=self.num_bits, replace=False))
        out = float(value)
        for bit in chosen:
            out = flip_bit(out, bit)
        self.last_bits = chosen
        return out

    def describe(self) -> str:
        if self.bits is not None:
            return f"multi-bit flip (bits={list(self.bits)})"
        return f"multi-bit flip ({self.num_bits} random bits)"

    def to_spec(self) -> dict:
        spec = {"name": "multibit", "num_bits": self.num_bits}
        if self.bits is not None:
            spec["bits"] = list(self.bits)
        return spec


class BurstFault(FaultModel):
    """Flip a contiguous run of bits (a burst error).

    Deterministic: flips bits ``start_bit .. start_bit + width - 1`` of the
    IEEE-754 representation.  A burst across the exponent boundary is the
    classic "datapath glitch" that single-bit models understate.

    Parameters
    ----------
    start_bit : int
        Lowest bit position of the burst (0 = LSB of the mantissa).
    width : int
        Number of consecutive bits flipped (clipped at bit 63).
    """

    name = "burst"

    def __init__(self, start_bit: int = 48, width: int = 4):
        start_bit, width = int(start_bit), int(width)
        if not 0 <= start_bit <= 63:
            raise ValueError(f"start_bit must be in [0, 63], got {start_bit}")
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        self.start_bit = start_bit
        self.width = width

    @property
    def bits(self) -> tuple[int, ...]:
        """The bit positions the burst flips."""
        return tuple(range(self.start_bit, min(self.start_bit + self.width, 64)))

    def corrupt(self, value: float) -> float:
        out = float(value)
        for bit in self.bits:
            out = flip_bit(out, bit)
        return out

    def describe(self) -> str:
        return f"burst flip (bits {self.start_bit}..{self.bits[-1]})"

    def to_spec(self) -> dict:
        return {"name": "burst", "start_bit": self.start_bit, "width": self.width}


class StuckAtFault(FaultModel):
    """Force one bit of the IEEE-754 representation to a fixed level.

    The canonical *permanent* hardware fault: a stuck-at-1 exponent bit turns
    most values huge, a stuck-at-0 sign bit erases negativity.  Unlike a
    flip, corrupting an already-conforming value is a no-op — paired with a
    persistent schedule this reproduces genuine stuck-hardware behavior.

    Parameters
    ----------
    bit : int
        Bit position in ``[0, 63]``.
    value : int
        The stuck level, 0 or 1 (default 1).
    """

    name = "stuck_at"

    def __init__(self, bit: int = 62, value: int = 1):
        bit, value = int(bit), int(value)
        if not 0 <= bit <= 63:
            raise ValueError(f"bit must be in [0, 63], got {bit}")
        if value not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {value}")
        self.bit = bit
        self.value = value

    def corrupt(self, value: float) -> float:
        as_int = np.float64(value).view(np.uint64)
        mask = np.uint64(1 << self.bit)
        if self.value:
            as_int = as_int | mask
        else:
            as_int = as_int & ~mask
        return float(as_int.view(np.float64))

    def describe(self) -> str:
        return f"stuck-at-{self.value} (bit {self.bit})"

    def to_spec(self) -> dict:
        return {"name": "stuck_at", "bit": self.bit, "value": self.value}


#: The paper's three corruption classes (Section VII-B-1), keyed by the label
#: used throughout the experiment harness and the Figures 3/4 reports.
PAPER_FAULT_CLASSES: dict[str, ScalingFault] = {
    "large": ScalingFault(1e150),
    "slightly_smaller": ScalingFault(10.0 ** -0.5),
    "near_zero": ScalingFault(1e-300),
}
