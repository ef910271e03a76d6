"""IEEE-754 double-precision bit manipulation.

The paper argues that studying SDC as *numerical* error subsumes bit flips:
flipping any bit of a float64 yields either another float64 value or NaN/Inf,
all of which the numerical fault models can produce directly.  These helpers
exist so the test suite and the detector-ablation benchmark can nevertheless
exercise genuine bit flips and confirm that claim empirically.

Bit numbering follows the usual convention: bit 0 is the least-significant
mantissa bit, bits 0–51 are the mantissa, bits 52–62 the exponent, and bit 63
the sign.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["flip_bit", "random_bit_flip", "MANTISSA_BITS", "EXPONENT_BITS", "SIGN_BIT"]

#: Bit positions of the float64 mantissa (0-51).
MANTISSA_BITS = tuple(range(0, 52))
#: Bit positions of the float64 exponent (52-62).
EXPONENT_BITS = tuple(range(52, 63))
#: Bit position of the float64 sign bit.
SIGN_BIT = 63


def flip_bit(value: float, bit: int) -> float:
    """Return ``value`` with the given bit of its IEEE-754 representation flipped.

    Parameters
    ----------
    value : float
        The original double-precision value.
    bit : int
        Bit position in ``[0, 63]``.

    Returns
    -------
    float
        The perturbed value.  Flipping exponent bits of a normal number can
        produce Inf or a subnormal; flipping bits of a NaN stays NaN.
    """
    if not 0 <= bit <= 63:
        raise ValueError(f"bit must be in [0, 63], got {bit}")
    as_int = np.float64(value).view(np.uint64)
    flipped = as_int ^ np.uint64(1 << bit)
    return float(flipped.view(np.float64))


def random_bit_flip(value: float, rng=None, bits=None) -> tuple[float, int]:
    """Flip a uniformly random bit of ``value``.

    Parameters
    ----------
    value : float
        The original value.
    rng : seed or numpy.random.Generator, optional
        Randomness source.
    bits : sequence of int, optional
        Restrict the flip to these bit positions (e.g. ``EXPONENT_BITS``).

    Returns
    -------
    (new_value, bit) : tuple
        The perturbed value and the bit that was flipped.
    """
    rng = as_generator(rng)
    candidates = np.asarray(bits if bits is not None else np.arange(64), dtype=np.int64)
    bit = int(rng.choice(candidates))
    return flip_bit(value, bit), bit
