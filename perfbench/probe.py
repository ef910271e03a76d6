"""Machine-speed probe that puts every timing on one reference scale.

The hosts this benchmark runs on share their cores with other tenants, and
the speed of the same code drifts by up to 2x within seconds.  Every timed
operation is therefore paired with a run of this probe made right after it,
and its time is scaled by ``REFERENCE_S / probe time``: the result reads as
the operation's time on a host where the probe takes ``REFERENCE_S``.  The
ratio cancels most of the drift because the probe does the same kinds of
work as the library (a Gram-Schmidt loop of small vector operations, a
sparse gather/reduce, JSON encoding) and runs on the same core moments
later.

The probe is fixed code that does not import the library, so changes to
the library cannot move it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Probe time on the reference host; scaled timings read as times there.
REFERENCE_S = 1.25e-3

_N = 900          # vector length of the paper's small Poisson problem
_STEPS = 25       # Gram-Schmidt steps, as in one inner solve
_NNZ_PER_ROW = 5


class Probe:
    """A fixed small kernel timed between operations."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20140519)
        basis, _ = np.linalg.qr(rng.standard_normal((_N, _STEPS + 1)))
        self.basis = np.asfortranarray(basis)
        self.start = rng.standard_normal(_N)
        self.columns = rng.integers(0, _N, _N * _NNZ_PER_ROW)
        self.row_starts = np.arange(0, _N * _NNZ_PER_ROW, _NNZ_PER_ROW)
        self.values = rng.standard_normal(_N * _NNZ_PER_ROW)
        self.record = {"kind": "trial", "fault_class": "large", "status":
                       "converged", "outer_iterations": 5, "residual": 1e-9}
        self.previous: float | None = None

    def _kernel(self) -> None:
        v = self.start.copy()
        scratch = np.empty(_N)
        coefficients = []
        for j in range(_STEPS):
            for i in range(j + 1):
                q = self.basis[:, i]
                h = float(np.dot(q, v))
                coefficients.append(abs(h) > 1e3)
                np.multiply(q, h, out=scratch)
                np.subtract(v, scratch, out=v)
            v = np.add.reduceat(self.values * v[self.columns], self.row_starts)
            v /= np.linalg.norm(v)
        json.dumps(self.record)

    def factor(self, repeats: int = 1) -> float:
        """The scale factor for the work done since the previous call.

        ``REFERENCE_S`` over the mean of this call's probe time (the median
        of ``repeats`` runs) and the previous call's, so that work during
        which the host changed speed is scaled by the speed on both sides.
        """
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        now = statistics.median(times)
        before = now if self.previous is None else self.previous
        self.previous = now
        return REFERENCE_S / (0.5 * (before + now))
