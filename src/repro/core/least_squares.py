"""The projected least-squares problem and its robustness policies.

Every GMRES iteration ends by solving

    min_y || H_k y - beta e_1 ||_2

for the solution-update coefficients ``y`` (Eq. (4) of the paper).  Saad and
Schultz solve it through the incremental Givens QR factorization and a
triangular back-substitution.  That back-substitution can produce unbounded
coefficients when the triangular factor is (nearly) singular — which a fault
in the Arnoldi process can cause.  Section VI-D of the paper therefore
defines three policies, implemented here:

1. ``STANDARD``        — plain triangular solve (Saad & Schultz).
2. ``HYBRID``          — triangular solve, falling back to the rank-revealing
                         solve only when the result contains Inf or NaN.
3. ``RANK_REVEALING``  — always solve through a truncated SVD, yielding the
                         minimum-norm solution with singular values below a
                         tolerance discarded.

The paper recommends policy 1 or 3; policy 2 "conceals the natural error
detection" of IEEE-754 without bounding the error, and the experiments here
let you verify that claim (see ``benchmarks/bench_ablation_lsq.py``).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "LeastSquaresPolicy",
    "IncrementalGivensQR",
    "solve_triangular",
    "solve_rank_revealing",
    "solve_projected_lsq",
]


class LeastSquaresPolicy(Enum):
    """Policy for solving the projected least-squares problem."""

    STANDARD = "standard"
    HYBRID = "hybrid"
    RANK_REVEALING = "rank_revealing"

    @classmethod
    def coerce(cls, value) -> "LeastSquaresPolicy":
        """Accept a policy instance or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise ValueError(
                f"unknown least-squares policy {value!r}; "
                f"expected one of {[p.value for p in cls]}"
            ) from exc


def givens_rotation(a: float, b: float) -> tuple[float, float]:
    """Compute a Givens rotation ``(c, s)`` such that ``[c s; -s c] [a; b] = [r; 0]``.

    The formulation avoids overflow for huge corrupted entries (the
    ``1e+150``-scaled faults of the paper) by normalizing by the larger
    magnitude first.  Non-finite inputs yield a NaN rotation so downstream
    arithmetic stays non-finite (the solver's IEEE-754 detection sees it)
    rather than raising.
    """
    if b == 0.0:
        return 1.0, 0.0
    if a == 0.0:
        return 0.0, 1.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.nan, math.nan
    if abs(b) > abs(a):
        t = a / b
        s = 1.0 / math.sqrt(1.0 + t * t)
        return s * t, s
    t = b / a
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, c * t


class IncrementalGivensQR:
    """Incremental Givens QR of a growing ``(k+1) x k`` upper Hessenberg matrix.

    This is the factorization Saad and Schultz use to solve the projected
    least-squares problem in O(k) extra work per iteration: each new Arnoldi
    column is rotated by all previous Givens rotations, one new rotation
    zeroes its subdiagonal entry, and the rotated right-hand side ``g`` keeps
    both the residual estimate (``|g_{k+1}|``) and the triangular system
    ``R y = g_{1:k}`` current.  Nothing is ever re-factored: the rotations
    are *reused* across iterations, and :meth:`solve` works directly off the
    maintained ``R`` and ``g``.

    Parameters
    ----------
    max_columns : int
        Maximum number of columns (restart length); storage is allocated
        once up front.
    beta : float
        Norm of the initial residual; the right-hand side is ``beta * e_1``.
    """

    def __init__(self, max_columns: int, beta: float = 0.0):
        if max_columns <= 0:
            raise ValueError(f"max_columns must be positive, got {max_columns}")
        m = int(max_columns)
        self.max_columns = m
        self.k = 0  # number of completed columns
        self._R = np.zeros((m + 1, m), dtype=np.float64)
        self._g = np.zeros(m + 1, dtype=np.float64)
        self._g[0] = float(beta)
        # The rotation recurrence is scalar and sequential, so the rotations
        # are kept as plain Python floats (identical IEEE-754 arithmetic,
        # none of the NumPy scalar-indexing overhead in the hot loop).
        self._cs: list[float] = [0.0] * m
        self._sn: list[float] = [0.0] * m
        # g[j] as it stood before column j rotated it: all that
        # :meth:`prefix` cannot read back from the final state.
        self._g_pre: list[float] = [0.0] * m
        self.beta = float(beta)

    # ------------------------------------------------------------------ #
    @property
    def R(self) -> np.ndarray:
        """Upper-triangular factor, shape ``k x k`` (copy-free view)."""
        return self._R[: self.k, : self.k]

    @property
    def g(self) -> np.ndarray:
        """The rotated right-hand side ``Q^T (beta e1)``, length ``k+1``."""
        return self._g[: self.k + 1]

    def residual_estimate(self) -> float:
        """GMRES's monotone least-squares residual estimate ``|g_{k+1}|``."""
        return abs(float(self._g[self.k]))

    # ------------------------------------------------------------------ #
    def add_column(self, column, givens_hook=None) -> float:
        """Rotate a new Hessenberg column into the factorization.

        Parameters
        ----------
        column : array_like
            The ``k+2`` entries of column ``k`` (orthogonalization
            coefficients plus the subdiagonal norm).
        givens_hook : callable, optional
            The ``"givens"`` injection site: called as ``hook(c, s)`` with
            the freshly computed rotation coefficients and must return the
            (possibly corrupted) pair that is then stored, applied to the
            column, and applied to the right-hand side.  ``None`` (the
            default) skips the hook entirely — the fault-free fast path
            performs the identical floating-point operations.

        Returns
        -------
        float
            The updated residual estimate ``|g_{k+1}|``.
        """
        j = self.k
        if j >= self.max_columns:
            raise RuntimeError("IncrementalGivensQR is full; increase max_columns")
        cs, sn = self._cs, self._sn
        r = column.tolist() if isinstance(column, np.ndarray) else [float(v) for v in column]
        if len(r) != j + 2:
            raise ValueError(f"column {j} must have {j + 2} entries, got {len(r)}")

        # Reuse the previous rotations on the new column (Python floats
        # throughout: the same IEEE-754 operations as NumPy scalars, without
        # their dispatch).
        for i in range(j):
            c, s = cs[i], sn[i]
            r_i, r_i1 = r[i], r[i + 1]
            r[i] = c * r_i + s * r_i1
            r[i + 1] = -s * r_i + c * r_i1

        # Compute and apply the new rotation that zeroes r[j+1].
        c, s = givens_rotation(r[j], r[j + 1])
        if givens_hook is not None:
            # A corrupted rotation poisons the triangular factor AND the
            # rotated right-hand side — exactly how a faulty rotation update
            # propagates in the real algorithm (it no longer zeroes r[j+1]
            # exactly, but the factorization stores 0 there regardless, which
            # is the silent part of the corruption).
            c, s = givens_hook(c, s)
            c, s = float(c), float(s)
        cs[j], sn[j] = c, s
        r[j] = c * r[j] + s * r[j + 1]
        r[j + 1] = 0.0
        self._R[: j + 2, j] = r

        # Apply the new rotation to the right-hand side g.
        g_j = self._g_pre[j] = float(self._g[j])
        self._g[j] = c * g_j
        self._g[j + 1] = g_next = -s * g_j

        self.k = j + 1
        return abs(g_next)

    def prefix(self, k: int, max_columns: int) -> "IncrementalGivensQR":
        """A copy of the factorization as it stood after its first ``k`` columns.

        Columns of ``R``, rotations and ``g[:k]`` are final once written, so
        they copy as they are; ``g[k]`` is restored from the value recorded
        before column ``k`` rotated it.  ``max_columns`` sizes the copy's
        storage.
        """
        if not 0 <= k <= min(self.k, max_columns):
            raise ValueError(f"prefix of {k} columns outside 0..{min(self.k, max_columns)}")
        out = IncrementalGivensQR(max_columns, self.beta)
        out._R[: k + 1, :k] = self._R[: k + 1, :k]
        out._g[:k] = self._g[:k]
        out._g[k] = self._g_pre[k] if k < self.k else self._g[k]
        out._cs[:k], out._sn[:k], out._g_pre[:k] = self._cs[:k], self._sn[:k], self._g_pre[:k]
        out.k = k
        return out

    # ------------------------------------------------------------------ #
    def solve(self, policy=LeastSquaresPolicy.STANDARD, H: np.ndarray | None = None,
              beta: float | None = None) -> tuple[np.ndarray, dict]:
        """Solve the projected least-squares problem from the maintained state.

        Equivalent to ``solve_projected_lsq(self.R, self.g, ...)`` — the
        factorization is never recomputed; ``H``/``beta`` are only consulted
        by the rank-revealing policies (see :func:`solve_projected_lsq`).
        """
        return solve_projected_lsq(
            self.R, self.g, policy=policy, H=H,
            beta=self.beta if beta is None else beta,
        )


def solve_triangular(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back-substitution for an upper-triangular system ``R y = rhs``.

    No singularity handling whatsoever — a zero pivot produces Inf/NaN, which
    is exactly the behaviour the HYBRID policy relies on for its fallback
    test and the behaviour the paper attributes to the standard approach.
    """
    R = np.asarray(R, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    k = R.shape[1]
    if R.shape[0] < k or rhs.shape[0] < k:
        raise ValueError(f"inconsistent triangular system: R {R.shape}, rhs {rhs.shape}")
    y = np.zeros(k, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k - 1, -1, -1):
            y[i] = (rhs[i] - R[i, i + 1 : k].dot(y[i + 1 : k])) / R[i, i]
    return y


def solve_rank_revealing(M: np.ndarray, rhs: np.ndarray, tol: float | None = None
                         ) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution of ``M y ≈ rhs`` via truncated SVD.

    Parameters
    ----------
    M : numpy.ndarray
        The (small) projected matrix — either the ``(k+1) x k`` Hessenberg
        matrix or the ``k x k`` triangular factor.
    rhs : numpy.ndarray
        Right-hand side of matching length.
    tol : float, optional
        Relative truncation tolerance: singular values below
        ``tol * sigma_max`` are discarded.  Defaults to
        ``max(M.shape) * eps``, the usual numerical-rank tolerance.

    Returns
    -------
    y : numpy.ndarray
        The minimum-norm solution restricted to the retained singular space.
    rank : int
        Number of singular values retained.

    Notes
    -----
    Non-finite entries in ``M`` or ``rhs`` are replaced by zero before the
    SVD: LAPACK's SVD does not accept NaN/Inf, and the paper's policy 3 is
    meant to produce a *bounded* update no matter how badly the inputs were
    corrupted.  The replacement is recorded in the returned rank only
    implicitly (the corrupted directions carry no information either way).
    """
    M = np.asarray(M, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if M.ndim != 2 or rhs.shape[0] != M.shape[0]:
        raise ValueError(f"inconsistent least-squares system: M {M.shape}, rhs {rhs.shape}")
    if not np.all(np.isfinite(M)):
        M = np.nan_to_num(M, nan=0.0, posinf=0.0, neginf=0.0)
    if not np.all(np.isfinite(rhs)):
        rhs = np.nan_to_num(rhs, nan=0.0, posinf=0.0, neginf=0.0)
    if M.shape[1] == 0:
        return np.zeros(0, dtype=np.float64), 0
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(M.shape[1], dtype=np.float64), 0
    if tol is None:
        tol = max(M.shape) * np.finfo(np.float64).eps
    # Discard directions below the relative tolerance, and subnormal singular
    # values outright: dividing by them overflows, and the whole point of
    # policy 3 is a *bounded* update.
    keep = (s > tol * s[0]) & (s >= np.finfo(np.float64).tiny)
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        return np.zeros(M.shape[1], dtype=np.float64), 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = (U[:, keep].T @ rhs) / s[keep]
        y = Vt[keep, :].T @ coeffs
    if not np.all(np.isfinite(y)):
        # Last-resort guard (huge rhs over tiny-but-normal singular values):
        # zero the unrepresentable directions rather than return Inf/NaN.
        y = np.nan_to_num(y, nan=0.0, posinf=0.0, neginf=0.0)
    return y, rank


def solve_projected_lsq(
    R: np.ndarray,
    g: np.ndarray,
    policy=LeastSquaresPolicy.STANDARD,
    H: np.ndarray | None = None,
    beta: float | None = None,
) -> tuple[np.ndarray, dict]:
    """Solve for GMRES's solution-update coefficients under a chosen policy.

    Parameters
    ----------
    R : numpy.ndarray
        The ``k x k`` upper-triangular factor from the incremental Givens QR.
    g : numpy.ndarray
        The rotated right-hand side (length ``k`` or ``k+1``; only the first
        ``k`` entries are used by the triangular solve).
    policy : LeastSquaresPolicy or str
        Which of the three policies to apply.  The rank-revealing solves
        truncate at :func:`solve_rank_revealing`'s default tolerance.
    H : numpy.ndarray, optional
        The full ``(k+1) x k`` Hessenberg matrix.  When provided, the
        rank-revealing policy solves the original problem
        ``min ||H y - beta e1||`` directly (equivalent in exact arithmetic to
        solving with ``R``; the paper applies the technique to ``R`` after
        the Givens rotations, which is what happens when ``H`` is omitted).
    beta : float, optional
        Initial residual norm, required when ``H`` is given.

    Returns
    -------
    y : numpy.ndarray
        The update coefficients (length ``k``).
    info : dict
        Diagnostics: ``{"policy", "fallback", "rank", "finite"}`` where
        ``fallback`` is True when the HYBRID policy had to switch to the
        rank-revealing solve.
    """
    policy = LeastSquaresPolicy.coerce(policy)
    R = np.asarray(R, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64).ravel()
    k = R.shape[1]
    rhs = g[:k]
    info = {"policy": policy.value, "fallback": False, "rank": k, "finite": True}

    if policy is LeastSquaresPolicy.STANDARD:
        y = solve_triangular(R, rhs)
        info["finite"] = bool(np.all(np.isfinite(y)))
        return y, info

    if policy is LeastSquaresPolicy.HYBRID:
        y = solve_triangular(R, rhs)
        if np.all(np.isfinite(y)):
            return y, info
        info["fallback"] = True
        y, rank = _rank_revealing_dispatch(R, rhs, H, beta)
        info["rank"] = rank
        info["finite"] = bool(np.all(np.isfinite(y)))
        return y, info

    # RANK_REVEALING
    y, rank = _rank_revealing_dispatch(R, rhs, H, beta)
    info["rank"] = rank
    info["finite"] = bool(np.all(np.isfinite(y)))
    return y, info


def _rank_revealing_dispatch(R, rhs, H, beta) -> tuple[np.ndarray, int]:
    """Solve rank-revealing either on the triangular factor or the full H."""
    if H is not None:
        if beta is None:
            raise ValueError("beta must be provided when solving with the full Hessenberg matrix")
        e1 = np.zeros(H.shape[0], dtype=np.float64)
        e1[0] = float(beta)
        return solve_rank_revealing(H, e1)
    return solve_rank_revealing(R, rhs)
