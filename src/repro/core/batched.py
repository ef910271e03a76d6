"""Trial-batched lockstep execution of nested FT-GMRES fault campaigns.

A fault campaign is hundreds of *independent* nested FT-GMRES solves over the
same ``(A, b, x0)`` that differ only in where a single SDC event strikes.
Solving their inner systems one at a time spends most of its wall time in
per-trial Python and BLAS-1 dispatch overhead: every Arnoldi coefficient is
one ``np.dot`` on one vector, every triangular-solve level touches the sparse
index arrays for one right-hand side.  This module solves the inner systems
of ``B`` trials (the *lanes* of a batch) side by side through *block*
kernels instead:

* each lane's SpMV runs the exact serial kernel on one contiguous row of a
  lanes-major ``(B, n)`` slab,
* each Modified Gram–Schmidt coefficient becomes one ``einsum`` producing all
  ``B`` coefficients at once,
* the incremental Givens QR keeps ``B`` rotation sequences in lockstep
  (:class:`BatchedGivensQR`),
* preconditioners apply through their block kernels
  (``Preconditioner.apply_block``), paying the sparse index traffic once per
  level instead of once per level per trial.

The outer FGMRES loop is the serial code: each lane runs
:func:`repro.core.fgmres.fgmres_steps` from its own
:class:`~repro.core.fgmres.OuterState` (a campaign's failure-free baseline
prefix, as for a serial trial), and one *round* solves the ``q_j`` of every
lane still running, whatever outer iteration each is at, in one lockstep
inner solve.

Fault injection stays *per trial*: each lane of an inner solve owns an
:class:`~repro.core.arnoldi.ArnoldiContext` carrying its trial's
:class:`~repro.faults.injector.FaultInjector` and its own outer iteration
and aggregate offset, and at every lockstep step the lanes whose context
arms are the ones offered to their injectors, through the same
``inject_scalar``/``inject_vector`` the serial engine calls.  Detector
screening is one vectorized
:meth:`~repro.core.detectors.Detector.flag_values` screen per value row (the
conservative predicate the serial Arnoldi step screens with); the (rare)
flagged lanes go through their context's ``screen_scalar``/``screen_vector``,
so injection records, event payloads and responses come from one code path.

Equivalence contract (asserted by the test suite and the campaign benchmark):
per-trial iteration counts, statuses and event streams are identical to the
serial backend, and residual histories agree to ~1e-10 (bit-identical where
the reduction order matches — the sparse and triangular block kernels reduce
in exactly the serial order; the batched MGS dot products and norms of the
inner solves reduce in a different but equally valid order).

Trials whose control flow leaves the lockstep common path — happy breakdown
or early convergence inside an inner solve, the outer breakdown trichotomy,
a residual on the convergence-decision cusp — are *peeled* out of the batch
and reported as unsolved; the campaign layer reruns exactly those trials
through the serial reference implementation.  Correctness therefore never
depends on the batched engine reproducing the rare paths: the fallback *is*
the reference code.
"""

from __future__ import annotations

import numpy as np

from repro.core.arnoldi import HAPPY_BREAKDOWN_TOL, VALID_RESPONSES, ArnoldiContext
from repro.core.detectors import Detector, HessenbergBoundDetector
from repro.core.fgmres import OuterState, fgmres_steps
from repro.core.ftgmres import nested_result
from repro.core.least_squares import LeastSquaresPolicy, solve_projected_lsq
from repro.core.status import (
    ConvergenceHistory,
    NestedSolverResult,
    SolverResult,
    SolverStatus,
)
from repro.precond.base import Preconditioner
from repro.sparse.linear_operator import LinearOperator, aslinearoperator
from repro.specs import SolveSpec

__all__ = [
    "BatchedGivensQR",
    "BatchedArnoldi",
    "BATCHED_SITES",
    "batched_support_reason",
    "batched_ft_gmres",
]

#: Floating-point traps silenced around the lockstep kernels.  The serial
#: solvers produce the same Inf/NaN values through BLAS calls that do not
#: warn; the batched ufunc formulation would otherwise emit RuntimeWarnings
#: for the identical (intentional) non-finite data flow of faulted trials.
_ERRSTATE = {"over": "ignore", "invalid": "ignore",
             "divide": "ignore", "under": "ignore"}

#: Relative half-width of the guard band around convergence targets.  A
#: residual estimate this close to its target sits on a decision cusp where
#: the ~1-ulp gap between the batched (einsum) and serial (BLAS dot)
#: reduction orders could flip the convergence iteration; such lanes are
#: peeled to the serial engine so iteration counts stay *identical*, not
#: just within tolerance.  Ordinary convergence crosses the target by
#: orders of magnitude per iteration, so the band essentially never fires.
TARGET_GUARD_BAND = 1e-9

#: Injected coefficients larger than this factor times the problem scale
#: make the trial numerically *chaotic*: the huge component must cancel in
#: the orthogonalization, so the ~1e-16 relative difference between the
#: batched and the serial reduction order is amplified to an absolute error
#: of ``|h| * 1e-16`` — beyond the engine's 1e-10 equivalence contract once
#: ``|h|`` passes ~1e6x the benign coefficient scale.  Such lanes are peeled
#: to the serial reference engine at injection time.  (With the paper's
#: detector and a filtering response the huge value is zeroed before it can
#: propagate, so detector-on campaigns stay fully batched.)
CHAOS_FACTOR = 1e6


def _row_norms(X: np.ndarray) -> np.ndarray:
    """2-norm of every lane row of ``X`` in one pass (matches serial to rounding)."""
    return np.sqrt(np.einsum("bn,bn->b", X, X))


def _batched_givens(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized twin of :func:`repro.core.least_squares.givens_rotation`.

    Every branch performs the same scalar IEEE-754 operations as the scalar
    routine, in the same precedence order (``b == 0`` first, then ``a == 0``,
    then the non-finite guard), so each lane is bit-identical to the scalar
    result for the same inputs.
    """
    c = np.ones_like(a)
    s = np.zeros_like(a)
    b_zero = b == 0.0
    a_zero = (a == 0.0) & ~b_zero
    nonfinite = ~(np.isfinite(a) & np.isfinite(b)) & ~b_zero & ~a_zero
    general = ~(b_zero | a_zero | nonfinite)
    c[a_zero] = 0.0
    s[a_zero] = 1.0
    c[nonfinite] = np.nan
    s[nonfinite] = np.nan
    big_b = general & (np.abs(b) > np.abs(a))
    big_a = general & ~big_b
    if big_b.any():
        t = a[big_b] / b[big_b]
        sv = 1.0 / np.sqrt(1.0 + t * t)
        c[big_b] = sv * t
        s[big_b] = sv
    if big_a.any():
        t = b[big_a] / a[big_a]
        cv = 1.0 / np.sqrt(1.0 + t * t)
        c[big_a] = cv
        s[big_a] = cv * t
    return c, s


class BatchedGivensQR:
    """``B`` incremental Givens QR factorizations advanced in lockstep.

    The scalar :class:`~repro.core.least_squares.IncrementalGivensQR` rotates
    one growing Hessenberg column per iteration with Python-float arithmetic;
    this twin keeps the rotation state ``(cs, sn, R, g)`` as ``(m, B)`` /
    ``(m+1, m, B)`` arrays and applies every recurrence step to all ``B``
    lanes at once.  Lane ``t`` performs the same sequence of IEEE-754
    operations as a scalar factorization fed column ``t``.

    Parameters
    ----------
    max_columns : int
        Maximum number of columns (the restart length).
    beta : numpy.ndarray
        Per-lane initial residual norms; the right-hand side of lane ``t``
        is ``beta[t] * e_1``.
    """

    def __init__(self, max_columns: int, beta: np.ndarray):
        if max_columns <= 0:
            raise ValueError(f"max_columns must be positive, got {max_columns}")
        beta = np.asarray(beta, dtype=np.float64).ravel()
        m = int(max_columns)
        lanes = beta.shape[0]
        self.max_columns = m
        self.lanes = lanes
        self.k = 0
        self._R = np.zeros((m + 1, m, lanes), dtype=np.float64)
        self._g = np.zeros((m + 1, lanes), dtype=np.float64)
        self._g[0] = beta
        self._cs = np.zeros((m, lanes), dtype=np.float64)
        self._sn = np.zeros((m, lanes), dtype=np.float64)

    def add_column(self, column: np.ndarray) -> np.ndarray:
        """Rotate a new ``(k+2, B)`` Hessenberg column block into all lanes.

        Returns the per-lane residual estimates ``|g_{k+1}|``.
        """
        j = self.k
        if j >= self.max_columns:
            raise RuntimeError("BatchedGivensQR is full; increase max_columns")
        r = np.array(column, dtype=np.float64)
        if r.shape != (j + 2, self.lanes):
            raise ValueError(
                f"column {j} must have shape {(j + 2, self.lanes)}, got {r.shape}")
        cs, sn = self._cs, self._sn
        with np.errstate(**_ERRSTATE):
            for i in range(j):
                c, s = cs[i], sn[i]
                r_i = r[i].copy()
                r_i1 = r[i + 1]
                r[i] = c * r_i + s * r_i1
                r[i + 1] = -s * r_i + c * r_i1
            c, s = _batched_givens(r[j], r[j + 1])
            cs[j] = c
            sn[j] = s
            r[j] = c * r[j] + s * r[j + 1]
            r[j + 1] = 0.0
            self._R[: j + 2, j] = r
            g_j = self._g[j].copy()
            self._g[j] = c * g_j
            self._g[j + 1] = -s * g_j
        self.k = j + 1
        return np.abs(self._g[j + 1])

    # ------------------------------------------------------------------ #
    def lane_R(self, lane: int) -> np.ndarray:
        """The ``k x k`` triangular factor of one lane (a copy-free view)."""
        return self._R[: self.k, : self.k, lane]

    def lane_g(self, lane: int) -> np.ndarray:
        """The rotated right-hand side of one lane, length ``k+1``."""
        return self._g[: self.k + 1, lane]

    def solve_standard(self) -> np.ndarray:
        """Back-substitute ``R y = g`` in every lane simultaneously.

        The lockstep twin of :func:`repro.core.least_squares.solve_triangular`
        (the STANDARD policy): no singularity handling, Inf/NaN propagate —
        the paper's policy 1 relies on IEEE-754 to surface corrupt systems.
        """
        k = self.k
        y = np.zeros((k, self.lanes), dtype=np.float64)
        R, g = self._R, self._g
        with np.errstate(**_ERRSTATE):
            for i in range(k - 1, -1, -1):
                acc = g[i] - np.einsum("jb,jb->b", R[i, i + 1: k], y[i + 1: k])
                y[i] = acc / R[i, i]
        return y


class BatchedArnoldi:
    """The Arnoldi process over ``B`` side-by-side Krylov bases.

    One instance owns the basis block of a single restart cycle, stored
    lanes-major (``(m+1, B, n)``) so each lane's vector is one contiguous
    row: the per-lane SpMVs read and write contiguous memory and the
    lockstep Modified Gram–Schmidt reduces along the fast axis.
    :meth:`step` applies the operator to every active lane and
    orthogonalizes the results together.  Two hooks, one on the raw
    operator product and one per row of coefficients, let the campaign
    driver offer individual lanes to their
    :class:`~repro.core.arnoldi.ArnoldiContext` — the ``spmv``,
    ``hessenberg`` and ``subdiag`` points of
    :func:`repro.core.arnoldi.arnoldi_step`, in the same order.

    Parameters
    ----------
    matvec : callable
        Operator application for one lane (``(n,)`` to ``(n,)``) — the exact
        serial kernel, so each lane's SpMV is bit-identical to a serial run.
    r0 : numpy.ndarray
        Initial residual block, lanes-major ``(B, n)``; row ``t`` seeds lane
        ``t``.
    beta : numpy.ndarray
        Per-lane norms of ``r0`` (the caller computed them already).
    m : int
        Number of Arnoldi steps the basis must accommodate.
    precond_block : callable, optional
        Right preconditioner block application mapping ``(n, B)`` to
        ``(n, B)``; when given the operator applied is ``A M^{-1}``,
        matching the serial solver.
    """

    def __init__(self, matvec, r0: np.ndarray, beta: np.ndarray, m: int,
                 precond_block=None):
        lanes, n = r0.shape
        self.n = n
        self.lanes = lanes
        self.m = int(m)
        self._matvec = matvec
        self._precond_block = precond_block
        self.basis = np.zeros((self.m + 1, lanes, n), dtype=np.float64)
        with np.errstate(**_ERRSTATE):
            self.basis[0] = r0 / beta[:, None]
        self._scratch = np.empty((lanes, n), dtype=np.float64)

    def step(self, j: int, coefficient_hook=None, spmv_hook=None,
             active: np.ndarray | None = None):
        """Perform lockstep Arnoldi step ``j`` for every (active) lane.

        Parameters
        ----------
        j : int
            Step index (0-based); orthogonalizes ``A @ basis[j]``.
        coefficient_hook : callable, optional
            ``hook(j, kind, index, values)`` called once per
            orthogonalization coefficient row with ``kind="hessenberg"``/
            ``index=i`` and once for the subdiagonal norms with
            ``kind="subdiag"``/``index=j+1``.
            Receives the freshly computed per-lane values (a ``(B,)`` array
            it may modify in place, e.g. to inject a fault into one lane or
            zero a detector-flagged lane) and returns the values to use.
        spmv_hook : callable, optional
            ``hook(j, V)`` called with the raw lanes-major operator
            application before orthogonalization — the batched counterpart
            of the serial ``spmv`` detector site (and called in the same
            order relative to the coefficient events).
        active : numpy.ndarray, optional
            Boolean lane mask; the SpMV is skipped for inactive lanes
            (their rows stay zero and the caller ignores them).

        Returns
        -------
        h_block : numpy.ndarray
            The ``(j+2, B)`` Hessenberg column block (post-hook values).
        """
        with np.errstate(**_ERRSTATE):
            rows = self.basis[j]
            lanes = (np.arange(self.lanes) if active is None
                     else np.flatnonzero(active))
            V = np.zeros((self.lanes, self.n), dtype=np.float64)
            if self._precond_block is None:
                for b in lanes:
                    V[b] = self._matvec(rows[b])
            else:
                # The preconditioner (the engine's heaviest per-lane kernel
                # after the SpMV) is applied to the active lanes only.
                Z = np.ascontiguousarray(
                    self._precond_block(rows[lanes].T).T)
                for pos, b in enumerate(lanes):
                    V[b] = self._matvec(Z[pos])
            if spmv_hook is not None:
                spmv_hook(j, V)
            W = V
            h_block = np.zeros((j + 2, self.lanes), dtype=np.float64)
            scratch = self._scratch
            for i in range(j + 1):
                q_i = self.basis[i]
                h = np.einsum("bn,bn->b", q_i, W)
                if coefficient_hook is not None:
                    h = coefficient_hook(j, "hessenberg", i, h)
                h_block[i] = h
                np.multiply(q_i, h[:, None], out=scratch)
                np.subtract(W, scratch, out=W)
            norm_v = np.sqrt(np.einsum("bn,bn->b", W, W))
            if coefficient_hook is not None:
                norm_v = coefficient_hook(j, "subdiag", j + 1, norm_v)
            h_block[j + 1] = norm_v
            # New basis block: lanes with a non-finite norm get the serial
            # engine's poisoned NaN column (arnoldi_step's "not a breakdown"
            # branch); finite-norm lanes are normalized as usual.  Breakdown
            # lanes (tiny finite norm) are the caller's business — it peels
            # them before the next step, so their rows are never read.
            finite = np.isfinite(norm_v)
            q_next = np.divide(W, norm_v[:, None], out=W)
            if not finite.all():
                q_next[~finite, :] = np.nan
            self.basis[j + 1] = q_next
        return h_block

    def zero_lanes(self, j: int, lanes: np.ndarray) -> None:
        """Zero basis row ``j`` of the given lanes (masked-out trials)."""
        if lanes.size:
            self.basis[j][lanes, :] = 0.0

    def update_block(self, Y: np.ndarray) -> np.ndarray:
        """Form the solution updates ``basis[:, :k] @ y`` for every lane.

        ``Y`` has shape ``(k, B)``; the result is the lanes-major ``(B, n)``
        block of per-lane GMRES solution updates.
        """
        k = Y.shape[0]
        out = np.zeros((self.lanes, self.n), dtype=np.float64)
        with np.errstate(**_ERRSTATE):
            for jj in range(k):
                np.multiply(self.basis[jj], Y[jj][:, None], out=self._scratch)
                np.add(out, self._scratch, out=out)
        return out


# ---------------------------------------------------------------------- #
# campaign-facing driver
# ---------------------------------------------------------------------- #
#: Sites the lockstep engine injects lane-exactly: per-coefficient scalars
#: (``hessenberg``) and the per-lane operator product (``spmv``).  A campaign
#: on any other site — ``precond`` (block apply has no lane-exact serial
#: twin), ``givens``/``orth``/``subdiag``/``basis`` — is rejected by
#: :func:`batched_support_reason` and belongs on the serial backend.
BATCHED_SITES = ("hessenberg", "spmv")


def batched_support_reason(spec: SolveSpec, site: str = "hessenberg") -> str | None:
    """Why a campaign configuration cannot run on the lockstep engine.

    Returns ``None`` when the configuration is supported, otherwise a
    human-readable reason.  The lockstep inner solves cover the paper's
    experiment space: MGS orthogonalization, injection on the
    ``hessenberg`` and/or ``spmv`` sites, and an inner detector that is
    either absent or the paper's :class:`HessenbergBoundDetector` (any
    response except ``raise``).  The outer loop is the serial code, so any
    outer configuration runs except a stateful outer detector: every lane
    shares the one detector object, which must therefore be ``vectorized``.
    Anything else belongs on the serial backend.
    """
    sites = tuple(part.strip() for part in str(site).split(",") if part.strip())
    bad = [name for name in sites if name not in BATCHED_SITES]
    if bad or not sites:
        return (f"injection site {site!r} is not lockstep-vectorizable "
                f"(only {list(BATCHED_SITES)} are)")
    inner, outer = spec.gmres_kwargs(), spec.fgmres_kwargs()
    if inner["orthogonalization"] != "mgs":
        return f"inner orthogonalization {inner['orthogonalization']!r} (only 'mgs')"
    if any(d is not None and not isinstance(d, Detector)
           for d in (inner["detector"], outer["detector"])):
        return "detector specs must be resolved before batching"
    if outer["detector"] is not None and not outer["detector"].vectorized:
        return (f"outer detector {type(outer['detector']).__name__} is stateful, "
                "and every lane would share it")
    det = inner["detector"]
    if det is not None:
        if not isinstance(det, HessenbergBoundDetector):
            return (f"inner detector {type(det).__name__} is not vectorizable "
                    "(only HessenbergBoundDetector)")
        if inner["detector_response"] == "raise":
            return "detector_response='raise' aborts mid-batch; use the serial backend"
        if inner["detector_response"] not in VALID_RESPONSES:
            return f"unknown detector_response {inner['detector_response']!r}"
    precond = inner["preconditioner"]
    if precond is not None and not (isinstance(precond, Preconditioner) or callable(precond)
                                    or hasattr(precond, "shape")):
        return "inner preconditioner is not block-applicable"
    return None


def _resolve_block_preconditioner(precond, n: int):
    """A block-apply callable for whatever the inner solver accepts, or None."""
    if precond is None:
        return None
    if isinstance(precond, Preconditioner):
        return precond.apply_block
    if callable(precond):
        def column_loop(X, _apply=precond):
            Z = np.empty_like(X)
            for j in range(X.shape[1]):
                Z[:, j] = _apply(X[:, j])
            return Z
        return column_loop
    op = aslinearoperator(precond)
    if op.shape != (n, n):
        raise ValueError(f"preconditioner shape {op.shape} does not match system size {n}")
    return op.matmat


def _detector_flags(det: HessenbergBoundDetector, values: np.ndarray) -> np.ndarray:
    """One lockstep screen: the detector's conservative vector predicate.

    The same :meth:`~repro.core.detectors.Detector.flag_values` the serial
    Arnoldi step screens with; every lane it flags goes through its
    context's ``screen_scalar``/``screen_vector``, whose verdict is
    authoritative.  The engine's single vectorized screening entry point,
    which ``perfbench``'s tracer times as the batched ``detect`` layer.
    """
    return det.flag_values(values)


class _BatchedNestedSolve:
    """One lockstep execution of B nested FT-GMRES trials."""

    def __init__(self, A, b, x0, spec: SolveSpec, injectors: list):
        self.A, self.b, self.x0 = A, b, x0
        self.op: LinearOperator = aslinearoperator(A)
        n = self.op.shape[0]
        if self.op.shape[0] != self.op.shape[1]:
            raise ValueError(f"batched solves require a square operator, got {self.op.shape}")
        # Benign Arnoldi coefficients are bounded by ||A||_2, for which the
        # norm of the manufactured right-hand side is a same-order proxy;
        # anything CHAOS_FACTOR above it can only be an injected fault whose
        # cancellation would amplify reduction-order noise past the
        # equivalence contract (see CHAOS_FACTOR).
        self.norm_b = float(np.linalg.norm(np.asarray(b, dtype=np.float64).ravel()))
        self._chaos_threshold = CHAOS_FACTOR * max(1.0, self.norm_b)
        self.injectors = injectors
        inner = spec.gmres_kwargs()
        self.outer = spec.fgmres_kwargs()
        self.inner_budget = inner["maxiter"]
        self.inner_tol = float(inner["tol"])
        self.inner_policy = LeastSquaresPolicy.coerce(inner["lsq_policy"])
        self.inner_lsq_tol = inner["lsq_tol"]
        self.detector: HessenbergBoundDetector | None = inner["detector"]
        self.response = inner["detector_response"]
        self.precond_block = _resolve_block_preconditioner(inner["preconditioner"], n)

    # ------------------------------------------------------------------ #
    def _matvec_rows(self, X: np.ndarray, lanes) -> np.ndarray:
        """Apply the operator to the given lanes of a lanes-major block.

        Each lane goes through the exact serial ``matvec`` kernel on its
        contiguous row, so per-lane results are bit-identical to a serial
        solve; lanes not listed stay zero.
        """
        Y = np.zeros_like(X)
        for b in lanes:
            Y[b] = self.op.matvec(X[b])
        return Y

    # ------------------------------------------------------------------ #
    def run(self, states: list[OuterState]) -> list[NestedSolverResult | None]:
        """Run every lane's outer loop from its state; ``None`` marks a peeled lane.

        Each lane's :func:`~repro.core.fgmres.fgmres_steps` pauses at its
        inner solves, and every round answers all paused lanes with one
        lockstep :meth:`_inner_solve`.
        """
        tol = float(self.outer["tol"])
        target = tol * self.norm_b if self.norm_b > 0.0 else tol
        band = TARGET_GUARD_BAND * target

        def on_cusp(value: float) -> bool:
            # Reduction-order noise in the inner solves could flip the
            # convergence verdict of a value this close to the target.
            return bool(np.isfinite(value)) and abs(value - target) <= band

        def keeps(outer: SolverResult, estimate: float) -> bool:
            # A breakdown's rank test is the serial engine's; a solve whose
            # last estimate did not converge takes its status from the final
            # residual.
            if on_cusp(estimate) or outer.status in (SolverStatus.HAPPY_BREAKDOWN,
                                                     SolverStatus.RANK_DEFICIENT):
                return False
            return estimate <= target or not on_cusp(outer.residual_norm)

        results: list[NestedSolverResult | None] = [None] * len(states)
        paused: dict[int, tuple] = {}  # lane -> (steps, j, q_j)
        # The outer loops run under fgmres's errstate (see fgmres_steps).
        with np.errstate(invalid="ignore", over="ignore"):
            for lane, state in enumerate(states):
                steps = fgmres_steps(self.A, self.b, self.x0, state=state, **self.outer)
                try:
                    j, q_j = next(steps)
                except StopIteration:
                    # Converged at the initial guess: the serial engine
                    # handles that in O(1); let it.
                    continue
                if np.isfinite(state.history[0]):  # else a poisoned residual: peel
                    paused[lane] = (steps, j, q_j)
            while paused:
                lanes = list(paused)
                X, peel, inner = self._inner_solve(
                    np.stack([paused[lane][2] for lane in lanes]),
                    [self.injectors[lane] for lane in lanes],
                    [paused[lane][1] for lane in lanes])
                for pos, lane in enumerate(lanes):
                    steps = paused.pop(lane)[0]
                    if peel[pos]:
                        continue
                    state = states[lane]
                    state.inner_results.append(inner[pos])
                    state.events.extend(inner[pos].events)
                    try:
                        j, q_j = steps.send(X[pos])
                    except StopIteration as stop:
                        if keeps(stop.value, state.history[-1]):
                            results[lane] = nested_result(stop.value, state)
                        continue
                    if not on_cusp(state.history[-1]):
                        paused[lane] = (steps, j, q_j)
        return results

    # ------------------------------------------------------------------ #
    def _inner_solve(self, rhs_block: np.ndarray, injectors: list, outer: list[int]):
        """One lockstep batch of inner GMRES solves, one per lane.

        ``rhs_block`` is lanes-major ``(B, n)``; lane ``t`` is the inner
        solve of outer iteration ``outer[t]`` of the trial whose injector is
        ``injectors[t]``.  Returns ``(X, peel, results)`` where ``X`` holds
        the per-lane solutions (lanes-major), ``peel`` marks lanes that left
        the common path, and ``results`` holds per-lane
        :class:`SolverResult` (entries of peeled lanes are ``None``).
        """
        m = self.inner_budget
        tol = self.inner_tol
        lanes, n = rhs_block.shape
        detector, response = self.detector, self.response

        peel = np.zeros(lanes, dtype=bool)
        chaotic = np.zeros(lanes, dtype=bool)
        results: list[SolverResult | None] = [None] * lanes

        norm_rhs = _row_norms(rhs_block)
        target = np.where(norm_rhs > 0.0, tol * norm_rhs, tol)
        # x0 = 0, so the (reliable) initial residual is the RHS itself.
        residual0 = norm_rhs
        histories = np.zeros((m + 1, lanes), dtype=np.float64)
        histories[0] = residual0
        peel |= residual0 <= target          # converged before iterating
        peel |= ~np.isfinite(residual0)      # poisoned RHS
        peel |= residual0 == 0.0             # serial stagnation branch
        alive = ~peel

        beta = residual0
        qr = BatchedGivensQR(m, beta)
        H_arr = (np.zeros((m + 1, m, lanes), dtype=np.float64)
                 if self.inner_policy is not LeastSquaresPolicy.STANDARD else None)
        arnoldi = BatchedArnoldi(self.op.matvec, rhs_block, beta, m,
                                 precond_block=self.precond_block)

        # One ArnoldiContext per lane, positioned on the aggregate axis
        # exactly as the serial inner GMRES of the lane's outer iteration:
        # every injection, screen, event and response of the lane goes
        # through it.
        ctxs = [ArnoldiContext(injector=injector, detector=detector,
                               detector_response=response, outer_iteration=o,
                               inner_solve_index=o, iteration_offset=o * m)
                for injector, o in zip(injectors, outer)]
        chaos_threshold = self._chaos_threshold
        need_pre = detector is not None and response == "recompute"
        armed: list[int] = []   # the lanes whose context armed this step

        def spmv_hook(j: int, V: np.ndarray) -> None:
            # Lane-exact spmv injection: each armed lane's raw operator
            # product (one contiguous row, computed by the exact serial
            # kernel) is offered to its injector *before* the detector
            # screen, the same order as the serial hooked Arnoldi step.
            for pos in armed:
                lane_v = V[pos]
                corrupted = ctxs[pos].inject_vector("spmv", lane_v, iteration=j)
                if corrupted is not lane_v:
                    V[pos] = corrupted
                    # Same chaos gate as huge injected coefficients: the
                    # cancellation of a huge vector component amplifies
                    # reduction-order noise past the equivalence contract.
                    if chaos_threshold < float(np.max(np.abs(corrupted))) < np.inf:
                        chaotic[pos] = True
            if detector is not None:
                flagged = _detector_flags(detector, _row_norms(V)) & alive
                for pos in np.flatnonzero(flagged):
                    ctxs[pos].screen_vector("spmv", V[pos], iteration=j)

        def coefficient_hook(j: int, kind: str, index: int,
                             values: np.ndarray) -> np.ndarray:
            pre = values.copy() if need_pre else None
            if kind == "hessenberg":
                for pos in armed:
                    # A coefficient that cancels to exactly zero in the
                    # lockstep order may be rounding noise in the serial
                    # one, which a scaling fault would blow up there and
                    # leave at zero here: peel the lane.
                    chaotic[pos] |= values[pos] == 0.0
                    values[pos] = ctxs[pos].inject_scalar(
                        "hessenberg", float(values[pos]), iteration=j,
                        mgs_index=index, mgs_length=j + 1)
            if detector is not None and (flagged := _detector_flags(detector, values)).any():
                for pos in np.flatnonzero(flagged & alive):
                    value = float(values[pos])
                    values[pos] = ctxs[pos].screen_scalar(
                        kind, value, iteration=j, mgs_index=index,
                        recompute=lambda pos=pos: pre[pos])
                    if response == "clamp" and values[pos] != value and \
                            chaos_threshold < abs(value) < np.inf:
                        # Clamping a huge fault leaves a bound-scale
                        # coefficient whose downstream cancellation still
                        # amplifies reduction-order noise past the
                        # equivalence contract — peel the lane.
                        chaotic[pos] = True
            if kind == "hessenberg":
                # Chaos gate: a surviving injected coefficient this far
                # above the benign scale makes the lane's trajectory
                # hypersensitive to reduction order — peel it to the
                # serial reference instead of shipping ~1e-10-violating
                # results.  (Filtering responses never reach here with a
                # huge value; NaN/Inf propagate order-independently and
                # stay in the batch.)
                for pos in armed:
                    if chaos_threshold < abs(values[pos]) < np.inf:
                        chaotic[pos] = True
            return values

        for j in range(m):
            armed = [pos for pos in np.flatnonzero(alive) if ctxs[pos].arm(j)]
            hooked = bool(armed) or detector is not None
            h_block = arnoldi.step(j, coefficient_hook=coefficient_hook if hooked else None,
                                   spmv_hook=spmv_hook if hooked else None,
                                   active=alive)
            if H_arr is not None:
                H_arr[: j + 2, j] = h_block
            resid_est = qr.add_column(h_block)
            histories[j + 1] = resid_est

            norm_v = h_block[j + 1]
            scale = np.maximum(np.max(np.abs(h_block[: j + 1]), axis=0), 1.0)
            with np.errstate(**_ERRSTATE):
                breakdown = np.isfinite(norm_v) & (norm_v <= HAPPY_BREAKDOWN_TOL * scale)
                finite_est = np.isfinite(resid_est)
                # Early convergence AND the guard band around it: a lane
                # whose estimate sits within reduction-order noise of the
                # target could converge a step earlier/later than serial.
                early = finite_est & (resid_est <= target)
                early |= finite_est & \
                    (np.abs(resid_est - target) <= TARGET_GUARD_BAND * target)
            newly_out = (breakdown | early | chaotic) & alive
            if newly_out.any():
                peel |= newly_out
                alive &= ~newly_out
                if not alive.any():
                    return (np.zeros((lanes, n), dtype=np.float64), peel, results)
                arnoldi.zero_lanes(j + 1, np.flatnonzero(~alive))

        # ----- projected least-squares solve and solution update ----------
        fallback = np.zeros(lanes, dtype=bool)
        finite_y = np.ones(lanes, dtype=bool)
        if self.inner_policy is LeastSquaresPolicy.STANDARD:
            Y = qr.solve_standard()
            finite_y = np.all(np.isfinite(Y), axis=0)
        else:
            Y = np.zeros((m, lanes), dtype=np.float64)
            for pos in np.flatnonzero(alive):
                y, info = solve_projected_lsq(
                    qr.lane_R(pos), qr.lane_g(pos), policy=self.inner_policy,
                    tol=self.inner_lsq_tol, H=H_arr[: m + 1, :m, pos],
                    beta=float(beta[pos]))
                Y[:, pos] = y
                fallback[pos] = bool(info.get("fallback"))
                finite_y[pos] = bool(info.get("finite", True))
        for pos in np.flatnonzero(alive):
            if fallback[pos]:
                ctxs[pos].record("lsq_fallback", where="least_squares",
                                 outer_iteration=outer[pos], inner_iteration=m)
            if not finite_y[pos]:
                ctxs[pos].record("lsq_nonfinite", where="least_squares",
                                 outer_iteration=outer[pos], inner_iteration=m)

        update = arnoldi.update_block(Y)
        if self.precond_block is not None:
            with np.errstate(**_ERRSTATE):
                live = np.flatnonzero(alive)
                preconditioned = np.zeros_like(update)
                preconditioned[live] = np.ascontiguousarray(
                    self.precond_block(update[live].T).T)
                update = preconditioned
        with np.errstate(**_ERRSTATE):
            X = update + 0.0  # x0 + update with x0 = 0, exactly as serial
            R_final = rhs_block - self._matvec_rows(X, lanes=np.flatnonzero(alive))
        residual_final = _row_norms(R_final)

        for pos in np.flatnonzero(alive):
            history = ConvergenceHistory()
            history.residual_norms = [float(v) for v in histories[:, pos]]
            results[pos] = SolverResult(
                x=X[pos].copy(),
                status=SolverStatus.MAX_ITERATIONS,
                iterations=m,
                residual_norm=float(residual_final[pos]),
                history=history,
                events=ctxs[pos].events,
                matvecs=m + 2,
            )
        return X, peel, results


def batched_ft_gmres(A, b, x0, spec: SolveSpec, injectors: list,
                     states: list | None = None) -> list[NestedSolverResult | None]:
    """Run a batch of independent nested FT-GMRES trials in lockstep.

    Parameters
    ----------
    A, b, x0 : system
        Shared by every trial (a fault campaign solves one fixed system).
    spec : SolveSpec
        The nested-solver configuration (a ``method="ft_gmres"`` spec with
        resolved components), shared by every trial.  Must be supported by
        the lockstep engine — check with :func:`batched_support_reason` first.
    injectors : list of FaultInjector
        One per trial; the batch width ``B`` is ``len(injectors)``.  Each
        lane consults its injector through an
        :class:`~repro.core.arnoldi.ArnoldiContext` on the steps it arms.
    states : list of OuterState or None, optional
        Each lane's outer state, as :func:`~repro.core.ftgmres.ft_gmres`'s
        ``state``: a prefix of the failure-free solve's resumes it there,
        and ``None`` (or ``states=None``) starts afresh.

    Returns
    -------
    list of NestedSolverResult or None
        One entry per trial, in input order.  ``None`` marks a trial that
        left the lockstep common path (breakdown, early inner convergence, a
        residual on the convergence cusp); the caller must rerun it through
        the serial reference engine.
    """
    if not injectors:
        return []
    states = [OuterState() if state is None else state
              for state in (states or [None] * len(injectors))]
    return _BatchedNestedSolve(A, b, x0, spec, injectors).run(states)
