"""The Arnoldi process with fault-injection hooks and invariant checking.

This is the computational heart of GMRES (Algorithm 1, lines 3–14 of the
paper).  Each :func:`arnoldi_step` takes the current orthonormal basis,
applies the operator, orthogonalizes the new vector, and returns the new
Hessenberg column — while giving a fault injector the chance to corrupt the
intermediate quantities at named sites and giving a detector the chance to
check each orthogonalization coefficient against the paper's bound.

:class:`ArnoldiContext` is the library's one injection-and-screen path:
every fault is offered, recorded, screened and answered through it, by the
inner GMRES, by FGMRES's outer step and by each lane of the batched engine
(:mod:`repro.core.batched`), so their event payloads cannot drift apart.

Injection sites (strings used by :mod:`repro.faults`):

========== ==============================================================
site        quantity
========== ==============================================================
``spmv``        the vector ``v = A q_j`` (line 4)
``precond``     the preconditioned vector ``z = M^{-1} q_j`` (consulted by
                the preconditioned solvers' operator closures, which call
                :meth:`ArnoldiContext.inject_vector` with the current step)
``hessenberg``  an orthogonalization coefficient ``h_ij`` (line 6)
``orth``        the orthogonalized (not yet normalized) vector
                ``v - sum_i h_ij q_i`` (line 8)
``subdiag``     the subdiagonal entry ``h_{j+1,j} = ||v||`` (line 9)
``basis``       the normalized new basis vector ``q_{j+1}`` (line 14)
``givens``      a Givens rotation coefficient ``c``/``s`` of the
                incremental QR update (consulted by the least-squares
                layer, see :mod:`repro.core.least_squares`)
========== ==============================================================

Every site receives the full iteration context (outer iteration, inner-solve
index, local and aggregate inner iteration), so schedules address any site
with the same coordinates the paper's sweep figures use.  Only the
``hessenberg`` coefficients and the two ``givens`` coefficients carry an MGS
position; the subdiagonal, like the vector sites, is one value per step.

Arm-at-step: each step first asks the injector (:meth:`ArnoldiContext.arm`)
whether any of its sites can fire.  An unarmed step makes no injector
consults: an MGS coefficient costs one BLAS dot and two in-place ufunc
calls, each norm is ``math.sqrt(w.dot(w))`` (``np.linalg.norm``'s own
formula), and a vectorized detector screens the step's values in one call.
A paper trial's single fault arms one step out of the whole nested solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.detectors import Detector
from repro.core.exceptions import FaultDetectedError
from repro.results.events import Event, EventSink, ensure_sink
from repro.sparse.linear_operator import LinearOperator

__all__ = ["ArnoldiContext", "arnoldi_step", "arnoldi_process", "HAPPY_BREAKDOWN_TOL"]

#: Relative tolerance below which ``h_{j+1,j}`` is treated as zero
#: ("happy breakdown", line 10 of Algorithm 1).
HAPPY_BREAKDOWN_TOL = 1e-14

#: Detector response policies accepted by :class:`ArnoldiContext`.
VALID_RESPONSES = ("flag", "zero", "clamp", "recompute", "raise")


@dataclass
class ArnoldiContext:
    """Shared state threaded through Arnoldi steps: the one place a fault
    is offered (:meth:`inject_scalar`, :meth:`inject_vector`), recorded as a
    ``fault_injected`` event, screened (:meth:`screen_scalar`,
    :meth:`screen_vector`), recorded as a ``fault_detected`` event and
    answered by the response policy.

    One context serves one solve: an inner GMRES, the outer step of FGMRES
    (whose screen passes ``scale=||z_j||``), or one lane of one batched
    inner solve, whose engine asks each lane's :meth:`arm` per step.

    Attributes
    ----------
    injector : object or None
        A fault injector implementing ``corrupt_scalar(site, value, **ctx)``
        and ``corrupt_vector(site, vec, **ctx)`` (see
        :class:`repro.faults.injector.FaultInjector`), and optionally
        ``armed(**step_ctx)`` (see :meth:`arm`).  ``None`` disables
        injection.
    detector : Detector or None
        Invariant checker applied to every Hessenberg coefficient.  ``None``
        disables detection.  A ``vectorized`` detector screens an unarmed
        step (spmv norm, coefficients, subdiagonal) in one
        :meth:`~repro.core.detectors.Detector.flags_any` call.
    detector_response : str
        What to do when the detector flags a value:

        * ``"flag"``      — record the event and keep the corrupted value
          (detection only, no response; the paper's plots marked
          "would not be possible with the detector" come from comparing this
          mode against a responding mode);
        * ``"zero"``      — replace the flagged value with 0 (filtering);
        * ``"clamp"``     — replace with ``sign(value) * bound``;
        * ``"recompute"`` — recompute the coefficient from its operands
          (valid under the transient-SDC model, where inputs are untainted);
        * ``"raise"``     — raise :class:`FaultDetectedError` (halt the
          solve and report loudly).

        A flagged vector (:meth:`screen_vector`) is recorded under every
        policy and answered only by ``"raise"``.
    events : list of Event
        Every event this solve recorded, in order (see :meth:`record`).
    sink : EventSink, callable, list, or None
        Where each recorded event is also emitted, the moment it is
        recorded; anything :func:`~repro.results.events.ensure_sink`
        accepts.  ``None`` keeps the events on :attr:`events` only.
    outer_iteration : int
        Index of the enclosing outer (FGMRES) iteration, or -1.
    inner_solve_index : int
        Index of the enclosing inner solve, or -1.
    iteration_offset : int
        Added to the local iteration index to form the "aggregate inner
        iteration" coordinate used by the paper's sweep figures.
    matvecs : int
        Running count of operator applications.
    current_iteration : int
        The local iteration of the Arnoldi step currently executing
        (maintained by :meth:`arm`).  Lets code *called from inside* a
        step — the preconditioner closure, the Givens hook — report real
        iteration context to the injector instead of a placeholder.
    armed : bool
        Whether the injector may fire during the current step (maintained
        by :meth:`arm`).  Code called from inside a step consults the
        injector only when it is set.
    """

    injector: object | None = None
    detector: Detector | None = None
    detector_response: str = "flag"
    events: list[Event] = field(default_factory=list)
    sink: EventSink | None = None
    outer_iteration: int = -1
    inner_solve_index: int = -1
    iteration_offset: int = 0
    matvecs: int = 0
    current_iteration: int = -1
    armed: bool = False

    def __post_init__(self) -> None:
        if self.detector_response not in VALID_RESPONSES:
            raise ValueError(
                f"detector_response must be one of {VALID_RESPONSES}, "
                f"got {self.detector_response!r}"
            )
        self.sink = ensure_sink(self.sink)

    def record(self, kind: str, where: str = "", outer_iteration: int = -1,
               inner_iteration: int = -1, **data) -> None:
        """Append an event to :attr:`events`, then emit it to :attr:`sink`."""
        event = Event(kind, where=where, outer_iteration=outer_iteration,
                      inner_iteration=inner_iteration, data=data)
        self.events.append(event)
        if self.sink is not None:
            self.sink.emit(event)

    # ------------------------------------------------------------------ #
    # injection / detection plumbing
    # ------------------------------------------------------------------ #
    def _ctx_kwargs(self, iteration: int, mgs_index: int) -> dict:
        return {
            "outer_iteration": self.outer_iteration,
            "inner_solve_index": self.inner_solve_index,
            "inner_iteration": iteration,
            "aggregate_inner_iteration": self.iteration_offset + iteration,
            "mgs_index": mgs_index,
        }

    def arm(self, iteration: int) -> bool:
        """Enter step ``iteration`` and decide once whether it can fault.

        Sets :attr:`current_iteration` and :attr:`armed`.  The injector's
        optional ``armed(outer_iteration=..., inner_solve_index=...,
        inner_iteration=..., aggregate_inner_iteration=...)`` decides; an
        injector without it counts as always armed.
        """
        self.current_iteration = iteration
        probe = getattr(self.injector, "armed", None)
        if probe is None:
            self.armed = self.injector is not None
        else:
            self.armed = bool(probe(
                outer_iteration=self.outer_iteration,
                inner_solve_index=self.inner_solve_index,
                inner_iteration=iteration,
                aggregate_inner_iteration=self.iteration_offset + iteration,
            ))
        return self.armed

    def inject_scalar(self, site: str, value: float, iteration: int, mgs_index: int = -1,
                      mgs_length: int = 0) -> float:
        """Offer ``value`` to the injector; record an event if it was corrupted."""
        if self.injector is None:
            return value
        kwargs = self._ctx_kwargs(iteration, mgs_index)
        kwargs["mgs_length"] = mgs_length
        corrupted = self.injector.corrupt_scalar(site, value, **kwargs)
        if corrupted != value and not (np.isnan(corrupted) and np.isnan(value)):
            self.record(
                "fault_injected", where=site,
                outer_iteration=self.outer_iteration, inner_iteration=iteration,
                original=float(value), corrupted=float(corrupted), mgs_index=mgs_index,
                aggregate_inner_iteration=kwargs["aggregate_inner_iteration"],
            )
        return corrupted

    def inject_vector(self, site: str, vec: np.ndarray, iteration: int) -> np.ndarray:
        """Offer a vector to the injector; record an event if it was corrupted."""
        if self.injector is None:
            return vec
        kwargs = self._ctx_kwargs(iteration, -1)
        corrupted = self.injector.corrupt_vector(site, vec, **kwargs)
        if corrupted is not vec and not np.array_equal(corrupted, vec, equal_nan=True):
            self.record(
                "fault_injected", where=site,
                outer_iteration=self.outer_iteration, inner_iteration=iteration,
                aggregate_inner_iteration=kwargs["aggregate_inner_iteration"],
            )
            return corrupted
        return vec

    def inject_givens(self, c: float, s: float) -> tuple[float, float]:
        """The ``givens`` site of the current step: offer both coefficients."""
        it = self.current_iteration
        c = self.inject_scalar("givens", c, iteration=it, mgs_index=0, mgs_length=2)
        s = self.inject_scalar("givens", s, iteration=it, mgs_index=1, mgs_length=2)
        return c, s

    def consult_coefficient(self, site: str, value: float, iteration: int, mgs_index: int,
                            mgs_length: int, recompute=None, scale: float = 1.0) -> float:
        """One orthogonalization coefficient on the hooked path: offered to
        the injector at the ``hessenberg`` site when the step is armed, then
        screened under ``site`` (see :meth:`screen_scalar`)."""
        if self.armed:
            value = self.inject_scalar("hessenberg", value, iteration=iteration,
                                       mgs_index=mgs_index, mgs_length=mgs_length)
        return self.screen_scalar(site, value, iteration=iteration, mgs_index=mgs_index,
                                  recompute=recompute, scale=scale)

    @property
    def givens_hook(self):
        """The current step's ``givens_hook`` for the Givens QR update.

        :meth:`inject_givens` on an armed step, ``None`` (no hook, identical
        arithmetic) otherwise.
        """
        return self.inject_givens if self.armed else None

    def screen_scalar(self, site: str, value: float, iteration: int, mgs_index: int,
                      recompute=None, scale: float = 1.0) -> float:
        """Run the detector on ``value`` and apply the response policy.

        Parameters
        ----------
        recompute : callable, optional
            Zero-argument callable returning a freshly computed value; used
            by the ``"recompute"`` response.  ``None`` keeps ``value`` (the
            FGMRES outer step has nothing to recompute reliably).
        scale : float
            The detector checks ``value / scale`` (``value`` itself when
            ``scale`` is not positive), and ``"clamp"`` answers with
            ``sign(value) * bound * scale``.  FGMRES passes ``||z_j||``: its
            outer coefficients satisfy ``|h_ij| <= ||A||_2 ||z_j||``.
        """
        if self.detector is None:
            return value
        verdict = self.detector.check_scalar(value / scale if scale > 0.0 else value,
                                             site=site)
        if not verdict.flagged:
            return value
        self.record(
            "fault_detected", where=site,
            outer_iteration=self.outer_iteration, inner_iteration=iteration,
            mgs_index=mgs_index, response=self.detector_response,
            aggregate_inner_iteration=self.iteration_offset + iteration,
            **{**verdict.event_data(), "value": float(value)},
        )
        if self.detector_response == "flag":
            return value
        if self.detector_response == "zero":
            return 0.0
        if self.detector_response == "clamp":
            bound = verdict.bound * scale if np.isfinite(verdict.bound) else 0.0
            return float(np.sign(value) * bound) if np.isfinite(value) else 0.0
        if self.detector_response == "recompute":
            return value if recompute is None else float(recompute())
        raise FaultDetectedError(verdict)

    def screen_vector(self, site: str, vec: np.ndarray, iteration: int) -> None:
        """Run the detector on a vector (by its 2-norm) and record a detection.

        A flagged vector is recorded under every response policy; only
        ``"raise"`` answers it (by raising :class:`FaultDetectedError`).
        """
        if self.detector is None:
            return
        verdict = self.detector.check_vector(vec, site=site)
        if not verdict.flagged:
            return
        self.record(
            "fault_detected", where=site, outer_iteration=self.outer_iteration,
            inner_iteration=iteration, reason=verdict.reason, detector=verdict.detector,
            response=self.detector_response,
        )
        if self.detector_response == "raise":
            raise FaultDetectedError(verdict)


# ---------------------------------------------------------------------- #
# single Arnoldi step
# ---------------------------------------------------------------------- #
def arnoldi_step(
    op: LinearOperator,
    basis: np.ndarray,
    j: int,
    ctx: ArnoldiContext,
    orthogonalization: str = "mgs",
    apply_operator=None,
    workspace: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Perform the ``j``-th Arnoldi step (0-based).

    Parameters
    ----------
    op : LinearOperator
        The (possibly preconditioned) operator.
    basis : numpy.ndarray
        Array of shape ``(n, >= j+2)`` whose first ``j+1`` columns are the
        current orthonormal basis; column ``j+1`` is overwritten with the new
        basis vector when no breakdown occurs.
    j : int
        Step index; the step orthogonalizes ``A @ basis[:, j]``.
    ctx : ArnoldiContext
        Injection/detection context.
    orthogonalization : {"mgs", "cgs", "cgs2"}
        Modified Gram–Schmidt (the paper's choice), classical Gram–Schmidt,
        or re-orthogonalized classical Gram–Schmidt.
    apply_operator : callable, optional
        Override for the operator application, used by
        :func:`~repro.core.gmres.gmres` for a right-preconditioned operator
        ``A @ M^{-1}`` (with the ``precond`` injection site) and for its
        profiled products.  Receives the basis vector, returns the vector to
        orthogonalize.
    workspace : numpy.ndarray, optional
        Length-``n`` float64 scratch for the MGS axpy buffer.  Callers that
        run many steps per solve (GMRES cycles) allocate it once instead of
        paying one allocation per step; contents are clobbered.

    Faulted data legitimately turn non-finite (NaN/Inf propagation is the
    documented contract), so the solvers run their steps under
    ``np.errstate(invalid="ignore", over="ignore")``: once per solve, not
    once per step.  Standalone callers set the error state they want.

    Returns
    -------
    h_col : numpy.ndarray
        The ``j+2`` Hessenberg entries ``h_{1..j+2, j+1}`` (last entry is the
        subdiagonal norm).
    q_next : numpy.ndarray or None
        The new unit basis vector (column ``j+1`` of ``basis``), or ``None``
        on (happy) breakdown.
    breakdown : bool
        True when ``h_{j+1,j}`` is numerically zero.
    """
    if orthogonalization not in ("mgs", "cgs", "cgs2"):
        raise ValueError(
            f"orthogonalization must be 'mgs', 'cgs' or 'cgs2', got {orthogonalization!r}"
        )
    # Arm-at-step: the injector decides once whether this step can fault.
    # An unarmed step makes no injector consults; a vectorized detector then
    # screens every value of the step in one call.  Anything flagged, an
    # armed step, or a stateful detector takes the hooked path, which
    # replays the step from the untouched post-spmv vector ``v`` through the
    # same loop with its consults switched on, so a replay's responses and
    # events are exactly the hooked path's.
    armed = ctx.arm(j)
    detector = ctx.detector

    q_j = basis[:, j]
    if apply_operator is None:
        v = op.matvec(q_j)
    else:
        v = np.asarray(apply_operator(q_j), dtype=np.float64)
    ctx.matvecs += 1

    Q = basis[:, : j + 1]
    scratch = workspace if workspace is not None else np.empty(v.shape[0])
    hooked = armed or (detector is not None and not detector.vectorized)
    if not hooked:
        h_col, norm_v, w, screen = _orthogonalize(Q, v, orthogonalization, scratch,
                                                  screened=detector is not None)
        if detector is not None:
            hooked = detector.flags_any(screen)
    if hooked:
        if armed:
            v = ctx.inject_vector("spmv", v, iteration=j)
        ctx.screen_vector("spmv", v, iteration=j)
        h_col, norm_v, w, _ = _orthogonalize(Q, v, orthogonalization, scratch, ctx=ctx, j=j)

    if not math.isfinite(norm_v):
        # A non-finite norm is not a breakdown; poison the next basis vector
        # so the caller's NaN handling (or the detector) deals with it.
        q_next = basis[:, j + 1]
        q_next.fill(np.nan)
        return h_col, q_next, False
    # The test is relative to max(|h_ij|, 1).  Twice sqrt(sum h_ij^2)
    # bounds max |h_ij| from above despite rounding, so the exact reduction
    # runs only for a norm that bound cannot clear.  A NaN coefficient makes
    # the bound NaN, which vetoes the breakdown as the exact scale would.
    coeffs = h_col[: j + 1]
    if (norm_v <= HAPPY_BREAKDOWN_TOL * 2.0 * max(math.sqrt(coeffs.dot(coeffs)), 1.0)
            and norm_v <= HAPPY_BREAKDOWN_TOL * max(np.abs(coeffs).max(), 1.0)):
        ctx.record("happy_breakdown", where="subdiag",
                   outer_iteration=ctx.outer_iteration, inner_iteration=j,
                   value=norm_v)
        return h_col, None, True

    q_next = np.divide(w, norm_v, out=basis[:, j + 1])
    if armed:
        q_next = ctx.inject_vector("basis", q_next, iteration=j)
        basis[:, j + 1] = q_next
    return h_col, q_next, False


def _orthogonalize(Q, v, orthogonalization, scratch, ctx=None, j=-1, screened=False):
    """Orthogonalize ``v`` against the columns of ``Q``: one Arnoldi step's loop.

    Returns ``(h_col, norm_w, w, screen)``: the Hessenberg column (the
    coefficients, then ``norm_w = ||w||``), that norm, the orthogonalized
    vector ``w`` and, when ``screened``, every value a vectorized detector
    checks for the step (each pass's coefficients, ``norm_w``, then
    ``||v||``).  Without ``ctx`` an MGS coefficient costs one BLAS dot and
    two in-place ufunc calls.  With it (the hooked path) every coefficient
    and the ``orth`` and ``subdiag`` sites are offered to the armed step's
    injector and screened one value at a time.  Both perform the identical
    floating-point operations.
    """
    w = v.copy()
    k = Q.shape[1]
    # ||v|| of the contiguous copy: np.linalg.norm's own formula and operand.
    spmv_norm = math.sqrt(w.dot(w)) if screened else 0.0
    if orthogonalization == "mgs":
        coeffs = []
        for q_i in Q.T:
            h = q_i.dot(w)
            if ctx is not None:
                h = ctx.consult_coefficient("hessenberg", float(h), j, len(coeffs), k,
                                            recompute=lambda q_i=q_i: q_i.dot(w))
            coeffs.append(h)
            np.multiply(q_i, h, out=scratch)
            np.subtract(w, scratch, out=w)
    else:
        passes = []
        for _ in range(2 if orthogonalization == "cgs2" else 1):
            coeffs = Q.T @ w
            if ctx is not None:
                for i in range(k):
                    coeffs[i] = ctx.consult_coefficient(
                        "hessenberg", float(coeffs[i]), j, i, k,
                        recompute=lambda i=i: Q[:, i].dot(w))
            w = w - Q @ coeffs
            passes.append(coeffs)
    # The orthogonalized-but-unnormalized vector is its own site: a fault
    # here lands *after* the coefficients were computed cleanly, a
    # different propagation path than spmv or hessenberg corruption.
    if ctx is not None and ctx.armed:
        w = ctx.inject_vector("orth", w, iteration=j)
    norm_w = math.sqrt(w.dot(w))
    if ctx is not None:
        if ctx.armed:
            norm_w = ctx.inject_scalar("subdiag", norm_w, iteration=j)
        norm_w = ctx.screen_scalar("subdiag", norm_w, iteration=j, mgs_index=k,
                                   recompute=lambda: math.sqrt(w.dot(w)))
    if orthogonalization == "mgs":
        screen = np.array([*coeffs, norm_w, spmv_norm])
        return screen[: k + 1], norm_w, w, screen
    h_col = np.zeros(k + 1)
    for coeffs in passes:
        h_col[:k] += coeffs
    h_col[k] = norm_w
    return h_col, norm_w, w, np.concatenate((*passes, (norm_w, spmv_norm)))


# ---------------------------------------------------------------------- #
# standalone Arnoldi factorization
# ---------------------------------------------------------------------- #
def arnoldi_process(
    A,
    v0: np.ndarray,
    m: int,
    orthogonalization: str = "mgs",
    ctx: ArnoldiContext | None = None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Run ``m`` Arnoldi steps starting from ``v0``.

    Returns the basis ``Q`` (``n x (k+1)``), the Hessenberg matrix ``H``
    (``(k+1) x k``), and a breakdown flag, where ``k <= m`` is the number of
    completed steps.  Used directly by the Figure 2 structure experiment and
    by tests of the Arnoldi relation ``A Q_k = Q_{k+1} H_k``.
    """
    from repro.sparse.linear_operator import aslinearoperator

    op = aslinearoperator(A)
    v0 = np.asarray(v0, dtype=np.float64).ravel()
    n = op.shape[1]
    if v0.shape[0] != n:
        raise ValueError(f"v0 has length {v0.shape[0]}, expected {n}")
    beta = float(np.linalg.norm(v0))
    if beta == 0.0:
        raise ValueError("v0 must be nonzero")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    m = min(m, n)
    ctx = ctx or ArnoldiContext()

    basis = np.zeros((n, m + 1), dtype=np.float64, order="F")
    basis[:, 0] = v0 / beta
    H = np.zeros((m + 1, m), dtype=np.float64)
    breakdown = False
    k = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(m):
            h_col, q_next, breakdown = arnoldi_step(op, basis, j, ctx,
                                                    orthogonalization=orthogonalization)
            H[: j + 2, j] = h_col
            k = j + 1
            if breakdown or q_next is None:
                break
    return basis[:, : k + 1], H[: k + 1, : k], breakdown
