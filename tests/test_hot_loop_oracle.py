"""The inner solve's hot loop against its plain-NumPy oracle, bit for bit.

The unarmed Arnoldi step, the Givens rotation and update, the
back-substitution, the GMRES cycle loop and FGMRES's outer step run with
as little NumPy dispatch as they can (``ndarray.dot``, in-place ufuncs,
``math.sqrt`` and Python floats in the Givens recurrence), and promise the
floating-point operations of their plain-NumPy form in the same order.  The
fast-vs-hooked tests compare two branches of one loop, so they cannot see a
change that moves both; these compare against :mod:`reference`
(``np.dot``, ``w - h * q``, ``np.linalg.norm``, ``np.sqrt``), byte for
byte, with every NaN mapped to one NaN (a NaN's sign bit is not part of the
contract).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from reference import (
    ReferenceGivensQR,
    reference_arnoldi_step,
    reference_breakdown,
    reference_fgmres,
    reference_givens_rotation,
    reference_gmres,
    reference_solve_triangular,
)
from repro.core.arnoldi import ArnoldiContext, arnoldi_step
from repro.core.fgmres import OuterState, fgmres
from repro.core.gmres import gmres
from repro.core.hessenberg import HessenbergMatrix
from repro.core.least_squares import givens_rotation, solve_triangular
from repro.gallery.problems import circuit_problem, poisson_problem
from repro.registry import resolve_preconditioner
from repro.sparse.linear_operator import MatrixFreeOperator


def bits(values) -> bytes:
    """The float64 bytes of ``values``, every NaN mapped to one NaN."""
    a = np.array(values, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def assert_same(got, want, what: str) -> None:
    assert np.shape(got) == np.shape(want), what
    assert bits(got) == bits(want), what


def _problem(name: str):
    """``(matvec, n)`` of a named operator; ``circuit300-ilu`` is ``A M^{-1}``."""
    if name == "poisson100":
        A = poisson_problem(grid_n=10).A
        return A.matvec, A.shape[0]
    if name == "poisson900":
        A = poisson_problem(grid_n=30).A
        return A.matvec, A.shape[0]
    A = circuit_problem(n_nodes=300).A
    M = resolve_preconditioner("ilu0", A=A)
    return (lambda q: A.matvec(M.apply(q))), A.shape[0]


def _start_basis(n: int, m: int, start: np.ndarray) -> np.ndarray:
    basis = np.zeros((n, m + 1), order="F")
    basis[:, 0] = start
    return basis


def _library_cycle(matvec, n, start, m, beta=1.0) -> dict:
    """Up to ``m`` library Arnoldi steps from ``start`` (stopping at a
    breakdown), their Givens QR and back-substitution."""
    op = MatrixFreeOperator((n, n), matvec)
    basis = _start_basis(n, m, start)
    ctx, hess, workspace = ArnoldiContext(), HessenbergMatrix(m, beta), np.empty(n)
    estimates, flags = [], []
    for j in range(m):
        h_col, q_next, breakdown = arnoldi_step(op, basis, j, ctx, workspace=workspace)
        estimates.append(hess.add_column(h_col))
        flags.append((breakdown, q_next is None))
        if breakdown:
            break
    y, _ = hess.solve_y()
    return {"Q": basis, "H": hess.H, "R": hess.R, "g": hess.g, "y": y,
            "estimates": estimates, "flags": flags}


def _reference_cycle(matvec, n, start, m, beta=1.0) -> dict:
    """:func:`_library_cycle` through the references."""
    basis = _start_basis(n, m, start)
    qr, H = ReferenceGivensQR(m, beta), np.zeros((m + 1, m))
    estimates, flags = [], []
    for j in range(m):
        h_col, q_next, breakdown = reference_arnoldi_step(matvec, basis, j)
        H[: j + 2, j] = h_col
        estimates.append(qr.add_column(h_col))
        flags.append((breakdown, q_next is None))
        if breakdown:
            break
    k = len(flags)
    R, g = qr.R[:k, :k], qr.g[: k + 1]
    return {"Q": basis, "H": H[: k + 1, :k], "R": R, "g": g,
            "y": reference_solve_triangular(R, g), "estimates": estimates, "flags": flags}


def _assert_cycles_match(matvec, n, start, m):
    lib = _library_cycle(matvec, n, start, m)
    ref = _reference_cycle(matvec, n, start, m)
    assert lib["flags"] == ref["flags"]
    for key in ("Q", "H", "R", "g", "y", "estimates"):
        assert_same(lib[key], ref[key], key)
    return lib


def _random_start(n: int, seed: int = 3) -> np.ndarray:
    start = np.random.default_rng(seed).standard_normal(n)
    return start / np.linalg.norm(start)


# ---------------------------------------------------------------------- #
# the Arnoldi cycle: H, Q, R, g, y and the residual estimates
# ---------------------------------------------------------------------- #
class TestArnoldiCycle:
    @pytest.mark.parametrize("name", ["poisson100", "poisson900", "circuit300-ilu"])
    def test_paper_problems(self, name):
        matvec, n = _problem(name)
        lib = _assert_cycles_match(matvec, n, _random_start(n), 30)
        assert not any(breakdown for breakdown, _ in lib["flags"])

    @pytest.mark.parametrize("poison", ["nan", "inf", "-inf", "huge", "subnormal"])
    def test_poisoned_start_vectors(self, poison):
        matvec, n = _problem("poisson100")
        start = _random_start(n)
        if poison == "huge":
            start *= 1e300
        elif poison == "subnormal":
            start *= 1e-310
        else:
            start[5] = float(poison)
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_cycles_match(matvec, n, start, 12)

    def test_exact_happy_breakdown(self):
        d = np.array([2.0, 3.0, 5.0, 7.0, 11.0])
        start = np.zeros(5)
        start[0] = 1.0
        lib = _assert_cycles_match(lambda q: d * q, 5, start, 4)
        assert lib["flags"] == [(True, True)]

    @pytest.mark.parametrize("h", [0.5, 1.0, -1e20, 3e160])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_relative_breakdown_threshold(self, h, nudge):
        """A step whose norm sits at, just under or just over
        ``1e-14 * max(|h|, 1)`` breaks down exactly when the oracle does
        (``3e160`` overflows the sum of squares)."""
        threshold = 1e-14 * max(abs(h), 1.0)
        norm = threshold
        for _ in range(abs(nudge)):
            norm = np.nextafter(norm, math.copysign(np.inf, nudge))
        v = np.zeros(4)
        v[:2] = h, norm
        start = np.zeros(4)
        start[0] = 1.0
        with np.errstate(over="ignore"):  # as in the solvers
            lib = _assert_cycles_match(lambda q: v.copy(), 4, start, 1)
        assert lib["flags"][0][0] == (nudge <= 0)


# ---------------------------------------------------------------------- #
# the breakdown test on a hooked step
# ---------------------------------------------------------------------- #
class _LastCoefficientThenTinyNorm:
    """Sets the step's last MGS coefficient to ``value`` (poisoning ``w``)
    and its subdiagonal norm to 1e-300."""

    def __init__(self, value: float):
        self.value = value

    def corrupt_scalar(self, site, value, *, mgs_index, mgs_length=0, **context):
        if site == "hessenberg" and mgs_index == mgs_length - 1:
            return self.value
        return 1e-300 if site == "subdiag" else value

    def corrupt_vector(self, site, vec, **context):
        return vec


@pytest.mark.parametrize("value, breaks_down", [(math.nan, False), (math.inf, True)])
def test_nonfinite_coefficient_next_to_tiny_norm(value, breaks_down):
    """A NaN coefficient makes the breakdown scale NaN, which vetoes the
    breakdown a tiny norm would declare; an infinite one does not."""
    matvec, n = _problem("poisson100")
    op = MatrixFreeOperator((n, n), matvec)
    basis = np.zeros((n, 4), order="F")
    basis[:, 0] = _random_start(n)
    ctx = ArnoldiContext()
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(2):
            arnoldi_step(op, basis, j, ctx)
        ctx.injector = _LastCoefficientThenTinyNorm(value)
        h_col, q_next, breakdown = arnoldi_step(op, basis, 2, ctx)
    assert np.isfinite(h_col[:2]).all() and h_col[3] == 1e-300
    assert breakdown is breaks_down
    assert reference_breakdown(h_col, h_col[3]) is breaks_down
    assert (q_next is None) is breaks_down


# ---------------------------------------------------------------------- #
# the Givens rotation, the back-substitution and whole solves
# ---------------------------------------------------------------------- #
SPECIAL = [0.0, -0.0, 1.0, -2.5, 3.0, 1e300, -1e-300, 5e-324, math.inf, -math.inf, math.nan]


def test_givens_rotation_special_values():
    for a in SPECIAL:
        for b in SPECIAL:
            with np.errstate(invalid="ignore", over="ignore"):
                want = reference_givens_rotation(np.float64(a), np.float64(b))
            assert_same(givens_rotation(a, b), want, f"givens({a}, {b})")


@pytest.mark.parametrize("R, rhs", [
    ([[2.0, 1.0], [0.0, 0.0]], [1.0, 1.0]),
    ([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 0.0, 4.0]], [1.0, -2.0, 0.5]),
    ([[1.0, math.nan], [0.0, 2.0]], [1.0, 1.0]),
    ([[1e-300, 1e300], [0.0, 1e-300]], [1.0, 1e300]),
])
def test_back_substitution_zero_pivot_and_overflow(R, rhs):
    R, rhs = np.array(R), np.array(rhs)
    with np.errstate(invalid="ignore", over="ignore"):
        assert_same(solve_triangular(R, rhs), reference_solve_triangular(R, rhs), "y")


def test_zero_column_gives_a_zero_pivot():
    hess, qr = HessenbergMatrix(2, 1.0), ReferenceGivensQR(2, 1.0)
    for column in ([0.0, 0.0], [1.0, 2.0, 0.0]):
        assert_same(hess.add_column(np.array(column)), qr.add_column(column), "estimate")
    y, info = hess.solve_y()
    assert not info["finite"]
    assert_same(y, reference_solve_triangular(qr.R[:2, :2], qr.g[:2]), "y")


@pytest.mark.parametrize("grid_n", [10, 30])
def test_restarted_gmres(grid_n):
    """The cycle loop (restarts, the residual norm reused as the next
    cycle's beta, the solution update) on top of the step."""
    A = poisson_problem(grid_n=grid_n).A
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    result = gmres(A, b, tol=0.0, restart=10, maxiter=30)
    x, history = reference_gmres(A.matvec, b, restart=10, maxiter=30)
    assert_same(result.x, x, "x")
    assert_same(result.history.as_array(), history, "history")


def _jacobi_poisson():
    A = poisson_problem(grid_n=10).A
    d = A.diagonal()
    return A, lambda q: q / d


def _ilu_circuit():
    A = circuit_problem(n_nodes=300).A
    return A, resolve_preconditioner("ilu0", A=A).apply


@pytest.mark.parametrize("setup", [_jacobi_poisson, _ilu_circuit],
                         ids=["poisson100-jacobi", "circuit300-ilu"])
def test_fgmres_outer_step(setup):
    """FGMRES's outer MGS step and its Givens update, with a non-unit
    flexible basis."""
    A, inner = setup()
    b = np.random.default_rng(9).standard_normal(A.shape[0])
    state = OuterState()
    result = fgmres(A, b, inner_solver=lambda q, j: inner(q), tol=1e-10, max_outer=60,
                    lsq_policy="standard", state=state)
    x, history, H, qr = reference_fgmres(A.matvec, b, inner, 60, 1e-10)
    assert_same(result.x, x, "x")
    assert_same(result.history.as_array(), history, "history")
    k = state.hess.k
    assert_same(state.hess.H, H, "H")
    assert_same(state.hess.R, qr.R[:k, :k], "R")
    assert_same(state.hess.g, qr.g[: k + 1], "g")


def test_fgmres_breakdown():
    """An outer happy breakdown on its first step, as in the oracle."""
    A = np.diag([2.0, 3.0, 5.0])
    b = np.array([1.0, 0.0, 0.0])
    result = fgmres(A, b, tol=0.0, max_outer=3, lsq_policy="standard")
    x, history, _, _ = reference_fgmres(lambda q: A @ q, b, lambda q: q.copy(), 3, 0.0)
    assert result.iterations == 1
    assert_same(result.x, x, "x")
    assert_same(result.history.as_array(), history, "history")
