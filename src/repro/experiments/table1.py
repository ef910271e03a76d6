"""Table I — properties of the sample matrices.

The paper's Table I lists, for each of the two test matrices: dimensions,
nonzero count, structural full rank, nonzero-pattern symmetry, value type,
positive definiteness, condition number, and the two "potential fault
detectors" ``||A||_2`` and ``||A||_F``.  :func:`matrix_properties` computes
all of these for any :class:`~repro.gallery.problems.TestProblem`;
:func:`table1_rows` lays them out in the paper's row order; and
:data:`PAPER_TABLE1` records the paper's published values, which
``benchmarks/bench_table1.py`` prints beside the computed ones.
"""

from __future__ import annotations

import numpy as np

from repro.gallery.problems import TestProblem
from repro.sparse.norms import frobenius_norm, two_norm_estimate
from repro.sparse.csr import CSRMatrix

__all__ = ["matrix_properties", "table1_rows", "condition_estimate", "PAPER_TABLE1"]


#: Values published in the paper's Table I (for comparison with the computed ones).
PAPER_TABLE1 = {
    "poisson": {
        "rows": 10000,
        "cols": 10000,
        "nnz": 49600,
        "structural_full_rank": True,
        "pattern_symmetric": True,
        "positive_definite": True,
        "condition_number": 6.0107e3,
        "two_norm": 8.0,
        "frobenius_norm": 446.0,
    },
    "circuit": {
        "rows": 25187,
        "cols": 25187,
        "nnz": 193216,
        "structural_full_rank": True,
        "pattern_symmetric": False,
        "positive_definite": False,
        "condition_number": 7.27261e13,
        "two_norm": 17.1762,
        "frobenius_norm": 42.4179,
    },
}


def condition_estimate(A: CSRMatrix, method: str = "auto") -> float:
    """Estimate the condition number of ``A``.

    Parameters
    ----------
    A : CSRMatrix
        Square matrix.
    method : {"auto", "dense", "sparse"}
        * ``"dense"`` — exact 2-norm condition number via dense SVD (only
          sensible below a few thousand rows).
        * ``"sparse"`` — 1-norm condition estimate using a sparse LU
          factorization and Hager/Higham norm estimation
          (``scipy.sparse.linalg.splu`` + ``onenormest``).
        * ``"auto"`` — dense below 2000 rows, sparse otherwise.

    Returns
    -------
    float
        The condition estimate; ``inf`` if the matrix is numerically
        singular or the factorization fails.
    """
    n = A.shape[0]
    if method not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown condition estimation method {method!r}")
    if method == "dense" or (method == "auto" and n <= 2000):
        dense = A.todense()
        s = np.linalg.svd(dense, compute_uv=False)
        if s[-1] == 0.0:
            return float("inf")
        return float(s[0] / s[-1])
    import scipy.sparse.linalg as spla

    sp = A.to_scipy().tocsc()
    try:
        lu = spla.splu(sp)
    except RuntimeError:
        return float("inf")
    norm_a = spla.onenormest(sp)

    n_rows = sp.shape[0]
    inv_op = spla.LinearOperator(
        (n_rows, n_rows),
        matvec=lambda v: lu.solve(v),
        rmatvec=lambda v: lu.solve(v, trans="T"),
    )
    norm_inv = spla.onenormest(inv_op)
    return float(norm_a * norm_inv)


def matrix_properties(problem: TestProblem, *, compute_condition: bool = True,
                      condition_method: str = "auto",
                      estimate_two_norm: bool = True) -> dict:
    """Compute the Table I property set for one test problem.

    Parameters
    ----------
    problem : TestProblem
        The problem whose matrix is analysed.
    compute_condition : bool
        Whether to estimate the condition number (the most expensive entry).
    condition_method : str
        Passed to :func:`condition_estimate`.
    estimate_two_norm : bool
        Whether to run the power-method estimate of ``||A||_2``.

    Returns
    -------
    dict
        Keys match :data:`PAPER_TABLE1` plus ``"name"``.
    """
    A = problem.A
    props = {
        "name": problem.name,
        "rows": A.shape[0],
        "cols": A.shape[1],
        "nnz": A.nnz,
        "structural_full_rank": A.has_full_structural_rank(),
        "pattern_symmetric": A.is_pattern_symmetric(),
        "numerically_symmetric": A.is_symmetric(),
        "positive_definite": problem.spd,
        "frobenius_norm": frobenius_norm(A),
    }
    props["two_norm"] = two_norm_estimate(A) if estimate_two_norm else float("nan")
    props["condition_number"] = (
        condition_estimate(A, method=condition_method) if compute_condition else float("nan")
    )
    return props


def table1_rows(problems: dict[str, TestProblem], **kwargs) -> tuple[list[str], list[list]]:
    """Assemble Table I in the paper's layout.

    Parameters
    ----------
    problems : dict
        Mapping of column label (e.g. ``"poisson"``, ``"circuit"``) to
        :class:`TestProblem`.
    **kwargs
        Forwarded to :func:`matrix_properties`.

    Returns
    -------
    (headers, rows)
        Headers are ``["Properties", <column labels...>]``; rows follow the
        paper's ordering and can be fed to
        :func:`repro.experiments.report.format_table`.
    """
    columns = {label: matrix_properties(problem, **kwargs)
               for label, problem in problems.items()}
    labels = list(columns)
    row_specs = [
        ("number of rows", "rows"),
        ("number of columns", "cols"),
        ("nonzeros", "nnz"),
        ("structural full rank?", "structural_full_rank"),
        ("nonzero pattern symmetry", "pattern_symmetric"),
        ("positive definite?", "positive_definite"),
        ("Condition Number", "condition_number"),
        ("||A||_2", "two_norm"),
        ("||A||_F", "frobenius_norm"),
    ]
    rows = []
    for label, key in row_specs:
        row = [label]
        for col in labels:
            value = columns[col][key]
            if key == "pattern_symmetric":
                value = "symmetric" if value else "nonsymmetric"
            elif isinstance(value, (bool, np.bool_)):
                value = "yes" if value else "no"
            row.append(value)
        rows.append(row)
    headers = ["Properties"] + labels
    return headers, rows
