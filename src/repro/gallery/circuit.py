"""Synthetic circuit-simulation matrices (surrogate for ``mult_dcop_03``).

The paper's nonsymmetric test problem is ``mult_dcop_03`` from the UF Sparse
Matrix Collection: a 25,187-row DC operating-point circuit matrix that is
structurally full rank, nonsymmetric, and extremely ill-conditioned
(condition number ≈ 7.3e13).  The collection is not redistributable in this
offline environment, so :func:`mult_dcop_surrogate` builds a matrix with the
same *qualitative* profile from a modified-nodal-analysis (MNA) model:

* a resistor/conductance network whose edge conductances span many decades
  (circuit matrices mix pico-siemens leakage paths with multi-siemens
  drivers) — this produces the extreme condition number;
* voltage-controlled current sources (transistor transconductances) that
  contribute one-sided ``g_m`` entries — this makes the pattern and the
  values nonsymmetric;
* a strictly positive diagonal (every node has a path to ground), which
  gives structural full rank.

If the real matrix is available, wrap it in a
:class:`~repro.gallery.problems.TestProblem` and pass that to
:func:`repro.api.run_campaign` instead (a sweep accepts any problem).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import as_generator
from repro.utils.validation import require_positive_int

__all__ = ["circuit_network", "mult_dcop_surrogate"]


def circuit_network(
    n_nodes: int,
    avg_degree: float = 4.0,
    conductance_decades: float = 12.0,
    coupling_fraction: float = 0.15,
    coupling_gain: float = 50.0,
    ground_conductance: float = 1e-9,
    seed=0,
) -> CSRMatrix:
    """Build an MNA-style conductance matrix for a random circuit.

    Parameters
    ----------
    n_nodes : int
        Matrix dimension (number of circuit nodes).
    avg_degree : float
        Average number of two-terminal elements (resistors) per node.
    conductance_decades : float
        Conductances are sampled log-uniformly over this many decades,
        centred at 1 S.  Larger values produce worse conditioning.
    coupling_fraction : float
        Fraction of nodes that receive a one-sided transconductance entry
        (this is what breaks symmetry).
    coupling_gain : float
        Scale of the transconductance entries relative to the local
        conductance level.
    ground_conductance : float
        Small conductance from every node to ground added to the diagonal;
        keeps the matrix nonsingular without masking the ill-conditioning.
    seed : int or numpy.random.Generator
        Seed for reproducibility.

    Returns
    -------
    CSRMatrix
        A nonsymmetric, structurally full-rank, ill-conditioned square matrix.
    """
    n = require_positive_int(n_nodes, "n_nodes")
    rng = as_generator(seed)

    # --- two-terminal elements (resistors): symmetric Laplacian stamps ----
    n_edges = max(n - 1, int(round(avg_degree * n / 2.0)))
    # Guarantee connectivity with a random spanning-tree backbone, then add
    # random extra edges.  A connected conductance network has full rank once
    # the ground conductance is added.
    perm = rng.permutation(n)
    tree_src = perm[1:]
    tree_dst = perm[rng.integers(0, np.arange(1, n))] if n > 1 else np.empty(0, dtype=np.int64)
    extra = max(0, n_edges - (n - 1))
    rand_src = rng.integers(0, n, size=extra)
    rand_dst = rng.integers(0, n, size=extra)
    keep = rand_src != rand_dst
    src = np.concatenate([tree_src, rand_src[keep]]).astype(np.int64)
    dst = np.concatenate([tree_dst, rand_dst[keep]]).astype(np.int64)

    half = conductance_decades / 2.0
    conduct = 10.0 ** rng.uniform(-half, half, size=src.shape[0])

    rows = [src, dst, src, dst]
    cols = [dst, src, src, dst]
    vals = [-conduct, -conduct, conduct, conduct]

    # --- ground conductances (diagonal) -----------------------------------
    diag_idx = np.arange(n, dtype=np.int64)
    rows.append(diag_idx)
    cols.append(diag_idx)
    vals.append(np.full(n, ground_conductance))

    # --- transconductance (g_m) stamps: one-sided, break symmetry ---------
    n_couplings = int(round(coupling_fraction * n))
    if n_couplings > 0:
        gm_rows = rng.integers(0, n, size=n_couplings).astype(np.int64)
        gm_cols = rng.integers(0, n, size=n_couplings).astype(np.int64)
        off_diag = gm_rows != gm_cols
        gm_rows, gm_cols = gm_rows[off_diag], gm_cols[off_diag]
        gm_vals = coupling_gain * 10.0 ** rng.uniform(-half / 2.0, half / 2.0,
                                                      size=gm_rows.shape[0])
        signs = rng.choice([-1.0, 1.0], size=gm_rows.shape[0])
        rows.append(gm_rows)
        cols.append(gm_cols)
        vals.append(signs * gm_vals)

    coo = COOMatrix(
        (n, n),
        rows=np.concatenate(rows),
        cols=np.concatenate(cols),
        values=np.concatenate(vals),
    )
    return coo.tocsr()


def mult_dcop_surrogate(n_nodes: int = 25187, seed: int = 20140519) -> CSRMatrix:
    """The default surrogate for the paper's ``mult_dcop_03`` matrix.

    With the default size (25,187 nodes, the dimension of the real matrix)
    the surrogate is nonsymmetric, structurally full rank, and has a nonzero
    count of the same order as the original (~193k).  The conductance spread
    is chosen so that, after the Jacobi equilibration applied by
    :func:`repro.gallery.problems.circuit_problem`, the matrix remains badly
    conditioned (≫ 1e9) yet an unpreconditioned FT-GMRES(25) nested solve
    still converges in a few tens of outer iterations at reduced sizes — the
    regime the paper's Figure 4 explores.  Smaller ``n_nodes`` values keep
    the same character and are the default for the benchmark configurations.

    Parameters
    ----------
    n_nodes : int
        Matrix dimension; defaults to the size of the real ``mult_dcop_03``.
    seed : int
        Seed fixing the synthetic circuit topology and element values.
    """
    return circuit_network(
        n_nodes,
        avg_degree=6.0,
        conductance_decades=6.0,
        coupling_fraction=0.15,
        coupling_gain=10.0,
        ground_conductance=1e-10,
        seed=seed,
    )
