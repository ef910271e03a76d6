"""repro — reproduction of "Evaluating the Impact of SDC on the GMRES Iterative Solver".

The library rebuilds, in pure Python/NumPy, the systems behind Elliott,
Hoemmen and Mueller's IPDPS 2014 study of silent data corruption (SDC) in
GMRES:

* a sparse-matrix substrate and matrix gallery (:mod:`repro.sparse`,
  :mod:`repro.gallery`);
* GMRES / Flexible GMRES / FT-GMRES with the Hessenberg-bound SDC detector
  and the robust projected least-squares policies (:mod:`repro.core`);
* a fault-injection framework implementing the paper's single-transient-SDC
  methodology and its generalizations (:mod:`repro.faults`);
* a campaign execution engine with serial/batched/sharded backends and
  deterministic result ordering (:mod:`repro.exec`);
* experiment drivers that regenerate every table and figure of the paper's
  evaluation (:mod:`repro.experiments`);
* a config-first public API: typed JSON-round-trippable specs
  (:mod:`repro.specs`), component registries (:mod:`repro.registry`), and the
  ``solve``/``run_campaign``/``iter_trials`` facades (:mod:`repro.api`);
* a streaming results subsystem (:mod:`repro.results`): a unified structured
  event bus, a persistent run store with checkpoint/resume at trial
  granularity, and a filter/group/aggregate query API over stored runs.

Quickstart
----------
>>> from repro import poisson_problem, ft_gmres
>>> problem = poisson_problem(grid_n=10)          # 100-row Poisson system
>>> result = ft_gmres(problem.A, problem.b, inner_iterations=10, max_outer=30)
>>> bool(result.converged)
True
"""

from repro.core import (
    gmres,
    fgmres,
    ft_gmres,
    SolverStatus,
    SolverResult,
    NestedSolverResult,
    HessenbergBoundDetector,
    NonFiniteDetector,
    CompositeDetector,
    LeastSquaresPolicy,
)
from repro.baselines import cg
from repro.gallery import (
    poisson2d,
    convection_diffusion_2d,
    mult_dcop_surrogate,
    poisson_problem,
    circuit_problem,
    paper_problems,
    TestProblem,
)
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    LinearOperator,
    aslinearoperator,
    frobenius_norm,
    two_norm_estimate,
    hessenberg_bound,
)
from repro.faults import (
    FaultInjector,
    InjectionSchedule,
    ScalingFault,
    BitFlipFault,
    PAPER_FAULT_CLASSES,
    FaultCampaign,
)
from repro.exec import TrialSpec
from repro.precond import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    ILU0Preconditioner,
    SSORPreconditioner,
)
from repro import api, registry, results, specs
from repro.api import solve, run_campaign, iter_trials, serve
from repro.results import (
    Event,
    EventSink,
    RunStore,
    RunStoreError,
    TrialQuery,
)
from repro.specs import (SolveSpec, ExecutionSpec, CampaignSpec, ServiceSpec,
                         SpecError, spec_hash)

__version__ = "1.1.0"

__all__ = [
    # core solvers
    "gmres",
    "fgmres",
    "ft_gmres",
    "cg",
    "SolverStatus",
    "SolverResult",
    "NestedSolverResult",
    "LeastSquaresPolicy",
    # detection
    "HessenbergBoundDetector",
    "NonFiniteDetector",
    "CompositeDetector",
    # matrices and problems
    "COOMatrix",
    "CSRMatrix",
    "LinearOperator",
    "aslinearoperator",
    "frobenius_norm",
    "two_norm_estimate",
    "hessenberg_bound",
    "poisson2d",
    "convection_diffusion_2d",
    "mult_dcop_surrogate",
    "poisson_problem",
    "circuit_problem",
    "paper_problems",
    "TestProblem",
    # preconditioners
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "ILU0Preconditioner",
    "SSORPreconditioner",
    # fault injection
    "FaultInjector",
    "InjectionSchedule",
    "ScalingFault",
    "BitFlipFault",
    "PAPER_FAULT_CLASSES",
    "FaultCampaign",
    # parallel execution engine
    "TrialSpec",
    # config-first public API
    "api",
    "registry",
    "specs",
    "solve",
    "run_campaign",
    "SolveSpec",
    "ExecutionSpec",
    "CampaignSpec",
    "ServiceSpec",
    "SpecError",
    "spec_hash",
    "serve",
    # streaming results subsystem
    "results",
    "iter_trials",
    "Event",
    "EventSink",
    "RunStore",
    "RunStoreError",
    "TrialQuery",
    "__version__",
]
